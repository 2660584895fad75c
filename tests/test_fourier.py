import numpy as np
import pytest

import wgelfand as wg
from wgelfand.errors import InputSpecError, NotMultiplierError
from wgelfand.tolerance import within

import oracles
from conftest import (
    commutation_oracle,
    dense_c_oracle,
    gelfand_instances,
    is_multiplier_oracle,
    random_bi_invariant_weight,
    random_gfunction,
)


@pytest.fixture(scope="module")
def s3_setup(s3_pair):
    group, K, part = s3_pair
    wd = wg.weight_from_spec({"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, part)
    sc = wg.hecke_structure_constants(group, part, wd)
    sset = wg.enumerate_spherical(sc)
    return group, K, part, wd[part.coset_of], sc, sset


@pytest.fixture(scope="module")
def s3_uniform_setup(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    sset = wg.enumerate_spherical(sc)
    return group, K, part, np.ones(group.order), sc, sset


def test_transform_of_subgroup_indicator(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    f = oracles.indicator(0, part)
    values = oracles.spherical_transform(f, sset, group, w)
    assert np.allclose(values, [2.0, 2.0])


def test_transform_of_zero(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    f = wg.BiInvariantFunction(np.zeros(2, dtype=complex), part)
    assert np.allclose(oracles.spherical_transform(f, sset, group, w), 0.0)


def test_transform_cyclic4_against_dft(c4_pair):
    group, K, part = c4_pair
    w = np.ones(group.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    f = oracles.indicator(1, part)  # delta at element 1
    values = oracles.spherical_transform(f, sset, group, w)
    for s, phi in enumerate(sset.functions):
        assert values[s] == pytest.approx(phi[group.inv[1]])
    # full agreement with the character-table transform on random functions
    rng = np.random.default_rng(0)
    chars = sset.functions
    g = random_gfunction(4, rng)
    fbi = wg.BiInvariantFunction(g, part)
    dft = chars[:, group.inv] @ g
    assert np.allclose(oracles.spherical_transform(fbi, sset, group, w), dft, atol=1e-9)


def test_convolution_theorem_weighted(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(1)
    for _ in range(25):
        f = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        g = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        assert oracles.verify_convolution_theorem(f, g, sset, group, w) < 1e-9


def test_convolution_theorem_structure_constant_example(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    d1 = oracles.indicator(1, part)
    lhs = oracles.spherical_transform(
        wg.BiInvariantFunction(sc.left(d1.coset_values) @ d1.coset_values, part),
        sset, group, w,
    )
    rhs = oracles.spherical_transform(d1, sset, group, w) ** 2
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_convolution_theorem_identity_element():
    c3 = wg.cyclic_group(3)
    K = wg.subgroup_closure(c3, [])
    part = wg.double_cosets(c3, K)
    w = np.ones(c3.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(c3, part, w[part.reps]))
    f = wg.BiInvariantFunction(np.array([2.0, 1.0j, -1.0]), part)
    e = oracles.indicator(part.identity_coset, part)
    assert oracles.verify_convolution_theorem(f, e, sset, c3, w) < 1e-12


def test_injectivity_s3(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    # rows are transforms of the indicators: {2, 2} and {4, -2} up to order
    assert sorted(np.round(sset.characters.T.real.flatten()).tolist()) == [-2, 2, 2, 4]
    rank, cond = wg.injectivity_check(sset)
    assert rank == 2
    assert np.isfinite(cond)


def test_injectivity_weighted(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rank, _ = wg.injectivity_check(sset)
    assert rank == 2


def test_injectivity_rank_one_for_full_subgroup(s3):
    K = wg.subgroup_closure(s3, [1, 2])
    part = wg.double_cosets(s3, K)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(s3, part, np.ones(1)))
    rank, _ = wg.injectivity_check(sset)
    assert rank == 1


@pytest.mark.parametrize("wide, singular", [(1e15, False), (1e16, True)])
def test_injectivity_singular_when_rows_span_one_over_eps(s3, wide, singular):
    """cond(F) is at least the spread of the row norms of F; from 1 / eps
    (about 4.5e15) on, F is singular in floating point and the check
    raises, whatever the SVD returns. A diagonal F has the exact condition
    number `wide`, finite on both sides of the cut."""
    part = wg.double_cosets(s3, wg.subgroup_closure(s3, [1]))
    sset = wg.SphericalSet(
        functions=np.eye(2, dtype=complex),
        characters=np.diag([1.0, wide]).astype(complex),
        classical_characters=np.eye(2, dtype=complex),
        partition=part,
    )
    if singular:
        with pytest.raises(wg.DegenerateSpectrumError, match="singular"):
            wg.injectivity_check(sset)
    else:
        assert wg.injectivity_check(sset) == (2, wide)


def test_multiplier_from_kernel_identity(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    # the algebra identity: supported on K with value 1/(|K| w_K^2)
    wK = w[part.reps[part.identity_coset]]
    e = oracles.indicator(part.identity_coset, part)
    unit = wg.BiInvariantFunction(e.coset_values / (K.order * wK ** 2), part)
    T = wg.multiplier_from_kernel(unit, sc)
    assert np.allclose(T.matrix, np.eye(2), atol=1e-12)


def test_multiplier_from_kernel_columns(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    h = oracles.indicator(1, part)
    T = wg.multiplier_from_kernel(h, sc)
    c = dense_c_oracle(group, part, w)
    assert np.allclose(T.matrix[:, 0], c[1, 0])
    assert np.allclose(T.matrix[:, 1], c[1, 1])


def test_multiplier_from_zero_kernel(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    h = wg.BiInvariantFunction(np.zeros(2, dtype=complex), part)
    assert np.allclose(wg.multiplier_from_kernel(h, sc).matrix, 0.0)


def test_kernel_operators_are_multipliers(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        ok, witness = wg.is_multiplier(wg.multiplier_from_kernel(h, sc), sc)
        assert ok and witness is None


def test_scalar_operator_is_multiplier(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    ok, _ = wg.is_multiplier(wg.MultiplierOperator(matrix=(3.0 - 1.0j) * np.eye(2)), sc)
    assert ok


def test_non_multiplier_rejected_with_witness(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(3)
    h = wg.BiInvariantFunction(np.array([1.0, 2.0 + 1.0j]), part)
    T = wg.multiplier_from_kernel(h, sc)
    bad = wg.MultiplierOperator(matrix=T.matrix.T)  # transpose breaks it here
    ok, witness = wg.is_multiplier(bad, sc)
    assert not ok
    i, j = witness
    c = dense_c_oracle(group, part, w)
    lhs = bad.matrix @ c[i, j]
    rhs = bad.matrix[:, i] @ c[:, j]
    assert np.max(np.abs(lhs - rhs)) > 1e-9


def test_symbol_identity_and_scalar(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    sym = wg.extract_symbol(wg.MultiplierOperator(matrix=np.eye(2)), sset)
    assert np.allclose(sym.values, 1.0, atol=1e-10)
    sym = wg.extract_symbol(wg.MultiplierOperator(matrix=3.0 * np.eye(2)), sset)
    assert np.allclose(sym.values, 3.0, atol=1e-10)


def test_symbol_equals_kernel_transform(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        T = wg.multiplier_from_kernel(h, sc)
        sym = wg.extract_symbol(T, sset)
        assert np.allclose(
            sym.values, oracles.spherical_transform(h, sset, group, w), atol=1e-9
        )


def test_symbol_of_composition_multiplies(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(5)
    h1 = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    h2 = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T1 = wg.multiplier_from_kernel(h1, sc)
    T2 = wg.multiplier_from_kernel(h2, sc)
    s1 = wg.extract_symbol(T1, sset).values
    s2 = wg.extract_symbol(T2, sset).values
    s12 = wg.extract_symbol(wg.MultiplierOperator(matrix=T1.matrix @ T2.matrix), sset).values
    assert np.max(np.abs(s12 - s1 * s2)) < 1e-9


def test_symbol_extraction_rejects_non_multiplier(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    bad = wg.MultiplierOperator(matrix=np.array([[1.0, 5.0], [0.0, 1.0]]))
    ok, _ = wg.is_multiplier(bad, sc)
    if not ok:
        with pytest.raises(NotMultiplierError):
            wg.extract_symbol(bad, sset)


def test_commutation_identity_operator(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(6)
    h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T = wg.multiplier_from_kernel(h, sc)
    assert wg.verify_commutation(T, wg.MultiplierOperator(matrix=np.eye(2))) < 1e-9


def test_commutation_same_operator_is_exact(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(7)
    h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T = wg.multiplier_from_kernel(h, sc)
    assert wg.verify_commutation(T, T) == 0.0


def test_commutation_random_kernel_pairs(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(8)
    for _ in range(10):
        T1 = wg.multiplier_from_kernel(
            wg.BiInvariantFunction(random_gfunction(2, rng), part), sc
        )
        T2 = wg.multiplier_from_kernel(
            wg.BiInvariantFunction(random_gfunction(2, rng), part), sc
        )
        assert wg.verify_commutation(T1, T2) < 1e-9


def test_multiplier_from_spec(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    T = wg.multiplier_from_spec(
        {"kind": "kernel", "coset_values": [[1.0, 0.0], [2.0, -1.0]]}, sc
    )
    assert T.kernel is not None
    T = wg.multiplier_from_spec(
        {"kind": "matrix", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, sc
    )
    assert T.matrix[1, 1] == 1.0
    with pytest.raises(InputSpecError):
        wg.multiplier_from_spec({"kind": "kernel", "coset_values": [[1, 0]]}, sc)
    with pytest.raises(InputSpecError):
        wg.multiplier_from_spec({"kind": "what"}, sc)


def test_symbol_serialization(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    sym = wg.extract_symbol(wg.MultiplierOperator(matrix=np.eye(2)), sset)
    blob = sym.to_json()
    assert len(blob["symbol"]) == 2


def test_fourier_table_matches_transform_oracle():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        indicators = [
            oracles.indicator(i, part) for i in range(part.num_cosets)
        ]
        oracle = np.array([oracles.spherical_transform(f, sset, group, w) for f in indicators])
        assert np.allclose(sset.characters.T, oracle, rtol=1e-12, atol=1e-12), name


@pytest.fixture(scope="module")
def d12_reflection_setup():
    group = wg.dihedral_group(12)
    K = wg.subgroup_closure(group, [2])  # element 2 is the generating reflection
    part = wg.double_cosets(group, K)
    w = random_bi_invariant_weight(part, np.random.default_rng(11), unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    return part, sc, dense_c_oracle(group, part, w)


def test_multiplier_checks_match_loop_oracle(d12_reflection_setup):
    part, sc, c = d12_reflection_setup
    d = part.num_cosets
    rng = np.random.default_rng(12)
    kernels = [
        wg.multiplier_from_kernel(
            wg.BiInvariantFunction(random_gfunction(d, rng), part), sc
        )
        for _ in range(3)
    ]
    bump = 0.5 * np.outer(np.eye(d)[1], np.eye(d)[3])
    others = [
        wg.MultiplierOperator(
            matrix=rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ),
        wg.MultiplierOperator(matrix=np.diag(np.arange(1.0, d + 1))),
        wg.MultiplierOperator(matrix=(2.0 - 1.0j) * np.eye(d)),
        wg.MultiplierOperator(matrix=kernels[0].matrix + bump),
    ]
    for T in kernels + others:
        assert wg.is_multiplier(T, sc) == is_multiplier_oracle(T, c)
    assert not wg.is_multiplier(others[0], sc)[0]
    # a kernel operator changed in column 3 only first fails at the pair (0, 3)
    assert wg.is_multiplier(others[-1], sc) == (False, (0, 3))
    for T1 in kernels + others:
        for T2 in kernels + others:
            a, b = T1.matrix, T2.matrix
            assert wg.verify_commutation(T1, T2) == np.max(np.abs(a @ b - b @ a))
    # on multipliers both the matrix commutator and the pairwise products vanish
    accepted = kernels + [others[2]]
    assert all(wg.is_multiplier(T, sc)[0] for T in accepted)
    for T1 in accepted:
        for T2 in accepted:
            scale = d * np.max(np.abs(T1.matrix)) * np.max(np.abs(T2.matrix))
            assert within(wg.verify_commutation(T1, T2), scale)
            assert within(commutation_oracle(T1, T2, c), d * scale * np.max(np.abs(c)))

    sset = wg.enumerate_spherical(sc)
    e = part.identity_coset
    k_order = part.sizes[e]
    for T in accepted:
        assert np.allclose(
            wg.extract_symbol(T, sset).values,
            T.matrix[:, e] / k_order @ sset.characters.T,
            rtol=1e-12, atol=1e-12,
        )
    with pytest.raises(NotMultiplierError):
        wg.extract_symbol(others[-1], sset)


def test_kernel_multipliers_compose_through_the_product(d12_reflection_setup):
    """T1 f * T2 g = T1 T2 (f * g) for kernel multipliers, so the pairwise
    commutation residual is the commutator applied to f * g."""
    part, sc, _ = d12_reflection_setup
    d = part.num_cosets
    rng = np.random.default_rng(14)
    T1, T2 = (
        wg.multiplier_from_kernel(wg.BiInvariantFunction(random_gfunction(d, rng), part), sc)
        for _ in range(2)
    )
    for _ in range(5):
        f, g = random_gfunction(d, rng), random_gfunction(d, rng)
        lhs = sc.left(T1.matrix @ f) @ (T2.matrix @ g)
        rhs = T1.matrix @ (T2.matrix @ (sc.left(f) @ g))
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.max(np.abs(rhs)))


def test_multiplier_witness_is_on_the_identity_row():
    """C4 relabelled so that the identity is index 2: the check runs on the
    unit's row, so a failing operator is caught at a pair (2, j), and that
    pair really fails the defining identity on the dense c."""
    label = [2, 0, 3, 1]  # label[a] is the index of the rotation by a
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            table[label[a]][label[b]] = label[(a + b) % 4]
    group = wg.group_from_spec({"kind": "table", "table": table})
    assert group.identity == 2
    part = wg.double_cosets(group, wg.subgroup_closure(group, []))
    assert part.identity_coset == 2
    rng = np.random.default_rng(13)
    w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    c = dense_c_oracle(group, part, w)

    T = wg.MultiplierOperator(matrix=rng.standard_normal((4, 4)))
    ok, (i, j) = wg.is_multiplier(T, sc)
    assert not ok and i == 2
    assert is_multiplier_oracle(T, c)[0] is False
    scale = max(1.0, float(np.max(np.abs(T.matrix))), float(np.max(np.abs(c))))
    gaps = [np.max(np.abs(T.matrix @ c[2, k] - T.matrix[:, 2] @ c[:, k])) for k in range(4)]
    assert gaps[j] > 1e-9 * scale
    assert all(gap <= 1e-9 * scale for gap in gaps[:j])

    kernel = wg.multiplier_from_kernel(wg.BiInvariantFunction(random_gfunction(4, rng), part), sc)
    assert wg.is_multiplier(kernel, sc) == is_multiplier_oracle(kernel, c) == (True, None)


@pytest.mark.parametrize(
    "wide, diagonal",
    [(1e5, [1.0, 2.0]), (1e3, [1.0, 1.0 + 1e-4])],
    ids=["gap-1", "gap-1e-4"],
)
def test_multiplier_check_scale_ignores_weight_spread(wide, diagonal):
    """On C2 with K trivial, T u = u for T = diag(1, t), so T is a
    multiplier only if t = 1. The structure constants reach w_1^2, but the
    identity row compares T with L_{T u} = I: a wide weight must not widen
    the tolerance of that comparison."""
    c2 = wg.cyclic_group(2)
    part = wg.double_cosets(c2, wg.subgroup_closure(c2, []))
    sc = wg.hecke_structure_constants(c2, part, np.array([1.0, wide]))
    assert sc.max_constant == wide**2
    T = wg.MultiplierOperator(matrix=np.diag(diagonal).astype(complex))
    assert wg.is_multiplier(T, sc) == (False, (0, 1))

    kernel = wg.multiplier_from_kernel(
        wg.BiInvariantFunction(np.array([1.0, -0.5 + 2j]), part), sc
    )
    assert wg.is_multiplier(kernel, sc) == (True, None)


def test_symbol_check_accepts_what_is_multiplier_accepts():
    """On C2 with K trivial and w = [1, 1e5], L_h for h = (1, 1) has an entry
    1e10, so a bump of 1e-3 in T[1, 1] is within is_multiplier's tolerance.
    Row 1 of F is 1e5 times row 0, and reading the symbol off row e puts the
    bump, times 1e5, into row 1 of the residual: the symbol check must scale
    it the same way and return the transform of T u. A gap of 1 on the same
    weight is still rejected by both checks."""
    c2 = wg.cyclic_group(2)
    part = wg.double_cosets(c2, wg.subgroup_closure(c2, []))
    sc = wg.hecke_structure_constants(c2, part, np.array([1.0, 1e5]))
    sset = wg.enumerate_spherical(sc)
    bumped = sc.left(np.array([1.0, 1.0]))
    assert np.max(np.abs(bumped)) == 1e10
    bumped[1, 1] += 1e-3
    T = wg.MultiplierOperator(matrix=bumped)
    assert wg.is_multiplier(T, sc) == (True, None)
    sym = wg.extract_symbol(T, sset).values
    assert np.array_equal(sym, T.matrix[:, 0] @ sset.characters.T)

    bad = wg.MultiplierOperator(matrix=np.diag([1.0, 2.0]).astype(complex))
    assert wg.is_multiplier(bad, sc) == (False, (0, 1))
    with pytest.raises(NotMultiplierError):
        wg.extract_symbol(bad, sset)
