import numpy as np
import pytest
from hypothesis import example, given, settings

import wgelfand as wg
from wgelfand.errors import InputSpecError
from wgelfand.tolerance import RTOL, within

import oracles
from conftest import (
    commutation_oracle,
    dense_c_oracle,
    fuzz_group,
    fuzz_pairs,
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
    values = oracles.spherical_transform(f, part, sset, group, w)
    assert np.allclose(values, [2.0, 2.0])


def test_transform_of_zero(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    f = np.zeros(2, dtype=complex)
    assert np.allclose(oracles.spherical_transform(f, part, sset, group, w), 0.0)


def test_transform_cyclic4_against_dft(c4_pair):
    group, K, part = c4_pair
    w = np.ones(group.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    f = oracles.indicator(1, part)  # delta at element 1
    values = oracles.spherical_transform(f, part, sset, group, w)
    for s, phi in enumerate(sset.functions):
        assert values[s] == pytest.approx(phi[group.inv[1]])
    # full agreement with the character-table transform on random functions
    rng = np.random.default_rng(0)
    chars = sset.functions
    g = random_gfunction(4, rng)
    dft = chars[:, group.inv] @ g
    assert np.allclose(oracles.spherical_transform(g, part, sset, group, w), dft, atol=1e-9)


def test_convolution_theorem_weighted(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(1)
    for _ in range(25):
        f, g = random_gfunction(2, rng), random_gfunction(2, rng)
        assert oracles.verify_convolution_theorem(f, g, part, sset, group, w) < 1e-9


def test_convolution_theorem_structure_constant_example(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    d1 = oracles.indicator(1, part)
    lhs = oracles.spherical_transform(sc.left(d1) @ d1, part, sset, group, w)
    rhs = oracles.spherical_transform(d1, part, sset, group, w) ** 2
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_convolution_theorem_identity_element():
    c3 = wg.cyclic_group(3)
    K = oracles.subgroup_closure(c3, [])
    part = wg.double_cosets(c3, K.generators)
    w = np.ones(c3.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(c3, part, w[part.reps]))
    f = np.array([2.0, 1.0j, -1.0])
    e = oracles.indicator(part.identity_coset, part)
    assert oracles.verify_convolution_theorem(f, e, part, sset, c3, w) < 1e-12


def test_injectivity_s3(s3_uniform_setup):
    """The rows of F are the transforms of the indicators, {2, 2} and
    {4, -2} up to order: row and column norms sqrt 8 and sqrt 20 give
    L = sqrt(5 / 2); a = sqrt|D| = (sqrt 2, 2) and m = (1, 2) give
    U = sqrt 2 sqrt 2 = 2; and kappa_2 = sqrt((7 + sqrt 13) / (7 - sqrt 13))
    lies between them."""
    group, K, part, w, sc, sset = s3_uniform_setup
    assert sorted(np.round(sset.characters.T.real.flatten()).tolist()) == [-2, 2, 2, 4]
    rank, (lower, upper) = wg.injectivity_check(sset)
    assert rank == 2
    assert lower == pytest.approx(np.sqrt(2.5), rel=RTOL) and upper == pytest.approx(2.0, rel=RTOL)
    kappa = oracles.condition_number(sset.characters.T)
    assert kappa == pytest.approx(np.sqrt((7 + np.sqrt(13)) / (7 - np.sqrt(13))), rel=RTOL)
    assert lower < kappa < upper


def test_injectivity_weighted(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rank, _ = wg.injectivity_check(sset)
    assert rank == 2


def test_injectivity_rank_one_for_full_subgroup(s3):
    K = oracles.subgroup_closure(s3, [1, 2])
    part = wg.double_cosets(s3, K.generators)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(s3, part, np.ones(1)))
    rank, _ = wg.injectivity_check(sset)
    assert rank == 1


@pytest.mark.parametrize("wide, singular", [(1e15, False), (1e16, True)])
def test_injectivity_singular_when_rows_span_one_over_eps(wide, singular):
    """cond(F) is at least the spread of the row norms of F; from 1 / eps
    (about 4.5e15) on, F is singular in floating point and the check
    raises. C2 given by a table with the identity at index 1, and weights 1
    at the identity and `wide` at the other element, has
    F = [[-wide, wide], [1, 1]]: orthogonal rows, equal column norms and
    m = (1, 1), so both ends of the bracket are the exact condition number
    `wide` to a few ulps, finite on both sides of the cut."""
    group = wg.group_from_spec({"kind": "table", "table": [[1, 0], [0, 1]]})
    K = oracles.subgroup_closure(group, [])
    part = wg.double_cosets(group, K.generators)
    assert part.identity_coset == 1
    wd = wg.weight_from_spec({"kind": "by_double_coset", "values": {"0": wide, "1": 1.0}}, part)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, wd))
    assert sset.characters.T.tolist() == [[-wide, wide], [1, 1]]
    assert sset.multiplicities.tolist() == [1, 1]
    if singular:
        with pytest.raises(wg.DegenerateSpectrumError, match="singular"):
            wg.injectivity_check(sset)
    else:
        eps = np.finfo(float).eps
        assert wg.injectivity_check(sset) == (2, (pytest.approx(wide, rel=4 * eps),) * 2)
        assert oracles.condition_number(sset.characters.T) == pytest.approx(wide, rel=4 * eps)


@settings(max_examples=80, deadline=None)
@given(fuzz_pairs())
@example((*fuzz_group("C", 12, False), [], 0))  # C12 over 1: L = U
@example((*fuzz_group("S", 5, True), [1, 8], 1))  # S5 over S3 x S2 as a table, m = (4, 5, 1)
@example((*fuzz_group("D", 12, False), [12], 2))  # D12 over a reflection, d = 7
def test_condition_bracket_holds_the_svd_condition_number(pair):
    """On a weighted Gelfand pair with coset weights log-uniform over
    1e+-3 and w(e) = 1, the kappa_2 of an SVD of F lies in the bracket
    (L, U) of `injectivity_check`, to the tolerance. Where the |D_i| are
    all equal and so are the m_s, as on C_n over 1, L = U."""
    group, mul, seeds, seed = pair
    part = wg.double_cosets(group, oracles.subgroup_closure(group, seeds).generators)
    wd = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, part.num_cosets)
    wd[part.identity_coset] = 1.0
    sc = wg.hecke_structure_constants(group, part, wd)
    if sc.commutativity_witness is not None:
        return
    sset = wg.enumerate_spherical(sc)
    rank, (lower, upper) = wg.injectivity_check(sset)
    kappa = oracles.condition_number(sset.characters.T)
    assert rank == part.num_cosets
    assert lower <= upper
    assert lower * (1 - RTOL) <= kappa <= upper * (1 + RTOL)
    if len(set(part.sizes.tolist())) == 1 and len(set(sset.multiplicities.tolist())) == 1:
        assert lower == pytest.approx(upper, rel=RTOL)


def test_multiplier_from_kernel_identity(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    # the algebra identity: supported on K with value 1/(|K| w_K^2)
    wK = w[part.reps[part.identity_coset]]
    e = oracles.indicator(part.identity_coset, part)
    T = wg.multiplier_from_kernel(e / (K.order * wK ** 2), sc)
    assert np.allclose(T, np.eye(2), atol=1e-12)


def test_multiplier_from_kernel_columns(s3_uniform_setup):
    group, K, part, w, sc, sset = s3_uniform_setup
    h = oracles.indicator(1, part)
    T = wg.multiplier_from_kernel(h, sc)
    c = dense_c_oracle(group, part, w)
    assert np.allclose(T[:, 0], c[1, 0])
    assert np.allclose(T[:, 1], c[1, 1])


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()], ids=str)
def test_multiplier_from_kernel_rejects_wrong_length(s3_setup, shape):
    group, K, part, w, sc, sset = s3_setup
    with pytest.raises(InputSpecError, match="kernel needs 2 coset values"):
        wg.multiplier_from_kernel(np.ones(shape, dtype=complex), sc)


def test_multiplier_from_zero_kernel(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    assert np.allclose(wg.multiplier_from_kernel(np.zeros(2, dtype=complex), sc), 0.0)


def test_kernel_operators_are_multipliers(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(2)
    e = part.identity_coset
    for _ in range(10):
        T = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
        ok, witness = wg.is_multiplier(T, sc)
        assert ok and witness is None
        assert np.all(within(*oracles.symbol_basis_residual(T, sset, e)))


def test_scalar_operator_is_multiplier(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    ok, _ = wg.is_multiplier((3.0 - 1.0j) * np.eye(2), sc)
    assert ok


def test_non_multiplier_rejected_with_witness(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(3)
    T = wg.multiplier_from_kernel(np.array([1.0, 2.0 + 1.0j]), sc)
    bad = T.T  # transpose breaks it here
    ok, witness = wg.is_multiplier(bad, sc)
    assert not ok
    i, j = witness
    c = dense_c_oracle(group, part, w)
    lhs = bad @ c[i, j]
    rhs = bad[:, i] @ c[:, j]
    assert np.max(np.abs(lhs - rhs)) > 1e-9


def test_symbol_identity_and_scalar(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    assert np.allclose(wg.extract_symbol(np.eye(2), sc, sset), 1.0, atol=1e-10)
    assert np.allclose(wg.extract_symbol(3.0 * np.eye(2), sc, sset), 3.0, atol=1e-10)


def test_symbol_equals_kernel_transform(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = random_gfunction(2, rng)
        sym = wg.extract_symbol(wg.multiplier_from_kernel(h, sc), sc, sset)
        assert np.allclose(sym, oracles.spherical_transform(h, part, sset, group, w), atol=1e-9)


def test_symbol_of_composition_multiplies(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(5)
    T1 = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
    T2 = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
    T12 = T1 @ T2
    assert wg.is_multiplier(T12, sc) == (True, None)
    assert np.all(within(*oracles.symbol_basis_residual(T12, sset, part.identity_coset)))
    s1 = wg.extract_symbol(T1, sc, sset)
    s2 = wg.extract_symbol(T2, sc, sset)
    s12 = wg.extract_symbol(T12, sc, sset)
    assert np.max(np.abs(s12 - s1 * s2)) < 1e-9


def test_symbol_extraction_rejects_non_multiplier(s3_setup):
    """An operator that is_multiplier rejects also fails the symbol's check
    on the whole basis, which the reference code keeps."""
    group, K, part, w, sc, sset = s3_setup
    bad = np.array([[1.0, 5.0], [0.0, 1.0]])
    assert wg.is_multiplier(bad, sc) == (False, (part.identity_coset, 1))
    assert not np.all(within(*oracles.symbol_basis_residual(bad, sset, part.identity_coset)))


def test_commutation_identity_operator(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(6)
    T = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
    assert wg.verify_commutation(T, np.eye(2)) < 1e-9


def test_commutation_same_operator_is_exact(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(7)
    T = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
    assert wg.verify_commutation(T, T) == 0.0


def test_commutation_random_kernel_pairs(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    rng = np.random.default_rng(8)
    for _ in range(10):
        T1 = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
        T2 = wg.multiplier_from_kernel(random_gfunction(2, rng), sc)
        assert wg.verify_commutation(T1, T2) < 1e-9


def test_multiplier_from_spec(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    T, h = wg.multiplier_from_spec(
        {"kind": "kernel", "coset_values": [[1.0, 0.0], [2.0, -1.0]]}, sc
    )
    assert np.array_equal(h, [1.0, 2.0 - 1.0j])
    assert np.array_equal(T, wg.multiplier_from_kernel(h, sc))
    T, h = wg.multiplier_from_spec(
        {"kind": "matrix", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, sc
    )
    assert h is None
    assert T[1, 1] == 1.0
    with pytest.raises(InputSpecError):
        wg.multiplier_from_spec({"kind": "kernel", "coset_values": [[1, 0]]}, sc)
    with pytest.raises(InputSpecError):
        wg.multiplier_from_spec({"kind": "what"}, sc)


def test_symbol_serialization(s3_setup):
    group, K, part, w, sc, sset = s3_setup
    symbol = wg.extract_symbol(np.eye(2), sc, sset)
    assert symbol.shape == (2,) and np.allclose(symbol, [1.0, 1.0])


def test_fourier_table_matches_transform_oracle():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        indicators = [
            oracles.indicator(i, part) for i in range(part.num_cosets)
        ]
        oracle = np.array([
            oracles.spherical_transform(f, part, sset, group, w) for f in indicators
        ])
        assert np.allclose(sset.characters.T, oracle, rtol=1e-12, atol=1e-12), name


@pytest.fixture(scope="module")
def d12_reflection_setup():
    group = wg.dihedral_group(12)
    K = oracles.subgroup_closure(group, [2])  # element 2 is the generating reflection
    part = wg.double_cosets(group, K.generators)
    w = random_bi_invariant_weight(part, np.random.default_rng(11), unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    return part, sc, dense_c_oracle(group, part, w)


def test_multiplier_checks_match_loop_oracle(d12_reflection_setup):
    part, sc, c = d12_reflection_setup
    d = part.num_cosets
    rng = np.random.default_rng(12)
    kernels = [wg.multiplier_from_kernel(random_gfunction(d, rng), sc) for _ in range(3)]
    bump = 0.5 * np.outer(np.eye(d)[1], np.eye(d)[3])
    others = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
        np.diag(np.arange(1.0, d + 1)),
        (2.0 - 1.0j) * np.eye(d),
        kernels[0] + bump,
    ]
    for T in kernels + others:
        assert wg.is_multiplier(T, sc) == is_multiplier_oracle(T, c)
    assert not wg.is_multiplier(others[0], sc)[0]
    # a kernel operator changed in column 3 only first fails at the pair (0, 3)
    assert wg.is_multiplier(others[-1], sc) == (False, (0, 3))
    for T1 in kernels + others:
        for T2 in kernels + others:
            assert wg.verify_commutation(T1, T2) == np.max(np.abs(T1 @ T2 - T2 @ T1))
    # on multipliers both the matrix commutator and the pairwise products vanish
    accepted = kernels + [others[2]]
    assert all(wg.is_multiplier(T, sc)[0] for T in accepted)
    for T1 in accepted:
        for T2 in accepted:
            scale = d * np.max(np.abs(T1)) * np.max(np.abs(T2))
            assert within(wg.verify_commutation(T1, T2), scale)
            assert within(commutation_oracle(T1, T2, c), d * scale * np.max(np.abs(c)))

    sset = wg.enumerate_spherical(sc)
    e = part.identity_coset
    k_order = part.sizes[e]
    for T in accepted:
        assert np.all(within(*oracles.symbol_basis_residual(T, sset, e)))
        assert np.allclose(
            wg.extract_symbol(T, sc, sset),
            T[:, e] / k_order @ sset.characters.T,
            rtol=1e-12, atol=1e-12,
        )
    assert not np.all(within(*oracles.symbol_basis_residual(others[-1], sset, e)))


def test_kernel_multipliers_compose_through_the_product(d12_reflection_setup):
    """T1 f * T2 g = T1 T2 (f * g) for kernel multipliers, so the pairwise
    commutation residual is the commutator applied to f * g."""
    part, sc, _ = d12_reflection_setup
    d = part.num_cosets
    rng = np.random.default_rng(14)
    T1, T2 = (wg.multiplier_from_kernel(random_gfunction(d, rng), sc) for _ in range(2))
    for _ in range(5):
        f, g = random_gfunction(d, rng), random_gfunction(d, rng)
        lhs = sc.left(T1 @ f) @ (T2 @ g)
        rhs = T1 @ (T2 @ (sc.left(f) @ g))
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
    part = wg.double_cosets(group, [])
    assert part.identity_coset == 2
    rng = np.random.default_rng(13)
    w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    c = dense_c_oracle(group, part, w)

    T = rng.standard_normal((4, 4))
    ok, (i, j) = wg.is_multiplier(T, sc)
    assert not ok and i == 2
    assert is_multiplier_oracle(T, c)[0] is False
    scale = max(1.0, float(np.max(np.abs(T))), float(np.max(np.abs(c))))
    gaps = [np.max(np.abs(T @ c[2, k] - T[:, 2] @ c[:, k])) for k in range(4)]
    assert gaps[j] > 1e-9 * scale
    assert all(gap <= 1e-9 * scale for gap in gaps[:j])

    kernel = wg.multiplier_from_kernel(random_gfunction(4, rng), sc)
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
    part = wg.double_cosets(c2, [])
    sc = wg.hecke_structure_constants(c2, part, np.array([1.0, wide]))
    T = np.diag(diagonal).astype(complex)
    assert wg.is_multiplier(T, sc) == (False, (0, 1))

    kernel = wg.multiplier_from_kernel(np.array([1.0, -0.5 + 2j]), sc)
    assert wg.is_multiplier(kernel, sc) == (True, None)


def test_symbol_check_accepts_what_is_multiplier_accepts():
    """On C2 with K trivial and w = [1, 1e5], L_h for h = (1, 1) has an entry
    1e10, so a bump of 1e-3 in T[1, 1] is within is_multiplier's tolerance.
    Row 1 of F is 1e5 times row 0, and reading the symbol off row e puts the
    bump, times 1e5, into row 1 of the basis residual: the reference check
    must scale it the same way, and the symbol is the transform of T u. A gap
    of 1 on the same weight is still rejected by both checks."""
    c2 = wg.cyclic_group(2)
    part = wg.double_cosets(c2, [])
    sc = wg.hecke_structure_constants(c2, part, np.array([1.0, 1e5]))
    sset = wg.enumerate_spherical(sc)
    bumped = sc.left(np.array([1.0, 1.0]))
    assert np.max(np.abs(bumped)) == 1e10
    bumped[1, 1] += 1e-3
    assert wg.is_multiplier(bumped, sc) == (True, None)
    assert np.all(within(*oracles.symbol_basis_residual(bumped, sset, 0)))
    assert np.array_equal(wg.extract_symbol(bumped, sc, sset), sset.characters @ bumped[:, 0])

    bad = np.diag([1.0, 2.0]).astype(complex)
    assert wg.is_multiplier(bad, sc) == (False, (0, 1))
    assert not np.all(within(*oracles.symbol_basis_residual(bad, sset, 0)))
