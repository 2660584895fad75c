import numpy as np
import pytest

import wgelfand as wg
from wgelfand.errors import InputSpecError, NotMultiplierError

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
    w = wg.weight_from_spec(
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, group, part
    )
    sc = wg.hecke_structure_constants(group, K, w, partition=part)
    sset = wg.enumerate_spherical(group, K, w, partition=part, sc=sc)
    table = wg.build_fourier_table(sset)
    return group, K, part, w, sc, sset, table


@pytest.fixture(scope="module")
def s3_uniform_setup(s3_pair):
    group, K, part = s3_pair
    w = wg.uniform_weight(group)
    sc = wg.hecke_structure_constants(group, K, w, partition=part)
    sset = wg.enumerate_spherical(group, K, w, partition=part, sc=sc)
    table = wg.build_fourier_table(sset)
    return group, K, part, w, sc, sset, table


def test_transform_of_subgroup_indicator(s3_uniform_setup):
    group, K, part, w, sc, sset, table = s3_uniform_setup
    f = wg.BiInvariantFunction.indicator(0, part)
    values = wg.spherical_transform(f, sset, group, w)
    assert np.allclose(values, [2.0, 2.0])


def test_transform_of_zero(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    f = wg.BiInvariantFunction(np.zeros(2, dtype=complex), part)
    assert np.allclose(wg.spherical_transform(f, sset, group, w), 0.0)


def test_transform_cyclic4_against_dft(c4_pair):
    group, K, part = c4_pair
    w = wg.uniform_weight(group)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    f = wg.BiInvariantFunction.indicator(1, part)  # delta at element 1
    values = wg.spherical_transform(f, sset, group, w)
    for s, phi in enumerate(sset.functions):
        assert values[s] == pytest.approx(phi.coset_values[group.inverse(1)])
    # full agreement with the character-table transform on random functions
    rng = np.random.default_rng(0)
    chars = np.array([phi.coset_values for phi in sset.functions])
    g = random_gfunction(4, rng)
    fbi = wg.BiInvariantFunction(g, part)
    dft = chars[:, group.inv] @ g
    assert np.allclose(wg.spherical_transform(fbi, sset, group, w), dft, atol=1e-9)


def test_convolution_theorem_weighted(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(1)
    for _ in range(25):
        f = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        g = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        assert wg.verify_convolution_theorem(f, g, sset, group, w) < 1e-9


def test_convolution_theorem_structure_constant_example(s3_uniform_setup):
    group, K, part, w, sc, sset, table = s3_uniform_setup
    d1 = wg.BiInvariantFunction.indicator(1, part)
    lhs = wg.spherical_transform(
        wg.BiInvariantFunction(sc.convolve_coords(d1.coset_values, d1.coset_values), part),
        sset, group, w,
    )
    rhs = wg.spherical_transform(d1, sset, group, w) ** 2
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_convolution_theorem_identity_element():
    c3 = wg.cyclic_group(3)
    K = wg.subgroup_closure(c3, [])
    part = wg.double_cosets(c3, K)
    w = wg.uniform_weight(c3)
    sset = wg.enumerate_spherical(c3, K, w, partition=part)
    f = wg.BiInvariantFunction(np.array([2.0, 1.0j, -1.0]), part)
    e = wg.BiInvariantFunction.indicator(part.identity_coset, part)
    assert wg.verify_convolution_theorem(f, e, sset, c3, w) < 1e-12


def test_injectivity_s3(s3_uniform_setup):
    group, K, part, w, sc, sset, table = s3_uniform_setup
    # rows are transforms of the indicators: {2, 2} and {4, -2} up to order
    assert sorted(np.round(table.matrix.real.flatten()).tolist()) == [-2, 2, 2, 4]
    rank, cond = wg.injectivity_check(table)
    assert rank == 2
    assert np.isfinite(cond)


def test_injectivity_weighted(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rank, _ = wg.injectivity_check(table)
    assert rank == 2


def test_injectivity_rank_one_for_full_subgroup(s3):
    K = wg.subgroup_closure(s3, [1, 2])
    part = wg.double_cosets(s3, K)
    w = wg.uniform_weight(s3)
    sset = wg.enumerate_spherical(s3, K, w, partition=part)
    table = wg.build_fourier_table(sset)
    rank, _ = wg.injectivity_check(table)
    assert rank == 1


def test_multiplier_from_kernel_identity(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    # the algebra identity: supported on K with value 1/(|K| w_K^2)
    wK = w.values[part.cosets[part.identity_coset][0]]
    e = wg.BiInvariantFunction.indicator(part.identity_coset, part)
    unit = wg.BiInvariantFunction(e.coset_values / (K.order * wK ** 2), part)
    T = wg.multiplier_from_kernel(unit, sc)
    assert np.allclose(T.matrix, np.eye(2), atol=1e-12)


def test_multiplier_from_kernel_columns(s3_uniform_setup):
    group, K, part, w, sc, sset, table = s3_uniform_setup
    h = wg.BiInvariantFunction.indicator(1, part)
    T = wg.multiplier_from_kernel(h, sc)
    c = dense_c_oracle(group, part, w)
    assert np.allclose(T.matrix[:, 0], c[1, 0])
    assert np.allclose(T.matrix[:, 1], c[1, 1])


def test_multiplier_from_zero_kernel(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    h = wg.BiInvariantFunction(np.zeros(2, dtype=complex), part)
    assert np.allclose(wg.multiplier_from_kernel(h, sc).matrix, 0.0)


def test_kernel_operators_are_multipliers(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        ok, witness = wg.is_multiplier(wg.multiplier_from_kernel(h, sc), sc)
        assert ok and witness is None


def test_scalar_operator_is_multiplier(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    ok, _ = wg.is_multiplier(wg.MultiplierOperator.scalar(2, 3.0 - 1.0j), sc)
    assert ok


def test_non_multiplier_rejected_with_witness(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(3)
    h = wg.BiInvariantFunction(np.array([1.0, 2.0 + 1.0j]), part)
    T = wg.multiplier_from_kernel(h, sc)
    bad = wg.MultiplierOperator(matrix=T.matrix.T)  # transpose breaks it here
    ok, witness = wg.is_multiplier(bad, sc)
    assert not ok
    i, j = witness
    c = dense_c_oracle(group, part, w)
    lhs = bad.apply(c[i, j])
    rhs = bad.matrix[:, i] @ c[:, j]
    assert np.max(np.abs(lhs - rhs)) > 1e-9


def test_symbol_identity_and_scalar(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    sym = wg.extract_symbol(wg.MultiplierOperator.identity(2), table)
    assert np.allclose(sym.values, 1.0, atol=1e-10)
    sym = wg.extract_symbol(wg.MultiplierOperator.scalar(2, 3.0), table)
    assert np.allclose(sym.values, 3.0, atol=1e-10)


def test_symbol_equals_kernel_transform(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
        T = wg.multiplier_from_kernel(h, sc)
        sym = wg.extract_symbol(T, table)
        assert np.allclose(
            sym.values, wg.spherical_transform(h, sset, group, w), atol=1e-9
        )


def test_symbol_of_composition_multiplies(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(5)
    h1 = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    h2 = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T1 = wg.multiplier_from_kernel(h1, sc)
    T2 = wg.multiplier_from_kernel(h2, sc)
    s1 = wg.extract_symbol(T1, table).values
    s2 = wg.extract_symbol(T2, table).values
    s12 = wg.extract_symbol(T1.compose(T2), table).values
    assert np.max(np.abs(s12 - s1 * s2)) < 1e-9


def test_symbol_extraction_rejects_non_multiplier(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    bad = wg.MultiplierOperator(matrix=np.array([[1.0, 5.0], [0.0, 1.0]]))
    ok, _ = wg.is_multiplier(bad, sc)
    if not ok:
        with pytest.raises(NotMultiplierError):
            wg.extract_symbol(bad, table)


def test_commutation_identity_operator(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(6)
    h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T = wg.multiplier_from_kernel(h, sc)
    assert wg.verify_commutation(T, wg.MultiplierOperator.identity(2), sc) < 1e-9


def test_commutation_same_operator_is_exact(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(7)
    h = wg.BiInvariantFunction(random_gfunction(2, rng), part)
    T = wg.multiplier_from_kernel(h, sc)
    assert wg.verify_commutation(T, T, sc) == 0.0


def test_commutation_random_kernel_pairs(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
    rng = np.random.default_rng(8)
    for _ in range(10):
        T1 = wg.multiplier_from_kernel(
            wg.BiInvariantFunction(random_gfunction(2, rng), part), sc
        )
        T2 = wg.multiplier_from_kernel(
            wg.BiInvariantFunction(random_gfunction(2, rng), part), sc
        )
        assert wg.verify_commutation(T1, T2, sc) < 1e-9


def test_multiplier_from_spec(s3_setup):
    group, K, part, w, sc, sset, table = s3_setup
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
    group, K, part, w, sc, sset, table = s3_setup
    sym = wg.extract_symbol(wg.MultiplierOperator.identity(2), table)
    blob = sym.to_json()
    assert len(blob["symbol"]) == 2


def test_fourier_table_matches_transform_oracle():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(group, K, w, partition=part)
        indicators = [
            wg.BiInvariantFunction.indicator(i, part) for i in range(part.num_cosets)
        ]
        oracle = np.array([wg.spherical_transform(f, sset, group, w) for f in indicators])
        table = wg.build_fourier_table(sset)
        assert np.allclose(table.matrix, oracle, rtol=1e-12, atol=1e-12), name


@pytest.fixture(scope="module")
def d12_reflection_setup():
    group = wg.dihedral_group(12)
    K = wg.subgroup_closure(group, [2])  # element 2 is the generating reflection
    part = wg.double_cosets(group, K)
    w = random_bi_invariant_weight(part, np.random.default_rng(11), unit_at_identity=True)
    sc = wg.hecke_structure_constants(group, K, w, partition=part)
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
        wg.MultiplierOperator.scalar(d, 2.0 - 1.0j),
        wg.MultiplierOperator(matrix=kernels[0].matrix + bump),
    ]
    for T in kernels + others:
        assert wg.is_multiplier(T, sc) == is_multiplier_oracle(T, c)
    assert not wg.is_multiplier(others[0], sc)[0]
    # a kernel operator changed in column 3 only first fails at the pair (0, 3)
    assert wg.is_multiplier(others[-1], sc) == (False, (0, 3))
    for T1 in kernels + others:
        for T2 in kernels + others:
            assert wg.verify_commutation(T1, T2, sc) == pytest.approx(
                commutation_oracle(T1, T2, c), rel=1e-9, abs=1e-9
            )
