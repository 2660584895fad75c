import numpy as np
import pytest

import wgelfand as wg
from wgelfand.errors import NotGelfandError, PreconditionError
from wgelfand.spherical import _character_order

from conftest import (
    brute_force_spherical,
    character_order_oracle,
    dense_c_oracle,
    gelfand_instances,
    match_sets,
    random_bi_invariant_weight,
    random_gfunction,
)


def coset_value_set(sset):
    return [phi.coset_values for phi in sset.functions]


def test_enumerate_s3_uniform(s3_pair):
    group, K, part = s3_pair
    sset = wg.enumerate_spherical(group, K, wg.uniform_weight(group), partition=part)
    assert len(sset) == 2
    assert match_sets(
        coset_value_set(sset), [np.array([1, 1.0]), np.array([1, -0.5])], 1e-9
    )


def test_enumerate_s3_weighted(s3_weighted):
    group, K, part, w = s3_weighted
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    assert match_sets(
        coset_value_set(sset), [np.array([1, 0.5]), np.array([1, -0.25])], 1e-9
    )


def test_enumerate_cyclic4_dft(c4_pair):
    group, K, part = c4_pair
    sset = wg.enumerate_spherical(group, K, wg.uniform_weight(group), partition=part)
    expected = [np.array([1j ** (j * x) for x in range(4)]) for j in range(4)]
    assert match_sets(coset_value_set(sset), expected, 1e-9)


def test_enumerate_requires_gelfand(s3):
    K = wg.subgroup_closure(s3, [])
    with pytest.raises(NotGelfandError):
        wg.enumerate_spherical(s3, K, wg.uniform_weight(s3))


def test_enumerate_requires_unit_weight(s3_pair):
    group, K, part = s3_pair
    with pytest.raises(PreconditionError):
        wg.enumerate_spherical(group, K, wg.Weight(np.full(6, 2.0)), partition=part)


def test_enumeration_is_deterministic(s3_weighted):
    group, K, part, w = s3_weighted
    a = wg.enumerate_spherical(group, K, w, partition=part)
    b = wg.enumerate_spherical(group, K, w, partition=part)
    for pa, pb in zip(a.functions, b.functions):
        assert np.array_equal(pa.coset_values, pb.coset_values)


def test_functional_equation_characters_on_trivial_subgroup(c4_pair):
    group, K, part = c4_pair
    w = wg.uniform_weight(group)
    for j in range(4):
        phi = wg.SphericalFunction(
            np.array([1j ** (j * x) for x in range(4)]), part
        )
        assert wg.verify_functional_equation(phi, group, K, w) < 1e-12


def test_functional_equation_constant_function(s4_pair):
    group, K, part = s4_pair
    phi = wg.SphericalFunction(np.ones(part.num_cosets, dtype=complex), part)
    assert wg.verify_functional_equation(phi, group, K, wg.uniform_weight(group)) < 1e-12


def test_functional_equation_rejects_wrong_sign(s3_pair):
    group, K, part = s3_pair
    phi = wg.SphericalFunction(np.array([1.0, 0.5]), part)
    assert wg.verify_functional_equation(phi, group, K, wg.uniform_weight(group)) > 0.1


def test_eigen_property_sharp_delta(s3_pair):
    group, K, part = s3_pair
    w = wg.uniform_weight(group)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    delta_e = np.zeros(6, dtype=complex)
    delta_e[group.identity] = 1.0
    f = wg.BiInvariantFunction.from_gfunction(
        wg.sharp_projection(delta_e, group, K), part
    )
    for phi in sset.functions:
        chi, residual = wg.verify_eigen_property(f, phi, group, w)
        assert residual < 1e-9


def test_eigen_property_constant_phi(s4_pair):
    group, K, part = s4_pair
    w = wg.uniform_weight(group)
    phi = wg.SphericalFunction(np.ones(part.num_cosets, dtype=complex), part)
    rng = np.random.default_rng(0)
    f = wg.BiInvariantFunction(random_gfunction(part.num_cosets, rng), part)
    chi, residual = wg.verify_eigen_property(f, phi, group, w)
    assert chi == pytest.approx(np.sum(f.expand()))
    assert residual < 1e-9


def test_eigen_property_zero_function(s3_pair):
    group, K, part = s3_pair
    w = wg.uniform_weight(group)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    f = wg.BiInvariantFunction(np.zeros(part.num_cosets, dtype=complex), part)
    chi, residual = wg.verify_eigen_property(f, sset.functions[0], group, w)
    assert chi == 0
    assert residual == 0


def test_character_multiplicativity(s3_weighted):
    group, K, part, w = s3_weighted
    sc = wg.hecke_structure_constants(group, K, w, partition=part)
    sset = wg.enumerate_spherical(group, K, w, partition=part, sc=sc)
    c = dense_c_oracle(group, part, w)
    for _, chi in sset:
        for i in range(sc.dim):
            for j in range(sc.dim):
                lhs = chi(i) * chi(j)
                rhs = np.sum(c[i, j] * chi.values)
                assert abs(lhs - rhs) < 1e-9


def test_classical_correspondence(s3_weighted):
    group, K, part, w = s3_weighted
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    for phi in sset.functions:
        assert wg.classical_correspondence(phi, group, K, w)
        assert wg.verify_functional_equation(phi, group, K, w) < 1e-9
    # w * phi recovers the classical solutions
    wd = np.array([w.values[c[0]] for c in part.cosets])
    scaled = [phi.coset_values * wd for phi in sset.functions]
    assert match_sets(scaled, [np.array([1, 1.0]), np.array([1, -0.5])], 1e-9)
    # a random non-solution fails both sides
    bad = wg.SphericalFunction(np.array([1.0, 0.7]), part)
    assert not wg.classical_correspondence(bad, group, K, w)
    assert wg.verify_functional_equation(bad, group, K, w) > 1e-3


def test_phi_e_equals_one_and_count(s4_pair):
    group, K, part = s4_pair
    rng = np.random.default_rng(1)
    w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    assert len(sset) == part.num_cosets
    for phi in sset.functions:
        assert abs(phi.coset_values[part.identity_coset] - 1.0) < 1e-9


def test_eigen_route_matches_brute_force_s3(s3_pair, s3_weighted):
    group, K, part = s3_pair
    for w in (wg.uniform_weight(group), s3_weighted[3]):
        sset = wg.enumerate_spherical(group, K, w, partition=part)
        oracle = brute_force_spherical(group, K, w, partition=part)
        assert match_sets(coset_value_set(sset), oracle, 1e-7)


def test_eigen_route_matches_brute_force_cyclic3():
    c3 = wg.cyclic_group(3)
    K = wg.subgroup_closure(c3, [])
    part = wg.double_cosets(c3, K)
    for w in (wg.uniform_weight(c3), wg.Weight(np.array([1.0, 2.0, 2.0]))):
        sset = wg.enumerate_spherical(c3, K, w, partition=part)
        oracle = brute_force_spherical(c3, K, w, partition=part)
        assert match_sets(coset_value_set(sset), oracle, 1e-7)


def test_spherical_set_serialization(s3_pair):
    group, K, part = s3_pair
    sset = wg.enumerate_spherical(group, K, wg.uniform_weight(group), partition=part)
    blob = sset.to_json()
    assert len(blob) == 2
    for entry in blob:
        assert len(entry["coset_values"]) == 2
        assert len(entry["character"]) == 2
        assert all(len(pair) == 2 for pair in entry["coset_values"])


def multiplicities(sset, group, part, w):
    """m_s = |G| / sum_i |chi_s(delta_i) / (w_i |D_i|)|^2 |D_i|: the dimension
    of the representation behind each spherical function."""
    sizes = np.array(part.sizes())
    wd = np.array([w.values[c[0]] for c in part.cosets])
    return np.array([
        group.order / np.sum(np.abs(chi.values / (wd * sizes)) ** 2 * sizes)
        for chi in sset.characters
    ])


def assert_integer_multiplicities(m, index):
    assert np.all(np.abs(m - np.round(m)) < 1e-9)
    assert np.all(np.round(m) >= 1)
    assert round(float(np.sum(m))) == index


def test_elementary_abelian_needs_three_refinements():
    # every N_i of (C2)^3 has eigenvalues +-1 only, so no single one splits it
    gens = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
    group = wg.build_group_from_generators(gens)
    K = wg.subgroup_closure(group, [])
    part = wg.double_cosets(group, K)
    w = wg.uniform_weight(group)
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    assert len(sset) == 8
    for phi in sset.functions:
        assert wg.verify_functional_equation(phi, group, K, w) < 1e-12
    m = multiplicities(sset, group, part, w)
    assert np.allclose(m, 1.0, atol=1e-9)


def test_spectrum_does_not_depend_on_weight_range():
    group = wg.dihedral_group(50)
    K = wg.subgroup_closure(group, [50])
    part = wg.double_cosets(group, K)
    rng = np.random.default_rng(5)
    vals = 10.0 ** rng.uniform(-15, 15, part.num_cosets)
    vals[part.identity_coset] = 1.0
    w = wg.Weight(vals[part.coset_of])
    sset = wg.enumerate_spherical(group, K, w, partition=part)
    assert len(sset) == part.num_cosets
    m = multiplicities(sset, group, part, w)
    assert_integer_multiplicities(m, group.order // K.order)


def test_multiplicities_are_integers_on_gelfand_instances():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(group, K, w, partition=part)
        m = multiplicities(sset, group, part, w)
        assert_integer_multiplicities(m, group.order // K.order)


def test_character_order_matches_rounded_key_oracle():
    rng = np.random.default_rng(0x50F7)
    cases = gelfand_instances()
    for name, group, seeds in (("c128", wg.cyclic_group(128), []),
                               ("d100-reflection", wg.dihedral_group(100), [2])):
        K = wg.subgroup_closure(group, seeds)
        part = wg.double_cosets(group, K)
        cases.append((name, group, K, part,
                      random_bi_invariant_weight(part, rng, unit_at_identity=True)))
    for name, group, K, part, w in cases:
        sset = wg.enumerate_spherical(group, K, w, partition=part)
        chars = np.array([chi.values for chi in sset.characters])
        assert character_order_oracle(chars) == list(range(len(chars))), name
        # shuffled, with every row twice: ties must keep their order
        rows = np.vstack([chars, chars])[rng.permutation(2 * len(chars))]
        assert _character_order(rows).tolist() == character_order_oracle(rows), name
