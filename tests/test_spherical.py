import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgelfand as wg
from wgelfand import spherical
from wgelfand.errors import DegenerateSpectrumError, NotGelfandError, PreconditionError
from wgelfand.spherical import _character_order
from wgelfand.tolerance import within

import oracles
from conftest import (
    brute_force_spherical,
    character_order_oracle,
    dense_c_oracle,
    gelfand_instances,
    match_sets,
    multiplicativity_oracle,
    multiplicativity_table,
    random_bi_invariant_weight,
    random_gfunction,
    refine_oracle,
)


def coset_value_set(sset):
    return list(sset.functions)


def test_enumerate_s3_uniform(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    sset = wg.enumerate_spherical(sc)
    assert len(sset) == 2
    assert match_sets(
        coset_value_set(sset), [np.array([1, 1.0]), np.array([1, -0.5])], 1e-9
    )


def test_enumerate_s3_weighted(s3_weighted):
    group, K, part, w = s3_weighted
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    assert match_sets(
        coset_value_set(sset), [np.array([1, 0.5]), np.array([1, -0.25])], 1e-9
    )


def test_enumerate_cyclic4_dft(c4_pair):
    group, K, part = c4_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    sset = wg.enumerate_spherical(sc)
    expected = [np.array([1j ** (j * x) for x in range(4)]) for j in range(4)]
    assert match_sets(coset_value_set(sset), expected, 1e-9)


def test_enumerate_requires_gelfand(s3):
    part = wg.double_cosets(s3, [])
    sc = wg.hecke_structure_constants(s3, part, np.ones(part.num_cosets))
    with pytest.raises(NotGelfandError):
        wg.enumerate_spherical(sc)


def test_enumerate_requires_unit_weight(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.full(part.num_cosets, 2.0))
    with pytest.raises(PreconditionError):
        wg.enumerate_spherical(sc)


def test_enumeration_is_deterministic(s3_weighted):
    group, K, part, w = s3_weighted
    a = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    b = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    for pa, pb in zip(a.functions, b.functions):
        assert np.array_equal(pa, pb)


def test_functional_equation_characters_on_trivial_subgroup(c4_pair):
    group, K, part = c4_pair
    w = np.ones(group.order)
    for j in range(4):
        phi = np.array([1j ** (j * x) for x in range(4)])
        assert oracles.verify_functional_equation(phi, part, group, K, w) < 1e-12


def test_functional_equation_constant_function(s4_pair):
    group, K, part = s4_pair
    phi = np.ones(part.num_cosets, dtype=complex)
    assert oracles.verify_functional_equation(phi, part, group, K, np.ones(group.order)) < 1e-12


def test_functional_equation_rejects_wrong_sign(s3_pair):
    group, K, part = s3_pair
    phi = np.array([1.0, 0.5])
    assert oracles.verify_functional_equation(phi, part, group, K, np.ones(group.order)) > 0.1


def test_eigen_property_sharp_delta(s3_pair):
    group, K, part = s3_pair
    w = np.ones(group.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    delta_e = np.zeros(6, dtype=complex)
    delta_e[group.identity] = 1.0
    f = oracles.from_gfunction(
        oracles.sharp_projection(delta_e, group, K), part
    )
    for phi in sset.functions:
        chi, residual = oracles.verify_eigen_property(f, phi, part, group, w)
        assert residual < 1e-9


def test_eigen_property_constant_phi(s4_pair):
    group, K, part = s4_pair
    w = np.ones(group.order)
    phi = np.ones(part.num_cosets, dtype=complex)
    rng = np.random.default_rng(0)
    f = random_gfunction(part.num_cosets, rng)
    chi, residual = oracles.verify_eigen_property(f, phi, part, group, w)
    assert chi == pytest.approx(np.sum(oracles.expand(f, part)))
    assert residual < 1e-9


def test_eigen_property_zero_function(s3_pair):
    group, K, part = s3_pair
    w = np.ones(group.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    f = np.zeros(part.num_cosets, dtype=complex)
    chi, residual = oracles.verify_eigen_property(f, sset.functions[0], part, group, w)
    assert chi == 0
    assert residual == 0


def test_character_multiplicativity(s3_weighted):
    group, K, part, w = s3_weighted
    sc = wg.hecke_structure_constants(group, part, w[part.reps])
    sset = wg.enumerate_spherical(sc)
    c = dense_c_oracle(group, part, w)
    for chi in sset.characters:
        for i in range(sc.dim):
            for j in range(sc.dim):
                lhs = chi[i] * chi[j]
                rhs = np.sum(c[i, j] * chi)
                assert abs(lhs - rhs) < 1e-9


def test_classical_correspondence(s3_weighted):
    group, K, part, w = s3_weighted
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    for phi in sset.functions:
        assert oracles.classical_correspondence(phi, part, group, K, w)
        assert oracles.verify_functional_equation(phi, part, group, K, w) < 1e-9
    # w * phi recovers the classical solutions
    wd = w[part.reps]
    scaled = [phi * wd for phi in sset.functions]
    assert match_sets(scaled, [np.array([1, 1.0]), np.array([1, -0.5])], 1e-9)
    # a random non-solution fails both sides
    bad = np.array([1.0, 0.7])
    assert not oracles.classical_correspondence(bad, part, group, K, w)
    assert oracles.verify_functional_equation(bad, part, group, K, w) > 1e-3


def test_phi_e_equals_one_and_count(s4_pair):
    group, K, part = s4_pair
    rng = np.random.default_rng(1)
    w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    assert len(sset) == part.num_cosets
    for phi in sset.functions:
        assert abs(phi[part.identity_coset] - 1.0) < 1e-9


def test_eigen_route_matches_brute_force_s3(s3_pair, s3_weighted):
    group, K, part = s3_pair
    for w in (np.ones(group.order), s3_weighted[3]):
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        oracle = brute_force_spherical(group, K, w, partition=part)
        assert match_sets(coset_value_set(sset), oracle, 1e-7)


def test_eigen_route_matches_brute_force_cyclic3():
    c3 = wg.cyclic_group(3)
    K = oracles.subgroup_closure(c3, [])
    part = wg.double_cosets(c3, K.generators)
    for w in (np.ones(c3.order), np.array([1.0, 2.0, 2.0])):
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(c3, part, w[part.reps]))
        oracle = brute_force_spherical(c3, K, w, partition=part)
        assert match_sets(coset_value_set(sset), oracle, 1e-7)


def test_spherical_set_serialization(s3_pair):
    group, K, part = s3_pair
    sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
    sset = wg.enumerate_spherical(sc)
    assert len(sset) == 2
    assert sset.functions.shape == sset.characters.shape == (2, 2)
    assert sset.functions.dtype == sset.characters.dtype == complex


def multiplicities(sset, group, part, w):
    """m_s = |G| / sum_i |chi_s(delta_i) / (w_i |D_i|)|^2 |D_i|: the dimension
    of the representation behind each spherical function."""
    sizes = part.sizes
    wd = w[part.reps]
    return np.array([
        group.order / np.sum(np.abs(chi / (wd * sizes)) ** 2 * sizes)
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
    K = oracles.subgroup_closure(group, [])
    part = wg.double_cosets(group, K.generators)
    w = np.ones(group.order)
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    assert len(sset) == 8
    for phi in sset.functions:
        assert oracles.verify_functional_equation(phi, part, group, K, w) < 1e-12
    m = multiplicities(sset, group, part, w)
    assert np.allclose(m, 1.0, atol=1e-9)


def test_spectrum_does_not_depend_on_weight_range():
    group = wg.dihedral_group(50)
    K = oracles.subgroup_closure(group, [50])
    part = wg.double_cosets(group, K.generators)
    rng = np.random.default_rng(5)
    vals = 10.0 ** rng.uniform(-15, 15, part.num_cosets)
    vals[part.identity_coset] = 1.0
    w = vals[part.coset_of]
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
    assert len(sset) == part.num_cosets
    m = multiplicities(sset, group, part, w)
    assert_integer_multiplicities(m, group.order // K.order)


def test_multiplicities_are_integers_on_gelfand_instances():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        m = multiplicities(sset, group, part, w)
        assert_integer_multiplicities(m, group.order // K.order)


def test_character_order_matches_rounded_key_oracle():
    rng = np.random.default_rng(0x50F7)
    cases = gelfand_instances()
    for name, group, seeds in (("c128", wg.cyclic_group(128), []),
                               ("d100-reflection", wg.dihedral_group(100), [2])):
        K = oracles.subgroup_closure(group, seeds)
        part = wg.double_cosets(group, K.generators)
        cases.append((name, group, K, part,
                      random_bi_invariant_weight(part, rng, unit_at_identity=True)))
    for name, group, K, part, w in cases:
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        chars = sset.characters
        assert character_order_oracle(chars) == list(range(len(chars))), name
        # shuffled, with every row twice: ties must keep their order
        rows = np.vstack([chars, chars])[rng.permutation(2 * len(chars))]
        assert _character_order(rows).tolist() == character_order_oracle(rows), name


def _pair(group, seeds):
    K = oracles.subgroup_closure(group, seeds)
    return group, K, wg.double_cosets(group, K.generators)


def _elementary_abelian_8():
    gens = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
    return _pair(wg.build_group_from_generators(gens), [])


def _cyclic4_identity_at_2():
    """C4 as a table in which the identity is index 2."""
    label = [2, 0, 3, 1]  # label[a] is the index of the rotation by a
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            table[label[a]][label[b]] = label[(a + b) % 4]
    return _pair(wg.group_from_spec({"kind": "table", "table": table}), [])


def _s7_over_s6():
    gens = wg.symmetric_group_generators(7)
    group = wg.build_group_from_generators(gens)
    K = oracles.point_stabilizer(group, 6)
    return group, K, wg.double_cosets(group, K.generators)


def _weighted(cases, seed):
    rng = np.random.default_rng(seed)
    return [
        (name, group, K, part, random_bi_invariant_weight(part, rng, unit_at_identity=True))
        for name, (group, K, part) in cases
    ]


def _checked(monkeypatch, sc):
    """The classical characters, as columns, and the rows that
    enumerate_spherical passes to its multiplicativity check."""
    seen = []
    check = spherical._check_multiplicative
    monkeypatch.setattr(
        spherical,
        "_check_multiplicative",
        lambda sc, chi1, rows: seen.append((chi1, rows)) or check(sc, chi1, rows),
    )
    wg.enumerate_spherical(sc)
    monkeypatch.undo()
    return seen[0]


def _check_cases():
    return gelfand_instances() + _weighted([
        ("c128", _pair(wg.cyclic_group(128), [])),
        ("d100-reflection", _pair(wg.dihedral_group(100), [100])),
        ("c2^3", _elementary_abelian_8()),
    ], 0xC4EC)


def test_checked_rows_bound_the_full_check(monkeypatch):
    """Every equation of the full check is within the first-order bound
    4 d |D_i| |D_j| r / (|K| sigma) that the residual r of the checked rows
    and the separation sigma of their tuples give, plus the rounding of the
    sums; the bound certifies the full check well inside the tolerance."""
    eps = np.finfo(float).eps
    for name, group, K, part, w in _check_cases():
        sc = wg.hecke_structure_constants(group, part, w[part.reps])
        chi1, rows = _checked(monkeypatch, sc)
        d = sc.dim
        assert 0 < len(rows) < d and part.identity_coset not in rows, name
        table = multiplicativity_table(sc, chi1)
        r = table[:, rows].max()
        tuples = chi1[rows]
        gap = np.max(np.abs(tuples[:, :, None] - tuples[:, None, :]), axis=0)
        sigma = gap[~np.eye(d, dtype=bool)].min()
        sizes = part.sizes.astype(float)
        bound = np.outer(sizes, sizes) * (4 * d * r / (K.order * sigma) + (d + 2) * eps)
        assert np.all(table <= bound), name
        scale = np.max(np.abs(chi1)) ** 2
        assert np.max(bound) <= 1e-6 * scale, name


def test_multiplicativity_catches_single_entry_mutations(monkeypatch):
    """One wrong entry chi(k) of one character fails the check on the
    consumed rows, for every k: the identity coset, the rows themselves and
    the cosets that appear in them only as j or k. The full check fails too."""
    mutations = 0
    for name, group, K, part, w in _check_cases():
        sc = wg.hecke_structure_constants(group, part, w[part.reps])
        chi1, rows = _checked(monkeypatch, sc)
        d = sc.dim
        for k in range(d):
            for s in (0, d - 1):
                bad = chi1.copy()
                bad[k, s] += 1e-3 * np.max(np.abs(bad[:, s]))
                with pytest.raises(DegenerateSpectrumError):
                    spherical._check_multiplicative(sc, bad, rows)
                with pytest.raises(DegenerateSpectrumError):
                    multiplicativity_oracle(sc, bad[:, [s]])
                mutations += 1
    assert mutations == 408


def test_inseparable_characters_raise(monkeypatch):
    """Two equal characters pass every equation but leave the checked rows
    unable to tell them apart, so the check raises."""
    group, K, part = _pair(wg.cyclic_group(4), [])
    sc = wg.hecke_structure_constants(group, part, np.ones(4))
    chi1, rows = _checked(monkeypatch, sc)
    chi1 = chi1.copy()
    chi1[:, 1] = chi1[:, 0]
    with pytest.raises(DegenerateSpectrumError, match="not separated"):
        spherical._check_multiplicative(sc, chi1, rows)


def test_one_double_coset_checks_no_row(monkeypatch):
    """G over itself has d = 1: the refinement consumes no row, and the one
    spherical function is 1 with character |G|."""
    for group in (wg.cyclic_group(5), wg.symmetric_group(3)):
        K = oracles.subgroup_closure(group, list(range(group.order)))
        part = wg.double_cosets(group, K.generators)
        sc = wg.hecke_structure_constants(group, part, np.ones(1))
        chi1, rows = _checked(monkeypatch, sc)
        assert rows == []
        sset = wg.enumerate_spherical(sc)
        assert sset.functions.tolist() == [[1]]
        assert sset.characters.tolist() == [[group.order]]
        assert chi1.tolist() == [[group.order]]


@pytest.mark.parametrize("group, seeds", [
    (wg.symmetric_group(3), [1]),
    (wg.dihedral_group(12), [12]),
], ids=["s3-transposition", "d12-reflection"])
def test_phi_e_is_exactly_one(group, seeds):
    """phi(e) = 1 and chi(delta_e) = |K| hold exactly, not to the last bit:
    on these pairs the division by phi(e) rounds to 1 - eps for one line."""
    K = oracles.subgroup_closure(group, seeds)
    part = wg.double_cosets(group, K.generators)
    rng = np.random.default_rng(3)
    e = part.identity_coset
    for w in (np.ones(group.order), random_bi_invariant_weight(part, rng, unit_at_identity=True)):
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        assert np.all(sset.functions[:, e] == 1)
        assert np.all(sset.characters[:, e] == K.order)


def _refine_cases():
    return _weighted([
        ("c4-identity-2", _cyclic4_identity_at_2()),
        ("c5-over-c5", _pair(wg.cyclic_group(5), [1])),
        ("c2^3", _elementary_abelian_8()),
        ("s7-s6", _s7_over_s6()),
    ], 0x4EF1)


def test_refinement_matches_the_per_block_oracle():
    cases = _refine_cases()
    assert [part.num_cosets for _, _, _, part, _ in cases] == [4, 1, 8, 2]
    assert cases[0][3].identity_coset == 2
    for name, group, K, part, w in cases:
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        chars, phis = refine_oracle(wg.hecke_structure_constants(group, part, w[part.reps]))
        got_chars = sset.characters
        got_phis = sset.functions
        for got, want in ((got_chars, chars), (got_phis, phis)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name


def test_refinement_skips_the_identity_coset_and_stacks_blocks(monkeypatch):
    """C128 over the trivial subgroup splits into lines in two stacked eigh
    calls (N_1 + N_1^T, then 1j (N_1 - N_1^T) on its 63 planes), and the
    Hermitian parts 2|K| I and 0 of N_e never reach the refinement."""
    calls, seen = [0], []
    eigh, refine = np.linalg.eigh, spherical._refine

    def counting(a):
        calls[0] += 1
        return eigh(a)

    def recording(blocks, H, scale):
        seen.append(H)
        return refine(blocks, H, scale)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(spherical, "_refine", recording)
    c128 = _pair(wg.cyclic_group(128), [])
    for name, group, K, part, w in [("c128", *c128, np.ones(c128[0].order))] + _refine_cases():
        calls[0], seen[:] = 0, []
        sc = wg.hecke_structure_constants(group, part, w[part.reps])
        assert len(wg.enumerate_spherical(sc)) == part.num_cosets
        n_e = 2 * K.order * np.eye(part.num_cosets)
        assert not any(np.array_equal(H, n_e) for H in seen), name
        if name == "c128":
            assert calls[0] == 2 and len(seen) == 2
            N1 = sc.left(np.eye(128)[1]).real  # unit sizes and weight: N_i = L_i
            assert np.array_equal(seen[0], N1 + N1.T)


def test_reported_multiplicities_equal_the_oracle_on_gelfand_instances():
    for name, group, K, part, w in gelfand_instances():
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        assert sset.multiplicities.dtype == np.int64, name
        m = multiplicities(sset, group, part, w)
        assert sset.multiplicities.tolist() == np.round(m).astype(int).tolist(), name


def test_s6_over_s3xs3_has_the_johnson_multiplicities():
    """Ind_{S3 x S3}^{S6} 1 = S^(6) + S^(5,1) + S^(4,2) + S^(3,3): on the
    Johnson scheme J(6, 3), the eigenvalue theta_j = (3 - j)^2 - j of the
    distance-one relation, chi1(delta_1) / |K| with delta_1 the coset of the
    transposition (2 3), comes with multiplicity C(6, j) - C(6, j - 1): 1, 5,
    9, 5 for j = 0..3."""
    s6 = wg.symmetric_group(6)
    keeps = np.flatnonzero(np.all(s6.perms[:, 3:] >= 3, axis=1))
    part = wg.double_cosets(s6, wg.subgroup_from_spec(s6, {"elements": keeps.tolist()}))
    sset = wg.enumerate_spherical(wg.hecke_structure_constants(s6, part, np.ones(4)))
    swap = np.flatnonzero(np.all(s6.perms == [0, 1, 3, 2, 4, 5], axis=1))[0]
    theta = sset.classical_characters[:, part.coset_of[swap]].real / len(keeps)
    pairs = sorted(zip(np.round(theta).astype(int).tolist(), sset.multiplicities.tolist()))
    assert pairs[::-1] == [(9, 1), (3, 5), (-1, 9), (-3, 5)]


def _irreducible_dimensions(family, n):
    """The degrees of the irreducible representations of C_n, of D_n (order
    2n: two linear characters for odd n, four for even n, the rest of
    degree 2) and of S_n for n <= 4, from their character tables."""
    if family == "C":
        return [1] * n
    if family == "D":
        linear = 2 if n % 2 else 4
        return [1] * linear + [2] * ((2 * n - linear) // 4)
    return {1: [1], 2: [1, 1], 3: [1, 1, 2], 4: [1, 1, 2, 3, 3]}[n]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from("CDS").flatmap(
    lambda family: st.tuples(st.just(family), st.integers(1, 4 if family == "S" else 12))))
@example(("S", 4))
@example(("D", 5))
@example(("C", 6))
def test_group_times_group_over_its_diagonal(family_n):
    """(G x G, diag G) is a Gelfand pair: G acts on two disjoint copies of
    its points, and diag G is given by the seeds that the base images of
    the generators (g, g) find. Its double cosets are the conjugacy classes
    of G, so d is their number, and the multiplicities are the squared
    degrees of the irreducible representations of G."""
    family, n = family_n
    group = {"C": wg.cyclic_group, "D": wg.dihedral_group, "S": wg.symmetric_group}[family](n)
    degree = group.perms.shape[1]
    gens = group.perms[group.generators].astype(np.int64)
    fixed = np.broadcast_to(np.arange(degree), gens.shape)
    gg = wg.build_group_from_generators(
        np.vstack([np.hstack([gens, fixed + degree]), np.hstack([fixed, gens + degree])]).tolist())
    seeds = gg._lookup(np.hstack([gens, gens + degree])[:, gg.base])
    part = wg.double_cosets(gg, seeds)
    assert part.sizes[part.identity_coset] == group.order
    sc = wg.hecke_structure_constants(gg, part, np.ones(part.num_cosets))
    assert sc.commutativity_witness is None
    mul = oracles.mul_table(group)
    conjugates = mul[mul, group.inv[:, None]]  # [g, x] is g x g^-1
    assert part.num_cosets == len(np.unique(conjugates.min(axis=0)))
    dims = _irreducible_dimensions(family, n)
    assert sorted(wg.enumerate_spherical(sc).multiplicities.tolist()) == sorted(
        d * d for d in dims)


@pytest.mark.parametrize(
    "family_n, squared_degrees",
    [(("S", 3), [1, 1, 4]), (("S", 4), [1, 1, 4, 9, 9]), (("D", 5), [1, 1, 4, 4]),
     (("S", 5), [1, 1, 16, 16, 25, 25, 36])],
    ids=["S3", "S4", "D5", "S5"],
)
def test_class_algebra_needs_no_group(family_n, squared_degrees):
    """The algebra of (G x G, diag G) from the conjugacy classes of G alone
    (`oracles.class_algebra`): no group, partition or coset_of of G x G is
    formed, and the structure constants are all that the spherical functions
    and the Fourier table read. The rank is d, and the multiplicities are
    the squared degrees of the irreducible representations of G."""
    family, n = family_n
    group = {"D": wg.dihedral_group, "S": wg.symmetric_group}[family](n)
    sc = oracles.class_algebra(group)
    sset = wg.enumerate_spherical(sc)
    rank, _ = wg.injectivity_check(sset)
    assert rank == sc.dim == len(squared_degrees)
    assert sorted(sset.multiplicities.tolist()) == squared_degrees


def test_closed_form_inverse_of_the_weight_free_table():
    """diag(m / |G|) F1^H diag(1 / |D|) F1 = I, with F1 the weight-free
    table `classical_characters.T`: the inverse that the orthogonality
    relations give without a solve."""
    for name, group, K, part, w in _check_cases():
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        F1 = sset.classical_characters.T
        inverse = (sset.multiplicities / group.order)[:, None] * F1.conj().T / part.sizes
        assert np.max(np.abs(inverse @ F1 - np.eye(part.num_cosets))) < 1e-12, name


def test_orthogonality_certificate_catches_single_entry_mutations(monkeypatch):
    """One wrong entry chi(k) of one classical character breaks the
    orthogonality relations or the integrality of its multiplicity, for
    every k, and the certificate raises; the true table passes."""
    mutations = 0
    for name, group, K, part, w in _check_cases():
        sc = wg.hecke_structure_constants(group, part, w[part.reps])
        chi1, _ = _checked(monkeypatch, sc)
        m = spherical._multiplicities(chi1, part)
        assert m.sum() == group.order // K.order, name
        d = sc.dim
        for k in range(d):
            for s in (0, d - 1):
                bad = chi1.copy()
                bad[k, s] += 1e-3 * np.max(np.abs(bad[:, s]))
                with pytest.raises(DegenerateSpectrumError, match="threshold|expected"):
                    spherical._multiplicities(bad, part)
                mutations += 1
    assert mutations == 408


def _eigh_inputs(monkeypatch, sc):
    """(dtype kind, shape) of every matrix that enumerate_spherical hands to
    np.linalg.eigh."""
    seen, eigh = [], np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a: seen.append((a.dtype.kind, a.shape)) or eigh(a)
    )
    wg.enumerate_spherical(sc)
    monkeypatch.undo()
    return seen


def test_cyclic_group_solves_one_real_eigh_at_full_size(monkeypatch):
    """C_n over the trivial subgroup: N_1 + N_1^T goes to one real d x d eigh,
    and the complex skew part only to the stacked 2 x 2 restrictions."""
    for n in (12, 128):
        group, K, part = _pair(wg.cyclic_group(n), [])
        seen = _eigh_inputs(monkeypatch, wg.hecke_structure_constants(group, part, np.ones(n)))
        assert [kind for kind, shape in seen if shape == (n, n)] == ["f"], n
        assert [shape for kind, shape in seen if kind == "c"] == [(n // 2 - 1, 2, 2)], n


def test_dihedral_over_a_reflection_skips_the_skew_parts(monkeypatch):
    """Every double coset of D_n over <s> is its own inverse, so every N_i
    is symmetric and no eigh sees 1j (N_i - N_i^T): all inputs are real."""
    for n in (12, 100):
        group, K, part = _pair(wg.dihedral_group(n), [n])
        assert np.array_equal(part.inverse_coset, np.arange(part.num_cosets))
        sc = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
        seen = _eigh_inputs(monkeypatch, sc)
        assert seen and {kind for kind, _ in seen} == {"f"}, n
