import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgelfand as wg
from wgelfand.errors import InputSpecError

import oracles
from conftest import (
    classical_convolve_oracle,
    double_cosets_oracle,
    gelfand_instances,
    mul_oracle,
    random_bi_invariant_weight,
    random_gfunction,
    random_symmetric_weight,
    weighted_convolve_oracle,
)


def delta(n, x):
    out = np.zeros(n, dtype=complex)
    out[x] = 1.0
    return out


def test_weight_rejects_nonpositive():
    c2 = wg.cyclic_group(2)
    part = wg.double_cosets(c2, [])
    with pytest.raises(InputSpecError, match="strictly positive"):
        wg.weight_from_spec({"kind": "by_element", "values": [1.0, 0.0]}, part)


def test_weighted_l1_norm_delta():
    c4 = wg.cyclic_group(4)
    w = np.ones(c4.order)
    assert oracles.weighted_l1_norm(delta(4, 0), w) == 1.0


def test_weighted_l1_norm_cyclic4():
    c4 = wg.cyclic_group(4)
    w = np.array([1.0, 2.0, 3.0, 2.0])
    assert oracles.weighted_l1_norm(np.ones(4), w) == 8.0


def test_weighted_l1_norm_zero():
    c4 = wg.cyclic_group(4)
    assert oracles.weighted_l1_norm(np.zeros(4), np.ones(c4.order)) == 0.0


def test_convolve_delta_e_is_identity(s3):
    rng = np.random.default_rng(1)
    w = np.concatenate([[1.0], rng.uniform(0.5, 2, 5)])
    f = random_gfunction(6, rng)
    e = delta(6, s3.identity)
    assert np.allclose(oracles.weighted_convolve(f, e, s3, w), f, atol=1e-12)
    assert np.allclose(oracles.weighted_convolve(e, f, s3, w), f, atol=1e-12)


def test_convolve_uniform_weight_matches_classical(s3):
    rng = np.random.default_rng(2)
    w = np.ones(s3.order)
    f, g = random_gfunction(6, rng), random_gfunction(6, rng)
    got = oracles.weighted_convolve(f, g, s3, w)
    assert np.allclose(got, classical_convolve_oracle(f, g, s3), atol=1e-12)


def test_convolve_cyclic2_hand_value():
    c2 = wg.cyclic_group(2)
    w = np.array([1.0, 2.0])
    f = delta(2, 1)
    out = oracles.weighted_convolve(f, f, c2, w)
    assert out[0] == pytest.approx(4.0)
    assert out[1] == pytest.approx(0.0)


def test_convolve_matches_double_loop_oracle(s3):
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, 6)
    f, g = random_gfunction(6, rng), random_gfunction(6, rng)
    got = oracles.weighted_convolve(f, g, s3, w)
    assert np.allclose(got, weighted_convolve_oracle(f, g, s3, w), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_convolution_associative(seed):
    c6 = wg.cyclic_group(6)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, 6)
    f, g, h = (random_gfunction(6, rng) for _ in range(3))
    left = oracles.weighted_convolve(oracles.weighted_convolve(f, g, c6, w), h, c6, w)
    right = oracles.weighted_convolve(f, oracles.weighted_convolve(g, h, c6, w), c6, w)
    assert np.max(np.abs(left - right)) < 1e-9


def test_intertwining_with_classical(s3):
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, 6)
    f, g = random_gfunction(6, rng), random_gfunction(6, rng)
    lhs = oracles.multiplication_operator(oracles.weighted_convolve(f, g, s3, w), w)
    rhs = oracles.classical_convolve(
        oracles.multiplication_operator(f, w), oracles.multiplication_operator(g, w), s3
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_multiplication_operator():
    c4 = wg.cyclic_group(4)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    f = delta(4, 2)
    assert np.allclose(oracles.multiplication_operator(f, w), 3.0 * f)
    assert np.allclose(
        oracles.multiplication_operator(f, np.ones(c4.order)), f
    )
    rng = np.random.default_rng(5)
    g = random_gfunction(4, rng)
    assert np.allclose(oracles.multiplication_operator(g, w) / w, g, atol=1e-15)


def test_g_level_helpers_never_read_the_table():
    """The G-level helpers find their products with GroupTable.product, the
    only product a GroupTable has: on D5 built from generators they agree
    with the same group given by its table."""
    gens = [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]
    g = wg.build_group_from_generators(gens)
    table = wg.group_from_table(mul_oracle(gens))
    rng = np.random.default_rng(5)
    f, h = random_gfunction(10, rng), random_gfunction(10, rng)
    w = random_symmetric_weight(g, rng)
    results = []
    for group in (g, table):
        K = oracles.subgroup_closure(group, [int(g.generators[-1])])
        part = wg.double_cosets(group, K.generators)
        phi = wg.enumerate_spherical(
            wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
        ).functions[-1]
        projected = oracles.sharp_projection(f, group, K)
        results.append([
            oracles.translate(f, group, 3),
            oracles.gamma(f, group, 7, w),
            oracles.classical_convolve(f, h, group),
            oracles.weighted_convolve(f, h, group, w),
            projected,
            [oracles.is_left_invariant(projected, group, K), oracles.is_left_invariant(f, group, K)],
            oracles.verify_functional_equation(phi, part, group, K, np.ones(group.order)),
        ])
    for ours, theirs in zip(*results):
        assert np.allclose(ours, theirs, atol=1e-12)
    assert results[0][5] == [True, False]
    assert results[0][6] < 1e-12


def test_translate_and_gamma_identity_element(s3):
    rng = np.random.default_rng(6)
    f = random_gfunction(6, rng)
    w = rng.uniform(0.5, 2.0, 6)
    assert np.allclose(oracles.translate(f, s3, s3.identity), f)
    assert np.allclose(oracles.gamma(f, s3, s3.identity, w), f)


def test_gamma_collapses_at_uniform_weight(s3):
    rng = np.random.default_rng(7)
    f = random_gfunction(6, rng)
    w = np.ones(s3.order)
    for s in range(6):
        assert np.allclose(oracles.gamma(f, s3, s, w), oracles.translate(f, s3, s))


def test_gamma_cyclic3_hand_value():
    c3 = wg.cyclic_group(3)
    w = np.array([1.0, 2.0, 4.0])
    out = oracles.gamma(delta(3, 0), c3, 1, w)
    assert np.allclose(out, [0, 0.5, 0])


def test_sharp_fixes_bi_invariant(s3_pair):
    group, K, part = s3_pair
    f = oracles.expand(np.array([2.0, -1.0j]), part)
    assert np.allclose(oracles.sharp_projection(f, group, K), f, atol=1e-12)


def test_sharp_of_delta_e(s3_pair):
    group, K, part = s3_pair
    out = oracles.sharp_projection(delta(6, group.identity), group, K)
    expected = np.zeros(6)
    expected[list(K.elements)] = 0.5
    assert np.allclose(out, expected, atol=1e-12)


def test_sharp_trivial_subgroup(s3):
    K = oracles.subgroup_closure(s3, [])
    rng = np.random.default_rng(8)
    f = random_gfunction(6, rng)
    assert np.allclose(oracles.sharp_projection(f, s3, K), f)


def test_sharp_idempotent_sum_preserving_bi_invariant(s4_pair):
    group, K, part = s4_pair
    rng = np.random.default_rng(9)
    f = random_gfunction(group.order, rng)
    p = oracles.sharp_projection(f, group, K)
    assert np.allclose(oracles.sharp_projection(p, group, K), p, atol=1e-12)
    assert np.sum(p) == pytest.approx(np.sum(f), abs=1e-10)
    assert oracles.is_bi_invariant(p, part, tol=1e-10)


def test_theta_pullback_and_reflect(s3):
    rng = np.random.default_rng(10)
    f = random_gfunction(6, rng)
    ident = wg.check_automorphism(s3, np.arange(6))
    assert np.allclose(oracles.theta_pullback(f, ident), f)
    assert np.allclose(oracles.reflect(oracles.reflect(f, s3), s3), f)


def test_theta_pullback_equals_reflect_for_bi_invariant(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6))
    sc = wg.hecke_structure_constants(group, part, np.ones(2))
    assert wg.check_rap_condition(sc, part, theta, True)
    f = oracles.expand(np.array([1.0, 2.0 - 1.0j]), part)
    assert np.allclose(oracles.theta_pullback(f, theta), oracles.reflect(f, group))


def test_weight_checks_uniform(s3_pair):
    group, K, part = s3_pair
    theta = wg.check_automorphism(group, np.arange(6))
    wd = wg.weight_from_spec({"kind": "uniform"}, part)
    assert wg.bi_invariance_witness(np.ones(group.order), part) is None
    assert np.array_equal(wd, np.ones(part.num_cosets))
    assert np.array_equal(wd[part.inverse_coset], wd)
    assert wd[part.identity_coset] == 1.0 and wg.theta_invariant(wd, part, theta)


def test_weight_checks_coset_constant(s3_weighted):
    group, K, part, w = s3_weighted
    assert wg.bi_invariance_witness(w, part) is None
    wd = wg.weight_from_spec({"kind": "by_element", "values": w.tolist()}, part)
    assert np.array_equal(wd[part.coset_of], w)
    assert np.array_equal(wd[part.inverse_coset], wd)
    assert wd[part.identity_coset] == 1.0


def test_weight_checks_witness(s3_pair):
    group, K, part = s3_pair
    w = np.arange(1.0, 7.0)
    x, y = wg.bi_invariance_witness(w, part)
    assert part.coset_of[x] == part.coset_of[y]
    assert w[x] != w[y]
    with pytest.raises(wg.BiInvarianceError) as exc:
        wg.weight_from_spec({"kind": "by_element", "values": w.tolist()}, part)
    assert exc.value.witness == (x, y)


def test_bi_invariance_witness_walks_coset_by_coset():
    """S4 over <(0 1)>: coset 2 is (5, 7, 9, 12) and coset 3 is
    (8, 10, 11, 13). With w broken at 12 and at 10, the first non-constant
    coset is 2, so the witness is (5, 12), although 10 < 12: the members
    are walked coset by coset, each coset in increasing order."""
    group = wg.symmetric_group(4)
    K = oracles.subgroup_closure(group, [1])
    part = wg.double_cosets(group, K.generators)
    cosets, _ = double_cosets_oracle(oracles.mul_table(group), K)
    assert cosets[2] == (5, 7, 9, 12) and cosets[3] == (8, 10, 11, 13)
    vals = np.ones(group.order)
    vals[[12, 10]] = [2.0, 3.0]
    first = next((c[0], x) for c in cosets for x in c if vals[x] != vals[c[0]])
    assert wg.bi_invariance_witness(vals, part) == first == (5, 12)
    with pytest.raises(wg.BiInvarianceError, match="elements 5 and 12 ") as exc:
        wg.weight_from_spec({"kind": "by_element", "values": vals.tolist()}, part)
    assert exc.value.witness == (5, 12)


def test_sharp_convolution_identities(s3_pair):
    # (h *_w f)# = h# *_w f for bi-invariant f, and = h *_w f# when h is
    # additionally left K-invariant
    group, K, part = s3_pair
    mul = oracles.mul_table(group)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = random_bi_invariant_weight(part, rng)
        f = oracles.expand(random_gfunction(part.num_cosets, rng), part)
        h = random_gfunction(group.order, rng)
        conv = oracles.weighted_convolve(h, f, group, w)
        lhs = oracles.sharp_projection(conv, group, K)
        rhs = oracles.weighted_convolve(oracles.sharp_projection(h, group, K), f, group, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

        # left-average h to get a left K-invariant function
        h_left = np.mean([h[mul[k]] for k in K.elements], axis=0)
        assert oracles.is_left_invariant(h_left, group, K, tol=1e-10)
        conv = oracles.weighted_convolve(h_left, f, group, w)
        lhs = oracles.sharp_projection(conv, group, K)
        rhs = oracles.weighted_convolve(h_left, oracles.sharp_projection(f, group, K), group, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_theta_homomorphism():
    c6 = wg.cyclic_group(6)
    theta = wg.inversion_automorphism(c6)
    part = wg.double_cosets(c6, [])
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = random_symmetric_weight(c6, rng)
        assert wg.theta_invariant(w[part.reps], part, theta)
        f, h = random_gfunction(6, rng), random_gfunction(6, rng)
        lhs = oracles.weighted_convolve(
            oracles.theta_pullback(f, theta), oracles.theta_pullback(h, theta), c6, w
        )
        rhs = oracles.theta_pullback(oracles.weighted_convolve(f, h, c6, w), theta)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gamma_commutes_with_convolution_operators_abelian():
    # on abelian groups every convolution operator commutes with the
    # weighted translations
    c6 = wg.cyclic_group(6)
    rng = np.random.default_rng(13)
    w = rng.uniform(0.5, 2.0, 6)
    h = random_gfunction(6, rng)
    f = random_gfunction(6, rng)
    for s in range(6):
        lhs = oracles.weighted_convolve(h, oracles.gamma(f, c6, s, w), c6, w)
        rhs = oracles.gamma(oracles.weighted_convolve(h, f, c6, w), c6, s, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_weight_from_spec_kinds(s3_pair):
    group, K, part = s3_pair
    assert np.array_equal(wg.weight_from_spec({"kind": "uniform"}, part), [1.0, 1.0])
    wd = wg.weight_from_spec(
        {"kind": "by_element", "values": [1, 1, 4, 4, 4, 4]}, part
    )
    assert np.array_equal(wd, [1.0, 4.0])
    wd = wg.weight_from_spec(
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": 3.0}}, part
    )
    assert np.array_equal(wd, [1.0, 3.0])
    with pytest.raises(InputSpecError):
        wg.weight_from_spec({"kind": "by_element", "values": [1.0]}, part)


@pytest.mark.parametrize("name, group, K, part, w", gelfand_instances(),
                         ids=[case[0] for case in gelfand_instances()])
def test_weight_specs_of_one_weight_give_one_wd(name, group, K, part, w):
    """uniform, by_element and by_double_coset specs of one weight read to
    the same coset weights, bit for bit."""
    by_coset = {str(i): float(v) for i, v in enumerate(w[part.reps])}
    wd = wg.weight_from_spec({"kind": "by_double_coset", "values": by_coset}, part)
    assert np.array_equal(wg.weight_from_spec({"kind": "by_element", "values": w.tolist()}, part), wd)
    assert np.array_equal(wd[part.coset_of], w)
    ones = np.ones(group.order)
    uniform = wg.weight_from_spec({"kind": "uniform"}, part)
    assert np.array_equal(wg.weight_from_spec({"kind": "by_element", "values": ones.tolist()}, part), uniform)
    all_one = {str(i): 1 for i in range(part.num_cosets)}
    assert np.array_equal(wg.weight_from_spec({"kind": "by_double_coset", "values": all_one}, part), uniform)


def test_bi_invariant_function_roundtrip(s3_pair):
    group, K, part = s3_pair
    f = np.array([1.0, 2.0])
    back = oracles.from_gfunction(oracles.expand(f, part), part)
    assert np.allclose(back, f)
    with pytest.raises(wg.PreconditionError):
        oracles.from_gfunction(np.arange(6.0), part)
