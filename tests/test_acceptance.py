"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and are not meant to be tuned.
"""

import time

import numpy as np
import pytest

import wgelfand as wg

import oracles
from conftest import (
    brute_force_spherical,
    classical_convolve_oracle,
    gelfand_instances,
    match_sets,
    random_bi_invariant_weight,
    random_gfunction,
    random_symmetric_weight,
    structure_tensor,
)


def _run(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {desc}")


def _pair(group, seeds):
    K = oracles.subgroup_closure(group, seeds)
    return group, K, wg.double_cosets(group, K.generators)


def test_criterion_1_classical_reduction():
    def body():
        groups = [wg.symmetric_group(3), wg.dihedral_group(4)] + [
            wg.cyclic_group(n) for n in range(2, 13)
        ]
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for trial in range(100):
            group = groups[trial % len(groups)]
            n = group.order
            f, g = random_gfunction(n, rng), random_gfunction(n, rng)
            fast = oracles.weighted_convolve(f, g, group, np.ones(group.order))
            slow = classical_convolve_oracle(f, g, group)
            assert np.max(np.abs(fast - slow)) < 1e-12
        assert time.perf_counter() - start < 1.0

    _run(1, "uniform weight reduces to classical convolution (oracle, <1e-12)", body)


def test_criterion_2_gelfand_detection():
    def body():
        start = time.perf_counter()
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        uniform = np.ones(s3.order)
        sc3 = wg.hecke_structure_constants(s3, p3, uniform[p3.reps])
        assert sc3.commutativity_witness is None

        _, _, p1 = _pair(s3, [])
        sc1 = wg.hecke_structure_constants(s3, p1, uniform[p1.reps])
        assert sc1.commutativity_witness is not None

        gens4 = wg.symmetric_group_generators(4)
        s4 = wg.build_group_from_generators(gens4)
        K4 = oracles.point_stabilizer(s4, 3)
        sc4 = wg.hecke_structure_constants(s4, wg.double_cosets(s4, K4.generators), np.ones(2))
        assert sc4.commutativity_witness is None

        for order in (4, 6, 8, 9, 12):
            g = wg.cyclic_group(order)
            for seed in range(order):
                _, _, part = _pair(g, [seed])
                sc = wg.hecke_structure_constants(g, part, np.ones(part.num_cosets))
                assert sc.commutativity_witness is None
        assert time.perf_counter() - start < 5.0

    _run(2, "Gelfand detection on S3, S4 and abelian families", body)


def test_criterion_3_weighted_transfer():
    def body():
        rng = np.random.default_rng(3)
        pairs = [
            _pair(wg.symmetric_group(3), [1]),
            _pair(wg.cyclic_group(6), [3]),
            _pair(wg.dihedral_group(4), [1]),
        ]
        for group, K, part in pairs:
            sc1 = wg.hecke_structure_constants(group, part, np.ones(part.num_cosets))
            base, c1 = sc1.commutativity_witness is None, structure_tensor(sc1)
            for _ in range(20):
                wd = random_bi_invariant_weight(part, rng)[part.reps]
                sc = wg.hecke_structure_constants(group, part, wd)
                assert (sc.commutativity_witness is None) == base
                cw = structure_tensor(sc)
                lhs = cw * wd[None, None, :]
                rhs = c1 * wd[:, None, None] * wd[None, :, None]
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    _run(3, "weight transfer of structure constants and the Gelfand verdict", body)


def test_criterion_4_sufficient_condition():
    def body():
        rng = np.random.default_rng(4)
        for order in (5, 7):
            group, K, part = _pair(wg.cyclic_group(order), [])
            theta = wg.inversion_automorphism(group)
            for _ in range(10):
                w = random_symmetric_weight(group, rng)
                sc = wg.hecke_structure_constants(group, part, w[part.reps])
                assert wg.check_rap_condition(sc, part, theta, wg.theta_invariant(sc.wd, part, theta))
                assert sc.commutativity_witness is None
        group, K, part = _pair(wg.symmetric_group(3), [1])
        theta = wg.check_automorphism(group, np.arange(6))
        for _ in range(10):
            w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
            # coset-constant weights here are symmetric: both cosets are
            # closed under inversion
            assert np.array_equal(w[group.inv], w)
            sc = wg.hecke_structure_constants(group, part, w[part.reps])
            assert wg.check_rap_condition(sc, part, theta, wg.theta_invariant(sc.wd, part, theta))
            assert sc.commutativity_witness is None

    _run(4, "automorphism-based sufficient condition implies detection", body)


def test_criterion_5_necessary_identity():
    def body():
        for name, group, K, part, w in gelfand_instances():
            sc = wg.hecke_structure_constants(group, part, w[part.reps])
            assert sc.commutativity_witness is None, name
            assert w[group.identity] == 1.0, name
            # sum_x f(x) w(x) w(x^-1) = sum_x f(x^-1) w(x^-1) w(x) for every
            # double-coset indicator f, summed element by element
            wv, inv = w, group.inv
            for i in range(part.num_cosets):
                f = (part.coset_of == i).astype(float)
                lhs = sum(f[x] * wv[x] * wv[inv[x]] for x in range(group.order))
                rhs = sum(f[inv[x]] * wv[inv[x]] * wv[x] for x in range(group.order))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), name

    _run(5, "inversion-sum identity holds on every detected instance", body)


def test_criterion_6_spherical_enumeration():
    def body():
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(s3, p3, np.ones(p3.num_cosets)))
        assert match_sets(
            list(sset.functions),
            [np.array([1.0, 1.0]), np.array([1.0, -0.5])],
            1e-8,
        )
        wd = wg.weight_from_spec({"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, p3)
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(s3, p3, wd))
        assert match_sets(
            list(sset.functions),
            [np.array([1.0, 0.5]), np.array([1.0, -0.25])],
            1e-8,
        )
        c4, Kt, pt = _pair(wg.cyclic_group(4), [])
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(c4, pt, np.ones(pt.num_cosets)))
        dft = [np.array([1j ** (j * x) for x in range(4)]) for j in range(4)]
        assert match_sets(list(sset.functions), dft, 1e-9)

        # eigen route vs symbolic brute force on every small instance
        small = [
            (s3, K3, p3, np.ones(s3.order)),
            (s3, K3, p3, wd[p3.coset_of]),
            _pair(wg.cyclic_group(3), []) + (np.ones(3),),
            _pair(wg.cyclic_group(3), []) + (np.array([1.0, 2.0, 2.0]),),
        ]
        for group, K, part, weight in small:
            assert part.num_cosets <= 3
            sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, weight[part.reps]))
            oracle = brute_force_spherical(group, K, weight, partition=part)
            assert match_sets(
                list(sset.functions), oracle, 1e-7
            )

    _run(6, "spherical enumeration matches frozen values and symbolic oracle", body)


def test_criterion_7_characterizations():
    def body():
        rng = np.random.default_rng(7)
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
            for phi in sset.functions:
                assert oracles.verify_functional_equation(phi, part, group, K, w) < 1e-9, name
                assert abs(phi[part.identity_coset] - 1.0) < 1e-9, name
                for _ in range(20):
                    f = random_gfunction(part.num_cosets, rng)
                    _, residual = oracles.verify_eigen_property(f, phi, part, group, w)
                    assert residual < 1e-9, name

    _run(7, "functional-equation and eigenfunction characterizations", body)


def test_criterion_8_convolution_theorem():
    def body():
        rng = np.random.default_rng(8)
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
            for _ in range(100):
                f = random_gfunction(part.num_cosets, rng)
                g = random_gfunction(part.num_cosets, rng)
                residual = oracles.verify_convolution_theorem(f, g, part, sset, group, w)
                assert residual < 1e-9, name

    _run(8, "transform turns weighted convolution into pointwise product", body)


def test_criterion_9_injectivity():
    def body():
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
            rank, _ = wg.injectivity_check(sset)
            assert rank == part.num_cosets, name

        # sensitivity: a sign-flipped spherical function must be caught
        _, group, K, part, w = gelfand_instances()[0]
        sset = wg.enumerate_spherical(wg.hecke_structure_constants(group, part, w[part.reps]))
        good = sset.functions[-1]
        flipped = good.copy()
        flipped[1 - part.identity_coset] *= -1.0
        assert oracles.verify_functional_equation(flipped, part, group, K, w) > 1e-3
        f = oracles.indicator(1, part)
        _, residual = oracles.verify_eigen_property(f, flipped, part, group, w)
        assert residual > 1e-3

    _run(9, "transform has full rank; corrupted functions are rejected", body)


def test_criterion_10_multipliers():
    def body():
        rng = np.random.default_rng(10)
        for name, group, K, part, w in gelfand_instances():
            sc = wg.hecke_structure_constants(group, part, w[part.reps])
            sset = wg.enumerate_spherical(sc)
            d = part.num_cosets
            operators = []
            for _ in range(5):
                h = random_gfunction(d, rng)
                T = wg.multiplier_from_kernel(h, sc)
                ok, _ = wg.is_multiplier(T, sc)
                assert ok, name
                sym = wg.extract_symbol(T, sc, sset)
                transform = oracles.spherical_transform(h, part, sset, group, w)
                assert np.max(np.abs(sym - transform)) < 1e-9, name
                again = wg.extract_symbol(T, sc, sset)
                assert np.array_equal(sym, again), name
                operators.append(T)
            pairs = 0
            for a in range(len(operators)):
                for b in range(a + 1, len(operators)):
                    if pairs >= 10:
                        break
                    assert wg.verify_commutation(operators[a], operators[b]) < 1e-9
                    pairs += 1
            if d > 1:
                # a generic random matrix is not a multiplier
                bad = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                ok, witness = wg.is_multiplier(bad, sc)
                assert not ok and witness is not None, name

    _run(10, "kernel multipliers, symbols, uniqueness and commutation", body)


def test_criterion_11_projection_and_pullback_identities():
    def body():
        rng = np.random.default_rng(11)
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        theta_id = wg.check_automorphism(s3, np.arange(6))
        c6 = wg.cyclic_group(6)
        theta_inv = wg.inversion_automorphism(c6)
        mul3 = oracles.mul_table(s3)
        for _ in range(50):
            # projection identities on the S3 pair with bi-invariant weight
            w = random_bi_invariant_weight(p3, rng)
            f = oracles.expand(random_gfunction(2, rng), p3)
            h = random_gfunction(6, rng)
            conv = oracles.weighted_convolve(h, f, s3, w)
            lhs = oracles.sharp_projection(conv, s3, K3)
            rhs = oracles.weighted_convolve(oracles.sharp_projection(h, s3, K3), f, s3, w)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            h_left = np.mean([h[mul3[k]] for k in K3.elements], axis=0)
            conv = oracles.weighted_convolve(h_left, f, s3, w)
            lhs = oracles.sharp_projection(conv, s3, K3)
            rhs = oracles.weighted_convolve(
                h_left, oracles.sharp_projection(f, s3, K3), s3, w
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            # pullback homomorphism with a theta-invariant weight
            ws = random_symmetric_weight(c6, rng)
            fa, ha = random_gfunction(6, rng), random_gfunction(6, rng)
            lhs = oracles.weighted_convolve(
                oracles.theta_pullback(fa, theta_inv), oracles.theta_pullback(ha, theta_inv), c6, ws
            )
            rhs = oracles.theta_pullback(oracles.weighted_convolve(fa, ha, c6, ws), theta_inv)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            # theta landing in K x^-1 K forces pullback = reflection
            sc = wg.hecke_structure_constants(s3, p3, w[p3.reps])
            assert wg.check_rap_condition(sc, p3, theta_id, True)
            assert np.max(
                np.abs(oracles.theta_pullback(f, theta_id) - oracles.reflect(f, s3))
            ) < 1e-10

    _run(11, "projection/convolution and pullback identities on random draws", body)


def test_criterion_12_scale_s5():
    def body():
        start = time.perf_counter()
        gens5 = wg.symmetric_group_generators(5)
        s5 = wg.build_group_from_generators(gens5)
        assert s5.order == 120
        K = oracles.point_stabilizer(s5, 4)
        assert K.order == 24
        part = wg.double_cosets(s5, K.generators)
        rng = np.random.default_rng(12)
        w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
        sc = wg.hecke_structure_constants(s5, part, w[part.reps])
        assert sc.commutativity_witness is None
        sset = wg.enumerate_spherical(sc)
        assert len(sset) == part.num_cosets
        rank, _ = wg.injectivity_check(sset)
        assert rank == part.num_cosets
        h = random_gfunction(part.num_cosets, rng)
        sym = wg.extract_symbol(wg.multiplier_from_kernel(h, sc), sc, sset)
        assert np.max(
            np.abs(sym - oracles.spherical_transform(h, part, sset, s5, w))
        ) < 1e-9
        assert time.perf_counter() - start < 10.0

    _run(12, "full pipeline on the order-120 symmetric pair in under 10 s", body)
