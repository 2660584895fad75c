"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and are not meant to be tuned.
"""

import time

import numpy as np
import pytest

import wgelfand as wg

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
    K = wg.subgroup_closure(group, seeds)
    return group, K, wg.double_cosets(group, K)


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
            fast = wg.weighted_convolve(f, g, group, wg.uniform_weight(group))
            slow = classical_convolve_oracle(f, g, group)
            assert np.max(np.abs(fast - slow)) < 1e-12
        assert time.perf_counter() - start < 1.0

    _run(1, "uniform weight reduces to classical convolution (oracle, <1e-12)", body)


def test_criterion_2_gelfand_detection():
    def body():
        start = time.perf_counter()
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        assert wg.is_weighted_gelfand(s3, K3, wg.uniform_weight(s3)).is_weighted_gelfand

        report = wg.is_weighted_gelfand(
            s3, wg.subgroup_closure(s3, []), wg.uniform_weight(s3)
        )
        assert not report.is_weighted_gelfand and report.witness is not None

        gens4 = wg.symmetric_group_generators(4)
        s4 = wg.build_group_from_generators(gens4)
        K4 = wg.point_stabilizer(s4, gens4, 3)
        assert wg.is_weighted_gelfand(s4, K4, wg.uniform_weight(s4)).is_weighted_gelfand

        for order in (4, 6, 8, 9, 12):
            g = wg.cyclic_group(order)
            for seed in range(order):
                K = wg.subgroup_closure(g, [seed])
                assert wg.is_weighted_gelfand(
                    g, K, wg.uniform_weight(g)
                ).is_weighted_gelfand
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
            base = wg.is_weighted_gelfand(group, K, wg.uniform_weight(group), partition=part)
            c1 = structure_tensor(wg.hecke_structure_constants(
                group, K, wg.uniform_weight(group), partition=part
            ))
            for _ in range(20):
                w = random_bi_invariant_weight(part, rng)
                report = wg.is_weighted_gelfand(group, K, w, partition=part)
                assert report.is_weighted_gelfand == base.is_weighted_gelfand
                cw = structure_tensor(wg.hecke_structure_constants(group, K, w, partition=part))
                wd = np.array([w.values[c[0]] for c in part.cosets])
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
                assert wg.check_rap_condition(group, K, w, theta, partition=part)
                assert wg.is_weighted_gelfand(
                    group, K, w, partition=part
                ).is_weighted_gelfand
        group, K, part = _pair(wg.symmetric_group(3), [1])
        theta = wg.check_automorphism(group, np.arange(6), require_involutive=True)
        for _ in range(10):
            w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
            # coset-constant weights here are symmetric: both cosets are
            # closed under inversion
            assert wg.weight_checks(w, group, part).symmetric
            assert wg.check_rap_condition(group, K, w, theta, partition=part)
            assert wg.is_weighted_gelfand(group, K, w, partition=part).is_weighted_gelfand

    _run(4, "automorphism-based sufficient condition implies detection", body)


def test_criterion_5_necessary_identity():
    def body():
        for name, group, K, part, w in gelfand_instances():
            report = wg.is_weighted_gelfand(group, K, w, partition=part)
            assert report.is_weighted_gelfand, name
            assert w.unit_at_identity(group), name
            # sum_x f(x) w(x) w(x^-1) = sum_x f(x^-1) w(x^-1) w(x) for every
            # double-coset indicator f, summed element by element
            wv, inv = w.values, group.inv
            for i in range(part.num_cosets):
                f = (part.coset_of == i).astype(float)
                lhs = sum(f[x] * wv[x] * wv[inv[x]] for x in range(group.order))
                rhs = sum(f[inv[x]] * wv[inv[x]] * wv[x] for x in range(group.order))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), name

    _run(5, "inversion-sum identity holds on every detected instance", body)


def test_criterion_6_spherical_enumeration():
    def body():
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        sset = wg.enumerate_spherical(s3, K3, wg.uniform_weight(s3), partition=p3)
        assert match_sets(
            [phi.coset_values for phi in sset.functions],
            [np.array([1.0, 1.0]), np.array([1.0, -0.5])],
            1e-8,
        )
        w = wg.weight_from_spec(
            {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, s3, p3
        )
        sset = wg.enumerate_spherical(s3, K3, w, partition=p3)
        assert match_sets(
            [phi.coset_values for phi in sset.functions],
            [np.array([1.0, 0.5]), np.array([1.0, -0.25])],
            1e-8,
        )
        c4, Kt, pt = _pair(wg.cyclic_group(4), [])
        sset = wg.enumerate_spherical(c4, Kt, wg.uniform_weight(c4), partition=pt)
        dft = [np.array([1j ** (j * x) for x in range(4)]) for j in range(4)]
        assert match_sets([phi.coset_values for phi in sset.functions], dft, 1e-9)

        # eigen route vs symbolic brute force on every small instance
        small = [
            (s3, K3, p3, wg.uniform_weight(s3)),
            (s3, K3, p3, w),
            _pair(wg.cyclic_group(3), []) + (wg.uniform_weight(wg.cyclic_group(3)),),
            _pair(wg.cyclic_group(3), []) + (wg.Weight(np.array([1.0, 2.0, 2.0])),),
        ]
        for group, K, part, weight in small:
            assert part.num_cosets <= 3
            sset = wg.enumerate_spherical(group, K, weight, partition=part)
            oracle = brute_force_spherical(group, K, weight, partition=part)
            assert match_sets(
                [phi.coset_values for phi in sset.functions], oracle, 1e-7
            )

    _run(6, "spherical enumeration matches frozen values and symbolic oracle", body)


def test_criterion_7_characterizations():
    def body():
        rng = np.random.default_rng(7)
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(group, K, w, partition=part)
            for phi in sset.functions:
                assert wg.verify_functional_equation(phi, group, K, w) < 1e-9, name
                assert abs(phi.coset_values[part.identity_coset] - 1.0) < 1e-9, name
                for _ in range(20):
                    f = wg.BiInvariantFunction(
                        random_gfunction(part.num_cosets, rng), part
                    )
                    _, residual = wg.verify_eigen_property(f, phi, group, w)
                    assert residual < 1e-9, name

    _run(7, "functional-equation and eigenfunction characterizations", body)


def test_criterion_8_convolution_theorem():
    def body():
        rng = np.random.default_rng(8)
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(group, K, w, partition=part)
            for _ in range(100):
                f = wg.BiInvariantFunction(random_gfunction(part.num_cosets, rng), part)
                g = wg.BiInvariantFunction(random_gfunction(part.num_cosets, rng), part)
                assert wg.verify_convolution_theorem(f, g, sset, group, w) < 1e-9, name

    _run(8, "transform turns weighted convolution into pointwise product", body)


def test_criterion_9_injectivity():
    def body():
        for name, group, K, part, w in gelfand_instances():
            sset = wg.enumerate_spherical(group, K, w, partition=part)
            table = wg.build_fourier_table(sset)
            rank, _ = wg.injectivity_check(table)
            assert rank == part.num_cosets, name

        # sensitivity: a sign-flipped spherical function must be caught
        _, group, K, part, w = gelfand_instances()[0]
        sset = wg.enumerate_spherical(group, K, w, partition=part)
        good = sset.functions[-1]
        flipped = good.coset_values.copy()
        flipped[1 - part.identity_coset] *= -1.0
        corrupted = wg.SphericalFunction(flipped, part)
        assert wg.verify_functional_equation(corrupted, group, K, w) > 1e-3
        f = wg.BiInvariantFunction.indicator(1, part)
        _, residual = wg.verify_eigen_property(f, corrupted, group, w)
        assert residual > 1e-3

    _run(9, "transform has full rank; corrupted functions are rejected", body)


def test_criterion_10_multipliers():
    def body():
        rng = np.random.default_rng(10)
        for name, group, K, part, w in gelfand_instances():
            sc = wg.hecke_structure_constants(group, K, w, partition=part)
            sset = wg.enumerate_spherical(group, K, w, partition=part, sc=sc)
            table = wg.build_fourier_table(sset)
            d = part.num_cosets
            operators = []
            for _ in range(5):
                h = wg.BiInvariantFunction(random_gfunction(d, rng), part)
                T = wg.multiplier_from_kernel(h, sc)
                ok, _ = wg.is_multiplier(T, sc)
                assert ok, name
                sym = wg.extract_symbol(T, table)
                transform = wg.spherical_transform(h, sset, group, w)
                assert np.max(np.abs(sym.values - transform)) < 1e-9, name
                again = wg.extract_symbol(T, table)
                assert np.array_equal(sym.values, again.values), name
                operators.append(T)
            pairs = 0
            for a in range(len(operators)):
                for b in range(a + 1, len(operators)):
                    if pairs >= 10:
                        break
                    assert wg.verify_commutation(operators[a], operators[b], sc) < 1e-9
                    pairs += 1
            if d > 1:
                # a generic random matrix is not a multiplier
                bad = wg.MultiplierOperator(
                    matrix=rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                )
                ok, witness = wg.is_multiplier(bad, sc)
                assert not ok and witness is not None, name

    _run(10, "kernel multipliers, symbols, uniqueness and commutation", body)


def test_criterion_11_projection_and_pullback_identities():
    def body():
        rng = np.random.default_rng(11)
        s3, K3, p3 = _pair(wg.symmetric_group(3), [1])
        theta_id = wg.check_automorphism(s3, np.arange(6), require_involutive=True)
        c6 = wg.cyclic_group(6)
        theta_inv = wg.inversion_automorphism(c6)
        for _ in range(50):
            # projection identities on the S3 pair with bi-invariant weight
            w = random_bi_invariant_weight(p3, rng)
            f = wg.BiInvariantFunction(random_gfunction(2, rng), p3).expand()
            h = random_gfunction(6, rng)
            conv = wg.weighted_convolve(h, f, s3, w)
            lhs = wg.sharp_projection(conv, s3, K3)
            rhs = wg.weighted_convolve(wg.sharp_projection(h, s3, K3), f, s3, w)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            h_left = np.mean([h[s3.mul[k]] for k in K3.elements], axis=0)
            conv = wg.weighted_convolve(h_left, f, s3, w)
            lhs = wg.sharp_projection(conv, s3, K3)
            rhs = wg.weighted_convolve(
                h_left, wg.sharp_projection(f, s3, K3), s3, w
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            # pullback homomorphism with a theta-invariant weight
            ws = random_symmetric_weight(c6, rng)
            fa, ha = random_gfunction(6, rng), random_gfunction(6, rng)
            lhs = wg.weighted_convolve(
                wg.theta_pullback(fa, theta_inv), wg.theta_pullback(ha, theta_inv), c6, ws
            )
            rhs = wg.theta_pullback(wg.weighted_convolve(fa, ha, c6, ws), theta_inv)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

            # theta landing in K x^-1 K forces pullback = reflection
            ok, _ = wg.theta_in_KxinvK(s3, p3, theta_id)
            assert ok
            assert np.max(
                np.abs(wg.theta_pullback(f, theta_id) - wg.reflect(f, s3))
            ) < 1e-10

    _run(11, "projection/convolution and pullback identities on random draws", body)


def test_criterion_12_scale_s5():
    def body():
        start = time.perf_counter()
        gens5 = wg.symmetric_group_generators(5)
        s5 = wg.build_group_from_generators(gens5)
        assert s5.order == 120
        K = wg.point_stabilizer(s5, gens5, 4)
        assert K.order == 24
        part = wg.double_cosets(s5, K)
        rng = np.random.default_rng(12)
        w = random_bi_invariant_weight(part, rng, unit_at_identity=True)
        report = wg.is_weighted_gelfand(s5, K, w, partition=part)
        assert report.is_weighted_gelfand
        sc = wg.hecke_structure_constants(s5, K, w, partition=part)
        sset = wg.enumerate_spherical(s5, K, w, partition=part, sc=sc)
        assert len(sset) == part.num_cosets
        table = wg.build_fourier_table(sset)
        rank, _ = wg.injectivity_check(table)
        assert rank == part.num_cosets
        h = wg.BiInvariantFunction(random_gfunction(part.num_cosets, rng), part)
        T = wg.multiplier_from_kernel(h, sc)
        sym = wg.extract_symbol(T, table)
        assert np.max(
            np.abs(sym.values - wg.spherical_transform(h, sset, s5, w))
        ) < 1e-9
        assert time.perf_counter() - start < 10.0

    _run(12, "full pipeline on the order-120 symmetric pair in under 10 s", body)
