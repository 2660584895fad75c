"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's fast paths: convolutions
are plain double loops over group elements, and spherical functions are found
by solving the averaged-product equation symbolically with sympy.
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy

import wgelfand as wg


# ---------------------------------------------------------------- oracles


def classical_convolve_oracle(f, g, group):
    """(f * g)(x) = sum_y f(y) g(y^-1 x), element by element."""
    n = group.order
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            out[x] += f[y] * g[group.multiply(group.inverse(y), x)]
    return out


def weighted_convolve_oracle(f, g, group, w):
    """The weighted product by its defining double loop."""
    n = group.order
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            z = group.multiply(group.inverse(y), x)
            out[x] += f[y] * g[z] * w.values[y] * w.values[z] / w.values[x]
    return out


def brute_force_spherical(group, K, w, partition=None):
    """All nonzero bi-invariant solutions of the averaged-product equation,
    found symbolically. Weight values must be exactly representable. Intended
    for small coset counts (the symbolic system grows quickly)."""
    if partition is None:
        partition = wg.double_cosets(group, K)
    d = partition.num_cosets
    wvals = [sympy.nsimplify(v, rational=True) for v in w.values]
    u = sympy.symbols(f"u0:{d}", complex=True)
    reps = [c[0] for c in partition.cosets]
    equations = []
    for xi in reps:
        for yj in reps:
            lhs = sympy.Integer(0)
            for k in K.elements:
                z = group.multiply(group.multiply(xi, k), yj)
                lhs += wvals[z] * u[partition.coset_of[z]]
            lhs = lhs / K.order
            rhs = wvals[xi] * u[partition.coset_of[xi]] * wvals[yj] * u[partition.coset_of[yj]]
            equations.append(sympy.expand(lhs - rhs))
    solutions = sympy.solve(equations, list(u), dict=True)
    out = []
    for sol in solutions:
        vec = np.array([complex(sol.get(ui, 0)) for ui in u])
        if np.max(np.abs(vec)) > 1e-12:
            out.append(vec)
    return out


def match_sets(found, expected, tol):
    """Greedy matching of two lists of complex vectors up to reordering."""
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for vec in found:
        hit = None
        for idx, cand in enumerate(remaining):
            if np.max(np.abs(vec - cand)) <= tol:
                hit = idx
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def random_bi_invariant_weight(partition, rng, unit_at_identity=False):
    vals = rng.uniform(0.5, 3.0, size=partition.num_cosets)
    if unit_at_identity:
        vals[partition.identity_coset] = 1.0
    return wg.Weight(vals[partition.coset_of])


def random_symmetric_weight(group, rng, unit_at_identity=True):
    vals = rng.uniform(0.5, 3.0, size=group.order)
    vals = 0.5 * (vals + vals[group.inv])
    if unit_at_identity:
        vals[group.identity] = 1.0
    return wg.Weight(vals)


def random_gfunction(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def is_multiplier_oracle(T, sc, tol=1e-9):
    """The defining identity T(delta_i * delta_j) = (T delta_i) * delta_j,
    pair by pair in row-major order; returns (verdict, first failing pair)."""
    d = sc.dim
    eye = np.eye(d)
    scale = max(1.0, float(np.max(np.abs(T.matrix))), float(np.max(np.abs(sc.c))))
    for i in range(d):
        for j in range(d):
            lhs = T.apply(sc.c[i, j])
            rhs = sc.convolve_coords(T.apply(eye[i]), eye[j])
            if np.max(np.abs(lhs - rhs)) > tol * scale:
                return False, (i, j)
    return True, None


def commutation_oracle(T1, T2, sc):
    """Max over basis pairs of |T1 delta_i * T2 delta_j - T2 delta_i * T1 delta_j|."""
    eye = np.eye(sc.dim)
    return max(
        float(np.max(np.abs(
            sc.convolve_coords(T1.apply(eye[i]), T2.apply(eye[j]))
            - sc.convolve_coords(T2.apply(eye[i]), T1.apply(eye[j]))
        )))
        for i in range(sc.dim)
        for j in range(sc.dim)
    )


def _subgroup_pair(group, seeds):
    K = wg.subgroup_closure(group, seeds)
    return group, K, wg.double_cosets(group, K)


def gelfand_instances():
    """Weighted Gelfand instances with w(e) = 1, spanning the test groups."""
    rng = np.random.default_rng(0xACCE97)
    out = []
    s3, K3, p3 = _subgroup_pair(wg.symmetric_group(3), [1])
    out.append(("s3-uniform", s3, K3, p3, wg.uniform_weight(s3)))
    w = wg.weight_from_spec(
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, s3, p3
    )
    out.append(("s3-weighted", s3, K3, p3, w))
    gens4 = wg.symmetric_group_generators(4)
    s4 = wg.build_group_from_generators(gens4)
    K4 = wg.point_stabilizer(s4, gens4, 3)
    p4 = wg.double_cosets(s4, K4)
    out.append(("s4-uniform", s4, K4, p4, wg.uniform_weight(s4)))
    out.append(("s4-weighted", s4, K4, p4,
                random_bi_invariant_weight(p4, rng, unit_at_identity=True)))
    c4, Kt, pt = _subgroup_pair(wg.cyclic_group(4), [])
    out.append(("c4-uniform", c4, Kt, pt, wg.uniform_weight(c4)))
    c5, K5, p5 = _subgroup_pair(wg.cyclic_group(5), [])
    out.append(("c5-symmetric", c5, K5, p5, random_symmetric_weight(c5, rng)))
    return out


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def s3():
    return wg.symmetric_group(3)


@pytest.fixture(scope="session")
def s3_pair(s3):
    K = wg.subgroup_closure(s3, [1])  # generated by the transposition (0 1)
    return s3, K, wg.double_cosets(s3, K)


@pytest.fixture(scope="session")
def s3_weighted(s3_pair):
    group, K, part = s3_pair
    w = wg.weight_from_spec(
        {"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, group, part
    )
    return group, K, part, w


@pytest.fixture(scope="session")
def s4_pair():
    gens = wg.symmetric_group_generators(4)
    group = wg.build_group_from_generators(gens)
    K = wg.point_stabilizer(group, gens, 3)
    return group, K, wg.double_cosets(group, K)


@pytest.fixture(scope="session")
def c4_pair():
    group = wg.cyclic_group(4)
    K = wg.subgroup_closure(group, [])
    return group, K, wg.double_cosets(group, K)
