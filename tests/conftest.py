"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's fast paths: group closure
composes permutation tuples one pair at a time, products read the |G|^2
table that `oracles.mul_table` composes from the group's permutations where
the library looks up base images, convolutions are plain double loops over
group elements, and spherical functions are found by solving the
averaged-product equation symbolically with sympy.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import sympy
from hypothesis import strategies as st

import wgelfand as wg
from wgelfand.errors import DegenerateSpectrumError
from wgelfand.tolerance import within

import oracles


# ---------------------------------------------------------------- oracles


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def closure_elements_oracle(generators):
    """The elements of the group generated by permutation tuples, as tuples
    in breadth-first discovery order from the identity (index 0), with
    generator index as tiebreak."""
    gens = [tuple(int(i) for i in g) for g in generators]
    ident = tuple(range(len(gens[0]) if gens else 1))
    elements, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return elements


def inverse_oracle(elements):
    """inv[x]: the index in `elements` of the inverse of the permutation
    tuple elements[x], found by inverting the tuple point by point."""
    def invert(p):
        q = [0] * len(p)
        for i, pi in enumerate(p):
            q[pi] = i
        return tuple(q)

    index = {x: i for i, x in enumerate(elements)}
    return np.array([index[invert(p)] for p in elements], dtype=np.int64)


def closure_oracle(generators):
    """(mul, inv) of the group generated by permutation tuples, on the
    elements of `closure_elements_oracle`: one tuple composition
    (a*b)[i] = a[b[i]] per table entry, and `inverse_oracle`."""
    elements = closure_elements_oracle(generators)
    index = {x: i for i, x in enumerate(elements)}
    mul = np.array(
        [[index[_compose(a, b)] for b in elements] for a in elements], dtype=np.int64
    )
    return mul, inverse_oracle(elements)


def mul_oracle(generators):
    """The |G| x |G| table of the group generated by permutation rows, filled
    column by column: R[x, j] is the index of x * g_j from a breadth-first
    closure, and if y was first found as p * g_j, then x * y = (x * p) * g_j.
    Element order is the library's: discovery order, identity 0."""
    gens = [tuple(int(i) for i in g) for g in generators]
    degree = len(gens[0]) if gens else 1
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    R = []
    for x in elements:  # grows while it is read: breadth first
        row = []
        for g in gens:
            y = tuple(x[i] for i in g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            row.append(index[y])
        R.append(row)
    R = np.array(R, dtype=np.int64).reshape(len(elements), len(gens))
    values, first = np.unique(R, return_index=True)
    born = first[values > 0]  # element y >= 1 was first found at R.flat[born[y - 1]]
    parent, gen = np.divmod(born, len(gens) or 1)
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int64)
    mul[:, 0] = np.arange(n)
    for y in range(1, n):
        mul[:, y] = R[mul[:, parent[y - 1]], gen[y - 1]]
    return mul


def automorphism_oracle(mul, perm):
    """None if theta(x y) = theta(x) theta(y) for every pair, else the first
    failing (x, y) in row-major order: the |G|^2 check on the table."""
    p = np.asarray(perm)
    bad = np.argwhere(p[mul] != mul[np.ix_(p, p)])
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def double_cosets_oracle(mul, K):
    """(cosets, coset_of) by one orbit KxK per unassigned x, in order."""
    n = len(mul)
    kidx = np.array(K.elements, dtype=np.int64)
    coset_of = np.full(n, -1, dtype=np.int64)
    cosets = []
    for x in range(n):
        if coset_of[x] < 0:
            orbit = np.unique(mul[np.ix_(mul[kidx, x], kidx)])
            coset_of[orbit] = len(cosets)
            cosets.append(tuple(orbit.tolist()))
    return tuple(cosets), coset_of


def subgroup_closure_oracle(group, seeds):
    """Sorted elements of the subgroup generated by the seeds, as a set
    grown by right multiplication until it stops changing."""
    mul = oracles.mul_table(group)
    members = {group.identity} | {int(s) for s in seeds}
    while True:
        grown = members | {int(mul[x, y]) for x in members for y in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


@functools.cache
def fuzz_group(family, n, as_table):
    """C_n, D_n or S_n from its generators or as the table that
    `oracles.mul_table` composes from them, with that table."""
    group = {"C": wg.cyclic_group, "D": wg.dihedral_group, "S": wg.symmetric_group}[family](n)
    mul = oracles.mul_table(group)
    return (wg.group_from_table(mul.tolist()) if as_table else group), mul


@st.composite
def fuzz_pairs(draw):
    """(G, its table, seeds of K, a weight seed) for G = C_n or D_n with
    n <= 12, or S3-S5. Half the time the seeds are replaced by all their
    conjugates, so that K is their normal closure."""
    family = draw(st.sampled_from("CDS"))
    n = draw(st.integers(3, 5) if family == "S" else st.integers(1, 12))
    group, mul = fuzz_group(family, n, draw(st.booleans()))
    seeds = draw(st.lists(st.integers(0, len(mul) - 1), max_size=2))
    if draw(st.booleans()):
        inv = np.argmax(mul == 0, axis=1)
        seeds = np.unique(mul[mul[:, seeds], inv[:, None]]).tolist()  # g s g^-1
    return group, mul, seeds, draw(st.integers(0, 2**32 - 1))


def involution(group):
    """Inversion on an abelian group, else conjugation by the first element
    of order 2: an involutive automorphism that moves elements."""
    x = np.arange(group.order)
    if np.array_equal(group.product(x[:, None], x), group.product(x, x[:, None])):
        return group.inv
    t = int(np.flatnonzero((group.inv == x) & (x != group.identity))[0])
    return group.product(group.product(t, x), t)


def check_subgroup_oracle(group, elements):
    """The error _check_subgroup should raise for a sorted element list, or
    None: the identity first, then the first (x, y) in row-major order whose
    product leaves the set."""
    mul, members = oracles.mul_table(group), set(elements)
    if group.identity not in members:
        return "subgroup must contain the identity"
    for x in elements:
        for y in elements:
            if mul[x, y] not in members:
                return f"subgroup not closed under product at ({x}, {y})"
    return None


def classical_convolve_oracle(f, g, group):
    """(f * g)(x) = sum_y f(y) g(y^-1 x), element by element."""
    n, mul = group.order, oracles.mul_table(group)
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            out[x] += f[y] * g[mul[group.inv[y], x]]
    return out


def weighted_convolve_oracle(f, g, group, w):
    """The weighted product by its defining double loop."""
    n, mul = group.order, oracles.mul_table(group)
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            z = mul[group.inv[y], x]
            out[x] += f[y] * g[z] * w[y] * w[z] / w[x]
    return out


def brute_force_spherical(group, K, w, partition=None):
    """All nonzero bi-invariant solutions of the averaged-product equation,
    found symbolically. Weight values must be exactly representable. Intended
    for small coset counts (the symbolic system grows quickly)."""
    if partition is None:
        partition = wg.double_cosets(group, K.generators)
    d = partition.num_cosets
    wvals = [sympy.nsimplify(v, rational=True) for v in w]
    u = sympy.symbols(f"u0:{d}", complex=True)
    reps = partition.reps.tolist()
    mul = oracles.mul_table(group)
    equations = []
    for xi in reps:
        for yj in reps:
            lhs = sympy.Integer(0)
            for k in K.elements:
                z = mul[mul[xi, k], yj]
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
    return vals[partition.coset_of]


def random_symmetric_weight(group, rng, unit_at_identity=True):
    vals = rng.uniform(0.5, 3.0, size=group.order)
    vals = 0.5 * (vals + vals[group.inv])
    if unit_at_identity:
        vals[group.identity] = 1.0
    return vals


def random_gfunction(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dense_p_oracle(group, partition):
    """Dense intersection numbers p[i,j,k] = #{y in D_i : y^-1 r_k in D_j},
    one bincount over the group per representative r_k."""
    d = partition.num_cosets
    row = partition.coset_of * d
    mul = oracles.mul_table(group)
    p = np.empty((d, d, d), dtype=np.int32)
    for k, r in enumerate(partition.reps):
        p[:, :, k] = np.bincount(
            row + partition.coset_of[mul[group.inv, r]], minlength=d * d
        ).reshape(d, d)
    return p


def dense_c_oracle(group, partition, w):
    """Dense weighted structure constants c[i,j,k] = p[i,j,k] w_i w_j / w_k."""
    wd = w[partition.reps]
    return dense_p_oracle(group, partition) * (
        wd[:, None, None] * wd[None, :, None] / wd[None, None, :]
    )


def structure_tensor(sc):
    """The library's c[i,j,k] as a dense array, one sc.left(delta_i) at a time."""
    eye = np.eye(sc.dim)
    return np.stack([sc.left(e).T for e in eye])


def commutativity_oracle(p, partition):
    """None or (i, j, r_k) at the first (i, j, k) in row-major order with
    p[i,j,k] != p[j,i,k], read off the dense p."""
    mismatch = np.argwhere(p != p.transpose(1, 0, 2))
    if not len(mismatch):
        return None
    i, j, k = (int(v) for v in mismatch[0])
    return i, j, int(partition.reps[k])


def is_multiplier_oracle(T, c, tol=1e-9):
    """The defining identity T(delta_i * delta_j) = (T delta_i) * delta_j on
    the dense c, pair by pair in row-major order; returns (verdict, first
    failing pair)."""
    d = len(c)
    scale = max(1.0, float(np.max(np.abs(T))), float(np.max(np.abs(c))))
    for i in range(d):
        for j in range(d):
            lhs = T @ c[i, j]
            rhs = T[:, i] @ c[:, j]
            if np.max(np.abs(lhs - rhs)) > tol * scale:
                return False, (i, j)
    return True, None


def commutation_oracle(T1, T2, c):
    """Max over basis pairs of |T1 delta_i * T2 delta_j - T2 delta_i * T1 delta_j|
    on the dense c."""
    d = len(c)

    def product(u, v):
        return np.einsum("i,j,ijk->k", u, v, c)

    return max(
        float(np.max(np.abs(
            product(T1[:, i], T2[:, j]) - product(T2[:, i], T1[:, j])
        )))
        for i in range(d)
        for j in range(d)
    )


def multiplicativity_table(sc, chi1):
    """|sum_k p[i,j,k] chi(k) - chi(i) chi(j)| as a d x d array over (i, j)
    for every column chi of chi1, stacked: one reduceat over all nonzeros of
    p and one d x d outer product per character."""
    d, k = sc.dim, sc.ijk[2]
    starts = np.flatnonzero(np.diff(sc.keys // d, prepend=-1))
    return np.array([
        np.abs(np.add.reduceat(sc.counts * chi[k], starts) - np.outer(chi, chi).ravel())
        .reshape(d, d)
        for chi in chi1.T
    ])


def multiplicativity_oracle(sc, chi1):
    """The check over every (i, j): the first character whose residual
    exceeds the tolerance at scale max |chi|^2 raises DegenerateSpectrumError."""
    residuals = multiplicativity_table(sc, chi1).max(axis=(1, 2))
    bad = np.flatnonzero(~within(residuals, np.max(np.abs(chi1), axis=0) ** 2))
    if len(bad):
        raise DegenerateSpectrumError(
            f"recovered character fails multiplicativity (residual {residuals[bad[0]]:g})"
        )


def refine_oracle(sc):
    """(characters, functions) as rows in the library's order, from the
    joint eigenlines found by refining the identity basis with the
    Hermitian parts of every N_i, the identity coset's included, one eigh
    per block of width above 1."""
    d = sc.dim
    sizes = sc.sizes.astype(float)
    root = np.sqrt(sizes)
    blocks = [np.eye(d, dtype=complex)]
    _, j, k = sc.ijk
    entries = sc.counts * (root[k] / root[j])
    bounds = np.searchsorted(sc.keys, np.arange(d + 1) * d * d)
    for i in range(d):
        s = slice(bounds[i], bounds[i + 1])
        N = np.zeros((d, d))
        N[k[s], j[s]] = entries[s]
        scale = float(np.max(np.abs(N)))
        for H in (N + N.T, 1j * (N - N.T)):
            out = []
            for Q in blocks:
                if Q.shape[1] == 1:
                    out.append(Q)
                    continue
                vals, U = np.linalg.eigh(Q.conj().T @ H @ Q)
                cuts = np.flatnonzero(~within(np.diff(vals), scale)) + 1
                out.extend(np.split(Q @ U, cuts, axis=1))
            blocks = out
    assert len(blocks) == d
    classical = np.hstack(blocks) / root[:, None]
    classical /= classical[sc.identity_coset]
    chi1 = sizes[:, None] * classical[sc.inverse_coset]
    wd = sc.wd[:, None]
    chars, phis = (wd * chi1).T, (classical / wd).T
    order = character_order_oracle(chars)
    return chars[order], phis[order]


def character_order_oracle(chars):
    """Row order of chars under a stable sort by the Python-rounded key
    ((round(re, 9), round(im, 9)) for each value)."""
    return sorted(
        range(len(chars)),
        key=lambda s: tuple(
            (round(float(z.real), 9), round(float(z.imag), 9)) for z in chars[s]
        ),
    )


def _subgroup_pair(group, seeds):
    K = oracles.subgroup_closure(group, seeds)
    return group, K, wg.double_cosets(group, K.generators)


def gelfand_instances():
    """Weighted Gelfand instances with w(e) = 1, spanning the test groups;
    each weight is the float array of its |G| values."""
    rng = np.random.default_rng(0xACCE97)
    out = []
    s3, K3, p3 = _subgroup_pair(wg.symmetric_group(3), [1])
    out.append(("s3-uniform", s3, K3, p3, np.ones(s3.order)))
    wd = wg.weight_from_spec({"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, p3)
    out.append(("s3-weighted", s3, K3, p3, wd[p3.coset_of]))
    gens4 = wg.symmetric_group_generators(4)
    s4 = wg.build_group_from_generators(gens4)
    K4 = oracles.point_stabilizer(s4, 3)
    p4 = wg.double_cosets(s4, K4.generators)
    out.append(("s4-uniform", s4, K4, p4, np.ones(s4.order)))
    out.append(("s4-weighted", s4, K4, p4,
                random_bi_invariant_weight(p4, rng, unit_at_identity=True)))
    c4, Kt, pt = _subgroup_pair(wg.cyclic_group(4), [])
    out.append(("c4-uniform", c4, Kt, pt, np.ones(c4.order)))
    c5, K5, p5 = _subgroup_pair(wg.cyclic_group(5), [])
    out.append(("c5-symmetric", c5, K5, p5, random_symmetric_weight(c5, rng)))
    return out


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def s3():
    return wg.symmetric_group(3)


@pytest.fixture(scope="session")
def s3_pair(s3):
    K = oracles.subgroup_closure(s3, [1])  # generated by the transposition (0 1)
    return s3, K, wg.double_cosets(s3, K.generators)


@pytest.fixture(scope="session")
def s3_weighted(s3_pair):
    group, K, part = s3_pair
    wd = wg.weight_from_spec({"kind": "by_double_coset", "values": {"0": 1.0, "1": 2.0}}, part)
    return group, K, part, wd[part.coset_of]


@pytest.fixture(scope="session")
def s4_pair():
    gens = wg.symmetric_group_generators(4)
    group = wg.build_group_from_generators(gens)
    K = oracles.point_stabilizer(group, 3)
    return group, K, wg.double_cosets(group, K.generators)


@pytest.fixture(scope="session")
def c4_pair():
    group = wg.cyclic_group(4)
    K = oracles.subgroup_closure(group, [])
    return group, K, wg.double_cosets(group, K.generators)


# C300 with one wrong entry: row 3 repeats 11, every element keeps a two-sided
# inverse, and (3 * 6) * 1 = 10 differs from 3 * (6 * 1) = 11
C300_ONE_WRONG = [[(a + b) % 300 for b in range(300)] for a in range(300)]
C300_ONE_WRONG[3][7] = 11

# a Latin square with identity 0 and every element its own inverse: a loop of
# order 5, not a group, as no group of order 5 has exponent 2
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
