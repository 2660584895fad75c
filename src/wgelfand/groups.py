"""Finite groups as index tables: closure, subgroups, double cosets, automorphisms.

Elements are integers 0..n-1; the identity is always index 0 for groups built
by generator closure. Permutations are integer rows p with p[i] the image of
i, and the group product a*b acts as "apply b, then a": (a*b)[i] = a[b[i]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InputSpecError,
    NotAutomorphismError,
    NotInvolutiveError,
    SizeLimitError,
)

DEFAULT_ELEMENT_CAP = 10080

# above this order associativity is spot-checked on random triples
EXHAUSTIVE_ORDER = 256
ASSOC_SAMPLES = 20000


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table.

    mul[x, y] is the index of the product x*y, inv[x] the index of x^-1.
    Immutable after construction; safe to share between threads.
    """

    mul: np.ndarray
    inv: np.ndarray
    identity: int = 0

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def multiply(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))


@dataclass(frozen=True)
class SubgroupEmbedding:
    """A subgroup as a sorted tuple of element indices into the parent group."""

    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in set(self.elements)


@dataclass(frozen=True)
class DoubleCosetPartition:
    """The partition of G into double cosets KxK."""

    cosets: tuple[tuple[int, ...], ...]
    coset_of: np.ndarray
    inverse_coset: tuple[int, ...]
    identity_coset: int

    @property
    def num_cosets(self) -> int:
        return len(self.cosets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cosets)

    def representative(self, i: int) -> int:
        return self.cosets[i][0]


@dataclass(frozen=True)
class GroupAutomorphism:
    """A verified automorphism of a GroupTable, stored as a permutation."""

    perm: np.ndarray
    involutive: bool

    def __call__(self, x: int) -> int:
        return int(self.perm[x])


def _integers(value, what: str, ndim: int) -> np.ndarray:
    """A JSON value (a number or nested lists of numbers) as an int64 array
    of `ndim` dimensions; an empty list passes for any ndim. Strings,
    booleans, ragged lists and non-integral or inexact numbers raise
    InputSpecError instead of being cast or truncated."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):
        raise InputSpecError(f"{what} must be a rectangular array of integers") from None
    exact = arr.dtype.kind == "i" or (
        arr.dtype.kind == "f" and np.all((np.abs(arr) <= 2**53) & (arr == np.trunc(arr)))
    )
    if (arr.size or ndim == 0) and not (exact and arr.ndim == ndim):
        shape = "an integer" if ndim == 0 else f"a {ndim}-dimensional array of integers"
        raise InputSpecError(f"{what} must be {shape}")
    return arr.astype(np.int64)


def _closure(
    generators: Sequence[Sequence[int]], element_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first closure of permutation generators.

    Returns (perms, R, born). perms[x] is element x as a permutation: the
    identity is 0 and elements follow in discovery order (frontier element,
    then generator index). R[x, j] is the index of perms[x] * generator j, and
    element y >= 1 was first found as R.flat[born[y - 1]]. Each frontier is
    composed with all generators in one gather; new rows are recognised by
    their bytes.
    """
    gens = _integers(generators, "generators", ndim=2)
    if gens.ndim != 2:  # no generators: the trivial group on one point
        gens = gens.reshape(0, 1)
    m, degree = gens.shape
    bad = np.flatnonzero(np.any(np.sort(gens, axis=1) != np.arange(degree), axis=1))
    if len(bad):
        raise InputSpecError(f"not a permutation of 0..{degree - 1}: {gens[bad[0]].tolist()}")

    frontier = np.arange(degree)[None, :]
    index = {frontier[0].tobytes(): 0}
    levels, rows, born = [frontier], [], []
    start = 0  # index of frontier[0]
    while len(frontier):
        cand = frontier[:, gens].reshape(len(frontier) * m, degree)  # (x*g)[i] = x[g[i]]
        hits = np.array(
            [index.setdefault(row.tobytes(), len(index)) for row in cand], dtype=np.int64
        )
        if len(index) > element_cap:
            raise SizeLimitError(f"closure exceeds element cap {element_cap}")
        rows.append(hits.reshape(len(frontier), m))
        values, first = np.unique(hits, return_index=True)
        first = first[values >= start + len(frontier)]
        born.append(start * m + first)
        start += len(frontier)
        frontier = cand[first]
        levels.append(frontier)
    return np.concatenate(levels), np.concatenate(rows), np.concatenate(born)


def validate_group(group: GroupTable, rng: Optional[np.random.Generator] = None) -> None:
    """Check the group axioms on a table; raises InputSpecError on failure.

    Associativity is exhaustive up to order 256, sampled above that.
    """
    n = group.order
    mul, inv, e = group.mul, group.inv, group.identity
    if mul.shape != (n, n) or inv.shape != (n,):
        raise InputSpecError("table shapes inconsistent with group order")
    if mul.min() < 0 or mul.max() >= n or inv.min() < 0 or inv.max() >= n:
        raise InputSpecError("table entries out of range")
    if not (np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n))):
        raise InputSpecError("identity law fails")
    if not np.array_equal(mul[np.arange(n), inv], np.full(n, e)):
        raise InputSpecError("inverse law fails")
    if n <= EXHAUSTIVE_ORDER:
        for x in range(n):
            # (x*y)*z vs x*(y*z) for all y, z at once
            if not np.array_equal(mul[mul[x]], mul[x][mul]):
                raise InputSpecError(f"associativity fails at x={x}")
    else:
        rng = rng or np.random.default_rng(0)
        xs, ys, zs = rng.integers(0, n, size=(3, ASSOC_SAMPLES))
        if not np.array_equal(mul[mul[xs, ys], zs], mul[xs, mul[ys, zs]]):
            raise InputSpecError("associativity fails on sampled triples")


def build_group_from_generators(
    generators: Sequence[Sequence[int]],
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> GroupTable:
    """Close a set of permutations under composition into a GroupTable.

    Element order is breadth-first discovery from the identity, with
    generator index as tiebreak, so tables are reproducible. Identity is 0.
    The table is filled column by column: if y = p * g was found from its
    parent p, then x * y = (x * p) * g.
    """
    perms, R, born = _closure(generators, element_cap)
    n = len(perms)
    parent, gen = np.divmod(born, R.shape[1])
    mul = np.empty((n, n), dtype=np.int64)
    mul[:, 0] = np.arange(n)
    for y in range(1, n):
        mul[:, y] = R[mul[:, parent[y - 1]], gen[y - 1]]
    inv = mul.argmin(axis=1)  # x * x^-1 is the identity, the smallest index
    return GroupTable(mul=mul, inv=inv, identity=0)


def _check_known_order(factors: Iterable[int]) -> None:
    """Raise SizeLimitError as soon as the partial products of `factors` (a
    group's known order) pass the element cap, before any permutation is
    built."""
    order = 1
    for f in factors:
        order *= f
        if order > DEFAULT_ELEMENT_CAP:
            raise SizeLimitError(f"group order exceeds element cap {DEFAULT_ELEMENT_CAP}")


def cyclic_group(n: int) -> GroupTable:
    """Cyclic group of order n; element index equals the exponent."""
    if n < 1:
        raise InputSpecError("cyclic group order must be >= 1")
    _check_known_order([n])
    if n == 1:
        return build_group_from_generators([])
    cycle = tuple((i + 1) % n for i in range(n))
    return build_group_from_generators([cycle])


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group with n rotations (order 2n)."""
    if n < 1:
        raise InputSpecError("dihedral parameter must be >= 1")
    _check_known_order([2, n])
    if n == 1:
        return build_group_from_generators([(1, 0)])
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    return build_group_from_generators([rot, refl])


def symmetric_group_generators(n: int) -> list[tuple[int, ...]]:
    """The generators used by symmetric_group: (0 1) and the n-cycle."""
    if n < 1:
        raise InputSpecError("symmetric group degree must be >= 1")
    if n == 1:
        return []
    if n == 2:
        return [(1, 0)]
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return [transposition, cycle]


def symmetric_group(n: int) -> GroupTable:
    """Symmetric group on n points (order n!)."""
    _check_known_order(range(2, n + 1))
    return build_group_from_generators(symmetric_group_generators(n))


def group_from_table(table: Sequence[Sequence[int]]) -> GroupTable:
    """Build and validate a GroupTable from an explicit multiplication table."""
    mul = _integers(table, "table", ndim=2)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise InputSpecError("multiplication table must be square")
    n = mul.shape[0]
    # find the identity, then read inverses off its row
    identity = None
    for e in range(n):
        if np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise InputSpecError("table has no two-sided identity")
    inv = np.empty(n, dtype=np.int64)
    for x in range(n):
        hits = np.flatnonzero(mul[x] == identity)
        if len(hits) != 1 or mul[hits[0], x] != identity:
            raise InputSpecError(f"element {x} has no two-sided inverse")
        inv[x] = hits[0]
    group = GroupTable(mul=mul, inv=inv, identity=identity)
    validate_group(group)
    return group


def subgroup_closure(group: GroupTable, seeds: Sequence[int]) -> SubgroupEmbedding:
    """Smallest subgroup of `group` containing the seed elements."""
    n = group.order
    seeds = _integers(seeds, "seeds", ndim=1)
    out = seeds[(seeds < 0) | (seeds >= n)]
    if len(out):
        raise InputSpecError(f"seed index {out[0]} out of range for order {n}")
    gens = np.union1d(seeds, group.inv[seeds])
    members = np.zeros(n, dtype=bool)
    members[group.identity] = True
    members[gens] = True
    frontier = np.flatnonzero(members)
    while len(frontier):
        step = group.mul[np.ix_(frontier, gens)].ravel()
        frontier = np.unique(step[~members[step]])
        members[frontier] = True
    return SubgroupEmbedding(elements=tuple(np.flatnonzero(members).tolist()))


def point_stabilizer(group: GroupTable, generators: Sequence[Sequence[int]], point: int) -> SubgroupEmbedding:
    """Stabilizer of a point for a group built from permutation generators.

    Only valid when `group` was produced by build_group_from_generators with
    the same generator list (element order must match); used by tests to form
    S_{n-1}-type subgroups. Re-derives the element permutations by the same
    closure and keeps those that fix `point`.
    """
    try:
        perms = _closure(generators, element_cap=group.order)[0]
    except SizeLimitError:
        perms = None
    if perms is None or len(perms) != group.order:
        raise InputSpecError("generators do not regenerate this group")
    return SubgroupEmbedding(elements=tuple(np.flatnonzero(perms[:, point] == point).tolist()))


def double_cosets(group: GroupTable, K: SubgroupEmbedding) -> DoubleCosetPartition:
    """Partition G into double cosets KxK, ordered by smallest member."""
    n = group.order
    mul = group.mul
    kidx = np.array(K.elements, dtype=np.int64)
    coset_of = np.full(n, -1, dtype=np.int64)
    cosets: list[tuple[int, ...]] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        orbit = np.unique(mul[np.ix_(mul[kidx, x], kidx)])
        cid = len(cosets)
        cosets.append(tuple(int(v) for v in orbit))
        coset_of[orbit] = cid
    inverse_coset = tuple(int(coset_of[group.inverse(c[0])]) for c in cosets)
    identity_coset = int(coset_of[group.identity])
    return DoubleCosetPartition(
        cosets=tuple(cosets),
        coset_of=coset_of,
        inverse_coset=inverse_coset,
        identity_coset=identity_coset,
    )


def check_automorphism(
    group: GroupTable,
    perm: Sequence[int],
    require_involutive: bool = False,
) -> GroupAutomorphism:
    """Verify that perm is a group automorphism; raises with a witness pair."""
    n = group.order
    p = _integers(perm, "automorphism", ndim=1)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise InputSpecError(f"not a permutation of 0..{n - 1}")
    lhs = p[group.mul]
    rhs = group.mul[np.ix_(p, p)]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        x, y = (int(v) for v in bad[0])
        raise NotAutomorphismError(x, y)
    involutive = bool(np.array_equal(p[p], np.arange(n)))
    if require_involutive and not involutive:
        raise NotInvolutiveError("automorphism is not involutive")
    return GroupAutomorphism(perm=p, involutive=involutive)


def inversion_automorphism(group: GroupTable) -> GroupAutomorphism:
    """x -> x^-1 as an automorphism; only valid on abelian groups."""
    return check_automorphism(group, group.inv, require_involutive=True)


def theta_in_KxinvK(
    group: GroupTable,
    partition: DoubleCosetPartition,
    theta: GroupAutomorphism,
) -> tuple[bool, Optional[int]]:
    """Does theta(x) land in K x^-1 K for every x? Returns (ok, witness)."""
    inverse_coset = np.asarray(partition.inverse_coset)
    bad = np.flatnonzero(inverse_coset[partition.coset_of] != partition.coset_of[theta.perm])
    return (False, int(bad[0])) if len(bad) else (True, None)


def group_from_spec(spec: dict, element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupTable:
    """Build a group from a JSON-style spec dict.

    Kinds: "generators" (one-line permutations), "cyclic"/"dihedral"/
    "symmetric" (parameter n), "table" (explicit multiplication table).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('group spec must be an object with a "kind" field')
    kind = spec["kind"]
    if kind == "generators":
        if "generators" not in spec:
            raise InputSpecError('kind "generators" requires a "generators" field')
        return build_group_from_generators(spec["generators"], element_cap=element_cap)
    if kind in ("cyclic", "dihedral", "symmetric"):
        if "n" not in spec:
            raise InputSpecError(f'kind "{kind}" requires an "n" field')
        n = int(_integers(spec["n"], '"n"', ndim=0))
        builder = {
            "cyclic": cyclic_group,
            "dihedral": dihedral_group,
            "symmetric": symmetric_group,
        }[kind]
        return builder(n)
    if kind == "table":
        if "table" not in spec:
            raise InputSpecError('kind "table" requires a "table" field')
        return group_from_table(spec["table"])
    raise InputSpecError(f"unknown group kind: {kind!r}")


def subgroup_from_spec(group: GroupTable, spec: dict) -> SubgroupEmbedding:
    """Build a subgroup from {"seeds": [...]} or {"elements": [...]}."""
    if not isinstance(spec, dict):
        raise InputSpecError("subgroup spec must be an object")
    if "seeds" in spec:
        return subgroup_closure(group, spec["seeds"])
    if "elements" in spec:
        elems = np.unique(_integers(spec["elements"], "elements", ndim=1))
        if len(elems) and not (0 <= elems[0] and elems[-1] < group.order):
            raise InputSpecError(f"element index out of range for order {group.order}")
        sub = SubgroupEmbedding(elements=tuple(elems.tolist()))
        _check_subgroup(group, sub)
        return sub
    raise InputSpecError('subgroup spec needs "seeds" or "elements"')


def _check_subgroup(group: GroupTable, sub: SubgroupEmbedding) -> None:
    """A finite set containing the identity and closed under products is a
    subgroup (inverses are powers); the witness is the first pair (x, y) in
    row-major order whose product leaves the set."""
    k = np.asarray(sub.elements, dtype=np.int64)
    if group.identity not in sub.elements:
        raise InputSpecError("subgroup must contain the identity")
    bad = np.argwhere(~np.isin(group.mul[np.ix_(k, k)], k))
    if len(bad):
        x, y = k[bad[0]].tolist()
        raise InputSpecError(f"subgroup not closed under product at ({x}, {y})")


def automorphism_from_spec(group: GroupTable, spec: dict) -> GroupAutomorphism:
    """Build an automorphism from {"kind": "perm"|"inversion"|"identity"}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('automorphism spec must be an object with a "kind" field')
    kind = spec["kind"]
    if kind == "perm":
        if "perm" not in spec:
            raise InputSpecError('kind "perm" requires a "perm" field')
        return check_automorphism(group, spec["perm"], require_involutive=True)
    if kind == "inversion":
        return inversion_automorphism(group)
    if kind == "identity":
        return check_automorphism(group, np.arange(group.order), require_involutive=True)
    raise InputSpecError(f"unknown automorphism kind: {kind!r}")
