"""Finite groups on indexed elements: closure, subgroups, double cosets, automorphisms.

Elements are integers 0..n-1; the identity is always index 0 for groups built
by generator closure. Every group is kept as permutations: integer rows p
with p[i] the image of i, and the group product a*b acts as "apply b, then
a": (a*b)[i] = a[b[i]]. A group given by a table is its left-regular
representation (Cayley's theorem): row x of the table is the permutation
y -> x*y. No |G|^2 table is formed: a product is found from the images of a
base (Seress, Permutation Group Algorithms, 2003, ch. 4).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InputSpecError,
    NotAutomorphismError,
    NotInvolutiveError,
    SizeLimitError,
)

DEFAULT_ELEMENT_CAP = 10080
# products (x*y)*z compared at once by validate_group
ASSOC_BLOCK = 1 << 20
# products looked up at once by GroupTable.product
PRODUCT_BLOCK = 1 << 16


@dataclass(frozen=True)
class GroupTable:
    """A finite group on the indices 0..n-1, kept as permutations.

    perms[x] is element x as a permutation, in the narrowest unsigned dtype:
    of the points it was built on, or, for a group given by a table, of the
    elements themselves (row x of the table). inv[x] is the index of x^-1
    and `generators` the indices of a generating set; product(x, y) is the
    index of x*y. Immutable after construction: the builders mark the
    three arrays read-only, and the base tree is read-only too. Safe to
    share between threads and calls.
    """

    perms: np.ndarray
    inv: np.ndarray
    generators: np.ndarray
    identity: int = 0

    @property
    def order(self) -> int:
        return len(self.inv)

    @cached_property
    def _tree(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(base, steps): points whose images determine an element of a
        permutation group, and the tree that finds the element from them.

        Elements with equal images on the base points so far form a class,
        numbered from 0. A point joins the base only if its images split a
        class. Each class is a coset of the pointwise stabiliser of those
        points, so every new point at least halves the stabiliser and the
        base has at most log2 |G| points. steps[j] is a flat table of
        (classes before b_j) x degree entries: entry c * degree + i holds
        c' * degree for the class c' of the elements of class c with image i
        at b_j, and in the last step the element itself; entries that no
        element reaches hold 0. Entries are below |G| * degree, and the
        class counts at least double from step to step, so there are fewer
        than |G| * degree of them. The new classes are numbered in key order
        without a sort: by the running count of the keys present.
        """
        n, degree = self.perms.shape
        dtype = np.min_scalar_type(n * degree)
        labels, classes, base, steps = np.zeros(n, dtype=np.intp), 1, [], []
        for point in range(degree):
            if classes == n:
                break
            key = labels * degree + self.perms[:, point]
            present = np.zeros(classes * degree, dtype=bool)
            present[key] = True
            number = np.cumsum(present) - 1
            if number[-1] >= classes:
                step = np.zeros(classes * degree, dtype=dtype)
                labels, classes, last = number[key], int(number[-1]) + 1, key
                step[key] = labels * degree
                base.append(point)
                steps.append(step)
        if steps:  # the last classes are single elements
            steps[-1][last] = np.arange(n)
        base = np.array(base, dtype=np.intp)
        for array in (base, *steps):  # shared, as the group is
            array.flags.writeable = False
        return base, steps

    @property
    def base(self) -> np.ndarray:
        return self._tree[0]

    def _lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the elements with the base images `images` (..., |B|):
        one gather per base point down the tree."""
        found = np.zeros(images.shape[:-1], dtype=np.intp)
        for j, step in enumerate(self._tree[1]):
            found = step.take(found + images[..., j])
        return found.astype(np.intp, copy=False)

    def _images(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Base images (x*y)[b] = x[y[b]], shape broadcast(x, y) + (|B|,),
        gathered from the flat permutations (x[i] is flat[x * degree + i])."""
        flat, degree = self.perms.reshape(-1), self.perms.shape[1]
        yb = flat.take(y[..., None] * degree + self.base)
        return flat.take(x[..., None] * degree + yb)

    def product(self, x, y) -> np.ndarray:
        """Index of x*y, broadcast over index arrays x and y.

        The base images of x*y are looked up in the base's tree (_tree),
        PRODUCT_BLOCK products at a time along the first axis, so the
        temporaries stay small beside the int64 result.
        """
        x, y = np.asarray(x), np.asarray(y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if math.prod(shape) <= PRODUCT_BLOCK:
            return self._lookup(self._images(x, y))
        x, y = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (x, y))
        out = np.empty(shape, dtype=np.int64)
        step = max(1, PRODUCT_BLOCK * shape[0] // max(1, out.size))
        for s in range(0, shape[0], step):
            xs, ys = (a if len(a) == 1 else a[s : s + step] for a in (x, y))
            out[s : s + step] = self._lookup(self._images(xs, ys))
        return out


@dataclass(frozen=True)
class DoubleCosetPartition:
    """The partition of G into double cosets KxK, numbered by least member.

    coset_of[x] is the coset of x; reps[i] is the least member of coset i,
    sizes[i] its size, and inverse_coset[i] the coset of its inverses.
    """

    coset_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    inverse_coset: np.ndarray
    identity_coset: int

    @property
    def num_cosets(self) -> int:
        return len(self.reps)


# the Python types of a number in a spec; bool, a subclass of int, is not one
_NUMBERS = (int, float, np.integer, np.floating)


def json_array(value, depth: int, dtype) -> Optional[np.ndarray]:
    """The one reader of spec numbers: `value` as a `depth`-dimensional
    array of exact integers (dtype np.int64; signed or unsigned integers
    below 2**63 and integral floats up to 2**53 pass) or of finite floats
    (dtype float), else None for the caller to word by its own rule. One
    `np.array` call converts; ragged lists, strings, None and integers
    beyond 64 bits fail or leave the number kinds. A boolean becomes 0 or 1
    among numbers, so only the cells equal to 0 or 1 are looked up in
    `value` for one. An ndarray is taken as is."""
    array = value
    if not isinstance(value, np.ndarray):
        try:
            array = np.array(value)
        except (ValueError, OverflowError):  # ragged, or nested past numpy's dimensions
            return None
    if array.ndim != depth or array.dtype.kind not in "iuf":
        return None
    if array is not value:
        cells = np.argwhere((array == 0) | (array == 1))
        entries = [value] * len(cells)
        for axis in cells.T.tolist():  # one level of every cell at a time
            entries = list(map(operator.getitem, entries, axis))
        if bool in map(type, entries):
            return None
    if dtype is float:
        array = array.astype(float, copy=False)
        return array if np.all(np.isfinite(array)) else None
    if array.dtype.kind == "f":
        exact = np.all((np.abs(array) <= 2**53) & (array == np.trunc(array)))
    else:  # an unsigned value from 2**63 on would wrap negative in int64
        exact = array.dtype.kind == "i" or np.all(array < 2**63)
    return array.astype(np.int64) if exact else None


def json_floats(value, what: str) -> np.ndarray:
    """A list of numbers as floats, by `json_array`; only where that fails,
    the per-entry rule names the first entry that is not a number or is an
    integer beyond the float range. Values that are not finite are
    returned, for the caller to word."""
    floats = json_array(value, 1, float)
    if floats is None:
        for v in value:
            if isinstance(v, bool) or not isinstance(v, _NUMBERS):
                raise InputSpecError(f"{what} must be numbers, got {v!r}")
            try:
                float(v)
            except OverflowError:
                raise InputSpecError(f"{what} must be finite numbers, got {v!r}") from None
        floats = np.array(value, dtype=float)
    return floats


def _integers(value, what: str, ndim: int) -> np.ndarray:
    """`json_array` of exact integers in `ndim` dimensions; an empty list
    passes for any ndim. Anything else (strings, booleans, ragged lists,
    non-integral or inexact numbers) raises InputSpecError."""
    arr = json_array(value, ndim, np.int64)
    if arr is not None:
        return arr
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):
        raise InputSpecError(f"{what} must be a rectangular array of integers") from None
    if arr.size == 0 and ndim:
        return arr.astype(np.int64)
    shape = "an integer" if ndim == 0 else f"a {ndim}-dimensional array of integers"
    raise InputSpecError(f"{what} must be {shape}")


def _closure(generators: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first closure of permutation generators.

    Returns (perms, gens). perms[x] is element x as a permutation in the
    narrowest unsigned dtype: the identity is 0 and elements follow in
    discovery order (frontier element, then generator index). gens holds
    the sorted distinct indices of the generators: those among the first
    m + 1 elements, as e*g = g. Each frontier is composed with all
    generators in one gather. Rows are keyed by their bytes; a level is one
    dict.fromkeys over the candidates' keys (first occurrences, in order)
    less the keys already in the index. One generator is listed as its
    powers g^0, g^1, ..., which are its breadth-first order, doubling the
    list each round.
    """
    gens = _integers(generators, "generators", ndim=2)
    if gens.ndim != 2:  # no generators: the trivial group on one point
        gens = gens.reshape(0, 1)
    m, degree = gens.shape
    bad = np.flatnonzero(np.any(np.sort(gens, axis=1) != np.arange(degree), axis=1))
    if len(bad):
        raise InputSpecError(f"not a permutation of 0..{degree - 1}: {gens[bad[0]].tolist()}")
    gens = gens.astype(np.min_scalar_type(degree - 1))

    frontier = np.arange(degree, dtype=gens.dtype)[None, :]
    if m == 1 or not degree:  # g^(L+j) = g^j g^L lists L more powers at once,
        perms = frontier  # up to e or the cap; on no points every generator is e
        while True:
            block = perms[: DEFAULT_ELEMENT_CAP + 1 - len(perms)][:, perms[-1][gens[0]]]
            found = np.flatnonzero((block == frontier).all(axis=1))
            perms = np.concatenate([perms, block[: found[0]] if len(found) else block])
            if len(found):
                return perms, np.array([int(len(perms) > 1)], dtype=np.int64)
            if len(perms) > DEFAULT_ELEMENT_CAP:
                raise SizeLimitError(f"closure exceeds element cap {DEFAULT_ELEMENT_CAP}")
    void = np.dtype((np.void, degree * gens.itemsize))  # a row as one key: its bytes
    index = dict.fromkeys(frontier.view(void).ravel().tolist())
    levels = [frontier]
    while len(frontier):
        cand = frontier[:, gens].reshape(len(frontier) * m, degree)  # (x*g)[i] = x[g[i]]
        level = dict.fromkeys(cand.view(void).ravel().tolist())
        fresh = list(itertools.filterfalse(index.__contains__, level))
        index.update(dict.fromkeys(fresh))
        if len(index) > DEFAULT_ELEMENT_CAP:
            raise SizeLimitError(f"closure exceeds element cap {DEFAULT_ELEMENT_CAP}")
        frontier = np.frombuffer(b"".join(fresh), dtype=gens.dtype).reshape(len(fresh), degree)
        levels.append(frontier)
    gen_keys = set(gens.view(void).ravel().tolist())
    first = itertools.islice(index, m + 1)
    return np.concatenate(levels), np.flatnonzero([key in gen_keys for key in first])


def validate_group(mul: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Check the group axioms on a square table of integers; raises
    InputSpecError on failure and returns (identity, inv, generators), where
    `generators` is the generating set that Light's test grew.

    The identity is the first element whose row and column are 0..n-1, and
    x^-1 is the one column where row x holds the identity. Associativity is
    Light's test, exhaustive at every order: the set of z with
    (x y) z = x (y z) for all x, y contains e and is closed under products,
    so it is enough to check z on a generating set, grown by
    _greedy_generators to at most log2(n) elements for a group, and the
    test costs O(n^2 log n). Products are read from the table:
    the base images of its rows give x*y only once it is associative. Rows
    of x are compared in blocks of about ASSOC_BLOCK products, so the extra
    memory stays bounded.
    """
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise InputSpecError("multiplication table must be square")
    n = mul.shape[0]
    identity = None
    for e in range(n):
        if np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise InputSpecError("table has no two-sided identity")
    hits = mul == identity
    inv = hits.argmax(axis=1)
    bad = np.flatnonzero((hits.sum(axis=1) != 1) | (mul[inv, np.arange(n)] != identity))
    if len(bad):
        raise InputSpecError(f"element {bad[0]} has no two-sided inverse")
    if mul.min() < 0 or mul.max() >= n:
        raise InputSpecError("table entries out of range")
    gens: list[int] = []
    for z in _greedy_generators(lambda x, y: mul[x, y], np.ones(n, dtype=bool), identity, inv):
        yz = mul[:, z]
        # (x*y)*z vs x*(y*z) for all y and a block of x at a time
        for rows in np.array_split(mul, -(-n * n // ASSOC_BLOCK)):
            if not np.array_equal(mul[rows, z], rows[:, yz]):
                raise InputSpecError(f"associativity fails at z={z}")
        gens.append(z)
    return identity, inv, np.array(gens, dtype=np.int64)


def _label_round(label: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """One round of min-label propagation: the least label among x and its
    neighbours, then one pointer jump (label <- label[label])."""
    new = np.minimum(label, label[neighbours].min(axis=0))
    return new[new]


def _settle(label: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """_label_round until the labels no longer change."""
    while not np.array_equal(new := _label_round(label, neighbours), label):
        label = new
    return label


def _greedy_generators(
    product: Callable, inside: np.ndarray, identity: int, inv: np.ndarray
) -> Iterator[int]:
    """Yield a generating set of the subgroup on the mask `inside`: each z
    is its least member outside the identity's component, so each at least
    doubles that component and there are at most log2 of its order. Once
    the caller has consumed z, every x gets the neighbours x z and x z^-1,
    and the labels settle again from where they were.

    For a table this is exact once z has passed Light's test: with the
    identity and the two-sided inverses checked, (x z^-1) z = x (z^-1 z) = x,
    so x -> x z is a permutation and x -> x z^-1 its inverse, and the
    identity's component is the set that right products with the
    generators reach."""
    n = len(inside)
    label, moves = np.arange(n), np.empty((0, n), dtype=np.int64)
    while (outside := inside & (label != label[identity])).any():
        z = int(np.argmax(outside))
        yield z
        moves = np.concatenate([moves, product(np.arange(n), np.array([[z], [inv[z]]]))])
        label = _settle(label, moves)


def _read_only(group: GroupTable) -> GroupTable:
    """group, with perms, inv and generators marked read-only, as a built
    group may be shared between calls."""
    for array in (group.perms, group.inv, group.generators):
        array.flags.writeable = False
    return group


def build_group_from_generators(generators: Sequence[Sequence[int]]) -> GroupTable:
    """Close a set of permutations under composition into a GroupTable.

    Element order is breadth-first discovery from the identity, with
    generator index as tiebreak, so the indices are reproducible. Identity
    is 0. Inverses are the inverse permutations, found by their base images.
    """
    perms, gens = _closure(generators)
    n, degree = perms.shape
    # inv is filled in place: finding the inverses needs the group's index
    group = GroupTable(inv=np.empty(n, dtype=np.int64), generators=gens, perms=perms)
    inverse_perms = np.empty_like(perms)
    inverse_perms[np.arange(n)[:, None], perms] = np.arange(degree, dtype=perms.dtype)
    group.inv[:] = group._lookup(inverse_perms[:, group.base])
    return _read_only(group)


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
    """Cyclic group of order n; element index equals the exponent.

    The generator is a product of disjoint cycles, one of each length p^a
    that exactly divides n (found by trial division), on sum p^a points
    instead of n: its order is the lcm of the lengths, which is n as they
    are coprime.
    """
    if n < 1:
        raise InputSpecError("cyclic group order must be >= 1")
    _check_known_order([n])
    generator, rest, p = [], n, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        if q > 1:
            generator += [len(generator) + (i + 1) % q for i in range(q)]
        p += 1
    return build_group_from_generators([generator] if generator else [])


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group with n rotations (order 2n).

    For n >= 3 it acts on the n vertices. On 2 points the reflection would be
    the identity, so D2, the Klein four-group, acts on 4 points as a rotation
    and a reflection that commute.
    """
    if n < 1:
        raise InputSpecError("dihedral parameter must be >= 1")
    _check_known_order([2, n])
    if n == 1:
        return build_group_from_generators([(1, 0)])
    if n == 2:
        return build_group_from_generators([(1, 0, 3, 2), (2, 3, 0, 1)])
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
    """Validate an explicit multiplication table and keep its rows as the
    permutations y -> x*y: the base images of a product then agree with the
    table (validate_group proves associativity first), and point 0 alone is
    a base, as every column of a group table holds each element once."""
    mul = _integers(table, "table", ndim=2)
    identity, inv, gens = validate_group(mul)
    perms = mul.astype(np.min_scalar_type(len(mul) - 1))
    return _read_only(GroupTable(perms=perms, inv=inv, generators=gens, identity=identity))


def double_cosets(group: GroupTable, generators: Sequence[int]) -> DoubleCosetPartition:
    """Partition G into double cosets KxK of the subgroup K that the
    element indices `generators` span, ordered by smallest member. K is
    never listed: it is the double coset of the identity, KeK = K. The
    indices are read as the seeds of a spec are (`_integers`): anything but
    exact integers, or an index outside 0..|G|-1, the first in the given
    order, raises InputSpecError.

    Every element starts as its own label. The neighbours of x are k x and
    x k for k and k^-1 in the generators, so labels flow both ways along
    every generator edge; each round takes the least label among x and its
    neighbours, then jumps pointers. Labels only fall and stay in their
    double coset, which is a connected component of this undirected graph,
    so they settle on its smallest member. On a path of length L the jump
    doubles how far a label has come, so about log2 L rounds suffice.
    """
    n = group.order
    label = np.arange(n)
    kgens = _integers(generators, "seeds", ndim=1)
    out = kgens[(kgens < 0) | (kgens >= n)]
    if len(out):
        raise InputSpecError(f"seed index {out[0]} out of range for order {n}")
    if len(kgens):
        kgens = np.union1d(kgens, group.inv[kgens])
        neighbours = np.concatenate(
            [group.product(kgens[:, None], label), group.product(label, kgens[:, None])]
        )
        label = _settle(label, neighbours)
    reps, coset_of, sizes = np.unique(label, return_inverse=True, return_counts=True)
    return DoubleCosetPartition(
        coset_of=coset_of,
        reps=reps,
        sizes=sizes,
        inverse_coset=coset_of[group.inv[reps]],
        identity_coset=int(coset_of[group.identity]),
    )


def check_automorphism(group: GroupTable, perm: Sequence[int]) -> np.ndarray:
    """perm as an int64 array once it is verified to be an involutive group
    automorphism; a failed homomorphism check raises with a witness pair,
    and then theta^2 != id raises NotInvolutiveError.

    theta(x z) = theta(x) theta(z) is checked for every x and every z in the
    group's generating set S: the z that satisfy it for all x are closed
    under products, so in a finite group they form a subgroup, which holds S
    and so is G. This costs |G| |S| products instead of |G|^2. The witness
    (x, z) is the first failure in row-major order over (x, generator).
    """
    n = group.order
    p = _integers(perm, "automorphism", ndim=1)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise InputSpecError(f"not a permutation of 0..{n - 1}")
    z = group.generators
    x = np.arange(n)[:, None]
    bad = np.argwhere(p[group.product(x, z)] != group.product(p[x], p[z]))
    if len(bad):
        row, col = (int(v) for v in bad[0])
        raise NotAutomorphismError(row, int(z[col]))
    if not np.array_equal(p[p], np.arange(n)):
        raise NotInvolutiveError("automorphism is not involutive")
    return p


def group_from_spec(spec: dict) -> GroupTable:
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
        return build_group_from_generators(spec["generators"])
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


def subgroup_from_spec(group: GroupTable, spec: dict) -> np.ndarray:
    """The generator indices (int64) of a subgroup from {"seeds": [...]},
    the seeds as given, or from {"elements": [...]}, the greedy generators
    that the check of the set grows. The subgroup is not closed here;
    double_cosets range-checks the seeds."""
    if not isinstance(spec, dict):
        raise InputSpecError("subgroup spec must be an object")
    if "seeds" in spec:
        return _integers(spec["seeds"], "seeds", ndim=1)
    if "elements" in spec:
        elems = np.unique(_integers(spec["elements"], "elements", ndim=1))
        if len(elems) and not (0 <= elems[0] and elems[-1] < group.order):
            raise InputSpecError(f"element index out of range for order {group.order}")
        return _subgroup_generators(group, elems)
    raise InputSpecError('subgroup spec needs "seeds" or "elements"')


def _subgroup_generators(group: GroupTable, k: np.ndarray) -> np.ndarray:
    """Greedy generators S of the sorted element set X = k, or
    InputSpecError if X is not a subgroup. S lies in X, and X lies in <S>, as
    the greedy growth reaches every member; so if e is in X and X S lies in
    X, then X is <S>. The witness of a set that is not closed is the first
    pair (x, y) of X x X in row-major order whose product leaves it, searched
    only then, in rows of x of about ASSOC_BLOCK products, up to the first
    failing block."""
    if group.identity not in k:
        raise InputSpecError("subgroup must contain the identity")
    members = np.zeros(group.order, dtype=bool)
    members[k] = True
    gens = _greedy_generators(group.product, members, group.identity, group.inv)
    gens = np.fromiter(gens, dtype=np.int64)
    if members[group.product(k[:, None], gens)].all():
        return gens
    for rows in np.array_split(k, -(-len(k) ** 2 // ASSOC_BLOCK)):
        bad = np.argwhere(~members[group.product(rows[:, None], k)])
        if len(bad):
            x, y = rows[bad[0, 0]], k[bad[0, 1]]
            raise InputSpecError(f"subgroup not closed under product at ({x}, {y})")


def automorphism_from_spec(group: GroupTable, spec: dict) -> np.ndarray:
    """The verified automorphism, as its permutation, of {"kind":
    "perm"|"inversion"|"identity"}; inversion passes on abelian groups only."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('automorphism spec must be an object with a "kind" field')
    kind = spec["kind"]
    if kind == "perm":
        if "perm" not in spec:
            raise InputSpecError('kind "perm" requires a "perm" field')
        return check_automorphism(group, spec["perm"])
    if kind == "inversion":
        return check_automorphism(group, group.inv)
    if kind == "identity":
        return check_automorphism(group, np.arange(group.order))
    raise InputSpecError(f"unknown automorphism kind: {kind!r}")
