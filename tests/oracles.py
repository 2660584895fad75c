"""G-level reference code: the paper's objects defined on all of G.

The library computes in coset coordinates from the integer intersection
numbers. The functions here are the definitions on G that those results are
checked against: the weighted convolution, the two-sided K-average, the
weighted translation, the spherical functional equation, the transform
as a sum over G, the condition number of its table from an SVD and a
multiplier symbol checked on the whole basis.
Functions on G are plain complex numpy arrays of length |G|, bi-invariant
ones also plain vectors of their d coset values with their partition, and
a weight is a plain float array of its |G| values. Integrals over
G are sums with counting measure; integrals over K are normalized averages
(1/|K|) * sum, so the subgroup carries total mass 1. Most of them form a
|G|^2 array or sum over G x G, so they suit small groups. The last section
keeps the per-entry rules that once read the numbers of a spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wgelfand import (
    BiInvarianceError,
    DoubleCosetPartition,
    GroupTable,
    InputSpecError,
    PreconditionError,
    SphericalSet,
    StructureConstants,
    bi_invariance_witness,
)
from wgelfand.groups import _greedy_generators, _integers
from wgelfand.tolerance import RTOL, within
from wgelfand.weighted import checked_weights


# ---------------------------------------------------------------- groups


def is_abelian(group: GroupTable) -> bool:
    """Whether the generators commute pairwise."""
    g = group.generators
    return bool(np.array_equal(group.product(g[:, None], g), group.product(g, g[:, None])))


def mul_table(group: GroupTable) -> np.ndarray:
    """The |G| x |G| table of x*y: every pair of permutations composed,
    (x*y)[i] = x[y[i]], and the composite found among the group's rows by
    a sorted search on their bytes, not by the library's base-image lookup."""
    perms = np.ascontiguousarray(group.perms)
    row = np.dtype((np.void, perms.shape[1] * perms.itemsize))
    keys = perms.view(row).ravel()
    order = np.argsort(keys)
    out = np.empty((len(perms),) * 2, dtype=np.int64)
    for x, p in enumerate(perms):
        composed = np.ascontiguousarray(p[perms]).view(row).ravel()
        out[x] = order[np.searchsorted(keys, composed, sorter=order)]
        assert np.array_equal(keys[out[x]], composed), "a product left the group"
    return out


def base_tree(group: GroupTable) -> tuple[np.ndarray, list[np.ndarray]]:
    """(base, steps) of `GroupTable._tree`, with every split of the classes
    numbered by a sort: `np.unique` of the keys class * degree + image."""
    n, degree = group.perms.shape
    dtype = np.min_scalar_type(n * degree)
    labels, base, steps = np.zeros(n, dtype=np.intp), [], []
    for point in range(degree):
        if labels.max() == n - 1:
            break
        key = labels * degree + group.perms[:, point]
        split = np.unique(key, return_inverse=True)[1].reshape(n)
        if split.max() > labels.max():
            step = np.zeros((labels.max() + 1) * degree, dtype=dtype)
            step[key] = split * degree
            labels, last = split, key
            base.append(point)
            steps.append(step)
    if steps:
        steps[-1][last] = np.arange(n)
    return np.array(base, dtype=np.intp), steps


@dataclass(frozen=True)
class Subgroup:
    """A subgroup listed in full: its sorted element indices, and the
    indices of a generating set, which is all that `double_cosets` takes."""

    elements: tuple[int, ...]
    generators: tuple[int, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_closure(group: GroupTable, seeds) -> Subgroup:
    """Smallest subgroup of `group` containing the seed elements, grown
    breadth first from the identity by right products with the seeds and
    their inverses; InputSpecError names the first seed out of range."""
    n = group.order
    seeds = _integers(seeds, "seeds", ndim=1)
    out = seeds[(seeds < 0) | (seeds >= n)]
    if len(out):
        raise InputSpecError(f"seed index {out[0]} out of range for order {n}")
    # with the inverses, a cyclic subgroup is reached from both ends
    gens = np.union1d(seeds, group.inv[seeds])
    members = np.zeros(n, dtype=bool)
    frontier = np.array([group.identity])
    while len(frontier):
        members[frontier] = True
        step = group.product(frontier[:, None], gens).ravel()
        frontier = np.unique(step[~members[step]])
    return Subgroup(elements=tuple(np.flatnonzero(members).tolist()), generators=tuple(gens.tolist()))


def point_stabilizer(group: GroupTable, point: int) -> Subgroup:
    """Stabiliser of a point in a group built from permutations, read off
    the group's own permutations, with its greedy generators."""
    fixed = group.perms[:, point] == point
    gens = _greedy_generators(group.product, fixed, group.identity, group.inv)
    return Subgroup(elements=tuple(np.flatnonzero(fixed).tolist()), generators=tuple(gens))


def class_algebra(group: GroupTable) -> StructureConstants:
    """The Hecke algebra of (G x G, diag G) with the uniform weight, built
    from the conjugacy classes C_i of G without forming G x G. The double
    coset of (x, y) is the class of x y^-1, so |D_i| = |G| |C_i| and
    p[i,j,k] = |G| #{x in C_i : x^-1 c_k in C_j}, with c_k the least member
    of C_k standing for the representative (c_k, e). The classes are found
    by brute force: the least conjugate g x g^-1 of each x over every g."""
    n = group.order
    mul = mul_table(group)
    conjugates = mul[mul, group.inv[:, None]]  # [g, x] is g x g^-1
    reps, class_of, sizes = np.unique(
        conjugates.min(axis=0), return_inverse=True, return_counts=True
    )
    d = len(reps)
    p = np.zeros((d, d, d), dtype=np.int64)
    for k, c in enumerate(reps):
        np.add.at(p[:, :, k], (class_of, class_of[mul[group.inv, c]]), n)
    keys = np.flatnonzero(p)
    return StructureConstants(
        keys=keys,
        counts=p.ravel()[keys],
        wd=np.ones(d),
        sizes=n * sizes,
        reps=reps,
        inverse_coset=class_of[group.inv[reps]],
        identity_coset=int(class_of[group.identity]),
    )


# ---------------------------------------------------------------- functions on G


def weighted_l1_norm(f: np.ndarray, w: np.ndarray) -> float:
    """sum_x |f(x)| w(x)."""
    return float(np.sum(np.abs(f) * w))


def classical_convolve(f: np.ndarray, g: np.ndarray, group: GroupTable) -> np.ndarray:
    """(f * g)(x) = sum_y f(y) g(y^-1 x)."""
    return np.asarray(f, dtype=complex) @ np.asarray(g, dtype=complex)[_left_quotients(group)]


def weighted_convolve(
    f: np.ndarray, g: np.ndarray, group: GroupTable, w: np.ndarray
) -> np.ndarray:
    """(f *_w g)(x) = sum_y f(y) g(y^-1 x) w(y) w(y^-1 x) / w(x)."""
    fw = np.asarray(f, dtype=complex) * w
    gw = np.asarray(g, dtype=complex) * w
    return fw @ gw[_left_quotients(group)] / w


def _left_quotients(group: GroupTable) -> np.ndarray:
    """The |G| x |G| array of y^-1 x, row y and column x."""
    x = np.arange(group.order)
    return group.product(group.inv[:, None], x)


def multiplication_operator(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(M_w f)(x) = w(x) f(x)."""
    return np.asarray(f, dtype=complex) * w


def translate(f: np.ndarray, group: GroupTable, s: int) -> np.ndarray:
    """(tau_s f)(x) = f(s^-1 x)."""
    return np.asarray(f, dtype=complex)[group.product(group.inv[s], np.arange(group.order))]


def gamma(f: np.ndarray, group: GroupTable, s: int, w: np.ndarray) -> np.ndarray:
    """Weighted translation: tau_s(M_w f) / w."""
    return translate(multiplication_operator(f, w), group, s) / w


def sharp_projection(f: np.ndarray, group: GroupTable, K: Subgroup) -> np.ndarray:
    """Two-sided K-average (1/|K|^2) sum_{k1,k2} f(k1 x k2).

    Idempotent, lands in the bi-invariant functions, and preserves sum_G f.
    """
    f = np.asarray(f, dtype=complex)
    x = np.arange(group.order)
    left = np.zeros_like(f)
    for k in K.elements:
        left += f[group.product(k, x)]
    out = np.zeros_like(f)
    for k in K.elements:
        out += left[group.product(x, k)]
    return out / (K.order ** 2)


def theta_pullback(f: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """f^theta(x) = f(theta(x)), with theta a permutation of G."""
    return np.asarray(f, dtype=complex)[theta]


def reflect(f: np.ndarray, group: GroupTable) -> np.ndarray:
    """f-check(x) = f(x^-1)."""
    return np.asarray(f, dtype=complex)[group.inv]


def is_bi_invariant(
    f: np.ndarray, partition: DoubleCosetPartition, tol: float = RTOL
) -> bool:
    f = np.asarray(f)
    return bool(np.all(np.abs(f - f[partition.reps][partition.coset_of]) <= tol))


def is_left_invariant(
    f: np.ndarray, group: GroupTable, K: Subgroup, tol: float = RTOL
) -> bool:
    f = np.asarray(f)
    return all(
        np.max(np.abs(f[group.product(k, np.arange(group.order))] - f)) <= tol
        for k in K.elements
    )


# ---------------------------------------------------------------- bi-invariant functions


def expand(f: np.ndarray, partition: DoubleCosetPartition) -> np.ndarray:
    """The underlying function on all of G."""
    return np.asarray(f, dtype=complex)[partition.coset_of]


def from_gfunction(f: np.ndarray, partition: DoubleCosetPartition) -> np.ndarray:
    """A function on G that is constant on double cosets, in coset coordinates."""
    f = np.asarray(f, dtype=complex)
    if not is_bi_invariant(f, partition):
        raise PreconditionError("function is not constant on double cosets")
    return f[partition.reps]


def indicator(i: int, partition: DoubleCosetPartition) -> np.ndarray:
    """The indicator delta_i of double coset i."""
    vals = np.zeros(partition.num_cosets, dtype=complex)
    vals[i] = 1.0
    return vals


# ---------------------------------------------------------------- spherical functions


def verify_functional_equation(
    phi: np.ndarray,
    partition: DoubleCosetPartition,
    group: GroupTable,
    K: Subgroup,
    w: np.ndarray,
) -> float:
    """Max over (x, y) of |(1/|K|) sum_k (w phi)(x k y) - (w phi)(x)(w phi)(y)|."""
    mphi = expand(phi, partition) * w
    x = np.arange(group.order)
    acc = np.zeros((group.order, group.order), dtype=complex)
    for k in K.elements:
        acc += mphi[group.product(group.product(x, k)[:, None], x)]
    acc /= K.order
    return float(np.max(np.abs(acc - np.outer(mphi, mphi))))


def verify_eigen_property(
    f: np.ndarray,
    phi: np.ndarray,
    partition: DoubleCosetPartition,
    group: GroupTable,
    w: np.ndarray,
) -> tuple[complex, float]:
    """Check f *_w phi = chi(f) phi with chi(f) = sum_x (wf)(x) (w phi)(x^-1).

    Returns (chi(f), sup-norm residual). Requires w(e) = 1 and phi(e) = 1.
    """
    if w[group.identity] != 1.0:
        raise PreconditionError("eigen property requires w(e) = 1")
    phi_g = expand(phi, partition)
    if not within(abs(phi_g[group.identity] - 1.0)):
        raise PreconditionError("spherical function must have phi(e) = 1")
    f_g = expand(f, partition)
    chi = complex(np.sum(f_g * w * (phi_g * w)[group.inv]))
    conv = weighted_convolve(f_g, phi_g, group, w)
    residual = float(np.max(np.abs(conv - chi * phi_g)))
    return chi, residual


def classical_correspondence(
    phi: np.ndarray,
    partition: DoubleCosetPartition,
    group: GroupTable,
    K: Subgroup,
    w: np.ndarray,
) -> bool:
    """True iff w*phi solves the unweighted spherical equation.

    Equivalent to verify_functional_equation(phi, ..., w) passing the
    tolerance: the same averaged products appear with weight folded into the
    function.
    """
    scaled = np.asarray(phi) * w[partition.reps]
    return bool(within(
        verify_functional_equation(scaled, partition, group, K, np.ones(group.order))
    ))


# ---------------------------------------------------------------- transform


def spherical_transform(
    f: np.ndarray,
    partition: DoubleCosetPartition,
    sset: SphericalSet,
    group: GroupTable,
    w: np.ndarray,
) -> np.ndarray:
    """F(f)(phi_s) = sum_x w(x) f(x) w(x^-1) phi_s(x^-1), in SphericalSet order.

    Sums over G; the reference for `sset.characters @ f`."""
    f_g = expand(f, partition) * w
    out = np.empty(len(sset), dtype=complex)
    for s, phi in enumerate(sset.functions):
        out[s] = np.sum(f_g * (expand(phi, partition) * w)[group.inv])
    return out


def verify_convolution_theorem(
    f: np.ndarray,
    g: np.ndarray,
    partition: DoubleCosetPartition,
    sset: SphericalSet,
    group: GroupTable,
    w: np.ndarray,
) -> float:
    """Residual of F(f *_w g) = F(f) F(g), max over spherical functions."""
    conv = weighted_convolve(expand(f, partition), expand(g, partition), group, w)
    conv_bi = from_gfunction(conv, partition)

    def transform(h):
        return spherical_transform(h, partition, sset, group, w)

    return float(np.max(np.abs(transform(conv_bi) - transform(f) * transform(g))))


def condition_number(F: np.ndarray) -> float:
    """kappa_2(F) = sigma_max / sigma_min, from the singular values of F: the
    reference for the bracket of `injectivity_check`."""
    svals = np.linalg.svd(F, compute_uv=False)
    return float(svals[0] / svals[-1])


# ---------------------------------------------------------------- multipliers


def symbol_basis_residual(
    T: np.ndarray, sset: SphericalSet, e: int
) -> tuple[np.ndarray, np.ndarray]:
    """(residual, scale), one of each per spherical function s, of the symbol
    read off the identity coset e and checked on the whole indicator basis;
    the check passes where within(residual, scale).

    With F = sset.characters.T and FT = T^T F (row i the transform of
    T delta_i), sigma = FT[e] / F[e] and R = FT - F sigma. As F is
    invertible, R = 0 exactly when T is a multiplier. R = (T - L_{T u})^T F,
    so column s of R is at most max|T - L_{T u}| times sum_j |F[j, s]|: at
    the scale max(1, max|T|) sum_j |F[j, s]|, the check passes on every
    operator that `is_multiplier` accepts (up to rounding).
    """
    F = sset.characters.T
    FT = T.T @ F
    residual = np.max(np.abs(FT - F * (FT[e] / F[e])[None, :]), axis=0)
    scale = max(1.0, float(np.max(np.abs(T)))) * np.sum(np.abs(F), axis=0)
    return residual, scale


# ---------------------------------------------------------------- spec numbers
# The per-entry rules that read the numbers of a spec before
# `groups.json_array`: the reference that the one vectorised reader is
# compared with on random JSON values.


def json_number(value, what: str = "weight values") -> float:
    """A JSON number as a float. Booleans and strings are not numbers; an
    integer beyond the float range is rejected too."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputSpecError(f"{what} must be numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputSpecError(f"{what} must be finite numbers, got {value!r}") from None


def has_bool(value) -> bool:
    """Whether a value or nested list holds a boolean."""
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return any(map(has_bool, value))
        return bool in map(type, value)
    return isinstance(value, bool)


def integers(value, what: str, ndim: int) -> np.ndarray:
    """A JSON value as an int64 array of `ndim` dimensions; an empty list
    passes for any ndim."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):
        raise InputSpecError(f"{what} must be a rectangular array of integers") from None
    exact = not has_bool(value) and (
        arr.dtype.kind == "i"
        or (arr.dtype.kind == "f" and np.all((np.abs(arr) <= 2**53) & (arr == np.trunc(arr))))
    )
    if (arr.size or ndim == 0) and not (exact and arr.ndim == ndim):
        shape = "an integer" if ndim == 0 else f"a {ndim}-dimensional array of integers"
        raise InputSpecError(f"{what} must be {shape}")
    return arr.astype(np.int64)


def complex_list(raw, d: int, field: str) -> np.ndarray:
    """d [re, im] pairs of finite JSON numbers as a complex vector."""
    if not isinstance(raw, list) or len(raw) != d or not all(
        isinstance(z, list) and len(z) == 2 for z in raw
    ):
        raise InputSpecError(f'"{field}" must list {d} [re, im] pairs')
    parts = np.array([[json_number(v, f'"{field}" parts') for v in z] for z in raw])
    if not np.all(np.isfinite(parts)):
        raise InputSpecError(f'"{field}" entries must be [re, im] pairs of finite numbers')
    return parts.view(complex).ravel()


def multiplier_values(spec: dict, d: int) -> np.ndarray:
    """The coset values h of a kernel spec, or the matrix of a matrix spec,
    read entry by entry."""
    if spec["kind"] == "kernel":
        return complex_list(spec.get("coset_values"), d, "coset_values")
    rows = spec.get("rows")
    if not isinstance(rows, list) or len(rows) != d:
        raise InputSpecError(f'"rows" must be a {d}x{d} complex matrix')
    return np.array([complex_list(r, d, "rows") for r in rows])


def coset_weights(spec: dict, partition: DoubleCosetPartition) -> np.ndarray:
    """The coset weights of a "by_element" or "by_double_coset" weight
    spec, read entry by entry."""
    d = partition.num_cosets
    try:
        if spec["kind"] == "by_element":
            n = len(partition.coset_of)
            raw = spec.get("values", [])
            if np.shape(raw) != (n,):
                raise InputSpecError(f"weight needs {n} values, got {np.shape(raw)}")
            values = checked_weights([json_number(v) for v in raw])
            witness = bi_invariance_witness(values, partition)
            if witness is not None:
                raise BiInvarianceError(*witness)
            return values[partition.reps]
        table = spec.get("values", {})
        if not isinstance(table, dict):
            raise InputSpecError(
                '"by_double_coset" values must be an object {cosetId: value}, '
                f"got {type(table).__name__}"
            )
        ids = {str(cid) for cid in range(d)}
        unknown = [key for key in table if str(key) not in ids]
        if unknown:
            raise InputSpecError(
                f"weight for unknown double coset {unknown[0]!r}: ids are 0..{d - 1}"
            )
        vals = np.empty(d)
        for cid in range(d):
            key = str(cid) if str(cid) in table else cid
            if key not in table:
                raise InputSpecError(f"missing weight for double coset {cid}")
            vals[cid] = json_number(table[key])
        return checked_weights(vals)
    except (TypeError, ValueError) as exc:
        raise InputSpecError(f"weight values must be numbers: {exc}") from exc
