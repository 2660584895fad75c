"""Enumeration and verification of the weight-twisted spherical functions.

The spherical functions are found deterministically in coset coordinates from
the integer intersection numbers alone: the weight only rescales the classical
functions and characters, and the characters are verified by their
multiplicativity on the intersection numbers and certified by the
orthogonality relations, which give their multiplicities. The functional
equation on G is checked by the reference code in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NotGelfandError, PreconditionError
from .hecke import StructureConstants
from .tolerance import RTOL, within


@dataclass(frozen=True)
class SphericalSet:
    """All spherical functions of a weighted Gelfand pair and their
    characters, in a canonical (sorted-by-character) order: row s of
    `functions` holds phi_s on the double cosets, and row s of `characters`
    holds chi_s on the indicator basis. Row s of `classical_characters` holds
    the weight-free character chi1_s of the same line, so that
    chi_s(delta_i) = w_i chi1_s(delta_i). A spherical function is bi-invariant
    with phi(e) = 1 and solves the averaged product equation
    (1/|K|) sum_k (w phi)(x k y) = (w phi)(x) (w phi)(y).

    `multiplicities[s]` is the integer m_s, the dimension of the irreducible
    constituent of Ind_K^G 1 behind line s: the orthogonality relations
    sum_k chi1_s(k) conj(chi1_t(k)) / |D_k| = [s = t] |G| / m_s hold within
    the tolerance and the m_s are positive integers summing to |G:K|. This
    certifies that the table is invertible: its rank is d."""

    functions: np.ndarray
    characters: np.ndarray
    classical_characters: np.ndarray
    multiplicities: np.ndarray

    def __len__(self) -> int:
        return len(self.functions)


def _character_order(chars: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows of chars by their values rounded
    to 9 decimals, real part before imaginary part: one stable argsort of the
    rows as records of 2d float fields. A key beyond about 1e299 is inf, for
    a weight whose Fourier table is singular (`injectivity_check`)."""
    with np.errstate(over="ignore"):
        keys = np.stack([np.round(chars.real, 9), np.round(chars.imag, 9)], axis=2)
    records = keys.reshape(len(chars), -1).view(np.dtype([("", float)] * keys[0].size))
    return np.argsort(records[:, 0], kind="stable")


def enumerate_spherical(sc: StructureConstants) -> SphericalSet:
    """Find all d spherical functions of a weighted Gelfand pair.

    Requires w(e) = 1, read exactly as the weight of the identity coset, and
    a commutative algebra. Deterministic, in coset coordinates, and
    independent of the weight: the matrices
    N_i[k, j] = p[i,j,k] sqrt(|D_k| / |D_j|) of f -> delta_i * f on the
    orthonormal basis delta_k / sqrt(|D_k|), each built from the i-slice of
    the sparse p, are normal and commute, so their joint eigenlines are found
    by refining the identity basis with the Hermitian parts N_i + N_i^T and
    1j (N_i - N_i^T) of N_1, N_2, ... until there are d lines; the rows i
    so consumed are S. N_e = |K| I of the identity coset is skipped, and so
    is the skew part of a self-inverse row: N_i^T = N_{i*}, so there it is
    zero. The first solve is real. Each line gives a classical spherical
    function phi1, with phi1(e) = 1 set exactly; the weighted one is
    phi1 / w and its character is chi(delta_i) = w_i |D_i| phi1(D_i^-1).
    Multiplicativity of the classical characters is checked by Light's test:
    on the rows g in S only, with the certificate that makes them enough,
    the tuples (chi(g))_{g in S} of any two characters separated by more
    than the tolerance. Then the orthogonality relations certify the table
    and give the multiplicities (`_multiplicities`). A weighted value that
    is not finite raises DegenerateSpectrumError.
    """
    e = sc.identity_coset
    if sc.wd[e] != 1.0:
        raise PreconditionError("spherical enumeration requires w(e) = 1")
    if sc.commutativity_witness is not None:
        raise NotGelfandError(*sc.commutativity_witness)

    d = sc.dim
    sizes = sc.sizes.astype(float)
    root = np.sqrt(sizes)
    basis = None  # the identity basis, until the first split
    rows = []  # the rows S whose N_i the refinement consumed
    _, j, k = sc.ijk
    entries = sc.counts * (root[k] / root[j])
    bounds = np.searchsorted(sc.keys, np.arange(d + 1) * d * d)
    for i in range(d):
        if basis is not None and basis[1][-1] == d - 1:
            break
        if i == e:
            continue  # N_e = |K| I: its Hermitian parts 2|K| I and 0 split nothing
        rows.append(i)
        s = slice(bounds[i], bounds[i + 1])  # the i-slice of p
        N = np.zeros((d, d))
        N[k[s], j[s]] = entries[s]
        scale = float(np.max(np.abs(N)))
        basis = _refine(basis, N + N.T, 1, scale)
        if sc.inverse_coset[i] != i:
            basis = _refine(basis, N - N.T, 1j, scale)
    Q, labels = basis or (np.eye(d), np.zeros(d, dtype=np.int64))
    if labels[-1] < d - 1:
        raise DegenerateSpectrumError(
            f"joint spectrum splits into {labels[-1] + 1} lines, expected {d}"
        )

    classical = np.asarray(Q / root[:, None], dtype=complex)
    classical /= classical[e]
    classical[e] = 1.0  # complex x / x can round to 1 - eps
    chi1 = sizes[:, None] * classical[sc.inverse_coset]
    _check_multiplicative(sc, chi1, rows)
    multiplicities = _multiplicities(chi1, sc)
    wd = sc.wd[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        chars, phis = (wd * chi1).T, (classical / wd).T
    if not (np.all(np.isfinite(chars)) and np.all(np.isfinite(phis))):
        raise DegenerateSpectrumError("spherical functions overflow: weight range too wide")
    order = _character_order(chars)
    return SphericalSet(
        functions=phis[order],
        characters=chars[order],
        classical_characters=chi1.T[order],
        multiplicities=multiplicities[order],
    )


def _refine(
    basis: tuple[np.ndarray, np.ndarray] | None, S: np.ndarray, phase: complex, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split each block of the orthonormal basis into eigenspaces of the
    Hermitian H = phase S restricted to it, S real and phase 1 (S symmetric)
    or 1j (S skew), cutting where consecutive eigenvalues of the
    restriction differ by more than the tolerance at scale.

    The basis is (Q, labels): a d x d orthonormal Q and the block number of
    each column, with the columns of a block adjacent and the blocks
    numbered in column order; the split blocks keep that order. None stands
    for the identity basis, whose restriction is H itself: one eigh of H,
    real when phase is 1. Blocks of one width share one real product S Q_w
    over all their columns (and their imaginary parts), then the small
    products phase Q_b^H (S Q_b) and one stacked eigh."""
    if basis is None:
        vals, Q = np.linalg.eigh(phase * S)
        return Q, np.concatenate([[0], np.cumsum(~within(np.diff(vals), scale))])
    Q, labels = basis
    d = len(labels)
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    widths = np.diff(starts, append=d)
    new = np.zeros(d, dtype=bool)  # the first column of each block
    new[starts] = True
    split = Q.astype(np.result_type(Q, phase))
    for width in np.unique(widths[widths > 1]):
        cols = starts[widths == width][:, None] + np.arange(width)  # one row per block
        Qw = Q[:, cols]  # (d, blocks, width)
        parts = np.ascontiguousarray(Qw.reshape(d, -1)).view(float)  # real and imaginary columns
        SQ = (S @ parts).view(Q.dtype).reshape(Qw.shape)
        Qw, SQ = Qw.transpose(1, 0, 2), SQ.transpose(1, 0, 2)
        vals, U = np.linalg.eigh(phase * (Qw.conj().transpose(0, 2, 1) @ SQ))
        split[:, cols] = (Qw @ U).transpose(1, 0, 2)
        new[cols[:, 1:]] = ~within(np.diff(vals), scale)
    return split, np.cumsum(new) - 1


def _check_multiplicative(sc: StructureConstants, chi1: np.ndarray, rows: list[int]) -> None:
    """Light's test on the columns chi of chi1 (Bannai & Ito, Algebraic
    Combinatorics I, 1984, ch. II): sum_k p[g,j,k] chi(k) = chi(g) chi(j) is
    checked for g in rows and every j, one reduceat per row for all
    characters, at scale max |chi|^2; then the tuples (chi(g))_{g in rows} of
    any two characters must differ by more than the tolerance at scale
    max |chi(g)|. The first failing character, or a failed separation,
    raises DegenerateSpectrumError.

    These rows are enough. The identity row holds exactly, as
    p[e,j,k] = |K| [j = k] and chi(e) = |K|. A checked row g makes chi a left
    eigenvector of L_g[k, j] = p[g,j,k] with eigenvalue chi(g); the L_i
    commute, and d separated tuples make every joint eigenspace of the
    checked L_g a line, so chi is a left eigenvector of every L_i, with
    eigenvalue chi(i) by the column j = e. In floating point, if the checked
    equations hold to r and the tuples are sigma apart (max over g), then
    to first order in r, for all i and j,
        |sum_k p[i,j,k] chi(k) - chi(i) chi(j)| <= 4 d |D_i| |D_j| r / (|K| sigma).
    Write chi_s = psi_s + sum_t a_t psi_t over the exact characters psi_t,
    with sum_t a_t = 0 as chi_s(e) = psi_t(e). The residual of row i at j is
    sum_{t != s} a_t (psi_t(i) - psi_s(i)) (psi_t(j) - psi_s(j)), and
    |a_t| <= m_t d r / (|G| sigma) by the orthogonality
    sum_k psi_s(k) conj(psi_t(k)) / |D_k| = [s = t] |G| / m_t, where m_t is
    the dimension of the t-th representation, sum_t m_t = |G| / |K|, and
    |phi| <= 1.
    """
    d = sc.dim
    _, j, k = sc.ijk
    res = np.zeros(d)
    gap = np.zeros((d, d))
    for g in rows:
        lo, hi = np.searchsorted(sc.keys, [g * d * d, (g + 1) * d * d])
        starts = np.flatnonzero(np.diff(j[lo:hi], prepend=-1))  # every j: delta_g * delta_j != 0
        lhs = np.add.reduceat(sc.counts[lo:hi, None] * chi1[k[lo:hi]], starts)
        res = np.maximum(res, np.max(np.abs(lhs - chi1[g] * chi1), axis=0))
        np.maximum(gap, np.abs(chi1[g][:, None] - chi1[g][None, :]), out=gap)
    bad = np.flatnonzero(~within(res, np.max(np.abs(chi1), axis=0) ** 2))
    if len(bad):
        raise DegenerateSpectrumError(
            f"recovered character fails multiplicativity (residual {res[bad[0]]:g})"
        )
    np.fill_diagonal(gap, np.inf)
    if within(np.min(gap), np.max(np.abs(chi1[rows]), initial=0.0)):
        raise DegenerateSpectrumError(
            f"recovered characters are not separated on the checked rows (gap {np.min(gap):g})"
        )


def _multiplicities(chi1: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """The multiplicities m_s of the columns chi of chi1, certified by the
    orthogonality relations (Bannai & Ito, Algebraic Combinatorics I, ch. II)
    sum_k chi_s(k) conj(chi_t(k)) / |D_k| = [s = t] |G| / m_s: one d x d
    Gram matrix of the columns of chi1 / sqrt|D|. Its off-diagonal must be
    within the tolerance at the scale of its largest diagonal entry, each
    |G| / diagonal within the tolerance at its own scale of an integer
    m_s >= 1, and the m_s must sum exactly to |G:K|, the dimension of
    Ind_K^G 1, with K = D_e the identity coset. Any failure raises
    DegenerateSpectrumError with the value measured and its threshold.

    The relations make chi1 invertible, with inverse
    diag(m / |G|) chi1^H diag(1 / |D|), so the table has rank d."""
    sizes = sc.sizes
    order = int(sizes.sum())
    index = order // int(sizes[sc.identity_coset])
    A = chi1 / np.sqrt(sizes.astype(float))[:, None]
    gram = A.T @ A.conj()
    diag = gram.diagonal().real.copy()
    scale = float(np.max(diag))
    np.fill_diagonal(gram, 0.0)
    off = float(np.max(np.abs(gram)))
    if not within(off, scale):
        raise DegenerateSpectrumError(
            f"characters fail the orthogonality relations "
            f"(off-diagonal {off:g}, threshold {RTOL * max(1.0, scale):g})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        m = order / diag
    rounded = np.rint(m)
    gap = np.abs(m - rounded)
    bad = np.flatnonzero(~within(gap, m) | (rounded < 1))
    if len(bad):
        s = bad[0]
        raise DegenerateSpectrumError(
            f"multiplicity {m[s]:.12g} is not a positive integer "
            f"(gap {gap[s]:g}, threshold {RTOL * max(1.0, m[s]):g})"
        )
    if rounded.sum() != index:
        raise DegenerateSpectrumError(
            f"multiplicities sum to {rounded.sum():.0f}, expected |G:K| = {index}"
        )
    return rounded.astype(np.int64)
