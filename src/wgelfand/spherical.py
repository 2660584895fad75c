"""Enumeration and verification of the weight-twisted spherical functions.

The spherical functions are found deterministically in coset coordinates from
the integer intersection numbers alone: the weight only rescales the classical
functions and characters. The G-level checks (`verify_functional_equation`,
`verify_eigen_property`, `classical_correspondence`) are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrumError, NotGelfandError, PreconditionError
from .groups import DoubleCosetPartition, GroupTable, SubgroupEmbedding, double_cosets
from .hecke import StructureConstants, hecke_structure_constants
from .tolerance import within
from .weighted import BiInvariantFunction, Weight, uniform_weight, weighted_convolve


def complex_pairs(values: np.ndarray) -> list:
    """Complex values as nested [re, im] lists of Python floats, for JSON."""
    return np.stack([values.real, values.imag], -1).tolist()


@dataclass(frozen=True)
class SphericalFunction:
    """A bi-invariant function phi with phi(e) = 1 solving the averaged
    product equation (1/|K|) sum_k (w phi)(x k y) = (w phi)(x) (w phi)(y)."""

    coset_values: np.ndarray
    partition: DoubleCosetPartition

    def expand(self) -> np.ndarray:
        return self.coset_values[self.partition.coset_of]


@dataclass(frozen=True)
class Character:
    """Values of a multiplicative functional on the indicator basis."""

    values: np.ndarray

    def __call__(self, i: int) -> complex:
        return complex(self.values[i])


@dataclass(frozen=True)
class SphericalSet:
    """All spherical functions of a weighted Gelfand pair, paired with their
    characters, in a canonical (sorted-by-character) order."""

    functions: tuple[SphericalFunction, ...]
    characters: tuple[Character, ...]
    partition: DoubleCosetPartition

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(zip(self.functions, self.characters))

    def to_json(self) -> list[dict]:
        return [
            {
                "coset_values": complex_pairs(phi.coset_values),
                "character": complex_pairs(chi.values),
            }
            for phi, chi in self
        ]


def _character_order(chars: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows of chars by their values rounded
    to 9 decimals, real part before imaginary part."""
    keys = np.stack([np.round(chars.real, 9), np.round(chars.imag, 9)], axis=2)
    return np.lexsort(keys.reshape(len(chars), -1).T[::-1])


def enumerate_spherical(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
    sc: Optional[StructureConstants] = None,
) -> SphericalSet:
    """Find all d spherical functions of a weighted Gelfand pair.

    Requires w(e) = 1 and a commutative algebra. Deterministic, in coset
    coordinates, and independent of the weight: the matrices
    N_i[k, j] = p[i,j,k] sqrt(|D_k| / |D_j|) of f -> delta_i * f on the
    orthonormal basis delta_k / sqrt(|D_k|), each built from the i-slice of
    the sparse p, are normal and commute, so their joint eigenlines are found
    by refining the identity basis with the Hermitian parts of N_0, N_1, ...
    until there are d lines. Each line gives a classical spherical function
    phi1; the weighted one is phi1 / w and its character is chi(delta_i) =
    w_i |D_i| phi1(D_i^-1). Multiplicativity of the classical characters is
    checked on the nonzeros of p.
    """
    if partition is None:
        partition = double_cosets(group, K)
    if not w.unit_at_identity(group):
        raise PreconditionError("spherical enumeration requires w(e) = 1")
    if sc is None:
        sc = hecke_structure_constants(group, K, w, partition=partition)
    if sc.commutativity_witness is not None:
        raise NotGelfandError(*sc.commutativity_witness)
    if not np.isfinite(sc.max_constant):
        raise DegenerateSpectrumError("structure constants overflow: weight range too wide")

    d = sc.dim
    sizes = np.array(partition.sizes(), dtype=float)
    root = np.sqrt(sizes)
    blocks = [np.eye(d, dtype=complex)]
    _, j, k = sc.ijk
    entries = sc.counts * (root[k] / root[j])
    bounds = np.searchsorted(sc.keys, np.arange(d + 1) * d * d)
    for i in range(d):
        if len(blocks) == d:
            break
        s = slice(bounds[i], bounds[i + 1])  # the i-slice of p
        N = np.zeros((d, d))
        N[k[s], j[s]] = entries[s]
        scale = float(np.max(np.abs(N)))
        for H in (N + N.T, 1j * (N - N.T)):
            blocks = _refine(blocks, H, scale)
    if len(blocks) < d:
        raise DegenerateSpectrumError(
            f"joint spectrum splits into {len(blocks)} lines, expected {d}"
        )

    classical = np.hstack(blocks) / root[:, None]
    classical /= classical[partition.identity_coset]
    chi1 = sizes[:, None] * classical[list(partition.inverse_coset)]
    _check_multiplicative(sc, chi1)
    wd = sc.wd[:, None]
    chars, phis = (wd * chi1).T, (classical / wd).T
    order = _character_order(chars)
    return SphericalSet(
        functions=tuple(SphericalFunction(phis[s], partition) for s in order),
        characters=tuple(Character(chars[s]) for s in order),
        partition=partition,
    )


def _refine(blocks: list[np.ndarray], H: np.ndarray, scale: float) -> list[np.ndarray]:
    """Split each block of orthonormal columns into eigenspaces of the
    Hermitian H restricted to it, cutting where consecutive eigenvalues of
    the restriction differ by more than the tolerance at scale."""
    out = []
    for Q in blocks:
        if Q.shape[1] == 1:
            out.append(Q)
            continue
        vals, U = np.linalg.eigh(Q.conj().T @ H @ Q)
        cuts = np.flatnonzero(~within(np.diff(vals), scale)) + 1
        out.extend(np.split(Q @ U, cuts, axis=1))
    return out


def _check_multiplicative(sc: StructureConstants, chi1: np.ndarray) -> None:
    """sum_k p[i,j,k] chi(k) = chi(i) chi(j) for every column chi of chi1,
    at scale max |chi|^2, one character at a time. The sums run over the
    nonzeros of p; each (i, j) has one, as delta_i * delta_j is nonzero."""
    k = sc.ijk[2]
    starts = np.flatnonzero(np.diff(sc.keys // sc.dim, prepend=-1))
    for chi in chi1.T:
        gap = np.add.reduceat(sc.counts * chi[k], starts) - np.outer(chi, chi).ravel()
        res = np.max(np.abs(gap))
        if not within(res, np.max(np.abs(chi)) ** 2):
            raise DegenerateSpectrumError(
                f"recovered character fails multiplicativity (residual {res:g})"
            )


def verify_functional_equation(
    phi: SphericalFunction,
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
) -> float:
    """Max over (x, y) of |(1/|K|) sum_k (w phi)(x k y) - (w phi)(x)(w phi)(y)|."""
    mphi = phi.expand() * w.values
    mul = group.mul
    acc = np.zeros((group.order, group.order), dtype=complex)
    for k in K.elements:
        acc += mphi[mul[mul[:, k]]]
    acc /= K.order
    return float(np.max(np.abs(acc - np.outer(mphi, mphi))))


def verify_eigen_property(
    f: BiInvariantFunction,
    phi: SphericalFunction,
    group: GroupTable,
    w: Weight,
) -> tuple[complex, float]:
    """Check f *_w phi = chi(f) phi with chi(f) = sum_x (wf)(x) (w phi)(x^-1).

    Returns (chi(f), sup-norm residual). Requires w(e) = 1 and phi(e) = 1.
    """
    if not w.unit_at_identity(group):
        raise PreconditionError("eigen property requires w(e) = 1")
    phi_g = phi.expand()
    if not within(abs(phi_g[group.identity] - 1.0)):
        raise PreconditionError("spherical function must have phi(e) = 1")
    f_g = f.expand()
    chi = complex(np.sum(f_g * w.values * (phi_g * w.values)[group.inv]))
    conv = weighted_convolve(f_g, phi_g, group, w)
    residual = float(np.max(np.abs(conv - chi * phi_g)))
    return chi, residual


def classical_correspondence(
    phi: SphericalFunction,
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
) -> bool:
    """True iff w*phi solves the unweighted spherical equation.

    Equivalent to verify_functional_equation(phi, ..., w) passing the
    tolerance: the same averaged products appear with weight folded into the
    function.
    """
    scaled = SphericalFunction(
        coset_values=phi.coset_values * w.values[[c[0] for c in phi.partition.cosets]],
        partition=phi.partition,
    )
    return bool(within(verify_functional_equation(scaled, group, K, uniform_weight(group))))
