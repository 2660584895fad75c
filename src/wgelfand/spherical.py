"""Enumeration and verification of the weight-twisted spherical functions.

Characters of the commutative Hecke algebra are found by joint eigen-
decomposition of the left-multiplication matrices; each spherical function is
then recovered from its character values on the indicator basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrumError, NotGelfandError, PreconditionError
from .groups import DoubleCosetPartition, GroupTable, SubgroupEmbedding, double_cosets
from .hecke import StructureConstants, hecke_structure_constants, is_weighted_gelfand
from .weighted import BiInvariantFunction, Weight, weighted_convolve

DEFAULT_SEED = 0xC0FFEE
EIGENVALUE_SEPARATION = 1e-7
DEDUP_TOL = 1e-7
MAX_RETRIES = 8


@dataclass(frozen=True)
class SphericalFunction:
    """A bi-invariant function phi with phi(e) = 1 solving the averaged
    product equation (1/|K|) sum_k (w phi)(x k y) = (w phi)(x) (w phi)(y)."""

    coset_values: np.ndarray
    partition: DoubleCosetPartition

    def expand(self) -> np.ndarray:
        return self.coset_values[self.partition.coset_of]

    def as_bi_invariant(self) -> BiInvariantFunction:
        return BiInvariantFunction(self.coset_values, self.partition)


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
                "coset_values": [[z.real, z.imag] for z in phi.coset_values],
                "character": [[z.real, z.imag] for z in chi.values],
            }
            for phi, chi in self
        ]


def _character_sort_key(values: np.ndarray) -> tuple:
    return tuple(
        (round(float(z.real), 9), round(float(z.imag), 9)) for z in values
    )


def character_weight_sums(
    group: GroupTable, partition: DoubleCosetPartition, w: Weight
) -> np.ndarray:
    """sum_{x in D_i} w(x) w(x^-1) for each double coset; always positive."""
    ww = w.values * w.values[group.inv]
    return np.array([np.sum(ww[list(c)]) for c in partition.cosets])


def enumerate_spherical(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
    sc: Optional[StructureConstants] = None,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> SphericalSet:
    """Find all d spherical functions of a weighted Gelfand pair.

    Requires w(e) = 1 and a commutative algebra. The characters come from a
    joint eigendecomposition: one random real combination of the left-
    multiplication matrices is diagonalized (retried with fresh coefficients
    on eigenvalue collision), and each character is read off a common
    eigenvector. phi is recovered coset-by-coset from its character.
    """
    if partition is None:
        partition = double_cosets(group, K)
    if not w.unit_at_identity(group, tol=tol):
        raise PreconditionError("spherical enumeration requires w(e) = 1")
    if sc is None:
        sc = hecke_structure_constants(group, K, w, partition=partition)
    report = is_weighted_gelfand(group, K, w, partition=partition, tol=tol, sc=sc)
    if not report.is_weighted_gelfand:
        raise NotGelfandError(*report.witness)
    if not np.all(np.isfinite(sc.c)):
        raise DegenerateSpectrumError("structure constants overflow: weight range too wide")

    d = sc.dim
    L = [sc.left_multiplication_matrix(i) for i in range(d)]
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(MAX_RETRIES):
        coeffs = rng.standard_normal(d)
        A = sum(t * Li for t, Li in zip(coeffs, L))
        eigvals, eigvecs = np.linalg.eig(A)
        sep = np.min(np.abs(np.diff(np.sort_complex(eigvals)))) if d > 1 else np.inf
        if sep > EIGENVALUE_SEPARATION:
            vecs = eigvecs
            break
    if vecs is None:
        raise DegenerateSpectrumError(
            f"no separating combination found in {MAX_RETRIES} draws"
        )

    weight_sums = character_weight_sums(group, partition, w)
    entries = []
    for s in range(d):
        v = vecs[:, s]
        p = int(np.argmax(np.abs(v)))
        chi = np.array([(Li @ v)[p] / v[p] for Li in L])
        phi_vals = np.empty(d, dtype=complex)
        for i in range(d):
            phi_vals[partition.inverse_coset[i]] = chi[i] / weight_sums[i]
        entries.append((chi, phi_vals))

    # dedup (a genuinely semisimple commutative algebra yields d distinct tuples)
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for chi, phi_vals in entries:
        if all(np.max(np.abs(chi - k[0])) > DEDUP_TOL for k in kept):
            kept.append((chi, phi_vals))
    kept.sort(key=lambda e: _character_sort_key(e[0]))

    functions = tuple(
        SphericalFunction(coset_values=phi, partition=partition) for _, phi in kept
    )
    characters = tuple(Character(values=chi) for chi, _ in kept)
    sset = SphericalSet(functions=functions, characters=characters, partition=partition)
    for phi in functions:
        res = verify_functional_equation(phi, group, K, w)
        if res > max(tol, 1e-8):
            raise DegenerateSpectrumError(
                f"recovered function fails the defining equation (residual {res:g})"
            )
    return sset


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
    tol: float = 1e-9,
) -> tuple[complex, float]:
    """Check f *_w phi = chi(f) phi with chi(f) = sum_x (wf)(x) (w phi)(x^-1).

    Returns (chi(f), sup-norm residual). Requires w(e) = 1 and phi(e) = 1.
    """
    if not w.unit_at_identity(group, tol=tol):
        raise PreconditionError("eigen property requires w(e) = 1")
    phi_g = phi.expand()
    if abs(phi_g[group.identity] - 1.0) > max(tol, 1e-8):
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
    tol: float = 1e-9,
) -> bool:
    """True iff w*phi solves the unweighted spherical equation.

    Equivalent to verify_functional_equation(phi, ..., w) < tol: the same
    averaged products appear with weight folded into the function.
    """
    from .weighted import uniform_weight

    scaled = SphericalFunction(
        coset_values=phi.coset_values * _coset_constants(w, phi.partition),
        partition=phi.partition,
    )
    return verify_functional_equation(scaled, group, K, uniform_weight(group)) <= tol


def _coset_constants(w: Weight, partition: DoubleCosetPartition) -> np.ndarray:
    return np.array([w.values[c[0]] for c in partition.cosets])
