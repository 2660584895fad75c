"""The weighted spherical Fourier transform and multiplier analysis.

Everything here works in coset coordinates: bi-invariant functions are
vectors of length d, operators are d x d matrices (the product with h is
`StructureConstants.left(h)`), and the transform of delta_i is the character
value chi_s(delta_i). The G-level sums (`spherical_transform`,
`verify_convolution_theorem`) are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputSpecError, NotMultiplierError
from .groups import GroupTable
from .hecke import StructureConstants
from .spherical import SphericalSet, complex_pairs
from .tolerance import within
from .weighted import BiInvariantFunction, Weight


def spherical_transform(
    f: BiInvariantFunction,
    sset: SphericalSet,
    group: GroupTable,
    w: Weight,
) -> np.ndarray:
    """F(f)(phi_s) = sum_x w(x) f(x) w(x^-1) phi_s(x^-1), in SphericalSet order.

    Sums over G; a test oracle for `FourierTable.transform_coords`."""
    if f.partition is not sset.partition and f.partition.cosets != sset.partition.cosets:
        raise InputSpecError("function and spherical set use different partitions")
    f_g = f.expand() * w.values
    out = np.empty(len(sset), dtype=complex)
    for s, phi in enumerate(sset.functions):
        out[s] = np.sum(f_g * (phi.expand() * w.values)[group.inv])
    return out


@dataclass(frozen=True)
class FourierTable:
    """Transform values of every indicator basis element: F[i, s]."""

    matrix: np.ndarray
    sset: SphericalSet

    def transform_coords(self, coords: np.ndarray) -> np.ndarray:
        """Transform of sum_i coords[i] delta_i."""
        return np.asarray(coords, dtype=complex) @ self.matrix


def build_fourier_table(sset: SphericalSet) -> FourierTable:
    """F[i, s] = chi_s(delta_i): the transform of an indicator is the value of
    the character on it, so the table is the stacked characters."""
    return FourierTable(
        matrix=np.array([chi.values for chi in sset.characters]).T, sset=sset
    )


def injectivity_check(table: FourierTable) -> tuple[int, float]:
    """Numerical rank and condition estimate of the transform matrix; the
    rank counts the singular values beyond the tolerance at the largest."""
    svals = np.linalg.svd(table.matrix, compute_uv=False)
    top = float(svals[0]) if len(svals) else 0.0
    rank = int(np.sum(~within(svals, top)))
    cond = float(top / svals[-1]) if top > 0 and svals[-1] > 0 else np.inf
    return rank, cond


def verify_convolution_theorem(
    f: BiInvariantFunction,
    g: BiInvariantFunction,
    sset: SphericalSet,
    group: GroupTable,
    w: Weight,
) -> float:
    """Residual of F(f *_w g) = F(f) F(g), max over spherical functions."""
    from .weighted import weighted_convolve

    conv = weighted_convolve(f.expand(), g.expand(), group, w)
    conv_bi = BiInvariantFunction.from_gfunction(conv, sset.partition)
    lhs = spherical_transform(conv_bi, sset, group, w)
    rhs = spherical_transform(f, sset, group, w) * spherical_transform(g, sset, group, w)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class MultiplierOperator:
    """A linear operator on coset coordinates, optionally born from a kernel."""

    matrix: np.ndarray
    kernel: Optional[BiInvariantFunction] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(coords, dtype=complex)

    def compose(self, other: "MultiplierOperator") -> "MultiplierOperator":
        return MultiplierOperator(matrix=self.matrix @ other.matrix)

    @classmethod
    def identity(cls, d: int) -> "MultiplierOperator":
        return cls(matrix=np.eye(d, dtype=complex))

    @classmethod
    def scalar(cls, d: int, value: complex) -> "MultiplierOperator":
        return cls(matrix=value * np.eye(d, dtype=complex))


@dataclass(frozen=True)
class MultiplierSymbol:
    """Pointwise spectral action of a multiplier, one value per spherical
    function, in SphericalSet order."""

    values: np.ndarray

    def to_json(self) -> dict:
        return {"symbol": complex_pairs(self.values)}


def multiplier_from_kernel(h: BiInvariantFunction, sc: StructureConstants) -> MultiplierOperator:
    """Matrix of f -> h *_w f on the indicator basis."""
    return MultiplierOperator(matrix=sc.left(h.coset_values), kernel=h)


def is_multiplier(
    T: MultiplierOperator, sc: StructureConstants
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check T(delta_i *_w delta_j) = (T delta_i) *_w delta_j on all basis pairs,
    at the scale of the largest entry of T and c.

    Pair (i, j) is column j of T L_i - L_{T delta_i}, with L_h = sc.left(h)
    and L_i = L_{delta_i}; the witness is the first failing pair in row-major
    order.
    """
    scale = max(float(np.max(np.abs(T.matrix))), sc.max_constant)
    for i, e in enumerate(np.eye(sc.dim)):
        gap = T.matrix @ sc.left(e) - sc.left(T.matrix[:, i])
        failing = np.flatnonzero(~within(np.max(np.abs(gap), axis=0), scale))
        if len(failing):
            return False, (i, int(failing[0]))
    return True, None


def extract_symbol(
    T: MultiplierOperator,
    table: FourierTable,
) -> MultiplierSymbol:
    """Symbol of a multiplier: the transform of T delta_i is sigma times the
    transform of delta_i.

    With FT = T^T F, sigma_s = <F[:, s], FT[:, s]> / ||F[:, s]||^2 column by
    column. The residual FT - F sigma is then checked on the full basis; as F
    is invertible, this rejects every operator that is not a multiplier. The
    scale of the check is the largest entry of FT.
    """
    F = table.matrix
    FT = T.matrix.T @ F
    symbol = np.sum(F.conj() * FT, axis=0) / np.sum(np.abs(F) ** 2, axis=0)
    residual = float(np.max(np.abs(FT - F * symbol[None, :])))
    if not within(residual, np.max(np.abs(FT))):
        raise NotMultiplierError(
            f"symbol verification failed on the basis (residual {residual:g})"
        )
    return MultiplierSymbol(values=symbol)


def verify_commutation(
    T1: MultiplierOperator, T2: MultiplierOperator, sc: StructureConstants
) -> float:
    """Max over basis pairs of || T1 f *_w T2 g  -  T2 f *_w T1 g ||_inf: for
    f = delta_i, column j of L_{T1 delta_i} T2 - L_{T2 delta_i} T1."""
    a, b = T1.matrix, T2.matrix
    return max(
        float(np.max(np.abs(sc.left(a[:, i]) @ b - sc.left(b[:, i]) @ a)))
        for i in range(sc.dim)
    )


def multiplier_from_spec(spec: dict, sc: StructureConstants) -> MultiplierOperator:
    """Build an operator from {"kind": "kernel"|"matrix"} JSON specs."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('multiplier spec must be an object with a "kind" field')
    kind = spec["kind"]
    d = sc.dim
    if kind == "kernel":
        vals = _complex_list(spec.get("coset_values"), d, "coset_values")
        h = BiInvariantFunction(coset_values=vals, partition=sc.partition)
        return multiplier_from_kernel(h, sc)
    if kind == "matrix":
        rows = spec.get("rows")
        if not isinstance(rows, list) or len(rows) != d:
            raise InputSpecError(f'"rows" must be a {d}x{d} complex matrix')
        matrix = np.array([_complex_list(r, d, "rows") for r in rows])
        return MultiplierOperator(matrix=matrix)
    raise InputSpecError(f"unknown multiplier kind: {kind!r}")


def _complex_list(raw, d: int, field: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != d:
        raise InputSpecError(f'"{field}" must list {d} [re, im] pairs')
    try:
        return np.array([complex(re, im) for re, im in raw])
    except (TypeError, ValueError) as exc:
        raise InputSpecError(f'"{field}" entries must be [re, im] pairs') from exc
