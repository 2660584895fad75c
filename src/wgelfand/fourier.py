"""The weighted spherical Fourier transform and multiplier analysis.

Everything here works in coset coordinates: bi-invariant functions are
vectors of length d, operators are d x d matrices (the product with h is
`StructureConstants.left(h)`), and the transform of delta_i is the character
value chi_s(delta_i). The transform as a sum over G and the convolution
theorem on G are checked by the reference code in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrumError, InputSpecError, NotMultiplierError
from .hecke import StructureConstants
from .spherical import SphericalSet, complex_pairs
from .tolerance import within
from .weighted import BiInvariantFunction, json_number


def injectivity_check(sset: SphericalSet) -> tuple[int, float]:
    """Numerical rank and condition number of the transform matrix
    F[i, s] = chi_s(delta_i), which is `sset.characters.T`: the transform of
    an indicator is the value of the character on it.

    F = diag(w_i) F1 with F1 the weight-free table
    `sset.classical_characters.T`, so the weight cannot change the rank: it
    is counted on F1, as the singular values beyond the tolerance at the
    largest. The condition number is that of F. It is at least the ratio of
    the largest to the smallest row norm of F (sigma_max is at least every
    row norm, sigma_min at most every one); when that ratio reaches 1 / eps,
    sigma_min is below what an SVD resolves and F is singular in floating
    point, as a wide weight makes it. That, or a condition number that is
    not finite, raises DegenerateSpectrumError.
    """
    F = sset.characters.T
    free = np.linalg.svd(sset.classical_characters, compute_uv=False)
    rank = int(np.sum(~within(free, free[0])))
    rows = np.linalg.norm(F, axis=1)
    svals = np.linalg.svd(F, compute_uv=False)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spread, cond = np.max(rows) / np.min(rows), float(svals[0] / svals[-1])
    if not (spread * np.finfo(float).eps < 1 and np.isfinite(cond)):
        raise DegenerateSpectrumError(
            "Fourier table is singular in floating point: weight range too wide"
        )
    return rank, cond


@dataclass(frozen=True)
class MultiplierOperator:
    """A linear operator on coset coordinates, optionally born from a kernel."""

    matrix: np.ndarray
    kernel: Optional[BiInvariantFunction] = None


@dataclass(frozen=True)
class MultiplierSymbol:
    """Pointwise spectral action of a multiplier, one value per spherical
    function, in SphericalSet order."""

    values: np.ndarray

    def to_json(self) -> dict:
        return {"symbol": complex_pairs(self.values)}


def multiplier_from_kernel(h: BiInvariantFunction, sc: StructureConstants) -> MultiplierOperator:
    """Matrix of f -> h *_w f on the indicator basis. A matrix that is not
    finite raises DegenerateSpectrumError."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = sc.left(h.coset_values)
    if not np.all(np.isfinite(matrix)):
        raise DegenerateSpectrumError("kernel operator overflows: kernel entries too large")
    return MultiplierOperator(matrix=matrix, kernel=h)


def is_multiplier(
    T: MultiplierOperator, sc: StructureConstants
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check T(delta_e *_w delta_j) = (T delta_e) *_w delta_j for every j,
    with e the identity coset.

    c[e,j,k] = |K| w_e [j = k], so u = delta_e / (|K| w_e) is the unit and,
    divided by |K| w_e, the check reads T = L_{T u}, with L_h = sc.left(h).
    It compares T with L_{T u}, at the scale of their largest entry. Then
    T(f * g) = (T u) * f * g = (T f) * g for all f, g, so a check that passes
    on row e passes on every row (Wendel 1952). The witness is the first
    failing pair (e, j): column j of T - L_{T u}.
    """
    e = sc.partition.identity_coset
    L = sc.left(T.matrix[:, e] / (sc.partition.sizes[e] * sc.wd[e]))
    scale = max(float(np.max(np.abs(T.matrix))), float(np.max(np.abs(L))))
    failing = np.flatnonzero(~within(np.max(np.abs(T.matrix - L), axis=0), scale))
    return (False, (e, int(failing[0]))) if len(failing) else (True, None)


def extract_symbol(T: MultiplierOperator, sset: SphericalSet) -> MultiplierSymbol:
    """Symbol of a multiplier: the transform of T u, with u the unit.

    T delta_i = (T u) * delta_i, so with FT = T^T F (row i the transform of
    T delta_i) the symbol is read off the identity coset's row:
    sigma = FT[e] / F[e], as F[e, s] = chi_s(delta_e) = |K| w_e and
    delta_e = |K| w_e u. The residual R = FT - F sigma is then checked on the
    full basis; as F is invertible, this rejects every operator that is not
    a multiplier. R = (T - L_{T u})^T F, so column s of R is at most
    max|T - L_{T u}| times sum_j |F[j, s]|: each column is compared at
    max(1, max|T|) times that sum, the bound that passing `is_multiplier`
    gives, so an operator it accepts is not rejected here (up to rounding).
    A symbol or residual that is not finite raises DegenerateSpectrumError.
    """
    F = sset.characters.T
    e = sset.partition.identity_coset
    with np.errstate(over="ignore", invalid="ignore"):
        FT = T.matrix.T @ F
        symbol = FT[e] / F[e]
        residual = np.max(np.abs(FT - F * symbol[None, :]), axis=0)
        scale = max(1.0, float(np.max(np.abs(T.matrix)))) * np.sum(np.abs(F), axis=0)
    if not (np.all(np.isfinite(symbol)) and np.all(np.isfinite(residual))):
        raise DegenerateSpectrumError("multiplier symbol overflows: operator entries too large")
    if not np.all(within(residual, scale)):
        raise NotMultiplierError(
            f"symbol verification failed on the basis (residual {np.max(residual):g})"
        )
    return MultiplierSymbol(values=symbol)


def verify_commutation(T1: MultiplierOperator, T2: MultiplierOperator) -> float:
    """max |T1 T2 - T2 T1|, for two operators that passed `is_multiplier`.

    Multipliers satisfy T(f * g) = T f * g = f * T g, so
    T1 f * T2 g - T2 f * T1 g = [T1, T2](f * g); the algebra has a unit, so
    this vanishes for all f, g exactly when the matrix commutator does. A
    residual that is not finite raises DegenerateSpectrumError.
    """
    a, b = T1.matrix, T2.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(a @ b - b @ a)))
    if not np.isfinite(residual):
        raise DegenerateSpectrumError("commutation residual overflows: operator entries too large")
    return residual


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
    """d [re, im] pairs of finite JSON numbers as a complex vector."""
    if not isinstance(raw, list) or len(raw) != d or not all(
        isinstance(z, list) and len(z) == 2 for z in raw
    ):
        raise InputSpecError(f'"{field}" must list {d} [re, im] pairs')
    parts = np.array([[json_number(v, f'"{field}" parts') for v in z] for z in raw])
    if not np.all(np.isfinite(parts)):
        raise InputSpecError(f'"{field}" entries must be [re, im] pairs of finite numbers')
    return parts.view(complex).ravel()
