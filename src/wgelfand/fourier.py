"""The weighted spherical Fourier transform and multiplier analysis.

Everything here works in coset coordinates: bi-invariant functions are
vectors of length d, operators are d x d matrices (the product with h is
`StructureConstants.left(h)`), and the transform of delta_i is the character
value chi_s(delta_i). The transform as a sum over G and the convolution
theorem on G are checked by the reference code in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DegenerateSpectrumError, InputSpecError
from .hecke import StructureConstants
from .spherical import SphericalSet
from .tolerance import within
from .weighted import json_number


def injectivity_check(sset: SphericalSet) -> tuple[int, float]:
    """Rank and condition number of the transform matrix
    F[i, s] = chi_s(delta_i), which is `sset.characters.T`: the transform of
    an indicator is the value of the character on it.

    The rank is d. `enumerate_spherical` certified the weight-free table
    F1 = `sset.classical_characters.T` by the orthogonality relations,
    F1^H diag(1 / |D|) F1 = diag(|G| / m), so F1 is invertible, with
    F1^-1 = diag(m / |G|) F1^H diag(1 / |D|), and F = diag(w_i) F1 is too,
    whatever the weight. The condition number is that of F, from its one
    SVD. It is at least the ratio of the largest to the smallest row norm
    of F (sigma_max is at least every row norm, sigma_min at most every
    one); when that ratio reaches 1 / eps, sigma_min is below what an SVD
    resolves and F is singular in floating point, as a wide weight makes
    it. That, or a condition number that is not finite, raises
    DegenerateSpectrumError.
    """
    F = sset.characters.T
    rows = np.linalg.norm(F, axis=1)
    svals = np.linalg.svd(F, compute_uv=False)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spread, cond = np.max(rows) / np.min(rows), float(svals[0] / svals[-1])
    if not (spread * np.finfo(float).eps < 1 and np.isfinite(cond)):
        raise DegenerateSpectrumError(
            "Fourier table is singular in floating point: weight range too wide"
        )
    return len(sset), cond


def multiplier_from_kernel(h: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """L_h, the matrix of f -> h *_w f on the indicator basis, for the coset
    values h of a kernel. An h without one value per double coset raises
    InputSpecError; a matrix that is not finite raises
    DegenerateSpectrumError."""
    if np.shape(h) != (sc.dim,):
        raise InputSpecError(f"kernel needs {sc.dim} coset values, got {np.shape(h)}")
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = sc.left(h)
    if not np.all(np.isfinite(matrix)):
        raise DegenerateSpectrumError("kernel operator overflows: kernel entries too large")
    return matrix


def _unit_image(T: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """T u for the unit u = delta_e / (|K| w_e), e the identity coset:
    c[e,j,k] = |K| w_e [j = k]."""
    e = sc.partition.identity_coset
    return T[:, e] / (sc.partition.sizes[e] * sc.wd[e])


def is_multiplier(T: np.ndarray, sc: StructureConstants) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check T(delta_e *_w delta_j) = (T delta_e) *_w delta_j for every j,
    with e the identity coset: the one place a multiplier is decided.

    Divided by |K| w_e, the check reads T = L_{T u}, with u the unit and
    L_h = `multiplier_from_kernel(h, sc)`. It compares T with L_{T u} at
    the scale of their largest entry modulus; where L_{T u} or that scale
    is not finite, nothing can be compared: DegenerateSpectrumError. Then
    T(f * g) = (T u) * f * g = (T f) * g for all f, g, so a check that
    passes on row e passes on every row (Wendel 1952). The witness is the
    first failing pair (e, j): column j of T - L_{T u}.
    """
    L = multiplier_from_kernel(_unit_image(T, sc), sc)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(float(np.max(np.abs(T))), float(np.max(np.abs(L))))
        failing = np.flatnonzero(~within(np.max(np.abs(T - L), axis=0), scale))
    if not np.isfinite(scale):
        raise DegenerateSpectrumError("multiplier check overflows: operator entries too large")
    e = sc.partition.identity_coset
    return (False, (e, int(failing[0]))) if len(failing) else (True, None)


def extract_symbol(T: np.ndarray, sc: StructureConstants, sset: SphericalSet) -> np.ndarray:
    """Symbol of a multiplier T, one value per spherical function in
    SphericalSet order: the transform of T u, with u the unit, as
    T f = (T u) * f. T must have passed `is_multiplier`, which decides
    that T = L_{T u}. A symbol that is not finite raises
    DegenerateSpectrumError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = sset.characters @ _unit_image(T, sc)
    if not np.all(np.isfinite(symbol)):
        raise DegenerateSpectrumError("multiplier symbol overflows: operator entries too large")
    return symbol


def verify_commutation(T1: np.ndarray, T2: np.ndarray) -> float:
    """max |T1 T2 - T2 T1|, for two operators that passed `is_multiplier`.

    Multipliers satisfy T(f * g) = T f * g = f * T g, so
    T1 f * T2 g - T2 f * T1 g = [T1, T2](f * g); the algebra has a unit, so
    this vanishes for all f, g exactly when the matrix commutator does. A
    residual that is not finite raises DegenerateSpectrumError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(T1 @ T2 - T2 @ T1)))
    if not np.isfinite(residual):
        raise DegenerateSpectrumError("commutation residual overflows: operator entries too large")
    return residual


def multiplier_from_spec(
    spec: dict, sc: StructureConstants
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(operator, kernel) from {"kind": "kernel"|"matrix"} JSON specs: L_h
    and the coset values h for a kernel, the matrix and None for a matrix."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('multiplier spec must be an object with a "kind" field')
    kind = spec["kind"]
    d = sc.dim
    if kind == "kernel":
        h = _complex_list(spec.get("coset_values"), d, "coset_values")
        return multiplier_from_kernel(h, sc), h
    if kind == "matrix":
        rows = spec.get("rows")
        if not isinstance(rows, list) or len(rows) != d:
            raise InputSpecError(f'"rows" must be a {d}x{d} complex matrix')
        return np.array([_complex_list(r, d, "rows") for r in rows]), None
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
