"""The weighted spherical Fourier transform and multiplier analysis.

Everything here works in coset coordinates: bi-invariant functions are
vectors of length d, operators are d x d matrices (the product with h is
`StructureConstants.left(h)`), and the transform of delta_i is the character
value chi_s(delta_i). The transform as a sum over G and the convolution
theorem on G are checked by the reference code in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrumError, InputSpecError
from .groups import json_array, json_floats
from .hecke import StructureConstants
from .spherical import SphericalSet
from .tolerance import within


def injectivity_check(sset: SphericalSet) -> tuple[int, tuple[float, float]]:
    """Rank of the transform table F[i, s] = chi_s(delta_i), which is
    `sset.characters.T`, and a bracket (L, U) of its condition number kappa_2.

    The orthogonality relations that `enumerate_spherical` certified for
    F1 = `sset.classical_characters.T` factor F = diag(w) F1 as
    diag(w_i sqrt|D_i|) A diag(sqrt(|G| / m_s)) with A unitary, so F has
    rank d whatever the weight. From P = |F|^2, at O(d^2): L is the larger
    spread (max / min) of the row and the column norms, as sigma_max is at
    least and sigma_min at most each of them; U = (max a / min a)
    sqrt(max m / min m), as kappa_2 is submultiplicative, with
    a_i = |F[i, :] sqrt(m)| = w_i sqrt|D_i| sqrt|G|, and U is raised to L
    where rounding leaves it below. Where the |D_i| are all equal and so
    are the m_s, as on C_n over 1, L = U. Row norms that overflow raise
    DegenerateSpectrumError, and so do row norms that span 1 / eps or more
    or a bound that is not finite: F is then singular in floating point.
    """
    F, m = sset.characters.T, sset.multiplicities
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        P = F.real**2 + F.imag**2
        rows, cols, a = np.sqrt(P.sum(axis=1)), np.sqrt(P.sum(axis=0)), np.sqrt(P @ m)
        spread = np.max(rows) / np.min(rows)
        lower = np.maximum(spread, np.max(cols) / np.min(cols))
        upper = np.maximum(lower, np.max(a) / np.min(a) * np.sqrt(np.max(m) / np.min(m)))
    if not np.isfinite(np.max(rows)):
        raise DegenerateSpectrumError("Fourier table row norms overflow: weight range too wide")
    if not (spread * np.finfo(float).eps < 1 and np.isfinite(upper)):
        raise DegenerateSpectrumError(
            "Fourier table is singular in floating point: weight range too wide"
        )
    return len(sset), (float(lower), float(upper))


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
    e = sc.identity_coset
    return T[:, e] / (sc.sizes[e] * sc.wd[e])


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
    e = sc.identity_coset
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
    and the coset values h for a kernel, the matrix and None for a matrix.
    The pairs are read at once by `groups.json_array`; only a spec that
    fails is read again, row by row, to word its first error."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('multiplier spec must be an object with a "kind" field')
    kind = spec["kind"]
    d = sc.dim
    if kind == "kernel":
        h = _complex(spec.get("coset_values"), (d,), "coset_values")
        return multiplier_from_kernel(h, sc), h
    if kind == "matrix":
        rows = spec.get("rows")
        if not isinstance(rows, list) or len(rows) != d:
            raise InputSpecError(f'"rows" must be a {d}x{d} complex matrix')
        return _complex(rows, (d, d), "rows"), None
    raise InputSpecError(f"unknown multiplier kind: {kind!r}")


def _complex(raw, shape: tuple[int, ...], field: str) -> np.ndarray:
    """A complex array of `shape` from nested [re, im] pairs of finite
    numbers, by `json_array`; where that fails, the rows (a kernel is one)
    are read again in order, and the first bad one raises."""
    parts = json_array(raw, len(shape) + 1, float)
    if parts is None or parts.shape != (*shape, 2):
        rows = raw if len(shape) > 1 else [raw]
        parts = np.array([_pair_row(row, shape[-1], field) for row in rows]).reshape(*shape, 2)
    return parts.view(complex)[..., 0]


def _pair_row(row, d: int, field: str) -> np.ndarray:
    """The per-entry rule for a row of d [re, im] pairs: its shape, each
    part by `json_floats`, then finiteness."""
    if not isinstance(row, list) or len(row) != d or not all(
        isinstance(z, list) and len(z) == 2 for z in row
    ):
        raise InputSpecError(f'"{field}" must list {d} [re, im] pairs')
    parts = json_floats(list(itertools.chain.from_iterable(row)), f'"{field}" parts')
    if not np.all(np.isfinite(parts)):
        raise InputSpecError(f'"{field}" entries must be [re, im] pairs of finite numbers')
    return parts
