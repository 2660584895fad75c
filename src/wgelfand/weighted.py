"""Weights, the weighted L1 norm and convolution, projections and pullbacks.

Functions on G are plain complex numpy arrays of length |G|. Integrals over G
are sums with counting measure; integrals over K are normalized averages
(1/|K|) * sum, so the subgroup carries total mass 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputSpecError, PreconditionError
from .groups import DoubleCosetPartition, GroupAutomorphism, GroupTable, SubgroupEmbedding
from .tolerance import RTOL


@dataclass(frozen=True)
class Weight:
    """A strictly positive real function on the group."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise InputSpecError("weight values must be a flat list")
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise InputSpecError("weight must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, x) -> float:
        return self.values[x]

    def reflect(self, group: GroupTable) -> "Weight":
        """The weight x -> w(x^-1)."""
        return Weight(self.values[group.inv])

    def unit_at_identity(self, group: GroupTable) -> bool:
        """w(e) = 1, exactly: the one test of this precondition."""
        return bool(self.values[group.identity] == 1.0)


@dataclass(frozen=True)
class WeightFlags:
    """Cached invariance properties of a weight, with a witness on failure.

    bi_invariance_witness is a pair of elements in one double coset carrying
    different weight values (present iff k_bi_invariant is False).
    """

    k_bi_invariant: bool
    symmetric: bool
    unit_at_identity: bool
    theta_invariant: Optional[bool] = None
    bi_invariance_witness: Optional[tuple[int, int]] = None


def uniform_weight(group: GroupTable) -> Weight:
    return Weight(np.ones(group.order))


def weight_from_spec(
    spec: dict,
    group: GroupTable,
    partition: Optional[DoubleCosetPartition] = None,
) -> Weight:
    """Build a weight from a JSON-style spec dict.

    Kinds: "uniform"; "by_element" with per-element values; "by_double_coset"
    with a {cosetId: value} map (requires a partition).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('weight spec must be an object with a "kind" field')
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return uniform_weight(group)
        if kind == "by_element":
            raw = spec.get("values", [])
            if np.shape(raw) != (group.order,):
                raise InputSpecError(f"weight needs {group.order} values, got {np.shape(raw)}")
            return Weight(np.array([_number(v) for v in raw]))
        if kind == "by_double_coset":
            if partition is None:
                raise InputSpecError('kind "by_double_coset" requires double cosets')
            table = spec.get("values", {})
            vals = np.empty(group.order)
            for cid in range(partition.num_cosets):
                key = str(cid) if str(cid) in table else cid
                if key not in table:
                    raise InputSpecError(f"missing weight for double coset {cid}")
                vals[list(partition.cosets[cid])] = _number(table[key])
            return Weight(vals)
    except (TypeError, ValueError) as exc:
        raise InputSpecError(f"weight values must be numbers: {exc}") from exc
    raise InputSpecError(f"unknown weight kind: {kind!r}")


def _number(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputSpecError(f"weight values must be numbers, got {value!r}")
    return float(value)


def weight_checks(
    w: Weight,
    group: GroupTable,
    partition: Optional[DoubleCosetPartition] = None,
    theta: Optional[GroupAutomorphism] = None,
) -> WeightFlags:
    """Fill the invariance flags of a weight; the values are compared exactly."""
    vals = w.values
    witness = None
    if partition is not None:
        # elements coset by coset, each against its coset's first element
        flat = np.concatenate(partition.cosets)
        ref = np.repeat([c[0] for c in partition.cosets], partition.sizes())
        bad = np.flatnonzero(vals[flat] != vals[ref])
        if len(bad):
            witness = (int(ref[bad[0]]), int(flat[bad[0]]))
    symmetric = bool(np.all(vals == vals[group.inv]))
    theta_inv = None
    if theta is not None:
        theta_inv = bool(np.all(vals == vals[theta.perm]))
    return WeightFlags(
        k_bi_invariant=witness is None,
        symmetric=symmetric,
        unit_at_identity=w.unit_at_identity(group),
        theta_invariant=theta_inv,
        bi_invariance_witness=witness,
    )


def weighted_l1_norm(f: np.ndarray, w: Weight) -> float:
    """sum_x |f(x)| w(x)."""
    return float(np.sum(np.abs(f) * w.values))


def classical_convolve(f: np.ndarray, g: np.ndarray, group: GroupTable) -> np.ndarray:
    """(f * g)(x) = sum_y f(y) g(y^-1 x)."""
    # rows of mul[inv] give y^-1 x across x
    return np.asarray(f, dtype=complex) @ np.asarray(g, dtype=complex)[group.mul[group.inv]]

def weighted_convolve(
    f: np.ndarray, g: np.ndarray, group: GroupTable, w: Weight
) -> np.ndarray:
    """(f *_w g)(x) = sum_y f(y) g(y^-1 x) w(y) w(y^-1 x) / w(x)."""
    fw = np.asarray(f, dtype=complex) * w.values
    gw = np.asarray(g, dtype=complex) * w.values
    return fw @ gw[group.mul[group.inv]] / w.values


def multiplication_operator(f: np.ndarray, w: Weight) -> np.ndarray:
    """(M_w f)(x) = w(x) f(x)."""
    return np.asarray(f, dtype=complex) * w.values


def translate(f: np.ndarray, group: GroupTable, s: int) -> np.ndarray:
    """(tau_s f)(x) = f(s^-1 x)."""
    return np.asarray(f, dtype=complex)[group.mul[group.inverse(s)]]


def gamma(f: np.ndarray, group: GroupTable, s: int, w: Weight) -> np.ndarray:
    """Weighted translation: tau_s(M_w f) / w."""
    return translate(multiplication_operator(f, w), group, s) / w.values


def sharp_projection(f: np.ndarray, group: GroupTable, K: SubgroupEmbedding) -> np.ndarray:
    """Two-sided K-average (1/|K|^2) sum_{k1,k2} f(k1 x k2).

    Idempotent, lands in the bi-invariant functions, and preserves sum_G f.
    """
    f = np.asarray(f, dtype=complex)
    mul = group.mul
    left = np.zeros_like(f)
    for k in K.elements:
        left += f[mul[k]]
    out = np.zeros_like(f)
    for k in K.elements:
        out += left[mul[:, k]]
    return out / (K.order ** 2)


def theta_pullback(f: np.ndarray, theta: GroupAutomorphism) -> np.ndarray:
    """f^theta(x) = f(theta(x))."""
    return np.asarray(f, dtype=complex)[theta.perm]


def reflect(f: np.ndarray, group: GroupTable) -> np.ndarray:
    """f-check(x) = f(x^-1)."""
    return np.asarray(f, dtype=complex)[group.inv]


def is_bi_invariant(
    f: np.ndarray, partition: DoubleCosetPartition, tol: float = RTOL
) -> bool:
    f = np.asarray(f)
    reps = [c[0] for c in partition.cosets]
    return bool(np.all(np.abs(f - f[reps][partition.coset_of]) <= tol))


def is_left_invariant(
    f: np.ndarray, group: GroupTable, K: SubgroupEmbedding, tol: float = RTOL
) -> bool:
    f = np.asarray(f)
    return all(
        np.max(np.abs(f[group.mul[k]] - f)) <= tol for k in K.elements
    )


@dataclass(frozen=True)
class BiInvariantFunction:
    """A K-bi-invariant function stored by its value on each double coset."""

    coset_values: np.ndarray
    partition: DoubleCosetPartition

    def __post_init__(self):
        vals = np.asarray(self.coset_values, dtype=complex)
        if vals.shape != (self.partition.num_cosets,):
            raise InputSpecError("one value per double coset required")
        object.__setattr__(self, "coset_values", vals)

    def expand(self) -> np.ndarray:
        """The underlying function on all of G."""
        return self.coset_values[self.partition.coset_of]

    @classmethod
    def from_gfunction(
        cls,
        f: np.ndarray,
        partition: DoubleCosetPartition,
    ) -> "BiInvariantFunction":
        f = np.asarray(f, dtype=complex)
        if not is_bi_invariant(f, partition):
            raise PreconditionError("function is not constant on double cosets")
        vals = np.array([f[c[0]] for c in partition.cosets])
        return cls(coset_values=vals, partition=partition)

    @classmethod
    def indicator(cls, i: int, partition: DoubleCosetPartition) -> "BiInvariantFunction":
        vals = np.zeros(partition.num_cosets, dtype=complex)
        vals[i] = 1.0
        return cls(coset_values=vals, partition=partition)
