"""Weights, their invariance checks, and bi-invariant functions.

A weight is a strictly positive value per element of G, read from a spec;
its invariance properties are compared exactly. Once it is known to be
K-bi-invariant, the pipeline reads it as one value per double coset, the
form in which bi-invariant functions are stored. The weighted convolution
and the other definitions on G are reference code in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputSpecError
from .groups import DoubleCosetPartition, GroupAutomorphism, GroupTable


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

    def unit_at_identity(self, group: GroupTable) -> bool:
        """w(e) = 1, exactly: the one test of this precondition."""
        return bool(self.values[group.identity] == 1.0)


@dataclass(frozen=True)
class WeightFlags:
    """Invariance properties of a weight; K-bi-invariance is
    `bi_invariance_witness`, which the structure-constant build runs."""

    symmetric: bool
    unit_at_identity: bool
    theta_invariant: Optional[bool] = None


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
            return Weight(np.array([json_number(v) for v in raw]))
        if kind == "by_double_coset":
            if partition is None:
                raise InputSpecError('kind "by_double_coset" requires double cosets')
            table = spec.get("values", {})
            if not isinstance(table, dict):
                raise InputSpecError(
                    '"by_double_coset" values must be an object {cosetId: value}, '
                    f"got {type(table).__name__}"
                )
            ids = {str(cid) for cid in range(partition.num_cosets)}
            unknown = [key for key in table if str(key) not in ids]
            if unknown:
                raise InputSpecError(
                    f"weight for unknown double coset {unknown[0]!r}: "
                    f"ids are 0..{partition.num_cosets - 1}"
                )
            vals = np.empty(partition.num_cosets)
            for cid in range(partition.num_cosets):
                key = str(cid) if str(cid) in table else cid
                if key not in table:
                    raise InputSpecError(f"missing weight for double coset {cid}")
                vals[cid] = json_number(table[key])
            return Weight(vals[partition.coset_of])
    except (TypeError, ValueError) as exc:
        raise InputSpecError(f"weight values must be numbers: {exc}") from exc
    raise InputSpecError(f"unknown weight kind: {kind!r}")


def json_number(value, what: str = "weight values") -> float:
    """A JSON number as a float: the one rule for the numbers of every spec.
    Booleans and strings are not numbers; an integer beyond the float range
    is rejected too."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputSpecError(f"{what} must be numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputSpecError(f"{what} must be finite numbers, got {value!r}") from None


def bi_invariance_witness(
    w: Weight, partition: DoubleCosetPartition
) -> Optional[tuple[int, int]]:
    """None if w is constant on every double coset, else the first pair
    (first element of a coset, element of that coset) with different values,
    coset by coset; compared exactly."""
    flat = np.argsort(partition.coset_of, kind="stable")
    ref = partition.reps[partition.coset_of[flat]]
    bad = np.flatnonzero(w.values[flat] != w.values[ref])
    return (int(ref[bad[0]]), int(flat[bad[0]])) if len(bad) else None


def weight_checks(
    w: Weight,
    group: GroupTable,
    theta: Optional[GroupAutomorphism] = None,
) -> WeightFlags:
    """Fill the invariance flags of a weight; the values are compared exactly."""
    vals = w.values
    symmetric = bool(np.all(vals == vals[group.inv]))
    theta_inv = None
    if theta is not None:
        theta_inv = bool(np.all(vals == vals[theta.perm]))
    return WeightFlags(
        symmetric=symmetric,
        unit_at_identity=w.unit_at_identity(group),
        theta_invariant=theta_inv,
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
