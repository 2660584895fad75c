"""Coset weights.

A K-bi-invariant weight w enters the weighted Hecke algebra only through its
value w_i on each double coset D_i: c[i,j,k] = p[i,j,k] w_i w_j / w_k.
`weight_from_spec` is the one place a weight is read and validated, and
every later stage takes the float vector wd of coset weights. Its invariance
properties are compared exactly. The weighted convolution and the other
definitions on G are reference code in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import BiInvarianceError, InputSpecError
from .groups import DoubleCosetPartition, json_floats


def weight_from_spec(spec: dict, partition: DoubleCosetPartition) -> np.ndarray:
    """The coset weights wd of a JSON-style weight spec.

    Kinds: "uniform"; "by_element" with one value per element of G, which
    must be K-bi-invariant (else BiInvarianceError with a witness); and
    "by_double_coset" with a {cosetId: value} map. The values must be finite
    and > 0.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputSpecError('weight spec must be an object with a "kind" field')
    kind = spec["kind"]
    d = partition.num_cosets
    try:
        if kind == "uniform":
            return np.ones(d)
        if kind == "by_element":
            n = len(partition.coset_of)
            raw = spec.get("values", [])
            if np.shape(raw) != (n,):
                raise InputSpecError(f"weight needs {n} values, got {np.shape(raw)}")
            values = checked_weights(raw)
            witness = bi_invariance_witness(values, partition)
            if witness is not None:
                raise BiInvarianceError(*witness)
            return values[partition.reps]
        if kind == "by_double_coset":
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
            raw = []
            for cid in range(d):
                key = str(cid) if str(cid) in table else cid
                if key not in table:
                    break
                raw.append(table[key])
            # a bad value is named before a missing one that follows it
            values = json_floats(raw, "weight values")
            if len(raw) < d:
                raise InputSpecError(f"missing weight for double coset {len(raw)}")
            return checked_weights(values)
    except (TypeError, ValueError) as exc:
        raise InputSpecError(f"weight values must be numbers: {exc}") from exc
    raise InputSpecError(f"unknown weight kind: {kind!r}")


def checked_weights(values) -> np.ndarray:
    """values as a float array, finite and > 0, read as a spec's numbers are
    (`json_floats`): a string or a boolean raises InputSpecError."""
    vals = json_floats(values, "weight values")
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise InputSpecError("weight must be finite and strictly positive")
    return vals


def bi_invariance_witness(
    values: np.ndarray, partition: DoubleCosetPartition
) -> Optional[tuple[int, int]]:
    """None if the per-element values are constant on every double coset,
    else the first pair (first element of a coset, element of that coset)
    with different values, coset by coset; compared exactly."""
    flat = np.argsort(partition.coset_of, kind="stable")
    ref = partition.reps[partition.coset_of[flat]]
    bad = np.flatnonzero(values[flat] != values[ref])
    return (int(ref[bad[0]]), int(flat[bad[0]])) if len(bad) else None


def theta_invariant(wd: np.ndarray, partition: DoubleCosetPartition, theta: np.ndarray) -> bool:
    """w(theta(x)) = w(x) for every x, with theta a permutation of G,
    compared exactly on the coset weights: w(x) is the weight of the coset
    of x."""
    coset_of = partition.coset_of
    return bool(np.array_equal(wd[coset_of[theta]], wd[coset_of]))
