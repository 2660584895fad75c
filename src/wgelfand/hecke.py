"""The weighted Hecke algebra on the double-coset indicator basis.

Structure constants, commutativity (the weighted Gelfand property) and the
automorphism-based sufficient condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BiInvarianceError, NotInvolutiveError, WGelfandError
from .groups import (
    DoubleCosetPartition,
    GroupAutomorphism,
    GroupTable,
    SubgroupEmbedding,
    double_cosets,
    theta_in_KxinvK,
)
from .weighted import Weight, weight_checks


@dataclass(frozen=True)
class StructureConstants:
    """delta_i *_w delta_j = sum_k c[i,j,k] delta_k, kept as integers.

    c[i,j,k] = p[i,j,k] w_i w_j / w_k, where p[i,j,k] = #{y in D_i : y^-1 r_k
    in D_j} (r_k the representative of D_k) does not depend on the weight and
    w_i = wd[i]. p is stored as COO: the sorted int64 keys (i d + j) d + k of
    its nonzeros and their int32 counts; c is never formed. Every weighted
    operator is the classical one conjugated by W = diag(wd):
    L^w_h = W^-1 L^1_{W h} W.
    """

    keys: np.ndarray
    counts: np.ndarray
    wd: np.ndarray
    partition: DoubleCosetPartition

    @property
    def dim(self) -> int:
        return len(self.wd)

    @cached_property
    def ijk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k) of every nonzero of p, in row-major order."""
        ij, k = np.divmod(self.keys, self.dim)
        return (*np.divmod(ij, self.dim), k)

    @cached_property
    def max_constant(self) -> float:
        """max c[i,j,k]; inf where w_i w_j / w_k overflows on a nonzero."""
        i, j, k = self.ijk
        with np.errstate(over="ignore"):
            return float(np.max(self.counts * (self.wd[i] * self.wd[j] / self.wd[k])))

    def left(self, h: np.ndarray) -> np.ndarray:
        """Matrix of f -> h *_w f on the indicator basis: W^-1 L^1_{W h} W,
        with L^1_g[k, j] = sum_i g_i p[i,j,k] binned over the nonzeros."""
        d, (i, j, k) = self.dim, self.ijk
        g = (np.asarray(h, dtype=complex) * self.wd)[i] * self.counts
        kj = k * d + j
        flat = np.bincount(kj, g.real, d * d) + 1j * np.bincount(kj, g.imag, d * d)
        return flat.reshape(d, d) * (self.wd[None, :] / self.wd[:, None])

    def convolve_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coordinates of (sum u_i delta_i) *_w (sum v_j delta_j)."""
        return self.left(u) @ np.asarray(v, dtype=complex)

    @cached_property
    def commutativity_witness(self) -> Optional[tuple[int, int, int]]:
        """None if the algebra commutes, else (i, j, x) at the first (i, j, k)
        in row-major order with p[i,j,k] != p[j,i,k]: delta_i * delta_j and
        delta_j * delta_i differ at x = r_k. The swapped keys (j, i, k) are
        sorted and looked up in the keys; the mismatches are closed under the
        swap, so the first is the least mismatched key or swapped key."""
        d, keys = self.dim, self.keys
        ij = keys // d
        swapped = keys + (ij % d - ij // d) * (d * (d - 1))  # (j d + i) d + k
        del ij
        order = np.argsort(swapped)
        pos = np.minimum(np.searchsorted(keys, swapped[order]), len(keys) - 1)
        hit = keys[pos] == swapped[order]
        other = np.zeros_like(self.counts)
        other[order[hit]] = self.counts[pos[hit]]
        bad = np.flatnonzero(other != self.counts)
        if not len(bad):
            return None
        ij, k = divmod(int(min(keys[bad[0]], swapped[bad].min())), d)
        return ij // d, ij % d, self.partition.representative(k)


@dataclass(frozen=True)
class GelfandReport:
    """Verdict on whether (G, K, w) is a weighted Gelfand pair."""

    is_weighted_gelfand: bool
    witness: Optional[tuple[int, int, int]] = None

    def to_json(self) -> dict:
        witness = self.witness and dict(zip(("basis_i", "basis_j", "element"), self.witness))
        return {"gelfand": self.is_weighted_gelfand, "witness": witness}


def hecke_structure_constants(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
) -> StructureConstants:
    """Sparse intersection numbers p and the coset weights.

    One np.unique over the |G| d codes (i d + j) d + k of (coset of y, coset
    of y^-1 r_k, k) counts p[i,j,k] and returns the keys in row-major order.
    Requires a K-bi-invariant weight; raises BiInvarianceError with a witness
    otherwise.
    """
    if partition is None:
        partition = double_cosets(group, K)
    flags = weight_checks(w, group, partition)
    if not flags.k_bi_invariant:
        raise BiInvarianceError(*flags.bi_invariance_witness)
    d = partition.num_cosets
    reps = np.array([coset[0] for coset in partition.cosets], dtype=np.int64)
    codes = partition.coset_of[group.mul[np.ix_(group.inv, reps)]]
    codes += partition.coset_of[:, None] * d
    codes *= d
    codes += np.arange(d)
    keys, counts = np.unique(codes, return_counts=True)
    return StructureConstants(
        keys=keys, counts=counts.astype(np.int32), wd=w.values[reps], partition=partition
    )


def is_weighted_gelfand(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
    sc: Optional[StructureConstants] = None,
) -> GelfandReport:
    """Test commutativity of the weighted Hecke algebra on the indicator basis.

    The verdict is exact and weight-independent: c[i,j,k] = c[j,i,k] iff
    p[i,j,k] = p[j,i,k], as the weight rescales both by w_i w_j / w_k > 0.
    On failure the witness is (i, j, x) at the first mismatch: an element x
    where delta_i *_w delta_j and delta_j *_w delta_i differ.
    """
    if sc is None:
        sc = hecke_structure_constants(group, K, w, partition=partition)
    witness = sc.commutativity_witness
    return GelfandReport(is_weighted_gelfand=witness is None, witness=witness)


def check_rap_condition(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    theta: GroupAutomorphism,
    partition: Optional[DoubleCosetPartition] = None,
    sc: Optional[StructureConstants] = None,
) -> bool:
    """Sufficient condition for the weighted Gelfand property.

    True iff w is K-bi-invariant, w∘theta = w, and theta(x) lies in K x^-1 K
    for all x. Whenever all three hold, commutativity of the algebra is
    cross-validated and a failure raises (it would contradict the theorem).
    """
    if not theta.involutive:
        raise NotInvolutiveError("rap condition requires an involutive automorphism")
    if partition is None:
        partition = sc.partition if sc is not None else double_cosets(group, K)
    flags = weight_checks(w, group, partition, theta=theta)
    ok = flags.k_bi_invariant and flags.theta_invariant
    ok = ok and theta_in_KxinvK(group, partition, theta)[0]
    if ok:
        report = is_weighted_gelfand(group, K, w, partition=partition, sc=sc)
        if not report.is_weighted_gelfand:
            raise WGelfandError(
                "sufficient condition held but the algebra is noncommutative; "
                f"witness {report.witness}"
            )
    return ok
