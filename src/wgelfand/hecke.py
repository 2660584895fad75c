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
    """Tensor c with delta_i *_w delta_j = sum_k c[i,j,k] delta_k.

    p[i,j,k] = #{y in D_i : y^-1 r_k in D_j} are the integer intersection
    numbers of the double cosets (r_k the representative of D_k); they do not
    depend on the weight. For a bi-invariant weight with coset values w_i,
    c[i,j,k] = p[i,j,k] w_i w_j / w_k.
    """

    c: np.ndarray
    p: np.ndarray
    partition: DoubleCosetPartition

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def convolve_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coordinates of (sum u_i delta_i) *_w (sum v_j delta_j)."""
        return np.einsum("i,j,ijk->k", u, v, self.c)

    @cached_property
    def commutativity_witness(self) -> Optional[tuple[int, int, int]]:
        """None if the algebra commutes, else (i, j, x) at the first k with
        p[i,j,k] != p[j,i,k]: delta_i * delta_j and delta_j * delta_i differ
        at x = r_k. Computed once per instance."""
        mismatch = np.argwhere(self.p != self.p.transpose(1, 0, 2))
        if not len(mismatch):
            return None
        i, j, k = (int(v) for v in mismatch[0])
        return i, j, self.partition.representative(k)


@dataclass(frozen=True)
class GelfandReport:
    """Verdict on whether (G, K, w) is a weighted Gelfand pair."""

    is_weighted_gelfand: bool
    witness: Optional[tuple[int, int, int]] = None

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            i, j, x = self.witness
            witness = {"basis_i": i, "basis_j": j, "element": x}
        return {"gelfand": self.is_weighted_gelfand, "witness": witness}


def require_bi_invariant(
    w: Weight, group: GroupTable, partition: DoubleCosetPartition
) -> None:
    flags = weight_checks(w, group, partition)
    if not flags.k_bi_invariant:
        x, y = flags.bi_invariance_witness
        raise BiInvarianceError(x, y)


def hecke_structure_constants(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
) -> StructureConstants:
    """Intersection numbers p (one bincount per representative r_k) and c.

    Requires a K-bi-invariant weight; raises BiInvarianceError with a witness
    otherwise.
    """
    if partition is None:
        partition = double_cosets(group, K)
    require_bi_invariant(w, group, partition)
    d = partition.num_cosets
    reps = [coset[0] for coset in partition.cosets]
    row = partition.coset_of * d
    p = np.empty((d, d, d), dtype=np.int32)
    for k, r in enumerate(reps):
        p[:, :, k] = np.bincount(
            row + partition.coset_of[group.mul[group.inv, r]], minlength=d * d
        ).reshape(d, d)
    wd = w.values[reps]
    c = np.einsum("ijk,i,j,k->ijk", p, wd, wd, 1.0 / wd, dtype=complex)
    return StructureConstants(c=c, p=p, partition=partition)


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
    ok = flags.k_bi_invariant and bool(flags.theta_invariant)
    if ok:
        in_coset, _ = theta_in_KxinvK(group, partition, theta)
        ok = in_coset
    if ok:
        report = is_weighted_gelfand(group, K, w, partition=partition, sc=sc)
        if not report.is_weighted_gelfand:
            raise WGelfandError(
                "sufficient condition held but the algebra is noncommutative; "
                f"witness {report.witness}"
            )
    return ok
