"""The weighted Hecke algebra on the double-coset indicator basis.

Structure constants, commutativity (the weighted Gelfand property), the
automorphism-based sufficient condition and the inversion-sum necessary
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BiInvarianceError, NotInvolutiveError, PreconditionError, WGelfandError
from .groups import (
    DoubleCosetPartition,
    GroupAutomorphism,
    GroupTable,
    SubgroupEmbedding,
    double_cosets,
    theta_in_KxinvK,
)
from .weighted import Weight, weight_checks

DEFAULT_TOL = 1e-9


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

    def left_multiplication_matrix(self, i: int) -> np.ndarray:
        """Matrix of f -> delta_i *_w f in coset coordinates."""
        return self.c[i].T.copy()

    def convolve_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coordinates of (sum u_i delta_i) *_w (sum v_j delta_j)."""
        return np.einsum("i,j,ijk->k", u, v, self.c)


@dataclass(frozen=True)
class GelfandReport:
    """Verdict on whether (G, K, w) is a weighted Gelfand pair."""

    is_weighted_gelfand: bool
    witness: Optional[tuple[int, int, int]] = None
    rap_condition: Optional[bool] = None
    rap_theta: Optional[GroupAutomorphism] = None
    unimodularity_identity: Optional[bool] = None

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            i, j, x = self.witness
            witness = {"basis_i": i, "basis_j": j, "element": x}
        return {
            "gelfand": self.is_weighted_gelfand,
            "witness": witness,
            "rap": self.rap_condition,
            "unimodularity": self.unimodularity_identity,
        }


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
    tol: float = DEFAULT_TOL,
    sc: Optional[StructureConstants] = None,
) -> GelfandReport:
    """Test commutativity of the weighted Hecke algebra on the indicator basis.

    The verdict is exact and weight-independent: c[i,j,k] = c[j,i,k] iff
    p[i,j,k] = p[j,i,k], as the weight rescales both by w_i w_j / w_k > 0.
    On failure the witness is (i, j, x) at the first mismatch: an element x
    where delta_i *_w delta_j and delta_j *_w delta_i differ. When w(e) = 1
    the inversion-sum identity is also evaluated (within tol) and reported.
    """
    if sc is None:
        sc = hecke_structure_constants(group, K, w, partition=partition)
    partition = sc.partition
    mismatch = np.argwhere(sc.p != sc.p.transpose(1, 0, 2))
    witness = None
    if len(mismatch):
        i, j, k = (int(v) for v in mismatch[0])
        witness = (i, j, partition.representative(k))
    unimod = None
    if w.unit_at_identity(group, tol=tol):
        unimod = check_unimodularity_identity(group, K, w, partition=partition, tol=tol)
    return GelfandReport(
        is_weighted_gelfand=witness is None,
        witness=witness,
        unimodularity_identity=unimod,
    )


def check_rap_condition(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    theta: GroupAutomorphism,
    partition: Optional[DoubleCosetPartition] = None,
    tol: float = DEFAULT_TOL,
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
        report = is_weighted_gelfand(group, K, w, partition=partition, tol=tol, sc=sc)
        if not report.is_weighted_gelfand:
            raise WGelfandError(
                "sufficient condition held but the algebra is noncommutative; "
                f"witness {report.witness}"
            )
    return ok


def check_unimodularity_identity(
    group: GroupTable,
    K: SubgroupEmbedding,
    w: Weight,
    partition: Optional[DoubleCosetPartition] = None,
    tol: float = 1e-10,
) -> bool:
    """Inversion-sum identity on every indicator: a necessary condition.

    For each double-coset indicator f, compares
    sum_x f(x) w(x) w(x^-1) with sum_x f(x^-1) w(x^-1) w(x). Requires w(e)=1.
    """
    if not w.unit_at_identity(group, tol=tol):
        raise PreconditionError("identity requires w(e) = 1")
    if partition is None:
        partition = double_cosets(group, K)
    ww = w.values * w.values[group.inv]
    for coset in partition.cosets:
        idx = list(coset)
        inv_idx = group.inv[idx]
        lhs = float(np.sum(ww[idx]))
        rhs = float(np.sum(ww[inv_idx]))
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
            return False
    return True
