"""The weighted Hecke algebra on the double-coset indicator basis.

Structure constants, their commutativity witness (the weighted Gelfand
verdict, `StructureConstants.commutativity_witness`) and the
automorphism-based sufficient condition. The weight enters only as the coset
weights wd that `weighted.weight_from_spec` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputSpecError, WGelfandError
from .groups import DoubleCosetPartition, GroupTable
from .weighted import checked_weights


@dataclass(frozen=True)
class StructureConstants:
    """delta_i *_w delta_j = sum_k c[i,j,k] delta_k, kept as integers.

    c[i,j,k] = p[i,j,k] w_i w_j / w_k, where p[i,j,k] = #{y in D_i : y^-1 r_k
    in D_j} (r_k the representative of D_k) does not depend on the weight and
    w_i = wd[i]. p is stored as COO: the sorted int64 keys (i d + j) d + k of
    its nonzeros and their int64 counts; c is never formed. Every weighted
    operator is the classical one conjugated by W = diag(wd):
    L^w_h = W^-1 L^1_{W h} W. Of the double cosets it keeps what later
    stages read, nothing |G|-sized: sizes[i] = |D_i|, reps[i] = r_i, the
    coset inverse_coset[i] of the inverses of D_i, and the identity coset.
    """

    keys: np.ndarray
    counts: np.ndarray
    wd: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray
    inverse_coset: np.ndarray
    identity_coset: int

    @property
    def dim(self) -> int:
        return len(self.wd)

    @cached_property
    def ijk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k) of every nonzero of p, in row-major order."""
        ij, k = np.divmod(self.keys, self.dim)
        return (*np.divmod(ij, self.dim), k)

    def left(self, h: np.ndarray) -> np.ndarray:
        """Matrix of f -> h *_w f on the indicator basis: W^-1 L^1_{W h} W,
        with L^1_g[k, j] = sum_i g_i p[i,j,k] binned over the nonzeros."""
        d, (i, j, k) = self.dim, self.ijk
        g = (np.asarray(h, dtype=complex) * self.wd)[i] * self.counts
        kj = k * d + j
        flat = np.bincount(kj, g.real, d * d) + 1j * np.bincount(kj, g.imag, d * d)
        return flat.reshape(d, d) * (self.wd[None, :] / self.wd[:, None])

    @cached_property
    def commutativity_witness(self) -> Optional[tuple[int, int, int]]:
        """The weighted Gelfand verdict: None if the algebra commutes, else
        (i, j, x) at the first (i, j, k) in row-major order with
        p[i,j,k] != p[j,i,k]: delta_i *_w delta_j and delta_j *_w delta_i
        differ at x = r_k. The verdict is exact and does not depend on the
        weight: c[i,j,k] = c[j,i,k] iff p[i,j,k] = p[j,i,k], as the weight
        rescales both by w_i w_j / w_k > 0. It commutes iff the swapped keys
        (j, i, k), sorted once, and their counts equal keys and counts. At
        the first position t where they differ all earlier pairs agree, so
        the lesser of the two keys at t is the least mismatched key."""
        d, keys = self.dim, self.keys
        ij = keys // d
        swapped = keys + (ij % d - ij // d) * (d * (d - 1))  # (j d + i) d + k
        del ij
        order = np.argsort(swapped)
        swapped = swapped[order]
        bad = np.flatnonzero((swapped != keys) | (self.counts[order] != self.counts))
        if not len(bad):
            return None
        ij, k = divmod(int(min(keys[bad[0]], swapped[bad[0]])), d)
        return ij // d, ij % d, int(self.reps[k])


def hecke_structure_constants(
    group: GroupTable, partition: DoubleCosetPartition, wd: np.ndarray
) -> StructureConstants:
    """Sparse intersection numbers p and the coset weights wd: the one step
    after the double cosets that reads the group table.

    One np.unique over the |G| d codes (i d + j) d + k of (coset of y, coset
    of y^-1 r_k, k) counts p[i,j,k] and returns the keys in row-major order.
    wd holds one finite weight > 0 per double coset, as `weight_from_spec`
    returns it; anything else raises InputSpecError.
    """
    d = partition.num_cosets
    if np.shape(wd) != (d,):
        raise InputSpecError(f"weight needs {d} values, got {np.shape(wd)}")
    wd = checked_weights(wd)
    codes = partition.coset_of[group.product(group.inv[:, None], partition.reps)]
    codes += partition.coset_of[:, None] * d
    codes *= d
    codes += np.arange(d)
    keys, counts = np.unique(codes, return_counts=True)
    return StructureConstants(keys, counts, wd, partition.sizes, partition.reps,
                              partition.inverse_coset, partition.identity_coset)


def check_rap_condition(
    sc: StructureConstants, partition: DoubleCosetPartition, theta: np.ndarray
) -> bool:
    """Sufficient condition for the weighted Gelfand property of sc, the
    structure constants on the double cosets `partition`, with theta the
    permutation of a verified involutive automorphism.

    True iff theta(x) lies in K x^-1 K, the inverse coset of the coset of
    x, for all x, and w∘theta = w. Given the first, w(theta(x)) is the
    weight of the inverse coset of x's coset, so the second is the symmetry
    of the coset weights, wd[inverse_coset] == wd, compared exactly.
    Whenever both hold, the commutativity of sc is cross-validated and a
    failure raises (it would contradict the theorem).
    """
    coset_of = partition.coset_of
    lands = np.array_equal(partition.inverse_coset[coset_of], coset_of[theta])
    ok = lands and np.array_equal(sc.wd[sc.inverse_coset], sc.wd)
    if ok and sc.commutativity_witness is not None:
        raise WGelfandError(
            "sufficient condition held but the algebra is noncommutative; "
            f"witness {sc.commutativity_witness}"
        )
    return ok
