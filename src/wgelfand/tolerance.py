"""The one numerical tolerance policy of the library.

1. Weights are inputs and are compared exactly. `weighted.weight_from_spec`
   reads a weight once, to its coset weights wd; a `by_element` weight is
   checked for K-bi-invariance there, by `weighted.bi_invariance_witness`.
   Every later property is an equality on wd: symmetry
   wd[inverse_coset] == wd and w(e) = 1 as wd[identity_coset] == 1 for
   the report, and theta-invariance by `weighted.theta_invariant(wd,
   partition, theta)`, decided once for the report and passed on as the
   w_invariant of `check_rap_condition(sc, partition, theta, w_invariant)`.
   The precondition w(e) = 1 of `enumerate_spherical` is the same
   comparison, on the coset-level fields sc.wd[sc.identity_coset].
2. A computed quantity passes when its residual is at most
   RTOL * max(1, scale), where scale is the magnitude of what the residual
   compares (1 where a check has none). A NaN residual fails. This covers
   the character multiplicativity on the rows S that the refinement
   consumed (Light's test), the separation certificate that makes those
   rows enough (any two characters' tuples (chi(g))_{g in S} differ by
   more than the tolerance at scale max |chi(g)|), the eigenvalue split,
   the multiplier identity T = L_{T u}, the kernel match and the Gram
   certificate of the weight-free table `SphericalSet.classical_characters`:
   the off-diagonal of its Gram matrix sum_k chi_s(k) conj(chi_t(k)) / |D_k|
   at the scale of the largest diagonal entry, and each m_s = |G| / diagonal
   at its own scale of the integer it rounds to. The rounded m_s must be at
   least 1 and sum exactly to |G:K|; they are the reported multiplicities,
   and they certify the Fourier rank d.
   The commutation residual is reported only.
3. A computed value that is not finite is a numerical degeneracy, not a
   result: it raises `DegenerateSpectrumError` (exit 3), and never reaches
   the report. This covers the structure constants (`max_constant`), the
   weighted spherical functions and characters, the condition number of
   the Fourier table (also when its row norms span 1 / eps or more, which
   makes it singular in floating point), the kernel operator L_h (also
   the L_{T u} that `is_multiplier` compares T with, and the scale of that
   comparison), the multiplier symbol, and the commutation residual.

The Gelfand verdict and the group axioms of a table (`validate_group`, with
Light's associativity test on the raw table entries) need no tolerance: they
are exact tests on integers.
Reference: Higham, Accuracy and Stability of Numerical Algorithms (2002),
ch. 1-2.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def within(residual, scale=1.0):
    """residual <= RTOL * max(1, scale), elementwise; False where the
    residual (or the scale) is NaN."""
    return np.asarray(residual) <= RTOL * np.maximum(1.0, scale)
