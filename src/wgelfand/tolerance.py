"""The one numerical tolerance policy of the library.

1. Weights are inputs and are compared exactly: bi-invariance
   (`weighted.bi_invariance_witness`), symmetry
   and theta-invariance (`weighted.weight_checks`; `check_rap_condition`
   compares w∘theta = w once more, on the weight read back from
   `StructureConstants.wd`, for the sufficient condition), and
   w(e) = 1. The precondition w(e) = 1 is tested in one place,
   `enumerate_spherical`, by one exact comparison of the identity coset's
   entry of `StructureConstants.wd`, which is w(e) as w is bi-invariant;
   `Weight.unit_at_identity` reads the same equality for the report's flag.
2. A computed quantity passes when its residual is at most
   RTOL * max(1, scale), where scale is the magnitude of what the residual
   compares (1 where a check has none). A NaN residual fails. This covers
   the character multiplicativity, the eigenvalue split, the multiplier
   identity T = L_{T u}, the symbol residual, the kernel match and the
   Fourier rank cut. The commutation residual is reported only.
3. A computed value that is not finite is a numerical degeneracy, not a
   result: it raises `DegenerateSpectrumError` (exit 3), and never reaches
   the report. This covers the structure constants (`max_constant`), the
   weighted spherical functions and characters, the multiplier symbol and
   its residual, and the commutation residual.

The Gelfand verdict and the group axioms of a table (`validate_group`,
Light's associativity test) need no tolerance: they are exact tests on integers.
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
