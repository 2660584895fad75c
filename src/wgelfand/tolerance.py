"""The one numerical tolerance policy of the library.

1. Weights are inputs and are compared exactly: bi-invariance, symmetry,
   theta-invariance (`weighted.weight_checks`) and w(e) = 1
   (`Weight.unit_at_identity`, the one test of that precondition).
2. A computed quantity passes when its residual is at most
   RTOL * max(1, scale), where scale is the magnitude of what the residual
   compares (1 where a check has none). A NaN residual fails. This covers
   the character multiplicativity, the eigenvalue split, the multiplier
   identity, the symbol residual, the Fourier rank cut and the test oracles.

The Gelfand verdict needs neither: it is an exact test on integers.
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
