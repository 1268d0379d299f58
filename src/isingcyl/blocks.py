"""Two-by-two propagator blocks.

All fermionic two-point functions in this package are naturally 2x2
blocks indexed by the species pair (omega, omega') in {+, -}: row/column
0 is the + component, 1 is the - component.  A block may carry discrete
forward-derivative orders applied to its first and second argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PropagatorBlock:
    """A 2x2 real covariance block with optional derivative orders.

    Attributes:
        matrix: (2, 2) float array, rows indexed by omega, cols by omega'.
        deriv_z: forward-difference orders (r1, r2) applied in the first
            argument, both directions.
        deriv_zp: same for the second argument.
    """

    matrix: np.ndarray
    deriv_z: tuple = (0, 0)
    deriv_zp: tuple = (0, 0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a (2, 2) block, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __getitem__(self, key):
        return self.matrix[key]
