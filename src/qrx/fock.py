"""The Fock-space truncation rule: how many photon-number levels a coherent
state needs, and the log k! table that its Poisson weights are built from.

The cavity receiver (`receivers._cavity_field`) sizes its probe's levels
with `auto_cutoff` and checks the truncation against `TRUNCATION_TOL`.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, sqrt

import numpy as np

TRUNCATION_TOL = 1e-12


def auto_cutoff(energy: float) -> int:
    """Cutoff keeping the Poisson tail of a coherent state with mean photon
    number `energy` below ~1e-12 (sub-Gaussian tail bound)."""
    energy = float(energy)
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return int(ceil(energy + 10.0 * sqrt(energy) + 20.0))


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, as a running sum of log k; cached, so read-only."""
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))
    lf.setflags(write=False)
    return lf
