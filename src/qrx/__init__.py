"""Numerical toolkit for coherent-state receivers, POVM decompositions and
PSK/Hadamard code rates.

Modules
-------
fock        the Fock-space truncation rule (auto_cutoff) of the cavity probe
gaussian    physicality of Gaussian states and channels
povm        POVMs, binary-tree decomposition and reconstruction
qubit_disc  minimum-error discrimination of 3-4 qubit states
receivers   binary coherent-state receivers (Kennedy, NHPA, dephaser, ...)
hadamard    PSK Hadamard code rates
cli         reproducible experiment runner
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, TruncationError

__all__ = ["ConvergenceError", "TruncationError", "__version__"]
