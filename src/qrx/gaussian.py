"""Gaussian states (mean, covariance) and channels (A, B, b), checked for
physicality: the uncertainty relation, the symplectic (Williamson) spectrum
and complete positivity, as `gaussian-check` reports them.

Mode ordering is (q1, p1, q2, p2, ...) with symplectic form
Omega = diag(omega, omega, ...), omega = [[0, 1], [-1, 0]], hbar = 1, and
vacuum covariance matrix 1/2 * identity.  A coherent amplitude alpha sits at
mean (sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EIG_TOL = 1e-10


def omega(n_modes: int) -> np.ndarray:
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
    return out


def _min_eig_hermitian(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


def _require_finite(**fields) -> None:
    """ValueError naming the first field that holds a nan or an inf."""
    for name, x in fields.items():
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GaussianState:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a 2N-vector and cov 2N x 2N")
        _require_finite(mean=mean, cov=cov)
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("cov must be symmetric")
        n = mean.size // 2
        # uncertainty relation V + (i/2) Omega >= 0 (stricter than positivity)
        if _min_eig_hermitian(cov + 0.5j * omega(n)) < -_EIG_TOL:
            raise ValueError("cov violates the uncertainty relation")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class GaussianChannel:
    """Moments map m -> A m + b, V -> A V A^T + B."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.shape != B.shape or A.shape[0] != b.size or A.shape[0] % 2:
            raise ValueError("inconsistent channel dimensions")
        _require_finite(A=A, B=B, b=b)
        if np.max(np.abs(B - B.T)) > 1e-12:
            raise ValueError("B must be symmetric")
        for m in (A, B, b):
            m.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)

    @property
    def n_modes(self) -> int:
        return self.b.size // 2


def williamson_eigenvalues(cov: np.ndarray) -> list[float]:
    """Symplectic spectrum: |spec(i Omega V)| with degenerate pairs removed."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    w = np.abs(np.linalg.eigvals(1j * omega(n) @ cov))
    return sorted(np.sort(w)[::2].tolist())


def is_physical(ch: GaussianChannel, tol: float = _EIG_TOL) -> bool:
    """Complete positivity: B + (i/2)(Omega - A Omega A^T) >= 0."""
    om = omega(ch.n_modes)
    m = ch.B + 0.5j * (om - ch.A @ om @ ch.A.T)
    return _min_eig_hermitian(m) >= -tol
