"""Phase-space calculus for Gaussian states and channels.

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


# ------------------------------------------------------------------- states


def vacuum(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def coherent(alpha: complex) -> GaussianState:
    a = complex(alpha)
    return GaussianState(np.sqrt(2.0) * np.array([a.real, a.imag]), 0.5 * np.eye(2))


def thermal(nbar: float) -> GaussianState:
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def squeezed(r: float) -> GaussianState:
    """Squeezed vacuum: V = S_sq(2r)/2 = diag(e^{-2r}, e^{2r})/2."""
    return GaussianState(np.zeros(2), 0.5 * np.diag([np.exp(-2 * r), np.exp(2 * r)]))


def two_mode_squeezed(r: float) -> GaussianState:
    """EPR/twin-beam state: V = S_2sq(2r)/2."""
    return GaussianState(np.zeros(4), 0.5 * symplectic("two_mode_squeeze", 2 * r))


# -------------------------------------------------------------- symplectics


def symplectic(kind: str, params) -> np.ndarray:
    """The printed one- and two-mode symplectic generators.

    kinds: 'phase' S_p(phi), 'squeeze' S_sq(r), 'beamsplitter' S_bs(theta),
    'two_mode_squeeze' S_2sq(r).
    """
    if kind == "phase":
        phi = float(params)
        return np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    if kind == "squeeze":
        r = float(params)
        return np.diag([np.exp(-r), np.exp(r)])
    if kind == "beamsplitter":
        th = float(params)
        i2 = np.eye(2)
        return np.block([[i2 * np.cos(th), i2 * np.sin(th)], [-i2 * np.sin(th), i2 * np.cos(th)]])
    if kind == "two_mode_squeeze":
        r = float(params)
        i2 = np.eye(2)
        s3 = np.diag([1.0, -1.0])
        return np.block([[i2 * np.cosh(r), s3 * np.sinh(r)], [s3 * np.sinh(r), i2 * np.cosh(r)]])
    raise ValueError(f"unknown symplectic kind {kind!r}")


def apply_symplectic(s: np.ndarray, state: GaussianState) -> GaussianState:
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


# ----------------------------------------------------------------- overlaps


def gaussian_overlap(s1: GaussianState, s2: GaussianState) -> float:
    """Tr[rho1 rho2] = exp(-1/2 dm^T (V1+V2)^{-1} dm) / sqrt(det(V1+V2))."""
    v = s1.cov + s2.cov
    dm = s1.mean - s2.mean
    return float(np.exp(-0.5 * dm @ np.linalg.solve(v, dm)) / np.sqrt(np.linalg.det(v)))


def williamson_eigenvalues(cov: np.ndarray) -> list[float]:
    """Symplectic spectrum: |spec(i Omega V)| with degenerate pairs removed."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    w = np.abs(np.linalg.eigvals(1j * omega(n) @ cov))
    return sorted(np.sort(w)[::2].tolist())


# ----------------------------------------------------------------- channels


def identity_channel(n_modes: int = 1) -> GaussianChannel:
    d = 2 * n_modes
    return GaussianChannel(np.eye(d), np.zeros((d, d)), np.zeros(d))


def attenuator(eta: float, nbar: float = 0.0, n_modes: int = 1) -> GaussianChannel:
    """E_{eta,nbar}: A = sqrt(eta) 1, B = (1-eta)(nbar+1/2) 1."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    d = 2 * n_modes
    return GaussianChannel(np.sqrt(eta) * np.eye(d), (1 - eta) * (nbar + 0.5) * np.eye(d), np.zeros(d))


def amplifier(kappa: float, nbar: float = 0.0, n_modes: int = 1) -> GaussianChannel:
    """A_{kappa,nbar}: A = sqrt(kappa) 1, B = (kappa-1)(nbar+1/2) 1."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    d = 2 * n_modes
    return GaussianChannel(
        np.sqrt(kappa) * np.eye(d), (kappa - 1) * (nbar + 0.5) * np.eye(d), np.zeros(d)
    )


def compose(outer: GaussianChannel, inner: GaussianChannel) -> GaussianChannel:
    """outer after inner."""
    return GaussianChannel(
        outer.A @ inner.A,
        outer.A @ inner.B @ outer.A.T + outer.B,
        outer.A @ inner.b + outer.b,
    )


def apply_channel(ch: GaussianChannel, s: GaussianState) -> GaussianState:
    return GaussianState(ch.A @ s.mean + ch.b, ch.A @ s.cov @ ch.A.T + ch.B)


def is_physical(ch: GaussianChannel, tol: float = _EIG_TOL) -> bool:
    """Complete positivity: B + (i/2)(Omega - A Omega A^T) >= 0."""
    om = omega(ch.n_modes)
    m = ch.B + 0.5j * (om - ch.A @ om @ ch.A.T)
    return _min_eig_hermitian(m) >= -tol


def is_physical_one_mode_pi(ch: GaussianChannel, tol: float = _EIG_TOL) -> bool:
    """One-mode shortcut: 4 det B >= (1 - det A)^2."""
    if ch.n_modes != 1:
        raise ValueError("one-mode shortcut needs a one-mode channel")
    return bool(4 * np.linalg.det(ch.B) >= (1 - np.linalg.det(ch.A)) ** 2 - tol)
