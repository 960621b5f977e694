"""Truncated Fock-space states, operators and phase-space functions.

Conventions: hbar = 1, q = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)),
so the vacuum quadrature variance is 1/2 and the vacuum Wigner function is
W(q, p) = (1/pi) exp(-(q^2 + p^2)) with integral normalization
int dq dp W = Tr[rho].  A coherent amplitude alpha sits at
(q, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import ceil, cosh, sinh, sqrt, tanh

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from . import _kernels
from .errors import ConvergenceError, TruncationError

TRUNCATION_TOL = 1e-12
#: eigenvalues below this are clamped to zero in operator functions
CLAMP_TOL = 1e-12


def auto_cutoff(energy: float) -> int:
    """Cutoff keeping the Poisson tail of a coherent state with mean photon
    number `energy` below ~1e-12 (sub-Gaussian tail bound)."""
    energy = float(energy)
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return int(ceil(energy + 10.0 * sqrt(energy) + 20.0))


def _log_factorials(n: int) -> np.ndarray:
    return gammaln(np.arange(n + 1) + 1.0)


@dataclass(frozen=True)
class FockVector:
    """A ket in the photon-number basis 0..cutoff."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError("amps must have length cutoff+1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def inner(self, other: "FockVector") -> complex:
        """<self|other>, padding the shorter vector with zeros."""
        n = min(self.cutoff, other.cutoff) + 1
        return complex(np.vdot(self.amps[:n], other.amps[:n]))

    def normalized(self) -> "FockVector":
        return FockVector(self.amps / sqrt(self.norm_sq), self.cutoff)

    def to_operator(self) -> "FockOperator":
        return FockOperator(np.outer(self.amps, self.amps.conj()), self.cutoff)

    def pad(self, cutoff: int) -> "FockVector":
        if cutoff < self.cutoff:
            raise ValueError("cannot pad to a smaller cutoff")
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[: self.cutoff + 1] = self.amps
        return FockVector(amps, cutoff)


@dataclass(frozen=True)
class FockOperator:
    """An operator on the truncated Fock space as a dense complex matrix."""

    matrix: np.ndarray
    cutoff: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.cutoff + 1
        if m.shape != (d, d):
            raise ValueError("matrix must be square of side cutoff+1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def dag(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.cutoff)

    def apply(self, v: FockVector) -> FockVector:
        return FockVector(self.matrix @ v.amps, self.cutoff)

    def expect(self, rho: "FockOperator") -> complex:
        """Tr[self . rho]"""
        return complex(np.trace(self.matrix @ rho.matrix))

    def pad(self, cutoff: int) -> "FockOperator":
        if cutoff < self.cutoff:
            raise ValueError("cannot pad to a smaller cutoff")
        m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        m[: self.cutoff + 1, : self.cutoff + 1] = self.matrix
        return FockOperator(m, cutoff)


@dataclass(frozen=True)
class WignerGrid:
    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray = field(repr=False)

    def integral(self) -> float:
        """Trapezoid-rule integral of W over the grid."""
        return float(np.trapezoid(np.trapezoid(self.values, self.p_axis, axis=1), self.q_axis))


# ---------------------------------------------------------------- operators


def annihilation(cutoff: int) -> FockOperator:
    d = cutoff + 1
    m = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    m[ns - 1, ns] = np.sqrt(ns)
    return FockOperator(m, cutoff)


def number_operator(cutoff: int) -> FockOperator:
    return FockOperator(np.diag(np.arange(cutoff + 1, dtype=complex)), cutoff)


def quadrature_operator(cutoff: int, phi: float = 0.0) -> FockOperator:
    """q_phi = (a e^{-i phi} + a^dag e^{i phi})/sqrt(2); phi=0 gives q."""
    a = annihilation(cutoff).matrix
    m = (a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi)) / sqrt(2.0)
    return FockOperator(m, cutoff)


def displacement_operator(beta: complex, cutoff: int | None = None) -> FockOperator:
    """Weyl operator D(beta) = exp(beta a^dag - beta* a), exactly unitary on
    the truncated space (anti-Hermitian truncated generator)."""
    if cutoff is None:
        cutoff = auto_cutoff(abs(beta) ** 2)
    a = annihilation(cutoff).matrix
    gen = beta * a.conj().T - np.conj(beta) * a
    return FockOperator(expm(gen), cutoff)


# ------------------------------------------------------------------- states


def coherent_state(
    alpha: complex, cutoff: int | None = None, truncation_tol: float = TRUNCATION_TOL
) -> FockVector:
    """|alpha> with amps[n] = e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    if cutoff is None:
        cutoff = auto_cutoff(abs(alpha) ** 2)
    n = np.arange(cutoff + 1)
    lf = _log_factorials(cutoff)
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
    else:
        # log-domain magnitude to stay finite past n ~ 170
        logmag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * lf
        amps = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    v = FockVector(amps, cutoff)
    if 1.0 - v.norm_sq > truncation_tol:
        raise TruncationError(
            f"cutoff {cutoff} leaves norm deficit {1.0 - v.norm_sq:.3e} "
            f"> {truncation_tol:.1e} for |alpha|^2 = {abs(alpha) ** 2:.4g}"
        )
    return v


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<beta|alpha> = exp(-(|alpha-beta|^2 + alpha* beta - alpha beta*)/2).

    Equivalently exp(-|alpha|^2/2 - |beta|^2/2 + beta* alpha)."""
    a, b = complex(alpha), complex(beta)
    return np.exp(-0.5 * (abs(a - b) ** 2 + a.conjugate() * b - a * b.conjugate()))


def _squeezed_coeffs(r: float, n_pairs: int) -> np.ndarray:
    """c_l(r) = (cosh r)^{-1/2} sqrt((2l)!)/(2^l l!) (-tanh r)^l, l=0..n_pairs."""
    ls = np.arange(n_pairs + 1)
    if r == 0.0:
        return np.where(ls == 0, 1.0, 0.0)
    t = np.tanh(r)
    mag = np.exp(0.5 * gammaln(2 * ls + 1.0) - ls * np.log(2.0) - gammaln(ls + 1.0)
                 + ls * np.log(abs(t)))
    signs = np.where(ls % 2 == 0, 1.0, -np.sign(t))
    return mag * signs / sqrt(np.cosh(r))


def squeezed_state(r: float, cutoff: int, truncation_tol: float = TRUNCATION_TOL) -> FockVector:
    """Single-mode squeezed vacuum U_sq(r)|0>, supported on even photon numbers."""
    if cutoff < 2 and r != 0.0:
        raise ValueError("cutoff must be >= 2 for a squeezed state")
    n_pairs = cutoff // 2
    c = _squeezed_coeffs(float(r), n_pairs)
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0 : 2 * n_pairs + 1 : 2] = c
    v = FockVector(amps, cutoff)
    if 1.0 - v.norm_sq > truncation_tol:
        raise TruncationError(
            f"cutoff {cutoff} too small for squeezing r={r}: deficit {1.0 - v.norm_sq:.3e}"
        )
    return v


def displaced_amplitude_after_squeeze(beta: complex, r: float) -> complex:
    """beta~ with U_sq(r) D(beta) = D(beta~) U_sq(r)."""
    b = complex(beta)
    return b * np.cosh(r) - b.conjugate() * np.sinh(r)


def displacement_matrix_element(k: int, m: int, beta: complex) -> complex:
    """<k|D(beta)|m> via the finite normal-ordered sum."""
    b = complex(beta)
    if b == 0:
        return 1.0 + 0.0j if k == m else 0.0j
    lfk = gammaln(k + 1.0)
    lfm = gammaln(m + 1.0)
    total = 0.0j
    for t in range(m + 1):
        s = k - m + t
        if s < 0:
            continue
        logden = gammaln(t + 1.0) + gammaln(m - t + 1.0) + gammaln(s + 1.0)
        total += (-b.conjugate()) ** t * b**s * np.exp(0.5 * (lfk + lfm) - logden)
    return total * np.exp(-0.5 * abs(b) ** 2)


def squeezed_displaced_overlap(
    k: int, beta: complex, r: float, l_max: int | None = None, tol: float = 1e-12
) -> complex:
    """<k | beta, r> where |beta, r> = U_sq(r) D(beta) |0>.

    Commuting the squeezer through the displacement gives
    |beta, r> = D(beta~) U_sq(r)|0> with beta~ = beta cosh r - beta* sinh r,
    so the overlap is the series sum_l c_l(r) <k|D(beta~)|2l>, truncated when
    the analytic tail bound tanh|r|^{l+1}/(1 - tanh|r|) drops below `tol`.
    """
    bt = displaced_amplitude_after_squeeze(beta, r)
    t = abs(np.tanh(r))
    if t >= 1.0:
        raise ConvergenceError("tanh|r| >= 1")
    if l_max is None:
        l_max = 1
        while t > 0 and t ** (l_max + 1) / (1.0 - t) > tol:
            l_max += 1
            if l_max > 10_000:
                raise ConvergenceError("squeezed-overlap series did not converge")
    elif t > 0 and t ** (l_max + 1) / (1.0 - t) > tol:
        raise ConvergenceError(
            f"tail bound {t ** (l_max + 1) / (1.0 - t):.2e} above {tol:.1e} at l_max={l_max}"
        )
    c = _squeezed_coeffs(float(r), l_max)
    total = 0.0j
    for ell in range(l_max + 1):
        if c[ell] == 0.0:
            continue
        total += c[ell] * displacement_matrix_element(k, 2 * ell, bt)
    return complex(total)


def squeezed_displaced_state(beta: complex, r: float, cutoff: int) -> FockVector:
    """|beta, r> = U_sq(r) D(beta) |0>, with U_sq(r) = exp(-r/2 (a^dag^2 - a^2))
    (r > 0 squeezes the q quadrature), on photon numbers 0..cutoff.

    The state is the eigenvector (a cosh r + a^dag sinh r)|beta, r> =
    mu |beta, r>, mu = beta~ cosh r + beta~* sinh r = beta, so its amplitudes
    obey psi_{n+1} = (beta psi_n - sinh r sqrt(n) psi_{n-1}) / (cosh r sqrt(n+1))
    from psi_0 = exp(-|beta|^2/2 + tanh(r) beta^2/2) / sqrt(cosh r)
    (Yuen, PRA 13, 2226 (1976)).  No truncation check: the caller bounds what
    the cut costs it.
    """
    b = complex(beta)
    c, s = cosh(r), sinh(r)
    psi = [cmath.exp(-0.5 * abs(b) ** 2 + 0.5 * tanh(r) * b * b) / sqrt(c)]
    prev = 0.0
    for n in range(cutoff):
        psi.append((b * psi[n] - s * sqrt(n) * prev) / (c * sqrt(n + 1.0)))
        prev = psi[n]
    return FockVector(np.array(psi), cutoff)


def quadrature_eigenvector(q: float, phi: float, cutoff: int) -> FockVector:
    """Improper eigenket |q_phi> of q_phi, expanded over Fock states as
    pi^{-1/4} e^{-q^2/2} H_n(q) / (2^{n/2} sqrt(n!)) e^{-i n phi}.

    Evaluated through the harmonic-oscillator eigenfunction recurrence
    (numerically stable, no explicit Hermite polynomials).
    """
    psi = np.zeros(cutoff + 1, dtype=float)
    psi[0] = np.pi ** (-0.25) * np.exp(-0.5 * q * q)
    if cutoff >= 1:
        psi[1] = sqrt(2.0) * q * psi[0]
    for n in range(2, cutoff + 1):
        psi[n] = q * sqrt(2.0 / n) * psi[n - 1] - sqrt((n - 1.0) / n) * psi[n - 2]
    phase = np.exp(-1j * phi * np.arange(cutoff + 1))
    return FockVector(psi * phase, cutoff)


def thermal_state(nbar: float, cutoff: int, truncation_tol: float = TRUNCATION_TOL) -> FockOperator:
    """Thermal state: diagonal p_n = nbar^n / (nbar+1)^{n+1}."""
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    n = np.arange(cutoff + 1)
    if nbar == 0:
        p = np.where(n == 0, 1.0, 0.0)
    else:
        p = np.exp(n * np.log(nbar) - (n + 1) * np.log(nbar + 1.0))
    if 1.0 - p.sum() > truncation_tol:
        raise TruncationError(
            f"cutoff {cutoff} leaves thermal trace deficit {1.0 - p.sum():.3e} at nbar={nbar}"
        )
    return FockOperator(np.diag(p.astype(complex)), cutoff)


# ----------------------------------------------------------------- channels


def loss_kraus(eta: float, cutoff: int) -> list[FockOperator]:
    """Kraus family of the quantum-limited attenuator,
    K_k = sum_n sqrt(C(n,k) (1-eta)^k eta^(n-k)) |n-k><n|."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    d = cutoff + 1
    lf = _log_factorials(cutoff)
    ops = []
    for k in range(d):
        m = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            logc = lf[n] - lf[k] - lf[n - k]
            if eta == 0.0:
                val = 1.0 if n == k else 0.0
            elif eta == 1.0:
                val = 1.0 if k == 0 else 0.0
            else:
                val = np.exp(0.5 * (logc + k * np.log(1.0 - eta) + (n - k) * np.log(eta)))
            m[n - k, n] = val
        ops.append(FockOperator(m, cutoff))
    return ops


def apply_loss(rho: FockOperator, eta: float) -> FockOperator:
    """Quantum-limited loss channel E_eta acting in the Fock basis."""
    out = np.zeros_like(rho.matrix)
    for kop in loss_kraus(eta, rho.cutoff):
        out = out + kop.matrix @ rho.matrix @ kop.matrix.conj().T
    return FockOperator(out, rho.cutoff)


def apply_amplifier(rho: FockOperator, kappa: float, out_cutoff: int | None = None) -> FockOperator:
    """Quantum-limited amplifier A_kappa via two-mode-squeezer Kraus operators
    L_k = sum_n sqrt(C(n+k,k)) kappa^{-(n+1)/2} (1-1/kappa)^{k/2} |n+k><n|."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    cin = rho.cutoff
    if out_cutoff is None:
        out_cutoff = auto_cutoff(kappa * (cin + 1.0))
    lf = _log_factorials(out_cutoff)
    t = 1.0 - 1.0 / kappa
    out = np.zeros((out_cutoff + 1, out_cutoff + 1), dtype=complex)
    rin = np.zeros_like(out)
    rin[: cin + 1, : cin + 1] = rho.matrix
    k = 0
    while True:
        m = np.zeros((out_cutoff + 1, out_cutoff + 1), dtype=complex)
        top = 0.0
        for n in range(0, out_cutoff + 1 - k):
            logc = lf[n + k] - lf[k] - lf[n]
            logv = 0.5 * (logc + k * (np.log(t) if t > 0 else -np.inf)) - 0.5 * (n + 1) * np.log(
                kappa
            )
            val = np.exp(logv) if np.isfinite(logv) else 0.0
            m[n + k, n] = val
            top = max(top, val)
        out = out + m @ rin @ m.conj().T
        k += 1
        if t == 0.0 or k > out_cutoff or top < 1e-14:
            break
    return FockOperator(out, out_cutoff)


# ---------------------------------------------------------- operator calculus


def hermitian_eig_clamped(op: FockOperator, clamp: float = CLAMP_TOL):
    """Eigendecomposition of a Hermitian operator with small eigenvalues
    clamped to zero — the deterministic pseudo-inverse convention used by the
    POVM module."""
    w, u = np.linalg.eigh(0.5 * (op.matrix + op.matrix.conj().T))
    w = np.where(np.abs(w) < clamp, 0.0, w)
    return w, u


def op_sqrt(op: FockOperator, clamp: float = CLAMP_TOL) -> FockOperator:
    w, u = hermitian_eig_clamped(op, clamp)
    w = np.clip(w, 0.0, None)
    return FockOperator((u * np.sqrt(w)) @ u.conj().T, op.cutoff)


def op_abs(op: FockOperator, clamp: float = CLAMP_TOL) -> FockOperator:
    w, u = hermitian_eig_clamped(op, clamp)
    return FockOperator((u * np.abs(w)) @ u.conj().T, op.cutoff)


def op_pinv_sqrt(op: FockOperator, clamp: float = CLAMP_TOL) -> FockOperator:
    """Pseudo-inverse square root: zero on the (clamped) kernel."""
    w, u = hermitian_eig_clamped(op, clamp)
    inv = np.where(w > 0.0, 1.0 / np.sqrt(np.clip(w, clamp, None)), 0.0)
    return FockOperator((u * inv) @ u.conj().T, op.cutoff)


def purity(rho: FockOperator) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


# ------------------------------------------------------------------- Wigner


def wigner(rho: FockOperator, q_axis, p_axis) -> WignerGrid:
    """Wigner function on a rectangular grid via the displaced-parity form

        W(q,p) = (1/pi) Tr[rho D(2 alpha) Pi],   alpha = (q + i p)/sqrt(2),

    with Pi the photon-number parity.  Dispatched to the numba or numpy
    backend (see `qrx._kernels`)."""
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    qg, pg = np.meshgrid(q_axis, p_axis, indexing="ij")
    vals = _kernels.wigner_grid(rho.matrix, qg.ravel(), pg.ravel())
    return WignerGrid(q_axis, p_axis, vals.reshape(qg.shape))
