"""Truncated Fock-space states, operators and channels: the reference
implementations that the tests check the closed forms of `qrx` against.

Conventions: hbar = 1, q = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)),
so the vacuum quadrature variance is 1/2.  A coherent amplitude alpha sits at
(q, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha).

States are plain complex numpy arrays: a ket is 1-D of length cutoff + 1,
an operator or density matrix is 2-D, and a cutoff is read as len - 1.

The truncation rule (`auto_cutoff`, `_log_factorials`, `TRUNCATION_TOL`) is
`qrx.fock`'s, the one the cavity receiver's probe uses; it is re-exported
here, so that `import fockspace as fock` reaches both.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from qrx.errors import TruncationError
from qrx.fock import TRUNCATION_TOL, _log_factorials, auto_cutoff  # noqa: F401


# ---------------------------------------------------------------- operators


def annihilation(cutoff: int) -> np.ndarray:
    d = cutoff + 1
    m = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    m[ns - 1, ns] = np.sqrt(ns)
    return m


def number_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff + 1, dtype=complex))


def quadrature_operator(cutoff: int, phi: float = 0.0) -> np.ndarray:
    """q_phi = (a e^{-i phi} + a^dag e^{i phi})/sqrt(2); phi=0 gives q."""
    a = annihilation(cutoff)
    return (a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi)) / sqrt(2.0)


# ------------------------------------------------------------------- states


def coherent_state(alpha: complex, cutoff: int | None = None) -> np.ndarray:
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
    deficit = 1.0 - np.vdot(amps, amps).real
    if deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"cutoff {cutoff} leaves norm deficit {deficit:.3e} "
            f"> {TRUNCATION_TOL:.1e} for |alpha|^2 = {abs(alpha) ** 2:.4g}"
        )
    return amps


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<beta|alpha> = exp(-(|alpha-beta|^2 + alpha* beta - alpha beta*)/2).

    Equivalently exp(-|alpha|^2/2 - |beta|^2/2 + beta* alpha)."""
    a, b = complex(alpha), complex(beta)
    return np.exp(-0.5 * (abs(a - b) ** 2 + a.conjugate() * b - a * b.conjugate()))


def squeezed_state(r: float, cutoff: int) -> np.ndarray:
    """Single-mode squeezed vacuum U_sq(r)|0> = |0, r> (see
    squeezed_displaced_state), supported on even photon numbers."""
    if cutoff < 2 and r != 0.0:
        raise ValueError("cutoff must be >= 2 for a squeezed state")
    amps = squeezed_displaced_state(0j, r, cutoff)
    deficit = 1.0 - np.vdot(amps, amps).real
    if deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"cutoff {cutoff} too small for squeezing r={r}: deficit {deficit:.3e}"
        )
    return amps


def squeezed_displaced_state(beta, r, cutoff: int) -> np.ndarray:
    """|beta, r> = U_sq(r) D(beta) |0>, with U_sq(r) = exp(-r/2 (a^dag^2 - a^2))
    (r > 0 squeezes the q quadrature), on photon numbers 0..cutoff (the first
    axis); beta and r broadcast on the axes after it.  The amplitudes are
    real (a float array) for real beta and r, complex for a complex beta.

    The state is the eigenvector (a cosh r + a^dag sinh r)|beta, r> =
    mu |beta, r>, mu = beta~ cosh r + beta~* sinh r = beta, so its amplitudes
    obey psi_{n+1} = (beta psi_n - sinh r sqrt(n) psi_{n-1}) / (cosh r sqrt(n+1))
    from psi_0 = exp(-|beta|^2/2 + tanh(r) beta^2/2) / sqrt(cosh r)
    (Yuen, PRA 13, 2226 (1976)).  No truncation check: the caller bounds what
    the cut costs it.
    """
    beta, r = np.asarray(beta), np.asarray(r, dtype=float)
    shape = np.broadcast(beta, r).shape
    # flat copies, so that each step is in-place ufunc calls on rows of psi
    b, r_flat = np.empty(shape, dtype=complex if np.iscomplexobj(beta) else float), np.empty(shape)
    b[...], r_flat[...] = beta, r
    b, r = b.ravel(), r_flat.ravel()
    c, s = np.cosh(r), np.sinh(r)
    psi = np.empty((cutoff + 2, b.size), dtype=b.dtype)
    psi[0] = 0.0  # psi_{-1}
    psi[1] = np.exp(-0.5 * np.abs(b) ** 2 + 0.5 * np.tanh(r) * b * b) / np.sqrt(c)
    s_n, c_n = np.empty_like(b), np.empty_like(c)
    for n, (prev, cur, nxt) in enumerate(zip(psi, psi[1:], psi[2:])):
        np.multiply(b, cur, out=nxt)
        np.multiply(s, sqrt(n), out=s_n)
        s_n *= prev
        nxt -= s_n
        np.multiply(c, sqrt(n + 1.0), out=c_n)
        nxt /= c_n
    return psi[1:].reshape((cutoff + 1,) + shape)


def quadrature_eigenvector(q: float, phi: float, cutoff: int) -> np.ndarray:
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
    return psi * phase


def thermal_state(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal state: diagonal p_n = nbar^n / (nbar+1)^{n+1}."""
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    n = np.arange(cutoff + 1)
    if nbar == 0:
        p = np.where(n == 0, 1.0, 0.0)
    else:
        p = np.exp(n * np.log(nbar) - (n + 1) * np.log(nbar + 1.0))
    if 1.0 - p.sum() > TRUNCATION_TOL:
        raise TruncationError(
            f"cutoff {cutoff} leaves thermal trace deficit {1.0 - p.sum():.3e} at nbar={nbar}"
        )
    return np.diag(p.astype(complex))


# ----------------------------------------------------------------- channels


def loss_kraus(eta: float, cutoff: int) -> list[np.ndarray]:
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
        ops.append(m)
    return ops


def apply_loss(rho: np.ndarray, eta: float) -> np.ndarray:
    """Quantum-limited loss channel E_eta acting in the Fock basis."""
    out = np.zeros_like(rho)
    for kop in loss_kraus(eta, len(rho) - 1):
        out = out + kop @ rho @ kop.conj().T
    return out


def apply_amplifier(rho: np.ndarray, kappa: float, out_cutoff: int | None = None) -> np.ndarray:
    """Quantum-limited amplifier A_kappa via two-mode-squeezer Kraus operators
    L_k = sum_n sqrt(C(n+k,k)) kappa^{-(n+1)/2} (1-1/kappa)^{k/2} |n+k><n|."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    cin = len(rho) - 1
    if out_cutoff is None:
        out_cutoff = auto_cutoff(kappa * (cin + 1.0))
    lf = _log_factorials(out_cutoff)
    t = 1.0 - 1.0 / kappa
    out = np.zeros((out_cutoff + 1, out_cutoff + 1), dtype=complex)
    rin = np.zeros_like(out)
    rin[: cin + 1, : cin + 1] = rho
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
    return out


# ---------------------------------------------------------- operator calculus


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)
