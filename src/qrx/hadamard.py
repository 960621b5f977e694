"""PSK Hadamard codes: construction, optimal rates, and vacuum-or-pulse receivers.

A Hadamard code of length ``N`` (a power of two) patterns binary coherent
amplitudes ``±α`` on ``N`` modes after the columns of the Hadamard matrix
``H_N``; the order-``M`` PSK variant adds ``M`` equally phase-shifted copies.
A passive interferometer with mode matrix ``H_N/√N`` maps every codeword to a
pulse-position-modulated one: a single pulse ``√N·α_m`` on one mode, vacuum
elsewhere.  All rates below are evaluated in that PPM picture, so the pulse
energy is ``ℰ = N·E`` with ``E`` the average energy per mode.

The module provides the codewords (`hadamard_codewords`), the Holevo-optimal
rate (`optimal_rate`), the single-mode detection kernels, named by a string:
"helstrom" (cyclic-symmetric Helstrom) or "realistic" (a practical nulling
cascade for M ∈ {3, 4}), as matrices (`kernel_matrix`) or entries
(`psk_helstrom_prob`, `realistic_psk`), the vacuum-or-pulse detection
probabilities at finite or infinite splitting steps (`vp_prob`), and the
receiver/separable rates and their envelope over code lengths (`had_rate`,
`separable_rate`, `envelope`).

Numerical method
----------------
One routine, `_detection`, returns every detection matrix, for an array of
pulse energies at once: the bare kernel, or vacuum-or-pulse detection at J
or infinitely many steps.  The infinite-splitting integral
∫₀^ℰ e^{−x}·P(ℓ|m; ℰ−x) dx uses Gauss–Legendre on two panels:
ε = ℰ−x ∈ [0, min(ℰ, 1)] under ε = a·s², which removes the √ε branch of the
kernels at zero remaining energy, and x ∈ [0, min(ℰ−1, 40)] (the rest weighs
at most e^{−40} ≈ 4e-18).  The same rule evaluates the inner integral of the
M = 4 nulling cascade; the M = 3 cascade has a closed form.  Each result
that needs a rule is computed with ``_NODES`` and ``2·_NODES`` nodes per
panel and the finer one is returned; when the two differ by more than
``_RULE_TOL`` anywhere, `ConvergenceError` names M, the kernel, J and the
pulse energy.  The returned values lie within ~1e-10 of the
adaptive-quadrature path they replaced (requested tolerance 1e-10), which
the tests keep as their oracle.  The kernels' own accuracy is that of the
eigenvalues λ_ℓ(ε): `_psk_lambda` takes an FFT of O(1) terms, so the
λ_ℓ ≪ 1 of small ε cancel.  Against 60-digit mpmath at ε = 1e-4, 1e-3, …,
10, the relative error of λ reached 1.7e-5 for M = 4 (at ε = 1e-4) and 1.0
for M = 8 (at ε = 0.01), and the Helstrom kernel entries were off by up to
1.6e-14 absolute for M ≤ 3, 1.8e-12 for M = 4 and 1.1e-9 for M = 8.  ~1e-14
holds for M ≤ 3, for M = 4 at ε ≥ 0.01 and for M = 8 at ε ≥ 1; direction 4
of ROADMAP.md (a positive-series λ) is the fix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "classical_capacity",
    "envelope",
    "had_rate",
    "hadamard_codewords",
    "hadamard_matrix",
    "kernel_matrix",
    "optimal_rate",
    "ppm_transform_check",
    "psk_eigenvalues",
    "psk_helstrom_prob",
    "realistic_psk",
    "separable_rate",
    "vp_prob",
    "vp_vacuum_prob",
]

#: Gauss–Legendre nodes per panel of the coarse rule (the fine one has twice)
_NODES = 32
#: largest accepted difference between the coarse and the fine rule
_RULE_TOL = 1e-8
#: click delays x beyond this carry weight e^{−x} below 4e-18 and are dropped
_X_MAX = 40.0
#: kernel evaluations per block of `_detection`, which bounds its temporaries
_BLOCK = 1 << 14


def __getattr__(name):
    # ``hadamard.integrate`` exists only for perfbench's tracer, which swaps
    # it for a counting shim, until the probes move into qrx.  It is imported
    # on first access, so importing this module loads no scipy.
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_power_of_two(n) -> None:
    arr = np.asarray(n)
    if arr.dtype.kind not in "iu" or np.any(arr < 1) or np.any(arr & (arr - 1)):
        raise ValueError(f"code length must be a power of two, got {n!r}")


def hadamard_matrix(n: int) -> np.ndarray:
    """Symmetric Hadamard matrix of order ``n`` (a power of two), integer ±1.

    Entry (j, k) is (−1) raised to the bitwise scalar product of the binary
    representations of j and k, so H is symmetric and H·Hᵀ = n·I exactly.
    """
    _require_power_of_two(n)
    idx = np.arange(n, dtype=np.uint64)
    parity = np.zeros((n, n), dtype=np.int64)
    bits = np.bitwise_and.outer(idx, idx)
    while np.any(bits):
        parity ^= (bits & 1).astype(np.int64)
        bits >>= 1
    return 1 - 2 * parity


def hadamard_codewords(n: int, m: int, alpha: complex) -> np.ndarray:
    """N×(N·M) amplitude matrix of the order-``m`` PSK Hadamard code of
    length ``n`` and base amplitude ``alpha``: column m'·N + k is codeword
    (k, m'), the per-mode amplitudes α_{m'}·H_N[:, k] with α_{m'} = α·e^{i2πm'/m}.
    The mean energy per mode is E = |α|²."""
    _require_power_of_two(n)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"number of phases must be a positive integer, got {m!r}")
    return np.kron(alpha * np.exp(2j * np.pi * np.arange(m) / m), hadamard_matrix(n))


def ppm_transform_check(n: int, m: int, alpha: complex) -> float:
    """Max deviation of (H_N/√N)·codeword from a single pulse √N·α_{m'} on slot k."""
    codewords = hadamard_codewords(n, m, alpha)
    # row 0 of H_N is all ones, so row 0 of the codewords holds each α_{m'} N times
    pulses = math.sqrt(n) * np.kron(codewords[0, ::n], np.eye(n))
    return float(np.max(np.abs((hadamard_matrix(n) / math.sqrt(n)) @ codewords - pulses)))


def _psk_lambda(m: int, eps: np.ndarray) -> np.ndarray:
    """λ_ℓ(ε) of `psk_eigenvalues` for an array of energies: shape (..., M)."""
    h = np.arange(m)
    terms = np.exp(-(1.0 - np.exp(2j * np.pi * h / m)) * eps[..., None])
    lam = np.fft.fft(terms, axis=-1)
    if np.max(np.abs(lam.imag)) > 1e-10:
        raise ConvergenceError(
            f"PSK eigenvalues (M={m}) acquired a non-negligible imaginary part"
        )
    return np.maximum(lam.real, 0.0)


def psk_eigenvalues(m: int, energy: float) -> np.ndarray:
    """Eigenvalues λ_ℓ(ℰ)·M of the uniform M-PSK coherent ensemble Gram structure.

    λ_ℓ(ℰ) = Σ_h exp[−(1−e^{i2πh/M})ℰ − i2πℓh/M]; real, non-negative, Σλ_ℓ = M.
    """
    if m < 1:
        raise ValueError("need at least one phase")
    if energy < 0:
        raise ValueError("energy must be non-negative")
    return _psk_lambda(m, np.float64(energy))


def classical_capacity(energy: float) -> float:
    """Capacity C(E) = (E+1)log₂(E+1) − E·log₂E of the lossless bosonic channel."""
    e = float(energy)
    if e < 0:
        raise ValueError("energy must be non-negative")
    if e == 0.0:
        return 0.0
    return (e + 1.0) * math.log2(e + 1.0) - e * math.log2(e)


def _h2(p: float) -> float:
    """h(p) = −p·log₂p with h(0) = 0."""
    return 0.0 if p <= 0.0 else -p * math.log2(p)


def optimal_rate(n: int, m: int, energy_per_mode: float) -> float:
    """Holevo-optimal rate (bits per mode) of the PSK Hadamard code.

    Works in the PPM picture: the average state splits into the vacuum-coupled
    block, with one Gram eigenvalue ν⁰₀ = [λ₀+(N−1)Me^{−ℰ}]/(MN) and N−1 copies
    of ν⁰₊ = [λ₀−Me^{−ℰ}]/(MN), plus N copies of each ν^{ℓ>0} = λ_ℓ/(MN).
    """
    _require_power_of_two(n)
    e_tot = n * float(energy_per_mode)
    if e_tot == 0.0:
        return 0.0
    lam = psk_eigenvalues(m, e_tot)
    common = m * math.exp(-e_tot)
    nu_00 = (lam[0] + (n - 1) * common) / (m * n)
    nu_0p = max((lam[0] - common) / (m * n), 0.0)
    entropy = _h2(nu_00) + (n - 1) * _h2(nu_0p)
    for lam_l in lam[1:]:
        entropy += n * _h2(lam_l / (m * n))
    return entropy / n


# ------------------------------------------------------------ array kernels


@functools.lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple:
    """Gauss–Legendre nodes and weights on [0, 1] (computed on first use)."""
    s, w = np.polynomial.legendre.leggauss(n)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _inf_rule(energy: np.ndarray, n: int) -> tuple:
    """Two-panel rule for ∫₀^ℰ e^{−x}·f(ℰ−x) dx, for ℰ of any shape.

    Returns (x, ε, w) of shape ℰ.shape + (2n,) with ε = ℰ − x, so that the
    integral is Σ w·f(ε); the weights include the factor e^{−x}.  The three
    are views of one array, written in place (see `_realistic_matrices`).
    """
    s, w = _gauss01(n)
    e = energy[..., None]
    a = np.minimum(e, 1.0)  # ε = a·s² near the √ε branch at ε = 0
    b = np.clip(e - 1.0, 0.0, _X_MAX)  # x ∈ [0, b] on the rest
    x, eps, weights = np.empty((3,) + energy.shape + (2 * n,))
    np.multiply(a, s**2, out=eps[..., :n])
    np.subtract(e, eps[..., :n], out=x[..., :n])
    np.multiply(b, s, out=x[..., n:])
    np.subtract(e, x[..., n:], out=eps[..., n:])
    np.multiply(2.0 * a * s, w, out=weights[..., :n])
    np.multiply(b, w, out=weights[..., n:])
    weights *= np.exp(-x)
    return x, eps, weights


def _helstrom_column(m: int, eps: np.ndarray) -> np.ndarray:
    """Helstrom P(ℓ|0; ε) = |Σ_j e^{−i2πjℓ/M}·√λ_j / M|², shape eps.shape + (M,)."""
    amp = np.fft.fft(np.sqrt(_psk_lambda(m, eps)), axis=-1) / m
    return amp.real**2 + amp.imag**2


def _realistic_matrices(m: int, eps: np.ndarray, n: int) -> np.ndarray:
    """Nulling-cascade P[ℓ, m] for M ∈ {3, 4}, shape eps.shape + (M, M).

    Stage one nulls α₀; a click hands the residual energy to a binary
    Helstrom stage with P = ½(1 ± √(1 − e^{−4e})) at per-state energy e.
    """
    out = np.zeros(eps.shape + (m, m))
    out[..., 0, 0] = 1.0
    if m == 3:
        # ∫₀^{3ε} e^{−x}·P_hel(±; (3ε−x)/2) dx = ½(1 − e^{−3ε}) ± ½K in closed
        # form, K = √(1−e^{−6ε}) − e^{−3ε}·arccos(e^{−3ε})
        c = np.exp(-3.0 * eps)
        s = np.sqrt(-np.expm1(-6.0 * eps))
        half = -0.5 * np.expm1(-3.0 * eps)
        k = 0.5 * (s - c * np.arctan2(s, c))
        out[..., 0, 1] = out[..., 0, 2] = c
        out[..., 1, 1] = out[..., 2, 2] = half + k
        out[..., 2, 1] = out[..., 1, 2] = half - k
        return out
    # M = 4: nulling α₀ then α₂ never confuses 2 with 1 or 3.  For P(1|1) the
    # printed double integral over (t, t') depends on the inner state only
    # through s = −ln(t·t'), which collapses it to
    # ∫₀^{2ε} x·e^{−x}·P_hel(±; 2ε − x) dx = ½·i0 ± ½·i1.
    e2 = 2.0 * eps
    c2 = np.exp(-e2)
    out[..., 0, 2] = np.exp(-4.0 * eps)
    out[..., 2, 2] = -np.expm1(-4.0 * eps)
    out[..., 0, 1] = out[..., 0, 3] = c2
    out[..., 2, 1] = out[..., 2, 3] = e2 * c2
    i0 = -np.expm1(-e2) - e2 * c2
    # One energy's inner rule has 2n × 2n nodes (128 KiB per array at n = 64).
    # Worked in place, a block's temporaries stay below twice the rule's one
    # allocation, so glibc's malloc keeps them mapped between blocks instead
    # of trimming the heap and faulting it back in (~1,000 page faults per
    # request without).
    x, rest, w = _inf_rule(e2, n)
    w *= x
    w *= np.sqrt(-np.expm1(-4.0 * rest))
    i1 = np.sum(w, axis=-1)
    out[..., 1, 1] = out[..., 3, 3] = 0.5 * (i0 + i1)
    out[..., 3, 1] = out[..., 1, 3] = 0.5 * (i0 - i1)
    return out


def _check_kernel(kind: str, m: int) -> None:
    """A kernel is "helstrom" (optimal, any M >= 1) or "realistic" (the
    nulling cascade, M in {3, 4})."""
    if kind not in ("helstrom", "realistic"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if kind == "realistic" and m not in (3, 4):
        raise ValueError("realistic kernel requires M in {3, 4}")
    if m < 1:
        raise ValueError("need at least one phase")


def _kernel(kind: str, m: int, eps: np.ndarray, n: int) -> np.ndarray:
    """P[ℓ, m] at energies ``eps`` with an ``n``-node inner rule."""
    if kind == "helstrom":
        # circulant: depends on (ℓ − m) mod M only
        idx = (np.arange(m)[:, None] - np.arange(m)) % m
        return _helstrom_column(m, eps)[..., idx]
    return _realistic_matrices(m, eps, n)


def _detection(kind: str, m: int, energies, j_steps=None, bare: bool = False) -> np.ndarray:
    """Detection matrices P[ℓ, m] of shape energies.shape + (M, M).

    ``bare`` reads the kernel at ε = ℰ.  Otherwise the pulse of energy ℰ is
    split J ways and the first click at step j triggers PSK detection on the
    remaining energy ℰ(J−j)/J; ``j_steps=None`` (or inf) takes the
    infinite-splitting limit ∫₀^ℰ e^{−x}·P(ℓ|m; ℰ−x) dx.  Each rule gives
    nodes ε and weights w per energy, and P = Σ w·P(ε).  The J = ∞ rule and
    the M = 4 cascade are evaluated at ``_NODES`` and ``2·_NODES`` nodes;
    the finer result is returned, or `ConvergenceError` raised when the two
    differ by more than ``_RULE_TOL``.
    """
    _check_kernel(kind, m)
    energies = np.asarray(energies, dtype=float)
    if np.any(energies < 0):
        raise ValueError("energy must be non-negative")
    cascade = kind == "realistic" and m == 4
    where = f"M={m}, kernel={kind}"
    if bare:
        nodes, check = 1, cascade

        def rule(block, n):
            return block[:, None], np.ones((block.size, 1))
    elif j_steps is None or j_steps == math.inf:
        nodes, check, where = 4 * _NODES, True, where + ", J=inf"

        def rule(block, n):
            return _inf_rule(block, n)[1:]
    else:
        j_steps = int(j_steps)
        if j_steps < 1:
            raise ValueError("need at least one splitting step")
        nodes, check, where = j_steps, cascade, f"{where}, J={j_steps}"
        # no click in the first j-1 steps, click at step j, PSK on the rest;
        # the click probabilities sum to exactly 1 - exp(-energy)
        j = np.arange(1, j_steps + 1)

        def rule(block, n):
            step = block[:, None] / j_steps
            return step * (j_steps - j), np.exp(-step * (j - 1)) * -np.expm1(-step)

    def level(block, n):
        eps, w = rule(block, n)
        return np.einsum("kq,kqlm->klm", w, _kernel(kind, m, eps, n))

    per_node = 4 * _NODES if cascade else m * m
    chunk = max(1, _BLOCK // (nodes * per_node))
    flat = energies.reshape(-1)
    blocks = []
    for start in range(0, flat.size, chunk):
        block = flat[start:start + chunk]
        out = level(block, 2 * _NODES if check else _NODES)
        if check:
            err = np.max(np.abs(out - level(block, _NODES)), axis=(-2, -1))
            worst = int(np.argmax(err))
            if err[worst] > _RULE_TOL:
                raise ConvergenceError(
                    f"fixed-order rule did not converge for {where}, pulse energy "
                    f"{float(block[worst])!r}: error estimate {err[worst]:.2e} "
                    f"exceeds {_RULE_TOL:.0e}"
                )
        blocks.append(out)
    return np.concatenate(blocks).reshape(energies.shape + (m, m))


def kernel_matrix(kind: str, m: int, energy) -> np.ndarray:
    """Single-mode M-PSK detection matrix P[ℓ, m] at per-state energy
    ``energy``: ``kind`` is "helstrom" (optimal) or "realistic" (nulling
    cascade, M ∈ {3, 4}).  Columns sum to ≤ 1 (= 1 for helstrom); an array
    of energies gives an array of matrices, shape (..., M, M)."""
    return _detection(kind, m, energy, bare=True)


def psk_helstrom_prob(l: int, m_in: int, m: int, energy: float) -> float:
    """Optimal probability of guessing phase ℓ when phase m_in of an M-PSK
    coherent set with per-state energy ``energy`` was sent:
    |Σ_j e^{−i2πj(ℓ−m)/M}·√λ_j / M|².
    """
    return float(kernel_matrix("helstrom", m, energy)[(l - m_in) % m, 0])


def realistic_psk(l: int, m_in: int, m: int, energy: float) -> float:
    """Sequential-nulling cascade probability P(ℓ|m) for M ∈ {3, 4} PSK states.

    Stage one nulls α₀ with a displaced on-off detector in the infinite
    splitting-step limit; a click hands the residual energy to the next stage
    (Dolinar for the final pair, nulling the equidistant α₂ first for M = 4).
    """
    mat = kernel_matrix("realistic", m, energy)
    if not (0 <= l < m and 0 <= m_in < m):
        raise ValueError("phase indices must lie in range(M)")
    return float(mat[l, m_in])


def vp_vacuum_prob(energy: float) -> float:
    """Probability that vacuum-or-pulse detection never clicks on a pulse of
    the given energy (the pulse is then mistaken for the vacuum)."""
    return math.exp(-energy)


def vp_prob(l: int, m_in: int, m: int, energy: float, j_steps: int | float | None = None,
            kernel: str = "helstrom") -> float:
    """Vacuum-or-pulse probability of identifying phase ℓ given pulse phase m_in.

    The pulse of energy ℰ is split J ways; the first click at step j triggers
    PSK detection on the remaining energy ℰ(J−j)/J.  ``j_steps=None`` (or inf)
    takes the infinite-splitting limit ∫_{e^{−ℰ}}^{1} P_psk(ℓ|m; ℰ+ln t) dt.
    """
    return float(_detection(kernel, m, energy, j_steps)[l, m_in])


def _channel_rate(cond: np.ndarray, n) -> np.ndarray:
    """Rate (bits per mode) of the N-mode PPM receiver from phase matrices
    ``cond`` [..., ℓ, m] and code lengths ``n`` (broadcast against cond[..., 0, 0]).

    Equals I(X:Y)/N for X = (mode, phase) uniform on NM values and
    Y = X ∪ {err}; the err outcome is input-independent and carries no
    information, and outcomes on the wrong mode have probability zero.  N = 1
    is the separable scheme: one PSK symbol per mode.
    """
    m = cond.shape[-1]
    mn = m * np.asarray(n, dtype=float)[..., None, None]
    row = np.sum(cond, axis=-1, keepdims=True)
    pos = cond > 0.0
    ratio = np.where(pos, mn * cond, 1.0) / np.where(pos, row, 1.0)
    return np.sum(np.where(pos, cond / mn * np.log2(ratio), 0.0), axis=(-2, -1))


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def had_rate(n, m: int, energy_per_mode, kernel: str = "helstrom",
             j_steps: int | float | None = None):
    """Rate (bits per mode) of the PSK Hadamard receiver: vacuum-or-pulse
    detection on each PPM mode with the given PSK kernel on clicks.

    ``n`` and ``energy_per_mode`` broadcast against each other; scalars give
    a float, arrays an array of rates.
    """
    _require_power_of_two(n)
    n = np.asarray(n)
    e_tot = n * np.asarray(energy_per_mode, dtype=float)
    cond = _detection(kernel, m, e_tot, j_steps)
    return _scalar_or_array(_channel_rate(cond, n))


def separable_rate(m: int, energy_per_mode, kernel: str = "helstrom"):
    """Rate of the separable PSK scheme: one of M symmetric coherent states on
    each mode, read out with the given single-mode kernel."""
    cond = kernel_matrix(kernel, m, energy_per_mode)
    return _scalar_or_array(_channel_rate(cond, 1))


def envelope(n_values, m: int, energy_per_mode, kernel: str = "helstrom",
             j_steps: int | float | None = None):
    """max_N had_rate(N, M, E) over the given code lengths (per energy when
    ``energy_per_mode`` is an array)."""
    ns = np.asarray(list(n_values))
    if ns.size == 0:
        raise ValueError("need at least one code length")
    e = np.asarray(energy_per_mode, dtype=float)
    rates = had_rate(ns.reshape(ns.shape + (1,) * e.ndim), m, e, kernel, j_steps)
    return _scalar_or_array(np.max(rates, axis=0))
