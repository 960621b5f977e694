"""Binary coherent-state receivers for the |+alpha>, |-alpha> alphabet.

Baselines (Helstrom bound, homodyne, Kennedy), the non-heralded
probabilistic amplifier (NHPA) receiver, its infinite-gain dephaser limits,
an approximate cavity realization of the n=2 partial dephaser, the
squeezing-enhanced (TS) variant, and a greedy multi-copy Dolinar wrapper.

Conventions: the signal is first displaced by D(alpha) (nulling -alpha),
the amplifying/dephasing stage acts, a final displacement D(-beta) is
applied and an on/off detector fires on any photon; "no click" is read as
"-alpha".  All closed forms are written for real alpha, beta; optimal
operating points sit at beta < 0, exactly as the printed contour region.
All optimizations are deterministic (coarse grid + golden refinement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erf, exp, factorial, inf, log, sqrt

import numpy as np

from . import fock

_KINDS = ("homodyne", "kennedy", "opt_kennedy", "nhpa", "dephaser", "cavity", "ts", "helstrom")


@dataclass(frozen=True)
class ReceiverSpec:
    kind: str
    params: dict = field(default_factory=dict)
    p_plus: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown receiver kind {self.kind!r}")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError("p_plus must lie in [0, 1]")
        g = self.params.get("g")
        if g is not None and g < 1:
            raise ValueError("gain g must be >= 1")
        n = self.params.get("n")
        if n is not None and (int(n) != n or n < 1):
            raise ValueError("cutoff n must be a positive integer")


@dataclass(frozen=True)
class BinaryOutcomeStats:
    p_click_plus: float
    p_click_minus: float
    p_succ: float

    def __post_init__(self):
        for p in (self.p_click_plus, self.p_click_minus, self.p_succ):
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValueError("probability outside [0, 1]")

    @property
    def p_err(self) -> float:
        return 1.0 - self.p_succ


# ------------------------------------------------------------------ baselines


def helstrom_bpsk(alpha: float, p_plus: float = 0.5) -> float:
    """Minimum error probability for {|+alpha>, |-alpha>} with prior p_plus."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must lie in [0, 1]")
    x = 1.0 - 4.0 * p_plus * (1.0 - p_plus) * exp(-4.0 * abs(alpha) ** 2)
    return 0.5 * (1.0 - sqrt(max(x, 0.0)))


def homodyne_perr(alpha: float) -> float:
    """q-quadrature homodyne with sign inference: (1 - erf(sqrt(2) alpha))/2."""
    return 0.5 * (1.0 - erf(sqrt(2.0) * alpha))


def kennedy_psucc(alpha: float, beta: float) -> float:
    """Imperfect-nulling (optimized-Kennedy family) success probability with
    measurement {|beta><beta|, 1 - |beta><beta|} directly on |+-alpha>."""
    return 0.5 * (
        1.0 + exp(-abs(beta + alpha) ** 2) - exp(-abs(beta - alpha) ** 2)
    )


def _golden_max(fun, lo, hi, tol=1e-12):
    phi = (sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return fun(x), x


def _grid_refine_max(fun, lo, hi, n_grid=121, tol=1e-12):
    xs = np.linspace(lo, hi, n_grid)
    vals = [fun(x) for x in xs]
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    return _golden_max(fun, a, b, tol=tol)


def optimized_kennedy(alpha: float) -> tuple:
    """max over real beta of kennedy_psucc; the optimum over-nulls (|beta*|
    slightly above alpha, on the nulling side)."""
    val, beta = _grid_refine_max(lambda b: kennedy_psucc(alpha, b), -3.0 * abs(alpha) - 2.0, 0.0)
    return val, beta


# ----------------------------------------------------------------------- NHPA


def _nhpa_coeffs(g: float, n: int, k: int) -> tuple:
    """(success, failure) Kraus diagonal coefficients at Fock level k <= n."""
    if g == inf:
        cs = 1.0 if k < n else 0.0
        return cs, cs
    return 1.0 - g ** (-(n - k)), sqrt(max(1.0 - g ** (-2 * (n - k)), 0.0))


def nhpa_overlaps(alpha: float, beta: float, g: float, n: int) -> tuple:
    """(|<beta|M_S|2 alpha>|^2, |<beta|M_F|2 alpha>|^2) via the finite sums."""
    x = 2.0 * alpha * beta  # real amplitudes: 2 alpha beta*
    env = exp(-(4.0 * alpha**2 + beta**2))
    term = 1.0
    s_sum = 0.0
    f_sum = 0.0
    for k in range(n + 1):
        if k > 0:
            term *= x / k
        cs, cf = _nhpa_coeffs(g, n, k)
        s_sum += term * cs
        f_sum += term * cf
    return env * abs(exp(x) - s_sum) ** 2, env * abs(f_sum) ** 2


def nhpa_psucc(alpha: float, beta: float, g: float, n: int) -> float:
    """Success probability of the NHPA receiver (g=1 removes amplification
    and reproduces the Kennedy family)."""
    if g < 1:
        raise ValueError("gain g must be >= 1")
    if int(n) != n or n < 1:
        raise ValueError("cutoff n must be a positive integer")
    p0_minus = exp(-(beta**2))
    ms, mf = nhpa_overlaps(alpha, beta, g, int(n))
    return 0.5 * (1.0 + p0_minus - (ms + mf))


def nhpa_optimize_beta(alpha: float, g: float, n: int, lo: float = -2.0, hi: float = 0.0) -> tuple:
    return _grid_refine_max(lambda b: nhpa_psucc(alpha, b, g, n), lo, hi)


def nhpa_optimize(alpha: float, n_values=(1, 2, 3), g_max: float = 200.0) -> tuple:
    """Deterministic sweep over n, log-spaced g in [1, g_max] plus g=inf,
    with inner 1D beta optimization and a local golden refinement of g.
    Returns (psucc, beta*, g*, n*)."""
    best = (-1.0, 0.0, 1.0, 1)
    for n in n_values:
        gs = list(np.geomspace(1.0, g_max, 41)) + [inf]
        vals = []
        for g in gs:
            v, b = nhpa_optimize_beta(alpha, g, n)
            vals.append(v)
            if v > best[0]:
                best = (v, b, g, n)
        i = int(np.argmax(vals))
        if gs[i] != inf and 0 < i < len(gs) - 2:
            # refine the gain on a log scale between the grid neighbours
            def by_g(lg):
                return nhpa_optimize_beta(alpha, exp(lg), n)[0]

            _, lg = _golden_max(by_g, log(gs[i - 1]), log(gs[i + 1]), tol=1e-10)
            g = exp(lg)
            v, b = nhpa_optimize_beta(alpha, g, n)
            if v > best[0]:
                best = (v, b, g, n)
    return best


# ----------------------------------------------------------------- dephasers


def _coherent_amp_sum(alpha: float, beta: float, ks) -> float:
    """sum_k <beta|k><k|2 alpha> over the index set (real amplitudes)."""
    env = exp(-(4.0 * alpha**2 + beta**2) / 2.0)
    return env * sum((2.0 * alpha * beta) ** k / factorial(k) for k in ks)


def dephaser_psucc(alpha: float, beta: float, n: int = 2, kind: str = "amp_inf") -> float:
    """Infinite-gain limits of the receiver.

    kind="amp_inf": A_{inf,n} with projector Kraus {Pi_>=n, Pi_<n}.
    kind="full": the more destructive partial dephaser D_n with Kraus
    {Pi_<n, |k><k| for k >= n} (no coherence left above the cutoff).
    """
    if kind not in ("amp_inf", "full"):
        raise ValueError("kind must be 'amp_inf' or 'full'")
    p0_minus = exp(-(beta**2))
    low = _coherent_amp_sum(alpha, beta, range(n))
    if kind == "amp_inf":
        # <beta|2 alpha> = exp(-(2a-b)^2/2) for real amplitudes
        high = exp(-((2.0 * alpha - beta) ** 2) / 2.0) - low
        p0_plus = high**2 + low**2
    else:
        env = exp(-(4.0 * alpha**2 + beta**2))
        tail = 0.0
        k = n
        while True:
            term = env * (2.0 * alpha * beta) ** (2 * k) / factorial(k) ** 2
            tail += term
            k += 1
            if abs(term) < 1e-18 and k > n + 5:
                break
        p0_plus = low**2 + tail
    return 0.5 * (1.0 + p0_minus - p0_plus)


def dephaser_optimize(alpha: float, n: int = 2, kind: str = "amp_inf") -> tuple:
    return _grid_refine_max(lambda b: dephaser_psucc(alpha, b, n, kind), -2.0, 0.0)


# -------------------------------------------------------------------- cavity


def _rabi(k: int):
    """Resonant Jaynes-Cummings coefficients at tau = pi/(2 gamma) and
    tau~ = 3 pi/(2 gamma): e_k = -i sin(Omega_k t), d_k = cos(Omega_k t)."""
    w = np.pi * sqrt(k + 1.0)
    return -1j * np.sin(w / 2.0), np.cos(w / 2.0), -1j * np.sin(3.0 * w / 2.0), np.cos(3.0 * w / 2.0)


def cavity_output(alpha: float, omega_tau: float = 0.0, cutoff: int = None) -> fock.FockOperator:
    """Field state after the double-Rabi + random-dephasing cavity stage.

    Tracing the atom and averaging the dephasing angle leaves the preserved
    superposition |alpha_T> = |0> + alpha e^{-2 i omega tau} |1> plus
    photon-number diagonal terms and residual nearest-neighbour coherences.
    omega_tau = 0 is the phase-compensated working point.
    """
    a2 = abs(alpha) ** 2
    if cutoff is None:
        cutoff = max(int(fock.auto_cutoff(a2)), 6)
    d = cutoff + 2
    rho = np.zeros((d, d), dtype=complex)
    ph1 = np.exp(-2j * omega_tau)  # phase on the |1> component of alpha_T
    ph4 = np.exp(-4j * omega_tau)  # e^{-i 2 pi omega / gamma}
    at = np.zeros(d, dtype=complex)
    at[0] = 1.0
    at[1] = alpha * ph1
    rho += np.outer(at, at.conj())

    e1, d1, te1, td1 = _rabi(1)
    e2, d2, te2, td2 = _rabi(2)
    big_d = abs(e1 * np.conj(td1)) ** 2 + abs(te1 * d1) ** 2
    big_e = ph4 / sqrt(3.0) * e2 * np.conj(td2) * np.conj(d1) * np.conj(te1)
    rho[1, 1] += a2**2 / 2.0 * big_d
    rho[2, 1] += a2**2 / 2.0 * alpha * big_e
    rho[1, 2] += np.conj(a2**2 / 2.0 * alpha * big_e)

    w = a2  # |alpha|^{2k} / k! running weight, here at k=1
    for k in range(2, cutoff + 1):
        w *= a2 / k
        em1, dm1, tem1, tdm1 = _rabi(k - 1)
        ek, dk, tek, tdk = _rabi(k)
        ep1, dp1, tep1, tdp1 = _rabi(k + 1)
        dk_coef = (
            abs(em1 * tem1) ** 2
            + abs(dm1 * tdm1) ** 2
            + a2 / (k + 1.0) * (abs(ek * np.conj(tdk)) ** 2 + abs(tek * dk) ** 2)
        )
        ek_coef = ph4 / sqrt(k + 1.0) * ek * tek * np.conj(dm1) * np.conj(tdm1) + (
            a2 / (k + 1.0)
        ) * ph4 / sqrt(k + 2.0) * ep1 * np.conj(tdp1) * np.conj(dk) * np.conj(tek)
        rho[k, k] += w * dk_coef
        rho[k + 1, k] += w * alpha * ek_coef
        rho[k, k + 1] += np.conj(w * alpha * ek_coef)

    rho *= exp(-a2)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise fock.TruncationError(f"cavity series trace deficit {abs(tr - 1.0):.2e}")
    return fock.FockOperator(rho, cutoff=d - 1)


def _cavity_field(alpha: float, beta_max: float) -> fock.FockOperator:
    """cavity_output(2 alpha) on a cutoff that covers the signal and every
    probe |beta| <= beta_max."""
    cutoff = max(fock.auto_cutoff(4.0 * alpha**2), fock.auto_cutoff(beta_max**2), 6)
    return cavity_output(2.0 * alpha, cutoff=cutoff)


def cavity_psucc(alpha: float, beta: float, rho: fock.FockOperator = None) -> float:
    """Kennedy-style inference with the cavity stage replacing the NHPA.
    `rho` is a field from `_cavity_field(alpha, beta_max)` with
    beta_max >= |beta|, shared between probes; built here if omitted."""
    if rho is None:
        rho = _cavity_field(alpha, abs(beta))
    coh = fock.coherent_state(beta, cutoff=rho.cutoff).amps
    p0_plus = float(np.real(coh.conj() @ rho.matrix @ coh))
    return 0.5 * (1.0 + exp(-(beta**2)) - p0_plus)


def cavity_optimize(alpha: float) -> tuple:
    rho = _cavity_field(alpha, 2.0)
    return _grid_refine_max(lambda b: cavity_psucc(alpha, b, rho), -2.0, 0.0, n_grid=61, tol=1e-10)


# ------------------------------------------------------------ TS (squeezing)


def ts_psucc(alpha: float, beta: float, r: float, n: int = 2, k_max: int = None,
             method: str = "matrix") -> float:
    """Squeezing-enhanced receiver: A_{inf,n} followed by the adjoint of
    U_sq(r) D(beta) and on/off detection.  Both hypotheses are measured in
    the same squeezed-displaced vector |beta, r> = U_sq(r) D(beta) |0>, so
    p(0|-) = |<0|beta,r>|^2 and p(0|+) comes from the two partial sums of
    <2 alpha|k><k|beta,r> split at the dephaser cutoff n.

    method="matrix" builds |beta, r> by exact operator action; "series" uses
    the single-amplitude expansion (slower; kept as the independent route).
    """
    if k_max is None:
        k_max = fock.auto_cutoff(4.0 * alpha**2 + beta**2 + np.sinh(r) ** 2 + 1.0)
    if method == "matrix":
        amps = fock.squeezed_displaced_state(beta, r, cutoff=k_max).amps
    elif method == "series":
        amps = np.array(
            [fock.squeezed_displaced_overlap(k, beta, r) for k in range(k_max + 1)]
        )
    else:
        raise ValueError("method must be 'matrix' or 'series'")
    p0_minus = abs(amps[0]) ** 2
    ks = np.arange(k_max + 1)
    from scipy.special import gammaln

    bra2a = np.exp(-2.0 * alpha**2 + ks * np.log(2.0 * alpha) - 0.5 * gammaln(ks + 1.0)) \
        if alpha > 0 else np.where(ks == 0, exp(-2.0 * alpha**2), 0.0)
    prod = bra2a * amps
    low = prod[:n].sum()
    high = prod[n:].sum()
    p0_plus = abs(high) ** 2 + abs(low) ** 2
    return 0.5 * (1.0 + p0_minus - p0_plus)


def ts_optimize(alpha: float, n: int = 2) -> tuple:
    """2D deterministic grid + coordinate refinement over (beta, r)."""
    best = (-1.0, 0.0, 0.0)
    for b in np.linspace(-1.6, 0.0, 17):
        for r in np.linspace(-0.8, 0.2, 11):
            v = ts_psucc(alpha, b, r, n)
            if v > best[0]:
                best = (v, b, r)
    _, b, r = best
    step = 0.1
    fx = best[0]
    while step > 1e-7:
        improved = False
        for db, dr in ((step, 0), (-step, 0), (0, step), (0, -step)):
            v = ts_psucc(alpha, b + db, r + dr, n)
            if v > fx + 1e-15:
                fx, b, r = v, b + db, r + dr
                improved = True
        if not improved:
            step *= 0.5
    return fx, b, r


# ------------------------------------------------------------------- Dolinar


def _step_probs(a: float, beta: float, g: float, n: int, orient: int) -> tuple:
    """(p(no click | +a), p(no click | -a)) for one NHPA-type step that nulls
    the orient=-1 (or +1) state."""
    if orient == -1:
        ms, mf = nhpa_overlaps(a, beta, g, n)
        return ms + mf, exp(-(beta**2))
    ms, mf = nhpa_overlaps(-a, beta, g, n)
    return exp(-(beta**2)), ms + mf


def dolinar_multistep(alpha: float, n_steps: int, base: ReceiverSpec = None) -> float:
    """Greedy multi-copy receiver: split |+-alpha> into n_steps copies of
    amplitude alpha/sqrt(n_steps); at each step re-optimize the base receiver
    for the current Bayes priors (also choosing which state to null), update
    the priors on the outcome, and MAP-decide at the end."""
    if base is None:
        base = ReceiverSpec("opt_kennedy")
    if base.kind not in ("kennedy", "opt_kennedy", "nhpa", "dephaser"):
        raise ValueError(f"unsupported Dolinar base {base.kind!r}")
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    a = alpha / sqrt(n_steps)
    if base.kind in ("kennedy", "opt_kennedy"):
        g_choices, n_cut = (1.0,), 1
    elif base.kind == "dephaser":
        g_choices, n_cut = (inf,), int(base.params.get("n", 2))
    else:
        g_choices = tuple(base.params.get("g_grid", np.geomspace(1.0, 100.0, 13))) + (inf,)
        n_cut = int(base.params.get("n", 2))

    def success(p_plus: float, steps_left: int) -> float:
        if steps_left == 0:
            return max(p_plus, 1.0 - p_plus)
        best = -1.0
        best_cfg = None
        for orient in (-1, +1):
            for g in g_choices:

                def bayes_gain(beta, g=g, orient=orient):
                    q_p, q_m = _step_probs(a, beta, g, n_cut, orient)
                    p0 = p_plus * q_p + (1.0 - p_plus) * q_m
                    v = max(p_plus * q_p, (1.0 - p_plus) * q_m)
                    v += max(p_plus * (1.0 - q_p), (1.0 - p_plus) * (1.0 - q_m))
                    return v, p0, q_p, q_m

                val, beta = _grid_refine_max(
                    lambda b: bayes_gain(b)[0], -2.0, 2.0, n_grid=81, tol=1e-10
                )
                if val > best:
                    best = val
                    best_cfg = bayes_gain(beta)
        _, p0, q_p, q_m = best_cfg
        out = 0.0
        for q_plus, q_minus in ((q_p, q_m), (1.0 - q_p, 1.0 - q_m)):
            p_out = p_plus * q_plus + (1.0 - p_plus) * q_minus
            if p_out <= 1e-300:
                continue
            out += p_out * success(p_plus * q_plus / p_out, steps_left - 1)
        return out

    return success(0.5, int(n_steps))


# -------------------------------------------------------------- dispatching


def receiver_psucc(spec: ReceiverSpec, alpha: float) -> float:
    """Success probability of the given receiver at amplitude alpha,
    optimizing any free parameters deterministically."""
    p = spec.params
    if spec.kind == "helstrom":
        return 1.0 - helstrom_bpsk(alpha, spec.p_plus)
    if spec.kind == "homodyne":
        return 1.0 - homodyne_perr(alpha)
    if spec.kind == "kennedy":
        return kennedy_psucc(alpha, p.get("beta", -alpha))
    if spec.kind == "opt_kennedy":
        return optimized_kennedy(alpha)[0]
    if spec.kind == "nhpa":
        if "g" in p and "beta" in p:
            return nhpa_psucc(alpha, p["beta"], p["g"], p.get("n", 2))
        if "g" in p:
            return nhpa_optimize_beta(alpha, p["g"], p.get("n", 2))[0]
        return nhpa_optimize(alpha)[0]
    if spec.kind == "dephaser":
        n = p.get("n", 2)
        kind = p.get("variant", "amp_inf")
        if "beta" in p:
            return dephaser_psucc(alpha, p["beta"], n, kind)
        return dephaser_optimize(alpha, n, kind)[0]
    if spec.kind == "cavity":
        if "beta" in p:
            return cavity_psucc(alpha, p["beta"])
        return cavity_optimize(alpha)[0]
    if spec.kind == "ts":
        n = p.get("n", 2)
        if "beta" in p and "r" in p:
            return ts_psucc(alpha, p["beta"], p["r"], n)
        return ts_optimize(alpha, n)[0]
    raise ValueError(f"unknown receiver kind {spec.kind!r}")
