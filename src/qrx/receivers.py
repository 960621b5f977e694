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
Objectives take arrays and broadcast, so one call of the optimizer
`_grid_max` maximizes a whole batch of 1-D searches: a coarse grid, then
repeated re-gridding between the neighbours of each argmax.  All
optimizations are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erf, exp, factorial, inf, lgamma, log, sqrt

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


def kennedy_psucc(alpha, beta):
    """Imperfect-nulling (optimized-Kennedy family) success probability with
    measurement {|beta><beta|, 1 - |beta><beta|} directly on |+-alpha>;
    broadcasts over alpha and beta."""
    return 0.5 * (
        1.0 + np.exp(-np.abs(beta + alpha) ** 2) - np.exp(-np.abs(beta - alpha) ** 2)
    )


#: points per bracket when the optimizer re-grids around an argmax
_ZOOM = 17


def _grid_max(fun, lo, hi, n_grid=121, tol=1e-12):
    """Maximize a batch of independent 1-D functions, each over its [lo, hi].

    `fun` maps points of shape batch + (k,) to values of the same shape;
    `lo` and `hi` broadcast to the batch shape.  The coarse grid of n_grid
    points is one call.  Then the bracket between the neighbours of each
    argmax (the first one on ties) is re-gridded with _ZOOM points, one call
    per round for the whole batch, until every bracket is narrower than tol.
    Returns (fun at the bracket midpoints, the midpoints), of batch shape.
    """
    a = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - a
    t, zoom = np.linspace(0.0, 1.0, n_grid), np.linspace(0.0, 1.0, _ZOOM)
    while True:
        i = np.argmax(fun(a + width * t), axis=-1)[..., None]
        a, b = a + width * t[np.maximum(i - 1, 0)], a + width * t[np.minimum(i + 1, t.size - 1)]
        width = b - a
        if np.all(width <= tol):
            break
        t = zoom
    x = 0.5 * (a + b)
    return fun(x)[..., 0][()], x[..., 0][()]


def optimized_kennedy(alpha: float) -> tuple:
    """max over real beta of kennedy_psucc; the optimum over-nulls (|beta*|
    slightly above alpha, on the nulling side)."""
    val, beta = _grid_max(lambda b: kennedy_psucc(alpha, b), -3.0 * abs(alpha) - 2.0, 0.0)
    return float(val), float(beta)


# ----------------------------------------------------------------------- NHPA


def _nhpa_coeffs(g, n, k_max: int) -> tuple:
    """(success, failure) Kraus diagonal coefficients at Fock levels
    k = 0..k_max (first axis), zero above the cutoff n; g and n broadcast
    on the axes after it.  At g = inf both are 1 below n and 0 at k = n."""
    g, n = np.asarray(g, dtype=float), np.asarray(n)
    # n - k clipped at 0 gives g^0 = 1 and so zero coefficients above n
    m = np.maximum(n - np.arange(k_max + 1).reshape((-1,) + (1,) * max(g.ndim, n.ndim)), 0)
    return 1.0 - g ** (-m), np.sqrt(np.maximum(1.0 - g ** (-2 * m), 0.0))


def nhpa_overlaps(alpha, beta, g, n) -> tuple:
    """(|<beta|M_S|2 alpha>|^2, |<beta|M_F|2 alpha>|^2) via the finite sums;
    broadcasts over alpha, beta, g and n."""
    n = np.asarray(n)
    cs, cf = _nhpa_coeffs(g, n, int(n.max()))
    x = 2.0 * alpha * beta  # real amplitudes: 2 alpha beta*
    env = np.exp(-(4.0 * alpha**2 + beta**2))
    term = 1.0
    s_sum = 0.0
    f_sum = 0.0
    for k in range(len(cs)):
        if k > 0:
            term = term * (x / k)
        s_sum = s_sum + term * cs[k]
        f_sum = f_sum + term * cf[k]
    return env * np.abs(np.exp(x) - s_sum) ** 2, env * np.abs(f_sum) ** 2


def nhpa_psucc(alpha, beta, g, n):
    """Success probability of the NHPA receiver (g=1 removes amplification
    and reproduces the Kennedy family); broadcasts over alpha, beta, g, n."""
    g, n = np.asarray(g), np.asarray(n)
    if (g < 1).any():
        raise ValueError("gain g must be >= 1")
    n_int = n.astype(int)
    if (n_int != n).any() or (n_int < 1).any():
        raise ValueError("cutoff n must be a positive integer")
    ms, mf = nhpa_overlaps(alpha, beta, g, n_int)
    return 0.5 * (1.0 + np.exp(-(beta**2)) - (ms + mf))


def nhpa_optimize_beta(alpha: float, g, n, lo: float = -2.0, hi: float = 0.0) -> tuple:
    """(max over beta in [lo, hi] of nhpa_psucc, beta*) for every (g, n) of
    the broadcast of g and n, in one optimizer call."""
    g, n = np.asarray(g, dtype=float), np.asarray(n)
    batch = np.broadcast_shapes(g.shape, n.shape)
    return _grid_max(lambda b: nhpa_psucc(alpha, b, g[..., None], n[..., None]),
                     np.full(batch, lo), hi)


def nhpa_optimize(alpha: float, n_values=(1, 2, 3), g_max: float = 200.0) -> tuple:
    """Deterministic sweep over n, log-spaced g in [1, g_max] plus g=inf,
    with inner 1D beta optimization and a local refinement of g on a log
    scale for every n whose best grid gain has two finite neighbours.
    Candidates are taken n ascending, then the g grid, then its refinement;
    the first strict maximum wins.  Returns (psucc, beta*, g*, n*)."""
    gs = np.append(np.geomspace(1.0, g_max, 41), inf)
    ns = np.asarray(n_values)[:, None]
    vals, betas = nhpa_optimize_beta(alpha, gs, ns)
    at = np.argmax(vals, axis=1)
    refine = np.flatnonzero((at > 0) & (at < len(gs) - 2))
    refined = {}
    if refine.size:
        n_r = ns[refine]
        _, lg = _grid_max(lambda lg: nhpa_optimize_beta(alpha, np.exp(lg), n_r)[0],
                          np.log(gs[at[refine] - 1]), np.log(gs[at[refine] + 1]),
                          n_grid=_ZOOM, tol=1e-10)
        g_r = np.exp(lg)
        v_r, b_r = nhpa_optimize_beta(alpha, g_r, n_r[:, 0])
        refined = {j: (v_r[m], b_r[m], g_r[m]) for m, j in enumerate(refine)}
    best = (-1.0, 0.0, 1.0, 1)
    for j, n in enumerate(n_values):
        candidates = list(zip(vals[j], betas[j], gs))
        if j in refined:
            candidates.append(refined[j])
        for v, b, g in candidates:
            if v > best[0]:
                best = (float(v), float(b), float(g), int(n))
    return best


# ----------------------------------------------------------------- dephasers


def _coherent_amp_sum(alpha: float, beta, ks):
    """sum_k <beta|k><k|2 alpha> over the index set (real amplitudes)."""
    env = np.exp(-(4.0 * alpha**2 + beta**2) / 2.0)
    return env * sum((2.0 * alpha * beta) ** k / factorial(k) for k in ks)


def dephaser_psucc(alpha: float, beta, n: int = 2, kind: str = "amp_inf"):
    """Infinite-gain limits of the receiver; broadcasts over beta.

    kind="amp_inf": A_{inf,n} with projector Kraus {Pi_>=n, Pi_<n}.
    kind="full": the more destructive partial dephaser D_n with Kraus
    {Pi_<n, |k><k| for k >= n} (no coherence left above the cutoff).
    """
    if kind not in ("amp_inf", "full"):
        raise ValueError("kind must be 'amp_inf' or 'full'")
    p0_minus = np.exp(-(beta**2))
    low = _coherent_amp_sum(alpha, beta, range(n))
    if kind == "amp_inf":
        # <beta|2 alpha> = exp(-(2a-b)^2/2) for real amplitudes
        high = np.exp(-((2.0 * alpha - beta) ** 2) / 2.0) - low
        p0_plus = high**2 + low**2
    else:
        env = np.exp(-(4.0 * alpha**2 + beta**2))
        tail = 0.0
        k = n
        while True:
            term = env * (2.0 * alpha * beta) ** (2 * k) / float(factorial(k) ** 2)
            tail = tail + term
            k += 1
            if np.all(np.abs(term) < 1e-18) and k > n + 5:
                break
        p0_plus = low**2 + tail
    return 0.5 * (1.0 + p0_minus - p0_plus)


def dephaser_optimize(alpha: float, n: int = 2, kind: str = "amp_inf") -> tuple:
    val, beta = _grid_max(lambda b: dephaser_psucc(alpha, b, n, kind), -2.0, 0.0)
    return float(val), float(beta)


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


def cavity_psucc(alpha: float, beta, rho: fock.FockOperator = None):
    """Kennedy-style inference with the cavity stage replacing the NHPA;
    broadcasts over real beta.  `rho` is a field from
    `_cavity_field(alpha, beta_max)` with beta_max >= |beta|, shared between
    probes; built here if omitted."""
    from scipy.special import gammaln

    beta = np.asarray(beta, dtype=float)
    if rho is None:
        rho = _cavity_field(alpha, float(np.max(np.abs(beta))))
    ks = np.arange(rho.cutoff + 1)
    b = beta[..., None]
    coh = b**ks * np.exp(-0.5 * b**2 - 0.5 * gammaln(ks + 1.0))  # <k|beta>
    deficit = 1.0 - np.sum(coh**2, axis=-1)
    if np.any(deficit > fock.TRUNCATION_TOL):
        raise fock.TruncationError(
            f"cavity at alpha={alpha!r}: cutoff {rho.cutoff} leaves probe norm deficit "
            f"{np.max(deficit):.3e} at beta={float(beta.flat[np.argmax(deficit)])!r}")
    # rho is Hermitian and coh real, so only Re(rho) contributes
    p0_plus = np.sum((coh @ rho.matrix.real) * coh, axis=-1)
    return 0.5 * (1.0 + np.exp(-(beta**2)) - p0_plus)


def cavity_optimize(alpha: float) -> tuple:
    rho = _cavity_field(alpha, 2.0)
    val, beta = _grid_max(lambda b: cavity_psucc(alpha, b, rho), -2.0, 0.0, n_grid=61, tol=1e-10)
    return float(val), float(beta)


# ------------------------------------------------------------ TS (squeezing)


def ts_psucc(alpha: float, beta: float, r: float, n: int = 2, k_max: int = None) -> float:
    """Squeezing-enhanced receiver: A_{inf,n} followed by the adjoint of
    U_sq(r) D(beta) and on/off detection.  Both hypotheses are measured in
    the same squeezed-displaced vector |beta, r> = U_sq(r) D(beta) |0>, so
    p(0|-) = |<0|beta,r>|^2 and p(0|+) comes from the two partial sums of
    <2 alpha|k><k|beta,r> split at the dephaser cutoff n.

    Cutting both sums at k_max changes p(0|+) by at most
    2 sqrt(T (1 - sum_k |<k|beta,r>|^2)) (Cauchy-Schwarz), with T the
    Poisson tail of |2 alpha> above k_max, bounded by its first term over
    1 - 4 alpha^2/(k_max + 2); a TruncationError is raised when that bound
    exceeds fock.TRUNCATION_TOL.
    """
    from scipy.special import gammaln

    if k_max is None:
        k_max = fock.auto_cutoff(4.0 * alpha**2 + beta**2 + np.sinh(r) ** 2 + 1.0)
    amps = fock.squeezed_displaced_state(beta, r, cutoff=k_max).amps
    p0_minus = abs(amps[0]) ** 2
    ks = np.arange(k_max + 1)
    bra2a = np.exp(-2.0 * alpha**2 + ks * np.log(2.0 * alpha) - 0.5 * gammaln(ks + 1.0)) \
        if alpha > 0 else np.where(ks == 0, exp(-2.0 * alpha**2), 0.0)
    mu = 4.0 * alpha**2
    tail = 0.0 if mu == 0.0 else 1.0 if mu >= k_max + 2 else min(
        exp(-mu + (k_max + 1) * log(mu) - lgamma(k_max + 2.0)) / (1.0 - mu / (k_max + 2)), 1.0)
    deficit = max(1.0 - float(np.vdot(amps, amps).real), 0.0)
    bound = 2.0 * sqrt(tail * deficit)
    if bound > fock.TRUNCATION_TOL:
        raise fock.TruncationError(
            f"ts at alpha={float(alpha)!r}, beta={float(beta)!r}, r={float(r)!r}: cutoff "
            f"k_max={k_max} bounds the p(0|+) error by {bound:.2e} > {fock.TRUNCATION_TOL:.0e}")
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


def _step_probs(a: float, beta, g, n: int, orient) -> tuple:
    """(p(no click | +a), p(no click | -a)) for one NHPA-type step that nulls
    the orient=-1 (or +1) state; broadcasts over beta, g and orient."""
    ms, mf = nhpa_overlaps(-orient * a, beta, g, n)
    nulled, probe = ms + mf, np.exp(-(beta**2))
    return np.where(orient == -1, nulled, probe), np.where(orient == -1, probe, nulled)


#: posteriors per optimizer call in dolinar_multistep; bounds the arrays of
#: one call (256 x 28 configurations x 81 points) whatever the step count
_DOLINAR_CHUNK = 256


def dolinar_multistep(alpha: float, n_steps: int, base: ReceiverSpec = None) -> float:
    """Greedy multi-copy receiver: split |+-alpha> into n_steps copies of
    amplitude alpha/sqrt(n_steps); at each step re-optimize the base receiver
    for the current Bayes priors (also choosing which state to null), update
    the priors on the outcome, and MAP-decide at the end.

    The tree of outcomes is solved breadth first: the beta searches of the
    posteriors of a step, for both orientations and every gain, are one
    optimizer call per _DOLINAR_CHUNK posteriors; the result sums leaf
    weight x max(p, 1 - p)."""
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
    # configurations (orient, g), orient-major: the order of preference on ties
    cfg_o = np.repeat([-1.0, 1.0], len(g_choices))
    cfg_g = np.tile(np.array(g_choices, dtype=float), 2)

    def solve(prior):
        """Best configuration index and beta for every prior, in one call."""
        p = prior[:, None, None]

        def bayes_gain(beta):
            q_p, q_m = _step_probs(a, beta, cfg_g[:, None], n_cut, cfg_o[:, None])
            return (np.maximum(p * q_p, (1.0 - p) * q_m)
                    + np.maximum(p * (1.0 - q_p), (1.0 - p) * (1.0 - q_m)))

        vals, betas = _grid_max(bayes_gain, np.full((prior.size, cfg_o.size), -2.0), 2.0,
                                n_grid=81, tol=1e-10)
        best = np.argmax(vals, axis=1)
        return best, betas[np.arange(prior.size), best]

    prior, weight = np.array([0.5]), np.array([1.0])
    for _ in range(int(n_steps)):
        parts = [solve(chunk) for chunk in np.array_split(prior, -(-prior.size // _DOLINAR_CHUNK))]
        best, beta = (np.concatenate(x) for x in zip(*parts))
        q_p, q_m = _step_probs(a, beta, cfg_g[best], n_cut, cfg_o[best])
        q_plus = np.concatenate([q_p, 1.0 - q_p])
        q_minus = np.concatenate([q_m, 1.0 - q_m])
        prior, weight = np.tile(prior, 2), np.tile(weight, 2)
        p_out = prior * q_plus + (1.0 - prior) * q_minus
        keep = p_out > 1e-300
        prior = prior[keep] * q_plus[keep] / p_out[keep]
        weight = weight[keep] * p_out[keep]
    return float(np.sum(weight * np.maximum(prior, 1.0 - prior)))


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
