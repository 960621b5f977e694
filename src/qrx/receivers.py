"""Binary coherent-state receivers for the |+alpha>, |-alpha> alphabet.

Baselines (Helstrom bound, homodyne, Kennedy), the non-heralded
probabilistic amplifier (NHPA) receiver, its infinite-gain A_{inf,n}
dephaser (the g = inf slice of the NHPA), an approximate cavity realization
of the n=2 partial dephaser, the squeezing-enhanced (TS) variant, and a
greedy multi-copy Dolinar wrapper.

Conventions: the signal is first displaced by D(alpha) (nulling -alpha),
the amplifying/dephasing stage acts, a final displacement D(-beta) is
applied and an on/off detector fires on any photon; "no click" is read as
"-alpha".  All closed forms are written for real alpha, beta; optimal
operating points sit at beta < 0, exactly as the printed contour region.
Every formula here holds for alpha >= 0 only, and `optimize`, every
optimizer, `dolinar_multistep` and `ts_psucc` reject a negative alpha.

Objectives take arrays and broadcast, so one call of `_search._grid_max`
maximizes a whole batch of box searches: beta over all posteriors of a
Dolinar step, (beta, 1/g) on [-2, 0] x [0, 1] for every cutoff n of
`nhpa_optimize` at once, and ts's (beta, r) on [-2, 0] x [-1, 1].  All
optimizations are deterministic.

This module is the receiver catalogue: `PARAMS` names every kind and the
free parameters its optimizer returns, `DOLINAR_BASES` the kinds that
`dolinar_multistep` repeats, and `optimize(kind, alpha)` runs one.
"""

from __future__ import annotations

from math import erf, exp, inf, isfinite, lgamma, log, sqrt

import numpy as np

from . import fock
from ._search import _grid_max

#: receiver kind -> the free parameters `optimize` returns after p_succ
PARAMS = {"helstrom": (), "homodyne": (), "kennedy": (), "opt_kennedy": ("beta",),
          "nhpa": ("beta", "g", "n"), "dephaser": ("beta",), "cavity": ("beta",),
          "ts": ("beta", "r")}
#: receiver kinds that dolinar_multistep can repeat over copies
DOLINAR_BASES = ("kennedy", "opt_kennedy", "nhpa", "dephaser")
#: nhpa_optimize_beta's beta interval and coarse grid (opt_kennedy's beta
#: search starts on as many points); nhpa_optimize's box spans the same beta
_BETA_LO, _BETA_HI, _BETA_GRID = -2.0, 0.0, 121
_TS_ENERGY_MAX = 10_000  #: largest mean photon number of ts_psucc (alpha ~ 50, or |r| ~ 5.3)


def _check_alpha(alpha: float) -> None:
    """The formulas here hold for finite alpha >= 0 only."""
    if not isfinite(alpha):
        raise ValueError(f"amplitude alpha must be finite, got {alpha!r}")
    if alpha < 0:
        raise ValueError(f"amplitude alpha must be >= 0, got {alpha!r}")


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


def optimized_kennedy(alpha: float) -> tuple:
    """max over real beta of kennedy_psucc; the optimum over-nulls (|beta*|
    slightly above alpha, on the nulling side)."""
    _check_alpha(alpha)
    val, beta = _grid_max(lambda b: kennedy_psucc(alpha, b), (-3.0 * abs(alpha) - 2.0,), (0.0,),
                          (1e-12,), n_grid=_BETA_GRID)
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
    bad = ~(g >= 1)
    if bad.any():
        raise ValueError(f"gain g must be >= 1, got {float(g[bad].flat[0])!r}")
    n_int = n.astype(int)
    if (n_int != n).any() or (n_int < 1).any():
        raise ValueError("cutoff n must be a positive integer")
    ms, mf = nhpa_overlaps(alpha, beta, g, n_int)
    return 0.5 * (1.0 + np.exp(-(beta**2)) - (ms + mf))


def nhpa_optimize_beta(alpha: float, g, n) -> tuple:
    """(max over beta in [_BETA_LO, _BETA_HI] of nhpa_psucc, beta*) for every
    (g, n) of the broadcast of g and n, in one optimizer call."""
    _check_alpha(alpha)
    g, n = np.asarray(g, dtype=float), np.asarray(n)
    batch = np.broadcast_shapes(g.shape, n.shape)
    return _grid_max(lambda b: nhpa_psucc(alpha, b, g[..., None], n[..., None]),
                     (np.full(batch, _BETA_LO),), (_BETA_HI,), (1e-12,), n_grid=_BETA_GRID)


def nhpa_optimize(alpha: float, n_values=(1, 2, 3)) -> tuple:
    """One `_grid_max` over (beta, u = 1/g) on [_BETA_LO, _BETA_HI] x [0, 1]
    with every cutoff n as a lane: 41 points per coordinate first, then
    zooms down to widths (1e-12, 1e-12).  u = 1 is the Kennedy family and
    u = 0 the A_{inf,n} dephaser.  The first maximum over the lanes wins, n
    in the order of n_values.  Returns (psucc, beta*, g* = 1/u*, n*)."""
    _check_alpha(alpha)
    ns = np.asarray(n_values)

    def psucc(b, u):
        with np.errstate(divide="ignore"):
            return nhpa_psucc(alpha, b, 1.0 / u, ns[:, None, None])

    vals, betas, us = _grid_max(psucc, (np.full(ns.shape, _BETA_LO), 0.0), (_BETA_HI, 1.0),
                                (1e-12, 1e-12), n_grid=41)
    j = int(np.argmax(vals))  # u* > 0: the centre of a box of positive width
    return float(vals[j]), float(betas[j]), float(1.0 / us[j]), int(ns[j])


def dephaser_optimize(alpha: float, n: int = 2) -> tuple:
    """(max over beta of the A_{inf,n} dephaser, beta*): nhpa_optimize_beta at
    g = inf, where the Kraus pair is the projectors {Pi_>=n, Pi_<n}."""
    val, beta = nhpa_optimize_beta(alpha, inf, n)
    return float(val), float(beta)


# -------------------------------------------------------------------- cavity


def _rabi(k: int):
    """Resonant Jaynes-Cummings coefficients at tau = pi/(2 gamma) and
    tau~ = 3 pi/(2 gamma): e_k = -i sin(Omega_k t), d_k = cos(Omega_k t)."""
    w = np.pi * sqrt(k + 1.0)
    return -1j * np.sin(w / 2.0), np.cos(w / 2.0), -1j * np.sin(3.0 * w / 2.0), np.cos(3.0 * w / 2.0)


def cavity_output(alpha: float, cutoff: int = None) -> np.ndarray:
    """Density matrix of the field after the double-Rabi + random-dephasing
    cavity stage.

    Tracing the atom and averaging the dephasing angle leaves the preserved
    superposition |alpha_T> = |0> + alpha e^{-2 i omega tau} |1> plus
    photon-number diagonal terms and residual nearest-neighbour coherences.
    The stage runs at omega tau = 0, the phase-compensated working point.
    """
    a2 = abs(alpha) ** 2
    if cutoff is None:
        cutoff = max(int(fock.auto_cutoff(a2)), 6)
    d = cutoff + 2
    rho = np.zeros((d, d), dtype=complex)
    at = np.zeros(d, dtype=complex)
    at[0] = 1.0
    at[1] = alpha
    rho += np.outer(at, at.conj())

    e1, d1, te1, td1 = _rabi(1)
    e2, d2, te2, td2 = _rabi(2)
    big_d = abs(e1 * np.conj(td1)) ** 2 + abs(te1 * d1) ** 2
    big_e = 1.0 / sqrt(3.0) * e2 * np.conj(td2) * np.conj(d1) * np.conj(te1)
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
        ek_coef = 1.0 / sqrt(k + 1.0) * ek * tek * np.conj(dm1) * np.conj(tdm1) + (
            a2 / (k + 1.0)
        ) * (1.0 / sqrt(k + 2.0)) * ep1 * np.conj(tdp1) * np.conj(dk) * np.conj(tek)
        rho[k, k] += w * dk_coef
        rho[k + 1, k] += w * alpha * ek_coef
        rho[k, k + 1] += np.conj(w * alpha * ek_coef)

    rho *= exp(-a2)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise fock.TruncationError(f"cavity series trace deficit {abs(tr - 1.0):.2e}")
    return rho


def _cavity_field(alpha: float, beta_max: float) -> np.ndarray:
    """cavity_output(2 alpha) on a cutoff that covers the signal and every
    probe |beta| <= beta_max."""
    cutoff = max(fock.auto_cutoff(4.0 * alpha**2), fock.auto_cutoff(beta_max**2), 6)
    return cavity_output(2.0 * alpha, cutoff=cutoff)


def cavity_psucc(alpha: float, beta, rho: np.ndarray = None):
    """Kennedy-style inference with the cavity stage replacing the NHPA;
    broadcasts over real beta.  `rho` is a field from
    `_cavity_field(alpha, beta_max)` with beta_max >= |beta|, shared between
    probes; built here if omitted."""
    beta = np.asarray(beta, dtype=float)
    if rho is None:
        rho = _cavity_field(alpha, float(np.max(np.abs(beta))))
    cutoff = len(rho) - 1
    ks = np.arange(cutoff + 1)
    b = beta[..., None]
    # <k|beta>
    coh = b**ks * np.exp(-0.5 * b**2 - 0.5 * fock._log_factorials(cutoff))
    deficit = 1.0 - np.sum(coh**2, axis=-1)
    if np.any(deficit > fock.TRUNCATION_TOL):
        raise fock.TruncationError(
            f"cavity at alpha={alpha!r}: cutoff {cutoff} leaves probe norm deficit "
            f"{np.max(deficit):.3e} at beta={float(beta.flat[np.argmax(deficit)])!r}")
    # rho is Hermitian and coh real, so only Re(rho) contributes
    p0_plus = np.sum((coh @ rho.real) * coh, axis=-1)
    return 0.5 * (1.0 + np.exp(-(beta**2)) - p0_plus)


def cavity_optimize(alpha: float) -> tuple:
    _check_alpha(alpha)
    rho = _cavity_field(alpha, 2.0)
    val, beta = _grid_max(lambda b: cavity_psucc(alpha, b, rho), (-2.0,), (0.0,), (1e-10,),
                          n_grid=61)
    return float(val), float(beta)


# ------------------------------------------------------------ TS (squeezing)


def ts_psucc(alpha: float, beta, r, n: int = 2, k_max: int = None):
    """Squeezing-enhanced receiver: A_{inf,n} followed by the adjoint of
    U_sq(r) D(beta) and on/off detection; broadcasts over real beta and r.
    Both hypotheses are measured in the same vector |beta, r> = U_sq(r)
    D(beta)|0> (`fock.squeezed_displaced_state`), so p(0|-) = |<0|beta,r>|^2
    and p(0|+) comes from the two partial sums of <2 alpha|k><k|beta,r>
    split at the dephaser cutoff n.

    Both sums are cut at one k_max for the batch, by default the auto_cutoff
    of the largest mean photon number 4 alpha^2 + beta^2 + sinh(r)^2 + 1,
    which must not exceed _TS_ENERGY_MAX.  The cut changes p(0|+) by at most
    2 sqrt(T (1 - sum_k |<k|beta,r>|^2)) (Cauchy-Schwarz), with T the
    Poisson tail of |2 alpha> above k_max, bounded by its first term over
    1 - 4 alpha^2/(k_max + 2); a TruncationError names the point of the
    largest bound when it exceeds fock.TRUNCATION_TOL.
    """
    alpha = float(alpha)
    _check_alpha(alpha)
    if not (float(n).is_integer() and n >= 1):
        raise ValueError("cutoff n must be a positive integer")
    n = int(n)
    b, r = np.asarray(beta, dtype=float), np.asarray(r, dtype=float)
    for name, x in (("beta", b), ("r", r)):
        if not np.isfinite(x).all():
            raise ValueError(f"ts {name} must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    shape = np.broadcast(b, r).shape

    def point(i):  # the start of an error message that names point i of the batch
        return (f"ts at alpha={alpha!r}, beta={float(np.broadcast_to(b, shape).flat[i])!r}, "
                f"r={float(np.broadcast_to(r, shape).flat[i])!r}")

    if k_max is None:
        with np.errstate(over="ignore"):
            energy = 4.0 * alpha**2 + b * b + np.sinh(r) ** 2 + 1.0
        i = np.argmax(energy)
        if not energy.flat[i] <= _TS_ENERGY_MAX:
            raise ValueError(f"{point(i)}: mean photon number {energy.flat[i]:g} > "
                             f"{_TS_ENERGY_MAX}")
        k_max = fock.auto_cutoff(energy.flat[i])
    psi = fock.squeezed_displaced_state(b, r, k_max).reshape(k_max + 1, -1)
    ks = np.arange(k_max + 1)
    bra2a = np.exp(-2.0 * alpha**2 + ks * np.log(2.0 * alpha)
                   - 0.5 * fock._log_factorials(k_max)) \
        if alpha > 0 else np.where(ks == 0, exp(-2.0 * alpha**2), 0.0)
    mu = 4.0 * alpha**2
    tail = 0.0 if mu == 0.0 else 1.0 if mu >= k_max + 2 else min(
        exp(-mu + (k_max + 1) * log(mu) - lgamma(k_max + 2.0)) / (1.0 - mu / (k_max + 2)), 1.0)
    norm = np.einsum("ki,ki->i", psi, psi)
    i = np.argmin(norm)
    bound = 2.0 * sqrt(tail * max(1.0 - norm[i], 0.0))
    if bound > fock.TRUNCATION_TOL:
        raise fock.TruncationError(f"{point(i)}: cutoff k_max={k_max} bounds the p(0|+) error "
                                   f"by {bound:.2e} > {fock.TRUNCATION_TOL:.0e}")
    p0_plus = (bra2a[n:] @ psi[n:]) ** 2 + (bra2a[:n] @ psi[:n]) ** 2
    return (0.5 * (1.0 + psi[0] ** 2 - p0_plus)).reshape(shape)[()]


def ts_optimize(alpha: float, n: int = 2) -> tuple:
    """(psucc, beta*, r*): one `_grid_max` over (beta, r) on [_BETA_LO, _BETA_HI]
    x [-1, 1], 41 points per coordinate first, zoomed to widths (1e-9, 1e-9)."""
    _check_alpha(alpha)
    val, beta, r = _grid_max(lambda b, r: ts_psucc(alpha, b, r, n), (_BETA_LO, -1.0),
                             (_BETA_HI, 1.0), (1e-9, 1e-9), n_grid=41)
    return float(val), float(beta), float(r)


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
#: finite gains the nhpa base of dolinar_multistep chooses from, besides g = inf
_DOLINAR_GAINS = np.geomspace(1.0, 100.0, 13)


def dolinar_multistep(alpha: float, n_steps: int, base: str = "opt_kennedy") -> float:
    """Greedy multi-copy receiver: split |+-alpha> into n_steps copies of
    amplitude alpha/sqrt(n_steps); at each step re-optimize the base receiver
    (one of DOLINAR_BASES, dephaser and nhpa at cutoff n = 2) for the current
    Bayes priors (also choosing which state to null), update the priors on
    the outcome, and MAP-decide at the end.  The kennedy base nulls exactly
    (beta = 0) and only chooses the state to null, so it reproduces
    kennedy_psucc(alpha, -alpha): adaptive exact nulling gains nothing.

    The tree of outcomes is solved breadth first: the beta searches of the
    posteriors of a step, for both orientations and every gain, are one
    optimizer call per _DOLINAR_CHUNK posteriors; the result sums leaf
    weight x max(p, 1 - p)."""
    if base not in DOLINAR_BASES:
        raise ValueError(f"unsupported Dolinar base {base!r}, need one of {DOLINAR_BASES}")
    _check_alpha(alpha)
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    a = alpha / sqrt(n_steps)
    if base in ("kennedy", "opt_kennedy"):
        g_choices, n_cut = (1.0,), 1
    elif base == "dephaser":
        g_choices, n_cut = (inf,), 2
    else:
        g_choices, n_cut = tuple(_DOLINAR_GAINS) + (inf,), 2
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

        if base == "kennedy":  # exact nulling: beta = 0, only the orientation is chosen
            vals, betas = bayes_gain(0.0)[..., 0], np.zeros((prior.size, cfg_o.size))
        else:
            vals, betas = _grid_max(bayes_gain, (np.full((prior.size, cfg_o.size), -2.0),),
                                    (2.0,), (1e-10,), n_grid=81)
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


def optimize(kind: str, alpha: float) -> tuple:
    """(p_succ, *PARAMS[kind]) of the receiver at amplitude alpha and equal
    priors, with its free parameters at the optimum its optimizer finds."""
    _check_alpha(alpha)
    if kind == "helstrom":
        return (1.0 - helstrom_bpsk(alpha),)
    if kind == "homodyne":
        return (1.0 - homodyne_perr(alpha),)
    if kind == "kennedy":
        return (kennedy_psucc(alpha, -alpha),)
    if kind == "opt_kennedy":
        return optimized_kennedy(alpha)
    if kind == "nhpa":
        return nhpa_optimize(alpha)
    if kind == "dephaser":
        return dephaser_optimize(alpha)
    if kind == "cavity":
        return cavity_optimize(alpha)
    if kind == "ts":
        return ts_optimize(alpha)
    raise ValueError(f"unknown receiver kind {kind!r}")
