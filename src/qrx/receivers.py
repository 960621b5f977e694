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
optimizer, `dolinar_multistep` and `ts_psucc` reject a negative alpha, and
one above A_MAX = 1e9, past which the optimizers cannot place beta.

One closed-form kernel with no Fock cutoff, `_overlaps`, evaluates the NHPA,
the dephaser, ts and every Dolinar step.  The cavity field is tridiagonal:
two vectors with Poisson weights in log space, finite at any alpha.  The
cavity receiver builds only the levels that its probe |beta| <= 2 reaches,
`fock.auto_cutoff(beta_max^2)` of them whatever alpha is.

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

from math import erf, exp, inf, isfinite, sqrt

import numpy as np

from . import fock
from ._search import _grid_max
from .errors import TruncationError

#: receiver kind -> the free parameters `optimize` returns after p_succ
PARAMS = {"helstrom": (), "homodyne": (), "kennedy": (), "opt_kennedy": ("beta",),
          "nhpa": ("beta", "g", "n"), "dephaser": ("beta",), "cavity": ("beta",),
          "ts": ("beta", "r")}
#: receiver kinds that dolinar_multistep can repeat over copies
DOLINAR_BASES = ("kennedy", "opt_kennedy", "nhpa", "dephaser")
#: nhpa_optimize_beta's beta interval and coarse grid (opt_kennedy's beta
#: search starts on as many points); nhpa_optimize's box spans the same beta
_BETA_LO, _BETA_HI, _BETA_GRID = -2.0, 0.0, 121
#: largest amplitude evaluated.  On a log scan of [1, A_MAX], 200 points per
#: decade, every receiver and Dolinar base (2 and 3 steps) stays at or below
#: p_helstrom + 1e-15, and from alpha = 3.6, where homodyne's own error falls
#: below 1e-12, at or above p_helstrom - 1e-12.  opt_kennedy's beta, placed
#: to 4 float spacings of -alpha, first falls short at alpha = 8.6e9
A_MAX = 1e9


def _check_alpha(alpha: float) -> None:
    """The formulas here hold for finite 0 <= alpha <= A_MAX only."""
    if not isfinite(alpha):
        raise ValueError(f"amplitude alpha must be finite, got {alpha!r}")
    if alpha < 0:
        raise ValueError(f"amplitude alpha must be >= 0, got {alpha!r}")
    if alpha > A_MAX:
        raise ValueError(f"amplitude alpha must be <= A_MAX = {A_MAX:g}, got {alpha!r}")


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


def _overlaps(alpha, beta, r, g, n) -> tuple:
    """(p0_minus, p0_plus) = (<0|beta, r>^2, <2 alpha|M_S|beta, r>^2 +
    <2 alpha|M_F|beta, r>^2): no-click probabilities of the nulled state and
    the other one for the probe |beta, r> = U_sq(r) D(beta)|0> after the NHPA
    Kraus pair M_S = 1 - sum_{k<n} (1 - g^(k-n)) |k><k|, M_F = sum_{k<n}
    sqrt(1 - g^(2(k-n))) |k><k|, for real alpha, beta, r.  r = 0 is the
    coherent probe, g = 1 the Kennedy family, g = inf the A_{inf,n}
    dephaser.  Broadcasts over every argument; n holds integers.

    With l = (1 - tanh r)/2 and h = 1 - l, Yuen's generating function (Phys.
    Rev. A 13, 2226 (1976)) gives psi_0 = <0|beta, r> = e^(-l beta^2)/sqrt(cosh r)
    and O = <2 alpha|beta, r> = psi_0 e^(x - 4 h alpha^2), an exponent of
    -(sqrt(l) beta - 2 sqrt(h) alpha)^2 <= 0, while t_k = <2 alpha|k><k|beta, r>
    obeys k t_k = x t_{k-1} - y t_{k-2} from t_0 = psi_0 e^(-2 alpha^2), with
    x = 2 alpha beta/cosh r and y = 4 alpha^2 tanh r.  So every amplitude is
    at most 1 in modulus, with no Fock cutoff."""
    n, g = np.asarray(n), np.asarray(g)
    with np.errstate(over="ignore"):  # |r| > 354, |beta| > 1e154: amplitude 0
        lo = 1.0 / (1.0 + np.exp(2.0 * r))  # (1 - tanh r)/2, to full precision as tanh r -> 1
        sech = 1.0 / np.cosh(r)
        root, damp = np.sqrt(sech), -lo * beta**2
        x = 2.0 * alpha * sech * beta
        psi0 = root * np.exp(damp)
        overlap = root * np.exp(damp + x - 4.0 * (1.0 - lo) * alpha**2)
    y = 4.0 * alpha**2 * (1.0 - 2.0 * lo)
    t = [psi0 * np.exp(-2.0 * alpha**2)]
    for k in range(1, int(n.max())):
        t.append((t[-1] * x - t[-2] * y) / k if k > 1 else t[-1] * x)
    # g^(k - n) below the cutoff and 1 from it on; cf_k^2 = 1 - gk_k^2
    gk = g[..., None] ** np.minimum(np.arange(len(t)) - n[..., None], 0)
    cf = np.sqrt(1.0 - gk * gk)
    pair = 2.0 * (gk[..., :, None] * gk[..., None, :] + cf[..., :, None] * cf[..., None, :])
    # (O - sum_k (1 - gk_k) t_k)^2 + (sum_k cf_k t_k)^2, expanded around
    # tail = O - sum_k t_k with gk_k^2 + cf_k^2 = 1: where t_k = 0 past k = 0
    # (beta = 0 at r = 0, or alpha = 0), every gain gives the same bits, and
    # the maximizer's first-argmax rule settles the tie
    tail = overlap - sum(t[1:], t[0])
    p0_plus, tail2 = sum((tk * tk for tk in t), tail * tail), 2.0 * tail
    for k, tk in enumerate(t):
        p0_plus = p0_plus + gk[..., k] * (tail2 * tk)
        for j in range(k):
            p0_plus = p0_plus + pair[..., j, k] * (t[j] * tk)
    return psi0 * psi0, p0_plus


def nhpa_psucc(alpha, beta, g, n):
    """Success probability of the NHPA receiver (g=1 removes amplification
    and reproduces the Kennedy family); broadcasts over alpha, beta, g, n."""
    g, n = np.asarray(g, dtype=float), np.asarray(n)
    bad = ~(g >= 1)
    if bad.any():
        raise ValueError(f"gain g must be >= 1, got {float(g[bad].flat[0])!r}")
    n_int = n.astype(int) if np.isfinite(n).all() else None  # casting nan or inf warns
    if n_int is None or (n_int != n).any() or (n_int < 1).any():
        raise ValueError("cutoff n must be a positive integer")
    p0_minus, p0_plus = _overlaps(alpha, beta, 0.0, g, n_int)
    return 0.5 * (1.0 + p0_minus - p0_plus)


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


def _rabi(k):
    """Resonant Jaynes-Cummings coefficients at tau = pi/(2 gamma) and
    tau~ = 3 pi/(2 gamma): e_k = -i sin(Omega_k t), d_k = cos(Omega_k t);
    broadcasts over k."""
    w = np.pi * np.sqrt(k + 1.0)
    return -1j * np.sin(w / 2.0), np.cos(w / 2.0), -1j * np.sin(3.0 * w / 2.0), np.cos(3.0 * w / 2.0)


def _poisson(mean, size: int) -> np.ndarray:
    """Poisson weights e^-mean mean^k/k! for k = 0..size - 1 on a new last
    axis, in log space so that they stay finite at any mean."""
    m = np.asarray(mean, dtype=float)[..., None]
    with np.errstate(divide="ignore"):  # mean = 0: log 0 = -inf, so weight 0 above k = 0
        rest = np.exp(np.arange(1, size) * np.log(m) - m - fock._log_factorials(size - 1)[1:])
    return np.concatenate([np.exp(-m), rest], axis=-1)


def _cavity_rows(alpha: float, cutoff: int) -> tuple:
    """The field after the double-Rabi + random-dephasing cavity stage, as
    (diag, sub): the diagonal rho_kk, k = 0..cutoff + 1, and the first
    sub-diagonal rho_{k+1,k}, k = 0..cutoff.  rho is Hermitian, and every
    entry further from the diagonal is zero.  Levels above the cutoff are
    dropped, so the trace falls short of 1 unless the cutoff holds the field.

    Tracing the atom and averaging the dephasing angle leaves the preserved
    superposition |alpha_T> = |0> + alpha e^{-2 i omega tau} |1> plus
    photon-number diagonal terms and residual nearest-neighbour coherences.
    The stage runs at omega tau = 0, the phase-compensated working point.
    Row k carries the Poisson weight of |alpha|^2 at k (`_poisson`), and
    depends on no other level.
    """
    a2 = abs(alpha) ** 2
    k = np.arange(cutoff + 1.0)
    rabi = np.array(_rabi(np.arange(-1.0, cutoff + 2.0)))  # e, d, te, td at -1..cutoff + 1
    (em1, dm1, tem1, tdm1), (ek, dk, tek, tdk), (ep1, _, _, tdp1) = (
        rabi[:, :-2], rabi[:, 1:-1], rabi[:, 2:])
    dk_coef = (abs(em1 * tem1) ** 2 + abs(dm1 * tdm1) ** 2
               + a2 / (k + 1.0) * (abs(ek * np.conj(tdk)) ** 2 + abs(tek * dk) ** 2))
    ek_coef = 1.0 / np.sqrt(k + 1.0) * ek * tek * np.conj(dm1) * np.conj(tdm1) + a2 / (
        k + 1.0) * (1.0 / np.sqrt(k + 2.0)) * ep1 * np.conj(tdp1) * np.conj(dk) * np.conj(tek)
    w = _poisson(a2, cutoff + 1)
    return np.append(w * dk_coef, 0.0), w * alpha * ek_coef


def _cavity_field(alpha: float, beta_max: float) -> tuple:
    """The rows of the cavity field of 2 alpha that a probe |beta| <= beta_max
    reads: levels 0..max(auto_cutoff(beta_max^2), 6), sized by the probe
    alone, so the cost and memory do not grow with alpha."""
    return _cavity_rows(2.0 * alpha, max(fock.auto_cutoff(beta_max**2), 6))


def cavity_psucc(alpha: float, beta, field: tuple = None):
    """Kennedy-style inference with the cavity stage replacing the NHPA;
    broadcasts over real beta.  `field` is a (diag, sub) pair from
    `_cavity_field(alpha, beta_max)` with beta_max >= |beta|, shared between
    probes; built here if omitted.

    With q_k = <k|beta>^2, the Poisson weights of beta^2, <beta|rho|beta> =
    sum_k q_k (rho_kk + 2 beta Re rho_{k+1,k}/sqrt(k + 1)).  The field holds
    the levels k < K = len(sub) only.  The levels it drops enter through
    q_k, k >= K, and rho_kk <= 1, |rho_{k+1,k}| <= 1, so they move
    <beta|rho|beta> by at most (1 - sum_{k<K} q_k)(1 + 2|beta|).  A bound
    above TRUNCATION_TOL raises TruncationError."""
    beta = np.asarray(beta, dtype=float)
    if field is None:
        field = _cavity_field(alpha, float(np.max(np.abs(beta))))
    diag, sub = field
    q = _poisson(beta**2, len(diag))
    bound = (1.0 - np.sum(q[..., :len(sub)], axis=-1)) * (1.0 + 2.0 * np.abs(beta))
    if np.any(bound > fock.TRUNCATION_TOL):
        raise TruncationError(
            f"cavity at alpha={alpha!r}: {len(sub)} levels bound the probe's error by "
            f"{np.max(bound):.3e} at beta={float(beta.flat[np.argmax(bound)])!r}")
    coupling = np.append(sub.real / np.sqrt(np.arange(1.0, len(sub) + 1.0)), 0.0)
    p0_plus = np.sum(q * (diag + 2.0 * beta[..., None] * coupling), axis=-1)
    return 0.5 * (1.0 + q[..., 0] - p0_plus)


def cavity_optimize(alpha: float) -> tuple:
    _check_alpha(alpha)
    field = _cavity_field(alpha, 2.0)
    val, beta = _grid_max(lambda b: cavity_psucc(alpha, b, field), (-2.0,), (0.0,), (1e-10,),
                          n_grid=61)
    return float(val), float(beta)


# ------------------------------------------------------------ TS (squeezing)


def ts_psucc(alpha: float, beta, r, n: int = 2):
    """Squeezing-enhanced receiver (Sych and Leuchs, Phys. Rev. Lett. 117,
    200501 (2016)): A_{inf,n}, the adjoint of U_sq(r) D(beta) and on/off
    detection; broadcasts over real beta and r.  Both hypotheses are measured
    in |beta, r> = U_sq(r) D(beta)|0>: this is the dephaser with a squeezed
    probe, `_overlaps` at g = inf, closed-form at every finite beta and r."""
    alpha = float(alpha)
    _check_alpha(alpha)
    if not (float(n).is_integer() and n >= 1):
        raise ValueError("cutoff n must be a positive integer")
    b, r = np.asarray(beta, dtype=float), np.asarray(r, dtype=float)
    for name, x in (("beta", b), ("r", r)):
        if not np.isfinite(x).all():
            raise ValueError(f"ts {name} must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    p0_minus, p0_plus = _overlaps(alpha, b, r, inf, int(n))
    return (0.5 * (1.0 + p0_minus - p0_plus))[()]


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
    # <-2a|k><k|beta> = <2a|k><k|-beta>: the nulled state sets the probe's sign
    probe, nulled = _overlaps(a, -orient * beta, 0.0, g, n)
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
