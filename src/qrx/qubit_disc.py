"""Minimum-error discrimination of 3-4 qubit states.

The success probability reduces to the function

    F(A, B, C) = max_Q Tr[ Q A + |sqrt(Q) B sqrt(Q)| + |sqrt(1-Q) C sqrt(1-Q)| ]

over operators 0 <= Q <= 1, evaluated here in the Bloch representation
H = c_H 1 + r_H . sigma (trace 2 c_H, eigenvalues c_H +- |r_H|).

The exact optimum comes from the qubit form of the Yuen-Kennedy-Lax dual
(`_dual`): the smallest ball that encloses the balls (r_k, c_k) of the
weighted states, found by enumerating its support sets, together with the
optimal POVM.  A request searches every inequivalent state ordering (3 for
three states, 12 for four), each with its own (A, B, C), and starts each
search at Q* = Pi_perm[0] + Pi_perm[2], where F equals the dual value less
the ordering's prefactor.  `_search._pattern_search` polishes Q* over the
Bloch coefficients of Q, closed forms are used when they provably apply,
and the first ordering within _TIE_TOL of the best is kept.  The result
must lie within _GAP_TOL of the dual value, or ConvergenceError names the
states.

The orderings are searched together: one objective holds the constants of
every ordering as arrays over a lane axis, and one pattern search runs all
lanes in lock-step, one call for the reduced M=3 lanes (c_Q + |r_Q| = 1,
c_Q >= 1/2, r_Q in the plane of r_A, r_B) and one per span dimension of
the general lanes; a C = 0 lane whose Q* is off the reduced domain runs
with the general lanes.  Each lane makes the trials a search of its own
would make, and its objective value does not depend on the other lanes
(dots are plain products and sums, never BLAS).  The sign test and
|r|^2 - c^2 of B and C are computed once per search, not per evaluation.

Cyclic-symmetric pure-state sets {U^l psi0} of any dimension have a closed
form in the Gram spectrum (`cyclic_symmetric_perr`); the polytope
construction for equiprobable pure qubit sets is the same dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import add, mul

import numpy as np

from ._search import _pattern_search
from .errors import ConvergenceError
from .povm import sqrt_psd

_SIGN_TOL = 1e-11  # definite-sign detection threshold on eigenvalues
_POVM_TOL = 1e-12  # largest negative weight and completeness defect of a dual POVM
_ON_DOMAIN = 1e-12  # largest distance of a reduced M=3 start from its domain
_GAP_TOL = 1e-9  # largest |p_succ - dual value| that _psucc returns
_TIE_TOL = 1e-13  # orderings whose p_succ differ by less are tied

_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


@dataclass(frozen=True)
class BlochOperator:
    """Hermitian qubit operator H = c 1 + r . sigma."""

    c: float
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError("r must be a real 3-vector")
        r.setflags(write=False)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "r", r)

    # -- algebra -------------------------------------------------------
    def __add__(self, other):
        return BlochOperator(self.c + other.c, self.r + other.r)

    def __sub__(self, other):
        return BlochOperator(self.c - other.c, self.r - other.r)

    def __mul__(self, s: float):
        return BlochOperator(self.c * s, self.r * s)

    __rmul__ = __mul__

    def __neg__(self):
        return BlochOperator(-self.c, -self.r)

    # -- spectral helpers ----------------------------------------------
    @property
    def rnorm(self) -> float:
        return float(np.linalg.norm(self.r))

    @property
    def eigenvalues(self) -> tuple:
        return (self.c - self.rnorm, self.c + self.rnorm)

    @property
    def trace(self) -> float:
        return 2.0 * self.c

    def abs_op(self) -> "BlochOperator":
        lo, hi = self.eigenvalues
        return BlochOperator(
            0.5 * (abs(hi) + abs(lo)),
            (0.5 * (abs(hi) - abs(lo)) / self.rnorm) * self.r if self.rnorm > 0 else self.r * 0.0,
        )

    def pos_part_trace(self) -> float:
        lo, hi = self.eigenvalues
        return max(hi, 0.0) + max(lo, 0.0)

    def trace_norm(self) -> float:
        lo, hi = self.eigenvalues
        return abs(hi) + abs(lo)

    def has_definite_sign(self, tol: float = _SIGN_TOL) -> bool:
        lo, hi = self.eigenvalues
        return lo >= -tol or hi <= tol

    def matrix(self) -> np.ndarray:
        m = self.c * np.eye(2, dtype=complex)
        for ri, sig in zip(self.r, _PAULI):
            m = m + ri * sig
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "BlochOperator":
        m = np.asarray(m, dtype=complex)
        c = 0.5 * np.trace(m).real
        r = np.array([0.5 * np.trace(m @ sig).real for sig in _PAULI])
        return BlochOperator(c, r)


def bloch_state(r_vec, p: float = 1.0) -> BlochOperator:
    """Weighted state sigma = p * (1 + r.sigma)/2 for a Bloch vector |r|<=1."""
    r = np.asarray(r_vec, dtype=float)
    if np.linalg.norm(r) > 1 + 1e-10:
        raise ValueError("Bloch vector outside the sphere")
    return BlochOperator(0.5 * p, 0.5 * p * r)


# ------------------------------------------------------------ F evaluation


def _sandwich_term(xs):
    """Tr| sqrt(Q') X sqrt(Q') | as a function of (c_eff, r_eff . r_X,
    |r_eff|^2), where Q' has Bloch coefficients (c_eff, r_eff), for one
    operator X = xs[j] per lane j.  The arguments broadcast against the lane
    axis, which is last; each lane's sign test and |r_X|^2 - c_X^2 run once
    here.

    For definite-sign X the sandwich keeps the sign, so the trace-abs equals
    |Tr[Q' X]|; otherwise the printed two-square-root qubit form applies.
    """
    definite = np.array([x.has_definite_sign() for x in xs])
    xc = np.array([x.c for x in xs])
    gap = np.array([float(x.r @ x.r) - x.c**2 for x in xs])

    if definite.all():
        return lambda c_eff, rdot, rsq: 2.0 * np.abs(c_eff * xc + rdot)
    mixed = definite.any()

    def term(c_eff, rdot, rsq):
        # products, not **2: a numpy scalar's **2 calls pow(), which can
        # differ from an array's x*x in the last bit
        dot = c_eff * xc + rdot
        out = 2.0 * np.sqrt(np.maximum(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))
        return np.where(definite, 2.0 * np.abs(dot), out) if mixed else out

    return term


def f_value(q: BlochOperator, a: BlochOperator, b: BlochOperator, c: BlochOperator) -> float:
    """F_Q(A, B, C) via the Bloch closed forms; Q must satisfy 0 <= Q <= 1."""
    if not (-1e-9 <= q.c <= 1 + 1e-9 and q.rnorm <= min(q.c, 1 - q.c) + 1e-9):
        raise ValueError("Q violates 0 <= Q <= 1")
    rsq = float(q.r @ q.r)
    out = 2.0 * (q.c * a.c + float(q.r @ a.r))
    out += _sandwich_term([b])(q.c, float(q.r @ b.r), rsq)
    out += _sandwich_term([c])(1.0 - q.c, -float(q.r @ c.r), rsq)
    return float(out[0])


def f_value_matrix(q: BlochOperator, a, b, c) -> float:
    """Direct 2x2 matrix evaluation of F_Q (oracle route)."""
    qm = q.matrix()
    sq = sqrt_psd(qm)
    sq1 = sqrt_psd(np.eye(2) - qm)

    def tr_abs(m):
        return float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T))).sum())

    return float(
        np.trace(qm @ a.matrix()).real
        + tr_abs(sq @ b.matrix() @ sq)
        + tr_abs(sq1 @ c.matrix() @ sq1)
    )


# ------------------------------------------------------------ qubit dual


def _support_centres(cs, rs) -> list:
    """Centres r of the balls (r, c) that touch every ball (r_k, c_k) given,
    c - c_k = |r - r_k|, with r in the affine hull of the r_k.  For r = r_0 + d
    and s = c - c_0, the differences of these conditions are linear,
    2 u_k . d - 2 s e_k = |u_k|^2 - e_k^2 with u_k = r_k - r_0, e_k = c_k - c_0:
    one solve gives d = d0 + s d1, and |d|^2 = s^2 is a quadratic in s."""
    if len(cs) == 1:
        return [rs[0]]
    u, e = rs[1:] - rs[0], cs[1:] - cs[0]
    rhs = np.column_stack([0.5 * ((u * u).sum(axis=1) - e * e), e])
    d0, d1 = (u.T @ np.linalg.lstsq(u @ u.T, rhs, rcond=None)[0]).T
    qa, qb, qc = float(d1 @ d1) - 1.0, 2.0 * float(d0 @ d1), float(d0 @ d0)
    q = -0.5 * (qb + np.copysign(np.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    roots = ([q / qa] if qa else []) + ([qc / q] if q else [])  # no cancellation
    return [rs[0] + d0 + s * d1 for s in roots]


def _dual(weighted) -> tuple:
    """(2c, POVM) of the qubit Yuen-Kennedy-Lax dual, min Tr K over K >= sigma_k
    (Yuen, Kennedy & Lax, IEEE TIT 21, 125 (1975); Bae, NJP 15, 073037 (2013)).

    For K = c 1 + r . sigma, K >= sigma_k reads c >= c_k + |r - r_k|: c is the
    radius of the smallest ball that encloses the balls (r_k, c_k), and each
    support set of at most four gives candidate centres (`_support_centres`).
    On a support, Pi_k = w_k (1 + n_k . sigma)/2, n_k = (r_k - r)/|r_k - r|,
    sum w_k = 2 and sum w_k n_k = 0 (kept if w >= 0); a singleton gives
    Pi_k = 1.  The candidate whose dual value max_k 2 (c_k + |r - r_k|) is
    closest to its POVM's value sum_k Tr[Pi_k sigma_k] wins.  Returns 2c and
    one BlochOperator per state (zero off the support)."""
    cs = np.array([s.c for s in weighted])
    rs = np.array([s.r for s in weighted])
    best = (np.inf, None, None)
    for size in range(1, min(len(cs), 4) + 1):
        for sup in map(list, combinations(range(len(cs)), size)):
            for r in _support_centres(cs[sup], rs[sup]):
                dual = 2.0 * float(np.max(cs + np.linalg.norm(rs - r, axis=1)))
                w, n = np.array([2.0]), np.zeros((1, 3))
                if size > 1:
                    dist = np.linalg.norm(rs[sup] - r, axis=1)
                    if not dist.all():
                        continue
                    n = (rs[sup] - r) / dist[:, None]
                    lhs, want = np.vstack([n.T, np.ones(size)]), np.array([0.0, 0.0, 0.0, 2.0])
                    w = np.linalg.lstsq(lhs, want, rcond=None)[0]
                    if w.min() < -_POVM_TOL or np.abs(lhs @ w - want).max() > _POVM_TOL:
                        continue
                    w = np.maximum(w, 0.0)
                primal = float(w @ (cs[sup] + (n * rs[sup]).sum(axis=1)))
                if dual - primal < best[0]:
                    best = (dual - primal, dual, (sup, w, n))
    _, dual, (sup, w, n) = best
    povm = [BlochOperator(0.0, np.zeros(3))] * len(cs)
    for k, wk, nk in zip(sup, w, n):
        povm[k] = BlochOperator(0.5 * wk, 0.5 * wk * nk)
    return dual, povm


# --------------------------------------------------------- F optimization


def _closed_form_applies(a: BlochOperator, b: BlochOperator, c: BlochOperator) -> bool:
    """Any of the three sufficient conditions for the closed form."""
    # case 2: B and C have a definite sign
    if b.has_definite_sign() and c.has_definite_sign():
        return True
    am, bm, cm = a.matrix(), b.matrix(), c.matrix()
    # case 3: A, B, C all commute
    if (
        np.max(np.abs(am @ bm - bm @ am)) < 1e-11
        and np.max(np.abs(am @ cm - cm @ am)) < 1e-11
        and np.max(np.abs(bm @ cm - cm @ bm)) < 1e-11
    ):
        return True
    # case 1: supp(B) within supp(A+), supp(C) within supp(A-)
    wa, ua = np.linalg.eigh(am)
    pa_pos = (ua * (wa > _SIGN_TOL)) @ ua.conj().T
    pa_neg = (ua * (wa < -_SIGN_TOL)) @ ua.conj().T
    in_pos = np.max(np.abs(pa_pos @ bm @ pa_pos - bm)) < 1e-11
    in_neg = np.max(np.abs(pa_neg @ cm @ pa_neg - cm)) < 1e-11
    return in_pos and in_neg


def _closed_form_value(a: BlochOperator, b: BlochOperator, c: BlochOperator) -> float:
    """Tr[(A + |B| - |C|)_+] + ||C||_1."""
    x = a + b.abs_op() - c.abs_op()
    return x.pos_part_trace() + c.trace_norm()


def _span_basis(vectors, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the given 3-vectors."""
    m = np.array([v for v in vectors if np.linalg.norm(v) > tol])
    if m.size == 0:
        return np.zeros((0, 3))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[s > tol * max(1.0, s[0])]


def _dot(r, v):
    """sum_i r[i] * v[i] as plain products and sums, left to right (0.0 for
    no terms): elementwise, so a lane's value does not depend on the shape
    it is evaluated in, as BLAS's fused multiply-adds could make it."""
    return reduce(add, map(mul, r, v)) if len(r) else 0.0


def _objective(lanes):
    """Array objective f(c_Q, r) = F_Q(A, B, C) for lanes of (a, b, c, basis),
    with r_Q = sum_i r[i] basis[i] (basis rows orthonormal, k per lane).
    c_Q and each r[i] broadcast against the lane axis, which is last.  The
    C term is left out when C = 0 in every lane (the M=3 case)."""
    ac = np.array([a.c for a, *_ in lanes])
    ra, rb, rc = (list(np.array([lane[3] @ lane[i].r for lane in lanes]).T) for i in range(3))
    rc = [-x for x in rc]  # r . (-r_C) = -(r . r_C) exactly, one operation fewer
    term_b = _sandwich_term([b for _, b, _, _ in lanes])
    term_c = _sandwich_term([c for _, _, c, _ in lanes])
    has_c = any(c.c != 0.0 or c.r.any() for _, _, c, _ in lanes)

    def f(cq, r):
        rsq = _dot(r, r)
        out = 2.0 * (cq * ac + _dot(r, ra))
        out = out + term_b(cq, _dot(r, rb), rsq)
        return out + term_c(1.0 - cq, _dot(r, rc), rsq) if has_c else out

    return f


def _plane_basis(a: BlochOperator, b: BlochOperator) -> np.ndarray:
    """Two orthonormal rows spanning r_A and r_B (completed if needed)."""
    basis = _span_basis([a.r, b.r])
    if basis.shape[0] == 0:
        basis = np.eye(3)[:1]
    if basis.shape[0] == 1:
        # need a full plane to vary phi_Q
        extra = np.eye(3)[np.argmin(np.abs(basis[0]))]
        e2 = extra - (extra @ basis[0]) * basis[0]
        basis = np.vstack([basis[0], e2 / np.linalg.norm(e2)])
    return basis[:2]


def _polar(cq, phi):
    """r components (1 - c_Q)(cos phi, sin phi) of the reduced M=3 search."""
    rn = 1.0 - cq
    return [rn * np.cos(phi), rn * np.sin(phi)]


def _cone(x, k: int):
    """r components of the general search point x = (c_Q, t, angles), one
    row per lane: r = t * min(c, 1-c) * direction(angles), so the cone
    constraint becomes the box t in [-1, 1] and the search can slide along
    its boundary coordinate-wise."""
    if k == 0:
        return []
    scale = x[:, 1] * np.minimum(x[:, 0], 1.0 - x[:, 0])
    if k == 1:
        return [scale]
    if k == 2:
        return [scale * np.cos(x[:, 2]), scale * np.sin(x[:, 2])]
    th, ph = x[:, 2], x[:, 3]
    return [scale * (np.sin(th) * np.cos(ph)), scale * (np.sin(th) * np.sin(ph)),
            scale * np.cos(th)]


def _optimize_general(q: BlochOperator, basis: np.ndarray) -> list:
    """The start of a general lane: the (c_Q, t, angles) of `_cone` at the
    dual's Q, its r_Q projected onto the lane's span `basis`."""
    cq0, rcomp0 = min(max(q.c, 0.0), 1.0), basis @ q.r
    k = rcomp0.size
    rn0 = np.linalg.norm(rcomp0)
    bound0 = max(min(cq0, 1.0 - cq0), 1e-12)
    x0 = [cq0, min(rn0 / bound0, 1.0)]
    if k == 1:
        x0[1] *= np.sign(rcomp0[0]) if rn0 > 0 else 1.0
    elif k == 2:
        x0.append(np.arctan2(rcomp0[1], rcomp0[0]) if rn0 > 0 else 0.0)
    elif k == 3:
        x0.append(np.arccos(np.clip(rcomp0[2] / rn0, -1, 1)) if rn0 > 0 else 0.0)
        x0.append(np.arctan2(rcomp0[1], rcomp0[0]) if rn0 > 0 else 0.0)
    return x0[: k + 1]


def _polar_start(q: BlochOperator, basis: np.ndarray):
    """(c_Q, phi_Q) of the reduced M=3 search at the dual's Q, or None when
    Q is off its domain: c_Q + |r_Q| = 1, c_Q >= 1/2, r_Q in the plane."""
    rcomp = basis @ q.r
    off = (0.5 - q.c, abs(q.c + np.hypot(*rcomp) - 1.0), np.linalg.norm(q.r - rcomp @ basis))
    if max(off) > _ON_DOMAIN:
        return None
    return [min(max(q.c, 0.5), 1.0), np.arctan2(rcomp[1], rcomp[0])]


def _f_optimize_all(abcs, starts, reduce_m3: bool = True) -> list:
    """(value, Q*) of f_optimize for each (A, B, C) of `abcs`, each search
    started at its Q of `starts`, with one pattern search per group of like
    searches run as lanes in lock-step.  A C = 0 lane whose start is off
    the reduced domain runs with the general lanes."""
    found = [None] * len(abcs)
    m3, general = [], {}
    for j, ((a, b, c), q) in enumerate(zip(abcs, starts)):
        if reduce_m3 and c.trace_norm() < 1e-14:
            basis = _plane_basis(a, b)
            x0 = _polar_start(q, basis)
            if x0 is not None:
                m3.append((j, (a, b, c, basis), x0))
                continue
        basis = _span_basis([a.r, b.r, c.r])
        general.setdefault(basis.shape[0], []).append((j, (a, b, c, basis), q))

    if m3:
        # reduced search over (c_Q, phi_Q) with c_Q + |r_Q| = 1 and r_Q in
        # the plane of r_A, r_B
        f = _objective([lane for _, lane, _ in m3])
        vals, xs = _pattern_search(
            lambda y: f(y[:, 0], _polar(*y.T)),
            np.array([x0 for *_, x0 in m3]),
            lower=np.array([0.5, -np.inf]),
            upper=np.array([1.0, np.inf]),
        )
        for (j, (*_, basis), _), val, (cq, phi) in zip(m3, vals, xs):
            rq3 = (1.0 - cq) * (np.cos(phi) * basis[0] + np.sin(phi) * basis[1])
            found[j] = (float(val), BlochOperator(cq, rq3))

    for k, group in sorted(general.items()):
        x0 = [_optimize_general(q, lane[3]) for _, lane, q in group]
        f = _objective([lane for _, lane, _ in group])
        vals, xs = _pattern_search(
            lambda y: f(y[:, 0], _cone(y, k)),
            np.array(x0),
            lower=np.array([0.0, -1.0, -np.inf, -np.inf][: k + 1]),
            upper=np.array([1.0, 1.0, np.inf, np.inf][: k + 1]),
        )
        rcomp = np.stack(_cone(xs, k), axis=-1) if k else np.zeros((len(group), 0))
        for (j, (*_, basis), _), val, x, rq in zip(group, vals, xs, rcomp):
            found[j] = (float(val), BlochOperator(x[0], rq @ basis))

    return [_maybe_closed_form(a, b, c, *got) for (a, b, c), got in zip(abcs, found)]


def f_optimize(a: BlochOperator, b: BlochOperator, c: BlochOperator, reduce_m3: bool = True):
    """Maximize F_Q over 0 <= Q <= 1.  Returns (value, Q*).

    The four operators (A+B, C, A-B, -C) + t 1, t the smallest shift that
    makes all four positive, have this (A, B, C) and prefactor 2t, so the
    search starts at Q* = Pi_0 + Pi_2 of their optimal POVM (`_dual`), where
    F is their dual value less 2t.  A pattern search polishes Q*, and the
    closed form Tr[(A+|B|-|C|)_+] + ||C||_1 with its certified Q is taken
    when one of its sufficient conditions holds.  For C = 0 the search is reduced to
    (c_Q, phi_Q) with c_Q + r_Q = 1 and r_Q in span(r_A, r_B) unless
    `reduce_m3` is disabled.
    """
    ops = [a + b, c, a - b, -c]
    t = max(op.rnorm - op.c for op in ops)
    _, povm = _dual([op + BlochOperator(t, np.zeros(3)) for op in ops])
    return _f_optimize_all([(a, b, c)], [povm[0] + povm[2]], reduce_m3)[0]


def _maybe_closed_form(a, b, c, best_val, best_q):
    """Upgrade the numeric optimum with the closed form when it applies."""
    if _closed_form_applies(a, b, c):
        cf = _closed_form_value(a, b, c)
        if cf >= best_val - 1e-12:
            # certificate Q = theta(A + |B| - |C|) (spectral step function)
            x = a + b.abs_op() - c.abs_op()
            lo, hi = x.eigenvalues
            if lo > 0:
                q_cert = BlochOperator(1.0, np.zeros(3))
            elif hi <= 0:
                q_cert = BlochOperator(0.0, np.zeros(3))
            elif x.rnorm > 0:
                q_cert = BlochOperator(0.5, 0.5 * x.r / x.rnorm)
            else:
                q_cert = BlochOperator(0.5, np.zeros(3))
            # certify only when the analytic Q attains the value; otherwise
            # keep the numerically refined optimizer
            if abs(f_value_matrix(q_cert, a, b, c) - cf) < 1e-10:
                return cf, q_cert
            return max(cf, best_val), best_q
    return best_val, best_q


# --------------------------------------------------- success probabilities


def abc_operators(weighted):
    """(A, B, C, prefactor) for the conventional ordering of 3 or 4 weighted
    states [(sigma = p rho as BlochOperator), ...] indexed by the binary
    labels l = k1 + 2 k2 (k1 = LSB): sigma_00, sigma_10, sigma_01, sigma_11.
    """
    s = list(weighted)
    if len(s) == 3:
        s00, s10, s01 = s
        a = 0.5 * (s00 + s01) - s10
        b = 0.5 * (s00 - s01)
        return a, b, BlochOperator(0.0, np.zeros(3)), s10.trace
    if len(s) == 4:
        s00, s10, s01, s11 = s
        a = 0.5 * (s00 + s01 - s10 - s11)
        b = 0.5 * (s00 - s01)
        c = 0.5 * (s10 - s11)
        return a, b, c, 0.5 * (s10.trace + s11.trace)
    raise ValueError("need 3 or 4 weighted states")


def _orderings(n: int):
    """Inequivalent state orderings (success probability is invariant, but
    the closed-form conditions may hold only for some of them)."""
    seen, out = set(), []
    for perm in permutations(range(n)):
        if n == 3:
            key = (frozenset((perm[0], perm[2])), perm[1])
        else:
            key = (perm[1], perm[3], frozenset((perm[0], perm[2])))
        if key in seen:
            continue
        seen.add(key)
        out.append(perm)
    return out


def _psucc(weighted, reduce_m3: bool = True) -> tuple:
    """(success probability, Q*, ordering) of the first state ordering
    within _TIE_TOL of the best.  The dual is solved once, and the search of
    every ordering starts at its Q* = Pi_perm[0] + Pi_perm[2].  Raises
    ConvergenceError when the result is not within _GAP_TOL of the dual."""
    dual, povm = _dual(weighted)
    perms = _orderings(len(weighted))
    ops = [abc_operators([weighted[i] for i in perm]) for perm in perms]
    found = _f_optimize_all([op[:3] for op in ops], [povm[p[0]] + povm[p[2]] for p in perms],
                            reduce_m3)
    totals = [op[3] + val for op, (val, _) in zip(ops, found)]
    j = next(j for j, p in enumerate(totals) if p >= max(totals) - _TIE_TOL)
    best = (totals[j], found[j][1], perms[j])
    if not abs(best[0] - dual) <= _GAP_TOL:
        rows = [[s.c, *s.r.tolist()] for s in weighted]
        raise ConvergenceError(
            f"qubit-disc: p_succ {best[0]!r} is {abs(best[0] - dual):.3g} from the dual value "
            f"{dual!r} (tolerance {_GAP_TOL:g}) for the weighted states (c, rx, ry, rz) {rows}")
    return best


def psucc3(states, reduce_m3: bool = True) -> float:
    """Optimal success probability for 3 weighted qubit states
    [(BlochOperator density, probability), ...]."""
    weighted = [rho * p for rho, p in states]
    if len(weighted) != 3:
        raise ValueError("psucc3 needs exactly 3 states")
    return _psucc(weighted, reduce_m3=reduce_m3)[0]


def psucc4(states) -> float:
    weighted = [rho * p for rho, p in states]
    if len(weighted) != 4:
        raise ValueError("psucc4 needs exactly 4 states")
    return _psucc(weighted)[0]


# ------------------------------------------------------ polytope construction


def polytope_ratio_psucc(r_vectors) -> float:
    """Success probability 1/M + 2 rho* for equiprobable pure qubit states
    from the Bloch-polytope construction, rho* being the radius of the
    smallest ball that encloses the weighted vertices r_k/(2M): the dual
    (`_dual`) of states with c_k = 1/(2M)."""
    rs = [np.asarray(r, dtype=float) for r in r_vectors]
    for r in rs:
        if abs(np.linalg.norm(r) - 1.0) > 1e-9:
            raise ValueError("polytope construction requires pure states")
    return _dual([bloch_state(r, 1.0 / len(rs)) for r in rs])[0]


# ------------------------------------------------- cyclic-symmetric sets


def cyclic_symmetric_perr(psi0: np.ndarray, u: np.ndarray, m: int) -> float:
    """Minimum error probability for the cyclic-symmetric pure-state set
    {U^l |psi0>, l = 0..M-1, priors 1/M} with U^M = 1, up to a global phase
    (which leaves the states unchanged); other U raise ValueError.

    The set is geometrically uniform, so the square-root measurement is
    optimal and P_succ = (Tr sqrt(G) / M)^2, G being the Gram matrix
    <psi_k|psi_l> of the set (Ban et al., IJTP 36, 1269 (1997))."""
    u = np.asarray(u, dtype=complex)
    um = np.linalg.matrix_power(u, m)
    if np.linalg.norm(um - (np.trace(um) / len(um)) * np.eye(len(um))) > 1e-9:
        raise ValueError("U^M must be the identity (up to a global phase)")
    states = [np.asarray(psi0, dtype=complex)]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    s = np.array(states)
    return float(1.0 - (np.trace(sqrt_psd(s.conj() @ s.T)).real / m) ** 2)
