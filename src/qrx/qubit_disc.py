"""Minimum-error discrimination of 3-4 qubit states.

The success probability reduces to the function

    F(A, B, C) = max_Q Tr[ Q A + |sqrt(Q) B sqrt(Q)| + |sqrt(1-Q) C sqrt(1-Q)| ]

over operators 0 <= Q <= 1, evaluated here in the Bloch representation
H = c_H 1 + r_H . sigma (trace 2 c_H, eigenvalues c_H +- |r_H|).  Closed
forms are used when they provably apply; otherwise a deterministic
grid-plus-pattern-search optimization runs over the Bloch coefficients of Q.

The coarse grid is evaluated as arrays.  In general it runs over
(c_Q, r_Q in the span of r_A, r_B, r_C) and keeps only the feasible points
|r_Q| <= min(c_Q, 1 - c_Q); those points are built on first use for each
span dimension and cached read-only.  For three states (C = 0) the reduced
(c_Q, phi_Q) grid is one array expression.  The sign test and
|r|^2 - c^2 of B and C are computed once per search, not per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .povm import sqrt_psd

_SIGN_TOL = 1e-11  # definite-sign detection threshold on eigenvalues

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


def _sandwich_term(x: BlochOperator):
    """Tr| sqrt(Q') X sqrt(Q') | as a function of (c_eff, r_eff . r_X,
    |r_eff|^2), where Q' has Bloch coefficients (c_eff, r_eff).  Works on
    scalars and arrays; X's sign test and |r_X|^2 - c_X^2 run once here.

    For definite-sign X the sandwich keeps the sign, so the trace-abs equals
    |Tr[Q' X]|; otherwise the printed two-square-root qubit form applies.
    """
    if x.has_definite_sign():
        return lambda c_eff, rdot, rsq: 2.0 * np.abs(c_eff * x.c + rdot)
    gap = float(x.r @ x.r) - x.c**2

    def term(c_eff, rdot, rsq):
        # products, not **2: a numpy scalar's **2 calls pow(), which can
        # differ from an array's x*x in the last bit
        dot = c_eff * x.c + rdot
        return 2.0 * np.sqrt(np.maximum(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))

    return term


def f_value(q: BlochOperator, a: BlochOperator, b: BlochOperator, c: BlochOperator) -> float:
    """F_Q(A, B, C) via the Bloch closed forms; Q must satisfy 0 <= Q <= 1."""
    if not (-1e-9 <= q.c <= 1 + 1e-9 and q.rnorm <= min(q.c, 1 - q.c) + 1e-9):
        raise ValueError("Q violates 0 <= Q <= 1")
    rsq = float(q.r @ q.r)
    out = 2.0 * (q.c * a.c + float(q.r @ a.r))
    out += _sandwich_term(b)(q.c, float(q.r @ b.r), rsq)
    out += _sandwich_term(c)(1.0 - q.c, -float(q.r @ c.r), rsq)
    return float(out)


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


def _pattern_search(fun, x0, lower, upper, project=None, step0=0.05, step_min=1e-9):
    """Deterministic coordinate pattern search (maximization).  Trial points
    are clipped to the box and, if given, projected back onto the feasible
    set so the search can slide along constraint boundaries."""
    x = np.array(x0, dtype=float)
    fx = fun(x)
    step = step0
    n = x.size
    while step > step_min:
        improved = False
        for i in range(n):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] = np.clip(y[i] + sgn * step, lower[i], upper[i])
                if project is not None:
                    y = project(y)
                fy = fun(y)
                if fy > fx + 1e-15:
                    x, fx = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return fx, x


#: grid resolution per scalar dimension for the coarse stage
_GRID_POINTS = 41

#: span dimension k -> feasible coarse grid (c_Q, r_Q components), see _feasible_grid
_GRIDS: dict = {}


def _feasible_grid(k: int) -> tuple:
    """Points of the coarse (c_Q, r_1, ..., r_k) grid with |r| <= min(c, 1-c).

    Returns read-only arrays (c_Q of shape (n,), r components of shape
    (n, k)) in meshgrid(indexing="ij") ravel order, c_Q outermost.  Built on
    first use one c_Q slice at a time over a single k-D r-mesh, then cached.
    """
    grid = _GRIDS.get(k)
    if grid is None:
        cs = np.linspace(0.0, 1.0, _GRID_POINTS)
        axes = np.meshgrid(*[np.linspace(-0.5, 0.5, _GRID_POINTS)] * k, indexing="ij")
        r = np.stack([m.ravel() for m in axes], axis=-1) if k else np.zeros((1, 0))
        rnorm = np.sqrt((r**2).sum(axis=-1))
        keep = [rnorm <= min(cq, 1.0 - cq) for cq in cs]
        grid = (np.repeat(cs, [m.sum() for m in keep]), np.concatenate([r[m] for m in keep]))
        for arr in grid:
            arr.setflags(write=False)
        _GRIDS[k] = grid
    return grid


def _optimize_general(a, b, c, basis):
    """Coarse grid over the feasible (c_Q, r_Q components in `basis`).
    Returns the value, c_Q and r_Q components of the grid's first maximum
    and the array objective f_components(c_Q, r_components)."""
    ra, rb, rc = basis @ a.r, basis @ b.r, basis @ c.r
    term_b, term_c = _sandwich_term(b), _sandwich_term(c)

    def f_components(cq, rcomp):
        rsq = (rcomp**2).sum(axis=-1)
        out = 2.0 * (cq * a.c + rcomp @ ra)
        out = out + term_b(cq, rcomp @ rb, rsq)
        out = out + term_c(1.0 - cq, -(rcomp @ rc), rsq)
        return out

    cq, rcomp = _feasible_grid(basis.shape[0])
    vals = f_components(cq, rcomp)
    best = int(np.argmax(vals))
    return float(vals[best]), float(cq[best]), rcomp[best], f_components


def f_optimize(a: BlochOperator, b: BlochOperator, c: BlochOperator, reduce_m3: bool = True):
    """Maximize F_Q over 0 <= Q <= 1.  Returns (value, Q*).

    Uses the closed form Tr[(A+|B|-|C|)_+] + ||C||_1 with its certified Q
    when one of the sufficient conditions holds; otherwise (and always, as a
    floor) a deterministic coarse grid plus pattern-search refinement over
    the Bloch coefficients of Q.  For C = 0 the search is reduced to
    (c_Q, phi_Q) with c_Q + r_Q = 1 and r_Q in span(r_A, r_B) unless
    `reduce_m3` is disabled.
    """
    is_m3 = c.trace_norm() < 1e-14

    if is_m3 and reduce_m3:
        basis = _span_basis([a.r, b.r])
        if basis.shape[0] == 0:
            basis = np.eye(3)[:1]
        if basis.shape[0] == 1:
            # need a full plane to vary phi_Q
            extra = np.eye(3)[np.argmin(np.abs(basis[0]))]
            e2 = extra - (extra @ basis[0]) * basis[0]
            basis = np.vstack([basis[0], e2 / np.linalg.norm(e2)])
        basis = basis[:2]
        ra, rb = basis @ a.r, basis @ b.r
        term_b = _sandwich_term(b)

        # array or scalar (c_Q, phi_Q); the 2-vector dots are written out
        # because BLAS may fuse their multiply-add, so a scalar evaluation
        # equals the grid's value at the same point
        def f_angle(cq, phi):
            r0, r1 = (1.0 - cq) * np.cos(phi), (1.0 - cq) * np.sin(phi)
            tb = term_b(cq, r0 * rb[0] + r1 * rb[1], r0 * r0 + r1 * r1)
            return 2.0 * (cq * a.c + (r0 * ra[0] + r1 * ra[1])) + tb

        cs = np.linspace(0.5, 1.0, _GRID_POINTS)
        phis = np.linspace(0.0, 2 * np.pi, 2 * _GRID_POINTS, endpoint=False)
        i, j = np.unravel_index(np.argmax(f_angle(*np.meshgrid(cs, phis, indexing="ij"))),
                                (cs.size, phis.size))
        val, x = _pattern_search(
            lambda y: f_angle(*y),
            (cs[i], phis[j]),
            lower=np.array([0.5, -np.inf]),
            upper=np.array([1.0, np.inf]),
        )
        cq, phi = x
        rq3 = (1.0 - cq) * (np.cos(phi) * basis[0] + np.sin(phi) * basis[1])
        best_val, best_q = val, BlochOperator(cq, rq3)
    else:
        basis = _span_basis([a.r, b.r, c.r])
        g_val, cq0, rcomp0, f_components = _optimize_general(a, b, c, basis)
        k = basis.shape[0]

        if k == 0:
            val, x = _pattern_search(
                lambda y: float(f_components(np.array([y[0]]), np.zeros((1, 0)))[0]),
                np.array([cq0]),
                lower=np.array([0.0]),
                upper=np.array([1.0]),
            )
            best_val, best_q = val, BlochOperator(x[0], np.zeros(3))
            return _maybe_closed_form(a, b, c, best_val, best_q)

        # refine in (c_Q, t, angles): r = t * min(c, 1-c) * direction(angles),
        # so the cone constraint becomes the box t in [-1, 1] and the search
        # can slide along its boundary coordinate-wise
        def to_rcomp(x):
            c_val, t = x[0], x[1]
            if k == 1:
                direction = np.ones(1)
            elif k == 2:
                direction = np.array([np.cos(x[2]), np.sin(x[2])])
            else:
                th, ph = x[2], x[3]
                direction = np.array(
                    [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
                )
            return t * min(c_val, 1.0 - c_val) * direction

        def f_flat(x):
            return float(f_components(x[0], to_rcomp(x).reshape(1, k))[0])

        n_ang = max(0, k - 1)
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
        val, x = _pattern_search(
            f_flat,
            np.array(x0[: 2 + n_ang]),
            lower=np.array([0.0, -1.0] + [-np.inf] * n_ang),
            upper=np.array([1.0, 1.0] + [np.inf] * n_ang),
        )
        rq3 = to_rcomp(x) @ basis if k else np.zeros(3)
        best_val, best_q = val, BlochOperator(x[0], rq3)

    return _maybe_closed_form(a, b, c, best_val, best_q)


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
    """(success probability, Q*, ordering) of the best state ordering; the
    first ordering wins ties."""
    best = (-np.inf, None, None)
    for perm in _orderings(len(weighted)):
        a, b, c, pref = abc_operators([weighted[i] for i in perm])
        val, q = f_optimize(a, b, c, reduce_m3=reduce_m3)
        if pref + val > best[0]:
            best = (pref + val, q, perm)
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


# ------------------------------------------------------ geometric oracle


def _min_enclosing_ball(points: np.ndarray):
    """Smallest ball containing the points (exhaustive over boundary sets,
    exact for the small M used here).  Returns (center, radius)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = (None, np.inf)

    def consider(center, radius):
        nonlocal best
        if radius < best[1] - 1e-15 and np.all(
            np.linalg.norm(pts - center, axis=1) <= radius + 1e-12
        ):
            best = (center, radius)

    for i in range(n):
        consider(pts[i], 0.0)
    for i, j in combinations(range(n), 2):
        c = 0.5 * (pts[i] + pts[j])
        consider(c, np.linalg.norm(pts[i] - c))
    for idx in combinations(range(n), 3):
        p1, p2, p3 = pts[list(idx)]
        u, v = p2 - p1, p3 - p1
        g = np.array([[u @ u, u @ v], [u @ v, v @ v]])
        if abs(np.linalg.det(g)) < 1e-14:
            continue
        ab = np.linalg.solve(g, 0.5 * np.array([u @ u, v @ v]))
        c = p1 + ab[0] * u + ab[1] * v
        consider(c, np.linalg.norm(p1 - c))
    for idx in combinations(range(n), 4):
        p = pts[list(idx)]
        m = 2.0 * (p[1:] - p[0])
        if abs(np.linalg.det(m)) < 1e-14:
            continue
        rhs = (p[1:] ** 2).sum(axis=1) - (p[0] ** 2).sum()
        c = np.linalg.solve(m, rhs)
        consider(c, np.linalg.norm(p[0] - c))
    return best


def polytope_ratio_psucc(r_vectors) -> float:
    """Success probability 1/M + R for equiprobable pure qubit states from
    the Bloch-polytope construction.  The dual problem reduces to the
    smallest enclosing ball of the weighted vertices r_k/(2M):
    P = 1/M + 2 rho*, rho* being the Chebyshev radius."""
    rs = [np.asarray(r, dtype=float) for r in r_vectors]
    m = len(rs)
    for r in rs:
        if abs(np.linalg.norm(r) - 1.0) > 1e-9:
            raise ValueError("polytope construction requires pure states")
    _, rho_star = _min_enclosing_ball(np.array(rs) / (2.0 * m))
    return 1.0 / m + 2.0 * rho_star


# ------------------------------------------------- cyclic-symmetric sets


def cyclic_symmetric_perr(psi0: np.ndarray, u: np.ndarray, m: int) -> float:
    """Minimum error probability for the cyclic-symmetric pure-state set
    {U^l |psi0>, 1/M}: 1 - |sum_k lambda_k^{-1/2} |<d_k|psi0>|^2|^2, with
    {|d_k>} the common eigenbasis of U and the average state (eigenvalues
    lambda_k / M)."""
    from scipy.linalg import schur

    psi0 = np.asarray(psi0, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if m == 1:
        return 0.0
    states = [psi0]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    rho_avg = sum(np.outer(s, s.conj()) for s in states) / m

    # common eigenbasis: Schur-diagonalize U, then diagonalize the average
    # state inside each (possibly degenerate) U-eigenspace
    t, q = schur(u, output="complex")
    phases = np.diag(t)
    order = np.argsort(np.angle(phases))
    q = q[:, order]
    phases = phases[order]
    total = 0.0
    i = 0
    d = len(psi0)
    while i < d:
        j = i
        while j + 1 < d and abs(phases[j + 1] - phases[i]) < 1e-9:
            j += 1
        block = q[:, i : j + 1]
        w, v = np.linalg.eigh(block.conj().T @ rho_avg @ block)
        basis = block @ v
        for k in range(basis.shape[1]):
            lam = m * w[k]
            if lam > 1e-13:
                total += abs(np.vdot(basis[:, k], psi0)) ** 2 / np.sqrt(lam)
        i = j + 1
    return float(1.0 - total**2)
