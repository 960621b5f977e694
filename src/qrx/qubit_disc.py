"""Minimum-error discrimination of 3-4 qubit states.

The success probability reduces to the function

    F(A, B, C) = max_Q Tr[ Q A + |sqrt(Q) B sqrt(Q)| + |sqrt(1-Q) C sqrt(1-Q)| ]

over operators 0 <= Q <= 1, evaluated here in the Bloch representation
H = c_H 1 + r_H . sigma (trace 2 c_H, eigenvalues c_H +- |r_H|), stored as
the float array (c_H, rx, ry, rz); a set of n operators is an (n, 4) array.

The optimum comes from the qubit form of the Yuen-Kennedy-Lax dual
(`_dual`): the smallest ball that encloses the balls (r_k, c_k) of the
weighted states, found by enumerating its support sets, together with the
optimal POVM {Pi_k}.  Q* = Pi_0 + Pi_2 attains the maximum of F for the
(A, B, C) of the states in their given order (`abc_operators`), so p_succ
is that ordering's prefactor plus F at Q* (`f_value`): the F-function
primal, evaluated at a certified Q rather than searched for.  p_succ must
lie within _GAP_TOL of the dual value, or ConvergenceError names the
states.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ._search import _grid_max
from .errors import ConvergenceError

_SIGN_TOL = 1e-11  # definite-sign detection threshold on eigenvalues
_POVM_TOL = 1e-12  # largest negative weight and completeness defect of a dual POVM
_GAP_TOL = 1e-9  # largest |p_succ - dual value| that _psucc returns

# only for perfbench/tracing.py, which wraps both names by getattr; qubit_disc calls neither
_optimize_general = _pattern_search = _grid_max


def _rnorm(x) -> float:
    """|r| of the operator x = (c, rx, ry, rz)."""
    return float(np.linalg.norm(x[1:]))


def _has_definite_sign(x, tol: float = _SIGN_TOL) -> bool:
    """Whether both eigenvalues c -+ |r| of x = (c, rx, ry, rz) share a sign."""
    c, rn = x[0], _rnorm(x)
    return c - rn >= -tol or c + rn <= tol


# ------------------------------------------------------------ F evaluation


def _sandwich_term(x: np.ndarray, c_eff: float, rdot: float, rsq: float) -> float:
    """Tr| sqrt(Q') X sqrt(Q') | from c_eff, r_eff . r_X and |r_eff|^2, where
    Q' has Bloch coefficients (c_eff, r_eff).

    For definite-sign X the sandwich keeps the sign, so the trace-abs equals
    |Tr[Q' X]|; otherwise the printed two-square-root qubit form applies.
    """
    dot = c_eff * x[0] + rdot
    if _has_definite_sign(x):
        return 2.0 * abs(dot)
    gap = float(x[1:] @ x[1:]) - x[0]**2
    return 2.0 * math.sqrt(max(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))


def f_value(q: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """F_Q(A, B, C) via the Bloch closed forms; Q must satisfy 0 <= Q <= 1."""
    qc, qr = float(q[0]), q[1:]
    if not (-1e-9 <= qc <= 1 + 1e-9 and _rnorm(q) <= min(qc, 1 - qc) + 1e-9):
        raise ValueError("Q violates 0 <= Q <= 1")
    rsq = float(qr @ qr)
    out = 2.0 * (qc * a[0] + float(qr @ a[1:]))
    out += _sandwich_term(b, qc, float(qr @ b[1:]), rsq)
    out += _sandwich_term(c, 1.0 - qc, -float(qr @ c[1:]), rsq)
    return float(out)


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
    the (n, 4) array of the Pi_k (zero rows off the support)."""
    weighted = np.asarray(weighted, dtype=float)
    cs, rs = weighted[:, 0], weighted[:, 1:]
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
    povm = np.zeros_like(weighted)
    povm[sup] = 0.5 * w[:, None] * np.column_stack([np.ones(len(sup)), n])
    return dual, povm


# --------------------------------------------------- success probabilities


def abc_operators(weighted):
    """(A, B, C, prefactor) for the conventional ordering of 3 or 4 weighted
    states [sigma = p rho as (c, rx, ry, rz), ...] indexed by the binary
    labels l = k1 + 2 k2 (k1 = LSB): sigma_00, sigma_10, sigma_01, sigma_11.
    """
    s = list(weighted)
    if len(s) == 3:
        s00, s10, s01 = s
        a = 0.5 * (s00 + s01) - s10
        b = 0.5 * (s00 - s01)
        return a, b, np.zeros(4), 2.0 * s10[0]
    if len(s) == 4:
        s00, s10, s01, s11 = s
        a = 0.5 * (s00 + s01 - s10 - s11)
        b = 0.5 * (s00 - s01)
        c = 0.5 * (s10 - s11)
        return a, b, c, 0.5 * (2.0 * s10[0] + 2.0 * s11[0])
    raise ValueError("need 3 or 4 weighted states")


def _psucc(weighted) -> tuple:
    """(success probability, Q*, dual value) of 3 or 4 weighted states in
    their given order: the dual is solved once, and p_succ is the prefactor
    of `abc_operators` plus F at Q* = Pi_0 + Pi_2 of the dual's POVM.
    Raises ConvergenceError when p_succ is not within _GAP_TOL of the dual
    value."""
    dual, povm = _dual(weighted)
    a, b, c, prefactor = abc_operators(weighted)
    q = povm[0] + povm[2]
    p_succ = prefactor + f_value(q, a, b, c)
    if not abs(p_succ - dual) <= _GAP_TOL:
        raise ConvergenceError(
            f"qubit-disc: p_succ {p_succ!r} is {abs(p_succ - dual):.3g} from the dual value "
            f"{dual!r} (tolerance {_GAP_TOL:g}) for the weighted states (c, rx, ry, rz) "
            f"{np.asarray(weighted).tolist()}")
    return p_succ, q, dual
