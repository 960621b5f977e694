from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrx import povm as povm_mod
from qrx import qubit_disc as qd
from qrx.qubit_disc import (
    abc_operators,
    bloch_state,
    cyclic_symmetric_perr,
    f_optimize,
    f_value,
    polytope_ratio_psucc,
    psucc3,
    psucc4,
)


def planar(angle):
    return np.array([np.sin(angle), 0.0, np.cos(angle)])


# ---------------------------------------- qubit operators (c, rx, ry, rz)

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def op(c, r):
    """H = c 1 + r . sigma as the array (c, rx, ry, rz) that qubit_disc uses."""
    return np.array([c, *r], dtype=float)


def matrix(x):
    """The 2x2 matrix c 1 + r . sigma of x = (c, rx, ry, rz)."""
    return x[0] * np.eye(2) + np.tensordot(x[1:], PAULI, axes=1)


def from_matrix(m):
    return op(0.5 * np.trace(m).real, [0.5 * np.trace(m @ sig).real for sig in PAULI])


def eigenvalues(x):
    return (x[0] - qd._rnorm(x), x[0] + qd._rnorm(x))


def trace(x):
    return 2.0 * x[0]


def random_bloch_op(rng, scale=1.0):
    return op(scale * rng.normal(), scale * rng.normal(size=3))


def random_q(rng):
    c = rng.uniform(0.0, 1.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return op(c, rng.uniform(0, min(c, 1 - c)) * direction)


# ------------------------------------------- matrix and closed-form oracles


def abs_op(x):
    """|H| in the Bloch form: eigenvalues |c -+ |r||, same eigenvectors."""
    lo, hi = eigenvalues(x)
    rn = qd._rnorm(x)
    return op(0.5 * (abs(hi) + abs(lo)),
              (0.5 * (abs(hi) - abs(lo)) / rn) * x[1:] if rn > 0 else x[1:] * 0.0)


def pos_part_trace(x):
    lo, hi = eigenvalues(x)
    return max(hi, 0.0) + max(lo, 0.0)


def trace_norm(x):
    lo, hi = eigenvalues(x)
    return abs(hi) + abs(lo)


def f_value_matrix(q, a, b, c):
    """Direct 2x2 matrix evaluation of F_Q."""
    qm = matrix(q)
    sq = povm_mod.sqrt_psd(qm)
    sq1 = povm_mod.sqrt_psd(np.eye(2) - qm)

    def tr_abs(m):
        return float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T))).sum())

    return float(
        np.trace(qm @ matrix(a)).real
        + tr_abs(sq @ matrix(b) @ sq)
        + tr_abs(sq1 @ matrix(c) @ sq1)
    )


def closed_form_applies(a, b, c):
    """Any of the three sufficient conditions for the closed form."""
    # case 2: B and C have a definite sign
    if qd._has_definite_sign(b) and qd._has_definite_sign(c):
        return True
    am, bm, cm = matrix(a), matrix(b), matrix(c)
    # case 3: A, B, C all commute
    if (
        np.max(np.abs(am @ bm - bm @ am)) < 1e-11
        and np.max(np.abs(am @ cm - cm @ am)) < 1e-11
        and np.max(np.abs(bm @ cm - cm @ bm)) < 1e-11
    ):
        return True
    # case 1: supp(B) within supp(A+), supp(C) within supp(A-)
    wa, ua = np.linalg.eigh(am)
    pa_pos = (ua * (wa > qd._SIGN_TOL)) @ ua.conj().T
    pa_neg = (ua * (wa < -qd._SIGN_TOL)) @ ua.conj().T
    in_pos = np.max(np.abs(pa_pos @ bm @ pa_pos - bm)) < 1e-11
    in_neg = np.max(np.abs(pa_neg @ cm @ pa_neg - cm)) < 1e-11
    return in_pos and in_neg


def closed_form_value(a, b, c):
    """Tr[(A + |B| - |C|)_+] + ||C||_1."""
    return pos_part_trace(a + abs_op(b) - abs_op(c)) + trace_norm(c)


def maybe_closed_form(a, b, c, best_val, best_q):
    """The old path's upgrade of a searched (value, Q) by the closed form
    and its certificate Q = theta(A + |B| - |C|), where the closed form
    applies."""
    if closed_form_applies(a, b, c):
        cf = closed_form_value(a, b, c)
        if cf >= best_val - 1e-12:
            x = a + abs_op(b) - abs_op(c)
            lo, hi = eigenvalues(x)
            if lo > 0:
                q_cert = op(1.0, np.zeros(3))
            elif hi <= 0:
                q_cert = op(0.0, np.zeros(3))
            elif qd._rnorm(x) > 0:
                q_cert = op(0.5, 0.5 * x[1:] / qd._rnorm(x))
            else:
                q_cert = op(0.5, np.zeros(3))
            # certify only when the analytic Q attains the value
            if abs(f_value_matrix(q_cert, a, b, c) - cf) < 1e-10:
                return cf, q_cert
            return max(cf, best_val), best_q
    return best_val, best_q


def dual_oracle(weighted):
    """min Tr[K] s.t. K >= sigma_k: for qubits the constraints are the cone
    inequalities |r_K - r_k| <= c_K - c_k, so Tr[K] = 2 min_r g(r) with
    g(r) = max_k (c_k + |r - r_k|), a convex function on R^3.  Independent
    route (derivative-free minimization of the dual) against the F-function
    optimization: Nelder-Mead from the centroid, restarted with a fresh 0.1
    simplex until g stops decreasing."""
    from scipy.optimize import minimize

    cs, rs = np.asarray(weighted)[:, 0], np.asarray(weighted)[:, 1:]

    def g(r):
        return float(np.max(cs + np.linalg.norm(rs - r, axis=1)))

    x, best = rs.mean(axis=0), np.inf
    while True:
        simplex = np.vstack([x, x + 0.1 * np.eye(3)])
        res = minimize(g, x, method="Nelder-Mead",
                       options={"initial_simplex": simplex, "xatol": 1e-13, "fatol": 1e-15,
                                "maxiter": 20000, "maxfev": 40000})
        assert res.success, res.message
        if res.fun >= best:
            return 2.0 * best
        x, best = res.x, res.fun


# ------------------------------------------------------------- Bloch algebra


@settings(max_examples=50, deadline=None)
@given(
    c=st.floats(-2, 2),
    rx=st.floats(-2, 2),
    ry=st.floats(-2, 2),
    rz=st.floats(-2, 2),
)
def test_bloch_operator_matches_matrix_algebra(c, rx, ry, rz):
    # the test-local helpers on (c, rx, ry, rz) against 2x2 matrix algebra
    x = op(c, [rx, ry, rz])
    m = matrix(x)
    assert np.allclose(np.trace(m).real, trace(x), atol=1e-12)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(sorted(w), sorted(eigenvalues(x)), atol=1e-10)
    assert np.abs(w).sum() == pytest.approx(trace_norm(x), abs=1e-10)
    assert qd._has_definite_sign(x) == (w.min() >= -qd._SIGN_TOL or w.max() <= qd._SIGN_TOL)
    back = from_matrix(m)
    assert back[0] == pytest.approx(x[0], abs=1e-12)
    assert np.allclose(back[1:], x[1:], atol=1e-12)


def test_abs_op_matches_matrix_abs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = random_bloch_op(rng)
        w, u = np.linalg.eigh(matrix(x))
        want = (u * np.abs(w)) @ u.conj().T
        assert np.allclose(matrix(abs_op(x)), want, atol=1e-10)


def test_bloch_state_validates():
    with pytest.raises(ValueError, match="outside the sphere"):
        bloch_state([1.2, 0, 0])
    with pytest.raises(ValueError, match="real 3-vector"):
        bloch_state([1, 0])
    rho = bloch_state([0, 0, 1], p=0.25)
    assert rho.shape == (4,)
    assert trace(rho) == pytest.approx(0.25)
    assert min(eigenvalues(rho)) == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------- F function


def test_f_value_against_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = random_q(rng)
        a = random_bloch_op(rng)
        b = random_bloch_op(rng)
        c = random_bloch_op(rng)
        assert f_value(q, a, b, c) == pytest.approx(f_value_matrix(q, a, b, c), abs=1e-9)


def test_f_value_definite_sign_branch():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = random_q(rng)
        a = random_bloch_op(rng)
        # force definite signs: |r| < |c|
        cb, cc = rng.normal(), rng.normal()
        db, dc = rng.normal(size=3), rng.normal(size=3)
        b = op(cb, rng.uniform(0, 0.95 * abs(cb)) * db / np.linalg.norm(db))
        c = op(cc, rng.uniform(0, 0.95 * abs(cc)) * dc / np.linalg.norm(dc))
        assert qd._has_definite_sign(b) and qd._has_definite_sign(c)
        assert f_value(q, a, b, c) == pytest.approx(f_value_matrix(q, a, b, c), abs=1e-9)


def test_f_value_rejects_infeasible_q():
    with pytest.raises(ValueError):
        f_value(
            op(0.5, [0.9, 0, 0]),
            op(1, np.zeros(3)),
            op(0, np.zeros(3)),
            op(0, np.zeros(3)),
        )


def test_closed_form_definite_sign_case():
    # B, C with definite signs: optimum is Tr[(A+|B|-|C|)_+] + ||C||_1
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_bloch_op(rng)
        cb, cc = abs(rng.normal()), -abs(rng.normal())
        db, dc = rng.normal(size=3), rng.normal(size=3)
        b = op(cb, rng.uniform(0, 0.95 * cb) * db / np.linalg.norm(db))
        c = op(cc, rng.uniform(0, -0.95 * cc) * dc / np.linalg.norm(dc))
        val, q = f_optimize(a, b, c)
        assert abs(val - closed_form_value(a, b, c)) <= 1e-12
        # value is attained by a feasible Q
        assert f_value_matrix(q, a, b, c) == pytest.approx(val, abs=1e-7)


def test_commuting_case_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        a = op(rng.normal(), rng.normal() * axis)
        b = op(rng.normal(), rng.normal() * axis)
        c = op(rng.normal(), rng.normal() * axis)
        val, _ = f_optimize(a, b, c)
        assert abs(val - closed_form_value(a, b, c)) <= 1e-12


def test_f_recursion_identity():
    # F(A, B, 0) = F(-3B - A, B - A, 0)/2 + Tr[A + B]
    rng = np.random.default_rng(23)
    zero = np.zeros(4)
    for _ in range(5):
        a = random_bloch_op(rng, scale=0.4)
        b = random_bloch_op(rng, scale=0.4)
        lhs, _ = f_optimize(a, b, zero)
        inner, _ = f_optimize(-3 * b - a, b - a, zero)
        assert lhs == pytest.approx(0.5 * inner + trace(a + b), abs=5e-7)


def test_m3_reduction_matches_full_search():
    # the old path's reduced M=3 search and its full search both reach F at
    # the dual's Q*
    rng = np.random.default_rng(29)
    zero = np.zeros(4)
    for _ in range(5):
        a = random_bloch_op(rng, scale=0.3)
        b = random_bloch_op(rng, scale=0.3)
        val, _ = f_optimize(a, b, zero)
        for reduce_m3 in (True, False):
            assert oracle_f_optimize(a, b, zero, reduce_m3)[0] == pytest.approx(val, abs=5e-7)


# -------------------------------------------------------------- M=3 states


def trine():
    return [(bloch_state(planar(2 * np.pi * k / 3)), 1 / 3) for k in range(3)]


def test_trine_success_probability():
    assert psucc3(trine()) == pytest.approx(2 / 3, abs=1e-6)


def test_maximally_mixed_states_give_the_largest_prior():
    # zero Bloch vectors: the reduced (c_Q, phi_Q) search still needs a plane
    states = [(bloch_state(np.zeros(3)), p) for p in (0.2, 0.3, 0.5)]
    assert psucc3(states) == pytest.approx(0.5, abs=1e-12)


def test_trine_polytope_cross_check():
    p = polytope_ratio_psucc([planar(2 * np.pi * k / 3) for k in range(3)])
    assert p == pytest.approx(2 / 3, abs=1e-12)
    assert psucc3(trine()) == pytest.approx(p, abs=1e-6)


def test_psucc3_against_dual_oracle():
    rng = np.random.default_rng(31)
    for _ in range(6):
        rs = rng.normal(size=(3, 3))
        rs /= np.linalg.norm(rs, axis=1, keepdims=True)
        rs *= rng.uniform(0.2, 1.0, size=(3, 1))  # mixed states too
        p = rng.random(3) + 0.1
        p /= p.sum()
        states = [(bloch_state(r), pk) for r, pk in zip(rs, p)]
        weighted = [rho * pk for rho, pk in states]
        assert psucc3(states) == pytest.approx(dual_oracle(weighted), abs=5e-6)


def test_psucc3_rotation_invariance():
    rng = np.random.default_rng(37)
    from scipy.spatial.transform import Rotation

    rs = rng.normal(size=(3, 3))
    rs /= np.linalg.norm(rs, axis=1, keepdims=True)
    states = [(bloch_state(r), 1 / 3) for r in rs]
    rot = Rotation.from_rotvec([0.3, -1.1, 0.4]).as_matrix()
    rotated = [(bloch_state(rot @ r), 1 / 3) for r in rs]
    assert psucc3(states) == pytest.approx(psucc3(rotated), abs=1e-6)


def test_planar_triple_plateau_geometry():
    # three equiprobable pure states in a plane: the success probability sits
    # at 2/3 exactly when the state triangle contains the Bloch origin, and
    # strictly below otherwise
    phi2 = 2 * np.pi / 3
    inside = polytope_ratio_psucc([planar(0), planar(phi2), planar(4.2)])
    outside = polytope_ratio_psucc([planar(0), planar(phi2), planar(np.pi / 15)])
    assert inside == pytest.approx(2 / 3, abs=1e-12)
    assert outside < 2 / 3 - 1e-3
    # the narrow configuration reduces to the best pair (two-element ball)
    want = 1 / 3 + np.linalg.norm(planar(0) - planar(phi2)) / 6
    assert outside == pytest.approx(want, abs=1e-12)
    assert psucc3([(bloch_state(planar(a)), 1 / 3) for a in (0, phi2, np.pi / 15)]) == pytest.approx(
        outside, abs=1e-6
    )


# -------------------------------------------------------------- M=4 states


def test_bb84_states():
    states = [
        (bloch_state([0, 0, 1]), 0.25),
        (bloch_state([0, 0, -1]), 0.25),
        (bloch_state([1, 0, 0]), 0.25),
        (bloch_state([-1, 0, 0]), 0.25),
    ]
    assert psucc4(states) == pytest.approx(0.5, abs=1e-6)


def test_tetrahedron_states():
    rs = np.array(
        [[0, 0, 1], [2 * np.sqrt(2) / 3, 0, -1 / 3],
         [-np.sqrt(2) / 3, np.sqrt(2 / 3), -1 / 3],
         [-np.sqrt(2) / 3, -np.sqrt(2 / 3), -1 / 3]]
    )
    states = [(bloch_state(r), 0.25) for r in rs]
    p = psucc4(states)
    assert p == pytest.approx(0.5, abs=1e-6)  # SIC set: 1/M + 2*(1/8) = 1/2
    assert p == pytest.approx(polytope_ratio_psucc(rs), abs=1e-6)


def test_psucc4_against_dual_oracle():
    rng = np.random.default_rng(41)
    for _ in range(4):
        rs = rng.normal(size=(4, 3))
        rs /= np.linalg.norm(rs, axis=1, keepdims=True)
        rs *= rng.uniform(0.3, 1.0, size=(4, 1))
        p = rng.random(4) + 0.1
        p /= p.sum()
        states = [(bloch_state(r), pk) for r, pk in zip(rs, p)]
        weighted = [rho * pk for rho, pk in states]
        assert psucc4(states) == pytest.approx(dual_oracle(weighted), abs=5e-6)


def test_abc_operators_shapes_and_traces():
    weighted = [bloch_state(planar(a), 0.25) for a in (0.0, 1.0, 2.0, 3.0)]
    a, b, c, pref = abc_operators(weighted)
    assert pref == pytest.approx(0.25)
    assert trace(a) == pytest.approx(0.0, abs=1e-12)
    assert trace(b) == pytest.approx(0.0, abs=1e-12)
    assert trace(c) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        abc_operators(weighted[:2])


# -------------------------------------------------------- polytope geometry


def test_polytope_two_antipodal_like():
    # smallest ball of two points: half the chord
    p = polytope_ratio_psucc([planar(0), planar(np.pi)])
    assert p == pytest.approx(1.0, abs=1e-12)


def test_polytope_requires_pure():
    with pytest.raises(ValueError):
        polytope_ratio_psucc([[0.5, 0, 0], [0, 0, 1]])


def test_polytope_matches_helstrom_pair():
    # equiprobable pure pair: P = 1/2 + |r1 - r2|/4
    for ang in (0.3, 1.2, 2.9):
        want = 0.5 + np.linalg.norm(planar(0) - planar(ang)) / 4
        assert polytope_ratio_psucc([planar(0), planar(ang)]) == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------- cyclic symmetric sets


def test_cyclic_antipodal_perfect():
    psi0 = np.array([1.0, 0.0])
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert cyclic_symmetric_perr(psi0, u, 2) == pytest.approx(0.0, abs=1e-12)


def test_cyclic_two_state_matches_helstrom():
    for theta in (0.2, 0.6, 1.0):
        psi0 = np.array([np.cos(theta), np.sin(theta)])
        u = np.diag([1.0, -1.0])
        perr = cyclic_symmetric_perr(psi0, u, 2)
        overlap = np.cos(theta) ** 2 - np.sin(theta) ** 2
        want = 0.5 * (1 - np.sqrt(1 - overlap**2))
        assert perr == pytest.approx(want, abs=1e-10)


def test_cyclic_trine_matches_bloch_route():
    # rotation by 2pi/3 about y generates the trine
    ang = np.pi / 3
    u = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    psi0 = np.array([1.0, 0.0])
    perr = cyclic_symmetric_perr(psi0, u, 3)
    assert perr == pytest.approx(1 - 2 / 3, abs=1e-10)


def test_cyclic_matches_srm_in_higher_dim():
    rng = np.random.default_rng(43)
    d, m = 5, 4
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    shift = np.roll(np.eye(d), 1, axis=0)  # cyclic permutation, order 5 -> use 4-cycle block
    u = np.zeros((d, d), dtype=complex)
    u[:4, :4] = np.roll(np.eye(4), 1, axis=0)
    u[4, 4] = 1.0
    del shift
    perr = cyclic_symmetric_perr(psi0, u, m)
    states = [psi0]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    meas = povm_mod.srm([np.outer(s, s.conj()) for s in states])
    p_succ = sum(
        np.trace(e @ np.outer(s, s.conj())).real for e, s in zip(meas.elements, states)
    ) / m
    assert perr == pytest.approx(1 - p_succ, abs=1e-10)


def test_cyclic_rejects_a_set_that_does_not_close():
    # U^3 = diag(1, e^{3i}) is no multiple of 1, so {U^l psi0} is not
    # geometrically uniform and the square-root measurement (P_succ 0.5354)
    # is not optimal: the three states' optimum is 0.5694.  (A global phase,
    # U^M = -1, is allowed: see test_cyclic_trine_matches_bloch_route.)
    u = np.diag([1.0, np.exp(1j)])
    psi0 = np.array([np.cos(0.5), np.sin(0.5)])
    with pytest.raises(ValueError, match=r"U\^M"):
        cyclic_symmetric_perr(psi0, u, 3)
    states = [psi0, u @ psi0, u @ u @ psi0]
    bloch = [np.real([np.vdot(v, sig @ v) for sig in PAULI]) for v in states]
    assert psucc3([(bloch_state(r), 1 / 3) for r in bloch]) == pytest.approx(0.5694, abs=1e-4)


def random_cyclic_set(seed, m=None, eigenvalues=None):
    """(psi0, U, M, -1 is a degenerate eigenvalue of U) for a seeded
    cyclic-symmetric set: U = Q diag(eigenvalues) Q^dag with a random
    unitary Q and, by default, random M-th roots of unity as eigenvalues, so
    U^M = 1; psi0 is a random unit vector."""
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        d, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        ks = rng.integers(0, m, size=d)
        eigenvalues = np.exp(2j * np.pi * ks / m)
        degenerate = m % 2 == 0 and np.sum(ks == m // 2) > 1
    else:
        d, degenerate = len(eigenvalues), list(eigenvalues).count(-1) > 1
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = (q * np.asarray(eigenvalues)) @ q.conj().T
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi0 / np.linalg.norm(psi0), u, m, degenerate


def schur_cyclic_perr(psi0, u, m):
    """Oracle: the earlier route, 1 - (sum_k lambda_k^{-1/2} |<d_k|psi0>|^2)^2
    over the common eigenbasis {d_k} of U (Schur form, eigenvalues sorted by
    angle and grouped) and the average state (eigenvalues lambda_k / M).
    Sorting by angle puts a degenerate eigenvalue -1 at both +pi and -pi and
    splits its eigenspace, so it holds only where -1 is not degenerate."""
    from scipy.linalg import schur

    states = [np.asarray(psi0, dtype=complex)]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    rho_avg = sum(np.outer(s, s.conj()) for s in states) / m
    t, q = schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.diag(t)
    order = np.argsort(np.angle(phases))
    q, phases = q[:, order], phases[order]
    total, i, d = 0.0, 0, len(psi0)
    while i < d:
        j = i
        while j + 1 < d and abs(phases[j + 1] - phases[i]) < 1e-9:
            j += 1
        block = q[:, i : j + 1]
        w, v = np.linalg.eigh(block.conj().T @ rho_avg @ block)
        basis = block @ v
        for k in range(basis.shape[1]):
            if m * w[k] > 1e-13:
                total += abs(np.vdot(basis[:, k], psi0)) ** 2 / np.sqrt(m * w[k])
        i = j + 1
    return float(1.0 - total**2)


@pytest.mark.parametrize("seed", range(20))
def test_cyclic_pair_with_degenerate_minus_one(seed):
    # U = Q diag(1, -1, -1) Q^dag: the Schur route split the -1 eigenspace
    # and returned -0.391 at seed 4; Helstrom's pair formula gives 0.00201
    psi0, u, m, _ = random_cyclic_set(seed, m=2, eigenvalues=[1.0, -1.0, -1.0])
    overlap = abs(np.vdot(psi0, u @ psi0)) ** 2
    want = 0.5 * (1.0 - np.sqrt(1.0 - overlap))
    assert cyclic_symmetric_perr(psi0, u, m) == pytest.approx(want, abs=1e-14)


def test_cyclic_matches_srm_and_schur_oracles():
    compared = 0
    for seed in range(300):
        psi0, u, m, degenerate_minus_one = random_cyclic_set(seed)
        perr = cyclic_symmetric_perr(psi0, u, m)
        states = [psi0]
        for _ in range(m - 1):
            states.append(u @ states[-1])
        meas = povm_mod.srm([np.outer(s, s.conj()) for s in states])
        p_srm = sum(np.vdot(s, e @ s).real for e, s in zip(meas.elements, states)) / m
        assert perr == pytest.approx(1.0 - p_srm, abs=1e-14)
        if not degenerate_minus_one:
            assert perr == pytest.approx(schur_cyclic_perr(psi0, u, m), abs=1e-14)
            compared += 1
    assert compared > 200


# ------------------------------------------------ the old grid-plus-search path
#
# Before p_succ was read off the dual's POVM, every inequivalent state
# ordering was searched: each started from the best point of a coarse grid
# (for general orderings the feasible points of the (c_Q, r_1..r_k) mesh
# with GRID_POINTS per axis, for the reduced M=3 domain a (c_Q, phi_Q)
# grid), followed by one scalar pattern search, and the best ordering won.
# The functions below are that path, kept as the oracle: F at the dual's Q*
# must never do worse than it.

GRID_POINTS = 41


def span_basis(vectors, tol=1e-12):
    """Orthonormal basis (rows) of the span of the given 3-vectors."""
    m = np.array([v for v in vectors if np.linalg.norm(v) > tol])
    if m.size == 0:
        return np.zeros((0, 3))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[s > tol * max(1.0, s[0])]


def orderings(n):
    """Inequivalent state orderings: p_succ is invariant, but the closed-form
    conditions may hold only for some of them."""
    seen, out = set(), []
    for perm in permutations(range(n)):
        if n == 3:
            key = (frozenset((perm[0], perm[2])), perm[1])
        else:
            key = (perm[1], perm[3], frozenset((perm[0], perm[2])))
        if key not in seen:
            seen.add(key)
            out.append(perm)
    return out


def scalar_pattern_search(fun, x0, lower, upper, step0=0.05, step_min=1e-9):
    """The one-point coordinate search that `_search._pattern_search` runs
    for each of its lanes: scalar fun, np.clip, one step."""
    x = np.array(x0, dtype=float)
    fx = fun(x)
    step = step0
    while step > step_min:
        improved = False
        for i in range(x.size):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] = np.clip(y[i] + sgn * step, lower[i], upper[i])
                fy = fun(y)
                if fy > fx + 1e-15:
                    x, fx = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return fx, x


def oracle_plane_basis(a, b):
    basis = span_basis([a[1:], b[1:]])
    if basis.shape[0] == 0:
        basis = np.eye(3)[:1]
    if basis.shape[0] == 1:
        extra = np.eye(3)[np.argmin(np.abs(basis[0]))]
        e2 = extra - (extra @ basis[0]) * basis[0]
        basis = np.vstack([basis[0], e2 / np.linalg.norm(e2)])
    return basis[:2]


def ensemble(rng, n, dim, pure):
    """n weighted states with Bloch vectors spanning `dim` dimensions."""
    rs = np.zeros((n, 3))
    rs[:, :dim] = rng.normal(size=(n, dim))
    if dim:
        rs /= np.linalg.norm(rs, axis=1, keepdims=True)
        if not pure:
            rs *= rng.uniform(0.2, 0.9, size=(n, 1))
    p = rng.random(n) + 0.1
    return [bloch_state(r, pk) for r, pk in zip(rs, p / p.sum())]


def abc_of_orderings(weighted, limit=None):
    perms = orderings(len(weighted))[:limit]
    return [abc_operators([weighted[i] for i in perm])[:3] for perm in perms]


def oracle_sandwich_term(x):
    if qd._has_definite_sign(x):
        return lambda c_eff, rdot, rsq: 2.0 * np.abs(c_eff * x[0] + rdot)
    gap = float(x[1:] @ x[1:]) - x[0]**2

    def term(c_eff, rdot, rsq):
        dot = c_eff * x[0] + rdot
        return 2.0 * np.sqrt(np.maximum(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))

    return term


_FEASIBLE_GRIDS = {}


def oracle_feasible_grid(k):
    """(c_Q, r components) of the (c_Q, r_1..r_k) mesh with
    |r| <= min(c_Q, 1 - c_Q), c_Q outermost."""
    if k not in _FEASIBLE_GRIDS:
        mesh = np.meshgrid(np.linspace(0.0, 1.0, GRID_POINTS),
                           *[np.linspace(-0.5, 0.5, GRID_POINTS)] * k, indexing="ij")
        full = np.stack([m.ravel() for m in mesh], axis=-1)
        ok = np.sqrt((full[:, 1:] ** 2).sum(axis=-1)) <= np.minimum(full[:, 0], 1.0 - full[:, 0])
        _FEASIBLE_GRIDS[k] = full[ok, 0], np.ascontiguousarray(full[ok, 1:])
    return _FEASIBLE_GRIDS[k]


def oracle_optimize_general(a, b, c, basis):
    k = basis.shape[0]
    ra, rb, rc = basis @ a[1:], basis @ b[1:], basis @ c[1:]
    term_b, term_c = oracle_sandwich_term(b), oracle_sandwich_term(c)

    def f_components(cq, rcomp):
        rsq = (rcomp**2).sum(axis=-1)
        out = 2.0 * (cq * a[0] + rcomp @ ra)
        out = out + term_b(cq, rcomp @ rb, rsq)
        out = out + term_c(1.0 - cq, -(rcomp @ rc), rsq)
        return out

    cq, rcomp = oracle_feasible_grid(k)
    vals = f_components(cq, rcomp)
    best = int(np.argmax(vals))
    return float(vals[best]), float(cq[best]), rcomp[best], f_components


def oracle_f_optimize(a, b, c, reduce_m3=True):
    if trace_norm(c) < 1e-14 and reduce_m3:
        basis = oracle_plane_basis(a, b)
        ra, rb = basis @ a[1:], basis @ b[1:]
        term_b = oracle_sandwich_term(b)

        def f_angle(cq, phi):
            r0, r1 = (1.0 - cq) * np.cos(phi), (1.0 - cq) * np.sin(phi)
            tb = term_b(cq, r0 * rb[0] + r1 * rb[1], r0 * r0 + r1 * r1)
            return 2.0 * (cq * a[0] + (r0 * ra[0] + r1 * ra[1])) + tb

        cs = np.linspace(0.5, 1.0, GRID_POINTS)
        phis = np.linspace(0.0, 2 * np.pi, 2 * GRID_POINTS, endpoint=False)
        i, j = np.unravel_index(np.argmax(f_angle(*np.meshgrid(cs, phis, indexing="ij"))),
                                (cs.size, phis.size))
        val, (cq, phi) = scalar_pattern_search(lambda y: f_angle(*y), (cs[i], phis[j]),
                                               np.array([0.5, -np.inf]), np.array([1.0, np.inf]))
        rq3 = (1.0 - cq) * (np.cos(phi) * basis[0] + np.sin(phi) * basis[1])
        return maybe_closed_form(a, b, c, val, op(cq, rq3))
    basis = span_basis([a[1:], b[1:], c[1:]])
    _, cq0, rcomp0, f_components = oracle_optimize_general(a, b, c, basis)
    k = basis.shape[0]
    if k == 0:
        val, x = scalar_pattern_search(
            lambda y: float(f_components(np.array([y[0]]), np.zeros((1, 0)))[0]),
            np.array([cq0]), np.array([0.0]), np.array([1.0]))
        return maybe_closed_form(a, b, c, val, op(x[0], np.zeros(3)))

    def to_rcomp(x):
        c_val, t = x[0], x[1]
        if k == 1:
            direction = np.ones(1)
        elif k == 2:
            direction = np.array([np.cos(x[2]), np.sin(x[2])])
        else:
            th, ph = x[2], x[3]
            direction = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return t * min(c_val, 1.0 - c_val) * direction

    n_ang = max(0, k - 1)
    rn0 = np.linalg.norm(rcomp0)
    bound0 = max(min(cq0, 1.0 - cq0), 1e-12)
    x0 = [cq0, min(rn0 / bound0, 1.0)]
    if k == 1:
        x0[1] *= np.sign(rcomp0[0]) if rn0 > 0 else 1.0
    elif k == 2:
        x0.append(np.arctan2(rcomp0[1], rcomp0[0]) if rn0 > 0 else 0.0)
    else:
        x0.append(np.arccos(np.clip(rcomp0[2] / rn0, -1, 1)) if rn0 > 0 else 0.0)
        x0.append(np.arctan2(rcomp0[1], rcomp0[0]) if rn0 > 0 else 0.0)
    val, x = scalar_pattern_search(
        lambda x: float(f_components(x[0], to_rcomp(x).reshape(1, k))[0]), np.array(x0),
        np.array([0.0, -1.0] + [-np.inf] * n_ang), np.array([1.0, 1.0] + [np.inf] * n_ang))
    return maybe_closed_form(a, b, c, val, op(x[0], to_rcomp(x) @ basis))


def oracle_psucc(weighted, reduce_m3=True):
    """(best p_succ, Q*, ordering) of the old path; the first ordering wins
    ties."""
    best = (-np.inf, None, None)
    for perm in orderings(len(weighted)):
        a, b, c, pref = abc_operators([weighted[i] for i in perm])
        val, q = oracle_f_optimize(a, b, c, reduce_m3)
        if pref + val > best[0]:
            best = (pref + val, q, perm)
    return best


# ------------------------------------------------------ the dual start


def assert_dual_certified(weighted, reduce_m3=True):
    """The dual's POVM is a POVM whose value is the dual value; in every
    ordering F at Q* = Pi_perm[0] + Pi_perm[2] plus the prefactor is the dual
    value (gap <= 1e-12); p_succ is no worse than the old path (its reduced
    M=3 search when `reduce_m3`), and its Q is an effect.  Returns the dual
    value."""
    dual, povm = qd._dual(weighted)
    assert povm.shape == (len(weighted), 4)
    total = povm.sum(axis=0)
    assert abs(total[0] - 1.0) <= 1e-12 and qd._rnorm(total) <= 1e-12
    assert all(min(eigenvalues(pi)) >= -1e-12 for pi in povm)
    assert abs(sum(np.trace(matrix(pi) @ matrix(s)).real for pi, s in zip(povm, weighted))
               - dual) <= 1e-12
    for perm in orderings(len(weighted)):
        a, b, c, pref = abc_operators([weighted[i] for i in perm])
        assert abs(pref + f_value(povm[perm[0]] + povm[perm[2]], a, b, c) - dual) <= 1e-12
    val, q, dual_out = qd._psucc(weighted)
    assert dual_out == dual and abs(val - dual) <= 1e-12
    assert val >= oracle_psucc(weighted, reduce_m3)[0] - 1e-12
    assert -1e-12 <= q[0] <= 1.0 + 1e-12 and qd._rnorm(q) <= min(q[0], 1.0 - q[0]) + 1e-12
    return dual


@pytest.mark.parametrize("n, dim, pure", [
    (3, 3, True), (3, 3, False), (3, 2, True), (4, 2, True), (4, 2, False), (4, 3, False),
    (4, 3, True)])
def test_dual_start_certifies_every_class(n, dim, pure):
    # the qubit-disc benchmark classes: coplanar or 3-D, pure or mixed
    rng = np.random.default_rng([73, n, dim, pure])
    for _ in range(2):
        assert_dual_certified(ensemble(rng, n, dim, pure))


def test_dual_start_certifies_the_edge_cases():
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(79)
    # a zero prior: the optimum is that of the other three states
    weighted = ensemble(rng, 4, 3, False)
    weighted[2] = bloch_state(weighted[2][1:] / weighted[2][0], 0.0)
    scale = 1.0 / sum(trace(s) for s in weighted)
    rest = [s * scale for k, s in enumerate(weighted) if k != 2]
    assert assert_dual_certified([s * scale for s in weighted]) == pytest.approx(
        assert_dual_certified(rest), abs=1e-12)
    # two identical states
    weighted = ensemble(rng, 4, 3, False)
    weighted[3] = weighted[1]
    assert_dual_certified(weighted)
    # a maximally mixed state
    weighted = ensemble(rng, 3, 3, True)
    weighted[0] = bloch_state(np.zeros(3), trace(weighted[0]))
    assert_dual_certified(weighted)
    # one dominant ball that holds the rest: measuring nothing is optimal
    weighted = [bloch_state(np.zeros(3), 0.7)] + ensemble(rng, 3, 3, True)
    weighted[1:] = [s * 0.3 for s in weighted[1:]]
    assert assert_dual_certified(weighted) == pytest.approx(0.7, abs=1e-15)
    # three states with the dominant one second: Q* is 0, off the old path's
    # reduced M=3 domain (c_Q + |r_Q| = 1)
    dominant = [weighted[1], weighted[0], weighted[2]]
    dominant = [s * (1.0 / sum(trace(x) for x in dominant)) for s in dominant]
    _, povm = qd._dual(dominant)
    q = povm[0] + povm[2]
    assert not q.any()
    assert_dual_certified(dominant)
    # four coplanar pure states on the enclosing circle, around the origin:
    # the ball touches all four (P = 1/4 + 2/8), and three of them (or a
    # diameter) carry the POVM
    for angles in ((0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi), (0.0, 1.0, 2.5, 4.0)):
        weighted = [bloch_state(planar(t), 0.25) for t in angles]
        assert assert_dual_certified(weighted) == pytest.approx(0.5, abs=1e-15)
    # a rotated trine, in the reduced and the general M=3 search
    rot = Rotation.from_rotvec([0.3, -1.1, 0.4]).as_matrix()
    weighted = [bloch_state(rot @ planar(2 * np.pi * k / 3), 1 / 3) for k in range(3)]
    for reduce_m3 in (True, False):
        assert assert_dual_certified(weighted, reduce_m3) == pytest.approx(2 / 3, abs=1e-14)


def test_dual_matches_the_nelder_mead_oracle():
    rng = np.random.default_rng(83)
    for n, dim, pure in ((3, 3, False), (4, 3, False), (4, 2, True)):
        weighted = ensemble(rng, n, dim, pure)
        assert qd._dual(weighted)[0] == pytest.approx(dual_oracle(weighted), abs=5e-6)


def test_f_optimize_matches_its_embedding_and_the_old_path():
    # arbitrary Hermitian (A, B, C): the optimum is the dual of
    # (A+B, C, A-B, -C) + t 1 less 2t, and no worse than the old path
    rng = np.random.default_rng(89)
    zero = np.zeros(4)
    for i in range(8):
        a, b = random_bloch_op(rng, 0.4), random_bloch_op(rng, 0.4)
        c = zero if i % 2 else random_bloch_op(rng, 0.4)
        ops = [a + b, c, a - b, -c]
        t = max(qd._rnorm(x) - x[0] for x in ops)
        dual = qd._dual([x + op(t, np.zeros(3)) for x in ops])[0]
        val, q = f_optimize(a, b, c)
        assert abs(val - (dual - 2.0 * t)) <= 1e-12
        for reduce_m3 in (True, False):
            assert val >= oracle_f_optimize(a, b, c, reduce_m3)[0] - 1e-12
        assert f_value(q, a, b, c) == pytest.approx(val, abs=1e-12)


def per_ordering_cases():
    """(weighted states, reduce_m3) over every state count, Bloch span and
    purity, with both M=3 searches of the old path."""
    rng = np.random.default_rng(71)
    cases = [(ensemble(rng, n, dim, pure), reduce_m3)
             for n in (3, 4) for dim in (0, 1, 2, 3) for pure in (True, False)
             for reduce_m3 in ((True, False) if n == 3 else (True,))
             if dim or not pure]
    cases += [(ensemble(rng, 4, 2, pure), True) for pure in (True, False) for _ in range(3)]
    return cases


def test_psucc_matches_the_per_ordering_oracle():
    dims, definite = set(), set()
    for weighted, reduce_m3 in per_ordering_cases():
        for a, b, c in abc_of_orderings(weighted):
            dims.add(span_basis([a[1:], b[1:], c[1:]]).shape[0])
            definite.add(qd._has_definite_sign(b))
        assert_dual_certified(weighted, reduce_m3)
    assert dims == {0, 1, 2, 3} and definite == {True, False}


def test_psucc_matches_the_closed_form_where_it_applies():
    # the closed form Tr[(A+|B|-|C|)_+] + ||C||_1 once upgraded the dual's
    # value whenever one of its conditions held; the dual alone agrees
    checked = 0
    for weighted, reduce_m3 in per_ordering_cases():
        if not reduce_m3:
            continue  # the same states as the case before
        for perm in orderings(len(weighted)):
            ordered = [weighted[i] for i in perm]
            a, b, c, pref = abc_operators(ordered)
            if closed_form_applies(a, b, c):
                assert abs(qd._psucc(ordered)[0] - (pref + closed_form_value(a, b, c))) <= 1e-14
                checked += 1
    assert checked >= 60


def test_gap_check_names_the_states(monkeypatch):
    weighted = [bloch_state(planar(2 * np.pi * k / 3), 1 / 3) for k in range(3)]
    dual = qd._dual
    monkeypatch.setattr(qd, "_dual", lambda w: (dual(w)[0] + 1e-6, dual(w)[1]))
    with pytest.raises(qd.ConvergenceError, match=r"dual value.*\(c, rx, ry, rz\)"):
        qd._psucc(weighted)
