import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrx import povm as povm_mod
from qrx import qubit_disc as qd
from qrx.qubit_disc import (
    BlochOperator,
    abc_operators,
    bloch_state,
    cyclic_symmetric_perr,
    f_optimize,
    f_value,
    f_value_matrix,
    polytope_ratio_psucc,
    psucc3,
    psucc4,
)


def planar(angle):
    return np.array([np.sin(angle), 0.0, np.cos(angle)])


def random_bloch_op(rng, scale=1.0):
    return BlochOperator(scale * rng.normal(), scale * rng.normal(size=3))


def random_q(rng):
    c = rng.uniform(0.0, 1.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return BlochOperator(c, rng.uniform(0, min(c, 1 - c)) * direction)


def dual_oracle(weighted):
    """min Tr[K] s.t. K >= sigma_k: for qubits the constraints are the cone
    inequalities |r_K - r_k| <= c_K - c_k, so Tr[K] = 2 min_r g(r) with
    g(r) = max_k (c_k + |r - r_k|), a convex function on R^3.  Independent
    route (derivative-free minimization of the dual) against the F-function
    optimization: Nelder-Mead from the centroid, restarted with a fresh 0.1
    simplex until g stops decreasing."""
    from scipy.optimize import minimize

    cs = np.array([s.c for s in weighted])
    rs = np.array([s.r for s in weighted])

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
    op = BlochOperator(c, np.array([rx, ry, rz]))
    m = op.matrix()
    assert np.allclose(np.trace(m).real, op.trace, atol=1e-12)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(sorted(w), sorted(op.eigenvalues), atol=1e-10)
    assert np.abs(w).sum() == pytest.approx(op.trace_norm(), abs=1e-10)
    back = BlochOperator.from_matrix(m)
    assert back.c == pytest.approx(op.c, abs=1e-12)
    assert np.allclose(back.r, op.r, atol=1e-12)


def test_abs_op_matches_matrix_abs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        op = random_bloch_op(rng)
        w, u = np.linalg.eigh(op.matrix())
        want = (u * np.abs(w)) @ u.conj().T
        assert np.allclose(op.abs_op().matrix(), want, atol=1e-10)


def test_bloch_state_validates():
    with pytest.raises(ValueError):
        bloch_state([1.2, 0, 0])
    rho = bloch_state([0, 0, 1], p=0.25)
    assert rho.trace == pytest.approx(0.25)
    assert min(rho.eigenvalues) == pytest.approx(0.0, abs=1e-14)


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
        b = BlochOperator(cb, rng.uniform(0, 0.95 * abs(cb)) * db / np.linalg.norm(db))
        c = BlochOperator(cc, rng.uniform(0, 0.95 * abs(cc)) * dc / np.linalg.norm(dc))
        assert b.has_definite_sign() and c.has_definite_sign()
        assert f_value(q, a, b, c) == pytest.approx(f_value_matrix(q, a, b, c), abs=1e-9)


def test_f_value_rejects_infeasible_q():
    with pytest.raises(ValueError):
        f_value(
            BlochOperator(0.5, np.array([0.9, 0, 0])),
            BlochOperator(1, np.zeros(3)),
            BlochOperator(0, np.zeros(3)),
            BlochOperator(0, np.zeros(3)),
        )


def test_closed_form_definite_sign_case():
    # B, C with definite signs: optimum is Tr[(A+|B|-|C|)_+] + ||C||_1
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_bloch_op(rng)
        cb, cc = abs(rng.normal()), -abs(rng.normal())
        db, dc = rng.normal(size=3), rng.normal(size=3)
        b = BlochOperator(cb, rng.uniform(0, 0.95 * cb) * db / np.linalg.norm(db))
        c = BlochOperator(cc, rng.uniform(0, -0.95 * cc) * dc / np.linalg.norm(dc))
        want = (a + b.abs_op() - c.abs_op()).pos_part_trace() + c.trace_norm()
        val, q = f_optimize(a, b, c)
        assert val == pytest.approx(want, abs=1e-8)
        # value is attained by a feasible Q
        assert f_value_matrix(q, a, b, c) == pytest.approx(val, abs=1e-7)


def test_commuting_case_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        a = BlochOperator(rng.normal(), rng.normal() * axis)
        b = BlochOperator(rng.normal(), rng.normal() * axis)
        c = BlochOperator(rng.normal(), rng.normal() * axis)
        want = (a + b.abs_op() - c.abs_op()).pos_part_trace() + c.trace_norm()
        val, _ = f_optimize(a, b, c)
        assert val == pytest.approx(want, abs=1e-8)


def test_f_recursion_identity():
    # F(A, B, 0) = F(-3B - A, B - A, 0)/2 + Tr[A + B]
    rng = np.random.default_rng(23)
    zero = BlochOperator(0.0, np.zeros(3))
    for _ in range(5):
        a = random_bloch_op(rng, scale=0.4)
        b = random_bloch_op(rng, scale=0.4)
        lhs, _ = f_optimize(a, b, zero, reduce_m3=False)
        inner, _ = f_optimize(-3 * b - a, b - a, zero, reduce_m3=False)
        assert lhs == pytest.approx(0.5 * inner + (a + b).trace, abs=5e-7)


def test_m3_reduction_matches_full_search():
    rng = np.random.default_rng(29)
    zero = BlochOperator(0.0, np.zeros(3))
    for _ in range(5):
        a = random_bloch_op(rng, scale=0.3)
        b = random_bloch_op(rng, scale=0.3)
        reduced, _ = f_optimize(a, b, zero, reduce_m3=True)
        full, _ = f_optimize(a, b, zero, reduce_m3=False)
        assert reduced == pytest.approx(full, abs=5e-7)


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
    assert a.trace == pytest.approx(0.0, abs=1e-12)
    assert b.trace == pytest.approx(0.0, abs=1e-12)
    assert c.trace == pytest.approx(0.0, abs=1e-12)
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


# ------------------------------------------------------ coarse-grid oracles
#
# The coarse grids are evaluated as arrays over the feasible points only,
# in chunks.  The oracles below are the earlier forms of the same searches:
# the general grid over the full (c_Q, r_1..r_k) mesh with infeasible points
# masked to -inf, and the reduced M=3 grid as a scalar double loop with a
# strict `>`, followed by one scalar pattern search per ordering.  They use
# the current objective arithmetic (squares and dots as plain products and
# sums, left to right, so an array element equals a scalar evaluation), and
# the searches must return bit-identical (value, Q) with either.


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


def plain_term(c_eff, rdot, rsq, x):
    dot = c_eff * x.c + rdot
    if x.has_definite_sign():
        return 2.0 * np.abs(dot)
    gap = float(x.r @ x.r) - x.c**2
    return 2.0 * np.sqrt(np.maximum(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))


def plain_dot(r, v):
    out = r[0] * v[0]
    for ri, vi in zip(r[1:], v[1:]):
        out = out + ri * vi
    return out


def full_mesh_optimize_general(a, b, c, basis):
    """`_optimize_general` over the full mesh, infeasible points masked."""
    k = basis.shape[0]
    ra, rb, rc = basis @ a.r, basis @ b.r, basis @ c.r
    cs = np.linspace(0.0, 1.0, qd._GRID_POINTS)
    mesh = np.meshgrid(cs, *[np.linspace(-0.5, 0.5, qd._GRID_POINTS)] * k, indexing="ij")
    cq, r = mesh[0].ravel(), [m.ravel() for m in mesh[1:]]
    if k:
        rsq, adot, bdot, cdot = (plain_dot(r, v) for v in (r, ra, rb, -rc))
    else:
        rsq = adot = bdot = cdot = 0.0
    vals = 2.0 * (cq * a.c + adot) + plain_term(cq, bdot, rsq, b)
    vals = vals + plain_term(1.0 - cq, cdot, rsq, c)
    vals = np.where(np.sqrt(rsq) <= np.minimum(cq, 1.0 - cq), vals, -np.inf)
    best = int(np.argmax(vals))
    return float(vals[best]), float(cq[best]), np.array([ri[best] for ri in r])


def oracle_plane_basis(a, b):
    basis = qd._span_basis([a.r, b.r])
    if basis.shape[0] == 0:
        basis = np.eye(3)[:1]
    if basis.shape[0] == 1:
        extra = np.eye(3)[np.argmin(np.abs(basis[0]))]
        e2 = extra - (extra @ basis[0]) * basis[0]
        basis = np.vstack([basis[0], e2 / np.linalg.norm(e2)])
    return basis[:2]


def scalar_loop_f_optimize_m3(a, b, c):
    """The reduced M=3 branch of f_optimize with its (c_Q, phi_Q) grid as a
    scalar double loop that keeps the first strict maximum."""
    basis = oracle_plane_basis(a, b)
    ra, rb = basis @ a.r, basis @ b.r

    def f_angle(x):
        cq, phi = x
        r0, r1 = (1.0 - cq) * np.cos(phi), (1.0 - cq) * np.sin(phi)
        tb = plain_term(cq, r0 * rb[0] + r1 * rb[1], r0 * r0 + r1 * r1, b)
        return 2.0 * (cq * a.c + (r0 * ra[0] + r1 * ra[1])) + tb

    grid_best, x_best = -np.inf, None
    for cq in np.linspace(0.5, 1.0, qd._GRID_POINTS):
        for phi in np.linspace(0.0, 2 * np.pi, 2 * qd._GRID_POINTS, endpoint=False):
            v = f_angle((cq, phi))
            if v > grid_best:
                grid_best, x_best = v, (cq, phi)
    val, x = scalar_pattern_search(f_angle, x_best, lower=np.array([0.5, -np.inf]),
                                   upper=np.array([1.0, np.inf]))
    cq, phi = x
    rq3 = (1.0 - cq) * (np.cos(phi) * basis[0] + np.sin(phi) * basis[1])
    return qd._maybe_closed_form(a, b, c, float(val), BlochOperator(cq, rq3))


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
    perms = qd._orderings(len(weighted))[:limit]
    return [abc_operators([weighted[i] for i in perm])[:3] for perm in perms]


def assert_same(got, want):
    (v1, q1), (v2, q2) = got, want
    assert (v1, q1.c, q1.r.tolist()) == (v2, q2.c, q2.r.tolist())


def test_general_grid_matches_full_mesh_oracle(monkeypatch):
    rng = np.random.default_rng(53)
    cases = []
    for dim, pure in ((0, False), (1, True), (1, False), (2, True), (2, False)):
        cases += abc_of_orderings(ensemble(rng, 4, dim, pure), limit=3)
    cases += abc_of_orderings(ensemble(rng, 3, 3, False), limit=2)  # M=3, reduce_m3=False
    cases += abc_of_orderings(ensemble(rng, 4, 3, False), limit=2)  # 3-D grid, k = 3
    dims = {qd._span_basis([a.r, b.r, c.r]).shape[0] for a, b, c in cases}
    got = qd._f_optimize_all(cases, reduce_m3=False)
    for (a, b, c), one in zip(cases, got):
        basis = qd._span_basis([a.r, b.r, c.r])
        (v1, c1, r1), (v2, c2, r2) = (qd._optimize_general(a, b, c, basis),
                                      full_mesh_optimize_general(a, b, c, basis))
        assert (v1, c1, r1.tolist()) == (v2, c2, r2.tolist())
        assert_same(f_optimize(a, b, c, reduce_m3=False), one)
    monkeypatch.setattr(qd, "_optimize_general", full_mesh_optimize_general)
    for one, want in zip(got, qd._f_optimize_all(cases, reduce_m3=False)):
        assert_same(one, want)
    assert dims == {0, 1, 2, 3}


def test_m3_grid_matches_scalar_loop_oracle():
    rng = np.random.default_rng(59)
    ensembles = [[rho * p for rho, p in trine()]]
    ensembles.append(ensemble(rng, 3, 0, False))
    ensembles += [ensemble(rng, 3, dim, pure) for dim in (1, 2, 3) for pure in (True, False)]
    definite = set()
    for weighted in ensembles:
        abcs = abc_of_orderings(weighted)
        for (a, b, c), got in zip(abcs, qd._f_optimize_all(abcs)):
            definite.add(b.has_definite_sign())
            assert_same(got, scalar_loop_f_optimize_m3(a, b, c))
    assert definite == {True, False}


def test_grid_chunks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(61)
    weighted = ensemble(rng, 4, 3, False)
    abcs = abc_of_orderings(weighted, limit=4)
    bases = [qd._span_basis([a.r, b.r, c.r]) for a, b, c in abcs]
    assert {basis.shape[0] for basis in bases} == {3}
    grids = [qd._optimize_general(a, b, c, basis) for (a, b, c), basis in zip(abcs, bases)]
    val, q, perm = qd._psucc(weighted)
    monkeypatch.setattr(qd, "_GRID_CHUNK", 317)
    assert qd._feasible_grid(3)[0].size > 100 * 317
    for (a, b, c), basis, want in zip(abcs, bases, grids):
        got = qd._optimize_general(a, b, c, basis)
        assert got[:2] == want[:2] and got[2].tolist() == want[2].tolist()
    val2, q2, perm2 = qd._psucc(weighted)
    assert (val2, q2.c, q2.r.tolist(), perm2) == (val, q.c, q.r.tolist(), perm)


def test_psucc_calls_the_grid_per_ordering_and_the_search_per_group(monkeypatch):
    # perfbench's tracer wraps these two module globals; every call must
    # go through them
    calls = {"_optimize_general": 0, "_pattern_search": 0}

    def counting(name):
        inner = getattr(qd, name)

        def stub(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return stub

    for name in calls:
        monkeypatch.setattr(qd, name, counting(name))
    rng = np.random.default_rng(67)
    for n, dim, groups in ((4, 2, 1), (4, 3, 1), (3, 3, 1)):
        weighted = ensemble(rng, n, dim, False)
        calls.update(dict.fromkeys(calls, 0))
        qd._psucc(weighted)
        assert calls == {"_optimize_general": 12 if n == 4 else 0, "_pattern_search": groups}
    # two equal states: C = 0 in 2 of the 12 orderings, so two search
    # groups (reduced M=3 lanes and k = 2 lanes)
    weighted = ensemble(rng, 4, 3, False)
    weighted[3] = weighted[1]
    calls.update(dict.fromkeys(calls, 0))
    qd._psucc(weighted)
    assert calls == {"_optimize_general": 10, "_pattern_search": 2}


# -------------------------------------------------- per-ordering oracle
#
# The search as it was before the orderings ran as lanes of one pattern
# search: one f_optimize per ordering, the whole feasible grid in one
# expression with BLAS dot products (`@`), and scalar_pattern_search over a
# scalar objective.  The lanes change only the last bits of the objective
# (plain products and sums), so p_succ may move by rounding and a near-tie
# between orderings may resolve the other way.


def oracle_sandwich_term(x):
    if x.has_definite_sign():
        return lambda c_eff, rdot, rsq: 2.0 * np.abs(c_eff * x.c + rdot)
    gap = float(x.r @ x.r) - x.c**2

    def term(c_eff, rdot, rsq):
        dot = c_eff * x.c + rdot
        return 2.0 * np.sqrt(np.maximum(dot * dot + gap * (c_eff * c_eff - rsq), 0.0))

    return term


_C_ORDER_GRIDS = {}


def oracle_optimize_general(a, b, c, basis):
    k = basis.shape[0]
    if k not in _C_ORDER_GRIDS:
        cq, rcomp = qd._feasible_grid(k)
        _C_ORDER_GRIDS[k] = cq, np.ascontiguousarray(rcomp)
    ra, rb, rc = basis @ a.r, basis @ b.r, basis @ c.r
    term_b, term_c = oracle_sandwich_term(b), oracle_sandwich_term(c)

    def f_components(cq, rcomp):
        rsq = (rcomp**2).sum(axis=-1)
        out = 2.0 * (cq * a.c + rcomp @ ra)
        out = out + term_b(cq, rcomp @ rb, rsq)
        out = out + term_c(1.0 - cq, -(rcomp @ rc), rsq)
        return out

    cq, rcomp = _C_ORDER_GRIDS[k]
    vals = f_components(cq, rcomp)
    best = int(np.argmax(vals))
    return float(vals[best]), float(cq[best]), rcomp[best], f_components


def oracle_f_optimize(a, b, c, reduce_m3=True):
    if c.trace_norm() < 1e-14 and reduce_m3:
        basis = oracle_plane_basis(a, b)
        ra, rb = basis @ a.r, basis @ b.r
        term_b = oracle_sandwich_term(b)

        def f_angle(cq, phi):
            r0, r1 = (1.0 - cq) * np.cos(phi), (1.0 - cq) * np.sin(phi)
            tb = term_b(cq, r0 * rb[0] + r1 * rb[1], r0 * r0 + r1 * r1)
            return 2.0 * (cq * a.c + (r0 * ra[0] + r1 * ra[1])) + tb

        cs = np.linspace(0.5, 1.0, qd._GRID_POINTS)
        phis = np.linspace(0.0, 2 * np.pi, 2 * qd._GRID_POINTS, endpoint=False)
        i, j = np.unravel_index(np.argmax(f_angle(*np.meshgrid(cs, phis, indexing="ij"))),
                                (cs.size, phis.size))
        val, (cq, phi) = scalar_pattern_search(lambda y: f_angle(*y), (cs[i], phis[j]),
                                               np.array([0.5, -np.inf]), np.array([1.0, np.inf]))
        rq3 = (1.0 - cq) * (np.cos(phi) * basis[0] + np.sin(phi) * basis[1])
        return qd._maybe_closed_form(a, b, c, val, BlochOperator(cq, rq3))
    basis = qd._span_basis([a.r, b.r, c.r])
    _, cq0, rcomp0, f_components = oracle_optimize_general(a, b, c, basis)
    k = basis.shape[0]
    if k == 0:
        val, x = scalar_pattern_search(
            lambda y: float(f_components(np.array([y[0]]), np.zeros((1, 0)))[0]),
            np.array([cq0]), np.array([0.0]), np.array([1.0]))
        return qd._maybe_closed_form(a, b, c, val, BlochOperator(x[0], np.zeros(3)))

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
    return qd._maybe_closed_form(a, b, c, val, BlochOperator(x[0], to_rcomp(x) @ basis))


def oracle_psucc(weighted, reduce_m3=True):
    """(best p_succ, Q*, ordering, p_succ of every ordering): the first
    ordering wins ties."""
    best, totals = (-np.inf, None, None), {}
    for perm in qd._orderings(len(weighted)):
        a, b, c, pref = abc_operators([weighted[i] for i in perm])
        val, q = oracle_f_optimize(a, b, c, reduce_m3)
        totals[perm] = pref + val
        if pref + val > best[0]:
            best = (pref + val, q, perm)
    return (*best, totals)


def test_psucc_matches_the_per_ordering_oracle():
    rng = np.random.default_rng(71)
    cases = [(ensemble(rng, n, dim, pure), reduce_m3)
             for n in (3, 4) for dim in (0, 1, 2, 3) for pure in (True, False)
             for reduce_m3 in ((True, False) if n == 3 else (True,))
             if dim or not pure]
    cases += [(ensemble(rng, 4, 2, pure), True) for pure in (True, False) for _ in range(3)]
    dims, definite = set(), set()
    for weighted, reduce_m3 in cases:
        for a, b, c in abc_of_orderings(weighted):
            dims.add(qd._span_basis([a.r, b.r, c.r]).shape[0])
            definite.add(b.has_definite_sign())
        val, q, perm = qd._psucc(weighted, reduce_m3)
        want, _, want_perm, totals = oracle_psucc(weighted, reduce_m3)
        assert abs(val - want) <= 1e-15
        assert -1e-12 <= q.c <= 1.0 + 1e-12 and q.rnorm <= min(q.c, 1.0 - q.c) + 1e-12
        if perm != want_perm:
            assert totals[perm] >= want - 1e-15
    assert dims == {0, 1, 2, 3} and definite == {True, False}


def test_feasible_grid_is_cached_read_only():
    for k in (1, 2):
        cq, rcomp = qd._feasible_grid(k)
        assert qd._feasible_grid(k)[0] is cq
        assert not cq.flags.writeable and not rcomp.flags.writeable
        assert np.all(np.linalg.norm(rcomp, axis=1) <= np.minimum(cq, 1.0 - cq))
        mesh = np.meshgrid(*[np.linspace(0.0, 1.0, qd._GRID_POINTS)]
                           + [np.linspace(-0.5, 0.5, qd._GRID_POINTS)] * k, indexing="ij")
        full = np.stack([m.ravel() for m in mesh], axis=-1)
        ok = np.sqrt((full[:, 1:] ** 2).sum(axis=-1)) <= np.minimum(full[:, 0], 1.0 - full[:, 0])
        assert np.array_equal(np.column_stack([cq, rcomp]), full[ok])
    with pytest.raises(ValueError):
        cq[0] = 0.5


def test_import_builds_no_grid():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(qd.__file__))
    code = "import qrx.qubit_disc as qd; assert qd._GRIDS == {}, qd._GRIDS.keys()"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
