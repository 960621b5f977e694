"""Tests for the Fock-space reference module (tests/fockspace.py) and for
qrx.fock's truncation rule, which it re-exports.

Oracle values are either closed forms evaluated independently in the test
body or frozen constants computed from a reference implementation (noted
inline).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

import fockspace as fock
import information as info
import reference as ref
from qrx import ConvergenceError, TruncationError, povm, receivers


def squeeze_operator(r, cutoff):
    """Oracle: U_sq(r) = exp(-r/2 (a^dag^2 - a^2)) as a dense matrix
    exponential of the truncated generator."""
    a = fock.annihilation(cutoff)
    return expm(-0.5 * r * (a.conj().T @ a.conj().T - a @ a))


def displacement_operator(beta, cutoff):
    """Oracle: D(beta) = exp(beta a^dag - beta* a) as a dense matrix
    exponential of the truncated (anti-Hermitian) generator, so exactly
    unitary on the truncated space."""
    a = fock.annihilation(cutoff)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def matrix_squeezed_displaced_state(beta, r, cutoff):
    """Oracle: amplitudes of |beta, r> = U_sq(r) D(beta)|0> by matrix product."""
    return squeeze_operator(r, cutoff) @ fock.coherent_state(beta, cutoff)


def displacement_matrix_element(k, m, beta):
    """Oracle: <k|D(beta)|m> via the finite normal-ordered sum."""
    b = complex(beta)
    if b == 0:
        return 1.0 + 0.0j if k == m else 0.0j
    lfk = gammaln(k + 1.0)
    lfm = gammaln(m + 1.0)
    total = 0.0j
    for t in range(m + 1):
        s = k - m + t
        if s < 0:
            continue
        logden = gammaln(t + 1.0) + gammaln(m - t + 1.0) + gammaln(s + 1.0)
        total += (-b.conjugate()) ** t * b**s * np.exp(0.5 * (lfk + lfm) - logden)
    return total * np.exp(-0.5 * abs(b) ** 2)


def squeezed_coeffs(r, n_pairs):
    """Oracle: c_l(r) = <2l|U_sq(r)|0> = (cosh r)^{-1/2} sqrt((2l)!)/(2^l l!)
    (-tanh r)^l for l = 0..n_pairs, in closed form."""
    ls = np.arange(n_pairs + 1)
    if r == 0.0:
        return np.where(ls == 0, 1.0, 0.0)
    t = np.tanh(r)
    lf = fock._log_factorials(2 * n_pairs)
    mag = np.exp(0.5 * lf[2 * ls] - ls * np.log(2.0) - lf[ls] + ls * np.log(abs(t)))
    signs = np.where(ls % 2 == 0, 1.0, -np.sign(t))
    return mag * signs / np.sqrt(np.cosh(r))


def squeezed_displaced_overlap(k, beta, r, l_max=None, tol=1e-12):
    """Oracle: <k | beta, r> where |beta, r> = U_sq(r) D(beta) |0>.

    Commuting the squeezer through the displacement gives
    |beta, r> = D(beta~) U_sq(r)|0> with beta~ = beta cosh r - beta* sinh r,
    so the overlap is the series sum_l c_l(r) <k|D(beta~)|2l>, truncated when
    the analytic tail bound tanh|r|^{l+1}/(1 - tanh|r|) drops below `tol`.

    The alternating sum in `displacement_matrix_element` cancels as |beta~|
    and k grow: at (beta, r) = (-1.6, -0.8) this is off by 1.5e-13 at k = 9
    and by 2.4e-4 at k = 45, so it is an amplitude oracle only at low k.
    """
    b = complex(beta)
    bt = b * np.cosh(r) - b.conjugate() * np.sinh(r)
    t = abs(np.tanh(r))
    if t >= 1.0:
        raise ConvergenceError("tanh|r| >= 1")
    if l_max is None:
        l_max = 1
        while t > 0 and t ** (l_max + 1) / (1.0 - t) > tol:
            l_max += 1
            if l_max > 10_000:
                raise ConvergenceError("squeezed-overlap series did not converge")
    elif t > 0 and t ** (l_max + 1) / (1.0 - t) > tol:
        raise ConvergenceError(
            f"tail bound {t ** (l_max + 1) / (1.0 - t):.2e} above {tol:.1e} at l_max={l_max}"
        )
    c = squeezed_coeffs(float(r), l_max)
    total = 0.0j
    for ell in range(l_max + 1):
        if c[ell] == 0.0:
            continue
        total += c[ell] * displacement_matrix_element(k, 2 * ell, bt)
    return complex(total)


def test_fock_returns_plain_arrays():
    # a ket is a 1-D complex array of length cutoff + 1, an operator or
    # density matrix a 2-D one, and the other layers take them as they are
    c = 30
    kets = [fock.coherent_state(0.5, c), fock.squeezed_state(0.3, c),
            fock.squeezed_displaced_state(0.4 - 0.1j, 0.2, c),
            fock.quadrature_eigenvector(0.3, 0.1, c)]
    ops = [fock.annihilation(c), fock.number_operator(c), fock.quadrature_operator(c),
           fock.thermal_state(0.1, c), *fock.loss_kraus(0.6, c)]
    rho = np.outer(kets[0], kets[0].conj())
    ops += [fock.apply_loss(rho, 0.6), fock.apply_amplifier(rho, 1.2, c)]
    for v in kets:
        assert type(v) is np.ndarray and v.shape == (c + 1,) and v.dtype == complex
    for m in ops:
        assert type(m) is np.ndarray and m.shape == (c + 1, c + 1) and m.dtype == complex
    # real beta and r give real amplitudes, and broadcast after the photon number
    real = fock.squeezed_displaced_state(0.4, 0.2, c)
    assert type(real) is np.ndarray and real.shape == (c + 1,) and real.dtype == float
    batch = fock.squeezed_displaced_state(np.array([[0.4], [-1.0]]), np.array([0.2, 0.0, -0.3]), c)
    assert batch.shape == (c + 1, 2, 3) and batch.dtype == float
    assert np.array_equal(batch[:, 0, 0], real)
    e0 = np.zeros((c + 1, c + 1)); e0[0, 0] = 1.0
    probs = ref.measure(povm.Povm([e0, np.eye(c + 1) - e0]), rho)
    assert probs[0] == pytest.approx(np.exp(-0.25), abs=1e-12)
    assert info.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)
    diag, sub = field = receivers._cavity_rows(0.6, 30)  # the field at alpha = 0.3
    assert type(diag) is np.ndarray and diag.shape == (32,) and diag.dtype == float
    assert type(sub) is np.ndarray and sub.shape == (31,)
    assert receivers.cavity_psucc(0.3, -0.4, field) == pytest.approx(
        receivers.cavity_psucc(0.3, -0.4), abs=1e-12)


def test_vacuum_coherent_state():
    v = fock.coherent_state(0.0, cutoff=4)
    assert np.allclose(v, [1, 0, 0, 0, 0])


def test_coherent_amp1_direct_formula():
    v = fock.coherent_state(1.0)
    assert v[1] == pytest.approx(np.exp(-0.5), abs=1e-14)


def test_coherent_overlap_closed_form():
    # <beta|alpha> from the truncated inner product vs the Gaussian closed form
    a, b = 0.7, -0.3j
    va, vb = fock.coherent_state(a, 60), fock.coherent_state(b, 60)
    assert abs(np.vdot(vb, va) - fock.coherent_overlap(a, b)) < 1e-10


@given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_coherent_overlap_property(a, b):
    va, vb = fock.coherent_state(a, 60), fock.coherent_state(b, 60)
    assert abs(np.vdot(vb, va) - fock.coherent_overlap(a, b)) < 1e-9


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        fock.coherent_state(3.0, cutoff=5)


def test_displacement_identity_at_zero():
    d = displacement_operator(0.0, cutoff=6)
    assert np.allclose(d, np.eye(7))


def test_weyl_composition_rule():
    # D(a)D(b) = exp((a b* - a* b)/2) D(a+b)
    a, b, c = 0.5, 0.2j, 80
    lhs = displacement_operator(a, c) @ displacement_operator(b, c)
    phase = np.exp(0.5 * (a * np.conj(b) - np.conj(a) * b))
    rhs = phase * displacement_operator(a + b, c)
    assert np.max(np.abs(lhs[:40, :40] - rhs[:40, :40])) < 1e-8


def test_displacement_vs_coherent_constructor():
    beta = 1.2
    d = displacement_operator(beta, 60)
    v = d @ fock.coherent_state(0.0, 60)
    w = fock.coherent_state(beta, 60)
    fid = abs(np.vdot(w, v)) ** 2
    assert fid >= 1 - 1e-10


def test_displacement_unitary_on_subspace():
    d = displacement_operator(0.8 + 0.1j, 50)
    g = d.conj().T @ d
    assert np.max(np.abs(g[:40, :40] - np.eye(50 + 1)[:40, :40])) < 1e-8


def test_log_factorials_match_gammaln():
    lf, ref = fock._log_factorials(300), gammaln(np.arange(301) + 1.0)
    assert not lf.flags.writeable  # the table is cached and shared
    assert lf[:2].tolist() == [0.0, 0.0] == ref[:2].tolist()
    assert np.max(np.abs(lf[2:] - ref[2:]) / ref[2:]) < 2e-15


def test_squeezed_state_r0_is_vacuum():
    v = fock.squeezed_state(0.0, 10)
    assert np.allclose(v, np.eye(11)[0])


def test_squeezed_state_even_support():
    v = fock.squeezed_state(0.7, 60)
    assert np.all(v[1::2] == 0)


@pytest.mark.parametrize("r", [-1.2, -0.4, 0.0, 0.3, 1.0, 1.2])
def test_squeezed_state_matches_the_closed_form(r):
    # squeezed_state is the beta = 0 case of the |beta, r> recurrence; the
    # closed-form coefficients it was built from stay as its oracle.  Their
    # exp of log-factorial sums up to log 200! ~ 863 carries a relative error
    # near 863 ulps, the recurrence about one ulp per step
    cutoff = 201  # odd: the last level is an empty odd one
    v = fock.squeezed_state(r, cutoff)
    c = squeezed_coeffs(r, cutoff // 2)
    assert np.all(v[1::2] == 0)
    assert np.max(np.abs(v[0::2] - c)) < 1e-15
    assert np.max(np.abs(v[0::2] - c) / np.maximum(np.abs(c), 1e-300)) < 1000 * 2.0**-52


def test_squeezed_quadrature_variance():
    r, c = 0.4, 60
    v = fock.squeezed_state(r, c)
    q = fock.quadrature_operator(c)
    var = float((v.conj() @ (q @ q) @ v).real)
    assert var == pytest.approx(np.exp(-2 * r) / 2, abs=1e-6)


def test_squeezed_state_matches_squeeze_operator():
    v = fock.squeezed_state(0.4, 60)
    w = matrix_squeezed_displaced_state(0.0, 0.4, 60)
    assert np.max(np.abs(v - w)) < 1e-10


def test_squeezed_displaced_overlap_r0():
    # series collapses to the coherent amplitude
    beta = 0.4 - 0.2j
    for k in range(5):
        got = squeezed_displaced_overlap(k, beta, 0.0)
        want = fock.coherent_state(beta, 10)[k]
        assert abs(got - want) < 1e-12


def test_squeezed_displaced_overlap_k0_beta0():
    r = 0.5
    got = squeezed_displaced_overlap(0, 0.0, r)
    assert got == pytest.approx(1 / np.sqrt(np.cosh(r)), abs=1e-12)


def test_squeezed_displaced_overlap_matrix_oracle():
    k, beta, r = 3, 0.6, -0.3
    got = squeezed_displaced_overlap(k, beta, r)
    assert abs(got - matrix_squeezed_displaced_state(beta, r, 80)[k]) < 1e-8


def test_squeezed_displaced_recurrence_matches_matrix_oracle():
    # far below the oracle's cutoff of 200 its truncation does not reach;
    # (-2, +-1) are corners of receivers.ts_optimize's box
    for beta in (-2.0, -1.6, 0.4 - 0.3j, 0.0):
        for r in (-1.0, -0.8, 0.0, 0.3, 1.0):
            got = fock.squeezed_displaced_state(beta, r, 46)
            want = matrix_squeezed_displaced_state(beta, r, 200)[:47]
            assert np.max(np.abs(got - want)) < 1e-13


def test_squeezed_displaced_batch_is_the_points_it_holds():
    # one batch gives every point's bits, complex or real
    betas, rs = np.array([-2.0, -0.7, 0.0, 0.4 - 0.3j]), np.array([-1.0, 0.0, 0.25, 1.0])
    for beta in (betas, betas.real):
        batch = fock.squeezed_displaced_state(beta[:, None], rs, 40)
        assert batch.shape == (41, 4, 4)
        for i, b in enumerate(beta):
            for j, r in enumerate(rs):
                assert np.array_equal(batch[:, i, j], fock.squeezed_displaced_state(b, r, 40))


def test_squeezed_displaced_overlap_tail_flag():
    with pytest.raises(ConvergenceError):
        squeezed_displaced_overlap(2, 0.3, 1.5, l_max=2)


def test_quadrature_ground_state_density():
    q = 0.5
    v = fock.quadrature_eigenvector(q, 0.0, 30)
    assert abs(v[0]) ** 2 == pytest.approx(np.pi ** -0.5 * np.exp(-q * q), abs=1e-12)


def test_quadrature_odd_components_vanish_at_origin():
    v = fock.quadrature_eigenvector(0.0, 0.3, 30)
    assert np.max(np.abs(v[1::2])) == 0.0


def test_quadrature_coherent_density_normalizes():
    # int |<q|alpha>|^2 dq = 1
    alpha, c = 0.8, 50
    qs = np.linspace(-8, 8, 2001)
    va = fock.coherent_state(alpha, c)
    dens = np.array([abs(np.vdot(fock.quadrature_eigenvector(q, 0.0, c), va)) ** 2 for q in qs])
    assert np.trapezoid(dens, qs) == pytest.approx(1.0, abs=1e-4)


def test_thermal_vacuum():
    th = fock.thermal_state(0.0, 10)
    want = np.zeros((11, 11))
    want[0, 0] = 1
    assert np.allclose(th, want)


def test_thermal_mean_photon_number():
    th = fock.thermal_state(0.5, 60)
    n = fock.number_operator(60)
    assert np.trace(n @ th).real == pytest.approx(0.5, abs=1e-8)


def test_loss_identity_and_vacuum_limits():
    v = fock.coherent_state(0.6, 30)
    rho = np.outer(v, v.conj())
    same = fock.apply_loss(rho, 1.0)
    assert np.max(np.abs(same - rho)) < 1e-12
    vac = fock.apply_loss(rho, 0.0)
    want = np.zeros_like(rho)
    want[0, 0] = 1
    assert np.max(np.abs(vac - want)) < 1e-12


def test_loss_maps_coherent_to_coherent():
    alpha, eta = 0.9, 0.37
    v = fock.coherent_state(alpha, 40)
    out = fock.apply_loss(np.outer(v, v.conj()), eta)
    assert abs(np.trace(out) - 1) < 1e-10
    assert fock.purity(out) >= 1 - 1e-8
    w = fock.coherent_state(alpha * np.sqrt(eta), 40)
    assert np.max(np.abs(out - np.outer(w, w.conj()))) < 1e-8


def test_loss_trace_preserving_on_thermal():
    rho = fock.thermal_state(0.8, 50)
    out = fock.apply_loss(rho, 0.55)
    assert abs(np.trace(out) - np.trace(rho)) < 1e-10


def test_amplifier_attenuator_duality():
    # Tr[sigma A_kappa(rho)] = kappa^{-1} Tr[E_{1/kappa}(sigma) rho]
    rng = np.random.default_rng(7)
    kappa = 1.7
    for _ in range(5):
        p = rng.random(8)
        p /= p.sum()
        rho = np.pad(np.diag(p.astype(complex)), (0, 23))
        v = fock.coherent_state(rng.random() * 0.8, 60)
        sig = np.outer(v, v.conj())
        lhs = np.trace(sig[:41, :41] @ fock.apply_amplifier(rho, kappa, 40)).real
        es = fock.apply_loss(sig, 1 / kappa)
        rhs = np.trace(es[:31, :31] @ rho).real / kappa
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_auto_cutoff_monotone():
    es = np.linspace(0, 30, 200)
    cs = [fock.auto_cutoff(e) for e in es]
    assert all(c2 >= c1 for c1, c2 in zip(cs, cs[1:]))


def test_cutoff_doubling_stability():
    # doubling the cutoff does not move a reported probability
    alpha = 0.8
    p1 = abs(fock.coherent_state(alpha, 30)[0]) ** 2
    p2 = abs(fock.coherent_state(alpha, 60)[0]) ** 2
    assert abs(p1 - p2) < 1e-9


def test_density_constructor_invariants():
    v = fock.coherent_state(0.7, 30)
    for m in (fock.thermal_state(1.2, 60), np.outer(v, v.conj())):
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        w = np.linalg.eigvalsh(m)
        assert w.min() >= -1e-10
        assert abs(np.trace(m).real - 1) < 1e-10


def test_op_sqrt_and_abs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    pos = x @ x.conj().T
    r = povm.sqrt_psd(pos)
    assert np.max(np.abs(r - r.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(r).min() >= -1e-12
    assert np.max(np.abs(r @ r - pos)) < 1e-9

