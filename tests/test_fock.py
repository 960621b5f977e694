"""Tests for the truncated Fock-space layer.

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

from qrx import ConvergenceError, TruncationError, fock, povm


def squeeze_operator(r, cutoff):
    """Oracle: U_sq(r) = exp(-r/2 (a^dag^2 - a^2)) as a dense matrix
    exponential of the truncated generator."""
    a = fock.annihilation(cutoff).matrix
    return expm(-0.5 * r * (a.conj().T @ a.conj().T - a @ a))


def matrix_squeezed_displaced_state(beta, r, cutoff):
    """Oracle: amplitudes of |beta, r> = U_sq(r) D(beta)|0> by matrix product."""
    return squeeze_operator(r, cutoff) @ fock.coherent_state(beta, cutoff).amps


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
    c = fock._squeezed_coeffs(float(r), l_max)
    total = 0.0j
    for ell in range(l_max + 1):
        if c[ell] == 0.0:
            continue
        total += c[ell] * displacement_matrix_element(k, 2 * ell, bt)
    return complex(total)


def test_vacuum_coherent_state():
    v = fock.coherent_state(0.0, cutoff=4)
    assert np.allclose(v.amps, [1, 0, 0, 0, 0])


def test_coherent_amp1_direct_formula():
    v = fock.coherent_state(1.0)
    assert v.amps[1] == pytest.approx(np.exp(-0.5), abs=1e-14)


def test_coherent_overlap_closed_form():
    # <beta|alpha> from the truncated inner product vs the Gaussian closed form
    a, b = 0.7, -0.3j
    va, vb = fock.coherent_state(a, 60), fock.coherent_state(b, 60)
    assert abs(vb.inner(va) - fock.coherent_overlap(a, b)) < 1e-10


@given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_coherent_overlap_property(a, b):
    va, vb = fock.coherent_state(a, 60), fock.coherent_state(b, 60)
    assert abs(vb.inner(va) - fock.coherent_overlap(a, b)) < 1e-9


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        fock.coherent_state(3.0, cutoff=5)


def test_displacement_identity_at_zero():
    d = fock.displacement_operator(0.0, cutoff=6)
    assert np.allclose(d.matrix, np.eye(7))


def test_weyl_composition_rule():
    # D(a)D(b) = exp((a b* - a* b)/2) D(a+b)
    a, b, c = 0.5, 0.2j, 80
    lhs = fock.displacement_operator(a, c).matrix @ fock.displacement_operator(b, c).matrix
    phase = np.exp(0.5 * (a * np.conj(b) - np.conj(a) * b))
    rhs = phase * fock.displacement_operator(a + b, c).matrix
    assert np.max(np.abs(lhs[:40, :40] - rhs[:40, :40])) < 1e-8


def test_displacement_vs_coherent_constructor():
    beta = 1.2
    d = fock.displacement_operator(beta, 60)
    v = d.apply(fock.coherent_state(0.0, 60))
    w = fock.coherent_state(beta, 60)
    fid = abs(w.inner(v)) ** 2
    assert fid >= 1 - 1e-10


def test_displacement_unitary_on_subspace():
    d = fock.displacement_operator(0.8 + 0.1j, 50).matrix
    g = d.conj().T @ d
    assert np.max(np.abs(g[:40, :40] - np.eye(50 + 1)[:40, :40])) < 1e-8


def test_squeezed_state_r0_is_vacuum():
    v = fock.squeezed_state(0.0, 10)
    assert np.allclose(v.amps, np.eye(11)[0])


def test_squeezed_state_even_support():
    v = fock.squeezed_state(0.7, 60)
    assert np.all(v.amps[1::2] == 0)


def test_squeezed_quadrature_variance():
    r, c = 0.4, 60
    v = fock.squeezed_state(r, c)
    q = fock.quadrature_operator(c).matrix
    var = float((v.amps.conj() @ (q @ q) @ v.amps).real)
    assert var == pytest.approx(np.exp(-2 * r) / 2, abs=1e-6)


def test_squeezed_state_matches_squeeze_operator():
    v = fock.squeezed_state(0.4, 60)
    w = matrix_squeezed_displaced_state(0.0, 0.4, 60)
    assert np.max(np.abs(v.amps - w)) < 1e-10


def test_squeezed_displaced_overlap_r0():
    # series collapses to the coherent amplitude
    beta = 0.4 - 0.2j
    for k in range(5):
        got = squeezed_displaced_overlap(k, beta, 0.0)
        want = fock.coherent_state(beta, 10).amps[k]
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
    # far below the oracle's cutoff of 200 its truncation does not reach
    for beta in (-1.6, 0.4 - 0.3j, 0.0):
        for r in (-0.8, 0.0, 0.3):
            got = fock.squeezed_displaced_state(beta, r, 46)
            want = matrix_squeezed_displaced_state(beta, r, 200)[:47]
            assert np.max(np.abs(got.amps - want)) < 1e-13


def test_squeezed_displaced_overlap_tail_flag():
    with pytest.raises(ConvergenceError):
        squeezed_displaced_overlap(2, 0.3, 1.5, l_max=2)


def test_quadrature_ground_state_density():
    q = 0.5
    v = fock.quadrature_eigenvector(q, 0.0, 30)
    assert abs(v.amps[0]) ** 2 == pytest.approx(np.pi ** -0.5 * np.exp(-q * q), abs=1e-12)


def test_quadrature_odd_components_vanish_at_origin():
    v = fock.quadrature_eigenvector(0.0, 0.3, 30)
    assert np.max(np.abs(v.amps[1::2])) == 0.0


def test_quadrature_coherent_density_normalizes():
    # int |<q|alpha>|^2 dq = 1
    alpha, c = 0.8, 50
    qs = np.linspace(-8, 8, 2001)
    va = fock.coherent_state(alpha, c)
    dens = np.array([abs(fock.quadrature_eigenvector(q, 0.0, c).inner(va)) ** 2 for q in qs])
    assert np.trapezoid(dens, qs) == pytest.approx(1.0, abs=1e-4)


def test_thermal_vacuum():
    th = fock.thermal_state(0.0, 10)
    want = np.zeros((11, 11))
    want[0, 0] = 1
    assert np.allclose(th.matrix, want)


def test_thermal_mean_photon_number():
    th = fock.thermal_state(0.5, 60)
    n = fock.number_operator(60)
    assert n.expect(th).real == pytest.approx(0.5, abs=1e-8)


def test_loss_identity_and_vacuum_limits():
    rho = fock.coherent_state(0.6, 30).to_operator()
    same = fock.apply_loss(rho, 1.0)
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-12
    vac = fock.apply_loss(rho, 0.0)
    want = np.zeros_like(rho.matrix)
    want[0, 0] = 1
    assert np.max(np.abs(vac.matrix - want)) < 1e-12


def test_loss_maps_coherent_to_coherent():
    alpha, eta = 0.9, 0.37
    rho = fock.coherent_state(alpha, 40).to_operator()
    out = fock.apply_loss(rho, eta)
    assert abs(out.trace - 1) < 1e-10
    assert fock.purity(out) >= 1 - 1e-8
    tgt = fock.coherent_state(alpha * np.sqrt(eta), 40).to_operator()
    assert np.max(np.abs(out.matrix - tgt.matrix)) < 1e-8


def test_loss_trace_preserving_on_thermal():
    rho = fock.thermal_state(0.8, 50)
    out = fock.apply_loss(rho, 0.55)
    assert abs(out.trace - rho.trace) < 1e-10


def test_amplifier_attenuator_duality():
    # Tr[sigma A_kappa(rho)] = kappa^{-1} Tr[E_{1/kappa}(sigma) rho]
    rng = np.random.default_rng(7)
    kappa = 1.7
    for _ in range(5):
        p = rng.random(8)
        p /= p.sum()
        rho = fock.FockOperator(np.diag(p.astype(complex)), 7).pad(30)
        sig = fock.coherent_state(rng.random() * 0.8, 60).to_operator()
        lhs = np.trace(sig.matrix[:41, :41] @ fock.apply_amplifier(rho, kappa, 40).matrix).real
        es = fock.apply_loss(sig, 1 / kappa)
        rhs = np.trace(es.matrix[:31, :31] @ rho.matrix).real / kappa
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_auto_cutoff_monotone():
    es = np.linspace(0, 30, 200)
    cs = [fock.auto_cutoff(e) for e in es]
    assert all(c2 >= c1 for c1, c2 in zip(cs, cs[1:]))


def test_cutoff_doubling_stability():
    # doubling the cutoff does not move a reported probability
    alpha = 0.8
    p1 = abs(fock.coherent_state(alpha, 30).amps[0]) ** 2
    p2 = abs(fock.coherent_state(alpha, 60).amps[0]) ** 2
    assert abs(p1 - p2) < 1e-9


def test_density_constructor_invariants():
    for rho in (fock.thermal_state(1.2, 60), fock.coherent_state(0.7, 30).to_operator()):
        m = rho.matrix
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


class TestWigner:
    def test_vacuum_gaussian(self):
        qs = np.linspace(-4, 4, 61)
        w = fock.wigner(fock.coherent_state(0, 12).to_operator(), qs, qs)
        qg, pg = np.meshgrid(qs, qs, indexing="ij")
        assert np.max(np.abs(w.values - np.exp(-(qg**2 + pg**2)) / np.pi)) < 1e-8

    def test_coherent_displaced_gaussian(self):
        alpha = 0.5 + 0.3j
        qs = np.linspace(-5, 5, 81)
        w = fock.wigner(fock.coherent_state(alpha, 25).to_operator(), qs, qs)
        qg, pg = np.meshgrid(qs, qs, indexing="ij")
        c, s = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
        assert np.max(np.abs(w.values - np.exp(-((qg - c) ** 2 + (pg - s) ** 2)) / np.pi)) < 1e-8

    def test_grid_normalization(self):
        # >= 6 sigma coverage, integral within 2% of the trace
        rho = fock.thermal_state(0.6, 40)
        qs = np.linspace(-7, 7, 141)
        w = fock.wigner(rho, qs, qs)
        assert w.integral() == pytest.approx(1.0, rel=0.02)
