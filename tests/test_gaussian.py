import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockspace as fock
from qrx import gaussian as g


def test_phase_identity():
    assert np.allclose(g.symplectic("phase", 0.0), np.eye(2))


@given(st.sampled_from(["phase", "squeeze", "beamsplitter", "two_mode_squeeze"]),
       st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_symplectic_condition(kind, x):
    s = g.symplectic(kind, x)
    n = s.shape[0] // 2
    assert np.max(np.abs(s @ g.omega(n) @ s.T - g.omega(n))) < 1e-12


def test_two_mode_squeezer_from_beamsplitters():
    r = 0.7
    bsp = g.symplectic("beamsplitter", np.pi / 4)
    bsm = g.symplectic("beamsplitter", -np.pi / 4)
    sq = g.symplectic("squeeze", r)
    sq2 = np.block([[sq, np.zeros((2, 2))], [np.zeros((2, 2)), g.symplectic("squeeze", -r)]])
    # S_2sq(r) = S_bs(pi/4) (S_sq(r) + S_sq(-r)) S_bs(-pi/4)
    want = g.symplectic("two_mode_squeeze", r)
    got = bsp @ sq2 @ bsm
    assert np.max(np.abs(got - want)) < 1e-12


def test_unknown_kind():
    with pytest.raises(ValueError):
        g.symplectic("nope", 1.0)


def test_overlap_identical_vacua():
    assert g.gaussian_overlap(g.vacuum(), g.vacuum()) == pytest.approx(1.0, abs=1e-14)


def test_overlap_coherent_fock_oracle():
    a, b = 0.4, -0.6
    got = g.gaussian_overlap(g.coherent(a), g.coherent(b))
    want = abs(fock.coherent_overlap(a, b)) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def test_overlap_vacuum_thermal():
    nbar = 1.7
    assert g.gaussian_overlap(g.vacuum(), g.thermal(nbar)) == pytest.approx(1 / (nbar + 1), abs=1e-12)


def test_overlap_fock_oracle_regression_set():
    # 1-mode Gaussian states vs Fock-space Tr[rho1 rho2]
    cut = 60
    v, w = fock.coherent_state(0.5, cut), fock.squeezed_state(0.4, cut)
    cases = [
        (g.coherent(0.5), np.outer(v, v.conj())),
        (g.thermal(0.8), fock.thermal_state(0.8, cut)),
        (g.squeezed(0.4), np.outer(w, w.conj())),
    ]
    for (gs1, f1) in cases:
        for (gs2, f2) in cases:
            want = float(np.trace(f1 @ f2).real)
            assert g.gaussian_overlap(gs1, gs2) == pytest.approx(want, abs=1e-8)


def test_apply_channel_identity():
    s = g.coherent(0.3 + 0.2j)
    out = g.apply_channel(g.identity_channel(), s)
    assert np.allclose(out.mean, s.mean) and np.allclose(out.cov, s.cov)


def test_attenuator_on_coherent():
    eta = 0.6
    s = g.coherent(0.9)
    out = g.apply_channel(g.attenuator(eta), s)
    assert np.allclose(out.mean, np.sqrt(eta) * s.mean)
    assert np.allclose(out.cov, 0.5 * np.eye(2))


def test_pi_channel_decomposition():
    # any PI channel (A = sqrt(tau) 1, B = nu 1) equals A_kappa o E_eta
    eta, kappa = 0.5, 1.3
    ch = g.compose(g.amplifier(kappa), g.attenuator(eta))
    tau = kappa * eta
    nu = kappa * (1 - eta) / 2 + (kappa - 1) / 2
    assert np.max(np.abs(ch.A - np.sqrt(tau) * np.eye(2))) < 1e-12
    assert np.max(np.abs(ch.B - nu * np.eye(2))) < 1e-12


def test_williamson_vacuum_and_thermal():
    assert g.williamson_eigenvalues(g.vacuum().cov) == pytest.approx([0.5])
    assert g.williamson_eigenvalues(g.thermal(1.0).cov) == pytest.approx([1.5])


def test_williamson_two_mode_squeezed_pure():
    vals = g.williamson_eigenvalues(g.two_mode_squeezed(0.5).cov)
    assert vals == pytest.approx([0.5, 0.5], abs=1e-10)


def test_two_mode_squeezed_local_thermal():
    # reduced state of either arm is thermal with nbar = (cosh 2r - 1)/2
    r = 0.5
    v = g.two_mode_squeezed(r).cov
    nbar = (np.cosh(2 * r) - 1) / 2
    assert np.allclose(v[:2, :2], (nbar + 0.5) * np.eye(2))


def test_physicality_quantum_limited_attenuator():
    ch = g.attenuator(0.5, 0.0)
    assert g.is_physical(ch)
    assert g.is_physical_one_mode_pi(ch)
    # quantum-limited: equality within tolerance
    assert 4 * np.linalg.det(ch.B) == pytest.approx((1 - np.linalg.det(ch.A)) ** 2, abs=1e-12)


def test_noiseless_amplification_forbidden():
    ch = g.GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
    assert not g.is_physical(ch)
    assert not g.is_physical_one_mode_pi(ch)


def test_random_symplectic_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = (g.symplectic("phase", rng.uniform(-3, 3))
             @ g.symplectic("squeeze", rng.uniform(-1, 1))
             @ g.symplectic("phase", rng.uniform(-3, 3)))
        ch = g.GaussianChannel(s, np.zeros((2, 2)), np.zeros(2))
        assert g.is_physical(ch)


def test_channel_preserves_physicality_of_states():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s = g.apply_symplectic(g.symplectic("squeeze", rng.uniform(-0.8, 0.8)),
                               g.thermal(rng.uniform(0, 2)))
        ch = g.attenuator(rng.uniform(0, 1), rng.uniform(0, 1))
        out = g.apply_channel(ch, s)  # constructor re-validates the uncertainty relation
        assert out.n_modes == 1
