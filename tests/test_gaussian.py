import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from qrx import gaussian as g


def test_phase_identity():
    assert np.allclose(ref.symplectic("phase", 0.0), np.eye(2))


@given(st.sampled_from(["phase", "squeeze", "beamsplitter", "two_mode_squeeze"]),
       st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_symplectic_condition(kind, x):
    s = ref.symplectic(kind, x)
    n = s.shape[0] // 2
    assert np.max(np.abs(s @ g.omega(n) @ s.T - g.omega(n))) < 1e-12


def test_two_mode_squeezer_from_beamsplitters():
    r = 0.7
    bsp = ref.symplectic("beamsplitter", np.pi / 4)
    bsm = ref.symplectic("beamsplitter", -np.pi / 4)
    sq = ref.symplectic("squeeze", r)
    sq2 = np.block([[sq, np.zeros((2, 2))], [np.zeros((2, 2)), ref.symplectic("squeeze", -r)]])
    # S_2sq(r) = S_bs(pi/4) (S_sq(r) + S_sq(-r)) S_bs(-pi/4)
    want = ref.symplectic("two_mode_squeeze", r)
    got = bsp @ sq2 @ bsm
    assert np.max(np.abs(got - want)) < 1e-12


def test_unknown_kind():
    with pytest.raises(ValueError):
        ref.symplectic("nope", 1.0)


def apply(ch, s):
    """The state of moments (A m + b, A V A^T + B) after channel ch."""
    return g.GaussianState(ch.A @ s.mean + ch.b, ch.A @ s.cov @ ch.A.T + ch.B)


def test_attenuator_on_coherent():
    eta = 0.6
    s = g.GaussianState(np.sqrt(2.0) * np.array([0.9, 0.0]), 0.5 * np.eye(2))  # |0.9>
    out = apply(ref.attenuator(eta), s)
    assert np.allclose(out.mean, np.sqrt(eta) * s.mean)
    assert np.allclose(out.cov, 0.5 * np.eye(2))


def test_pi_channel_decomposition():
    # any PI channel (A = sqrt(tau) 1, B = nu 1) equals A_kappa o E_eta
    eta, kappa = 0.5, 1.3
    amp, att = ref.amplifier(kappa), ref.attenuator(eta)
    ch = g.GaussianChannel(amp.A @ att.A, amp.A @ att.B @ amp.A.T + amp.B, amp.A @ att.b + amp.b)
    tau = kappa * eta
    nu = kappa * (1 - eta) / 2 + (kappa - 1) / 2
    assert np.max(np.abs(ch.A - np.sqrt(tau) * np.eye(2))) < 1e-12
    assert np.max(np.abs(ch.B - nu * np.eye(2))) < 1e-12


def test_williamson_vacuum_and_thermal():
    assert g.williamson_eigenvalues(0.5 * np.eye(2)) == pytest.approx([0.5])
    assert g.williamson_eigenvalues(1.5 * np.eye(2)) == pytest.approx([1.5])  # nbar = 1


def two_mode_squeezed_cov(r):
    """EPR/twin-beam covariance V = S_2sq(2r)/2."""
    return 0.5 * ref.symplectic("two_mode_squeeze", 2 * r)


def test_williamson_two_mode_squeezed_pure():
    vals = g.williamson_eigenvalues(two_mode_squeezed_cov(0.5))
    assert vals == pytest.approx([0.5, 0.5], abs=1e-10)


def test_two_mode_squeezed_local_thermal():
    # reduced state of either arm is thermal with nbar = (cosh 2r - 1)/2
    r = 0.5
    v = two_mode_squeezed_cov(r)
    nbar = (np.cosh(2 * r) - 1) / 2
    assert np.allclose(v[:2, :2], (nbar + 0.5) * np.eye(2))


def test_physicality_quantum_limited_attenuator():
    ch = ref.attenuator(0.5, 0.0)
    assert g.is_physical(ch)
    # quantum-limited: equality within tolerance
    assert 4 * np.linalg.det(ch.B) == pytest.approx((1 - np.linalg.det(ch.A)) ** 2, abs=1e-12)


def test_noiseless_amplification_forbidden():
    ch = g.GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
    assert not g.is_physical(ch)


def test_random_symplectic_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = (ref.symplectic("phase", rng.uniform(-3, 3))
             @ ref.symplectic("squeeze", rng.uniform(-1, 1))
             @ ref.symplectic("phase", rng.uniform(-3, 3)))
        ch = g.GaussianChannel(s, np.zeros((2, 2)), np.zeros(2))
        assert g.is_physical(ch)


def test_channel_preserves_physicality_of_states():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sq = ref.symplectic("squeeze", rng.uniform(-0.8, 0.8))
        cov = sq @ ((rng.uniform(0, 2) + 0.5) * np.eye(2)) @ sq.T  # squeezed thermal state
        ch = ref.attenuator(rng.uniform(0, 1), rng.uniform(0, 1))
        out = apply(ch, g.GaussianState(np.zeros(2), cov))  # re-validates the uncertainty relation
        assert out.n_modes == 1
