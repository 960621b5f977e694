"""Tests of the information-theory reference module (tests/information.py),
and of qrx.hadamard's capacity and Holevo-optimal rate against it."""

import numpy as np
import pytest

import fockspace as fock
import information as info
from qrx.hadamard import classical_capacity, optimal_rate


def test_uniform_entropy():
    assert info.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_mi_independent_and_correlated():
    px = np.array([0.3, 0.7])
    py = np.array([0.6, 0.4])
    assert info.mutual_information(np.outer(px, py)) == pytest.approx(0.0, abs=1e-12)
    assert info.mutual_information(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)


def test_pure_state_entropy_zero():
    v = fock.coherent_state(0.7, 30)
    assert info.von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-9)


def test_thermal_entropy_g1():
    # g(1) = 2 log2(2) - 0 = 2 bits; C(E) is the entropy of the thermal
    # state of mean photon number E
    assert info.von_neumann_entropy(fock.thermal_state(1.0, 80)) == pytest.approx(2.0, abs=1e-6)
    assert classical_capacity(1.0) == pytest.approx(2.0, abs=1e-12)
    for e in (0.05, 0.3, 2.5):
        assert classical_capacity(e) == pytest.approx(
            info.von_neumann_entropy(fock.thermal_state(e, 200)), abs=1e-9)


def test_maximally_mixed_qubit():
    assert info.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_holevo_trivial_cases():
    rho = fock.thermal_state(0.4, 30)
    assert info.holevo_chi([(rho, 1.0)]) == pytest.approx(0.0, abs=1e-10)
    e0 = np.zeros((2, 2), dtype=complex); e0[0, 0] = 1
    e1 = np.zeros((2, 2), dtype=complex); e1[1, 1] = 1
    assert info.holevo_chi([(e0, 0.5), (e1, 0.5)]) == pytest.approx(1.0, abs=1e-12)


def test_holevo_bpsk_gram_oracle():
    # chi of {|alpha>, |-alpha>} equals the entropy of the Gram spectrum / 2
    alpha = 0.5
    plus = fock.coherent_state(alpha, 40)
    minus = fock.coherent_state(-alpha, 40)
    chi = info.holevo_chi([(np.outer(plus, plus.conj()), 0.5),
                           (np.outer(minus, minus.conj()), 0.5)])
    gram = np.array([[np.vdot(plus, plus), np.vdot(plus, minus)],
                     [np.vdot(minus, plus), np.vdot(minus, minus)]]) / 2
    want = info.spectrum_entropy(np.linalg.eigvalsh(gram))
    assert chi == pytest.approx(want, abs=1e-8)
    # a length-1 Hadamard code is the M-PSK ensemble itself, so its
    # Holevo-optimal rate is the ensemble's chi
    for m in (2, 3, 4):
        kets = [fock.coherent_state(alpha * np.exp(2j * np.pi * k / m), 40) for k in range(m)]
        chi = info.holevo_chi([(np.outer(v, v.conj()), 1.0 / m) for v in kets])
        assert optimal_rate(1, m, alpha**2) == pytest.approx(chi, abs=1e-9)


def test_entropy_concavity_spot_checks():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rhos = []
        for _ in range(3):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = x @ x.conj().T
            rhos.append(m / np.trace(m).real)
        p = rng.random(3)
        p /= p.sum()
        avg = sum(pi * r for pi, r in zip(p, rhos))
        assert info.von_neumann_entropy(avg) >= sum(
            pi * info.von_neumann_entropy(r) for pi, r in zip(p, rhos)) - 1e-9

