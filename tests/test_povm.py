import numpy as np
import pytest

import fockspace as fock
import reference as ref
from qrx import povm


def random_density(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    return m / np.trace(m).real


def random_povm(rng, d, m):
    """Random POVM from m positive operators normalized by S^{-1/2}."""
    mats = []
    for _ in range(m):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(x @ x.conj().T)
    s = sum(mats)
    si = povm.pinv_sqrt_psd(s)
    return povm.Povm([si @ mm @ si for mm in mats])


def trine_states():
    """Three symmetric planar pure qubits at 120 degrees."""
    out = []
    for k in range(3):
        th = 2 * np.pi * k / 3
        v = np.array([np.cos(th / 2), np.sin(th / 2)], dtype=complex)
        out.append(np.outer(v, v.conj()))
    return out


# ------------------------------------------------------------------ measure


def test_projective_measure_on_vacuum():
    d = 5
    e0 = np.zeros((d, d), complex); e0[0, 0] = 1
    p = povm.Povm([e0, np.eye(d) - e0])
    vac = fock.coherent_state(0, d - 1)
    assert np.allclose(ref.measure(p, np.outer(vac, vac.conj())), [1.0, 0.0])


def test_on_off_click_probability():
    alpha, c = 0.8, 30
    d = c + 1
    e0 = np.zeros((d, d), complex); e0[0, 0] = 1
    p = povm.Povm([e0, np.eye(d) - e0])
    v = fock.coherent_state(alpha, c)
    probs = ref.measure(p, np.outer(v, v.conj()))
    assert probs[0] == pytest.approx(np.exp(-alpha**2), abs=1e-10)


def test_trine_povm_on_maximally_mixed():
    elements = [2 / 3 * t for t in trine_states()]
    p = povm.Povm(elements)
    probs = ref.measure(p, np.eye(2) / 2)
    assert np.allclose(probs, 1 / 3)


def test_probs_sum_to_one_and_post_states():
    rng = np.random.default_rng(0)
    p = random_povm(rng, 4, 3)
    rho = random_density(rng, 4)
    probs = ref.measure(p, rho)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    for k in range(3):
        s = povm.sqrt_psd(p.elements[k])  # post-measurement state of outcome k
        post = s @ rho @ s / probs[k]
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(post).min() >= -1e-10


# ---------------------------------------------------------------- distances


def test_distance_fidelity_trivial():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 4)
    assert ref.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert ref.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert ref.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert ref.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_coherent_fidelity():
    v0, v1 = fock.coherent_state(0, 40), fock.coherent_state(1.0, 40)
    r0, r1 = np.outer(v0, v0.conj()), np.outer(v1, v1.conj())
    assert ref.fidelity(r0, r1) == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r1, r2 = random_density(rng, 5), random_density(rng, 5)
        d = ref.trace_distance(r1, r2)
        f = ref.fidelity(r1, r2)
        assert 1 - np.sqrt(f) <= d + 1e-9
        assert d <= np.sqrt(1 - f) + 1e-9


# ----------------------------------------------------------------- Helstrom


def test_helstrom_trivial_cases():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    p_err, _ = ref.helstrom_binary(rho, rho, 0.5)
    assert p_err == pytest.approx(0.5, abs=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    p_err, _ = ref.helstrom_binary(a, b, 0.5)
    assert p_err == pytest.approx(0.0, abs=1e-12)


def test_helstrom_bpsk_closed_form():
    # pure equiprobable states with overlap c: p_err = (1 - sqrt(1 - c^2))/2
    alpha = 1.0
    v0, v1 = fock.coherent_state(alpha, 40), fock.coherent_state(-alpha, 40)
    r0, r1 = np.outer(v0, v0.conj()), np.outer(v1, v1.conj())
    c = np.exp(-2 * alpha**2)
    want = 0.5 * (1 - np.sqrt(1 - c**2))
    p_err, meas = ref.helstrom_binary(r0, r1, 0.5)
    assert p_err == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(0.0046000703695887, abs=1e-12)
    # the returned POVM achieves the bound when measured directly
    p_direct = 0.5 * ref.measure(meas, r0)[1] + 0.5 * ref.measure(meas, r1)[0]
    assert p_direct == pytest.approx(p_err, abs=1e-10)


# ---------------------------------------------------------------- tree
class TestBinaryTree:
    def test_m2_depth1_identity(self):
        rng = np.random.default_rng(4)
        p = random_povm(rng, 3, 2)
        tree = povm.binary_tree_decompose(p)
        assert len(tree) == 1
        b0, b1 = tree[0]
        assert np.max(np.abs(b0 - p.elements[0])) < 1e-10
        assert np.max(np.abs(b1 - p.elements[1])) < 1e-10

    def test_projective_commuting_case(self):
        d = 4
        p = povm.Povm([np.diag(np.eye(d)[k]).astype(complex) for k in range(d)])
        tree = povm.binary_tree_decompose(p)
        # first-step nodes are sums of projectors (labels 0,2 vs 1,3: bit1=LSB)
        b0, b1 = tree[0]
        assert np.allclose(b0, np.diag([1, 0, 1, 0]))
        assert np.allclose(b1, np.diag([0, 1, 0, 1]))
        rec = povm.reconstruct(tree)
        for e, f in zip(p.elements, rec.elements):
            assert np.max(np.abs(e - f)) < 1e-12

    def test_random_round_trip(self):
        rng = np.random.default_rng(5)
        p = random_povm(rng, 3, 4)
        rec = povm.reconstruct(povm.binary_tree_decompose(p))
        err = max(np.max(np.abs(e - f)) for e, f in zip(p.elements, rec.elements))
        assert err < 1e-9

    def test_padded_m3_null_leaf(self):
        rng = np.random.default_rng(6)
        p = random_povm(rng, 4, 3)
        tree = povm.binary_tree_decompose(p)
        rec = povm.reconstruct(tree)
        assert len(rec) == 4
        assert np.max(np.abs(rec.elements[3])) < 1e-12
        for k in range(3):
            assert np.max(np.abs(rec.elements[k] - p.elements[k])) < 1e-9

    def test_weak_completeness(self):
        rng = np.random.default_rng(7)
        p = random_povm(rng, 5, 8)
        tree = povm.binary_tree_decompose(p)
        assert povm.weak_completeness_defect(tree) < 1e-9

    def test_sequential_simulation_equals_reconstruction(self):
        # operational equivalence: conditional two-outcome measurements with
        # post-states reproduce the one-shot statistics
        rng = np.random.default_rng(8)
        p = random_povm(rng, 4, 6)
        rho = random_density(rng, 4)
        tree = povm.binary_tree_decompose(p)
        probs_seq = povm.simulate_tree(tree, rho)
        probs_oneshot = ref.measure(povm.reconstruct(tree), rho)
        assert np.max(np.abs(probs_seq - probs_oneshot)) < 1e-9

    def test_levels_equal_the_node_by_node_tree(self):
        # the level arrays run the per-node arithmetic on whole stacks, so
        # every node and every rebuilt leaf is the same to the last bit
        rng = np.random.default_rng(14)
        for _ in range(20):
            d, m = int(rng.integers(1, 9)), int(rng.integers(2, 18))
            p = random_povm(rng, d, m)
            levels = povm.binary_tree_decompose(p)
            nodes = ref.tree_by_nodes(p)
            assert len(nodes) == sum(len(b) for b in levels)
            for (u, c), b in nodes.items():
                assert np.array_equal(levels[u - 1][c], b)
            rebuilt = povm.reconstruct(levels).elements
            assert all(np.array_equal(e, f) for e, f in zip(rebuilt, ref.leaves_by_path(nodes)))

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = rng.integers(2, 9)
            m = rng.integers(2, 9)
            p = random_povm(rng, int(d), int(m))
            rec = povm.reconstruct(povm.binary_tree_decompose(p))
            err = max(np.max(np.abs(e - f)) for e, f in zip(p.elements, rec.elements))
            assert err < 1e-9


# ---------------------------------------------------------------- SRM / SM


def test_srm_orthogonal_unchanged():
    d = 4
    projs = [np.diag(np.eye(d)[k]).astype(complex) for k in range(d)]
    s = ref.srm(projs)
    for e, p in zip(s.elements, projs):
        assert np.max(np.abs(e - p)) < 1e-12


def test_srm_two_state_oracle():
    # two non-orthogonal rank-1 projectors in d=2; success probability of the
    # pretty good measurement vs direct 2x2 diagonalization of S
    th = 0.4
    v0 = np.array([1.0, 0.0], complex)
    v1 = np.array([np.cos(th), np.sin(th)], complex)
    projs = [np.outer(v, v.conj()) for v in (v0, v1)]
    s = ref.srm(projs)
    p_succ = 0.5 * sum(np.trace(s.elements[k] @ projs[k]).real for k in range(2))
    # oracle: for two equiprobable symmetric pure states the pretty good
    # measurement is optimal, p_succ = (1 + sqrt(1 - c^2))/2
    c = abs(np.vdot(v0, v1))
    want = 0.5 * (1 + np.sqrt(1 - c**2))
    assert p_succ == pytest.approx(want, abs=1e-10)


def test_srm_trine_success():
    projs = trine_states()
    s = ref.srm(projs)
    succ = sum(np.trace(s.elements[k] @ projs[k]).real / 3 for k in range(3))
    assert succ == pytest.approx(2 / 3, abs=1e-10)


def test_sequential_single_projector():
    d = 3
    pi = np.diag([1.0, 0, 0]).astype(complex)
    s = ref.sequential_povm([pi])
    assert np.max(np.abs(s.elements[0] - pi)) < 1e-12
    assert np.max(np.abs(s.elements[1] - (np.eye(d) - pi))) < 1e-12


def test_sequential_orthogonal_projectors():
    d = 4
    projs = [np.diag(np.eye(d)[k]).astype(complex) for k in range(2)]
    s = ref.sequential_povm(projs)
    want_err = np.diag([0.0, 0, 1, 1])
    assert np.max(np.abs(s.elements[-1] - want_err)) < 1e-12


def test_sequential_overlapping_positivity():
    rng = np.random.default_rng(10)
    for _ in range(5):
        vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        projs = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vs]
        s = ref.sequential_povm(projs)
        assert np.linalg.eigvalsh(s.elements[-1]).min() >= -1e-10


# ------------------------------------------------------------------- lemmas


def test_lemma_contractivity_and_measurement_closeness():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho, sig = random_density(rng, d), random_density(rng, d)
        e = random_povm(rng, d, 2).elements[0]
        se = povm.sqrt_psd(e)
        # Lemma: contractivity of the trace distance under POVM elements
        assert ref.trace_distance(se @ rho @ se, se @ sig @ se) <= (
            ref.trace_distance(rho, sig) + 1e-10
        )
        # Lemma: measurement on approximately close states
        assert np.trace(e @ rho).real >= (
            np.trace(e @ sig).real - 2 * ref.trace_distance(rho, sig) - 1e-10
        )


@pytest.mark.parametrize("eps", [0.3, 0.1, 0.01])
def test_lemma_gentle_operator(eps):
    rng = np.random.default_rng(12)
    found = 0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        # mix a random element toward the identity so Tr[e rho] >= 1 - eps
        raw = random_povm(rng, d, 2).elements[0]
        e = (1 - eps) * np.eye(d) + eps * raw
        if np.trace(e @ rho).real >= 1 - eps:
            found += 1
            se = povm.sqrt_psd(e)
            assert ref.trace_distance(se @ rho @ se, rho) <= np.sqrt(eps) + 1e-9
    assert found > 0  # the sweep actually exercised the bound


# ------------------------------------------------------------ serialization


def test_json_round_trip():
    rng = np.random.default_rng(13)
    p = random_povm(rng, 3, 4)
    q = povm.povm_from_json(ref.povm_to_json(p))
    for e, f in zip(p.elements, q.elements):
        assert np.max(np.abs(e - f)) < 1e-15
