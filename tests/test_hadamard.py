"""Tests for qrx.hadamard: code construction, rates, and VP detection.

Oracles used here:
  * integer arithmetic for the Hadamard matrix identities,
  * an NM x NM coherent-state Gram spectrum for optimal_rate,
  * scipy.integrate.dblquad for the M=4 cascade's nested integral,
  * scalar adaptive scipy.integrate.quad (the path the fixed-order rule
    replaced) for the vacuum-or-pulse matrices and the M=3 closed form,
  * info.mutual_information on the full (NM)x(NM+1) channel for the rates,
  * closed forms (with ledgered corrections) for the realistic rates,
  * the detection path that `hd._detection` replaced (a kernel class read
    unblocked, and a separate blocked vacuum-or-pulse routine), which the
    new evaluator must match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

import information as info
import reference as ref
from qrx import cli
from qrx import hadamard as hd
from qrx.errors import ConvergenceError


# ---------------------------------------------------------------------------
# helpers / oracles
# ---------------------------------------------------------------------------


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    return np.exp(-0.5 * (abs(beta) ** 2 + abs(gamma) ** 2) + np.conj(beta) * gamma)


def gram_rate_oracle(n: int, m: int, energy: float) -> float:
    """Entropy rate of the PSK Hadamard code from the raw NM x NM Gram matrix
    of the PPM-picture codewords |w_k(alpha_m)> (pulse sqrt(N)*alpha_m on mode
    k, vacuum elsewhere)."""
    e_tot = n * energy
    amps = math.sqrt(e_tot) * np.exp(2j * np.pi * np.arange(m) / m)
    dim = n * m
    gram = np.empty((dim, dim), dtype=complex)
    for k in range(n):
        for mi in range(m):
            for h in range(n):
                for mj in range(m):
                    if k == h:
                        gram[mi * n + k, mj * n + h] = coherent_overlap(amps[mi], amps[mj])
                    else:
                        gram[mi * n + k, mj * n + h] = coherent_overlap(
                            amps[mi], 0.0
                        ) * coherent_overlap(0.0, amps[mj])
    eigs = np.linalg.eigvalsh(gram) / dim
    eigs = eigs[eigs > 1e-18]
    return float(-np.sum(eigs * np.log2(eigs))) / n


def channel_mi_oracle(n: int, m: int, energy: float, kernel: str = "helstrom") -> float:
    """I(X:Y)/N for X=(mode, phase) uniform over NM values, Y = X + {err},
    assembled from `hd._detection` entries and fed to info.mutual_information."""
    e_tot = n * energy
    dim = n * m
    joint = np.zeros((dim, dim + 1))
    cond = hd._detection(kernel, m, e_tot)
    for k in range(n):
        for mx in range(m):
            x = mx * n + k
            for my in range(m):
                joint[x, my * n + k] = cond[my, mx] / dim
            joint[x, dim] = math.exp(-e_tot) / dim  # no click: read as the vacuum
    return info.mutual_information(joint) / n


def h2(p: float) -> float:
    return 0.0 if p <= 0.0 else -p * math.log2(p)


def quad(fun, lo: float, hi: float, tol: float = 1e-10) -> float:
    val, err = integrate.quad(fun, lo, hi, epsabs=tol, epsrel=tol, limit=300)
    assert err <= 1e-8
    return val


def binary_helstrom(same: bool, energy: float) -> float:
    root = math.sqrt(max(1.0 - math.exp(-4.0 * energy), 0.0))
    return 0.5 * (1.0 + root) if same else 0.5 * (1.0 - root)


def quad_real3(l: int, m_in: int, energy: float, tol: float = 1e-10) -> float:
    """M=3 nulling cascade with its inner integral by adaptive quadrature."""
    if m_in == 0:
        return 1.0 if l == 0 else 0.0
    if m_in == 2:  # symmetry 1 <-> 2
        return quad_real3((0, 2, 1)[l], 1, energy, tol)
    e3 = 3.0 * energy
    if l == 0:
        return math.exp(-e3)
    if energy == 0.0:
        return 0.0
    return quad(lambda x: math.exp(-x) * binary_helstrom(l == 1, 0.5 * (e3 - x)), 0.0, e3, tol)


def quad_real4(l: int, m_in: int, energy: float) -> float:
    """M=4 nulling cascade; P(1|1) by adaptive quadrature, P(3|1) as the rest."""
    if m_in == 0:
        return 1.0 if l == 0 else 0.0
    e2, e4 = 2.0 * energy, 4.0 * energy
    if m_in == 2:
        return {0: math.exp(-e4), 2: 1.0 - math.exp(-e4)}.get(l, 0.0)
    if m_in == 3:  # symmetry 1 <-> 3
        return quad_real4((0, 3, 2, 1)[l], 1, energy)
    if l == 0:
        return math.exp(-e2)
    if l == 2:
        return e2 * math.exp(-e2)
    if energy == 0.0:
        return 0.0
    p11 = quad(lambda x: x * math.exp(-x) * binary_helstrom(True, 0.5 * (e4 - 2.0 * x)), 0.0, e2)
    if l == 1:
        return p11
    return max(1.0 - math.exp(-e2) - e2 * math.exp(-e2) - p11, 0.0)


def quad_kernel(kind: str, m: int):
    if kind == "helstrom":
        return lambda l, m_in, e: hd.kernel_matrix("helstrom", m, e)[l, m_in]
    return quad_real3 if m == 3 else quad_real4


def quad_vp_matrix(kind: str, m: int, energy: float) -> np.ndarray:
    """Scalar J=inf vacuum-or-pulse matrix, one adaptive quadrature per entry."""
    prob = quad_kernel(kind, m)
    out = np.empty((m, m))
    for mm in range(m):
        for l in range(m):
            if kind == "helstrom" and mm > 0:  # circulant
                out[l, mm] = out[(l - mm) % m, 0]
            else:
                out[l, mm] = quad(lambda x: math.exp(-x) * prob(l, mm, energy - x), 0.0, energy)
    return out


def loop_vp_matrix(kind: str, m: int, energy: float, j_steps: int) -> np.ndarray:
    """Finite-J vacuum-or-pulse matrix as a scalar loop over the click step."""
    step = energy / j_steps
    total = np.zeros((m, m))
    for j in range(1, j_steps + 1):
        weight = math.exp(-step * (j - 1)) * (1.0 - math.exp(-step))
        total += weight * hd.kernel_matrix(kind, m, step * (j_steps - j))
    return total


def oracle_checked(level, energies: np.ndarray, where: str) -> np.ndarray:
    coarse, fine = level(hd._NODES), level(2 * hd._NODES)
    err = np.max(np.abs(fine - coarse), axis=(-2, -1))
    worst = int(np.argmax(err))
    if err[worst] > hd._RULE_TOL:
        raise ConvergenceError(
            f"fixed-order rule did not converge for {where}, pulse energy "
            f"{float(energies[worst])!r}: error estimate {err[worst]:.2e} "
            f"exceeds {hd._RULE_TOL:.0e}"
        )
    return fine


@dataclass(frozen=True)
class DetectionKernel:
    """The kernel object the old path passed around; `matrix` is the bare kernel."""

    kind: str
    m: int

    def __post_init__(self) -> None:
        if self.kind not in ("helstrom", "realistic"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "realistic" and self.m not in (3, 4):
            raise ValueError("realistic kernel requires M in {3, 4}")
        if self.m < 1:
            raise ValueError("need at least one phase")

    @property
    def closed_form(self) -> bool:
        return not (self.kind == "realistic" and self.m == 4)

    def _matrices(self, eps: np.ndarray, n: int) -> np.ndarray:
        if self.kind == "helstrom":
            idx = (np.arange(self.m)[:, None] - np.arange(self.m)) % self.m
            return hd._helstrom_column(self.m, eps)[..., idx]
        return hd._realistic_matrices(self.m, eps, n)

    def matrix(self, energy) -> np.ndarray:
        eps = np.asarray(energy, dtype=float)
        if np.any(eps < 0):
            raise ValueError("energy must be non-negative")
        if self.closed_form:
            return self._matrices(eps, hd._NODES)
        flat = eps.reshape(-1)
        out = oracle_checked(lambda n: self._matrices(flat, n), flat,
                             f"M={self.m}, kernel={self.kind}")
        return out.reshape(eps.shape + (self.m, self.m))


def oracle_vp_matrices(kind: str, m: int, pulse_energies, j_steps) -> np.ndarray:
    """The old `_vp_matrices`: vacuum-or-pulse matrices, blocked and checked."""
    kern = DetectionKernel(kind, m)
    energies = np.asarray(pulse_energies, dtype=float)
    if np.any(energies < 0):
        raise ValueError("energy must be non-negative")
    infinite = j_steps is None or j_steps == math.inf
    if not infinite:
        j_steps = int(j_steps)
        if j_steps < 1:
            raise ValueError("need at least one splitting step")
        j = np.arange(1, j_steps + 1)

    def level(block, n):
        if infinite:
            _, eps, w = hd._inf_rule(block, n)
        else:
            step = block[:, None] / j_steps
            eps = step * (j_steps - j)
            w = np.exp(-step * (j - 1)) * -np.expm1(-step)
        return np.einsum("kq,kqlm->klm", w, kern._matrices(eps, n))

    where = f"M={m}, kernel={kern.kind}, J={'inf' if infinite else j_steps}"
    nodes = 4 * hd._NODES if infinite else j_steps
    per_node = m * m if kern.closed_form else 4 * hd._NODES
    chunk = max(1, hd._BLOCK // (nodes * per_node))
    flat = energies.reshape(-1)
    blocks = []
    for start in range(0, flat.size, chunk):
        block = flat[start:start + chunk]
        if infinite or not kern.closed_form:
            blocks.append(oracle_checked(lambda n: level(block, n), block, where))
        else:
            blocks.append(level(block, hd._NODES))
    return np.concatenate(blocks).reshape(energies.shape + (m, m))


def oracle_detection(kind, m, energies, j_steps=None, bare=False):
    """`hd._detection`'s signature over the old path."""
    if bare:
        return DetectionKernel(kind, m).matrix(energies)
    return oracle_vp_matrices(kind, m, energies, j_steps)


# ---------------------------------------------------------------------------
# Hadamard matrix and code construction
# ---------------------------------------------------------------------------


def test_hadamard_matrix_small_cases():
    assert np.array_equal(ref.hadamard_matrix(1), [[1]])
    assert np.array_equal(ref.hadamard_matrix(2), [[1, 1], [1, -1]])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_hadamard_matrix_identities(n):
    h = ref.hadamard_matrix(n)
    assert h.dtype.kind == "i"
    assert np.all(np.abs(h) == 1)
    assert np.array_equal(h, h.T)
    assert np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("bad", [0, 3, 6, -2, 2.0])
def test_hadamard_matrix_rejects_non_powers_of_two(bad):
    with pytest.raises(ValueError):
        ref.hadamard_matrix(bad)


def test_code_columns_follow_hadamard_pattern():
    alpha = 0.3 + 0.1j
    codewords = ref.hadamard_codewords(4, 3, alpha)
    assert codewords.shape == (4, 12)
    h = ref.hadamard_matrix(4)
    for m_idx in range(3):
        a_m = alpha * np.exp(2j * np.pi * m_idx / 3)
        for k in range(4):
            np.testing.assert_allclose(codewords[:, m_idx * 4 + k], a_m * h[:, k], atol=1e-15)
    # mean energy per mode |alpha|^2
    assert np.mean(np.abs(codewords) ** 2) == pytest.approx(abs(alpha) ** 2, abs=1e-15)


def test_ppm_transform_concentrates_energy():
    # N=2, k=1, alpha=0.5 -> slot amplitudes (0, sqrt(2)*0.5)
    h = ref.hadamard_matrix(2) / math.sqrt(2)
    out = h @ ref.hadamard_codewords(2, 1, 0.5)[:, 1]
    np.testing.assert_allclose(out, [0.0, math.sqrt(2) * 0.5], atol=1e-15)
    assert ref.ppm_transform_check(2, 1, 0.5) < 1e-12


def test_ppm_transform_zero_amplitude_and_phase_shifts():
    assert ref.ppm_transform_check(8, 2, 0.0) == 0.0
    # phase-shifted copies land on the same slot with rotated amplitude
    assert ref.ppm_transform_check(4, 4, 0.7) < 1e-12


@pytest.mark.parametrize("n,m", [(3, 2), (0, 2), (2, 0), (2, 2.0)])
def test_code_validation(n, m):
    with pytest.raises(ValueError):
        ref.hadamard_codewords(n, m, 0.1)
    with pytest.raises(ValueError):
        ref.ppm_transform_check(n, m, 0.1)


# ---------------------------------------------------------------------------
# PSK ensemble eigenvalues
# ---------------------------------------------------------------------------


def test_psk_eigenvalues_degenerate_and_orthogonal_limits():
    lam = hd.psk_eigenvalues(4, 0.0)
    np.testing.assert_allclose(lam, [4.0, 0.0, 0.0, 0.0], atol=1e-14)
    lam = hd.psk_eigenvalues(4, 10.0)
    np.testing.assert_allclose(lam, np.ones(4), atol=1e-3)


def test_psk_eigenvalues_binary_closed_form():
    lam = hd.psk_eigenvalues(2, 0.7)
    assert lam[0] == pytest.approx(1.0 + math.exp(-1.4), abs=1e-14)
    assert lam[1] == pytest.approx(1.0 - math.exp(-1.4), abs=1e-14)
    # frozen spec-level values
    np.testing.assert_allclose(lam, [1.2466, 0.7534], atol=5e-5)


@pytest.mark.parametrize("m,e", [(2, 0.3), (3, 0.8), (4, 1.7), (5, 0.05)])
def test_psk_eigenvalues_match_coherent_gram_spectrum(m, e):
    amps = math.sqrt(e) * np.exp(2j * np.pi * np.arange(m) / m)
    gram = np.array([[coherent_overlap(a, b) for b in amps] for a in amps])
    oracle = np.sort(np.linalg.eigvalsh(gram))
    lam = np.sort(hd.psk_eigenvalues(m, e))
    np.testing.assert_allclose(lam, oracle, atol=1e-12)
    assert np.sum(lam) == pytest.approx(m, abs=1e-10)
    assert np.all(lam >= 0.0)


# ---------------------------------------------------------------------------
# capacity and optimal rate
# ---------------------------------------------------------------------------


def test_classical_capacity_values():
    assert hd.classical_capacity(1.0) == pytest.approx(2.0, abs=1e-14)
    assert hd.classical_capacity(0.0) == 0.0
    # formula value at E=0.05 (frozen; see decisions ledger)
    assert hd.classical_capacity(0.05) == pytest.approx(0.29000519903033606, abs=1e-14)
    assert hd.classical_capacity(0.5) == pytest.approx(1.377443751081734, abs=1e-12)
    with pytest.raises(ValueError):
        hd.classical_capacity(-0.1)


def test_classical_capacity_low_energy_divergence():
    # C(E)/E grows like -log2(E) as E -> 0
    for e in (1e-3, 1e-6, 1e-9):
        ratio = hd.classical_capacity(e) / e
        assert ratio == pytest.approx(-math.log2(e) + math.log2(math.e), rel=1e-3)


@pytest.mark.parametrize(
    "n,m,e", [(2, 3, 0.5), (2, 4, 1e-4), (4, 3, 0.2), (2, 4, 0.05), (8, 2, 0.01), (4, 1, 0.3)]
)
def test_optimal_rate_against_gram_spectrum_oracle(n, m, e):
    assert hd.optimal_rate(n, m, e) == pytest.approx(gram_rate_oracle(n, m, e), abs=1e-8)


def test_optimal_rate_eigenvalue_normalization():
    n, m, e = 4, 3, 0.2
    e_tot = n * e
    lam = hd.psk_eigenvalues(m, e_tot)
    common = m * math.exp(-e_tot)
    total = (
        (lam[0] + (n - 1) * common) / (m * n)
        + (n - 1) * (lam[0] - common) / (m * n)
        + n * np.sum(lam[1:]) / (m * n)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_optimal_rate_validation_and_zero_energy():
    with pytest.raises(ValueError):
        hd.optimal_rate(3, 2, 0.1)
    assert hd.optimal_rate(4, 2, 0.0) == 0.0


def test_optimal_rate_bounded_by_capacity_and_saturates_it():
    # R_opt <= C(E) on a log grid; at low energy (M>1) it approaches C(E)
    for e in np.logspace(-4, 0, 40):
        for (n, m) in [(2, 2), (2, 4), (8, 3)]:
            assert hd.optimal_rate(n, m, e) <= hd.classical_capacity(e) + 1e-9
    r = hd.optimal_rate(2, 4, 1e-4)
    c = hd.classical_capacity(1e-4)
    assert abs(r - c) / c < 1e-4


# ---------------------------------------------------------------------------
# Helstrom kernel
# ---------------------------------------------------------------------------


def test_psk_helstrom_zero_energy_uniform():
    for m in (2, 3, 4):
        for l in range(m):
            assert hd.kernel_matrix("helstrom", m, 0.0)[l, 0] == pytest.approx(1.0 / m, abs=1e-12)


def test_psk_helstrom_rows_stochastic_and_shift_invariant():
    for m in (2, 3, 4, 5):
        mat = hd.kernel_matrix("helstrom", m, 0.8)
        for mm in range(m):
            row = mat[:, mm]
            assert sum(row) == pytest.approx(1.0, abs=1e-10)
            base = mat[:, 0]
            for l in range(m):
                assert row[l] == pytest.approx(base[(l - mm) % m], abs=1e-12)


def test_psk_helstrom_binary_reduces_to_helstrom_bound():
    from qrx import receivers as rc

    # success probability of +-sqrt(E) discrimination, equal priors
    for e in (0.25, 1.0, 3.0):
        expected = 1.0 - rc.helstrom_bpsk(math.sqrt(e))
        assert hd.kernel_matrix("helstrom", 2, e)[0, 0] == pytest.approx(expected, abs=1e-10)


def test_psk_helstrom_matches_square_root_measurement():
    """Fock-space SRM oracle: the square-root measurement on M symmetric
    coherent states attains exactly the P_hel diagonal."""
    import fockspace as fock

    m, e = 4, 0.5
    cutoff = 30
    states = [
        fock.coherent_state(math.sqrt(e) * np.exp(2j * np.pi * k / m), cutoff=cutoff)
        for k in range(m)
    ]
    ops = [np.outer(s, s.conj()) for s in states]
    srm = ref.srm(ops)
    for k in range(m):
        p_k = float(np.real(states[k].conj() @ srm.elements[k] @ states[k]))
        assert p_k == pytest.approx(hd.kernel_matrix("helstrom", m, e)[k, k], abs=1e-8)


# ---------------------------------------------------------------------------
# vacuum-or-pulse probabilities
# ---------------------------------------------------------------------------


def test_vp_prob_zero_energy_never_clicks():
    for m in (2, 3):
        for l in range(m):
            assert hd._detection("helstrom", m, 0.0)[l, 0] == 0.0


@pytest.mark.parametrize("m,e", [(2, 0.4), (3, 0.9), (4, 1.5)])
def test_vp_completeness_helstrom(m, e):
    total = sum(hd._detection("helstrom", m, e)[:, 1 % m]) + math.exp(-e)  # + no click
    assert total == pytest.approx(1.0, abs=1e-9)


def test_vp_finite_j_monotone_toward_limit():
    m, e = 3, 0.6
    limit = hd._detection("helstrom", m, e)[0, 0]
    previous = -1.0
    for j in (5, 10, 30, 100, 300):
        val = hd._detection("helstrom", m, e, j)[0, 0]
        assert val <= limit + 1e-12
        assert val > previous
        previous = val
    assert hd._detection("helstrom", m, e, 300)[0, 0] == pytest.approx(limit, rel=5e-3)


def test_vp_finite_j_riemann_oracle():
    """The finite-J sum is evaluated directly from its printed definition with
    an independent numpy vectorized evaluation."""
    m, e, j_steps = 4, 1.2, 37
    step = e / j_steps
    j = np.arange(1, j_steps + 1)
    weights = np.exp(-step * (j - 1)) * (1.0 - math.exp(-step))
    probs = np.array([hd.kernel_matrix("helstrom", m, step * (j_steps - jj))[2, 1] for jj in j])
    vp = hd._detection("helstrom", m, e, j_steps)
    assert vp[2, 1] == pytest.approx(float(np.sum(weights * probs)), abs=1e-12)
    # finite-J click probabilities exhaust the non-vacuum mass exactly
    assert sum(vp[:, 1]) + math.exp(-e) == pytest.approx(1.0, abs=1e-12)


KERNELS = [("helstrom", 2), ("helstrom", 3), ("helstrom", 4), ("helstrom", 8),
           ("realistic", 3), ("realistic", 4)]


@pytest.mark.parametrize("kind,m", KERNELS)
def test_vp_matrices_against_adaptive_quadrature(kind, m):
    """J=inf over the pulse energies N*E, E on a log grid over [1e-4, 1] and
    N = 2..1024; the adaptive path itself is only good to ~1e-10."""
    lengths = 2 ** np.arange(1, 11)
    pulses = np.outer(np.logspace(-4, 0, 5), lengths)
    new = hd._detection(kind, m, pulses, None)
    assert new.shape == pulses.shape + (m, m)
    for idx in np.ndindex(pulses.shape):
        oracle = quad_vp_matrix(kind, m, pulses[idx])
        np.testing.assert_allclose(new[idx], oracle, rtol=0, atol=2e-10)


@pytest.mark.parametrize("kind,m,j_steps", [("helstrom", 3, 10), ("helstrom", 8, 30),
                                            ("realistic", 3, 30), ("realistic", 4, 10)])
def test_vp_matrices_finite_j_against_scalar_loop(kind, m, j_steps):
    pulses = np.array([0.0, 2e-3, 0.3, 4.0, 60.0])
    new = hd._detection(kind, m, pulses, j_steps)
    for k, e in enumerate(pulses):
        oracle = loop_vp_matrix(kind, m, e, j_steps)
        np.testing.assert_allclose(new[k], oracle, rtol=0, atol=1e-13)


def test_realistic_m3_closed_form_against_quadrature():
    # at tol 1e-10 quad itself is off by 3e-12 near e = 5.7
    for e in np.logspace(-6, math.log10(1024.0), 25):
        for l in (1, 2):
            oracle = quad_real3(l, 1, e, tol=1e-12)
            assert hd.kernel_matrix("realistic", 3, e)[l, 1] == pytest.approx(oracle, abs=1e-12)


def test_had_rate_broadcasts_and_keeps_scalars():
    lengths = np.array([2, 8, 64])
    energies = np.array([1e-3, 0.05, 0.4])
    grid = hd.had_rate(lengths, 4, energies[:, None], kernel="realistic")
    assert grid.shape == (3, 3)
    for i, e in enumerate(energies):
        for k, n in enumerate(lengths):
            scalar = hd.had_rate(int(n), 4, float(e), kernel="realistic")
            assert isinstance(scalar, float)
            assert grid[i, k] == pytest.approx(scalar, abs=1e-15)
    env = hd.envelope(lengths, 3, energies)
    scalars = [hd.envelope(lengths, 3, e) for e in energies]
    np.testing.assert_allclose(env, scalars, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind,m,j_steps", [("helstrom", 3, None), ("realistic", 4, None),
                                            ("realistic", 4, 10), ("realistic", 4, "bare")])
def test_coarse_rule_raises_naming_the_point(monkeypatch, tmp_path, kind, m, j_steps):
    # 12 nodes per panel leave error estimates of ~1e-5 at this point
    monkeypatch.setattr(hd, "_NODES", 12)
    with pytest.raises(ConvergenceError) as excinfo:
        if j_steps == "bare":  # the separable scheme reads the kernel at 48.0 itself
            hd.separable_rate(m, 48.0, kind)
        else:
            hd.had_rate(16, m, 3.0, kernel=kind, j_steps=j_steps)
    msg = str(excinfo.value)
    for part in (f"M={m}", f"kernel={kind}", "pulse energy 48.0"):
        assert part in msg
    if j_steps == "bare":
        assert "J=" not in msg
        return
    j_text = "inf" if j_steps is None else str(j_steps)
    assert f"J={j_text}" in msg
    argv = ["hadamard-rates", "--M", str(m), "--N", "16", "--E-grid", "3:3:1",
            "--kernel", kind, "--J", j_text, "--out", str(tmp_path / "r.csv")]
    assert cli.main(argv) == cli.EXIT_CONVERGENCE


def test_vp_validation():
    for j_steps in (0, -3):
        with pytest.raises(ValueError, match="need at least one splitting step"):
            hd._detection("helstrom", 3, 0.5, j_steps)
        with pytest.raises(ValueError, match="need at least one splitting step"):
            hd.had_rate(4, 3, 0.5, j_steps=j_steps)
        with pytest.raises(ValueError, match="need at least one splitting step"):
            hd.envelope([2, 4], 3, 0.5, j_steps=j_steps)
    with pytest.raises(ValueError):
        hd._detection("helstrom", 3, -0.5)
    with pytest.raises(ValueError, match="realistic kernel requires M"):
        hd._detection("realistic", 5, 0.5)


@pytest.mark.parametrize("kind,m", [("helstrom", 1), ("helstrom", 2), ("helstrom", 3),
                                    ("helstrom", 8), ("realistic", 3), ("realistic", 4)])
@pytest.mark.parametrize("rule", ["bare", 1, 10, None])
def test_detection_matches_the_old_path(kind, m, rule):
    # one evaluator for the bare kernel and every vacuum-or-pulse rule, bit
    # for bit the old class-plus-routine path; a 2-D grid of energies spans
    # several blocks of the M = 4 cascade
    energies = np.concatenate([[0.0], np.logspace(-6, 3, 28), [60.0]])
    energies = np.stack([energies, energies[::-1] * 0.5])
    if rule == "bare":
        new = hd.kernel_matrix(kind, m, energies)
        old = DetectionKernel(kind, m).matrix(energies)
    else:
        new = hd._detection(kind, m, energies, rule)
        old = oracle_vp_matrices(kind, m, energies, rule)
    assert new.shape == energies.shape + (m, m)
    assert np.array_equal(new, old)


def test_cli_bytes_match_the_old_path(monkeypatch, tmp_path):
    def run(tag):
        texts = []
        for kind, m in [("helstrom", 3), ("helstrom", 8), ("realistic", 3), ("realistic", 4)]:
            for j in ("inf", "10"):
                out = tmp_path / f"{tag}-{kind}-{m}-{j}.csv"
                argv = ["hadamard-rates", "--M", str(m), "--N", "1,2,4,...,1024",
                        "--E-grid", "log:1e-4:2:9", "--kernel", kind, "--J", j, "--out", str(out)]
                assert cli.main(argv) == cli.EXIT_OK
                texts.append(out.read_bytes())
        argv = ["figures", "--points", "6", "--outdir", str(tmp_path / tag)]
        assert cli.main(argv) == cli.EXIT_OK
        figures = sorted((tmp_path / tag).iterdir())
        assert len(figures) == 4
        return texts + [path.read_bytes() for path in figures]

    new = run("new")
    monkeypatch.setattr(hd, "_detection", oracle_detection)
    assert run("old") == new


# ---------------------------------------------------------------------------
# realistic cascade
# ---------------------------------------------------------------------------


def test_realistic_m3_printed_entries():
    p = hd.kernel_matrix("realistic", 3, 0.4)
    assert p[0, 0] == 1.0
    assert p[1, 0] == 0.0
    assert p[0, 1] == pytest.approx(math.exp(-1.2), abs=1e-14)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("e", [0.0, 0.15, 0.7, 2.5])
def test_realistic_columns_sum_to_one(m, e):
    mat = hd.kernel_matrix("realistic", m, e)
    np.testing.assert_allclose(mat.sum(axis=0), np.ones(m), atol=1e-8)
    assert np.all(mat >= -1e-12)


def test_realistic_m3_symmetry_and_dolinar_stage():
    e = 0.5
    p = hd.kernel_matrix("realistic", 3, e)
    assert p[0, 2] == pytest.approx(p[0, 1], abs=1e-12)
    assert p[2, 2] == pytest.approx(p[1, 1], abs=1e-12)
    assert p[1, 2] == pytest.approx(p[2, 1], abs=1e-12)
    # the second stage is a binary Helstrom with argument (3E + ln y)/2
    expected = integrate.quad(
        lambda y: hd.kernel_matrix("helstrom", 2, 0.5 * (3 * e + math.log(y)))[0, 0],
        math.exp(-3 * e),
        1.0,
        epsabs=1e-12,
    )[0]
    assert p[1, 1] == pytest.approx(expected, abs=1e-9)


def test_realistic_m4_nested_integral_against_dblquad():
    """The module reduces the printed (t, t') double integral for P(1|1) to a
    single integral; check against direct 2D adaptive quadrature."""
    e = 0.6
    e2 = 2.0 * e

    oracle = integrate.dblquad(
        lambda tp, t: hd.kernel_matrix("helstrom", 2, e2 + math.log(t * tp))[0, 0],
        math.exp(-e2),
        1.0,
        lambda t: math.exp(-e2) / t,
        lambda t: 1.0,
        epsabs=1e-11,
    )[0]
    assert hd.kernel_matrix("realistic", 4, e)[1, 1] == pytest.approx(oracle, abs=1e-8)


def test_realistic_m4_printed_entries_and_symmetry():
    e = 0.35
    p = hd.kernel_matrix("realistic", 4, e)
    assert p[0, 1] == pytest.approx(math.exp(-2 * e), abs=1e-14)
    assert p[0, 2] == pytest.approx(math.exp(-4 * e), abs=1e-14)
    assert p[1, 2] == 0.0
    assert p[2, 2] == pytest.approx(1.0 - math.exp(-4 * e), abs=1e-14)
    assert p[2, 1] == pytest.approx(2 * e * math.exp(-2 * e), abs=1e-12)
    assert p[3, 3] == pytest.approx(p[1, 1], abs=1e-12)
    assert p[2, 3] == pytest.approx(p[2, 1], abs=1e-12)


def test_realistic_average_success_dominated_by_helstrom():
    # the Helstrom kernel maximizes the average success probability over all
    # measurements; individual entries of the cascade may exceed the Helstrom
    # diagonal (perfect nulling gives P(0|0) = 1)
    for m in (3, 4):
        for e in (0.1, 0.5, 1.5):
            avg_real = np.trace(hd.kernel_matrix("realistic", m, e)) / m
            assert avg_real <= hd.kernel_matrix("helstrom", m, e)[0, 0] + 1e-10


def test_kernel_validation(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown kernel kind 'bogus'"):
        hd.kernel_matrix("bogus", 3, 0.1)
    with pytest.raises(ValueError, match="realistic kernel requires M"):
        hd.kernel_matrix("realistic", 2, 0.1)
    with pytest.raises(ValueError, match="need at least one phase"):
        hd.kernel_matrix("helstrom", 0, 0.1)
    with pytest.raises(ValueError, match="realistic kernel requires M"):
        hd.kernel_matrix("realistic", 5, 0.1)
    # the kernel names live in hadamard alone; the CLI passes --kernel through
    argv = ["hadamard-rates", "--M", "3", "--N", "2", "--kernel", "bogus",
            "--out", str(tmp_path / "r.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "unknown kernel kind 'bogus'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_had_rate_zero_energy():
    assert hd.had_rate(4, 3, 0.0) == 0.0
    assert hd.separable_rate(3, 0.0) == 0.0


@pytest.mark.parametrize("n,m,e", [(1, 2, 0.3), (2, 3, 0.05), (4, 2, 0.1)])
def test_had_rate_matches_generic_mi_oracle(n, m, e):
    assert hd.had_rate(n, m, e) == pytest.approx(channel_mi_oracle(n, m, e), abs=1e-10)


def test_had_rate_realistic_matches_generic_mi_oracle():
    assert hd.had_rate(2, 3, 0.05, kernel="realistic") == pytest.approx(
        channel_mi_oracle(2, 3, 0.05, kernel="realistic"), abs=1e-10
    )


def test_separable_rate_matches_mi_oracle():
    m, e = 3, 0.2
    cond = hd.kernel_matrix("helstrom", m, e)
    joint = (cond / m).T  # joint[x, y] with uniform inputs
    assert hd.separable_rate(m, e) == pytest.approx(info.mutual_information(joint), abs=1e-12)


def test_realistic_m3_closed_form_rate():
    """Corrected closed form (1/N restored on the conditional-entropy groups;
    see decisions ledger)."""
    for n, e in [(2, 0.05), (4, 0.02), (2, 0.3)]:
        e_tot = n * e
        pvp11 = hd._detection("realistic", 3, e_tot)[1, 1]
        ex, ex3 = math.exp(-e_tot), math.exp(-3 * e_tot)
        closed = (
            h2((1 - ex3) / (3 * n))
            + 2 * h2((2 - 3 * ex + ex3) / (6 * n))
            - (
                h2(1 - ex) / 3
                + (2 / 3)
                * (h2((ex - ex3) / 2) + h2(pvp11) + h2((2 - 3 * ex + ex3) / 2 - pvp11))
            )
            / n
        )
        assert hd.had_rate(n, 3, e, kernel="realistic") == pytest.approx(closed, abs=1e-12)


def test_realistic_m4_closed_form_rate():
    """Corrected closed form (-12(1+E)e^{-2E} term and h(1-e^{-E}); see
    decisions ledger)."""
    for n, e in [(2, 0.05), (4, 0.02)]:
        et = n * e
        ex, ex2, ex4 = math.exp(-et), math.exp(-2 * et), math.exp(-4 * et)
        pvp11 = hd._detection("realistic", 4, et)[1, 1]
        closed = (
            h2((3 + 4 * ex - 6 * ex2 - ex4) / (12 * n))
            + h2((3 + 8 * ex - 12 * (1 + et) * ex2 + ex4) / (12 * n))
            + 2 * h2((1 - 4 * ex + (3 + 2 * et) * ex2) / (4 * n))
            - (1 / (4 * n)) * (h2(1 - ex) + h2((ex - ex4) / 3) + h2((3 - 4 * ex + ex4) / 3))
            - (1 / (2 * n))
            * (
                h2(ex - ex2)
                + h2(2 * (ex - (1 + et) * ex2))
                + h2(pvp11)
                + h2(1 - 4 * ex + (3 + 2 * et) * ex2 - pvp11)
            )
        )
        assert hd.had_rate(n, 4, e, kernel="realistic") == pytest.approx(closed, abs=1e-12)


def test_rate_orderings_and_capacity_bound():
    for (n, m, e) in [(2, 3, 0.05), (4, 4, 0.02), (8, 3, 0.01)]:
        r_real = hd.had_rate(n, m, e, kernel="realistic")
        r_hel = hd.had_rate(n, m, e)
        r_opt = hd.optimal_rate(n, m, e)
        c = hd.classical_capacity(e)
        assert r_real <= r_hel + 1e-10
        assert r_hel <= r_opt + 1e-9
        assert r_opt <= c + 1e-9


def test_finite_j30_rate_close_to_limit():
    n, m, e = 4, 3, 0.02
    r30 = hd.had_rate(n, m, e, j_steps=30)
    rinf = hd.had_rate(n, m, e)
    assert r30 <= rinf + 1e-12
    assert abs(r30 - rinf) / rinf < 1e-2


def test_envelope_is_max_over_lengths():
    ns = [2, 4, 8]
    e = 0.05
    vals = [hd.had_rate(n, 3, e) for n in ns]
    assert hd.envelope(ns, 3, e) == pytest.approx(max(vals), abs=1e-14)
    with pytest.raises(ValueError):
        hd.envelope([], 3, e)


def test_had_rate_validation():
    with pytest.raises(ValueError):
        hd.had_rate(3, 2, 0.1)
