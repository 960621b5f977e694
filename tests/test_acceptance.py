"""Acceptance gate: one test per criterion, each emitting a PASS/FAIL line.

Criterion 8 is expected to fail its literal 2% tolerance: optimal_rate agrees
with an independent Gram-spectrum oracle to machine precision and with the
exact capacity C(E) to 5e-6 relative at the quoted point, but sits 3.1% above
the truncated low-energy expansion E - E*log2(E) the criterion compares
against.  The gap is the E*(log2(e) - 1) term that the truncated expansion
drops, which no correct implementation can remove.  See test 8's detail line.
"""

import math
import time

import numpy as np
import pytest

import fockspace as fock
import reference as ref
from qrx import gaussian, hadamard, povm, qubit_disc, receivers


def report(num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def rel_gain(p_new: float, p_ref: float) -> float:
    """Relative increase in percent."""
    return (p_new / p_ref - 1.0) * 100.0


# --------------------------------------------------------------- receivers


def test_01_nhpa_peak_gain():
    t0 = time.perf_counter()
    p_ok, _ = receivers.optimized_kennedy(0.29)
    p_nhpa, _, g_star, n_star = receivers.nhpa_optimize(0.29, n_values=(2,))
    elapsed = time.perf_counter() - t0
    gain = rel_gain(p_nhpa, p_ok)
    ok = abs(gain - 1.88) <= 0.05 and n_star == 2 and elapsed < 30.0
    report(1, ok, f"NHPA peak gain {gain:.3f}% (target 1.88+-0.05) at g*={g_star:.1f}, {elapsed:.1f}s")


def test_02_nhpa_g3_gain():
    p_ok, _ = receivers.optimized_kennedy(0.32)
    p_g3, _ = receivers.nhpa_optimize_beta(0.32, 3.0, 2)
    gain = rel_gain(p_g3, p_ok)
    report(2, abs(gain - 1.26) <= 0.05, f"NHPA g=3 gain {gain:.3f}% (target 1.26+-0.05)")


def test_03_dephaser_infinite_gain_limit():
    p_ok, _ = receivers.optimized_kennedy(0.29)
    p_peak, _, _, _ = receivers.nhpa_optimize(0.29, n_values=(2,))
    p_deph, _ = receivers.dephaser_optimize(0.29, 2)
    gain = rel_gain(p_deph, p_ok)
    drop = rel_gain(p_peak, p_ok) - gain
    ok = 1.80 <= gain <= 1.90 and 0.0 < drop < 0.05
    report(3, ok, f"dephaser gain {gain:.3f}% (target [1.80, 1.90]), {drop:.3f}pp below finite-g peak")


def test_04_cavity_realization():
    p_ok, _ = receivers.optimized_kennedy(0.29)
    p_cav, _ = receivers.cavity_optimize(0.29)
    gain = rel_gain(p_cav, p_ok)
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        p_nhpa, _, _, _ = receivers.nhpa_optimize(alpha, n_values=(2,))
        p_c, _ = receivers.cavity_optimize(alpha)
        worst = max(worst, rel_gain(p_nhpa, p_c))
    ok = abs(gain - 1.67) <= 0.1 and worst <= 0.5
    report(4, ok, f"cavity gain {gain:.3f}% (target 1.67+-0.1), worst loss vs NHPA {worst:.3f}% (<=0.5)")


# -------------------------------------------------------------- qubit trio


def planar(theta: float) -> list:
    return [math.sin(theta), 0.0, math.cos(theta)]


def test_05_symmetric_trine():
    vecs = [planar(2 * math.pi * k / 3) for k in range(3)]
    p = qubit_disc._psucc([ref.bloch_state(v) * (1 / 3) for v in vecs])[0]
    p_poly = ref.polytope_ratio_psucc(vecs)
    ok = abs(p - 2 / 3) <= 1e-6 and abs(p - p_poly) <= 1e-6
    report(5, ok, f"trine p_succ {p:.9f} (target 2/3), polytope cross-check diff {abs(p - p_poly):.1e}")


def test_06_plateau_behavior():
    phi2 = 2 * math.pi / 3

    def p3(phi3):
        angles = [0.0, phi2, phi3]
        return qubit_disc._psucc([ref.bloch_state(planar(t)) * (1 / 3) for t in angles])[0]

    # origin is inside the state triangle iff phi3 in (pi, 5*pi/3)
    inside = [1.05 * math.pi, 1.25 * math.pi, 4 * math.pi / 3, 1.6 * math.pi]
    outside = [math.pi / 15, 0.5 * math.pi, 0.9 * math.pi]
    dev_in = max(abs(p3(t) - 2 / 3) for t in inside)
    drop_out = min(2 / 3 - p3(t) for t in outside)
    ok = dev_in <= 1e-4 and drop_out > 1e-3
    report(6, ok, f"plateau deviation {dev_in:.1e} (<=1e-4) inside, drop {drop_out:.1e} (>1e-3) outside")


# -------------------------------------------------------------------- povm


def random_povm(rng, dim: int, n_out: int) -> povm.Povm:
    mats = []
    for _ in range(n_out):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        mats.append(np.outer(v, v.conj()))
    si = povm.pinv_sqrt_psd(sum(mats))
    return povm.Povm([si @ x @ si for x in mats])


def test_07_tree_roundtrip_bulk():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        n_out = int(rng.integers(2, 9))
        p = random_povm(rng, dim, n_out)
        rebuilt = povm.reconstruct(povm.binary_tree_decompose(p))
        worst = max(
            worst,
            max(float(np.max(np.abs(a - b))) for a, b in zip(p.elements, rebuilt.elements)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(7, ok, f"50 round trips, max error {worst:.1e} (<1e-9), {elapsed:.1f}s (<10)")


# ----------------------------------------------------------- hadamard code


def test_08_optimal_rate_vs_capacity_expansion():
    e = 1e-4
    r_opt = hadamard.optimal_rate(2, 4, e)
    expansion = e - e * math.log2(e)
    rel = abs(r_opt - expansion) / expansion
    cap = hadamard.classical_capacity(e)
    rel_cap = abs(r_opt - cap) / cap
    grid = np.logspace(-4, 0, 200)
    bounded = all(hadamard.optimal_rate(2, 4, x) <= hadamard.classical_capacity(x) + 1e-12 for x in grid)
    ok = rel <= 0.02 and bounded
    report(
        8,
        ok,
        f"R_opt vs E-E*log2(E): {rel * 100:.2f}% (stated tol 2%; agrees with exact "
        f"C(E) to {rel_cap:.1e}); R_opt<=C on 200-pt grid: {bounded}",
    )


def test_09_gram_spectrum_oracle():
    worst = 0.0
    for n in (2, 4):
        for m in (1, 2, 3, 4):
            for e in (0.05, 0.5):
                e_tot = n * e
                amps = math.sqrt(e_tot) * np.exp(2j * np.pi * np.arange(m) / m)
                dim = n * m
                gram = np.empty((dim, dim), dtype=complex)
                for k in range(n):
                    for mi in range(m):
                        for h in range(n):
                            for mj in range(m):
                                if k == h:
                                    ov = fock.coherent_overlap(amps[mi], amps[mj])
                                else:
                                    ov = fock.coherent_overlap(amps[mi], 0.0) * fock.coherent_overlap(0.0, amps[mj])
                                gram[mi * n + k, mj * n + h] = ov
                eigs = np.linalg.eigvalsh(gram) / dim
                eigs = eigs[eigs > 1e-18]
                entropy = float(-np.sum(eigs * np.log2(eigs)))
                worst = max(worst, abs(hadamard.optimal_rate(n, m, e) * n - entropy))
    report(9, worst <= 1e-8, f"Gram-spectrum oracle, worst |R_opt*N - H(Gram)| = {worst:.1e} (<=1e-8)")


def test_10_psk_advantage_envelope():
    n_values = [2 ** k for k in range(1, 11)]
    best = -np.inf
    for e in np.geomspace(4e-3, 0.1, 7):
        r2 = hadamard.envelope(n_values, 2, e)
        r3 = hadamard.envelope(n_values, 3, e)
        best = max(best, (r3 - r2) / r2 * 100)
    e_low = 1e-3
    low_diff = hadamard.envelope(n_values, 3, e_low) - hadamard.envelope(n_values, 2, e_low)
    ok = 3.0 <= best <= 8.0 and low_diff < 0.0
    report(10, ok, f"max M=3 vs M=2 envelope gain {best:.2f}% (target [3, 8]), M=2 dominates at E=1e-3: {low_diff < 0}")


def test_11_finite_steps_convergence():
    worst = 0.0
    for n in (2, 8, 32):
        for e in (0.01, 0.02, 0.05):
            r_inf = hadamard.had_rate(n, 3, e)
            r_30 = hadamard.had_rate(n, 3, e, j_steps=30)
            worst = max(worst, abs(r_30 - r_inf) / r_inf)
    report(11, worst <= 0.02, f"J=30 vs J=inf worst relative deviation {worst * 100:.2f}% (<=2%)")


# --------------------------------------------------------- property suites


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_effect(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    return h / (np.linalg.eigvalsh(h)[-1] + rng.uniform(0.0, 1.0))


def test_12_property_suites():
    rng = np.random.default_rng(20240818)
    checks = []

    # trace-distance lemmas on 200 random (rho, sigma, effect) triples
    lemma1 = lemma2 = True
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        e_hat = random_effect(rng, dim)
        d = ref.trace_distance(rho, sigma)
        lemma1 &= ref.trace_distance(e_hat @ rho @ e_hat, e_hat @ sigma @ e_hat) <= d + 1e-12
        lemma2 &= np.trace(e_hat @ rho).real >= np.trace(e_hat @ sigma).real - 2 * d - 1e-12
    checks.append(("lemma1", lemma1))
    checks.append(("lemma2", lemma2))

    # gentle-operator lemma with controlled failure probability eps
    lemma3 = True
    for eps in (0.3, 0.1, 0.01):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            e_hat = (1 - eps) * np.eye(dim) + eps * random_effect(rng, dim)
            eps_eff = 1.0 - np.trace(e_hat @ rho).real
            root = povm.sqrt_psd(e_hat)
            lemma3 &= ref.trace_distance(root @ rho @ root, rho) <= math.sqrt(max(eps_eff, 0.0)) + 1e-12
    checks.append(("lemma3", lemma3))

    # every receiver at or below the Helstrom bound
    below = True
    for alpha in (0.3, 0.6, 1.0):
        hel = 1.0 - receivers.helstrom_bpsk(alpha)
        probs = [
            1.0 - receivers.homodyne_perr(alpha),
            receivers.kennedy_psucc(alpha, -alpha),
            receivers.optimized_kennedy(alpha)[0],
            receivers.dephaser_optimize(alpha, 2)[0],
            receivers.cavity_optimize(alpha)[0],
            receivers.ts_optimize(alpha, 2)[0],
            receivers.dolinar_multistep(alpha, 5),
        ]
        below &= all(p <= hel + 1e-9 for p in probs)
    checks.append(("receivers<=helstrom", below))

    # positivity/completeness of measurement and channel objects
    physical = True
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        p = random_povm(rng, dim, int(rng.integers(dim, 9)))
        total = sum(p.elements)
        physical &= np.max(np.abs(total - np.eye(p.dim))) < 1e-10
        physical &= all(np.linalg.eigvalsh(e)[0] > -1e-10 for e in p.elements)
    for eta in (0.3, 0.7):
        physical &= gaussian.is_physical(ref.attenuator(eta))
    for g in (1.5, 3.0):
        physical &= gaussian.is_physical(ref.amplifier(g))
    checks.append(("positivity/completeness", physical))

    # closed-form receiver probabilities vs full Fock-matrix simulation
    cut = 40
    fock_ok = True
    for alpha, beta in ((0.4, -0.3), (0.8, -0.6)):
        p_closed = receivers.kennedy_psucc(alpha, beta)
        probe = fock.coherent_state(beta, cutoff=cut)
        p0_minus = abs(np.vdot(probe, fock.coherent_state(-alpha, cutoff=cut))) ** 2
        p0_plus = abs(np.vdot(probe, fock.coherent_state(alpha, cutoff=cut))) ** 2
        fock_ok &= abs(p_closed - 0.5 * (1.0 + p0_minus - p0_plus)) < 1e-7
    checks.append(("closed-form vs fock", fock_ok))

    failed = [name for name, ok in checks if not ok]
    report(12, not failed, f"property suites {'all hold' if not failed else 'failed: ' + ', '.join(failed)}")
