import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm
from scipy.special import gammaln
from test_fock import matrix_squeezed_displaced_state, squeezed_displaced_overlap

from qrx import TruncationError, fock, povm
from qrx import receivers as rc

CUT = 40


def coh(x, cutoff=CUT):
    return fock.coherent_state(x, cutoff=cutoff).amps


def nhpa_kraus(g, n, cutoff=CUT):
    ms = np.eye(cutoff + 1, dtype=complex)
    mf = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    cs, cf = rc._nhpa_coeffs(g, n, n)
    for k in range(n + 1):
        ms[k, k] -= cs[k]
        mf[k, k] = cf[k]
    return ms, mf


def simulate_nhpa_p0(alpha, beta, g, n):
    """<beta| A_{g,n}(|2a><2a|) |beta> built explicitly in Fock space."""
    ms, mf = nhpa_kraus(g, n)
    v = coh(2 * alpha)
    b = coh(beta)
    return abs(b.conj() @ (ms @ v)) ** 2 + abs(b.conj() @ (mf @ v)) ** 2


# ------------------------------------------------------------------ baselines


def test_helstrom_limits_and_matrix_oracle():
    assert rc.helstrom_bpsk(0.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert rc.helstrom_bpsk(6.0) == pytest.approx(0.0, abs=1e-12)
    p_err, _ = povm.helstrom_binary(
        np.outer(coh(0.5), coh(0.5).conj()), np.outer(coh(-0.5), coh(-0.5).conj())
    )
    assert rc.helstrom_bpsk(0.5) == pytest.approx(p_err, abs=1e-9)
    with pytest.raises(ValueError):
        rc.helstrom_bpsk(0.5, 1.2)


def test_homodyne_against_quadrature_oracle():
    # integrate |<q|-a>|^2 over q > 0 (wrong-sign region) numerically
    alpha = 0.6
    cutoff = 50
    amps = fock.coherent_state(-alpha, cutoff=cutoff).amps
    qs = np.linspace(0, 8, 4001)
    vals = np.array(
        [abs(fock.quadrature_eigenvector(q, 0.0, cutoff).amps.conj() @ amps) ** 2 for q in qs]
    )
    assert rc.homodyne_perr(alpha) == pytest.approx(np.trapezoid(vals, qs), abs=1e-6)
    assert rc.homodyne_perr(0.0) == pytest.approx(0.5, abs=1e-12)
    grid = np.linspace(0, 2, 21)
    assert np.all(np.diff([rc.homodyne_perr(a) for a in grid]) < 0)


def test_kennedy_perfect_nulling_value():
    # closed form 0.5*(1 + 1 - e^{-4 a^2}) at a = sqrt(0.4)
    a = np.sqrt(0.4)
    assert rc.kennedy_psucc(a, -a) == pytest.approx(0.5 * (2 - np.exp(-4 * a**2)), abs=1e-15)
    assert rc.kennedy_psucc(a, -a) == pytest.approx(0.8990517410026723, abs=1e-13)
    assert rc.kennedy_psucc(0.0, 0.3) == pytest.approx(0.5, abs=1e-12)


def test_optimized_kennedy_beats_nulling_and_homodyne():
    for a in (0.1, 0.3, 0.6, 1.0, 2.0):
        val, beta = rc.optimized_kennedy(a)
        assert val >= rc.kennedy_psucc(a, -a) - 1e-12
        assert val >= 1 - rc.homodyne_perr(a) - 1e-12
        assert beta < 0


def test_kennedy_fock_matrix_oracle():
    alpha, beta = 0.45, -0.6
    e_minus = np.outer(coh(beta), coh(beta).conj())
    meas = povm.Povm([e_minus, np.eye(CUT + 1) - e_minus])
    p0m = povm.measure(meas, np.outer(coh(-alpha), coh(-alpha).conj()))[0]
    p0p = povm.measure(meas, np.outer(coh(alpha), coh(alpha).conj()))[0]
    assert rc.kennedy_psucc(alpha, beta) == pytest.approx(0.5 * (1 + p0m - p0p), abs=1e-9)


# ----------------------------------------------------------------------- NHPA


def test_nhpa_g1_is_kennedy_reparametrized():
    # undoing the D(-beta) D(alpha) chain: beta_ken = beta - alpha
    for alpha, beta in ((0.3, -0.4), (0.5, -0.1), (0.7, -0.9)):
        assert rc.nhpa_psucc(alpha, beta, 1.0, 2) == pytest.approx(
            rc.kennedy_psucc(alpha, beta - alpha), abs=1e-13
        )


def test_nhpa_closed_form_vs_fock_simulation():
    for alpha, beta, g, n in (
        (0.29, -0.45, 33.0, 2),
        (0.32, -0.5, 3.0, 2),
        (0.5, -0.3, 10.0, 3),
        (0.4, -0.6, np.inf, 2),
    ):
        want = 0.5 * (1 + np.exp(-(beta**2)) - simulate_nhpa_p0(alpha, beta, g, n))
        assert rc.nhpa_psucc(alpha, beta, g, n) == pytest.approx(want, abs=1e-7)


def test_nhpa_validation():
    with pytest.raises(ValueError):
        rc.nhpa_psucc(0.3, -0.4, 0.5, 2)
    with pytest.raises(ValueError):
        rc.nhpa_psucc(0.3, -0.4, 2.0, 0)


def test_nhpa_gain_g3():
    alpha = 0.32
    ok, _ = rc.optimized_kennedy(alpha)
    v, _ = rc.nhpa_optimize_beta(alpha, 3.0, 2)
    assert (v - ok) / ok * 100 == pytest.approx(1.26, abs=0.05)


def test_nhpa_peak_matches_printed_region():
    val, beta, g, n = rc.nhpa_optimize(0.32, n_values=(2,))
    assert -0.47 <= beta <= -0.43
    assert 15 <= g <= 100


def test_nhpa_n1_never_amplifies():
    # at n=1 the gain is a decreasing function of g: optimum is g=1
    alpha = 0.3
    base, _ = rc.nhpa_optimize_beta(alpha, 1.0, 1)
    for g in (1.5, 3.0, 10.0, 100.0):
        v, _ = rc.nhpa_optimize_beta(alpha, g, 1)
        assert v <= base + 1e-12


def test_g_limit_monotone_approach():
    alpha, n = 0.29, 2
    _, beta = rc.nhpa_optimize_beta(alpha, 100.0, n)
    limit = rc.dephaser_psucc(alpha, beta, n, "amp_inf")
    for g in (100.0, 1000.0, 1e6):
        assert abs(rc.nhpa_psucc(alpha, beta, g, n) - limit) < 1e-4


# ------------------------------------------------------------------ dephasers


def test_dephaser_matches_nhpa_infinite_gain():
    for alpha, beta, n in ((0.3, -0.45, 2), (0.6, -0.2, 3)):
        assert rc.dephaser_psucc(alpha, beta, n, "amp_inf") == pytest.approx(
            rc.nhpa_psucc(alpha, beta, 1e6, n), abs=1e-5
        )
        assert rc.dephaser_psucc(alpha, beta, n, "amp_inf") == pytest.approx(
            rc.nhpa_psucc(alpha, beta, np.inf, n), abs=1e-13
        )


def test_dephaser_full_fock_oracle():
    alpha, beta, n = 0.35, -0.5, 2
    d = CUT + 1
    pi_low = np.zeros((d, d)); pi_low[:n, :n] = np.eye(n)
    v = coh(2 * alpha)
    rho = pi_low @ np.outer(v, v.conj()) @ pi_low
    for k in range(n, d):
        rho[k, k] += abs(v[k]) ** 2
    b = coh(beta)
    p0p = float(np.real(b.conj() @ rho @ b))
    want = 0.5 * (1 + np.exp(-(beta**2)) - p0p)
    assert rc.dephaser_psucc(alpha, beta, n, "full") == pytest.approx(want, abs=1e-9)


def test_full_dephaser_tiny_decrement():
    alpha = 0.29
    ok, _ = rc.optimized_kennedy(alpha)
    amp, _ = rc.dephaser_optimize(alpha, 2, "amp_inf")
    full, _ = rc.dephaser_optimize(alpha, 2, "full")
    assert 0 <= amp - full < 5e-4


def test_dephaser_n1_no_gain():
    alpha = 0.3
    ok, _ = rc.optimized_kennedy(alpha)
    v, _ = rc.dephaser_optimize(alpha, 1, "amp_inf")
    assert v <= ok + 1e-10


# --------------------------------------------------------------------- cavity


def jc_dephased_output(alpha, cutoff=30):
    """Direct Jaynes-Cummings simulation: U(3 pi/2) . random-dephase .
    U(pi/2) on |alpha, G>, atom traced, exact discrete phase average."""
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |E><G| in the [G, E] basis
    h = np.kron(a.conj().T, sp.conj().T) + np.kron(a, sp)
    u1 = expm(-1j * h * np.pi / 2)
    u2 = expm(-1j * h * 3 * np.pi / 2)
    psi1 = u1 @ np.kron(fock.coherent_state(alpha, cutoff=cutoff).amps, [1.0, 0.0])
    n_phases = 2 * cutoff + 5
    rho = np.zeros((d, d), dtype=complex)
    for j in range(n_phases):
        th = 2 * np.pi * j / n_phases
        deph = np.kron(np.diag(np.exp(-1j * th * np.arange(d))), np.eye(2))
        psi = u2 @ (deph @ psi1)
        m = psi.reshape(d, 2)
        rho += m @ m.conj().T
    return rho / n_phases


def test_cavity_output_against_jc_simulation():
    for alpha in (0.4, 0.58, 0.9):
        oracle = jc_dephased_output(alpha)
        mine = rc.cavity_output(alpha, cutoff=28).matrix
        assert np.max(np.abs(oracle[:27, :27] - mine[:27, :27])) < 1e-10


def test_cavity_trace_and_vacuum():
    assert np.trace(rc.cavity_output(0.5).matrix).real == pytest.approx(1.0, abs=1e-8)
    out = rc.cavity_output(0.0).matrix
    want = np.zeros_like(out); want[0, 0] = 1.0
    assert np.max(np.abs(out - want)) < 1e-14


def test_cavity_psucc_cutoff_covers_probe():
    # weak signal, strong probe: the cutoff follows the larger of the two
    for alpha, beta in ((0.05, -2.0), (0.1, -3.0), (0.8, -0.3)):
        p = rc.cavity_psucc(alpha, beta)
        assert 0.0 <= p <= 1.0
        shared = rc.cavity_psucc(alpha, beta, rc._cavity_field(alpha, 4.0))
        assert p == pytest.approx(shared, abs=1e-14)


def test_cavity_gain():
    alpha = 0.29
    ok, _ = rc.optimized_kennedy(alpha)
    vc, _ = rc.cavity_optimize(alpha)
    assert (vc - ok) / ok * 100 == pytest.approx(1.67, abs=0.1)


# ------------------------------------------------------------------------- TS


def ts_psucc_from(amps, alpha, n):
    """ts p_succ from given amplitudes <k|beta, r>, k = 0..len - 1."""
    ks = np.arange(len(amps))
    bra2a = np.exp(-2.0 * alpha**2 + ks * np.log(2.0 * alpha) - 0.5 * gammaln(ks + 1.0))
    prod = bra2a * amps
    return 0.5 * (1.0 + abs(amps[0]) ** 2 - abs(prod[:n].sum()) ** 2 - abs(prod[n:].sum()) ** 2)


def ts_series(alpha, beta, r, n):
    """ts p_succ with |beta, r> from the single-amplitude series."""
    k_max = fock.auto_cutoff(4.0 * alpha**2 + beta**2 + np.sinh(r) ** 2 + 1.0)
    amps = [squeezed_displaced_overlap(k, beta, r) for k in range(k_max + 1)]
    return ts_psucc_from(np.array(amps), alpha, n)


def test_ts_series_route_matches_matrix_route():
    # ts_psucc (recurrence) against the series route and the dense expm route
    for alpha, beta, r, n in ((0.3, -0.5, -0.2, 2), (0.6, -0.8, 0.1, 3), (0.45, -0.4, 0.3, 2)):
        k_max = fock.auto_cutoff(4.0 * alpha**2 + beta**2 + np.sinh(r) ** 2 + 1.0)
        matrix = ts_psucc_from(matrix_squeezed_displaced_state(beta, r, k_max), alpha, n)
        series = ts_series(alpha, beta, r, n)
        assert series == pytest.approx(matrix, abs=1e-12)
        assert rc.ts_psucc(alpha, beta, r, n) == pytest.approx(series, abs=1e-12)


def test_ts_recurrence_matches_series_oracle():
    # includes the corner (-1.6, -0.8) of ts_optimize's grid, where the dense
    # expm route at its old cutoff was 6.5e-8 off
    worst = 0.0
    for alpha in (0.3, 1.0):
        for beta in (-1.6, -0.5, 0.0):
            for r in (-0.8, 0.0, 0.2):
                worst = max(worst, abs(rc.ts_psucc(alpha, beta, r, 2) - ts_series(alpha, beta, r, 2)))
    assert worst < 1e-13


def test_ts_truncation_is_checked():
    with pytest.raises(TruncationError, match=r"alpha=0\.8, beta=-1\.0, r=-0\.5.*k_max=5"):
        rc.ts_psucc(0.8, -1.0, -0.5, 2, k_max=5)
    # the default cutoff passes its own check over ts_optimize's whole grid
    for alpha in (0.05, 1.0):
        for beta in np.linspace(-1.6, 0.0, 5):
            for r in np.linspace(-0.8, 0.2, 5):
                rc.ts_psucc(alpha, beta, r, 2)


def test_ts_optimize_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called")

    # fock imports expm from scipy.linalg at call time, so this covers it too
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    p, beta, r = rc.ts_optimize(0.5, 2)
    assert 0.5 < p <= 1 - rc.helstrom_bpsk(0.5)


def test_ts_r0_reduces_to_dephaser():
    for alpha, beta, n in ((0.3, -0.5, 2), (0.5, -0.2, 3)):
        assert rc.ts_psucc(alpha, beta, 0.0, n) == pytest.approx(
            rc.dephaser_psucc(alpha, beta, n, "amp_inf"), abs=1e-10
        )


def test_ts_applied_squeezing_direction():
    # the unitary applied to the signal is U_sq(-r*); optimal r* > 0 means
    # the p quadrature of the signal is squeezed
    for a2 in (0.1, 0.3, 0.8):
        _, _, r = rc.ts_optimize(np.sqrt(a2), 3)
        assert r > 0


def test_ts_cutoff_crossover():
    # n=3 dominates above |alpha|^2 ~ 0.1, n=2 below
    v2, *_ = rc.ts_optimize(np.sqrt(0.05), 2)
    v3, *_ = rc.ts_optimize(np.sqrt(0.05), 3)
    assert v2 > v3
    for a2 in (0.2, 0.5):
        v2, *_ = rc.ts_optimize(np.sqrt(a2), 2)
        v3, *_ = rc.ts_optimize(np.sqrt(a2), 3)
        assert v3 > v2


# -------------------------------------------------------------------- Dolinar


def test_dolinar_single_step_is_base():
    a = np.sqrt(0.2)
    assert rc.dolinar_multistep(a, 1) == pytest.approx(rc.optimized_kennedy(a)[0], abs=1e-9)


def test_dolinar_monotone_and_bounded():
    a = np.sqrt(0.2)
    hel = 1 - rc.helstrom_bpsk(a)
    prev = 0.0
    for n_steps in (1, 2, 3, 4):
        v = rc.dolinar_multistep(a, n_steps)
        assert v >= prev - 1e-12
        assert v <= hel + 1e-9
        prev = v


def test_dolinar_chunks_keep_the_result(monkeypatch):
    # posteriors are solved in chunks of _DOLINAR_CHUNK per optimizer call
    whole = [rc.dolinar_multistep(0.5, 5, rc.ReceiverSpec(b)) for b in ("nhpa", "opt_kennedy")]
    monkeypatch.setattr(rc, "_DOLINAR_CHUNK", 3)
    chunked = [rc.dolinar_multistep(0.5, 5, rc.ReceiverSpec(b)) for b in ("nhpa", "opt_kennedy")]
    assert chunked == pytest.approx(whole, abs=1e-12)


def test_dolinar_validation():
    with pytest.raises(ValueError):
        rc.dolinar_multistep(0.4, 0)
    with pytest.raises(ValueError):
        rc.dolinar_multistep(0.4, 2, rc.ReceiverSpec("cavity"))


# ----------------------------------------------------------------- invariants


def test_all_receivers_below_helstrom():
    for a in (0.2, 0.29, 0.5, 1.0):
        hel = 1 - rc.helstrom_bpsk(a)
        vals = [
            1 - rc.homodyne_perr(a),
            rc.optimized_kennedy(a)[0],
            rc.nhpa_optimize(a, n_values=(2,))[0],
            rc.dephaser_optimize(a, 2)[0],
            rc.cavity_optimize(a)[0],
            rc.ts_optimize(a, 3)[0],
        ]
        for v in vals:
            assert v <= hel + 1e-9


def test_pi_channel_never_helps_kennedy():
    """Loss or phase-insensitive amplification before an optimized Kennedy
    measurement never increases the success probability."""
    rng = np.random.default_rng(3)
    alpha, cutoff = 0.5, 30
    base, _ = rc.optimized_kennedy(alpha)

    def opt_kennedy_on(rho_p, rho_m, cut):
        def psucc(beta):
            b = fock.coherent_state(beta, cutoff=cut).amps
            p0m = float(np.real(b.conj() @ rho_m @ b))
            p0p = float(np.real(b.conj() @ rho_p @ b))
            return 0.5 * (1 + p0m - p0p)

        return rc._grid_max(np.vectorize(psucc), -2.2, 0.5, n_grid=61, tol=1e-9)[0]

    for _ in range(20):
        plus = fock.coherent_state(alpha, cutoff=cutoff).to_operator()
        minus = fock.coherent_state(-alpha, cutoff=cutoff).to_operator()
        if rng.random() < 0.5:
            eta = rng.uniform(0.05, 0.999)
            rp, rm = fock.apply_loss(plus, eta), fock.apply_loss(minus, eta)
        else:
            kappa = rng.uniform(1.001, 3.0)
            rp = fock.apply_amplifier(plus, kappa, out_cutoff=cutoff)
            rm = fock.apply_amplifier(minus, kappa, out_cutoff=cutoff)
        assert opt_kennedy_on(rp.matrix, rm.matrix, cutoff) <= base + 1e-7


def test_receiver_spec_validation_and_dispatch():
    with pytest.raises(ValueError):
        rc.ReceiverSpec("laser")
    with pytest.raises(ValueError):
        rc.ReceiverSpec("nhpa", {"g": 0.5})
    a = 0.4
    assert rc.receiver_psucc(rc.ReceiverSpec("helstrom"), a) == pytest.approx(
        1 - rc.helstrom_bpsk(a)
    )
    assert rc.receiver_psucc(rc.ReceiverSpec("kennedy", {"beta": -a}), a) == pytest.approx(
        rc.kennedy_psucc(a, -a)
    )
    assert rc.receiver_psucc(
        rc.ReceiverSpec("nhpa", {"g": 3.0, "n": 2, "beta": -0.5}), a
    ) == pytest.approx(rc.nhpa_psucc(a, -0.5, 3.0, 2))


def test_binary_outcome_stats():
    s = rc.BinaryOutcomeStats(0.9, 0.1, 0.85)
    assert s.p_err == pytest.approx(0.15)
    with pytest.raises(ValueError):
        rc.BinaryOutcomeStats(1.4, 0.1, 0.85)


# ------------------------------------------------------- scalar-path oracles
# The scalar golden-section optimizer, objectives, NHPA sweep and recursive
# Dolinar that the array code replaced, kept as the reference for it.

ALPHA_GRID = np.linspace(0.05, 1.0, 40)


def golden_max(fun, lo, hi, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return fun(x), x


def grid_refine_max(fun, lo, hi, n_grid=121, tol=1e-12):
    xs = np.linspace(lo, hi, n_grid)
    vals = [fun(x) for x in xs]
    i = int(np.argmax(vals))
    return golden_max(fun, xs[max(i - 1, 0)], xs[min(i + 1, n_grid - 1)], tol=tol)


def scalar_nhpa_overlaps(alpha, beta, g, n):
    x = 2.0 * alpha * beta
    env = math.exp(-(4.0 * alpha**2 + beta**2))
    term, s_sum, f_sum = 1.0, 0.0, 0.0
    for k in range(n + 1):
        if k > 0:
            term *= x / k
        if g == math.inf:
            cs = cf = 1.0 if k < n else 0.0
        else:
            cs = 1.0 - g ** (-(n - k))
            cf = math.sqrt(max(1.0 - g ** (-2 * (n - k)), 0.0))
        s_sum += term * cs
        f_sum += term * cf
    return env * (math.exp(x) - s_sum) ** 2, env * f_sum**2


def scalar_nhpa_beta(alpha, g, n):
    def psucc(b):
        return 0.5 * (1.0 + math.exp(-(b**2)) - sum(scalar_nhpa_overlaps(alpha, b, g, n)))

    return grid_refine_max(psucc, -2.0, 0.0)


def scalar_nhpa_optimize(alpha, n_values=(1, 2, 3), g_max=200.0):
    best = (-1.0, 0.0, 1.0, 1)
    for n in n_values:
        gs = list(np.geomspace(1.0, g_max, 41)) + [math.inf]
        vals = []
        for g in gs:
            v, b = scalar_nhpa_beta(alpha, g, n)
            vals.append(v)
            if v > best[0]:
                best = (v, b, g, n)
        i = int(np.argmax(vals))
        if gs[i] != math.inf and 0 < i < len(gs) - 2:
            _, lg = golden_max(lambda lg: scalar_nhpa_beta(alpha, math.exp(lg), n)[0],
                               math.log(gs[i - 1]), math.log(gs[i + 1]), tol=1e-10)
            v, b = scalar_nhpa_beta(alpha, math.exp(lg), n)
            if v > best[0]:
                best = (v, b, math.exp(lg), n)
    return best


def scalar_dolinar(alpha, n_steps, g_choices, n_cut):
    a = alpha / math.sqrt(n_steps)

    def step_probs(beta, g, orient):
        ms, mf = scalar_nhpa_overlaps(-orient * a, beta, g, n_cut)
        if orient == -1:
            return ms + mf, math.exp(-(beta**2))
        return math.exp(-(beta**2)), ms + mf

    def success(p_plus, steps_left):
        if steps_left == 0:
            return max(p_plus, 1.0 - p_plus)
        best, best_cfg = -1.0, None
        for orient in (-1, +1):
            for g in g_choices:

                def gain(beta, g=g, orient=orient):
                    q_p, q_m = step_probs(beta, g, orient)
                    return (max(p_plus * q_p, (1.0 - p_plus) * q_m)
                            + max(p_plus * (1.0 - q_p), (1.0 - p_plus) * (1.0 - q_m)))

                val, beta = grid_refine_max(gain, -2.0, 2.0, n_grid=81, tol=1e-10)
                if val > best:
                    best, best_cfg = val, step_probs(beta, g, orient)
        q_p, q_m = best_cfg
        out = 0.0
        for q_plus, q_minus in ((q_p, q_m), (1.0 - q_p, 1.0 - q_m)):
            p_out = p_plus * q_plus + (1.0 - p_plus) * q_minus
            if p_out > 1e-300:
                out += p_out * success(p_plus * q_plus / p_out, steps_left - 1)
        return out

    return success(0.5, n_steps)


def cavity_coherent_psucc(alpha, beta, rho):
    """cavity_psucc with the probe from fock.coherent_state."""
    coh = fock.coherent_state(beta, cutoff=rho.cutoff).amps
    return 0.5 * (1.0 + math.exp(-(beta**2)) - float(np.real(coh.conj() @ rho.matrix @ coh)))


def test_single_step_optimizers_match_scalar_path():
    for alpha in ALPHA_GRID:
        alpha = float(alpha)
        rho = rc._cavity_field(alpha, 2.0)
        cases = [
            (rc.optimized_kennedy(alpha), grid_refine_max(
                lambda b: rc.kennedy_psucc(alpha, b), -3.0 * alpha - 2.0, 0.0)),
            (rc.dephaser_optimize(alpha, 2, "amp_inf"), grid_refine_max(
                lambda b: rc.dephaser_psucc(alpha, b, 2, "amp_inf"), -2.0, 0.0)),
            (rc.dephaser_optimize(alpha, 2, "full"), grid_refine_max(
                lambda b: rc.dephaser_psucc(alpha, b, 2, "full"), -2.0, 0.0)),
            (rc.cavity_optimize(alpha), grid_refine_max(
                lambda b: cavity_coherent_psucc(alpha, b, rho), -2.0, 0.0, n_grid=61, tol=1e-10)),
        ]
        for (p, beta), (p_ref, beta_ref) in cases:
            assert p == pytest.approx(p_ref, abs=1e-13)
            assert beta == pytest.approx(beta_ref, abs=1e-6)


def test_nhpa_optimize_matches_scalar_path():
    for alpha in ALPHA_GRID:
        p, beta, g, n = rc.nhpa_optimize(float(alpha))
        p_ref, beta_ref, g_ref, n_ref = scalar_nhpa_optimize(float(alpha))
        assert p == pytest.approx(p_ref, abs=1e-13)
        assert n == n_ref
        assert beta == pytest.approx(beta_ref, abs=1e-6)
        assert g == pytest.approx(g_ref, rel=1e-4)


@pytest.mark.parametrize("base, g_choices, steps", [
    ("opt_kennedy", None, range(1, 9)),
    ("nhpa", None, range(1, 5)),
    ("nhpa", (1.0, 10.0), range(5, 9)),
    ("dephaser", None, range(1, 5)),
])
def test_dolinar_matches_recursive_path(base, g_choices, steps):
    params = {} if g_choices is None else {"g_grid": g_choices}
    spec = rc.ReceiverSpec(base, params)
    if base == "opt_kennedy":
        ref_g, n_cut = (1.0,), 1
    elif base == "dephaser":
        ref_g, n_cut = (math.inf,), 2
    else:
        grid = np.geomspace(1.0, 100.0, 13) if g_choices is None else g_choices
        ref_g, n_cut = tuple(grid) + (math.inf,), 2
    for n_steps in steps:
        got = rc.dolinar_multistep(0.5, n_steps, spec)
        assert got == pytest.approx(scalar_dolinar(0.5, n_steps, ref_g, n_cut), abs=1e-9)
