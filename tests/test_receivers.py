import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm
from scipy.special import gammaln
from test_fock import matrix_squeezed_displaced_state, squeezed_displaced_overlap

import fockspace
from qrx import fock, povm
from qrx import receivers as rc
from qrx._search import _grid_max
from qrx.errors import TruncationError

CUT = 40


def coh(x, cutoff=CUT):
    return fockspace.coherent_state(x, cutoff=cutoff)


def nhpa_coeffs(g, n, k_max: int) -> tuple:
    """(success, failure) Kraus diagonal coefficients at Fock levels
    k = 0..k_max (first axis), zero above the cutoff n; g and n broadcast
    on the axes after it.  At g = inf both are 1 below n and 0 at k = n."""
    g, n = np.asarray(g, dtype=float), np.asarray(n)
    # n - k clipped at 0 gives g^0 = 1 and so zero coefficients above n
    m = np.maximum(n - np.arange(k_max + 1).reshape((-1,) + (1,) * max(g.ndim, n.ndim)), 0)
    return 1.0 - g ** (-m), np.sqrt(np.maximum(1.0 - g ** (-2 * m), 0.0))


def nhpa_kraus(g, n, cutoff=CUT):
    ms = np.eye(cutoff + 1, dtype=complex)
    mf = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    cs, cf = nhpa_coeffs(g, n, n)
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
    amps = fockspace.coherent_state(-alpha, cutoff=cutoff)
    qs = np.linspace(0, 8, 4001)
    vals = np.array(
        [abs(fockspace.quadrature_eigenvector(q, 0.0, cutoff).conj() @ amps) ** 2 for q in qs]
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
    # nan < 1 is False, so a check of g < 1 lets a nan gain through
    with pytest.raises(ValueError, match="gain g must be >= 1, got nan"):
        rc.nhpa_psucc(0.3, -0.4, np.nan, 2)
    with pytest.raises(ValueError, match="gain g must be >= 1, got nan"):
        rc.nhpa_optimize_beta(0.3, np.array([2.0, np.nan]), 2)
    # a nan or infinite cutoff warned "invalid value encountered in cast" first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (np.nan, np.inf, 2.5, np.array([2, np.nan])):
            with pytest.raises(ValueError, match="cutoff n must be a positive integer"):
                rc.nhpa_psucc(0.3, -0.5, 2.0, n)


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
    limit = dephaser_psucc(alpha, beta, n, "amp_inf")
    for g in (100.0, 1000.0, 1e6):
        assert abs(rc.nhpa_psucc(alpha, beta, g, n) - limit) < 1e-4


# ------------------------------------------------------------------ dephasers
# The closed forms of the two infinite-gain limits, kept as oracles: the
# A_{inf,n} dephaser is nhpa_psucc at g = inf, and the full partial dephaser
# D_n has no receiver of its own.


def dephaser_psucc(alpha, beta, n=2, kind="amp_inf"):
    """kind="amp_inf": A_{inf,n} with projector Kraus {Pi_>=n, Pi_<n}.
    kind="full": the more destructive partial dephaser D_n with Kraus
    {Pi_<n, |k><k| for k >= n} (no coherence left above the cutoff).
    Broadcasts over beta."""
    p0_minus = np.exp(-(beta**2))
    # sum_{k<n} <beta|k><k|2 alpha> for real amplitudes
    low = np.exp(-(4.0 * alpha**2 + beta**2) / 2.0) * sum(
        (2.0 * alpha * beta) ** k / math.factorial(k) for k in range(n))
    if kind == "amp_inf":
        # <beta|2 alpha> = exp(-(2a-b)^2/2) for real amplitudes
        high = np.exp(-((2.0 * alpha - beta) ** 2) / 2.0) - low
        p0_plus = high**2 + low**2
    else:
        env = np.exp(-(4.0 * alpha**2 + beta**2))
        tail = 0.0
        k = n
        while True:
            term = env * (2.0 * alpha * beta) ** (2 * k) / float(math.factorial(k) ** 2)
            tail = tail + term
            k += 1
            if np.all(np.abs(term) < 1e-18) and k > n + 5:
                break
        p0_plus = low**2 + tail
    return 0.5 * (1.0 + p0_minus - p0_plus)


def closed_form_dephaser_optimize(alpha, n=2, kind="amp_inf"):
    """dephaser_optimize before it searched the g = inf slice of the NHPA:
    the same beta search over a closed form."""
    val, beta = _grid_max(lambda b: dephaser_psucc(alpha, b, n, kind), (-2.0,), (0.0,), (1e-12,),
                          n_grid=121)
    return float(val), float(beta)


def test_dephaser_matches_nhpa_infinite_gain():
    for alpha, beta, n in ((0.3, -0.45, 2), (0.6, -0.2, 3)):
        assert dephaser_psucc(alpha, beta, n, "amp_inf") == pytest.approx(
            rc.nhpa_psucc(alpha, beta, 1e6, n), abs=1e-5
        )
        assert dephaser_psucc(alpha, beta, n, "amp_inf") == pytest.approx(
            rc.nhpa_psucc(alpha, beta, np.inf, n), abs=1e-13
        )


def test_dephaser_optimize_is_the_infinite_gain_slice():
    # the A_{inf,n} closed form and nhpa_psucc at g = inf agree to 1.1e-16 on
    # beta in [-2, 0], so the two beta searches agree to rounding
    betas = np.linspace(-2.0, 0.0, 81)
    for alpha in (0.0, 0.05, 0.3, 0.7, 1.2):
        for n in (1, 2, 3):
            assert np.max(np.abs(dephaser_psucc(alpha, betas, n, "amp_inf")
                                 - rc.nhpa_psucc(alpha, betas, np.inf, n))) <= 2.3e-16
            p, beta = rc.dephaser_optimize(alpha, n)
            p_ref, beta_ref = closed_form_dephaser_optimize(alpha, n)
            assert (p, beta) == rc.nhpa_optimize_beta(alpha, np.inf, n)
            assert abs(p - p_ref) <= 4.5e-16
            if alpha > 0:  # at alpha = 0, p_succ = 1/2 for every beta
                assert beta == pytest.approx(beta_ref, abs=1e-6)


def test_dephaser_optimize_rejects_a_cutoff_below_one():
    # with no cutoff the receiver would be a Kennedy one (0.7425 at n = 0)
    for n in (0, -1, 1.5):
        with pytest.raises(ValueError, match="cutoff n must be a positive integer"):
            rc.dephaser_optimize(0.3, n)


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
    assert dephaser_psucc(alpha, beta, n, "full") == pytest.approx(want, abs=1e-9)


def test_full_dephaser_tiny_decrement():
    alpha = 0.29
    ok, _ = rc.optimized_kennedy(alpha)
    amp, _ = rc.dephaser_optimize(alpha, 2)
    full, _ = closed_form_dephaser_optimize(alpha, 2, "full")
    assert 0 <= amp - full < 5e-4


def test_dephaser_n1_no_gain():
    alpha = 0.3
    ok, _ = rc.optimized_kennedy(alpha)
    v, _ = rc.dephaser_optimize(alpha, 1)
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
    psi1 = u1 @ np.kron(fockspace.coherent_state(alpha, cutoff=cutoff), [1.0, 0.0])
    n_phases = 2 * cutoff + 5
    rho = np.zeros((d, d), dtype=complex)
    for j in range(n_phases):
        th = 2 * np.pi * j / n_phases
        deph = np.kron(np.diag(np.exp(-1j * th * np.arange(d))), np.eye(2))
        psi = u2 @ (deph @ psi1)
        m = psi.reshape(d, 2)
        rho += m @ m.conj().T
    return rho / n_phases


def cavity_matrix(field):
    """The density matrix of a cavity_output (diag, sub) field."""
    diag, sub = field
    return np.diag(diag).astype(complex) + np.diag(sub, -1) + np.diag(sub.conj(), 1)


def test_cavity_output_against_jc_simulation():
    for alpha in (0.4, 0.58, 0.9):
        oracle = jc_dephased_output(alpha)
        mine = cavity_matrix(rc.cavity_output(alpha, cutoff=28))
        assert np.max(np.abs(oracle[:27, :27] - mine[:27, :27])) < 1e-10
        # the stage leaves nothing beyond the first off-diagonal
        assert np.max(np.abs(np.triu(oracle, 2))) < 1e-10


def test_cavity_trace_and_vacuum():
    assert np.sum(rc.cavity_output(0.5, fock.auto_cutoff(0.25))[0]) == pytest.approx(1.0, abs=1e-8)
    out = cavity_matrix(rc.cavity_output(0.0, fock.auto_cutoff(0.0)))
    want = np.zeros_like(out); want[0, 0] = 1.0
    assert np.max(np.abs(out - want)) < 1e-14


@pytest.mark.parametrize("alpha", [13.0, 14.0, 15.0, 20.0, 30.0, 60.0])
def test_cavity_stays_finite_at_large_alpha(alpha):
    # the running weight |2 alpha|^2k/k! overflowed from alpha = 14 on, and a
    # nan trace passed the trace check, so the CLI printed nan and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag, sub = rc._cavity_field(alpha, 2.0)
        p, beta = rc.cavity_optimize(alpha)
        whole_diag, whole_sub = rc.cavity_output(2.0 * alpha, fock.auto_cutoff(4.0 * alpha**2))
    assert np.isfinite(diag).all() and np.isfinite(sub).all()
    assert 0.5 <= p <= 1.0 - rc.helstrom_bpsk(alpha) and -2.0 <= beta <= 0.0
    # the probe's field holds the first levels of the whole field, which
    # cavity_output checks to have trace 1, and the levels it drops move
    # <beta|rho|beta> by at most (1 - sum_{k<K} q_k)(1 + 2|beta|) at |beta| <= 2
    k = len(sub)
    assert np.array_equal(diag[:k], whole_diag[:k]) and np.array_equal(sub, whole_sub[:k])
    assert np.sum(whole_diag) == pytest.approx(1.0, abs=1e-8)
    q = rc._poisson(np.linspace(0.0, 2.0, 41) ** 2, k)
    assert np.max((1.0 - q.sum(axis=-1)) * 5.0) <= fock.TRUNCATION_TOL


@pytest.mark.parametrize("alpha", [60.0, 205.0, 260.0, 1e3, 1e4, 1e6, rc.A_MAX])
def test_cavity_evaluates_up_to_a_max(alpha):
    # the field was sized by the signal, 4 alpha^2 levels: its trace check
    # failed from alpha = 205, and alpha = 1e4 asked for a 3 GiB array
    diag, sub = rc._cavity_field(alpha, 2.0)
    assert len(diag) == fock.auto_cutoff(4.0) + 2
    p, beta = rc.cavity_optimize(alpha)
    assert 1.0 - rc.helstrom_bpsk(alpha) - 1e-12 <= p <= 1.0 - rc.helstrom_bpsk(alpha)


def test_every_receiver_evaluates_at_a_max_and_refuses_above():
    p_hel = 1.0 - rc.helstrom_bpsk(rc.A_MAX)
    for kind in rc.PARAMS:
        assert p_hel - 1e-12 <= rc.optimize(kind, rc.A_MAX)[0] <= p_hel + 1e-15, kind
    for base in rc.DOLINAR_BASES:
        assert p_hel - 1e-12 <= rc.dolinar_multistep(rc.A_MAX, 2, base) <= p_hel + 1e-15, base
    above = math.nextafter(rc.A_MAX, math.inf)
    calls = [(rc.optimize, kind, above) for kind in rc.PARAMS]
    calls += [(rc.dolinar_multistep, above, 2, "nhpa"), (rc.ts_psucc, above, -1.0, 0.0)]
    for fun, *args in calls:
        with pytest.raises(ValueError, match="A_MAX"):
            fun(*args)


def test_cavity_psucc_cutoff_covers_probe():
    # weak signal, strong probe: the cutoff follows the probe's |beta| only
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
    # includes (-1.6, -0.8), a corner of ts_optimize's old 17 x 11 grid, where
    # the dense expm route at its old cutoff was 6.5e-8 off
    worst = 0.0
    for alpha in (0.3, 1.0):
        for beta in (-1.6, -0.5, 0.0):
            for r in (-0.8, 0.0, 0.2):
                worst = max(worst, abs(rc.ts_psucc(alpha, beta, r, 2) - ts_series(alpha, beta, r, 2)))
    assert worst < 1e-13


@pytest.mark.parametrize("n", [0, -1, 2.5, math.nan, math.inf])
def test_ts_rejects_a_cutoff_n_that_is_no_positive_integer(n):
    # n = 0 and -1 returned p_succ 0.75006 and n = 2.5 raised a bare
    # "slice indices must be integers" TypeError
    with pytest.raises(ValueError, match="cutoff n must be a positive integer"):
        rc.ts_psucc(0.3, -0.5, 0.1, n)
    with pytest.raises(ValueError, match="cutoff n must be a positive integer"):
        rc.ts_optimize(0.3, n)
    assert rc.ts_psucc(0.3, -0.5, 0.1, 2.0) == rc.ts_psucc(0.3, -0.5, 0.1, 2)


@pytest.mark.parametrize("beta, r, message", [
    (math.nan, 0.1, "ts beta must be finite, got nan"),
    (-0.5, math.nan, "ts r must be finite, got nan"),
    (-math.inf, 0.1, "ts beta must be finite, got -inf"),
    (-0.5, math.inf, "ts r must be finite, got inf"),
    (np.array([-0.5, math.nan]), 0.1, "ts beta must be finite, got nan"),
])
def test_ts_psucc_rejects_parameters_it_cannot_evaluate(beta, r, message):
    # a nan gave "cannot convert float NaN to integer" and r = inf an OverflowError
    with pytest.raises(ValueError, match=message):
        rc.ts_psucc(0.3, beta, r)


@pytest.mark.parametrize("alpha, beta, r", [
    (0.3, -0.5, 30.0), (0.3, -0.5, -30.0), (0.3, -1e200, 0.1), (0.3, -1e200, 30.0),
    (0.3, -1e200, -30.0), (60.0, -0.5, 0.1), (60.0, -1e200, -30.0),
])
def test_ts_psucc_evaluates_with_no_fock_cutoff(alpha, beta, r):
    # the Fock recurrence needed a cutoff above the mean photon number, and so
    # refused these (above 10,000 photons); r = 30 once raised "Maximum
    # allowed size exceeded"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = rc.ts_psucc(alpha, beta, r)
    assert np.isfinite(p) and 0.0 <= p <= 1.0 - rc.helstrom_bpsk(alpha)


def test_ts_optimize_evaluates_at_large_alpha():
    for alpha in (13.0, 30.0, 60.0):
        p, beta, r = rc.ts_optimize(alpha)
        assert p == 1.0 and abs(beta) < 1e-7 and abs(r) < 1e-7


def test_ts_optimize_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called")

    # a dense squeeze or displacement operator would come from expm
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    p, beta, r = rc.ts_optimize(0.5, 2)
    assert 0.5 < p <= 1 - rc.helstrom_bpsk(0.5)


def test_ts_r0_reduces_to_dephaser():
    for alpha, beta, n in ((0.3, -0.5, 2), (0.5, -0.2, 3), (1.2, -1.7, 1)):
        assert rc.ts_psucc(alpha, beta, 0.0, n) == rc.nhpa_psucc(alpha, beta, np.inf, n)
        assert rc.ts_psucc(alpha, beta, 0.0, n) == pytest.approx(
            dephaser_psucc(alpha, beta, n, "amp_inf"), abs=1e-15
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
    whole = [rc.dolinar_multistep(0.5, 5, b) for b in ("nhpa", "opt_kennedy")]
    monkeypatch.setattr(rc, "_DOLINAR_CHUNK", 3)
    chunked = [rc.dolinar_multistep(0.5, 5, b) for b in ("nhpa", "opt_kennedy")]
    assert chunked == pytest.approx(whole, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 1.0])
def test_dolinar_kennedy_base_is_kennedy(alpha):
    # the kennedy base nulls exactly (beta = 0) and only picks the state to
    # null; adaptive exact nulling gains nothing over one Kennedy receiver
    for n_steps in range(1, 9):
        got = rc.dolinar_multistep(alpha, n_steps, "kennedy")
        assert got == pytest.approx(rc.kennedy_psucc(alpha, -alpha), abs=1e-14)


def test_dolinar_validation():
    with pytest.raises(ValueError):
        rc.dolinar_multistep(0.4, 0)
    with pytest.raises(ValueError):
        rc.dolinar_multistep(0.4, 2, "cavity")


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
            b = fockspace.coherent_state(beta, cutoff=cut)
            p0m = float(np.real(b.conj() @ rho_m @ b))
            p0p = float(np.real(b.conj() @ rho_p @ b))
            return 0.5 * (1 + p0m - p0p)

        return rc._grid_max(np.vectorize(psucc), (-2.2,), (0.5,), (1e-9,), n_grid=61)[0]

    for _ in range(20):
        vp = fockspace.coherent_state(alpha, cutoff=cutoff)
        vm = fockspace.coherent_state(-alpha, cutoff=cutoff)
        plus, minus = np.outer(vp, vp.conj()), np.outer(vm, vm.conj())
        if rng.random() < 0.5:
            eta = rng.uniform(0.05, 0.999)
            rp, rm = fockspace.apply_loss(plus, eta), fockspace.apply_loss(minus, eta)
        else:
            kappa = rng.uniform(1.001, 3.0)
            rp = fockspace.apply_amplifier(plus, kappa, out_cutoff=cutoff)
            rm = fockspace.apply_amplifier(minus, kappa, out_cutoff=cutoff)
        assert opt_kennedy_on(rp, rm, cutoff) <= base + 1e-7


#: kind -> the optimizer (or closed form) that receivers.optimize names
NAMED = {
    "helstrom": lambda a: (1.0 - rc.helstrom_bpsk(a),),
    "homodyne": lambda a: (1.0 - rc.homodyne_perr(a),),
    "kennedy": lambda a: (rc.kennedy_psucc(a, -a),),
    "opt_kennedy": rc.optimized_kennedy,
    "nhpa": rc.nhpa_optimize,
    "dephaser": rc.dephaser_optimize,
    "cavity": rc.cavity_optimize,
    "ts": rc.ts_optimize,
}


@pytest.mark.parametrize("kind", list(rc.PARAMS))
def test_optimize_returns_the_named_optimizer_output(kind):
    got = rc.optimize(kind, 0.4)
    assert len(got) == 1 + len(rc.PARAMS[kind])
    assert tuple(got) == tuple(NAMED[kind](0.4))


def test_negative_alpha_is_rejected():
    # the closed forms hold for alpha >= 0; at -0.5 opt_kennedy gave 0.5000
    # and ts, nhpa, the dephaser and cavity 0.816, all below Helstrom, so no
    # other check caught them.  A nan gave nhpa p_succ -1.0 (its sentinel),
    # dephaser nan and cavity a conversion error, and an inf an
    # OverflowError in cavity and ts.  Each optimizer checks on its own.
    for alpha, message in [(-0.5, r"alpha must be >= 0, got -0\.5"),
                           (math.nan, "alpha must be finite, got nan"),
                           (math.inf, "alpha must be finite, got inf")]:
        for kind in rc.PARAMS:
            with pytest.raises(ValueError, match=message):
                rc.optimize(kind, alpha)
            if rc.PARAMS[kind]:  # an optimizer, not a closed form
                with pytest.raises(ValueError, match=message):
                    NAMED[kind](alpha)
        with pytest.raises(ValueError, match=message):
            rc.nhpa_optimize_beta(alpha, 2.0, 2)
        for base in rc.DOLINAR_BASES:
            with pytest.raises(ValueError, match=message):
                rc.dolinar_multistep(alpha, 2, base)
        with pytest.raises(ValueError, match=message):
            rc.ts_psucc(alpha, -0.3, 0.1)
    # at alpha = 0 both hypotheses are the vacuum: every receiver guesses
    for kind in rc.PARAMS:
        assert rc.optimize(kind, 0.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert rc.dolinar_multistep(0.0, 3, "nhpa") == pytest.approx(0.5, abs=1e-12)
    assert rc.ts_psucc(0.0, -0.3, 0.1) == pytest.approx(0.5, abs=1e-12)


def test_receiver_table_is_complete():
    assert set(NAMED) == set(rc.PARAMS)
    assert set(rc.DOLINAR_BASES) <= set(rc.PARAMS)
    with pytest.raises(ValueError, match="laser"):
        rc.optimize("laser", 0.4)


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
    """nhpa_optimize's scalar path before the (beta, 1/g) box: gains
    geomspace(1, g_max, 41) plus inf, a beta search at each, and a golden
    section over log g between the two neighbours of the best finite gain."""
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


@functools.lru_cache(maxsize=32)  # scalar_ts_optimize meets ~15 cutoffs per alpha
def float_ts_bra(alpha, k_max):
    """(<k|2 alpha> for k = 0..k_max, a bound on the Poisson tail of |2 alpha>
    above k_max, sqrt(k) for k = 0..k_max + 1) for float_ts_psucc, in Python
    floats and tuples, since every caller shares the cached result."""
    ks = np.arange(k_max + 1)
    bra2a = np.exp(-2.0 * alpha**2 + ks * np.log(2.0 * alpha)
                   - 0.5 * fock._log_factorials(k_max)) \
        if alpha > 0 else np.where(ks == 0, math.exp(-2.0 * alpha**2), 0.0)
    mu = 4.0 * alpha**2
    tail = 0.0 if mu == 0.0 else 1.0 if mu >= k_max + 2 else min(
        math.exp(-mu + (k_max + 1) * math.log(mu) - math.lgamma(k_max + 2.0))
        / (1.0 - mu / (k_max + 2)), 1.0)
    return tuple(bra2a.tolist()), tail, tuple(math.sqrt(k) for k in range(k_max + 2))


def float_ts_psucc(alpha, beta, r, n=2):
    """ts_psucc at one point before its closed form, in Python floats: the
    |beta, r> recurrence as a float loop up to the Fock cutoff of the mean
    photon number, checked by the Poisson-tail bound of |2 alpha>, and the
    partial sums correctly rounded by math.fsum."""
    alpha, beta, r = float(alpha), float(beta), float(r)
    c, s = math.cosh(r), math.sinh(r)
    k_max = fock.auto_cutoff(4.0 * alpha**2 + beta**2 + s**2 + 1.0)
    bra2a, tail, roots = float_ts_bra(alpha, k_max)
    psi = math.exp(-0.5 * beta**2 + 0.5 * math.tanh(r) * beta * beta) / math.sqrt(c)
    p0_minus = psi**2
    prev = norm = 0.0
    prod = []
    for bra, root, root_next in zip(bra2a, roots, roots[1:]):
        norm += psi * psi
        prod.append(bra * psi)
        psi, prev = (beta * psi - s * root * prev) / (c * root_next), psi
    bound = 2.0 * math.sqrt(tail * max(1.0 - norm, 0.0))
    if bound > fock.TRUNCATION_TOL:
        raise TruncationError(
            f"ts at alpha={alpha!r}, beta={beta!r}, r={r!r}: cutoff "
            f"k_max={k_max} bounds the p(0|+) error by {bound:.2e} > {fock.TRUNCATION_TOL:.0e}")
    p0_plus = math.fsum(prod[n:]) ** 2 + math.fsum(prod[:n]) ** 2
    return 0.5 * (1.0 + p0_minus - p0_plus)


def scalar_ts_optimize(alpha, n=2):
    """ts_optimize before the (beta, r) box: the first maximum of a 17 x 11
    grid on [-1.6, 0] x [-0.8, 0.2], refined by a coordinate pattern search
    from step 0.1 down to 1e-7, on float_ts_psucc.  Its r is unbounded, but
    from that grid it can stop on the tilted ridge short of its top."""
    best = (-1.0, 0.0, 0.0)
    for b in np.linspace(-1.6, 0.0, 17):
        for r in np.linspace(-0.8, 0.2, 11):
            v = float_ts_psucc(alpha, b, r, n)
            if v > best[0]:
                best = (v, b, r)
    fx, b, r = best
    step = 0.1
    while step > 1e-7:
        improved = False
        for db, dr in ((step, 0), (-step, 0), (0, step), (0, -step)):
            v = float_ts_psucc(alpha, b + db, r + dr, n)
            if v > fx + 1e-15:
                fx, b, r = v, b + db, r + dr
                improved = True
        if not improved:
            step *= 0.5
    return fx, b, r


def nested_nhpa_optimize(alpha, n_values=(1, 2, 3), g_max=200.0):
    """nhpa_optimize's array path before the (beta, 1/g) box: the gains of
    scalar_nhpa_optimize, then an outer _grid_max over log g whose every
    point runs a whole inner beta _grid_max.  It never searches the gains
    between g_max and inf."""
    gs = np.append(np.geomspace(1.0, g_max, 41), math.inf)
    ns = np.asarray(n_values)[:, None]
    vals, betas = rc.nhpa_optimize_beta(alpha, gs, ns)
    at = np.argmax(vals, axis=1)
    refine = np.flatnonzero((at > 0) & (at < len(gs) - 2))
    refined = {}
    if refine.size:
        n_r = ns[refine]
        _, lg = _grid_max(lambda lg: rc.nhpa_optimize_beta(alpha, np.exp(lg), n_r)[0],
                          (np.log(gs[at[refine] - 1]),), (np.log(gs[at[refine] + 1]),), (1e-10,))
        g_r = np.exp(lg)
        v_r, b_r = rc.nhpa_optimize_beta(alpha, g_r, n_r[:, 0])
        refined = {j: (v_r[m], b_r[m], g_r[m]) for m, j in enumerate(refine)}
    best = (-1.0, 0.0, 1.0, 1)
    for j, n in enumerate(n_values):
        candidates = list(zip(vals[j], betas[j], gs))
        if j in refined:
            candidates.append(refined[j])
        for v, b, g in candidates:
            if v > best[0]:
                best = (float(v), float(b), float(g), int(n))
    return best


def cavity_coherent_psucc(alpha, beta, rho):
    """cavity_psucc with the probe from fockspace.coherent_state."""
    coh = fockspace.coherent_state(beta, cutoff=len(rho) - 1)
    return 0.5 * (1.0 + math.exp(-(beta**2)) - float(np.real(coh.conj() @ rho @ coh)))


def test_single_step_optimizers_match_scalar_path():
    for alpha in ALPHA_GRID:
        alpha = float(alpha)
        rho = cavity_matrix(rc._cavity_field(alpha, 2.0))
        cases = [
            (rc.optimized_kennedy(alpha), grid_refine_max(
                lambda b: rc.kennedy_psucc(alpha, b), -3.0 * alpha - 2.0, 0.0)),
            (rc.dephaser_optimize(alpha, 2), grid_refine_max(
                lambda b: dephaser_psucc(alpha, b, 2, "amp_inf"), -2.0, 0.0)),
            (closed_form_dephaser_optimize(alpha, 2, "full"), grid_refine_max(
                lambda b: dephaser_psucc(alpha, b, 2, "full"), -2.0, 0.0)),
            (rc.cavity_optimize(alpha), grid_refine_max(
                lambda b: cavity_coherent_psucc(alpha, b, rho), -2.0, 0.0, n_grid=61, tol=1e-10)),
        ]
        for (p, beta), (p_ref, beta_ref) in cases:
            assert p == pytest.approx(p_ref, abs=1e-13)
            assert beta == pytest.approx(beta_ref, abs=1e-6)


def test_log_factorial_table_keeps_ts_and_cavity_optima(monkeypatch):
    # fock's running-sum log k! table replaced scipy's gammaln; on the
    # default grid both optimizers return the same bits with either
    def gammaln_table(n):
        return gammaln(np.arange(n + 1) + 1.0)

    def optima():
        return [(rc.ts_optimize(float(a)), rc.cavity_optimize(float(a))) for a in ALPHA_GRID]

    table = optima()
    monkeypatch.setattr(fock, "_log_factorials", gammaln_table)
    assert optima() == table


@pytest.mark.parametrize("n", [2, 3])
def test_ts_optimize_matches_scalar_path(n):
    # the (beta, r) box is nowhere below the grid and pattern search by more
    # than 1e-15 (measured: by at most 1.1e-16, and above it by up to 1.2e-14).
    # At alpha = 0.05, n = 2 the optimum r* = 0.32 lies outside the old grid,
    # which the unbounded pattern search walks out of
    alphas = [ALPHA_GRID] if n == 3 else [
        ALPHA_GRID, np.linspace(0.0, 1.5, 61), np.linspace(1.5, 3.0, 31)]
    for alpha in np.concatenate(alphas):
        p, beta, r = rc.ts_optimize(float(alpha), n)
        assert p >= scalar_ts_optimize(float(alpha), n)[0] - 1e-15
        assert -2.0 <= beta <= 0.0 and -1.0 <= r <= 1.0


def assert_at_least_the_log_g_path(alpha, ref):
    """nhpa_optimize at alpha is nowhere below the log g path's `ref` by more
    than 1e-15; where that path's best gain lies inside (1, 200], not at its
    edge g = 200 or at g = inf, both find the same optimum."""
    p, beta, g, n = rc.nhpa_optimize(alpha)
    p_ref, beta_ref, g_ref, n_ref = ref
    assert p >= p_ref - 1e-15
    if alpha > 0 and g_ref not in (200.0, math.inf):  # at alpha = 0, p_succ = 1/2 throughout
        assert p <= p_ref + 1e-15
        assert n == n_ref
        assert beta == pytest.approx(beta_ref, abs=1e-6)
        assert g == pytest.approx(g_ref, rel=1e-4)
    return p - p_ref


def test_nhpa_optimize_matches_scalar_path():
    for alpha in ALPHA_GRID:
        assert_at_least_the_log_g_path(float(alpha), scalar_nhpa_optimize(float(alpha)))


def test_nhpa_optimize_never_falls_below_the_nested_path():
    # the log g grid stopped at 200 and then jumped to inf; on 188 alphas the
    # (beta, 1/g) box is below it by at most 3.3e-16, and above it by up to
    # 1.4e-7 where the best gain lies in (200, inf)
    alphas = np.concatenate([np.linspace(0.01, 1.5, 188), ALPHA_GRID, np.linspace(0.0, 1.5, 61)])
    gains = [assert_at_least_the_log_g_path(float(a), nested_nhpa_optimize(float(a)))
             for a in alphas]
    assert sum(d > 1e-12 for d in gains) > 50


def dense_u_scan(alpha, n_u=1201):
    """The best of a beta search at each of n_u evenly spaced u = 1/g in
    [0, 1], for every cutoff n = 1..3."""
    with np.errstate(divide="ignore"):
        g = 1.0 / np.linspace(0.0, 1.0, n_u)
    return float(rc.nhpa_optimize_beta(alpha, g, np.array([1, 2, 3])[:, None])[0].max())


def test_nhpa_optimize_reaches_a_dense_u_scan():
    # measured: the scan beats the box by at most 1.1e-16 on these 101 alphas
    for alpha in np.concatenate([ALPHA_GRID, np.linspace(0.0, 1.5, 61)]):
        assert rc.nhpa_optimize(float(alpha))[0] >= dense_u_scan(float(alpha)) - 1e-15


@pytest.mark.parametrize("alpha", [0.05, 0.95, 1.0])
def test_nhpa_optimize_searches_gains_above_200(alpha):
    # the log g grid missed these: at 0.05 and 1.0 its best was g = inf, at
    # 0.95 the grid's edge g = 200, while gains near 260, 462 and 6680 do
    # better by up to 9.5e-8
    p = rc.nhpa_optimize(alpha)[0]
    for g in (260.0, 462.0, 6680.0):
        assert p >= rc.nhpa_optimize_beta(alpha, g, 2)[0] - 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_ts_psucc_matches_array_path(n):
    # the closed form against the |beta, r> recurrence over a Fock cutoff (the
    # float loop with fsum's correctly rounded sums), on the old 17 x 11 grid,
    # on ts_optimize's box and at cutoffs above 64 terms, one batch per alpha
    grids = [(np.linspace(-1.6, 0.0, 17), np.linspace(-0.8, 0.2, 11)),
             (np.linspace(-2.0, 0.0, 9), np.linspace(-1.0, 1.0, 9))]
    points = [(float(a), b, r) for a in ALPHA_GRID for betas, rs in grids
              for b in betas for r in rs]
    points += [(1.0, -5.0, 0.5), (2.0, -3.0, 1.0), (0.7, 3.0, -1.2), (0.0, -0.4, 0.3)]
    batches = {}
    for alpha, beta, r in points:
        batches.setdefault(alpha, []).append((beta, r))
    for alpha, batch in batches.items():
        got = rc.ts_psucc(alpha, *np.array(batch).T, n)
        want = [float_ts_psucc(alpha, beta, r, n) for beta, r in batch]
        assert np.max(np.abs(got - want)) <= 1e-15


def counted(monkeypatch, name):
    """Replace receivers.<name> by a wrapper that logs each call."""
    calls, fn = [], getattr(rc, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(rc, name, wrapper)
    return calls


def test_optimizers_make_few_objective_calls(monkeypatch):
    # no timing: objective calls per alpha.  The nested nhpa search (a beta
    # search at every log g point) made ~169 and the log g grid with its
    # joint zoom 14-27; the (beta, 1/g) box makes its first grid, 13 zooms
    # and the call at the box centres.  ts made 329 one-point calls (its
    # 17 x 11 grid and the pattern search); the (beta, r) box makes its
    # first grid, 9 zooms and the call at the box centre
    nhpa_calls, ts_calls = counted(monkeypatch, "nhpa_psucc"), counted(monkeypatch, "ts_psucc")
    for alpha in ALPHA_GRID[::3]:
        nhpa_calls.clear()
        rc.nhpa_optimize(float(alpha))
        assert len(nhpa_calls) <= 15
        ts_calls.clear()
        rc.ts_optimize(float(alpha))
        assert len(ts_calls) <= 11


@pytest.mark.parametrize("base, g_choices, steps", [
    ("opt_kennedy", None, range(1, 9)),
    ("nhpa", None, range(1, 5)),
    ("nhpa", (1.0, 10.0), range(5, 9)),
    ("dephaser", None, range(1, 5)),
])
def test_dolinar_matches_recursive_path(monkeypatch, base, g_choices, steps):
    if g_choices is not None:
        monkeypatch.setattr(rc, "_DOLINAR_GAINS", np.array(g_choices))
    if base == "opt_kennedy":
        ref_g, n_cut = (1.0,), 1
    elif base == "dephaser":
        ref_g, n_cut = (math.inf,), 2
    else:
        grid = np.geomspace(1.0, 100.0, 13) if g_choices is None else g_choices
        ref_g, n_cut = tuple(grid) + (math.inf,), 2
    for n_steps in steps:
        got = rc.dolinar_multistep(0.5, n_steps, base)
        assert got == pytest.approx(scalar_dolinar(0.5, n_steps, ref_g, n_cut), abs=1e-9)
