"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

from qrx import cli, hadamard  # noqa: E402

# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    a = [r.key() for r in workloads.make_requests(workload, 7, 3)]
    b = [r.key() for r in workloads.make_requests(workload, 7, 3)]
    c = [r.key() for r in workloads.make_requests(workload, 8, 3)]
    assert a == b
    assert a != c


def test_runs_have_a_fixed_mix_and_size():
    for workload in workloads.WORKLOADS:
        n = workloads.rounds_for(workload, 32)
        mixes = {tuple(sorted(r.kind for r in workloads.make_requests(workload, seed, n)))
                 for seed in range(5)}
        assert len(mixes) == 1


def test_bpsk_alphas_are_grid_points_one_per_stratum():
    rounds = workloads.make_rounds("bpsk", 3, 2)
    assert {workloads.ALPHA_LO, workloads.ALPHA_HI} <= {r.meta["alpha"] for r in rounds[0]}
    grid = list(workloads.ALPHA_GRID)
    for rnd in rounds:
        cavity = [grid.index(r.meta["alpha"]) // workloads.ALPHA_STRATUM
                  for r in rnd if r.kind == "bpsk.cavity"]
        assert sorted(cavity) == list(range(len(grid) // workloads.ALPHA_STRATUM))
        assert all(r.meta["alpha"] in grid for r in rnd)


def test_rates_energies_cover_the_range_evenly():
    n = 4
    energies = sorted(float(r.argv[r.argv.index("--E-grid") + 1].split(":")[1])
                      for r in workloads.make_requests("rates", 5, n) if r.kind.endswith("M8.Jinf"))
    steps = [b / a for a, b in zip(energies, energies[1:])]
    assert len(energies) == n and all(abs(x - 10.0) < 1e-9 for x in steps)


# ------------------------------------------------------------------ checks


def _csv(header, rows):
    return header, [[repr(float(x)) if isinstance(x, float) else str(x) for x in row] for row in rows]


def test_rates_check_rejects_rate_above_optimal():
    e, n, m = 0.01, 4, 3
    opt = hadamard.optimal_rate(n, m, e)
    good = [e, n, m, "helstrom", 0.9 * opt, checks.capacity(e)]
    header = ["E", "N", "M", "kind", "rate", "capacity"]
    assert checks.check_rates_rows(*_csv(header, [good]), hadamard.optimal_rate, 1) == []
    bad = list(good)
    bad[4] = opt * (1 + 1e-9)
    assert checks.check_rates_rows(*_csv(header, [bad]), hadamard.optimal_rate, 1)
    bad = list(good)
    bad[5] = checks.capacity(e) + 1e-9
    assert checks.check_rates_rows(*_csv(header, [bad]), hadamard.optimal_rate, 1)


def _bpsk_row(alpha, p):
    hel = 0.5 * (1 + (1 - __import__("math").exp(-4 * alpha**2)) ** 0.5)
    return ["alpha_sq", "p_succ", "p_helstrom", "gap"], [[repr(alpha**2), repr(p), repr(hel),
                                                          repr(hel - p)]]


def test_bpsk_check_rejects_corrupted_rows():
    alpha = 0.4
    p_ok = checks.optimized_kennedy(alpha)
    header, rows = _bpsk_row(alpha, p_ok + 1e-4)
    assert checks.check_bpsk(header, rows, "nhpa", 1, alpha) == []
    header, rows = _bpsk_row(alpha, p_ok - 1e-6)
    assert any("optimized Kennedy" in p for p in checks.check_bpsk(header, rows, "nhpa", 1, alpha))
    header, rows = _bpsk_row(alpha, checks.dephaser_amp_inf(alpha) - 1e-6)
    assert any("dephaser" in p for p in checks.check_bpsk(header, rows, "ts", 1, alpha))
    header, rows = _bpsk_row(alpha, 0.99)
    assert any("above Helstrom" in p for p in checks.check_bpsk(header, rows, "cavity", 1, alpha))
    header, rows = _bpsk_row(alpha, 0.7)
    rows[0][2] = repr(float(rows[0][2]) + 1e-9)
    assert checks.check_bpsk(header, rows, "cavity", 1, alpha)
    header, rows = _bpsk_row(alpha, 0.7)
    rows[0][3] = repr(float(rows[0][3]) + 1e-9)
    assert any("gap" in p for p in checks.check_bpsk(header, rows, "cavity", 1, alpha))


def test_figures_check_rejects_rate_above_capacity(tmp_path):
    e = 0.01
    cap = checks.capacity(e) / e
    rows = [[e, 2, 1, hadamard.optimal_rate(2, 1, e) / e, cap]] * 8
    path = tmp_path / "optimal-rates.csv"

    def write(rs):
        text = "E,N,M,rate_per_energy,capacity_per_energy\r\n"
        text += "".join(",".join(repr(float(x)) for x in r) + "\r\n" for r in rs)
        path.write_text(text)

    write(rows)
    points, problems = checks.check_figures(str(tmp_path), 2, hadamard.optimal_rate,
                                            ("optimal-rates",))
    assert (points, problems) == (8, [])
    write(rows[:-1] + [[e, 2, 1, cap * (1 + 1e-9), cap]])
    assert checks.check_figures(str(tmp_path), 2, hadamard.optimal_rate, ("optimal-rates",))[1]


def _trine():
    import math

    vs = [[math.cos(2 * math.pi * k / 3), 0.0, math.sin(2 * math.pi * k / 3)] for k in range(3)]
    return vs, [1 / 3] * 3


def test_qubit_check_rejects_corrupted_reports():
    vs, ps = _trine()
    assert checks.pgm_success(vs, ps) == pytest.approx(2 / 3, abs=1e-12)
    good = {"n_states": 3, "p_succ": 2 / 3, "ordering": [0, 1, 2], "q_opt": {"c": 0.5, "r": [0.5, 0, 0]}}
    assert checks.check_qubit(good, vs, ps) == []
    for field, value in (("p_succ", 2 / 3 - 1e-6), ("p_succ", 1.0 + 1e-9),
                         ("q_opt", {"c": 0.5, "r": [0.6, 0, 0]})):
        bad = copy.deepcopy(good)
        bad[field] = value
        assert checks.check_qubit(bad, vs, ps), (field, value)


def test_tree_and_gaussian_checks_reject_corrupted_reports():
    good = {"dimension": 8, "n_elements": 5, "depth": 3, "max_reconstruction_error": 1e-15,
            "weak_completeness_defect": 1e-15}
    assert checks.check_tree(good, 8, 5) == []
    assert checks.check_tree(dict(good, max_reconstruction_error=2e-9), 8, 5)
    report = {"state": {"physical": True}, "channel": {"physical": True}}
    assert checks.check_gaussian(report, True) == []
    assert checks.check_gaussian(report, False)
    report["channel"]["physical"] = False
    assert checks.check_gaussian(report, True)


def test_reference_compare_flags_a_wrong_number():
    table = json.load(open(run.REFERENCE))
    entry = table["ref.bpsk.0"]
    assert run.compare(entry, copy.deepcopy(entry)) == []
    bad = copy.deepcopy(entry)
    bad["table"][1][1] += 2e-9
    assert run.compare(entry, bad)


# ------------------------------------------------------------------ tracing


def test_self_time_arithmetic_on_a_synthetic_tree():
    N = tracing.Node
    nodes = [N(0, "cli.main", "cli", None, "r"), N(1, "receivers.ts_optimize", "receivers", 0, "r"),
             N(2, "receivers.ts_psucc", "receivers", 1, "r"), N(3, "fock.squeeze_operator", "fock", 2, "r"),
             N(4, "fock.annihilation", "fock", 3, "r"), N(5, "cli._write_csv", "cli.io", 0, "r")]
    for node, dur in zip(nodes, (10.0, 8.0, 6.0, 5.0, 1.0, 0.5)):
        node.dur = dur
    own = tracing.self_times(nodes)
    assert own == pytest.approx({"cli": 1.5, "receivers": 3.0, "fock": 5.0, "cli.io": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)
    incl = tracing.inclusive_times(nodes + [N(6, "fock.squeeze_operator", "fock", 3, "r")])
    assert incl["fock.squeeze_operator"] == 5.0


def test_tracer_counts_without_changing_outputs(tmp_path):
    argv = ["hadamard-rates", "--M", "3", "--N", "2,4", "--E-grid", "log:0.01:0.1:2"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_modules())
    tracer.active = True
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    assert hadamard.integrate.quad.__module__.startswith("scipy")
    m = tracer.per_layer()
    assert m["hadamard.vp_prob.calls"] == 2 * 2 * 3
    assert m["hadamard.quad.calls"] == 12
    assert m["hadamard.quad.evals"] >= 21 * 12
    assert m["cli.io_s"] > 0 and m["hadamard.self_s"] > 0


def test_traced_warning_is_attributed_to_qubit_disc(tmp_path):
    """f_value_matrix's sqrtm warns on a singular 1 - Q in this request."""
    req = next(r for r in workloads.make_round("disc", 14, 0, 1) if r.id == "disc.0.6")
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_modules())
    runner = run.Runner(cli, str(tmp_path), tracer)
    runner.write_inputs([req])
    tracer.active = True
    try:
        res = runner.execute(req, "out")
    finally:
        tracer.active = False
        tracer.uninstall()
    assert res["code"] == 0 and res["warnings"] == ["LinAlgWarning"]
    assert tracer.per_layer()["qubit_disc.warnings"] == 1


# ------------------------------------------------------------------ failures


def test_cavity_at_the_grid_start_counts_as_failed(tmp_path):
    req = workloads.Request("t.0", "bpsk.cavity", ("bpsk-sweep", "--receiver", "cavity",
                                                   "--alpha-grid", "0.05:0.05:1"), "csv",
                            meta={"receiver": "cavity", "steps": 1, "alpha": 0.05})
    runner = run.Runner(cli, str(tmp_path))
    results = [runner.execute(req, "out")]
    run.check_results([req], results, hadamard.optimal_rate)
    assert results[0]["code"] == cli.EXIT_CONVERGENCE
    assert results[0]["ok"] is False
    assert "non-convergence" in results[0]["stderr"]


def test_tail_is_the_eleventh_largest():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
