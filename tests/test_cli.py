"""End-to-end tests for the qrx command-line interface."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import reference as ref
from qrx import cli, hadamard, povm, qubit_disc, receivers


def run_cli(args, tmp_path, name="out"):
    """Run a subcommand writing to a temp file; return (exit_code, text)."""
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# ------------------------------------------------------------------ sweeps


def test_bpsk_sweep_structure(tmp_path):
    code, text = run_cli(
        ["bpsk-sweep", "--receiver", "kennedy", "--alpha-grid", "0.05:1.0:40"], tmp_path
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap"]
    assert len(rows) == 40
    alpha_sq = [float(r[0]) for r in rows]
    assert alpha_sq == sorted(alpha_sq)
    for r in rows:
        assert 0.0 <= float(r[1]) <= float(r[2]) <= 1.0
        assert float(r[3]) == pytest.approx(float(r[2]) - float(r[1]), abs=1e-15)


def test_bpsk_sweep_reports_receiver_parameters(tmp_path):
    code, text = run_cli(
        ["bpsk-sweep", "--receiver", "opt_kennedy", "--alpha-grid", "0.3:0.5:2"], tmp_path
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap", "beta"]
    for r in rows:
        alpha = math.sqrt(float(r[0]))
        expected, beta = receivers.optimized_kennedy(alpha)
        assert float(r[1]) == pytest.approx(expected, abs=1e-12)
        assert float(r[4]) == pytest.approx(beta, abs=1e-9)
        assert float(r[4]) < 0.0


def test_bpsk_sweep_cavity_default_grid(tmp_path):
    # the probe |beta| <= 2 needs a larger cutoff than the weak signals
    # at the low end of the grid
    code, text = run_cli(["bpsk-sweep", "--receiver", "cavity"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap", "beta"]
    assert len(rows) == 40
    assert float(rows[0][0]) == pytest.approx(0.05**2)
    for r in rows:
        assert 0.5 <= float(r[1]) <= float(r[2]) <= 1.0
        assert -2.0 <= float(r[4]) <= 0.0


@pytest.mark.parametrize("receiver", ["ts", "nhpa"])
def test_bpsk_sweep_default_grid(tmp_path, receiver):
    # every point of the documented grid evaluates, within its checked cutoff
    code, text = run_cli(["bpsk-sweep", "--receiver", receiver], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap"] + list(receivers.PARAMS[receiver])
    assert len(rows) == 40
    for r in rows:
        assert 0.5 <= float(r[1]) <= float(r[2]) <= 1.0


def test_bpsk_sweep_rejects_unknown_receiver(tmp_path):
    code, _ = run_cli(["bpsk-sweep", "--receiver", "nope"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("receiver", list(receivers.PARAMS))
def test_bpsk_sweep_accepts_every_receiver_kind(tmp_path, receiver):
    code, text = run_cli(["bpsk-sweep", "--receiver", receiver, "--alpha-grid", "0.4:0.4:1"],
                         tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap"] + list(receivers.PARAMS[receiver])
    p, *params = receivers.optimize(receiver, 0.4)
    assert [float(x) for x in rows[0][1:2] + rows[0][4:]] == [p, *params]


@pytest.mark.parametrize("receiver", ["ts", "cavity", "helstrom", "homodyne"])
def test_bpsk_sweep_steps_need_a_dolinar_base(tmp_path, capsys, receiver):
    code, _ = run_cli(["bpsk-sweep", "--receiver", receiver, "--steps", "2"], tmp_path)
    assert code == 2
    assert f"unsupported Dolinar base {receiver!r}" in capsys.readouterr().err


@pytest.mark.parametrize("receiver", receivers.DOLINAR_BASES)
def test_bpsk_sweep_steps_run_on_every_dolinar_base(tmp_path, receiver):
    code, text = run_cli(["bpsk-sweep", "--receiver", receiver, "--steps", "2",
                          "--alpha-grid", "0.4:0.4:1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["alpha_sq", "p_succ", "p_helstrom", "gap"]
    assert float(rows[0][1]) == receivers.dolinar_multistep(0.4, 2, receiver)


def test_bpsk_sweep_rejects_bad_grid(tmp_path):
    code, _ = run_cli(
        ["bpsk-sweep", "--receiver", "kennedy", "--alpha-grid", "oops"], tmp_path
    )
    assert code == 2


@pytest.mark.parametrize("receiver, steps", [("opt_kennedy", "1"), ("cavity", "1"),
                                             ("nhpa", "2"), ("helstrom", "1")])
def test_bpsk_sweep_bounds_alpha_at_a_max(tmp_path, capsys, receiver, steps):
    # alpha = 1e308 once exited 1 with an OverflowError traceback, or 2 with
    # "search bounds must be finite", which did not name alpha
    a_max = receivers.A_MAX
    argv = ["bpsk-sweep", "--receiver", receiver, "--steps", steps]
    code, text = run_cli(argv + [f"--alpha-grid={a_max!r}:{a_max!r}:1"], tmp_path)
    assert code == 0
    p_succ, p_helstrom = (float(x) for x in parse_csv(text)[1][0][1:3])
    assert p_helstrom - 1e-12 <= p_succ <= p_helstrom
    for above in (math.nextafter(a_max, math.inf), 1e308):
        code, text = run_cli(argv + [f"--alpha-grid={above!r}:{above!r}:1"], tmp_path, "above")
        assert (code, text) == (2, "")
        assert f"alpha must be <= A_MAX = 1e+09, got {above!r}" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["1", "3"])
def test_bpsk_sweep_rejects_negative_alphas(tmp_path, capsys, steps):
    # a negative alpha once gave wrong p_succ with exit 0 (opt_kennedy 0.5000
    # at -0.5, against 0.8652 at +0.5); alpha = 0 still runs
    code, text = run_cli(["bpsk-sweep", "--receiver", "opt_kennedy", "--steps", steps,
                          "--alpha-grid=-0.5:0.5:3"], tmp_path)
    assert (code, text) == (2, "")
    assert "alpha grid must not go below 0, got '-0.5:0.5:3'" in capsys.readouterr().err
    code, text = run_cli(["bpsk-sweep", "--receiver", "opt_kennedy", "--steps", steps,
                          "--alpha-grid", "0:0.5:3"], tmp_path)
    assert code == 0
    assert float(parse_csv(text)[1][0][1]) == pytest.approx(0.5, abs=1e-12)


def test_non_finite_grids_exit_2_without_hanging():
    # a nan or inf endpoint made _grid_max's brackets non-finite, so the
    # search never stopped: run the requests in a fresh interpreter with a
    # timeout, so that a regression fails instead of hanging the suite
    code = """
import json, math
from qrx import cli, receivers
specs = ["nan:1:2", "0.1:inf:2", "log:1e-3:inf:2"]
codes = [cli.main(argv + [spec]) for spec in specs
         for argv in (["bpsk-sweep", "--receiver", "opt_kennedy", "--alpha-grid"],
                      ["hadamard-rates", "--M", "2", "--N", "2", "--E-grid"])]
errors = []
for alpha in (math.nan, math.inf):
    try:
        receivers.optimize("opt_kennedy", alpha)
    except ValueError as exc:
        errors.append(str(exc))
print(json.dumps([codes, errors]))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
    codes, errors = json.loads(result.stdout)
    assert codes == [2] * 6
    for spec in ("nan:1:2", "0.1:inf:2", "log:1e-3:inf:2"):
        assert result.stderr.count(f"grid endpoints must be finite, got {spec!r}") == 2
    assert errors == ["amplitude alpha must be finite, got nan",
                      "amplitude alpha must be finite, got inf"]


@pytest.mark.parametrize("args", [
    ["--receiver", "opt_kennedy"], ["--receiver", "nhpa"], ["--receiver", "dephaser"],
    ["--receiver", "cavity"], ["--receiver", "nhpa", "--steps", "3"], ["--receiver", "ts"],
])
def test_bpsk_sweep_bytes_match_the_oracle_maximizers(tmp_path, monkeypatch, args):
    # the d-coordinate _grid_max replaced a 1-D and a 2-D maximizer (kept in
    # test_search as oracles); the CSV keeps their bytes, also for ts's
    # (beta, r) box, which came after them
    from test_search import oracle_grid_max

    argv = ["bpsk-sweep", *args, "--alpha-grid", "0.05:1.0:10"]
    code, text = run_cli(argv, tmp_path, "new")
    monkeypatch.setattr(receivers, "_grid_max", oracle_grid_max)
    assert run_cli(argv, tmp_path, "oracle")[0] == code == 0
    assert (tmp_path / "new").read_bytes() == (tmp_path / "oracle").read_bytes()
    assert len(parse_csv(text)[1]) == 10


# --------------------------------------------------------------- rate table


def test_hadamard_rates_bounded_by_capacity(tmp_path):
    code, text = run_cli(
        ["hadamard-rates", "--M", "2", "--N", "2", "--E-grid", "log:1e-3:1:50"], tmp_path
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["E", "N", "M", "kind", "rate", "capacity"]
    assert len(rows) == 50
    for r in rows:
        assert float(r[4]) <= float(r[5]) + 1e-9
        assert float(r[5]) == pytest.approx(hadamard.classical_capacity(float(r[0])), abs=1e-12)


def test_hadamard_rates_length_ellipsis(tmp_path):
    code, text = run_cli(
        ["hadamard-rates", "--M", "2", "--N", "2,4,...,32", "--E-grid", "0.05:0.05:1"],
        tmp_path,
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert [int(r[1]) for r in rows] == [2, 4, 8, 16, 32]


def test_hadamard_rates_rejects_non_power_of_two(tmp_path):
    code, _ = run_cli(
        ["hadamard-rates", "--M", "2", "--N", "6", "--E-grid", "0.05:0.05:1"], tmp_path
    )
    assert code == 2


def test_hadamard_rates_finite_steps_below_limit(tmp_path):
    base = ["hadamard-rates", "--M", "3", "--N", "4", "--E-grid", "0.02:0.02:1"]
    code, text_j = run_cli(base + ["--J", "30"], tmp_path, "j30")
    assert code == 0
    code, text_inf = run_cli(base + ["--J", "inf"], tmp_path, "jinf")
    assert code == 0
    r30 = float(parse_csv(text_j)[1][0][4])
    rinf = float(parse_csv(text_inf)[1][0][4])
    assert r30 <= rinf
    assert abs(r30 - rinf) / rinf < 0.02


# ------------------------------------------------------------- determinism


def test_reruns_are_byte_identical(tmp_path):
    args = ["bpsk-sweep", "--receiver", "dephaser", "--alpha-grid", "0.2:0.4:3"]
    _, first = run_cli(args, tmp_path, "a")
    _, second = run_cli(args, tmp_path, "b")
    assert first == second


def test_csv_uses_crlf_and_17_digits(tmp_path):
    out = tmp_path / "out.csv"
    code = cli.main(
        ["bpsk-sweep", "--receiver", "homodyne", "--alpha-grid", "0.123:0.456:2",
         "--out", str(out)]
    )
    assert code == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 3 and b"\r\r" not in raw
    value = raw.decode().splitlines()[1].split(",")[1]
    # round-trips exactly at 17 significant digits
    assert format(float(value), ".17g") == value


# ------------------------------------------------------------- qubit-disc


def trine_csv(tmp_path):
    path = tmp_path / "trine.csv"
    rows = ["c,rx,ry,rz,p"]
    for k in range(3):
        th = 2 * math.pi * k / 3
        rows.append(f"0.5,{math.sin(th) / 2},0.0,{math.cos(th) / 2},{1 / 3}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_qubit_disc_trine(tmp_path):
    code, text = run_cli(["qubit-disc", "--in", str(trine_csv(tmp_path))], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["n_states"] == 3
    assert report["p_succ"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    # the certificate: the dual value of the trine is 2/3
    assert report["p_succ_dual"] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert report["gap"] == abs(report["p_succ"] - report["p_succ_dual"]) <= 1e-9
    assert report["ordering"] == [0, 1, 2]
    # the reported optimizer is a valid effect (0 <= Q <= 1): its eigenvalues
    # are c -+ |r|
    c, r = report["q_opt"]["c"], np.linalg.norm(report["q_opt"]["r"])
    assert -1e-9 <= c - r and c + r <= 1.0 + 1e-9


def test_qubit_disc_validates_probabilities(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0,0,0.5,0.9\n0.5,0,0,-0.5,0.9\n0.5,0.5,0,0,0.9\n")
    code, _ = run_cli(["qubit-disc", "--in", str(path)], tmp_path)
    assert code == 2


def test_qubit_disc_header_and_blank_rows_are_optional(tmp_path):
    rows = trine_csv(tmp_path).read_text().splitlines()
    path = tmp_path / "plain.csv"
    path.write_text("\n" + "\n\n".join(rows[1:]) + "\n")
    assert run_cli(["qubit-disc", "--in", str(path)], tmp_path, "plain") == \
        run_cli(["qubit-disc", "--in", str(trine_csv(tmp_path))], tmp_path, "header")


#: (input CSV, p_succ, p_succ_dual, gap, q_opt c, q_opt r) of six fixed
#: ensembles; the numbers are the program's own, pinned to the last bit
PINNED_DISC = {
    "trine": (
        "0.5,0.0,0.0,0.5,0.3333333333333333\n"
        "0.5,0.4330127018922193,0.0,-0.25,0.3333333333333333\n"
        "0.5,-0.4330127018922193,0.0,-0.25,0.3333333333333334\n",
        0.6666666666666665, 0.6666666666666669, 3.3306690738754696e-16,
        0.6666666666666665, [-0.28867513459481275, 0.0, 0.16666666666666655]),
    "tetrahedron-unequal-priors": (
        "0.5,0.0,0.0,0.5,0.4\n"
        "0.5,0.47140452079103173,0.0,-0.16666666666666666,0.3\n"
        "0.5,-0.23570226039551587,0.408248290463863,-0.16666666666666666,0.2\n"
        "0.5,-0.23570226039551587,-0.408248290463863,-0.16666666666666666,0.1\n",
        0.6372281323269015, 0.6372281323269015, 0.0,
        0.5, [-0.2461829819586655, 0.0, 0.4351941398892446]),
    "coplanar-mixed-4": (
        "0.5,0.4,0.0,0.1,0.25\n0.5,-0.1,0.0,0.35,0.35\n"
        "0.5,-0.3,0.0,-0.2,0.15\n0.5,0.05,0.0,-0.45,0.25\n",
        0.5397524765252697, 0.5397524765252697, 0.0, 0.0, [0.0, 0.0, 0.0]),
    "zero-prior": (
        "0.5,0.0,0.0,0.5,0.5\n0.5,0.4,0.0,0.0,0\n"
        "0.5,0.0,0.3,-0.2,0.3\n0.5,-0.3,0.1,0.1,0.2\n",
        0.7228002478313794, 0.7228002478313795, 1.1102230246251565e-16,
        0.9999999999999998, [0.0, 2.7755575615628914e-17, 0.0]),
    "dominant-single-support": (
        "0.5,0.0,0.0,0.15,0.1\n0.5,0.0,0.0,0.0,0.8\n0.5,0.1,0.0,0.0,0.1\n",
        0.8, 0.8, 0.0, 0.0, [0.0, 0.0, 0.0]),
    "non-coplanar-3": (
        "0.5,0.5,0.0,0.0,0.5\n0.5,0.0,0.4,0.0,0.3\n0.5,0.0,0.0,0.3,0.2\n",
        0.677308492477241, 0.677308492477241, 0.0,
        0.5000000000000001, [0.45076152873413694, -0.21636553379238568, 0.0]),
}


@pytest.mark.parametrize("name", PINNED_DISC)
def test_qubit_disc_bytes_are_pinned(tmp_path, name):
    text, p_succ, dual, gap, qc, qr = PINNED_DISC[name]
    path = tmp_path / "states.csv"
    path.write_text(text)
    n = text.count("\n")
    want = {"gap": gap, "n_states": n, "ordering": list(range(n)), "p_succ": p_succ,
            "p_succ_dual": dual, "q_opt": {"c": qc, "r": qr}}
    assert run_cli(["qubit-disc", "--in", str(path)], tmp_path) == \
        (0, json.dumps(want, indent=2, sort_keys=True) + "\n")


#: three valid rows whose priors sum to 1, so that a dropped fourth row
#: would leave a runnable problem
GOOD_ROWS = ["0.5,0.0,0.0,0.5,0.5", "0.5,0.5,0.0,0.0,0.25", "0.5,-0.5,0.0,0.0,0.25"]


@pytest.mark.parametrize("bad_row, message", [
    ("0.5,0.0,0.0,0.0", "line 5: need 5 fields"),
    ("0.5,zero,0.0,0.0,0.0", "line 5: field rx is not a number: 'zero'"),
    ("c,rx,ry,rz,p", "line 5: field c is not a number: 'c'"),
    ("0.5,3.0,0.0,0.0,0.0", "line 5: fields rx, ry, rz give |r| = 3.0 > c = 0.5"),
    ("0.6,0.0,0.0,0.0,0.0", "line 5: field c must be 0.5"),
    ("nan,0.0,0.0,0.0,0.0", "line 5: field c must be 0.5"),
    ("0.5,0.0,0.0,0.0,-0.25", "line 5: field p must be >= 0"),
], ids=["short", "non-number", "second-header", "r-too-long", "trace", "nan", "negative-p"])
def test_qubit_disc_rejects_bad_rows(tmp_path, capsys, bad_row, message):
    # only the first non-empty row may be a header; every other row must be
    # a density operator with a prior p >= 0
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["c,rx,ry,rz,p", *GOOD_ROWS, bad_row]) + "\n")
    code, _ = run_cli(["qubit-disc", "--in", str(path)], tmp_path)
    assert code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------- tree-decompose


def test_tree_decompose_roundtrip_report(tmp_path):
    rng = np.random.default_rng(7)
    d, m = 4, 6
    mats = []
    for _ in range(m):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        mats.append(np.outer(v, v.conj()))
    total = sum(mats)
    si = povm.pinv_sqrt_psd(total)
    p = povm.Povm([si @ x @ si for x in mats])
    src = tmp_path / "p.json"
    src.write_text(ref.povm_to_json(p))
    code, text = run_cli(["tree-decompose", "--in", str(src)], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["dimension"] == d
    assert report["n_elements"] == m
    assert report["max_reconstruction_error"] < 1e-9
    # cross-check the reported error against a direct recomputation
    rebuilt = povm.reconstruct(povm.binary_tree_decompose(p))
    direct = max(
        float(np.max(np.abs(a - b))) for a, b in zip(p.elements, rebuilt.elements)
    )
    assert report["max_reconstruction_error"] == pytest.approx(direct, abs=1e-14)


def ill_conditioned_povm(seed=71, d=3, m=4):
    """m random elements whose eigenvalues span up to 14 decades, scaled so
    that their sum is <= 1, plus 1 minus that sum: a valid POVM."""
    rng = np.random.default_rng(seed)
    els = []
    for _ in range(m):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        _, u = np.linalg.eigh(x @ x.conj().T)
        els.append((u * 10 ** rng.uniform(-14, 0, d)) @ u.conj().T)
    lam = np.linalg.eigvalsh(sum(els)).max()
    els = [e / lam for e in els]
    return povm.Povm(els + [np.eye(d) - sum(els)])


def test_tree_decompose_rebuild_that_is_no_povm_is_a_numerical_failure(tmp_path, capsys):
    # the input is valid, but its rebuilt leaves do not sum to the identity:
    # a numerical failure (exit 3), not a configuration error (exit 2)
    src = tmp_path / "p.json"
    src.write_text(ref.povm_to_json(ill_conditioned_povm()))
    with pytest.raises(ValueError, match="do not sum to a projector/identity"):
        povm.reconstruct(povm.binary_tree_decompose(povm.povm_from_json(src.read_text())))
    assert run_cli(["tree-decompose", "--in", str(src)], tmp_path) == (3, "")
    assert ("error: numerical non-convergence: tree reconstruction is no POVM: "
            "POVM elements do not sum to a projector/identity") in capsys.readouterr().err


def test_tree_decompose_checks_the_reconstruction_error(tmp_path, monkeypatch, capsys):
    # a rebuild that is a POVM but not the input's: its leaves in reverse
    p = ill_conditioned_povm(seed=3, d=4, m=5)
    src = tmp_path / "p.json"
    src.write_text(ref.povm_to_json(p))
    assert run_cli(["tree-decompose", "--in", str(src)], tmp_path)[0] == 0
    rebuild = povm.reconstruct
    monkeypatch.setattr(povm, "reconstruct", lambda nested: povm.Povm(
        rebuild(nested).elements[::-1]))
    assert run_cli(["tree-decompose", "--in", str(src)], tmp_path, "swapped") == (3, "")
    assert "tree reconstruction error" in capsys.readouterr().err


def test_tree_decompose_warns_of_ambiguous_support():
    with pytest.warns(UserWarning, match="support detection ambiguous"):
        povm.binary_tree_decompose(ill_conditioned_povm())


def test_tree_decompose_scales_to_thousands_of_outcomes(tmp_path):
    # one batched step per tree level: 2,048 outcomes are 11 levels
    rng = np.random.default_rng(2048)
    d, m = 4, 2048
    x = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    mats = x @ x.conj().swapaxes(-1, -2)
    si = povm.pinv_sqrt_psd(mats.sum(axis=0))
    src = tmp_path / "p.json"
    src.write_text(ref.povm_to_json(povm.Povm(list(si @ mats @ si))))
    start = time.perf_counter()
    code, text = run_cli(["tree-decompose", "--in", str(src)], tmp_path)
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(text)
    assert report["depth"] == 11
    assert report["max_reconstruction_error"] <= 1e-9
    assert elapsed < 3.0


def pairs(matrix):
    """A matrix as the POVM JSON writes it: rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


@pytest.mark.parametrize("payload, message", [
    ({"elements": []}, "empty POVM"),
    ({"elements": [pairs(np.eye(2) / 2), pairs(np.eye(3) / 2)]},
     "POVM element 1 has shape (3, 3), not (2, 2)"),
    ({"elements": [pairs(np.diag([1, 0])), pairs(np.diag([math.nan, 1]))]},
     "POVM element 1 not finite"),
    ({"elements": [pairs(np.diag([0.5, 0])), pairs(np.diag([0, 0.5])),
                   pairs([[0.5, 0.3], [0, 0.5]])]}, "POVM element 2 not Hermitian"),
    ({"elements": [pairs(np.diag([1.5, 1])), pairs(np.diag([-0.5, 0]))]},
     "POVM element 1 not positive"),
    ({"elements": [pairs(np.diag([0.5, 0])), pairs(np.diag([0, 0.5]))]},
     "POVM elements do not sum to a projector/identity"),
    ({"elements": [pairs(np.diag([1, 0])), pairs(np.diag([0, 1]))], "labels": "ab"},
     "'labels' must be a list"),
    ({"elements": [pairs(np.diag([1, 0])), pairs(np.diag([0, 1]))], "labels": ["a"]},
     "POVM has 2 elements but 1 labels"),
], ids=["empty", "ragged", "not-finite", "not-hermitian", "negative", "not-a-projector",
        "labels-not-a-list", "labels-length"])
def test_tree_decompose_names_the_povm_fault(tmp_path, capsys, payload, message):
    src = tmp_path / "p.json"
    src.write_text(json.dumps(payload))
    assert run_cli(["tree-decompose", "--in", str(src)], tmp_path) == (2, "")
    assert message in capsys.readouterr().err


def test_tree_decompose_missing_file_is_io_error(tmp_path):
    code, _ = run_cli(["tree-decompose", "--in", str(tmp_path / "nope.json")], tmp_path)
    assert code == 4


# ---------------------------------------------------------- gaussian-check


def test_gaussian_check_physical_and_unphysical(tmp_path):
    src = tmp_path / "g.json"
    src.write_text(
        json.dumps(
            {
                "state": {"mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]},
                "channel": {
                    "A": [[0.8, 0.0], [0.0, 0.8]],
                    "B": [[0.18, 0.0], [0.0, 0.18]],
                    "b": [0.0, 0.0],
                },
            }
        )
    )
    code, text = run_cli(["gaussian-check", "--in", str(src)], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["state"]["physical"] is True
    assert report["state"]["williamson_eigenvalues"] == [0.5]
    assert report["channel"]["physical"] is True

    src.write_text(
        json.dumps({"state": {"mean": [0.0, 0.0], "cov": [[0.1, 0.0], [0.0, 0.1]]}})
    )
    code, text = run_cli(["gaussian-check", "--in", str(src)], tmp_path, "out2")
    assert code == 0
    assert json.loads(text)["state"]["physical"] is False


@pytest.mark.parametrize("payload, field", [
    ({"state": {"mean": [float("nan"), 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]}}, "mean"),
    ({"state": {"mean": [0.0, 0.0], "cov": [[float("inf"), 0.0], [0.0, 0.5]]}}, "cov"),
    ({"channel": {"A": [[float("nan"), 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]],
                  "b": [0.0, 0.0]}}, "A"),
    ({"channel": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]],
                  "b": [0.0, float("inf")]}}, "b"),
])
def test_gaussian_check_calls_non_finite_fields_unphysical(tmp_path, capsys, payload, field):
    # a nan mean was reported "physical": true, and an inf cov printed a
    # numpy RuntimeWarning to stderr before its report
    src = tmp_path / "g.json"
    src.write_text(json.dumps(payload))
    code, text = run_cli(["gaussian-check", "--in", str(src)], tmp_path)
    (_, report), = json.loads(text).items()
    assert code == 0 and report == {"physical": False, "reason": f"{field} must be finite"}
    assert capsys.readouterr().err == ""


def test_hadamard_rates_bounds_m_before_allocating(tmp_path, capsys):
    # --M 100000 asked for a 74.5 GiB (M, M) array and exited 1 with a traceback
    argv = ["hadamard-rates", "--N", "2", "--E-grid", "0.5:0.5:1"]
    code, _ = run_cli(argv + ["--M", "100000"], tmp_path)
    assert code == 2
    assert f"--M must be at most {cli.M_MAX}, got 100000" in capsys.readouterr().err
    assert run_cli(argv + ["--M", str(cli.M_MAX + 1)], tmp_path)[0] == 2
    code, text = run_cli(argv + ["--M", str(cli.M_MAX)], tmp_path)
    assert code == 0 and len(parse_csv(text)[1]) == 1


@pytest.mark.parametrize("argv, message", [
    (["bpsk-sweep", "--receiver", "nhpa", "--steps", "17"], "--steps must be at most 16, got 17"),
    (["bpsk-sweep", "--receiver", "kennedy", "--alpha-grid", "0:1:100000000"],
     "--alpha-grid must have at most 10000 points, got 100000000"),
    (["hadamard-rates", "--M", "3", "--N", "2", "--J", "100000000"],
     "--J 100000000 asks for 900000000 floats per energy (9 per step); at most 8388608"),
    (["hadamard-rates", "--M", "3", "--N", "2", "--E-grid", "log:1e-4:1:100000000"],
     "--E-grid must have at most 10000 points, got 100000000"),
    (["hadamard-rates", "--M", "64", "--N", "2,4,...,1024", "--E-grid", "log:1e-4:1:205"],
     "--E-grid and --N ask for 205 x 10 rates of 64 x 64 floats, 8396800 in all; "
     "at most 8388608"),
    (["hadamard-rates", "--M", "3", "--N", "2,4,...,18446744073709551616"],
     "--N code lengths must be at most 2^62, got 9223372036854775808"),
    (["figures", "--points", "10001"], "--points must be at most 10000, got 10001"),
], ids=["steps", "alpha-grid", "J", "E-grid", "E-grid-and-N", "N", "points"])
def test_size_bounds_exit_2_before_any_work(tmp_path, capsys, argv, message):
    # --J 10^8 was killed for its memory, --steps 20 ran for minutes, and a
    # 2^64 code length ended in a numpy object-array dump
    out = ["--outdir" if argv[0] == "figures" else "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    code = cli.main(argv + out)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_steps_cap_admits_its_bound(tmp_path):
    # the kennedy base nulls exactly, so its tree stays small at any depth
    code, text = run_cli(["bpsk-sweep", "--receiver", "kennedy", "--steps", str(cli.STEPS_MAX),
                          "--alpha-grid", "0.4:0.4:1"], tmp_path)
    assert code == 0
    assert float(parse_csv(text)[1][0][1]) == pytest.approx(receivers.kennedy_psucc(0.4, -0.4),
                                                            abs=1e-12)


def test_rate_float_cap_admits_its_bound(tmp_path, monkeypatch):
    # 2 energies x 2 code lengths x 3^2 floats, and --J 4 x 3^2 per energy
    argv = ["hadamard-rates", "--M", "3", "--N", "2,4", "--E-grid", "0.1:0.2:2"]
    monkeypatch.setattr(cli, "RATE_FLOATS_MAX", 36)
    assert run_cli(argv + ["--J", "4"], tmp_path)[0] == 0
    assert run_cli(argv + ["--J", "5"], tmp_path)[0] == 2
    monkeypatch.setattr(cli, "RATE_FLOATS_MAX", 35)
    assert run_cli(argv, tmp_path)[0] == 2


def test_gaussian_check_rejects_bad_json(tmp_path):
    src = tmp_path / "g.json"
    src.write_text("{not json")
    code, _ = run_cli(["gaussian-check", "--in", str(src)], tmp_path)
    assert code == 2


@pytest.mark.parametrize("command, payload, field", [
    ("tree-decompose", {}, "'elements'"),
    ("tree-decompose", [1, 2], "'elements'"),
    ("tree-decompose", {"elements": [[[1]]]}, "'elements'[0]"),
    ("gaussian-check", {"state": 5}, "'state'"),
    ("gaussian-check", {"channel": [1]}, "'channel'"),
])
def test_wrong_json_types_are_config_errors(tmp_path, capsys, command, payload, field):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    code, _ = run_cli([command, "--in", str(src)], tmp_path)
    assert code == 2
    assert field in capsys.readouterr().err


def test_gaussian_check_missing_keys_stay_unphysical(tmp_path):
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"state": {"mean": [0.0, 0.0]}, "channel": {}}))
    code, text = run_cli(["gaussian-check", "--in", str(src)], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["state"] == {"physical": False, "reason": "'cov'"}
    assert report["channel"] == {"physical": False, "reason": "'A'"}


# ----------------------------------------------------------------- config


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha-grid": "0.2:0.2:1", "receiver": "kennedy"}))
    code, text = run_cli(
        ["bpsk-sweep", "--receiver", "homodyne", "--config", str(cfg)], tmp_path
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(0.04, abs=1e-12)
    alpha = 0.2
    assert float(rows[0][1]) == pytest.approx(receivers.kennedy_psucc(alpha, -alpha), abs=1e-12)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus-flag": 1}))
    code, _ = run_cli(["bpsk-sweep", "--receiver", "kennedy", "--config", str(cfg)], tmp_path)
    assert code == 2


RATES_ARGV = ["hadamard-rates", "--M", "2", "--N", "2", "--E-grid", "0.1:0.1:1"]


@pytest.mark.parametrize("flag, value", [
    ("M", "4"), ("N", "2,4"), ("E-grid", "0.1:0.2:2"), ("kernel", "realistic"), ("J", "10"),
])
def test_config_accepts_every_hadamard_rates_flag(tmp_path, flag, value):
    # a key is the flag without its dashes or its dest, with - and _
    # interchangeable; each gives the bytes of the flag on the command line
    argv = RATES_ARGV + (["--M", "3"] if flag == "kernel" else [])
    code, want = run_cli(argv + [f"--{flag}", value], tmp_path, "flag")
    assert code == 0
    dest = flag.lower().replace("-", "_")
    for key in {flag, flag.replace("-", "_"), dest, dest.replace("_", "-")}:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(argv + ["--config", str(cfg)], tmp_path, "config") == (0, want), key


@pytest.mark.parametrize("key", ["bogus", "func", "command", "command_parser", "help", "Kernel"])
def test_config_rejects_names_that_are_not_flags(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert run_cli(RATES_ARGV + ["--config", str(cfg)], tmp_path) == (2, "")
    assert f"config key {key!r} is not a flag of this subcommand" in capsys.readouterr().err


INT_FLAG_ARGV = {
    "--M": RATES_ARGV,
    "--J": RATES_ARGV,
    "--steps": ["bpsk-sweep", "--receiver", "kennedy", "--alpha-grid", "0.4:0.4:1"],
    "--points": ["figures", "--only", "optimal-rates"],
}


@pytest.mark.parametrize("flag, value, text", [
    ("--M", 3.9, "3.9"), ("--M", True, "true"), ("--M", "3.5", "3.5"), ("--M", [3], "[3]"),
    ("--M", 4.0, "4.0"), ("--steps", 2.5, "2.5"), ("--steps", "1.5", "1.5"),
    ("--points", 2.9, "2.9"), ("--points", "2.9", "2.9"), ("--J", 1.5, "1.5"),
    ("--J", "x", "x"), ("--J", False, "false"), ("--J", None, "null"),
])
def test_integer_flags_reject_non_integers(tmp_path, capsys, flag, value, text):
    # int() once truncated 3.9 to M = 3 and told a bad string only that it
    # was an "invalid literal for int()"; a config value is its JSON text
    argv = INT_FLAG_ARGV[flag] + ["--outdir" if flag == "--points" else "--out",
                                  str(tmp_path / "out")]
    if isinstance(value, str):
        code = cli.main(argv + [flag, value])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        code = cli.main(argv + ["--config", str(cfg)])
    assert code == 2
    what = "an integer or 'inf'" if flag == "--J" else "an integer"
    assert f"error: {flag} must be {what}, got {text}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, least", [
    ("--M", "0", 1), ("--J", "0", 1), ("--steps", "-1", 1), ("--points", "1", 2),
])
def test_integer_flags_name_their_lower_bound(tmp_path, capsys, flag, value, least):
    argv = INT_FLAG_ARGV[flag] + ["--outdir" if flag == "--points" else "--out",
                                  str(tmp_path / "out"), flag, value]
    assert cli.main(argv) == 2
    assert f"error: {flag} must be >= {least}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--M", 4), ("--M", "4"), ("--J", 10)])
def test_integer_flags_accept_integers(tmp_path, flag, value):
    # an integer string, or an integer in a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    code, text = run_cli(RATES_ARGV + ["--config", str(cfg)], tmp_path, "config")
    assert (code, text) == run_cli(RATES_ARGV + [flag, str(value)], tmp_path, "flag")
    assert text != run_cli(RATES_ARGV, tmp_path, "default")[1]


@pytest.mark.parametrize("argv, config, message", [
    (RATES_ARGV, {"E-grid": 5}, "grid must be [lin:|log:]a:b:n, got '5'"),
    (RATES_ARGV, {"kernel": 3}, "unknown kernel kind '3'"),
    (["figures", "--outdir", "figs"], {"only": 5}, "unknown figure dataset(s): ['5']"),
])
def test_config_values_of_other_json_types_are_their_text(tmp_path, capsys, argv, config,
                                                          message):
    # a number for a text flag once reached str.split and ended in a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------- figures


def test_figures_emits_selected_dataset(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code = cli.main(
        ["figures", "--outdir", str(outdir), "--points", "3", "--only", "optimal-rates"]
    )
    assert code == 0
    path = outdir / "optimal-rates.csv"
    assert path.exists()
    header, rows = parse_csv(path.read_text())
    assert header == ["E", "N", "M", "rate_per_energy", "capacity_per_energy"]
    for r in rows:
        assert float(r[3]) <= float(r[4]) + 1e-9


def test_figures_rejects_unknown_dataset(tmp_path):
    code = cli.main(["figures", "--outdir", str(tmp_path), "--only", "nope"])
    assert code == 2


# ------------------------------------------------------------- exit codes


def test_nonconvergence_maps_to_exit_3(tmp_path, monkeypatch):
    from qrx.errors import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic")

    monkeypatch.setattr(cli.hadamard, "had_rate", boom)
    code, _ = run_cli(
        ["hadamard-rates", "--M", "2", "--N", "2", "--E-grid", "0.05:0.05:1"], tmp_path
    )
    assert code == 3


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "qrx.cli", "bpsk-sweep", "--receiver", "helstrom",
         "--alpha-grid", "0.3:0.3:1"],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("alpha_sq,p_succ,p_helstrom,gap")


# ---------------------------------------------------------------- imports

#: the directory this qrx was imported from, for fresh interpreters
SRC = os.path.dirname(os.path.dirname(cli.__file__))
LOADED = "[k for k in sys.modules if k.startswith(('scipy', 'numba'))]"


def fresh_env():
    """The environment of a fresh interpreter that imports this qrx."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports this qrx; return stdout."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=fresh_env())
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_cli_loads_no_scipy_or_numba():
    assert json.loads(run_fresh(f"import json, sys, qrx.cli; print(json.dumps({LOADED}))")) == []


@pytest.mark.parametrize("args", [
    ["hadamard-rates", "--M", "4", "--N", "2,4,...,64", "--kernel", "realistic",
     "--E-grid", "log:0.001:1:6"],
    ["bpsk-sweep", "--receiver", "nhpa", "--alpha-grid", "0.05:1.0:10"],
    ["bpsk-sweep", "--receiver", "ts", "--alpha-grid", "0.05:1.0:4"],
    ["bpsk-sweep", "--receiver", "cavity", "--alpha-grid", "0.05:1.0:10"],
], ids=["hadamard-rates", "bpsk-sweep-nhpa", "bpsk-sweep-ts", "bpsk-sweep-cavity"])
def test_fresh_request_loads_no_scipy(tmp_path, args):
    fresh = tmp_path / "fresh"
    argv = args + ["--out", str(fresh)]
    code, loaded = json.loads(run_fresh(
        f"import json, sys; from qrx import cli; code = cli.main({argv!r}); "
        f"print(json.dumps([code, {LOADED}]))"))
    assert (code, loaded) == (0, [])
    assert run_cli(args, tmp_path, "in_process")[0] == 0
    assert fresh.read_bytes() == (tmp_path / "in_process").read_bytes()


def test_everything_runs_with_scipy_blocked(tmp_path):
    # every CLI command and the kernels that once called scipy, in a fresh
    # interpreter where `import scipy` fails; CLI outputs match in-process runs
    povm_json = tmp_path / "p.json"
    povm_json.write_text(ref.povm_to_json(povm.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])))
    gauss_json = tmp_path / "g.json"
    gauss_json.write_text(json.dumps({"state": {"mean": [0.0, 0.0], "cov": [[0.5, 0], [0, 0.5]]}}))
    commands = [
        ["bpsk-sweep", "--receiver", "ts", "--alpha-grid", "0.3:0.6:2"],
        ["bpsk-sweep", "--receiver", "cavity", "--alpha-grid", "0.3:0.6:2"],
        ["bpsk-sweep", "--receiver", "nhpa", "--steps", "2", "--alpha-grid", "0.4:0.4:1"],
        ["hadamard-rates", "--M", "4", "--N", "2,4", "--kernel", "realistic",
         "--E-grid", "log:0.01:0.1:2"],
        ["qubit-disc", "--in", str(trine_csv(tmp_path))],
        ["tree-decompose", "--in", str(povm_json)],
        ["gaussian-check", "--in", str(gauss_json)],
    ]
    blocked = [args + ["--out", str(tmp_path / f"blocked{i}")] for i, args in enumerate(commands)]
    blocked.append(["figures", "--points", "2", "--outdir", str(tmp_path / "blocked_figures")])
    out = run_fresh(f"""
import json, sys
sys.modules["scipy"] = None
from qrx import cli, fock
codes = [cli.main(argv) for argv in {blocked!r}]
fock._log_factorials(40)
print(json.dumps(codes))
""")
    codes = json.loads(out.splitlines()[-1])  # figures lists its files first
    assert codes == [0] * len(blocked)
    for i, args in enumerate(commands):
        assert run_cli(args, tmp_path, f"in_process{i}")[0] == 0
        assert (tmp_path / f"blocked{i}").read_bytes() == (tmp_path / f"in_process{i}").read_bytes()
    assert len(os.listdir(tmp_path / "blocked_figures")) == 4


def test_every_exported_name_resolves():
    # a public name that is renamed or deleted must leave __all__ too
    import pkgutil

    import qrx

    names = ["qrx"] + [f"qrx.{m.name}" for m in pkgutil.iter_modules(qrx.__path__)]
    modules = [importlib.import_module(name) for name in names]
    exported = {mod.__name__: mod.__all__ for mod in modules if hasattr(mod, "__all__")}
    assert {"qrx", "qrx.hadamard"} <= set(exported)
    for name, public in exported.items():
        assert len(set(public)) == len(public), name
        assert [n for n in public if not hasattr(sys.modules[name], n)] == [], name


def load_tracing():
    """perfbench/tracing.py, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_hooks_exist():
    # perfbench's tracer wraps these private names of qrx modules by getattr,
    # so renaming one breaks traced benchmark runs
    tracing = load_tracing()
    assert tracing.PRIVATE
    for layer, names in tracing.PRIVATE.items():
        module = importlib.import_module(f"qrx.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qrx.{layer}.{name}"


def test_tracer_installs_and_uninstalls(tmp_path):
    # what `perfbench/run.py --trace 1` does: wrap every layer (each name of
    # tracing.PRIVATE and hadamard.integrate are looked up), run a request
    # traced, and put every original back
    tracing = load_tracing()
    modules = tracing.layer_modules()
    before = {(layer, name): getattr(modules[layer], name)
              for layer, names in tracing.PRIVATE.items() for name in names}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert all(getattr(modules[layer], name) is not fn for (layer, name), fn in before.items())
        tracer.active = True
        assert run_cli(["qubit-disc", "--in", str(trine_csv(tmp_path))], tmp_path)[0] == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    assert all(getattr(modules[layer], name) is fn for (layer, name), fn in before.items())
    assert any(node.name == "qubit_disc.f_value" for node in tracer.nodes)


def test_tracer_traces_a_ts_request(tmp_path):
    # `--trace 1` on a receiver request: ts_optimize shows in its metric, each
    # of ts's 11 objective calls evaluates a whole grid, and the CSV keeps the
    # bytes of an untraced run
    argv = ["bpsk-sweep", "--receiver", "ts", "--alpha-grid", "0.3:0.3:1"]
    assert run_cli(argv, tmp_path, "plain")[0] == 0
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_modules())
    try:
        tracer.active = True
        assert run_cli(argv, tmp_path, "traced")[0] == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.per_layer()
    assert metrics["receivers.ts_optimize.s"] > 0
    assert metrics["receivers.psucc.calls"] == 11
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()


def test_qubit_disc_gap_failure_exits_3(tmp_path, monkeypatch, capsys):
    dual = qubit_disc._dual
    monkeypatch.setattr(qubit_disc, "_dual", lambda w: (dual(w)[0] + 1e-6, dual(w)[1]))
    code, text = run_cli(["qubit-disc", "--in", str(trine_csv(tmp_path))], tmp_path)
    assert (code, text) == (3, "")
    assert "from the dual value" in capsys.readouterr().err


def test_hadamard_integrate_is_scipy_integrate():
    # perfbench's tracer swaps this name for a counting shim
    import scipy.integrate

    assert hadamard.integrate is scipy.integrate
    with pytest.raises(AttributeError):
        hadamard.no_such_name
