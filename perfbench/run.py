"""qrx benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rates --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  A result file with the run's
metadata, every request and every metric goes to ``perfbench/out/``.

Workloads
---------
Each workload is a closed loop with one client in one process: the next
request starts when the previous one returns.  A request is an in-process
``qrx.cli.main(argv)`` call that writes its CSV or JSON to a file.  Requests
come in rounds with a fixed mix (see ``workloads.py``).  A run holds a fixed
number of rounds, set by the workload and ``--seconds`` alone: about
``--seconds`` of work at the commit that added the benchmark, so a faster
program finishes sooner, and every run has the same mix and the same number
of requests whatever the seed and the speed of the machine.  Only a program
so slow that the requests take more than 1.75 times ``--seconds`` ends the
run early, after a whole round.  Before timing, one fixed
warm-up request of each kind runs, and its output is compared with
``reference.json`` at abs 1e-9.

* ``rates``: hadamard-rates over M in {3, 4, 8} with the Helstrom kernel at
  J=inf (adaptive quadrature) and at J in {10, 30, 100} (plain sums), the
  realistic kernel for M in {3, 4}, N = 2..1024, one energy in [1e-4, 1]
  per request (stratified over the run, with a seeded offset), and two
  figures requests per run with seeded ``--points`` adding up to nine.  This is the paper's rate
  analysis: hadamard's quadrature does nearly all the work.
* ``bpsk``: one single-point bpsk-sweep request per (receiver, alpha) over
  opt_kennedy, dephaser, cavity, nhpa, ts and multi-step Dolinar, alphas
  seeded points of the documented grid 0.05:1.0:40 in ten strata of four
  points, including both endpoints.  receivers' optimizers and fock's state
  construction do the work.  The cavity receiver fails with TruncationError
  on the grid's first four points (alpha below ~0.146), one request in each
  round; those requests count as failed and stay in the mix.
* ``disc``: qubit-disc on seeded 3- and 4-state ensembles (pure and mixed,
  coplanar and 3-D, plus a rotated trine where the closed form applies),
  tree-decompose on seeded POVMs with d in [4, 32], and gaussian-check on
  physical and unphysical inputs.  qubit_disc's grid and pattern searches do
  the work; povm and gaussian are the light JSON path.

``correct`` is false when a request that exited 0 fails an output check
(``checks.py``) or a warm-up output differs from ``reference.json``.  A
request that exits non-zero, like the cavity receiver's TruncationError, is
failed but not incorrect: it counts in ``failed``.

The benchmark's own tests: ``python3 -m pytest -q perfbench``.  After a
change that is meant to move the reference numbers, rewrite the table with
``python3 perfbench/make_reference.py`` in the same change.

End-to-end metrics (``--trace 0``)
----------------------------------
``points_per_s``    rows (CSV) or reports (JSON) of successful requests per
                    second spent in requests.
``request_p50_s``   median latency of successful requests.
``request_tail_s``  latency of the 11th slowest successful request: the
                    highest percentile with at least ten samples beyond it.
                    The lines above the JSON give that percentile and the
                    sample count; with 40 requests it is the 75th
                    percentile, with 100 the 90th.  It describes the slow
                    request classes of the mix, not one outlier.
``ok_share``        1 - failed_share: requests that exited 0 and passed
                    every output check, over requests attempted.  The
                    failed share itself is printed above the JSON and is
                    ``failed/attempted`` in it.
``peak_rss_mb``     peak resident memory of the benchmark process.
``setup_s``         median wall time of ``import qrx.cli`` in a fresh
                    interpreter, over three interpreters.

Per-layer metrics (``--trace 1``)
---------------------------------
The layers are the qrx modules cli, hadamard, receivers, fock, qubit_disc,
povm and gaussian (info has no CLI caller).  A traced run wraps their
public functions from ``tracing.py``, runs the first half of the rounds,
then runs the same requests untraced; ``trace.overhead`` is traced over
untraced request time, minus 1.  ``<module>.<function>.s`` is inclusive
time, ``<layer>.self_s`` the layer's own time (children subtracted).
Which end-to-end metric each should move (class latencies measured on a
2-core x86 VM with one BLAS thread):

* hadamard.* -> all three rates metrics and nothing on bpsk or disc.  The
  rates median sits among the M=8 J=inf requests and the realistic M=4
  ones (~0.45 s); its tail among the realistic M=3 requests at E >= 1e-2
  (~0.9 s).  The J=10/30/100 classes call psk_helstrom_prob as plain sums,
  so a cheaper quadrature with a dearer kernel call still shows.
* receivers.* -> bpsk.points_per_s: nhpa_optimize, ts_optimize and
  dolinar_multistep take most of the request time.  evals_per_point is
  objective evaluations per sweep point.
* fock.* -> bpsk.request_p50_s, which sits in the cavity class (~40 ms,
  coherent_state on every trial beta), and bpsk.request_tail_s, which sits
  at the top of the ts and nhpa classes (~0.23 s; squeeze_operator is ~85%
  of ts_optimize).  fock.truncation_errors counts the cavity failures, so
  it moves bpsk.ok_share.
* qubit_disc.* -> all three disc metrics: the fully 3-D 4-state ensemble
  (~5 s, 4-D grid) sets disc.points_per_s; the median and the tail sit in
  the 3-state and coplanar classes (0.15-0.25 s).  qubit_disc.warnings
  counts f_value_matrix's LinAlgWarning.
* povm.*, gaussian.s -> nothing measurable: their requests take a few ms.
* cli.io_s, cli.self_s: output formatting and argument handling, under 1%
  of every workload.

Environment
-----------
One client thread and one BLAS/OpenMP thread: the benchmark sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy loads, in its own process and in the set-up interpreters.  The
default pool of two threads on a 2-core machine makes the ts receiver ~17x
slower, and its time then swings with the load of the machine.  The result
file records the BLAS thread counts, ``QRX_THREADS`` and ``QRX_BACKEND``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 5
#: a run stops starting rounds once its request time passes this many
#: times --seconds, so a much slower program still ends in time
OVERRUN = 1.75
#: successful requests beyond the tail percentile
TAIL_BEYOND = 10
#: absolute tolerance of the reference-table comparison
REFERENCE_TOL = 1e-9

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def pin_threads() -> None:
    """One thread per process: BLAS and OpenMP pools sized 1 before numpy
    loads.  With the default pool on a 2-core machine the ts receiver runs
    ~17x slower and its time swings by +-20% with the load of the machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------- set-up


def measure_setup() -> float:
    """Median wall time of ``import qrx.cli`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import qrx.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"import qrx.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def metadata(args) -> dict:
    import numpy as np
    import scipy

    try:
        # no search above the checkout for a repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False, env=env)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qrx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    def blas(module) -> dict | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return None

    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("QRX_THREADS", "QRX_BACKEND",
                                               "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------- requests


class Runner:
    """Runs requests in-process and keeps what the checks need."""

    def __init__(self, cli, workdir: str, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer

    def write_inputs(self, requests) -> None:
        for req in requests:
            if req.input_text is not None:
                with open(self.input_path(req), "w") as handle:
                    handle.write(req.input_text)

    def input_path(self, req) -> str:
        return os.path.join(self.workdir, f"{req.id}.in{req.input_suffix}")

    def execute(self, req, tag: str) -> dict:
        out = os.path.join(self.workdir, f"{req.id}.{tag}")
        argv = list(req.argv)
        if req.input_text is not None:
            argv += ["--in", self.input_path(req)]
        argv += ["--outdir" if req.output == "figures" else "--out", out]
        caught = []
        stderr = io.StringIO()
        error = None
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, category, *a, **k: self._warned(caught, category)
            if self.tracer is not None:
                self.tracer.request = req.id
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a request must not stop the loop
                code, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        return {"id": req.id, "kind": req.kind, "code": code, "latency": latency, "out": out,
                "stderr": (error or stderr.getvalue().strip())[-500:],
                "warnings": caught}

    def _warned(self, caught: list, category) -> None:
        caught.append(category.__name__)
        if self.tracer is not None and self.tracer.active:
            self.tracer.warning(category)


def run_rounds(runner, rounds: list, tag: str, limit: float) -> tuple:
    """The given rounds, each whole, in order; no round starts once the time
    spent in requests passes ``limit``.  Returns (rounds run, results,
    request wall time)."""
    done, results, wall = [], [], 0.0
    for reqs in rounds:
        if wall > limit:
            break
        runner.write_inputs(reqs)
        t0 = time.perf_counter()
        results += [runner.execute(req, tag) for req in reqs]
        wall += time.perf_counter() - t0
        done.append(reqs)
    return done, results, wall


def check_results(requests, results, optimal_rate) -> None:
    """Attach points, output problems and ok (exit 0 and no problem) to
    every result."""
    import checks

    for req, res in zip(requests, results):
        res["points"], res["problems"] = 0, []
        if res["code"] == 0:
            try:
                res["points"], res["problems"] = checks.check_request(req, res["out"], optimal_rate)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res["problems"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        res["ok"] = res["code"] == 0 and not res["problems"]


# --------------------------------------------------------------- reference


def reference_values(req, path: str) -> dict:
    """The numbers of an output that the reference table pins down."""
    import checks

    if req.output == "figures":
        values = {}
        for name in req.meta["only"]:
            with open(os.path.join(path, f"{name}.csv"), newline="") as handle:
                header, rows = checks.parse_csv(handle.read())
            values[name] = [header] + rows
        return {k: _numbers(v) for k, v in values.items()}
    with open(path, newline="") as handle:
        text = handle.read()
    if req.output == "csv":
        header, rows = checks.parse_csv(text)
        if req.argv[0] == "bpsk-sweep":
            return {"table": _numbers([header[:4]] + [row[:4] for row in rows])}
        return {"table": _numbers([header] + rows)}
    report = json.loads(text)
    if req.argv[0] == "qubit-disc":
        return {k: report[k] for k in ("n_states", "p_succ")}
    if req.argv[0] == "gaussian-check":
        return {part: {k: v for k, v in fields.items() if k != "reason"}
                for part, fields in report.items()}
    return report


def _numbers(table: list) -> list:
    def conv(x):
        try:
            return float(x)
        except ValueError:
            return x
    return [[conv(x) for x in row] for row in table]


def compare(expected, actual, where: str = "") -> list:
    """Differences between two JSON-like values; numbers at abs 1e-9."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, bool) or isinstance(actual, bool) or \
            not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
        return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]
    if not abs(expected - actual) <= REFERENCE_TOL:
        return [f"{where}: {actual!r} differs from {expected!r} by {abs(actual - expected):.3g}"]
    return []


def run_reference(runner, workload: str, optimal_rate) -> tuple:
    """Warm-up: the workload's fixed reference requests, compared with the
    committed table.  Returns (results, reference problems)."""
    import workloads

    with open(REFERENCE) as handle:
        table = json.load(handle)
    reqs = workloads.reference_requests(workload)
    runner.write_inputs(reqs)
    results = [runner.execute(req, "ref") for req in reqs]
    check_results(reqs, results, optimal_rate)
    problems = []
    for req, res in zip(reqs, results):
        if res["code"] != 0:
            problems.append(f"{req.id}: exit {res['code']}: {res['stderr']}")
            continue
        if req.id not in table:
            problems.append(f"{req.id}: missing from reference.json")
            continue
        problems += [f"{req.id}{d}" for d in compare(table[req.id], reference_values(req, res["out"]))]
        problems += [f"{req.id}: {p}" for p in res["problems"]]
    return results, problems


# ------------------------------------------------------------------ metrics


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND+1)-th largest latency."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results: list, wall: float) -> tuple:
    ok = [r for r in results if r["ok"]]
    lat = [r["latency"] for r in ok]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "points_per_s": sum(r["points"] for r in ok) / wall,
        "request_p50_s": statistics.median(lat),
        "request_tail_s": tail_s,
        "ok_share": len(ok) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": tail_pct, "successful": len(ok),
            "failed_share": 1.0 - len(ok) / len(results), "wall_s": wall}
    return metrics, info


def summarize_kinds(results: list) -> dict:
    out: dict = {}
    for r in results:
        k = out.setdefault(r["kind"], {"n": 0, "failed": 0, "latencies": []})
        k["n"] += 1
        k["failed"] += not r["ok"]
        k["latencies"].append(r["latency"])
    for k in out.values():
        lat = k.pop("latencies")
        k["median_s"] = statistics.median(lat)
        k["max_s"] = max(lat)
    return out


def warning_counts(results: list) -> dict:
    out: dict = {}
    for r in results:
        for name in r["warnings"]:
            out[name] = out.get(name, 0) + 1
    return out


# --------------------------------------------------------------------- main


def measure_plain(runner, rounds: list, seconds: float, optimal_rate) -> tuple:
    """End-to-end run.  Returns (rounds, results, all checked results,
    metrics, info)."""
    rounds, results, wall = run_rounds(runner, rounds, "out", OVERRUN * seconds)
    check_results([q for rnd in rounds for q in rnd], results, optimal_rate)
    metrics, info = end_to_end(results, wall)
    return rounds, results, results, metrics, info


def measure_traced(runner, rounds: list, seconds: float, optimal_rate, spans_path: str) -> tuple:
    """The first half of the rounds traced, then the same rounds untraced
    for the overhead.  Returns (rounds, traced results, all checked results,
    metrics, info)."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(tracing.layer_modules())
    runner.tracer = tracer
    tracer.active = True
    try:
        rounds, results, wall = run_rounds(runner, rounds[:max(1, len(rounds) // 2)], "traced",
                                           OVERRUN * seconds / 2.0)
    finally:
        tracer.active = False
        tracer.uninstall()
        runner.tracer = None
    _, plain, plain_wall = run_rounds(runner, rounds, "plain", float("inf"))
    reqs = [q for rnd in rounds for q in rnd]
    check_results(reqs, results, optimal_rate)
    check_results(reqs, plain, optimal_rate)
    metrics = tracer.per_layer()
    metrics["trace.overhead"] = wall / plain_wall - 1.0
    with open(spans_path, "w") as handle:
        json.dump({"nodes": [n.as_dict() for n in tracer.nodes], "counters": tracer.counters},
                  handle)
    info = {"wall_s": wall, "untraced_wall_s": plain_wall,
            "untraced_failed": sum(not r["ok"] for r in plain)}
    return rounds, results, results + plain, metrics, info


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trace.overhead":
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "fock.cutoff_mean":
        return "photons"
    if name.endswith("per_call"):
        return "evals/call"
    if name.endswith("per_point"):
        return "evals/point"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("rates", "bpsk", "disc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    if not os.path.isfile(os.path.join(SRC, "qrx", "cli.py")):
        fail(f"no qrx sources under {SRC}; run from the root of a qrx checkout")

    setup_s = measure_setup() if args.trace == 0 else None
    sys.path.insert(0, SRC)
    from qrx import cli, hadamard

    import workloads

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{stem}-{os.getpid()}")
    os.makedirs(workdir)

    planned = workloads.make_rounds(args.workload, args.seed,
                                    workloads.rounds_for(args.workload, args.seconds))
    try:
        runner = Runner(cli, workdir)
        ref_results, ref_problems = run_reference(runner, args.workload, hadamard.optimal_rate)
        if args.trace == 0:
            rounds, results, checked, metrics, info = measure_plain(
                runner, planned, args.seconds, hadamard.optimal_rate)
            metrics["setup_s"] = setup_s
        else:
            rounds, results, checked, metrics, info = measure_traced(
                runner, planned, args.seconds, hadamard.optimal_rate,
                os.path.join(OUT, f"{stem}-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    correct = not ref_problems and not any(r["code"] == 0 and r["problems"] for r in checked)
    record = {
        "metadata": metadata(args), "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "info": info, "rounds": len(rounds),
        "reference_problems": ref_problems,
        "warmup": [{k: r[k] for k in ("id", "kind", "code", "latency")} for r in ref_results],
        "planned_rounds": len(planned), "kinds": summarize_kinds(results),
        "warnings": warning_counts(checked),
        "requests": [{k: r[k] for k in ("id", "kind", "code", "latency", "points", "problems",
                                         "stderr", "warnings")} for r in results],
    }
    with open(os.path.join(OUT, f"{stem}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for problem in ref_problems:
        print(f"reference mismatch: {problem}")
    for r in checked:
        if not r["ok"]:
            why = "; ".join(r["problems"]) or f"exit {r['code']}: {r['stderr']}"
            print(f"failed {r['id']} {r['kind']}: {why}")
    for name, value in info.items():
        print(f"{args.workload}.{name} = {value:.6g}")
    print(f"{args.workload}.rounds = {len(rounds)}  requests = {attempted}  failed = {failed}")
    for name, value in record["warnings"].items():
        print(f"{args.workload}.warnings.{name} = {value}")
    for name, value in metrics.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
