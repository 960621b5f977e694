"""Output checks.  Each takes a request and its output and returns
``(points, problems)``: the rows or reports the request produced, and a list
of what was wrong with them (empty when the output is correct).

The bounds are relations that any correct output satisfies:

* rates: 0 <= rate <= optimal_rate(N, M, E) <= C(E) within 1e-12, where the
  benchmark evaluates C(E) = (E+1)log2(E+1) - E log2 E itself;
* bpsk: p_helstrom = (1 + sqrt(1 - exp(-4 alpha^2)))/2, p_succ <= p_helstrom,
  gap = p_helstrom - p_succ, and within 1e-9 nhpa >= optimized Kennedy and
  ts >= the amp_inf dephaser, both optimized here independently;
* qubit-disc: max_k p_k <= p_succ <= 1, p_succ >= the pretty-good
  measurement's success, and q_opt is an effect (0 <= Q <= 1);
* tree-decompose: max_reconstruction_error < 1e-9;
* gaussian-check: the physical flags match how the input was built.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

TOL = 1e-12
DOMINANCE_TOL = 1e-9
EFFECT_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9


def capacity(e: float) -> float:
    """C(E) of the lossless bosonic channel, in bits per mode."""
    if e == 0.0:
        return 0.0
    return (e + 1.0) * math.log2(e + 1.0) - e * math.log2(e)


def parse_csv(text: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return rows[0], rows[1:]


# -------------------------------------------------------------------- rates


def check_rates_rows(header, rows, optimal_rate, expected_rows=None) -> list:
    """hadamard-rates CSV: E, N, M, kind, rate, capacity."""
    problems = []
    if header != ["E", "N", "M", "kind", "rate", "capacity"]:
        return [f"unexpected header {header}"]
    if expected_rows is not None and len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for row in rows:
        e, n, m, rate, cap = float(row[0]), int(row[1]), int(row[2]), float(row[4]), float(row[5])
        c = capacity(e)
        opt = optimal_rate(n, m, e)
        if not (-TOL <= rate <= opt + TOL and opt <= c + TOL):
            problems.append(f"E={e!r} N={n} M={m}: rate {rate!r}, optimal {opt!r}, C(E) {c!r}")
        if abs(cap - c) > TOL:
            problems.append(f"E={e!r}: capacity column {cap!r} != C(E) {c!r}")
    return problems


FIGURES = ("optimal-rates", "helstrom-rates", "envelope-gains", "finite-steps")


def check_figures(outdir: str, points: int, optimal_rate, names=FIGURES) -> tuple:
    """Figure datasets: sizes, and rate <= optimal <= capacity."""
    problems = []
    total = 0
    sizes = {
        "optimal-rates": 4 * points,
        "helstrom-rates": 12 * points,
        "envelope-gains": 4 * points,
        "finite-steps": 8 * max(points // 2, 2),
    }
    for name in names:
        size = sizes[name]
        path = os.path.join(outdir, f"{name}.csv")
        if not os.path.exists(path):
            problems.append(f"{name}.csv missing")
            continue
        with open(path, newline="") as handle:
            header, rows = parse_csv(handle.read())
        total += len(rows)
        if len(rows) != size:
            problems.append(f"{name}: {len(rows)} rows, expected {size}")
        if name == "optimal-rates":
            for row in rows:
                e, n, m, rpe, cpe = (float(x) for x in row)
                c = capacity(e) / e
                if not (-TOL <= rpe <= c + TOL and abs(cpe - c) <= TOL * max(1.0, c)):
                    problems.append(f"optimal-rates E={e!r} N={n:g} M={m:g}: {rpe!r} vs C/E {c!r}")
                if abs(rpe - optimal_rate(int(n), int(m), e) / e) > TOL * max(1.0, c):
                    problems.append(f"optimal-rates E={e!r} N={n:g} M={m:g}: not optimal_rate/E")
        elif name == "helstrom-rates":
            by_point: dict = {}
            for e, n, _m, kind, rpe in rows:
                by_point.setdefault((float(e), int(n)), {})[kind] = float(rpe)
            for (e, n), kinds in by_point.items():
                c = capacity(e) / e
                if "helstrom" in kinds:
                    if not (-TOL <= kinds["helstrom"] <= kinds["optimal"] + TOL <= c + 2 * TOL):
                        problems.append(f"helstrom-rates E={e!r} N={n}: {kinds}")
                for kind in ("separable", "capacity"):
                    if kind in kinds and kinds[kind] > c + TOL:
                        problems.append(f"helstrom-rates E={e!r}: {kind} above C/E")
        else:
            for row in rows:
                if not math.isfinite(float(row[-1])):
                    problems.append(f"{name}: non-finite value in {row}")
    return total, problems


# --------------------------------------------------------------------- bpsk


def _maximize(fun, lo: float, hi: float) -> float:
    """Global maximum of a smooth 1-D function: dense grid, then golden
    section on the bracketing cell."""
    xs = np.linspace(lo, hi, 4001)
    vals = fun(xs)
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-13:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return float(max(vals[i], fun(0.5 * (a + b))))


def optimized_kennedy(alpha: float) -> float:
    """max over beta of (1 + exp(-(beta+alpha)^2) - exp(-(beta-alpha)^2))/2."""
    def f(b):
        return 0.5 * (1.0 + np.exp(-((b + alpha) ** 2)) - np.exp(-((b - alpha) ** 2)))

    return _maximize(f, -3.0 * alpha - 2.0, 0.0)


def dephaser_amp_inf(alpha: float) -> float:
    """Optimum of the n=2 infinite-gain (A_inf,2) dephaser receiver over
    beta in [-2, 0]: the ts receiver at zero squeezing."""
    def f(b):
        low = np.exp(-(4.0 * alpha**2 + b**2) / 2.0) * (1.0 + 2.0 * alpha * b)
        high = np.exp(-((2.0 * alpha - b) ** 2) / 2.0) - low
        return 0.5 * (1.0 + np.exp(-(b**2)) - high**2 - low**2)

    return _maximize(f, -2.0, 0.0)


def check_bpsk(header, rows, receiver: str, steps: int, alpha: float) -> list:
    """One bpsk-sweep row at amplitude alpha."""
    problems = []
    if header[:4] != ["alpha_sq", "p_succ", "p_helstrom", "gap"] or len(rows) != 1:
        return [f"unexpected table {header} with {len(rows)} rows"]
    a2, p, p_hel, gap = (float(x) for x in rows[0][:4])
    hel = 0.5 * (1.0 + math.sqrt(1.0 - math.exp(-4.0 * alpha**2)))
    if abs(a2 - alpha**2) > TOL:
        problems.append(f"alpha_sq {a2!r} != {alpha**2!r}")
    if abs(p_hel - hel) > TOL:
        problems.append(f"p_helstrom {p_hel!r} != {hel!r}")
    if p > p_hel + TOL:
        problems.append(f"p_succ {p!r} above Helstrom {p_hel!r}")
    if abs(gap - (p_hel - p)) > TOL:
        problems.append(f"gap {gap!r} != p_helstrom - p_succ")
    if steps == 1 and receiver == "nhpa":
        ref = optimized_kennedy(alpha)
        if p < ref - DOMINANCE_TOL:
            problems.append(f"nhpa {p!r} below optimized Kennedy {ref!r}")
    if steps == 1 and receiver == "ts":
        ref = dephaser_amp_inf(alpha)
        if p < ref - DOMINANCE_TOL:
            problems.append(f"ts {p!r} below amp_inf dephaser {ref!r}")
    return problems


# --------------------------------------------------------------------- disc


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _density(v) -> np.ndarray:
    return 0.5 * (np.eye(2) + np.tensordot(np.asarray(v, dtype=float), _PAULI, axes=1))


def pgm_success(vectors, priors) -> float:
    """Success of the pretty-good measurement S^{-1/2} p_k rho_k S^{-1/2}."""
    sig = [p * _density(v) for v, p in zip(vectors, priors)]
    w, u = np.linalg.eigh(sum(sig))
    s_inv = (u / np.sqrt(w)) @ u.conj().T
    return float(sum(np.trace(s @ s_inv @ s @ s_inv).real for s in sig))


def check_qubit(report: dict, vectors, priors) -> list:
    problems = []
    p = float(report["p_succ"])
    if report["n_states"] != len(priors):
        problems.append(f"n_states {report['n_states']} != {len(priors)}")
    if not (max(priors) - TOL <= p <= 1.0 + TOL):
        problems.append(f"p_succ {p!r} outside [max p_k, 1]")
    pgm = pgm_success(vectors, priors)
    if p < pgm - DOMINANCE_TOL:
        problems.append(f"p_succ {p!r} below the pretty-good measurement {pgm!r}")
    c, r = float(report["q_opt"]["c"]), float(np.linalg.norm(report["q_opt"]["r"]))
    if not (c - r >= -EFFECT_TOL and c + r <= 1.0 + EFFECT_TOL):
        problems.append(f"q_opt eigenvalues {c - r!r}, {c + r!r} outside [0, 1]")
    return problems


def check_tree(report: dict, d: int, m: int) -> list:
    problems = []
    if report["dimension"] != d or report["n_elements"] != m:
        problems.append(f"report for d={report['dimension']} m={report['n_elements']}, sent d={d} m={m}")
    if not report["max_reconstruction_error"] < RECONSTRUCTION_TOL:
        problems.append(f"reconstruction error {report['max_reconstruction_error']!r}")
    return problems


def check_gaussian(report: dict, physical: bool) -> list:
    return [
        f"{part} physical={report[part]['physical']}, built {physical}"
        for part in ("state", "channel")
        if report[part]["physical"] is not physical
    ]


# -------------------------------------------------------------- dispatching


def check_request(req, path: str, optimal_rate) -> tuple:
    """(points, problems) for one request whose output is at ``path`` (a
    directory for figures).  ``optimal_rate`` is hadamard.optimal_rate."""
    meta = req.meta
    if req.output == "figures":
        return check_figures(path, meta["points"], optimal_rate, meta.get("only", FIGURES))
    with open(path, newline="") as handle:
        text = handle.read()
    if req.output == "csv":
        header, rows = parse_csv(text)
        if req.kind.startswith("rates."):
            return len(rows), check_rates_rows(header, rows, optimal_rate, meta["rows"])
        return len(rows), check_bpsk(header, rows, meta["receiver"], meta["steps"], meta["alpha"])
    report = json.loads(text)
    if req.kind.startswith("disc.qubit"):
        return 1, check_qubit(report, meta["vectors"], meta["priors"])
    if req.kind == "disc.tree":
        return 1, check_tree(report, meta["d"], meta["m"])
    return 1, check_gaussian(report, meta["physical"])

