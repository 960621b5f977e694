"""Command-line experiment runner and serialization layer.

Subcommands
-----------
bpsk-sweep      sweep a binary-coherent receiver over an amplitude grid
hadamard-rates  PSK Hadamard receiver/optimal rate tables over an energy grid
qubit-disc      minimum-error discrimination of 3 or 4 weighted qubit states
tree-decompose  binary-tree decomposition round-trip report for a POVM JSON,
                checked to RECONSTRUCTION_TOL
gaussian-check  physicality report for Gaussian states/channels from JSON
figures         emit the rate-curve datasets behind the survey figures

Conventions
-----------
* CSV output is RFC-4180 style (CRLF line endings, header row, ``.`` decimal
  separator) with reals printed to 17 significant digits; JSON mirrors the
  same formatting.  Identical inputs produce byte-identical outputs.
* ``--config file.json`` overrides any long flag of the chosen subcommand:
  a key is the flag's name without its dashes (``M``, ``E-grid``) or its
  argparse dest (``m``, ``e_grid``), with ``-`` and ``_`` interchangeable,
  and a value is the flag's text, a non-string given as its JSON text.
* Exit codes: 0 ok, 2 configuration error, 3 numerical non-convergence,
  4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import gaussian, hadamard, povm, qubit_disc, receivers
from .errors import ConvergenceError, TruncationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid flag/grid/config-file content."""


# ---------------------------------------------------------------- formatting


def _fmt(value) -> str:
    """17-significant-digit decimal rendering for reals; plain for the rest."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: str | None, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_text(path, buf.getvalue())


def _write_json(path: str | None, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    if directory and not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


# ------------------------------------------------------------------ parsing


def _parse_grid(spec: str) -> np.ndarray:
    """``a:b:n`` or ``lin:a:b:n`` (linear) / ``log:a:b:n`` (log-spaced)."""
    parts = spec.split(":")
    kind = "lin"
    if parts and parts[0] in ("lin", "log"):
        kind, parts = parts[0], parts[1:]
    if len(parts) != 3:
        raise ConfigError(f"grid must be [lin:|log:]a:b:n, got {spec!r}")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid numbers in {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid endpoints must be finite, got {spec!r}")
    if num < 1:
        raise ConfigError("grid needs at least one point")
    if kind == "log":
        if lo <= 0 or hi <= 0:
            raise ConfigError("log grid endpoints must be positive")
        return np.logspace(math.log10(lo), math.log10(hi), num)
    return np.linspace(lo, hi, num)


def _parse_lengths(spec: str) -> list:
    """Comma list of code lengths; ``...`` continues the doubling pattern,
    e.g. ``2,4,...,1024`` -> 2, 4, 8, ..., 1024."""
    tokens = [t.strip() for t in str(spec).split(",") if t.strip()]
    out: list = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "...":
            if len(out) < 2 or i + 1 >= len(tokens):
                raise ConfigError("'...' needs two leading values and a final one")
            try:
                stop = int(tokens[i + 1])
            except ValueError as exc:
                raise ConfigError(f"bad code length {tokens[i + 1]!r}") from exc
            ratio = out[-1] // out[-2]
            if ratio < 2 or out[-1] * ratio > stop:
                raise ConfigError("'...' pattern does not reach the final value")
            value = out[-1] * ratio
            while value < stop:
                out.append(value)
                value *= ratio
            out.append(stop)
            i += 2
            continue
        try:
            out.append(int(tok))
        except ValueError as exc:
            raise ConfigError(f"bad code length {tok!r}") from exc
        i += 1
    if not out:
        raise ConfigError("need at least one code length")
    return out


def _int_flag(flag: str, value, least: int, what: str = "an integer") -> int:
    """An integer flag >= ``least`` from its default or its text (which for
    a config value is the value's JSON text, so 3.9 and true fail)."""
    try:
        value = int(value)
    except ValueError:
        raise ConfigError(f"{flag} must be {what}, got {value}") from None
    if value < least:
        raise ConfigError(f"{flag} must be >= {least}")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    raw = _read_text(args.config)
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must contain a JSON object")
    # a key is a flag without its dashes or the flag's dest, with "_" for "-"
    keys = {key.replace("-", "_"): a.dest for a in args.command_parser._actions
            if a.dest != "help" for key in (a.dest, *(s.lstrip("-") for s in a.option_strings))}
    for key, value in overrides.items():
        dest = keys.get(key.replace("-", "_"))
        if dest is None:
            raise ConfigError(f"config key {key!r} is not a flag of this subcommand")
        setattr(args, dest, value if isinstance(value, str) else json.dumps(value))


# -------------------------------------------------------------- bpsk-sweep


def _sweep_point(kind: str, alpha: float, steps: int):
    """(alpha^2, p_succ, p_helstrom, gap, *receivers.PARAMS[kind]); Dolinar
    runs over `steps` copies report no parameters."""
    if steps > 1:
        p, params = receivers.dolinar_multistep(alpha, steps, kind), ()
    else:
        p, *params = receivers.optimize(kind, alpha)
    p_hel = 1.0 - receivers.helstrom_bpsk(alpha)
    return (alpha**2, p, p_hel, p_hel - p, *params)


def _cmd_bpsk_sweep(args) -> int:
    if args.receiver not in receivers.PARAMS:
        raise ConfigError(
            f"receiver must be one of {tuple(receivers.PARAMS)}, got {args.receiver!r}")
    steps = _int_flag("--steps", args.steps, 1)
    alphas = _parse_grid(args.alpha_grid)
    if (alphas < 0).any():
        raise ConfigError(f"alpha grid must not go below 0, got {args.alpha_grid!r}")
    header = ["alpha_sq", "p_succ", "p_helstrom", "gap"]
    if steps == 1:
        header += list(receivers.PARAMS[args.receiver])
    rows = [_sweep_point(args.receiver, float(a), steps) for a in alphas]
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ----------------------------------------------------------- hadamard-rates


#: largest PSK order --M: the rate arrays hold (E, N, M, M) floats, ~0.3 GB
#: and ~4 s at M = 64 for the default 200 energies and 10 code lengths
M_MAX = 64


def _cmd_hadamard_rates(args) -> int:
    m = _int_flag("--M", args.m, 1)
    if m > M_MAX:
        raise ConfigError(f"--M must be at most {M_MAX}, got {m}")
    lengths = _parse_lengths(args.n)
    for n in lengths:
        if n < 1 or n & (n - 1):
            raise ConfigError(f"code lengths must be powers of two, got {n}")
    energies = _parse_grid(args.e_grid)
    j_steps = (None if str(args.j).lower() in ("inf", "none", "")
               else _int_flag("--J", args.j, 1, "an integer or 'inf'"))
    rates = hadamard.had_rate(
        np.array(lengths), m, energies[:, None], kernel=args.kernel, j_steps=j_steps
    )
    rows = [
        (float(e), n, m, args.kernel, rates[i, k], hadamard.classical_capacity(e))
        for i, e in enumerate(energies)
        for k, n in enumerate(lengths)
    ]
    _write_csv(args.out, ["E", "N", "M", "kind", "rate", "capacity"], rows)
    return EXIT_OK


# --------------------------------------------------------------- qubit-disc


def _bloch_row(row: list, line: int) -> tuple:
    """(array (c, rx, ry, rz), p) from one (c, rx, ry, rz, p) row, which must give
    a density operator (2c = 1, |r| <= c) and a prior p >= 0 (NaN fails every check)."""
    if len(row) != 5:
        raise ConfigError(f"line {line}: need 5 fields (c, rx, ry, rz, p), got {len(row)}")
    values = []
    for name, x in zip(("c", "rx", "ry", "rz", "p"), row):
        try:
            values.append(float(x))
        except ValueError:
            raise ConfigError(f"line {line}: field {name} is not a number: {x!r}") from None
    c, r, p = values[0], values[1:4], values[4]
    if not abs(2.0 * c - 1.0) <= 1e-9:
        raise ConfigError(f"line {line}: field c must be 0.5 (unit trace), got {c!r}")
    if not math.hypot(*r) <= c + 1e-9:
        raise ConfigError(f"line {line}: fields rx, ry, rz give |r| = {math.hypot(*r)!r} "
                          f"> c = {c!r}, not a density operator")
    if not p >= 0.0:
        raise ConfigError(f"line {line}: field p must be >= 0, got {p!r}")
    return np.array(values[:4]), p


def _read_bloch_states(path: str) -> list:
    """(state, prior) per non-empty CSV row; only the first non-empty row
    may be a non-numeric header."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader if any(x.strip() for x in row)]
    if rows:
        try:
            [float(x) for x in rows[0][1]]
        except ValueError:
            rows = rows[1:]  # header row
    return [_bloch_row(row, line) for line, row in rows]


def _cmd_qubit_disc(args) -> int:
    states = _read_bloch_states(args.infile)
    if len(states) not in (3, 4):
        raise ConfigError(f"need 3 or 4 (c, rx, ry, rz, p) rows, got {len(states)}")
    total_p = sum(p for _, p in states)
    if abs(total_p - 1.0) > 1e-9:
        raise ConfigError(f"probabilities must sum to 1, got {total_p!r}")
    p_succ, q_opt, dual = qubit_disc._psucc([rho * p for rho, p in states])
    report = {
        "n_states": len(states),
        "p_succ": float(p_succ),
        "p_succ_dual": float(dual),
        "gap": abs(p_succ - dual),
        "ordering": list(range(len(states))),
        "q_opt": {"c": float(q_opt[0]), "r": [float(x) for x in q_opt[1:]]},
    }
    _write_json(args.out, report)
    return EXIT_OK


# ------------------------------------------------------------ tree-decompose


#: largest max_reconstruction_error that tree-decompose reports; a larger
#: one, or a rebuild that is no POVM, is a numerical failure (exit 3)
RECONSTRUCTION_TOL = 1e-9


def _cmd_tree_decompose(args) -> int:
    parsed = povm.povm_from_json(_read_text(args.infile))
    nested = povm.binary_tree_decompose(parsed)
    try:
        rebuilt = povm.reconstruct(nested)
    except ValueError as exc:
        raise ConvergenceError(f"tree reconstruction is no POVM: {exc}") from None
    err = max(
        float(np.max(np.abs(e1 - e2)))
        for e1, e2 in zip(parsed.elements, rebuilt.elements)
    )
    if not err <= RECONSTRUCTION_TOL:
        raise ConvergenceError(
            f"tree reconstruction error {err:.3e} exceeds {RECONSTRUCTION_TOL:.0e}")
    report = {
        "dimension": parsed.dim,
        "n_elements": len(parsed),
        "depth": nested.depth,
        "max_reconstruction_error": err,
        "weak_completeness_defect": float(povm.weak_completeness_defect(nested)),
    }
    _write_json(args.out, report)
    return EXIT_OK


# ------------------------------------------------------------ gaussian-check


def _cmd_gaussian_check(args) -> int:
    try:
        payload = json.loads(_read_text(args.infile))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not ("state" in payload or "channel" in payload):
        raise ConfigError("input must be a JSON object with 'state' and/or 'channel'")
    for field, keys in (("state", "'mean', 'cov'"), ("channel", "'A', 'B', 'b'")):
        if not isinstance(payload.get(field, {}), dict):
            raise ConfigError(f"field {field!r} must be a JSON object with {keys}")
    report: dict = {}
    if "state" in payload:
        spec = payload["state"]
        try:
            state = gaussian.GaussianState(np.array(spec["mean"]), np.array(spec["cov"]))
            report["state"] = {
                "physical": True,
                "n_modes": state.n_modes,
                "williamson_eigenvalues": [
                    float(v) for v in gaussian.williamson_eigenvalues(state.cov)
                ],
            }
        except (KeyError, ValueError) as exc:
            report["state"] = {"physical": False, "reason": str(exc)}
    if "channel" in payload:
        spec = payload["channel"]
        try:
            channel = gaussian.GaussianChannel(
                np.array(spec["A"]), np.array(spec["B"]), np.array(spec["b"])
            )
            report["channel"] = {
                "physical": bool(gaussian.is_physical(channel)),
                "n_modes": channel.n_modes,
            }
        except (KeyError, ValueError) as exc:
            report["channel"] = {"physical": False, "reason": str(exc)}
    _write_json(args.out, report)
    return EXIT_OK


# ------------------------------------------------------------------- figures


def _fig_optimal_rates(energies) -> tuple:
    header = ["E", "N", "M", "rate_per_energy", "capacity_per_energy"]
    rows = []
    for e in energies:
        cap = hadamard.classical_capacity(e) / e
        for n in (2, 16):
            for m in (1, 4):
                rows.append((e, n, m, hadamard.optimal_rate(n, m, e) / e, cap))
    return header, rows


def _fig_helstrom_rates(energies) -> tuple:
    header = ["E", "N", "M", "kind", "rate_per_energy"]
    lengths = (8, 16, 64, 256, 1024)
    had = hadamard.had_rate(np.array(lengths), 3, energies[:, None])
    separable = hadamard.separable_rate(3, energies)
    rows = []
    for i, e in enumerate(energies):
        for k, n in enumerate(lengths):
            rows.append((e, n, 3, "helstrom", had[i, k] / e))
            rows.append((e, n, 3, "optimal", hadamard.optimal_rate(n, 3, e) / e))
        rows.append((e, 1, 3, "separable", separable[i] / e))
        rows.append((e, 1, 1, "capacity", hadamard.classical_capacity(e) / e))
    return header, rows


def _fig_envelope_gains(energies) -> tuple:
    header = ["E", "M", "kind", "relative_gain"]
    lengths = [2**i for i in range(1, 11)]
    ref = hadamard.envelope(lengths, 2, energies)
    gains = {
        (m, kind): (hadamard.envelope(lengths, m, energies, kind) - ref) / ref
        for kind in ("helstrom", "realistic") for m in (3, 4)
    }
    rows = [
        (e, m, kind, gain[i]) for i, e in enumerate(energies) for (m, kind), gain in gains.items()
    ]
    return header, rows


def _fig_finite_steps(energies) -> tuple:
    header = ["E", "M", "J", "relative_gain"]
    lengths = [2**i for i in range(1, 11)]
    ref = hadamard.envelope(lengths, 2, energies)
    gains = {
        (m, j): (hadamard.envelope(lengths, m, energies, j_steps=j) - ref) / ref
        for m in (3, 4)
        for j in (10, 30, 100, None)
    }
    rows = [
        (e, m, "inf" if j is None else j, gain[i])
        for i, e in enumerate(energies)
        for (m, j), gain in gains.items()
    ]
    return header, rows


def _cmd_figures(args) -> int:
    points = _int_flag("--points", args.points, 2)
    wanted = set(args.only.split(",")) if args.only else None
    produced = []
    jobs = {
        "optimal-rates": lambda: _fig_optimal_rates(np.logspace(-4, 0, points)),
        "helstrom-rates": lambda: _fig_helstrom_rates(np.logspace(-4, -0.5, points)),
        "envelope-gains": lambda: _fig_envelope_gains(np.logspace(-3, -0.5, points)),
        "finite-steps": lambda: _fig_finite_steps(np.logspace(-3, -0.5, max(points // 2, 2))),
    }
    if wanted is not None:
        unknown = wanted - set(jobs)
        if unknown:
            raise ConfigError(f"unknown figure dataset(s): {sorted(unknown)}")
    for name, job in jobs.items():
        if wanted is not None and name not in wanted:
            continue
        header, rows = job()
        path = os.path.join(args.outdir, f"{name}.csv")
        _write_csv(path, header, rows)
        produced.append(path)
    _write_text(None, "".join(p + "\n" for p in produced))
    return EXIT_OK


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qrx", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file whose keys override flags")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("bpsk-sweep", help="sweep a binary-coherent receiver")
    p.add_argument("--receiver", required=True)
    p.add_argument("--alpha-grid", default="0.05:1.0:40", help="[lin:|log:]a:b:n over alpha")
    p.add_argument("--steps", default=1, help="multi-step (Dolinar-style) stages")
    common(p)
    p.set_defaults(func=_cmd_bpsk_sweep)

    p = sub.add_parser("hadamard-rates", help="PSK Hadamard rate table")
    p.add_argument("--M", dest="m", required=True)
    p.add_argument("--N", dest="n", required=True, help="comma list, supports 2,4,...,1024")
    p.add_argument("--E-grid", dest="e_grid", default="log:1e-4:1:200")
    p.add_argument("--kernel", default="helstrom")
    p.add_argument("--J", dest="j", default="inf")
    common(p)
    p.set_defaults(func=_cmd_hadamard_rates)

    p = sub.add_parser("qubit-disc", help="discriminate 3 or 4 weighted qubit states")
    p.add_argument("--in", dest="infile", required=True, help="CSV rows (c, rx, ry, rz, p)")
    common(p)
    p.set_defaults(func=_cmd_qubit_disc)

    p = sub.add_parser("tree-decompose", help="binary-tree POVM round-trip report")
    p.add_argument("--in", dest="infile", required=True, help="POVM JSON file")
    common(p)
    p.set_defaults(func=_cmd_tree_decompose)

    p = sub.add_parser("gaussian-check", help="Gaussian state/channel physicality report")
    p.add_argument("--in", dest="infile", required=True, help="JSON with 'state'/'channel'")
    common(p)
    p.set_defaults(func=_cmd_gaussian_check)

    p = sub.add_parser("figures", help="emit rate-curve figure datasets")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--points", default=12, help="energy grid density")
    p.add_argument("--only", default=None, help="comma list of dataset names")
    p.add_argument("--config", help="JSON file whose keys override flags")
    p.set_defaults(func=_cmd_figures)

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches EXIT_CONFIG
        return int(exc.code or 0)
    try:
        _apply_config(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, TruncationError) as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
