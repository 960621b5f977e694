"""CLI outputs against the golden files in tests/golden/, byte for byte.

tests/golden/rewrite.py names the requests and rewrites the files.  A change
that moves bytes on purpose reruns it, so that the git diff of the golden
files shows every moved number.  Where the numpy version, numpy's CPU
dispatch or the platform of this run differs from the one that wrote the
files (tests/golden/versions.json), the last digits may differ for reasons
outside qrx: numbers are then compared at ULPS units in the last place, and a
warning names what differs.

The same requests, run under a profiler, show that every function in
src/qrx runs on some command: `qrx` holds only what its commands need.
"""

import ast
import importlib.util
import json
import math
import pathlib
import sys
import warnings

import pytest

import qrx

GOLDEN = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_rewrite", GOLDEN / "rewrite.py")
rewrite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rewrite)

#: units in the last place of max(|golden value|, 1) that a number may move by
#: when this run's numpy or platform is not the one that wrote the files
ULPS = 16


def cells(text: bytes) -> list:
    """CSV rows split at commas; a JSON text splits into its lines."""
    return [line.split(",") for line in text.decode().splitlines()]


def number(cell: str):
    """The number a CSV cell or a JSON line (`"key": 0.5`) ends with, or None."""
    try:
        return float(cell.rsplit(":", 1)[-1].strip(" []{}"))
    except ValueError:
        return None


def deviations(want: bytes, got: bytes, ulps=None) -> tuple:
    """(the differing cells as (row, column, want, got), max abs deviation,
    max rel deviation over the non-zero golden values) between two CSV
    texts.  With `ulps`, numbers within that many units in the last place of
    max(|want|, 1) count as equal."""
    w_rows, g_rows = cells(want), cells(got)
    diffs, max_abs, max_rel = [], 0.0, 0.0
    for i in range(max(len(w_rows), len(g_rows))):
        w_row = w_rows[i] if i < len(w_rows) else []
        g_row = g_rows[i] if i < len(g_rows) else []
        for j in range(max(len(w_row), len(g_row))):
            w = w_row[j] if j < len(w_row) else None
            g = g_row[j] if j < len(g_row) else None
            if w == g:
                continue
            x, y = number(w or ""), number(g or "")
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                diffs.append((i, j, w, g))
                continue
            dev = abs(y - x)
            if ulps is not None and dev <= ulps * math.ulp(max(abs(x), 1.0)):
                continue
            diffs.append((i, j, w, g))
            max_abs = max(max_abs, dev)
            if x:
                max_rel = max(max_rel, dev / abs(x))
    return diffs, max_abs, max_rel


def report(name: str, want: bytes, got: bytes, ulps=None) -> str:
    """'' when the outputs agree, else where and by how much they differ."""
    diffs, max_abs, max_rel = deviations(want, got, ulps)
    if not diffs:
        return ""
    i, j, w, g = diffs[0]
    header = cells(want)[0]
    column = header[j] if j < len(header) else f"#{j}"
    return (f"golden/{name}: {len(diffs)} cells differ; the first is row {i}, column {j} "
            f"({column}): golden {w!r}, got {g!r}; max abs deviation {max_abs:.3g}, "
            f"max rel deviation {max_rel:.3g}")


@pytest.mark.parametrize("name", sorted(rewrite.REQUESTS))
def test_cli_output_matches_golden_file(name):
    want = (GOLDEN / name).read_bytes()
    got = rewrite.output(rewrite.REQUESTS[name])
    written_by = json.loads((GOLDEN / "versions.json").read_text())
    now = rewrite.versions()
    if written_by == now:
        assert got == want, report(name, want, got)
    else:
        differ = {k: (written_by.get(k), now.get(k)) for k in sorted(set(written_by) | set(now))
                  if written_by.get(k) != now.get(k)}
        warnings.warn(f"golden/{name} was written with (written, this run) = {differ}: "
                      f"comparing numbers at {ULPS} ulps, not bytes")
        message = report(name, want, got, ULPS)
        assert not message, message


def test_report_names_the_first_differing_cell():
    want = b"alpha_sq,p_succ\r\n0.25,0.5\r\n1,0.75\r\n"
    got = b"alpha_sq,p_succ\r\n0.25,0.5\r\n1,0.75000000000000011\r\n"
    assert report("x.csv", want, want) == ""
    assert report("x.csv", want, got) == (
        "golden/x.csv: 1 cells differ; the first is row 2, column 1 (p_succ): golden '0.75', "
        "got '0.75000000000000011'; max abs deviation 1.11e-16, max rel deviation 1.48e-16")
    assert report("x.csv", want, got, ulps=1) == ""
    assert "row 1, column 1" in report("x.csv", want, b"alpha_sq,p_succ\r\n0.25,nan\r\n")


#: functions in src/qrx that no golden request calls, each with its reason
#: to stay; a function nested in one of them stays with it
UNCALLED = {
    "hadamard.__getattr__": "serves hadamard.integrate to perfbench's tracer",
    "povm.simulate_tree": "to join tree-decompose's path, checking the tree operationally",
}


def defined_functions(node, prefix: str):
    """(qualified name, first line) of every function defined under an ast
    node, its decorators included in the lines, as in the code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from defined_functions(child, name)
        else:
            yield from defined_functions(child, prefix)


def test_every_qrx_function_runs_on_a_golden_request():
    # a cached function whose cache is warm runs no frame, so start cold
    for module in [m for name, m in sys.modules.items() if name.startswith("qrx.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in rewrite.REQUESTS.values():
            rewrite.output(argv)
    finally:
        sys.setprofile(None)
    called = {(pathlib.Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}
    uncalled = []
    for path in sorted(pathlib.Path(qrx.__file__).resolve().parent.glob("*.py")):
        for name, line in defined_functions(ast.parse(path.read_text()), path.stem):
            if (path, line) not in called and not any(
                    name == kept or name.startswith(kept + ".") for kept in UNCALLED):
                uncalled.append(f"{name} ({path.name}:{line})")
    assert uncalled == [], "no command calls " + ", ".join(uncalled)
