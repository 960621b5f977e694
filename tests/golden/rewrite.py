"""Rewrite the golden CLI outputs that tests/test_golden.py compares byte for byte.

Run from the repository root, after a change that moves bytes on purpose:

    PYTHONPATH=src python tests/golden/rewrite.py

It writes one file per request in REQUESTS, and versions.json with the
numpy version, numpy's CPU dispatch and the platform that wrote them.  The
git diff of this directory then shows exactly which numbers the change
moved.  The `*.in.*` files are the inputs of the requests that read one;
rewrite.py leaves them as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

HERE = os.path.dirname(os.path.abspath(__file__))
#: bpsk-sweep's default alpha grid and the finer one that reaches alpha = 0
GRIDS = {"default": "0.05:1.0:40", "from0": "0:1.5:61"}
RECEIVERS = ("helstrom", "homodyne", "kennedy", "opt_kennedy", "nhpa", "dephaser", "cavity", "ts")
DOLINAR_BASES = ("kennedy", "opt_kennedy", "nhpa", "dephaser")
#: hadamard-rates requests: two Helstrom kernels (J = inf and J = 10) and the
#: realistic M = 4 cascade, on a coarse energy grid
RATES = {"m3": ["--M", "3"], "m8_j10": ["--M", "8", "--J", "10"],
         "realistic_m4": ["--M", "4", "--kernel", "realistic"]}
FIGURES = ("optimal-rates", "helstrom-rates", "envelope-gains", "finite-steps")
#: input files in this directory of the commands that read one
INPUTS = {"qubit-disc": ("qubit_disc_trine.in.csv", "qubit_disc_3_pure.in.csv",
                         "qubit_disc_4_mixed_3d.in.csv"),
          "tree-decompose": ("tree_decompose_d6_m5.in.json",),
          "gaussian-check": ("gaussian_check_physical.in.json",
                             "gaussian_check_unphysical.in.json")}

#: golden file name -> the qrx command line whose stdout it holds
REQUESTS = {
    **{f"bpsk_{kind}_{label}.csv": ["bpsk-sweep", "--receiver", kind, "--alpha-grid", grid]
       for kind in RECEIVERS for label, grid in GRIDS.items()},
    **{f"dolinar_{base}_steps3.csv": ["bpsk-sweep", "--receiver", base, "--steps", "3",
                                      "--alpha-grid", GRIDS["default"]]
       for base in DOLINAR_BASES},
    **{f"rates_{label}.csv": ["hadamard-rates", *flags, "--N", "2,4,...,64",
                              "--E-grid", "log:1e-3:1:7"]
       for label, flags in RATES.items()},
    **{f"figures_{name}_points6.csv": ["figures", "--points", "6", "--only", name]
       for name in FIGURES},
    **{name.replace(".in.", ".out.").rsplit(".", 1)[0] + ".json":
       [command, "--in", os.path.join(HERE, name)]
       for command, names in INPUTS.items() for name in names},
}


def cpu_dispatch() -> list:
    """numpy's SIMD targets in use: its build baseline, then the dispatched
    targets that this CPU has and that NPY_DISABLE_CPU_FEATURES leaves on."""
    features = _umath.__cpu_features__
    return list(_umath.__cpu_baseline__) + [t for t in _umath.__cpu_dispatch__
                                            if features.get(t)]


def versions() -> dict:
    """What the outputs' last digits may depend on."""
    return {"numpy": np.__version__, "cpu_dispatch": cpu_dispatch(),
            "machine": platform.machine(), "system": platform.system(),
            "python": platform.python_version()}


def output(argv: list) -> bytes:
    """What `qrx argv` writes, run in this process: its stdout, or for
    `figures --only NAME` the one dataset file; a non-zero exit raises."""
    from qrx import cli

    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stdout(buf):
        figures = argv[0] == "figures"
        code = cli.main(argv + ["--outdir", outdir] if figures else argv)
        if code == 0 and figures:
            with open(os.path.join(outdir, argv[argv.index("--only") + 1] + ".csv"), "rb") as f:
                return f.read()
    if code != 0:
        raise RuntimeError(f"qrx {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def main() -> int:
    for name, argv in REQUESTS.items():
        with open(os.path.join(HERE, name), "wb") as handle:
            handle.write(output(argv))
    with open(os.path.join(HERE, "versions.json"), "w") as handle:
        json.dump(versions(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
