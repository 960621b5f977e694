"""Rewrite the golden CLI outputs that tests/test_golden.py compares byte for byte.

Run from the repository root, after a change that moves bytes on purpose:

    PYTHONPATH=src python tests/golden/rewrite.py

It writes one file per request in REQUESTS, and versions.json with the
numpy version and platform that wrote them.  The git diff of this directory
then shows exactly which numbers the change moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
#: bpsk-sweep's default alpha grid and the finer one that reaches alpha = 0
GRIDS = {"default": "0.05:1.0:40", "from0": "0:1.5:61"}
RECEIVERS = ("helstrom", "homodyne", "kennedy", "opt_kennedy", "nhpa", "dephaser", "cavity", "ts")
DOLINAR_BASES = ("kennedy", "opt_kennedy", "nhpa", "dephaser")

#: golden file name -> the qrx command line whose stdout it holds
REQUESTS = {
    **{f"bpsk_{kind}_{label}.csv": ["bpsk-sweep", "--receiver", kind, "--alpha-grid", grid]
       for kind in RECEIVERS for label, grid in GRIDS.items()},
    **{f"dolinar_{base}_steps3.csv": ["bpsk-sweep", "--receiver", base, "--steps", "3",
                                      "--alpha-grid", GRIDS["default"]]
       for base in DOLINAR_BASES},
}


def versions() -> dict:
    """What the outputs' last digits may depend on."""
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system(),
            "python": platform.python_version()}


def output(argv: list) -> bytes:
    """stdout of `qrx argv`, run in this process; a non-zero exit raises."""
    from qrx import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
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
