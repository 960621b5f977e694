"""Write reference.json: the outputs of every workload's fixed reference
requests at the current commit.  Run from the root of a checkout:

    python3 perfbench/make_reference.py

Only rewrite the table when a change of numerical method is meant to move
the numbers, and say so in that change.
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.pin_threads()
    sys.path.insert(0, run.SRC)
    import workloads
    from qrx import cli

    table = {}
    workdir = tempfile.mkdtemp(dir=run.HERE)
    try:
        runner = run.Runner(cli, workdir)
        for workload in workloads.WORKLOADS:
            reqs = workloads.reference_requests(workload)
            runner.write_inputs(reqs)
            for req in reqs:
                res = runner.execute(req, "ref")
                if res["code"] != 0:
                    print(f"{req.id} failed: {res['stderr']}", file=sys.stderr)
                    return 1
                table[req.id] = run.reference_values(req, res["out"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
