"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each operation of every workload once and writes its exit code,
PASS/FAIL lines and every number of its CSV or return value to
perfbench/reference.json.  Record only from a commit whose outputs are
the intended behaviour: the file defines what "correct" means.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    run.prepare_environment()
    import operations

    os.makedirs(run.RUNS_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="out-", dir=run.RUNS_DIR)
    reference = {}
    try:
        for workload, ops in operations.WORKLOADS.items():
            for op in ops:
                seconds, outcome = op.run(out_dir)
                reference[op.name] = outcome.as_json()
                print("%-12s %-16s exit %d  %.2f s"
                      % (workload, op.name, outcome.exit_code, seconds))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(name), json.dumps(reference[name]))
            for name in sorted(reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
