"""Regenerate ``reference.json``: every op of every workload run once at
the preset seeds, summarised the way the correctness gate reads it.

Run it from the root of a checkout of the commit whose answers are the
reference, never from a commit under test:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS, op_name


def main() -> int:
    run.limit_resources()
    sys.path.insert(0, str(run.SRC))
    from storagelab import cli
    out = run.WORK / "tmp" / "reference"
    ops = {}
    for workload in WORKLOADS.values():
        for op in workload:
            result = run.run_op(cli, op, None, out)
            if result["error"]:
                raise SystemExit(f"{op_name(op)}: {result['error']}")
            ops[op_name(op)] = checks.summarize(op[0], out, result["rc"],
                                                result["stderr"])
            print(f"{op_name(op)}: rc={result['rc']} "
                  f"{result['wall_s']:.2f} s", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    payload = {"made_with": run.environment(), "ops": ops}
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
