"""Record the sha256 of the outputs of the default seed's first requests.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which worker.py compares against on every run
with the default seed, so byte drift in any output counts as a failed
request.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

REQUESTS = 300  # per workload


def main() -> int:
    out = {}
    for workload in sorted(worker.workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(worker.DEFAULT_SEED), "--mode", "record",
             "--requests", str(REQUESTS)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["failed"] or len(report["outputs"]) != REQUESTS:
            print(f"{workload}: {report['failures']}", file=sys.stderr)
            return 1
        out[workload] = report["outputs"]
        print(f"{workload}: {len(report['outputs'])} digests")
    with open(worker.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
