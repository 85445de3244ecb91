"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                    [--out FILE]

For every workload and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to a third of the metric's
bound from BENCHMARK.json.  With --out it also writes every run's result and
the machine facts to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            got["seed"] = seed
            results[workload].append(got)
            ok &= got["correct"]
            print(f"{workload} seed {seed}: correct={got['correct']} "
                  f"attempted={got['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in got["metrics"].items()),
                  flush=True)
        if len(results[workload]) < 2:
            continue
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results[workload]]
            med, rel = spread(values)
            summary[workload][m["name"]] = {"median": med, "iqr_over_median": rel}
            limit = m.get("bound")
            flag = "" if limit is None else (
                f"  bound/3 {limit / 3:.3f} {'ok' if rel < limit / 3 else 'WIDE'}")
            print(f"  {workload:13s} {m['name']:28s} median {med:12.6g} {m['unit']:5s} "
                  f"iqr/median {rel:.3f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"facts": run.facts(None), "run_seconds": spec["run_seconds"],
                       "trace": args.trace, "summary": summary, "runs": results},
                      fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
