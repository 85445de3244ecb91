"""heckesphere benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py and predictions.json for why each exists):
rank-pairing, leaves, kl-b4, cli.  BENCHMARK.json lists rank-pairing and
cli, which between them run every layer; leaves and kl-b4 run when named.
On a host whose speed moves by up to 1.7x in blocks of seconds, runs of 20 s
spread past the bounds; two workloads leave time for runs of 40 s within
the benchmark's time limit, and four do not.  Each is a closed loop with one client,
one process and no threads: the next request is issued when the previous one
has been answered and checked.  There is no warm-up; every process starts
with empty memos.

--trace 0 measures the end-to-end metrics with no wrappers installed: setup
is repeated in SETUP_RUNS extra processes and setup_s is the median of all
setups; the other metrics come from one process that runs a fixed number of
whole rounds of requests (ROUNDS_PER_S per second of S, and at least 100
requests).

--trace 1 runs a fixed number of requests (TRACE_RATE per second of S) with
every layer wrapped (tracer.py), then the same requests again without
wrappers, and reports the per-layer metrics and the tracing overhead.

Every output is checked; see workloads.py.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json names for the mode; the lines before it print every metric
with its unit.  Each run appends a record with the machine facts to
.perfbench_out/results.jsonl; a traced run also writes its spans to
.perfbench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("rank-pairing", "leaves", "kl-b4", "cli")
SETUP_RUNS = 4
TIME_LIMIT_S = 170  # the whole command, all processes included
# Whole request rounds per second of --seconds: at the seed commit on a
# 2-core Xeon a run takes about S seconds.  A fixed count keeps the mix of
# cold and warm requests the same however fast the program gets, so a speed
# change moves the metrics smoothly instead of by whole rounds.  A kl-b4
# round asks for every element once, so one round is all cold.
ROUNDS_PER_S = {"rank-pairing": 0.125, "leaves": 19.5, "kl-b4": 0.05, "cli": 0.6}
# Traced requests per second of --seconds: at most about one traced second
# each on a 2-core Xeon at the seed commit, where tracing costs 3.5-5x.  A
# fixed count makes the counters repeat.
TRACE_RATE = {"rank-pairing": 1, "leaves": 285, "kl-b4": 12, "cli": 6}


class WorkerError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise WorkerError("time limit reached before " + " ".join(args))
    # Bytecode is cached under OUT whatever the caller's settings: compiling
    # the package from source would add 60 ms to every import, in some runs
    # and not others.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise WorkerError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loop_cap(seconds: float, deadline: float) -> str:
    """The --deadline for a worker's request loop: six times the run length,
    or less when that would end past the command's own time limit."""
    return str(max(1.0, min(6 * seconds, deadline - time.monotonic() - 15)))


def facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            sha = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": sha, "seed": seed}


def end_to_end(setups: list[float], run: dict) -> dict:
    lat = run["latencies_s"]
    attempted = run["requests"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "requests_per_s": (attempted / run["request_wall_s"], "1/s", attempted),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms", len(lat)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        "fail_ratio": (run["failed"] / attempted, "1", attempted),
    }


def per_layer(trace: dict, traced: dict, plain: dict) -> dict:
    calls, counts, self_s = trace["calls"], trace["counts"], trace["self_s"]
    cat = trace["category_s"]
    program = sum(t for layer, t in self_s.items() if layer != "bench")
    n = trace["requests"]
    out = {}
    for layer, t in self_s.items():
        out[f"{layer}.self_s"] = (t, "s", n)
        if layer != "bench":
            out[f"{layer}.self_share"] = (t / program if program else 0.0, "1", n)
    out.update({
        "coxeter.build_s": (trace["build_s"], "s", trace["build_calls"]),
        "coxeter.build.calls": (trace["build_calls"], "count", 1),
        "coxeter.query_s": (cat.get("coxeter.query", 0.0), "s", n),
        "coxeter.rex_s": (cat.get("coxeter.rex", 0.0), "s", n),
        "spherical.pairing_s": (trace["inclusive_s"].get("spherical.pairing", 0.0), "s", n),
        "verify.checks": (trace["verify_checks"], "count", 1),
        "cli.calls": (calls.get("cli.main", 0), "count", 1),
        # Per request, in case the deadline cut one of the two runs short.
        "trace_overhead_ratio": (traced["request_wall_s"] / traced["requests"]
                                 * plain["requests"] / plain["request_wall_s"], "1", n),
    })
    for name in ("coxeter.query", "coxeter.rex", "laurent.mul", "laurent.add",
                 "laurent.divide_exact", "linear.add_into", "hecke.multiply",
                 "hecke.kl_basis", "hecke.bar", "spherical.pairing", "spherical.act_bs",
                 "spherical.kl_c", "strolls.decorate", "strolls.rank_poly",
                 "lightleaf.find_sweep"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count", 1)
    for name in ("laurent.mul.term_products", "hecke.multiply.term_pairs",
                 "lightleaf.recipes", "lightleaf.braid_apps"):
        out[name] = (counts.get(name, 0), "count", 1)
    out["cli.stdout_bytes"] = (counts.get("cli.stdout_bytes", 0), "B", 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            n = str(max(1, round(TRACE_RATE[args.workload] * args.seconds)))
            traced = spawn(common + ["--mode", "trace", "--requests", n,
                                     "--deadline", loop_cap(args.seconds / 2, deadline)],
                           deadline)
            plain = spawn(common + ["--mode", "run", "--requests", n,
                                    "--deadline", loop_cap(args.seconds, deadline)], deadline)
            runs = [traced, plain]
            trace = dict(traced["trace"], requests=traced["requests"])
            table = per_layer(trace, traced, plain)
            wanted = spec["per_layer"]
        else:
            setups = [spawn(common + ["--mode", "setup"], deadline)["setup_s"]
                      for _ in range(SETUP_RUNS)]
            n_rounds = str(max(1, round(ROUNDS_PER_S[args.workload] * args.seconds)))
            run = spawn(common + ["--mode", "run", "--rounds", n_rounds,
                                  "--deadline", loop_cap(args.seconds, deadline)], deadline)
            runs = [run]
            table = end_to_end(setups + [run["setup_s"]], run)
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["requests"] for r in runs)
    failed = sum(r["failed"] + len(r["anchor_failures"]) for r in runs)
    cases = sum(r["cases"] + r["anchor_cases"] for r in runs)
    correct = failed == 0 and cases > 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted}  failed {failed}  checked cases {cases}  "
          f"digests checked {sum(r['digests_checked'] for r in runs)}")
    for r in runs:
        for msg in r["failures"] + r["anchor_failures"]:
            print(f"  failure: {msg}")
    for name, (value, unit, count) in sorted(table.items()):
        print(f"  {name:32s} {value:14.6g} {unit:6s} (n={count})")
    record = {"facts": facts(args.seed), "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "requests": [r["requests"] for r in runs],
              "correct": correct, "failed": failed, "cases": cases,
              "metrics": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in table.items()}}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
