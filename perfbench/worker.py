"""One workload process: set up, run requests in a closed loop, report JSON.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--rounds R | --requests K] [--deadline S]

Modes:
  setup  set up and stop; reports setup_s only.
  run    R whole rounds of requests (more if R rounds hold fewer than 100
         requests), or exactly K requests when --requests is given.
  trace  as run, with every layer wrapped by the tracer; reports per-layer
         accounting for the request phase and writes the spans to SPANS.
  record as run with --requests K, without comparing digests; reports the
         sha256 of every output (see record_digests.py).

setup_s runs from the first line of this file, so the package import is
included.  The last line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_REQUESTS = 100  # so at least 10 latencies lie beyond the 90th percentile
DIGESTS = os.path.join(HERE, "digests.json")
SPANS = os.path.join(ROOT, ".perfbench_out", "spans-{workload}.json")


def load_digests(workload: str, seed: int) -> list[str]:
    """Recorded output digests; only the default seed has them."""
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, [])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rounds(workload: str, seed: int):
    """The seeded request sequence of a workload, as shuffled rounds; it
    depends on the seed only."""
    wl = workloads.WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = wl.round(rng)
        rng.shuffle(batch)
        yield batch


def run_requests(wl, state, stream, expected, n_rounds=None, max_requests=None,
                 deadline=None, tracer=None, keep_outputs=False):
    """The closed loop: one request at a time, each checked before the next.

    Runs exactly max_requests requests when given.  Otherwise it runs
    n_rounds whole rounds, and more until MIN_REQUESTS are done, so every
    run holds each stratum of the mix, and the same share of requests that
    find their memos filled, however fast the program is.  Never runs past
    `deadline` seconds.  Returns the loop's record, with the digest of every
    output if keep_outputs."""
    latencies, failures, outputs = [], [], []
    failed = cases = digests_checked = 0
    clock = time.perf_counter
    start = clock()
    if tracer is not None:
        tracer.reset()
    i = 0
    for done, batch in enumerate(stream):
        if max_requests is None and done >= n_rounds and i >= MIN_REQUESTS:
            break
        for req in batch:
            if i == max_requests or (deadline is not None and clock() - start >= deadline):
                break
            if tracer is not None:
                tracer.request = i
            t = clock()
            try:
                out, n = wl.handle(state, req)
            except Exception as exc:  # any exception is a failed request
                out, n = None, 0
                failures.append(f"request {i} {req!r}: {type(exc).__name__}: {exc}")
            latencies.append(clock() - t)
            if out is not None:
                h = digest(out)
                if keep_outputs:
                    outputs.append(h)
                if i < len(expected):
                    digests_checked += 1
                    if h != expected[i]:
                        out = None
                        failures.append(
                            f"request {i} {req!r}: output digest {h} != {expected[i]}")
            cases += n
            failed += out is None
            i += 1
        else:
            continue
        break  # the request count or the deadline ended the loop in this round
    end = tracer.stop() if tracer is not None else clock()
    return {
        "requests": i,
        "failed": failed,
        "cases": cases,
        "digests_checked": digests_checked,
        "failures": failures[:5],
        "latencies_s": latencies,
        "request_wall_s": end - start,
        **({"outputs": outputs} if keep_outputs else {}),
    }


def layer_report(tracer, setup_build) -> dict:
    calls, counts = tracer.calls, tracer.counts
    self_s = tracer.layer_self_s()
    return {
        "self_s": self_s,
        "category_s": dict(tracer.self_s),
        "calls": dict(calls),
        "counts": dict(counts),
        "inclusive_s": dict(tracer.inclusive_s),
        # Builds happen in setup, so their figures cover setup and requests.
        "build_s": setup_build[0] + tracer.inclusive_s.get("coxeter.build", 0.0),
        "build_calls": setup_build[1] + calls.get("coxeter.build", 0),
        "verify_checks": sum(n for k, n in calls.items() if k.startswith("verify.check_")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"), default="run")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--requests", type=int)
    ap.add_argument("--deadline", type=float, help="hard cap on the request phase, s")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    state = wl.setup()
    setup_s = time.perf_counter() - T0
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.mode != "setup":
        try:
            anchor_cases, anchor_failures = workloads.anchors(state), []
        except workloads.CheckFailed as exc:
            anchor_cases, anchor_failures = 0, [str(exc)]
        setup_build = (0.0, 0)
        if tracer is not None:
            setup_build = (tracer.inclusive_s.get("coxeter.build", 0.0),
                           tracer.calls.get("coxeter.build", 0))
        expected = [] if args.mode == "record" else load_digests(args.workload, args.seed)
        loop = run_requests(
            wl, state, rounds(args.workload, args.seed), expected,
            n_rounds=args.rounds, max_requests=args.requests, deadline=args.deadline,
            tracer=tracer, keep_outputs=args.mode == "record")
        report.update(loop)
        report["anchor_cases"] = anchor_cases
        report["anchor_failures"] = anchor_failures
        if tracer is not None:
            report["trace"] = layer_report(tracer, setup_build)
            spans = SPANS.format(workload=args.workload)
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            with open(spans, "w") as fh:
                json.dump(tracer.spans_json(), fh)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
