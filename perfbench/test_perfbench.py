"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from heckesphere import catalog, lightleaf, strolls  # noqa: E402
from heckesphere.coxeter import CoxeterSystem  # noqa: E402


def first_requests(workload, seed, n=300):
    out = []
    for batch in worker.rounds(workload, seed):
        out.extend(batch)
        if len(out) >= n:
            return out[:n]


@pytest.fixture
def traced():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    assert first_requests(workload, 7) == first_requests(workload, 7)
    assert first_requests(workload, 7) != first_requests(workload, 8)


def test_poincare_from_degrees():
    assert workloads.poincare_from_degrees((2, 3)) == [1, 2, 2, 1]
    assert sum(workloads.poincare_from_degrees((2, 4, 6, 8))) == 384


def test_trace_counts_calls_between_sibling_modules(traced):
    a2 = CoxeterSystem(catalog.A2, 10)
    # lightleaf imported decorate from strolls; the wrapper replaced both.
    assert lightleaf.decorate is strolls.decorate
    traced.reset()
    lightleaf.build_sll(a2, frozenset({0}), a2.parse_word("tst"), (1, 1, 1))
    assert traced.calls["strolls.decorate"] == 1
    assert traced.calls["lightleaf.build_sll"] == 1
    assert traced.counts["lightleaf.recipes"] == 1
    # The spans rebuild into a call tree: decorate hangs under build_sll.
    spans = {sid: (parent, name) for sid, parent, _, name, _, _ in traced.spans}
    assert len(spans) == len(traced.spans)
    assert all(parent == -1 or parent in spans and parent != sid
               for sid, (parent, _) in spans.items())
    (decorate,) = [p for p, name in spans.values() if name == "strolls.decorate"]
    assert spans[decorate] == (-1, "lightleaf.build_sll")


def test_uninstall_restores_the_originals():
    original = strolls.decorate
    tr = tracing.Tracer()
    tr.install()
    assert strolls.decorate is not original
    tr.uninstall()
    assert strolls.decorate is original and lightleaf.decorate is original


def test_wrong_digest_is_a_failure_not_a_crash():
    wl = workloads.WORKLOADS["leaves"]
    state = wl.setup()
    loop = worker.run_requests(wl, state, worker.rounds("leaves", 3), ["0" * 64],
                               max_requests=70, keep_outputs=True)
    assert loop["requests"] > 1
    assert loop["failed"] == 1 and loop["digests_checked"] == 1
    assert "digest" in loop["failures"][0]
    good = loop["outputs"][:5]
    again = worker.run_requests(wl, state, worker.rounds("leaves", 3), good, max_requests=70)
    assert again["failed"] == 0 and again["digests_checked"] == 5


def test_self_times_add_up_to_the_traced_wall_time(traced):
    wl = workloads.WORKLOADS["rank-pairing"]
    state = wl.setup()
    loop = worker.run_requests(wl, state, worker.rounds("rank-pairing", 1), [],
                               max_requests=47, tracer=traced)
    assert loop["failed"] == 0
    self_s = traced.layer_self_s()
    assert self_s["laurent"] > 0 and self_s["bench"] > 0
    assert sum(self_s.values()) == pytest.approx(loop["request_wall_s"], rel=1e-3)
    # Every metric BENCHMARK.json names is computed.
    report = dict(worker.layer_report(traced, (0.0, 0)), requests=loop["requests"])
    table = run.per_layer(report, loop, loop)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} <= set(table)
    assert table["trace_overhead_ratio"][0] == pytest.approx(1.0)


def test_anchors_pass_and_count():
    state = workloads.State()
    workloads.build_systems(state, ("a2", "affine_a2"), algebras=False)
    assert workloads.anchors(state) == 4


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "leaves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
