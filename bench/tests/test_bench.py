"""Tests of the benchmark itself: metric names against BENCHMARK.json,
tracing that restores the engine and leaves verdicts unchanged, and the
self-time arithmetic.

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, env=None):
    proc = subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, cwd=ROOT, env=env, timeout=170
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = _run(BENCH / "run.py", "--workload", "semtypes", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == declared


def test_workload_names_match_benchmark_json():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _worker(workload, *flags, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return _run(BENCH / "worker.py", "--workload", workload, "--seed", "5", "--queries", "120", *flags, env=env)


@pytest.mark.parametrize("workload", ["oracle", "laws", "semtypes"])
def test_digest_same_traced_untraced_and_across_hash_seeds(workload):
    plain = _worker(workload)
    assert plain["failed"] == 0 and plain["attempted"] == 120
    assert _worker(workload, "--trace")["digest_all"] == plain["digest_all"]
    assert _worker(workload, hash_seed="1")["digest_all"] == plain["digest_all"]


def _engine_functions():
    import procreal  # noqa: F401
    import workloads  # noqa: F401  (imports every engine module)

    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "procreal" or name.startswith("procreal.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_importer_and_restores_originals():
    from procreal import equivalence, names, semantics, semtypes

    before = _engine_functions()
    apply_action = names.Renaming.__dict__["apply_action"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names imported into several modules are wrapped in each of them
        assert semantics.step is not before[("procreal.semantics", "step")]
        assert equivalence.step is semantics.step
        assert semtypes.failures_equiv is equivalence.failures_equiv
        assert equivalence.build_lts is semantics.build_lts
        assert names.Renaming.__dict__["apply_action"] is not apply_action
    finally:
        tracer.restore()
    after = _engine_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert names.Renaming.__dict__["apply_action"] is apply_action


def test_recursive_call_opens_one_span():
    tracer = tracing.Tracer()

    def countdown(n):
        return n if n == 0 else wrapped(n - 1)

    wrapped = tracer.wrap(countdown, "demo.countdown")
    tracer.enabled = True
    tracer.current_query = 0
    assert wrapped(5) == 0
    assert len(tracer.start) == 1


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping: union 4)
    # and [9, 12] (clipped to the root: 1); grandchild [1.5, 2.5] under
    # the first child
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 4 - 1, 2 - 1, 3, 3, 1])


def test_layer_metrics_on_synthetic_spans():
    t = tracing.Tracer()
    fe = t.add_span("equivalence.failures_equiv", 0.0, 4.0, query=0)
    t.add_span("semantics.build_lts", 0.5, 1.5, parent=fe, query=0)
    t.add_span("semantics.build_lts", 2.0, 3.0, parent=fe, query=0)
    t.add_span("equivalence.failures_bounded", 3.0, 3.5, parent=fe, query=0)
    t.add_span("equivalence.failures_equiv", 5.0, 6.0, query=1)
    t.add_span("semantics.build_lts", 7.0, 8.0)  # outside any query: ignored
    m = tracing.layer_metrics(t)
    assert m["equivalence.failures_equiv.calls"] == (2, "count")
    assert m["equivalence.failures_equiv.s"][0] == pytest.approx(5.0)
    assert m["equivalence.failures_equiv.self_s"][0] == pytest.approx(5.0 - 2.5)
    assert m["semantics.build_lts.calls"] == (2, "count")
    assert m["equivalence.bounded_route_ratio"][0] == pytest.approx(0.5)
    assert {name for name in m} | {"trace.untraced_s", "trace.traced_s", "trace.overhead", "trace.spans"} == {
        metric["name"] for metric in SPEC["per_layer"]
    }


def test_calibration_scales_by_the_median_loop_time_near_the_query():
    import calibration

    clock = calibration.Clock()
    # loop samples every 0.1 s: 2 ms until t = 10 s, then 4 ms (a host at half speed)
    clock.at = [i / 10 for i in range(200)]
    clock.ms = [2.0 if t < 10 else 4.0 for t in clock.at]
    ref = calibration.REFERENCE_MS
    assert clock.scale(3.0, 3.001) == pytest.approx(ref / 2.0)
    assert clock.scale(15.0, 15.2) == pytest.approx(ref / 4.0)
    # a query ending at 9.8 s: 4 of the 16 samples within 0.5 s of it are slow
    assert clock.scale(9.3, 9.8) == pytest.approx(ref / 2.0)
