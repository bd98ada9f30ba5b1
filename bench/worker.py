"""One measured process: set up a workload, run its queries as a closed
loop (the next query is issued only after the previous verdict returns),
check every verdict, and print one JSON line with the results.

    python3 bench/worker.py --workload laws --seed 1 --queries 3000
    python3 bench/worker.py --workload oracle --seed 1 --all
    python3 bench/worker.py --workload laws --seed 1 --digest-prefix --trace
    python3 bench/worker.py --workload laws --seed 1 --setup-only

`bench/run.py` starts this in fresh processes; it is not meant to be run
by hand except to debug a workload.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _import_engine():
    """Imports the workloads from this checkout's `src`, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "procreal" / "__init__.py").is_file():
        sys.exit(f"error: no engine sources under {src}")
    sys.path.insert(0, str(src))
    import procreal
    import workloads

    if Path(procreal.__file__).resolve().parent != (src / "procreal").resolve():
        sys.exit(f"error: procreal imported from {procreal.__file__}, not from {src}")
    return workloads


def percentile(sorted_ms: list, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(sorted_ms) == 1:
        return sorted_ms[0]
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[q - 1]


def run_queries(stream, limit, prefix, clock, tracer=None):
    """Runs the first `limit` queries (None: every query).  `digest`
    covers the first `prefix` of them (None: all), `digest_all` all.
    `clock` samples the host's speed between queries."""
    if prefix is None:
        prefix = float("inf")
    latencies = []
    starts = []
    failed = decided = 0
    errors = []
    digest, digest_all = hashlib.sha256(), hashlib.sha256()
    lines = []
    begin = time.perf_counter()
    for i, query in enumerate(stream):
        if limit is not None and i >= limit:
            break
        clock.tick()
        if tracer is not None:
            tracer.current_query = i
            tracer.enabled = True
        t = time.perf_counter()
        try:
            query.result = query.run()
            error = None
        except Exception as exc:  # a crash is a failed query, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        starts.append(t)
        if tracer is not None:
            tracer.enabled = False
        outcome = query.check(query.result) if error is None else query.crashed(error)
        decided += outcome.decided
        if not outcome.ok:
            failed += 1
            if len(errors) < 20:
                errors.append({"query": i, "kind": query.kind, "verdict": outcome.verdict,
                               "witness": str(outcome.witness)[:500]})
        line = query.record(i, outcome)
        lines.append(line)
        data = (line + "\n").encode()
        digest_all.update(data)
        if i < prefix:
            digest.update(data)
    wall = time.perf_counter() - begin
    clock.sample()
    # latencies at the reference host speed
    scaled = [d * clock.scale(t, t + d) for t, d in zip(starts, latencies)]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "decided": decided,
        "errors": errors,
        "latencies": latencies,
        "scaled": scaled,
        "loop_s": wall,
        "digest": digest.hexdigest(),
        "digest_all": digest_all.hexdigest(),
        "lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--queries", type=int, help="run exactly this many queries")
    ap.add_argument("--all", action="store_true", help="run every query")
    ap.add_argument("--digest-prefix", action="store_true", help="run exactly the digest prefix")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workloads = _import_engine()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if [args.queries is not None, args.all, args.digest_prefix, args.setup_only].count(True) != 1:
        sys.exit("error: give one of --queries, --all, --digest-prefix and --setup-only")
    wl = workloads.WORKLOADS[args.workload]
    limit = wl.digest_queries if args.digest_prefix else args.queries
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        clock = calibration.Clock()
        out = run_queries(wl.queries(inputs), limit, wl.digest_queries, clock, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    wall_ms = sorted(x * 1000.0 for x in out.pop("latencies"))
    lat_ms = sorted(x * 1000.0 for x in out.pop("scaled"))
    mode = "traced" if args.trace else "untraced"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-{mode}.digest").write_text("\n".join(out.pop("lines")) + "\n")
    result.update(out)
    result.update(
        {
            "digest_queries": min(wl.digest_queries or out["attempted"], out["attempted"]),
            "query_s": sum(lat_ms) / 1000.0,
            "verdict_ms_p50": statistics.median(lat_ms),
            "verdict_ms_p90": percentile(lat_ms, 90),
            "verdict_ms_p99": percentile(lat_ms, 99),
            "wall": {
                "query_s": sum(wall_ms) / 1000.0,
                "verdict_ms_p50": statistics.median(wall_ms),
                "verdict_ms_p90": percentile(wall_ms, 90),
                "verdict_ms_p99": percentile(wall_ms, 99),
            },
            "calibration": {"samples": len(clock.ms), "ms_p50": statistics.median(clock.ms)},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        tracer.write(OUT / f"{wl.name}.spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
