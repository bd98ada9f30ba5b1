"""The procreal benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 1

Untraced (`--trace 0`) it times set-up in fresh processes, then runs
about `--seconds` of queries in one more fresh process and prints the
end-to-end metrics, scaled to a reference host speed (`calibration.py`).
Traced (`--trace 1`) it runs the workload's fixed
digest prefix twice in fresh processes, untraced and traced, and prints
the per-layer metrics with the tracing overhead; the result is correct
only if both runs give the same verdict digest.  The last line of standard
output is the result; a summary goes to standard error, the full reports
to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up-only processes: at least SETUP_PROBES, and more while they have
# taken less than SETUP_PROBE_S, so that a short set-up gets more samples.
# The measured process adds one more sample.
SETUP_PROBES = 7
SETUP_PROBE_S = 5.0
# Queries per second of `--seconds` in the measured process, from the host
# of README.md; the measured process decides that many queries times
# `--seconds`.  None: every query (oracle's 33,244 terms take about 12 s).
RATE = {"oracle": None, "laws": 480, "semtypes": 130}
# The measured process decides a whole number of blocks of this many
# queries: a semtypes round is 206 queries, in a seeded order, so every
# seed decides the same constructions and checks.
BLOCK = {"oracle": 1, "laws": 1, "semtypes": 206}
DEADLINE = time.monotonic() + 170  # the whole command must end within 180 s


class ChildFailed(Exception):
    pass


def _worker(*args: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        timeout = max(1.0, DEADLINE - time.monotonic())
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no result before the 170 s deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    probes = []
    begin = time.monotonic()
    while len(probes) < SETUP_PROBES or time.monotonic() - begin < SETUP_PROBE_S:
        probes.append(_worker(*common, "--setup-only"))
    if RATE[workload] is None:
        run = _worker(*common, "--all")
    else:
        block = BLOCK[workload]
        run = _worker(*common, "--queries", str(block * max(1, round(RATE[workload] * seconds / block))))
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    n = run["attempted"]
    metrics = {
        "verdicts_per_s": (n / run["query_s"], "1/s"),
        "verdict_ms_p50": (run["verdict_ms_p50"], "ms"),
        "verdict_ms_p90": (run["verdict_ms_p90"], "ms"),
        "verdict_ms_p99": (run["verdict_ms_p99"], "ms"),
        "decided_ratio": (run["decided"] / n, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    report = dict(run, setup_samples=setups, failed_ratio=run["failed"] / n, correct=run["failed"] == 0)
    return metrics, report


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed), "--digest-prefix"]
    ref = _worker(*common)
    run = _worker(*common, "--trace")
    same_digest = run["digest"] == ref["digest"]
    if not same_digest:
        print(f"error: traced digest {run['digest']} differs from untraced {ref['digest']}", file=sys.stderr)
    metrics = {name: tuple(v) for name, v in run.pop("per_layer").items()}
    metrics["trace.untraced_s"] = (ref["query_s"], "s")
    metrics["trace.traced_s"] = (run["query_s"], "s")
    metrics["trace.overhead"] = (run["query_s"] / ref["query_s"] - 1.0, "ratio")
    metrics["trace.spans"] = (run["spans"], "count")
    report = dict(run, untraced=ref, failed_ratio=run["failed"] / run["attempted"],
                  correct=run["failed"] == 0 and same_digest)
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("oracle", "laws", "semtypes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "procreal" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, report = traced(args.workload, args.seed)
        else:
            metrics, report = end_to_end(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    mode = "traced" if args.trace else "untraced"
    (OUT / f"{args.workload}-seed{args.seed}-{mode}.json").write_text(
        json.dumps(dict(report, metrics=metrics), indent=1, sort_keys=True)
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:42s} {value:14.6g} {unit}", file=sys.stderr)
    print(
        f"{args.workload}: {report['attempted']} queries, {report['failed']} failed, "
        f"digest {report['digest'][:16]} over the first {report['digest_queries']}",
        file=sys.stderr,
    )
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
