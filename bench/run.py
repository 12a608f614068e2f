"""freeprob benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

A run runs whole passes, each in a fresh interpreter, one after another (a
closed loop with one client).  It starts another pass while the passes so far plus one more
of the same length fit in N seconds, and runs at least MIN_PASSES.  Time
metrics are medians over passes.  The run then makes the checks that need
the whole run (the FID certificates) and prints, as the last line of
stdout, one JSON object: correct, attempted, failed and the metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones, the traced pass time, the time no span covers, and
the tracing overhead (traced minus untraced median pass time).  Spans go to
bench/out/spans-<workload>-<seed>.jsonl, one [pass, id, parent, name,
start, end] array per line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

class RunError(Exception):
    pass


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Start one child interpreter and return its JSON result."""
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"pass process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list]:
    """Passes: untraced ones, or untraced/traced pairs."""
    plain, with_spans = [], []
    spans_file = OUT / f"spans-{workload}-{seed}.jsonl"
    if traced:
        OUT.mkdir(exist_ok=True)
        spans_file.unlink(missing_ok=True)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        plain.append(spawn(workload, seed))
        if traced:
            with_spans.append(spawn(workload, seed, "--spans", str(spans_file),
                                    "--pass-index", str(len(with_spans))))
        rounds += 1
        now = time.perf_counter()
        enough = rounds >= (1 if traced else MIN_PASSES)
        if enough and (now - start) + (now - round_start) > seconds:
            break
    return plain, with_spans


def median(values) -> float:
    return statistics.median(values)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    plain, with_spans = measure(workload, seed, seconds, traced)
    passes = plain + with_spans
    errors = [e for p in passes for e in p["errors"]]
    summaries = {json.dumps(p["summary"], sort_keys=True) for p in passes}
    if len(summaries) != 1:
        errors.append(f"passes disagree: {sorted(summaries)}")
    errors += checks.fid_run(passes[0]["summary"])
    for p in passes:
        for failure in p["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    for e in sorted(set(errors)):
        print(f"check: {e}", file=sys.stderr)

    if traced:
        metrics = layer_metrics(plain, with_spans)
    else:
        headlines = [p["headline_s"] for p in plain if p["headline_s"] is not None]
        if not headlines:
            raise RunError("the headline operation raised in every pass")
        metrics = {
            "setup_s": {"value": median(p["setup_s"] for p in plain), "unit": "s"},
            "pass_s": {"value": median(p["pass_s"] for p in plain), "unit": "s"},
            "headline_s": {"value": median(headlines), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }
    return {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def layer_metrics(plain: list, with_spans: list) -> dict:
    """Medians over traced passes of each per-layer metric, plus overhead."""
    metrics = {}
    for name in [*tracing.LAYERS, *tracing.COUNT_METRICS, *tracing.PASS_METRICS]:
        if name == "trace.overhead_s":
            value = median(p["pass_s"] for p in with_spans) - median(p["pass_s"] for p in plain)
        else:
            value = median(p["layers"][name] for p in with_spans)
        unit = "s" if name.endswith("_s") else tracing.COUNT_UNITS.get(name, "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
