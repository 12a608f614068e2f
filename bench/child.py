"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 bench/child.py --workload W --seed S --spawned-at T
                           [--spans FILE --pass-index I]

Set-up is everything from the parent's spawn time T (time.perf_counter,
which is CLOCK_MONOTONIC and so shared between processes on Linux) to
freeprob imported and the plan's inputs built.  The pass runs the plan's
operations in order; an operation that raises counts as failed, and makes
the pass incorrect unless the plan lists it as a known fault.  Peak
resident memory is read when the pass ends, before the checks run.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ops(plan) -> tuple[dict, list, list, dict]:
    """Run the plan's operations in order: their results, the failures, the
    errors (failures the plan does not expect) and each operation's time."""
    results, failures, errors, times = {}, [], [], {}
    for name, op in plan.ops:
        t0 = time.perf_counter()
        try:
            results[name] = op()
        except Exception as exc:  # an operation that raises is a failed operation
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            if name not in plan.expected_failures:
                errors.append(f"{name} raised {type(exc).__name__}: {exc}")
        times[name] = time.perf_counter() - t0
    return results, failures, errors, times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="append this pass's spans to the file (traced pass)")
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import freeprob

    if Path(freeprob.__file__).resolve().parent != ROOT / "src" / "freeprob":
        print(f"freeprob imported from {freeprob.__file__}, not from the checkout", file=sys.stderr)
        return 1
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    plan = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.spawned_at

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.recording = True
    start = time.perf_counter()
    results, failures, errors, times = run_ops(plan)
    end = time.perf_counter()
    pass_s = end - start
    if tracer is not None:
        tracer.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        # no headline time from a headline that raised
        "headline_s": times[plan.headline] if plan.headline in results else None,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.ops),
        "failed": len(failures),
        "failures": failures,
    }
    out["errors"] = errors + plan.check(results)
    try:
        out["summary"] = plan.summary(results)
    except (ValueError, KeyError, TypeError) as exc:
        out["summary"] = {}
        out["errors"].append(f"summary not readable ({type(exc).__name__}: {exc})")
    if tracer is not None:
        out["layers"] = tracer.summary(start, end)
        out["errors"] += tracer.nesting_errors(start, end)
        with open(args.spans, "a") as fh:
            for span in tracer.spans:
                fh.write(json.dumps([args.pass_index, *span]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
