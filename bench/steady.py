"""Steadiness of the benchmark on one commit.

    python3 bench/steady.py [--seeds 1-10]

Runs bench/run.py untraced once per workload of BENCHMARK.json and seed,
for the run_seconds of BENCHMARK.json, one run at a time, and prints for
each end-to-end metric and workload the median, the quartiles (statistics.quantiles
with n=4), the quartile spread as a share of the median, and, for the
end-to-end metrics, that spread over the metric's bound.  It also prints the share of failed operations per
workload.  All run results go to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = {}
    for workload in (w["name"] for w in config["workloads"]):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"\n{'workload':18} {'metric':28} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'/bound':>7}")
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            per_bound = f"{spread / bounds[name]:7.2f}"
            print(f"{workload:18} {name:28} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {per_bound}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:18} {'failed share':28} {sorted(shares)}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
