"""Run every workload, each in a fresh process, and print every metric.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Prints one line per metric (workload,
name, value, unit), then the failed ops, if any. Exits non-zero if any run
exits non-zero or fails a check. ``--seconds`` defaults to ``run_seconds``
of BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{workload}: run exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:45s} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:12s} {'ops failed / attempted':45s} {result['failed']:>6d} / {result['attempted']}")
        for failure in record["failed_ops"]:
            print(f"{workload:12s} FAILED {failure}")
        ok = ok and proc.returncode == 0 and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
