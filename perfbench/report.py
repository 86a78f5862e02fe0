"""Every metric of every workload, with units, from one command.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py on each workload untraced (end-to-end metrics) and traced
(per-layer metrics and tracing overhead), one run after another, and prints
each run's report. Exits non-zero if any run fails or finds a wrong output.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
                print(done.stderr, file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
