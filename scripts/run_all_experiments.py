#!/usr/bin/env python3
"""Run the full experiment set and drop the figure data under results/.

Default is a quick pass (10 trials); use --full for the 100-trial runs,
which take 6 to 8 s on a 2-core x86-64 VM with Python 3.11, numpy 2.4 and
OpenBLAS on one thread (five runs; the spread is the host's load).
"""
import argparse
import sys
from pathlib import Path

from cbsim.cli import main as sim


def run(argv):
    code = sim(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="100 trials per experiment instead of 10")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    trials = "100" if args.full else "10"
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(args.seed), "--trials", trials,
              "--workers", str(args.workers)]

    run(["convergence", *common, "--gamma-db", "10,30,50",
         "--out", str(out / "convergence.csv")])
    run(["snr_sweep", *common, "--gamma-db", "10,20,30,40,50",
         "--out", str(out / "snr_sweep.csv")])
    run(["ref_sweep", *common, "--gamma-db", "30",
         "--algo", "cm,zf,mslnr,icbf_wi,cb_refim",
         "--out", str(out / "ref_sweep.csv")])
    run(["cdf", *common, "--gamma-db", "30",
         "--out", str(out / "cdf.csv")])
    run(["feedback", "--seed", str(args.seed), "--trials", "30",
         "--out", str(out / "feedback.csv")])
    print(f"all experiment data written under {out}/")


if __name__ == "__main__":
    main()
