"""Rewrite expected.json: every workload's CSV at the pinned check seeds.

Usage: python3 perfbench/pin.py

The pinned values are the output check of every benchmark run, so rewrite
them only for a change that is meant to alter cbsim's results, and say why
in the same commit. The first seed is the default check; the second is held
out, for confirming a change on a seed it was not tuned on.
"""
import json
import tempfile
from pathlib import Path

import run
import workloads as wl

CHECK_SEEDS = (1, 2)


def main() -> None:
    import cbsim
    pinned = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.REPO) as tmp:
        for name in wl.WORKLOADS:
            bench = run.Bench(cbsim, name, Path(tmp))
            pinned[name] = {}
            for seed in CHECK_SEEDS:
                _, rows, bad = bench.call(seed)
                if bad:
                    raise SystemExit(f"{name} at seed {seed}: {bad} rows fail the checks")
                pinned[name][str(seed)] = rows
    run.EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
