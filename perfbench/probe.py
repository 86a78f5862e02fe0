"""Set-up time of one fresh interpreter: import cbsim, build config and spec.

Usage: python3 perfbench/probe.py <workload>. Prints the seconds taken.
"""
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

start = perf_counter()
import cbsim  # noqa: E402
from workloads import make_config_and_spec  # noqa: E402

make_config_and_spec(cbsim, sys.argv[1], 0, "unused.csv")
print(perf_counter() - start)
