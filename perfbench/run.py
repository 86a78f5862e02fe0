"""cbsim benchmark: Monte-Carlo throughput end to end, layer timings traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {snr_sweep,ref_sweep,feedback} \
        --seed N --seconds S --trace {0,1} [--check-seed N]

Each call runs ``cbsim.run_experiment`` on TRIALS_PER_CALL trials whose
master seed is drawn from ``--seed``, one call after another (a closed loop
with one caller), for at least ``--seconds`` seconds. Every CSV is checked;
a call at the pinned ``--check-seed`` must also reproduce expected.json.

--trace 0 reports the end-to-end metrics. --trace 1 runs every call twice,
plain and then with the layers wrapped by tracer.Tracer, and reports the
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the problem's 3x3 eigh and
# solves gain nothing from threads on two cores, and spinning ones add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from tracer import COUNTED, ROOT, SPANS, Tracer  # noqa: E402

EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
#: Calls every untraced run makes however fast the code is; ``gain`` is
#: taken over exactly these, so it is a fixed function of the seed.
MIN_CALLS = 12

#: Host-speed samples: every SAMPLE_S seconds of a timed run a timer signal
#: makes the main thread time one calibration block of CAL_LOOPS loops.
SAMPLE_S = 0.1
CAL_LOOPS = 15
#: Seconds one calibration block takes on the machine the bounds were set on
#: (2-core x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS on one thread) when no
#: neighbour loads it. Timed results are scaled to this speed.
CAL_REF_S = 0.003

E2E_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "fraction", "gain": "ratio"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for mod, fns in SPANS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "1/trial"
            units[f"{mod}.{fn}.self_ms"] = "ms/trial"
    units.update({
        "experiments.self_ms": "ms/trial",
        "solver.solve.ms_p50": "ms",
        "solver.solve.ms_p90": "ms",
        "solver.inner_iters_per_solve": "1/solve",
        "solver.outer_iters_per_solve": "1/solve",
        "solver.outer_converged_frac": "fraction",
        "solver.non_monotone_steps": "1/solve",
        "solver.dual_evals_per_search": "1/search",
        "trace.untraced_trials_per_s": "1/s",
        "trace.traced_trials_per_s": "1/s",
        "trace.overhead_trials_per_s": "1/s",
        "trace.absent_functions": "count",
    })
    return units


def calibration_block() -> float:
    """Seconds a fixed numpy block takes right now.

    The block has the simulator's shape -- batched 3x3 eigh, einsum and short
    vector operations in a Python loop -- and does not touch cbsim, so its
    time follows only the speed the shared host gives this process.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
    mats = a @ a.conj().transpose(0, 2, 1)
    hs = a[:, :, 0]
    lams = np.linspace(0.1, 10.0, 12)
    start = perf_counter()
    for _ in range(CAL_LOOPS):
        evals, vecs = np.linalg.eigh(mats)
        proj = np.abs(np.einsum("aij,aj->ai", vecs.conj().transpose(0, 2, 1), hs)) ** 2
        for lam in lams:
            u = np.sum(proj / (evals + lam), axis=1)
            np.sum(np.clip(u - 1.0, 0.0, None) / u ** 2)
        for k in range(9):
            np.vdot(hs[k], mats[k] @ hs[k])
    return perf_counter() - start


class HostSpeed:
    """The speed the shared host gave this process, sampled while it ran.

    Neighbours on the host slow this process by up to 2x, in bursts of a
    second or two; CPU time slows just as much as wall time. While
    ``sampling()`` is active a timer signal interrupts the main thread every
    SAMPLE_S seconds -- inside cbsim calls too -- to time one calibration
    block. ``speed`` is the mean of CAL_REF_S over those block times: the
    share of the reference machine the run had. Samples taken inside a timed
    call are subtracted from its time (``inside``).
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, end, speed

    def _sample(self, signum, frame):
        start = perf_counter()
        speed = CAL_REF_S / calibration_block()
        self.samples.append((start, perf_counter(), speed))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds of sampling between ``start`` and ``end``. A sample runs
        in the main thread, so it lies wholly inside or outside the span."""
        return sum(e - s for s, e, _ in self.samples if s >= start and e <= end)

    @property
    def speed(self) -> float:
        return statistics.fmean(v for _, _, v in self.samples)


def setup_seconds(name: str) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                              cwd=REPO, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Bench:
    """One workload's calls into cbsim, their timings and their checks."""

    def __init__(self, cbsim, name: str, outdir: Path):
        self.cbsim = cbsim
        self.name = name
        self.outdir = outdir
        self.host: HostSpeed | None = None   # set while a timed loop samples
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def call(self, seed: int) -> tuple[float, list[list[str]], int]:
        """Run one experiment; returns its wall time, its CSV and the number
        of rows that failed the checks."""
        self._count += 1
        out = self.outdir / f"call{self._count}.csv"
        config, spec = wl.make_config_and_spec(self.cbsim, self.name, seed, str(out))
        self.attempted += wl.TRIALS_PER_CALL
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                self.cbsim.run_experiment(config, spec)
            except self.cbsim.CbsimError as exc:
                print(f"warning: call with seed {seed} failed: {exc}", file=sys.stderr)
                self.failed += wl.TRIALS_PER_CALL
                return perf_counter() - start, [], 1
            end = perf_counter()
        elapsed = end - start - (self.host.inside(start, end) if self.host else 0.0)
        rows = wl.read_csv(out)
        out.unlink()
        kept, bad = wl.check_rows(self.name, rows, wl.TRIALS_PER_CALL)
        self.failed += wl.TRIALS_PER_CALL - kept + bad
        return elapsed, rows, bad

    def pinned_check(self, check_seed: int, pinned: list[list[str]]) -> None:
        """One call at the check seed, compared row by row with pinned values.

        It also lets caches fill before anything is timed.
        """
        _, rows, _ = self.call(check_seed)
        self.failed += wl.compare_pinned(self.name, rows, pinned)


def call_seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.getrandbits(63)


def measure_plain(bench: Bench, seed: int, seconds: float, min_calls: int) -> dict:
    """Untraced closed loop: the end-to-end metrics except set-up time."""
    elapsed = []
    num = den = 0.0
    seeds = call_seeds(bench.name, seed)
    bench.host = HostSpeed()
    with bench.host.sampling():
        start = perf_counter()
        while len(elapsed) < min_calls or perf_counter() - start < seconds:
            dt, rows, bad = bench.call(next(seeds))
            if len(elapsed) < min_calls and not bad:
                n, d = wl.quality_terms(bench.name, rows)
                num, den = num + n, den + d
            elapsed.append(dt)
    raw = wl.TRIALS_PER_CALL * len(elapsed) / sum(elapsed)
    return {
        "trials_per_s": raw / bench.host.speed,
        "raw_trials_per_s": raw,
        "host_speed": bench.host.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": max(0.0, 1.0 - bench.failed / bench.attempted),
        "gain": num / den if den else 0.0,
    }


def measure_traced(bench: Bench, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Each call plain, then traced on the same seed: per-layer metrics."""
    tracer = Tracer()
    plain = traced = 0.0
    seeds = call_seeds(bench.name, seed)
    start = perf_counter()
    calls = 0
    while calls < 1 or perf_counter() - start < seconds:
        call_seed = next(seeds)
        if calls % 2:  # alternate which side runs first
            with tracer.patch():
                traced += bench.call(call_seed)[0]
            plain += bench.call(call_seed)[0]
        else:
            plain += bench.call(call_seed)[0]
            with tracer.patch():
                traced += bench.call(call_seed)[0]
        calls += 1
    trials = wl.TRIALS_PER_CALL * calls
    metrics = {}
    for mod, fns in SPANS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            metrics[f"{name}.calls"] = tracer.calls.get(name, 0) / trials
            metrics[f"{name}.self_ms"] = tracer.self_s.get(name, 0.0) * 1e3 / trials
    metrics["experiments.self_ms"] = tracer.self_s.get(ROOT[0], 0.0) * 1e3 / trials
    metrics.update(solver_stats(tracer))
    searches = tracer.calls.get("solver.lambda_bisection", 0)
    evals = tracer.calls.get(".".join(COUNTED), 0)
    metrics["solver.dual_evals_per_search"] = evals / searches if searches else 0.0
    metrics["trace.untraced_trials_per_s"] = trials / plain
    metrics["trace.traced_trials_per_s"] = trials / traced
    metrics["trace.overhead_trials_per_s"] = trials / traced - trials / plain
    absent = sorted(tracer.absent)
    metrics["trace.absent_functions"] = len(absent)
    return metrics, absent


def solver_stats(tracer: Tracer) -> dict:
    """Solve-time percentiles and what the returned SolverTraces say."""
    ms = tracer.solve_ms
    traces = tracer.solver_traces

    def mean_of(read) -> float:
        values = [read(t) for t in traces]
        return statistics.fmean(values) if values else 0.0

    return {
        "solver.solve.ms_p50": statistics.median(ms) if ms else 0.0,
        "solver.solve.ms_p90": (statistics.quantiles(ms, n=10)[-1]
                                if len(ms) > 1 else sum(ms)),
        "solver.inner_iters_per_solve": mean_of(lambda t: len(t.iteration_index)),
        "solver.outer_iters_per_solve": mean_of(lambda t: len(t.outer_sum_rates)),
        "solver.outer_converged_frac": mean_of(lambda t: float(t.converged_outer)),
        "solver.non_monotone_steps": mean_of(lambda t: t.non_monotone_steps),
    }


def environment(args) -> dict:
    import scipy
    revision = "unknown (not a git checkout)"
    if (REPO / ".git").exists():
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                                  capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_revision": revision, "workload": args.workload, "seed": args.seed,
            "check_seed": args.check_seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": 1}


def run(args, pinned: list[list[str]], min_calls: int = MIN_CALLS) -> dict:
    """Measure one workload as the arguments say; returns the result object."""
    setup = None if args.trace else setup_seconds(args.workload)
    import cbsim
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=REPO) as tmp:
        bench = Bench(cbsim, args.workload, Path(tmp))
        bench.pinned_check(args.check_seed, pinned)
        if args.trace:
            metrics, absent = measure_traced(bench, args.seed, args.seconds)
            units = layer_units()
        else:
            metrics = measure_plain(bench, args.seed, args.seconds, min_calls)
            metrics["setup_s"] = statistics.median(setup)
            absent = []
            units = E2E_UNITS
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, unit in units.items():
        note = "  (absent)" if any(name.startswith(a + ".") for a in absent) else ""
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}{note}")
    if args.trace:
        print(f"  tracing overhead (traced - untraced): "
              f"{metrics['trace.overhead_trials_per_s']:.4g} trials/s")
    else:
        print(f"  {'failed_frac':40s} {bench.failed / bench.attempted:14.6g} fraction")
        print(f"  host speed {metrics['host_speed']:.4f} of the reference, unscaled "
              f"{metrics['raw_trials_per_s']:.4f} trials/s, set-up samples "
              + ", ".join(f"{s:.4f}" for s in setup) + " s")
    print("env " + json.dumps(environment(args), sort_keys=True))
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--check-seed", type=int,
                        help="pinned seed whose expected CSV the run must "
                             "reproduce (default: the first in expected.json; "
                             "the second is held out for confirming a change)")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "cbsim" / "__init__.py").is_file():
        print(f"error: no cbsim sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    pinned_by_seed = json.loads(EXPECTED.read_text())[args.workload]
    if args.check_seed is None:
        args.check_seed = int(next(iter(pinned_by_seed)))
    if str(args.check_seed) not in pinned_by_seed:
        print(f"error: no pinned values for check seed {args.check_seed}; "
              f"pinned: {', '.join(pinned_by_seed)}", file=sys.stderr)
        return 2
    result = run(args, pinned_by_seed[str(args.check_seed)])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
