"""Monte-Carlo experiment harness producing the figure data as CSV.

Five experiment kinds are supported:

  convergence  mean weighted sum-rate per outer iteration and algorithm
  snr_sweep    mean weighted sum-rate at convergence versus transmit SNR
  ref_sweep    mean weighted sum-rate of cb_refim versus reference count
  cdf          sorted per-user total rates (empirical CDF support)
  feedback     inter-BS feedback bits versus users-per-cell and antennas

Reproducibility: trial t derives its RNG state from
``numpy.random.SeedSequence((master_seed, t))``, and a solve's result does
not depend on the batch it shares with other trials, so results are
identical however trials are grouped and whether the groups run in one
process or across workers; reruns with the same config and seed produce
byte-identical CSV (disable the header timestamp comment for byte
comparisons).
"""
from __future__ import annotations

import csv
import sys
from dataclasses import MISSING, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import initializers, metrics, refim, solver
from .config import (BOOLEAN, FINITE, PATH, NetworkConfig, check_settings, integer,
                     list_of, one_of, setting, setting_keys)
from .errors import CbsimError, ConfigurationError, InvalidStateError
from .network import (N_UNCOORDINATED, apply_noise, build_topology, compute_noise,
                      draw_channels, draw_fading, draw_long_term, dump_channels_csv,
                      dump_topology_csv, normalize_channels)

EXPERIMENT_KINDS = ("convergence", "snr_sweep", "ref_sweep", "cdf", "feedback")
SOLVER_ALGOS = set(solver.ALGORITHMS)
BASELINE_ALGOS = set(initializers.INITIALIZERS)
DEFAULT_ALGOS = ("cm", "zf", "mslnr", "icbf", "icbf_wi", "cb_refim")
#: Errors that exclude one trial: a cbsim error or a singular linear solve.
TRIAL_ERRORS = (CbsimError, np.linalg.LinAlgError)
#: Byte budget of one solver batch's victim weights and leakage matrices;
#: it sets how many trials :func:`_run_trials` solves as one group, and
#: how many draws :func:`feedback_table` ranks as one stack.
BATCH_BYTES = 4 * 2**20


@dataclass
class ExperimentSpec:
    """What to run and where to write it."""
    kind: str = setting(MISSING, one_of(EXPERIMENT_KINDS), key=None)
    trials: int = setting(100, integer(1), flag="--trials", help="Monte-Carlo trials")
    seed: int = setting(0, integer(0), flag="--seed", help="master seed")
    gamma_db: tuple[float, ...] = setting((30.0,), list_of(FINITE), flag="--gamma-db",
                                          help="comma separated transmit SNR list in dB")
    algos: tuple[str, ...] = setting(DEFAULT_ALGOS, list_of(one_of(SOLVER_ALGOS | BASELINE_ALGOS)),
                                     flag="--algo", help="comma separated algorithm list")
    init: str = setting("mslnr", one_of(initializers.INITIALIZERS), flag="--init",
                        help="solver starting point")
    refs: int = setting(1, integer(0), flag="--refs", help="reference users for cb_refim")
    workers: int = setting(1, integer(1), flag="--workers", help="trial worker processes")
    qbits: int = setting(8, integer(1))
    k_list: tuple[int, ...] = setting(tuple(range(2, 11)), list_of(integer(1)))
    nt_list: tuple[int, ...] = setting((2, 3, 4), list_of(integer(1)))
    out: str = setting("results.csv", PATH, flag="--out", help="output CSV path")
    timestamp: bool = setting(True, BOOLEAN, flag="--no-timestamp",
                              help="omit the generated-at comment line (byte-stable output)")
    dump_prefix: str | None = setting(
        None, PATH, key=None, flag="--dump-prefix",
        help="debug: write <prefix>_topology.csv/_channels.csv and "
             "_trace_<algo>_<gamma>[_r<refs>].csv for trial 0")

    def __post_init__(self):
        check_settings(self)


def spec_from_values(kind: str, values: dict, overrides: dict | None = None) -> ExperimentSpec:
    """The ``kind`` spec from parsed config-file values, by key, and
    ``overrides``, by field name, which win; None overrides are skipped."""
    kwargs = {f.name: values[key] for key, f in setting_keys(ExperimentSpec).items()
              if key in values}
    kwargs.update((name, v) for name, v in (overrides or {}).items() if v is not None)
    return ExperimentSpec(kind=kind, **kwargs)


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int]:
    """Topology and channel seeds for one trial, mixed from the master seed."""
    ss = np.random.SeedSequence((master_seed, trial))
    s_topo, s_chan = ss.generate_state(2)
    return int(s_topo), int(s_chan)


@dataclass
class TrialResult:
    """Everything one channel realization contributes to the aggregates."""
    trial: int
    final_wsr: dict = field(default_factory=dict)        # (algo, gamma|refs) -> float
    outer_traces: dict = field(default_factory=dict)     # (algo, gamma) -> list[float]
    user_rates: dict = field(default_factory=dict)       # (algo, gamma) -> (M*K,) array


def _solves(spec: ExperimentSpec, ref_counts: tuple[int, ...] | None
            ) -> list[tuple[str, int]]:
    """The (solver, reference count) solves of one draw: each solver of
    ``spec.algos`` at ``spec.refs``, cb_refim at every one of ``ref_counts``
    instead when given."""
    return [(algo, refs) for algo in spec.algos if algo in SOLVER_ALGOS
            for refs in (ref_counts if algo == "cb_refim" and ref_counts is not None
                         else (spec.refs,))]


def run_solver_trials(config: NetworkConfig, spec: ExperimentSpec,
                      trials: tuple[int, ...],
                      ref_counts: tuple[int, ...] | None = None) -> list[TrialResult]:
    """Channel realizations ``trials`` as one stack with leading (trial,
    gamma) axes. Returns one result per trial, in order.

    Each trial's raw draw is normalized at every SNR point in one broadcast.
    Each initializer runs once on the stack, for its baseline row and every
    solver start; one :func:`solver.solve_batch` runs every (algorithm, trial,
    gamma) solve, cb_refim at every one of ``ref_counts`` when given; one
    batched link state rates every row. A solve's result does not depend on
    its batch, so each trial's result is bit-identical to a call on that
    trial alone.
    """
    sigma2 = [config.with_gamma_db(gamma).sigma2 for gamma in spec.gamma_db]
    draws = []
    for t in trials:
        s_topo, s_chan = trial_seeds(spec.seed, t)
        topology = build_topology(config, s_topo)
        draws.append(apply_noise(topology, config, *draw_channels(topology, config, s_chan),
                                 sigma2))
        if spec.dump_prefix and t == 0:
            dump_topology_csv(topology, f"{spec.dump_prefix}_topology.csv")
            dump_channels_csv(draws[-1][0], f"{spec.dump_prefix}_channels.csv")
    h = np.stack(draws)
    shape = h.shape[:2]                                         # (trial, gamma)
    baselines = [algo for algo in spec.algos if algo in BASELINE_ALGOS]
    solves = _solves(spec, ref_counts)
    inits = {name: initializers.make_initial_beams(name, h, config)
             for name in dict.fromkeys(baselines + ([spec.init] if solves else []))}
    # one row per baseline and per solve: algo, the reference count of a
    # ref_sweep key or None, and beams and traces by (trial, gamma)
    rows = [(algo, None, inits[algo], None) for algo in baselines]
    if solves:
        def per_solve(x):       # (trial, gamma, ...) -> (solve * trial * gamma, ...)
            return np.concatenate([x] * len(solves)).reshape((-1,) + x.shape[2:])

        each = shape[0] * shape[1]
        beams, traces = solver.solve_batch(
            per_solve(h), config, per_solve(inits[spec.init]),
            [algo for algo, _ in solves for _ in range(each)],
            [refs for _, refs in solves for _ in range(each)])
        beams = beams.reshape((len(solves),) + shape + beams.shape[1:])
        traces = np.array(traces, dtype=object).reshape((len(solves),) + shape)
        rows += [(algo, refs if algo == "cb_refim" and ref_counts is not None else None,
                  beams[s], traces[s]) for s, (algo, refs) in enumerate(solves)]
    link = metrics.link_state(h, np.stack([row[2] for row in rows]), config)
    wsr = metrics.sum_rate_of_link(config, link).tolist()
    user_rates = np.sum(np.log2(1.0 + metrics.sinr_of_link(config, link))
                        * config.assignment, axis=-1)
    results = [TrialResult(trial=t) for t in trials]
    cap = config.L_out_max
    for (algo, refs, _, row_traces), row_wsr, row_rates in zip(rows, wsr, user_rates):
        for i, (t, result) in enumerate(zip(trials, results)):
            for j, gamma in enumerate(spec.gamma_db):
                trace = None if row_traces is None else row_traces[i, j]
                key = (algo, gamma) if refs is None else (algo, gamma, refs)
                result.final_wsr[key] = row_wsr[i][j]
                # the sum-rate after each outer iteration, continued past the
                # end of the solve so that every row has L_out_max points
                series = [row_wsr[i][j]] if trace is None else trace.outer_sum_rates
                result.outer_traces[(algo, gamma)] = (series + series[-1:] * cap)[:cap]
                result.user_rates[(algo, gamma)] = row_rates[i, j].ravel()
                if spec.dump_prefix and t == 0 and trace is not None:
                    suffix = "" if refs is None else f"_r{refs}"
                    trace.to_csv(f"{spec.dump_prefix}_trace_{algo}_{gamma:g}{suffix}.csv")
    return results


def _trials_per_group(config: NetworkConfig, spec: ExperimentSpec,
                      ref_counts: tuple[int, ...] | None) -> int:
    """Trials per group: the fewest near-equal groups whose solver batch (every
    solver solve of its trials) keeps its victim weights (float64, MK per
    triple) and leakage matrices (complex128, Nt^2 per triple) within
    BATCH_BYTES, and at least one group per worker. Each group holds at least
    one trial."""
    triples = config.M * config.K * config.N
    per_solve = triples * (8 * config.M * config.K + 16 * config.Nt ** 2)
    per_trial = per_solve * len(spec.gamma_db) * len(_solves(spec, ref_counts))
    cap = max(1, BATCH_BYTES // max(per_trial, 1))
    groups = max(-(-spec.trials // cap), min(spec.workers, spec.trials))
    return -(-spec.trials // groups)


def _run_group(config: NetworkConfig, spec: ExperimentSpec, trials: tuple[int, ...],
               ref_counts: tuple[int, ...] | None) -> list[TrialResult | str]:
    """Each trial's result, or its error text if it raised one of TRIAL_ERRORS.

    The group runs as one; if it raises, each trial runs again on its own,
    so a failure excludes only the trial that raised it.
    """
    try:
        return run_solver_trials(config, spec, trials, ref_counts)
    except TRIAL_ERRORS as exc:
        if len(trials) == 1:
            return [str(exc)]
    return [out for t in trials for out in _run_group(config, spec, (t,), ref_counts)]


def _check_zero_forcing(config: NetworkConfig, spec: ExperimentSpec) -> None:
    """Fail before any trial runs if the run uses zero-forcing, as a baseline
    or as the solvers' start, where the assignment crowds a cell."""
    if "zf" in spec.algos:
        use = "algos lists zf"
    elif spec.init == "zf" and SOLVER_ALGOS.intersection(spec.algos):
        use = "init = zf"
    else:
        return
    try:
        initializers.check_zf(config)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{use}, but {exc}") from None


def _run_trials(config: NetworkConfig, spec: ExperimentSpec,
                ref_counts: tuple[int, ...] | None = None) -> tuple[list[TrialResult], int]:
    """Run all trials in contiguous groups (optionally in worker processes);
    order is by trial index.

    Failed trials (a cbsim error or a singular linear solve) are excluded
    from the aggregates; the exclusion count is reported so the statistics
    stay honest. Any other exception ends the run.
    """
    _check_zero_forcing(config, spec)
    size = _trials_per_group(config, spec, ref_counts)
    groups = [tuple(range(lo, min(lo + size, spec.trials)))
              for lo in range(0, spec.trials, size)]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor    # only workers need the pool
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_run_group, config, spec, g, ref_counts) for g in groups]
            outcomes = [out for future in futures for out in future.result()]
    else:
        outcomes = [out for g in groups for out in _run_group(config, spec, g, ref_counts)]
    failures = 0
    for t, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            failures += 1
            print(f"warning: trial {t} failed: {outcome}", file=sys.stderr)
    kept = [r for r in outcomes if not isinstance(r, str)]
    if not kept:
        raise InvalidStateError(f"every trial failed ({failures} errors)")
    return kept, failures


def _open_csv(spec: ExperimentSpec):
    path = Path(spec.out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    if spec.timestamp:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    return fh


def _run_convergence(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Columns: algo, gamma_db, outer_iter (1-based), mean_sum_rate, trials."""
    results, failures = _run_trials(config, spec)
    with _open_csv(spec) as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "gamma_db", "outer_iter", "mean_sum_rate", "trials"])
        for algo in spec.algos:
            for gamma in spec.gamma_db:
                series = np.array([r.outer_traces[(algo, gamma)] for r in results])
                mean = series.mean(axis=0)
                for it in range(mean.shape[0]):
                    writer.writerow([algo, f"{gamma:g}", it + 1,
                                     f"{mean[it]:.12g}", len(results)])
    _report(spec, len(results), failures)
    return Path(spec.out)


def _run_snr_sweep(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Columns: algo, gamma_db, mean_sum_rate, std_sum_rate, trials."""
    results, failures = _run_trials(config, spec)
    with _open_csv(spec) as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "gamma_db", "mean_sum_rate", "std_sum_rate", "trials"])
        for algo in spec.algos:
            for gamma in spec.gamma_db:
                vals = np.array([r.final_wsr[(algo, gamma)] for r in results])
                writer.writerow([algo, f"{gamma:g}", f"{vals.mean():.12g}",
                                 f"{vals.std():.12g}", len(results)])
    _report(spec, len(results), failures)
    return Path(spec.out)


def _run_ref_sweep(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """cb_refim swept over reference counts 0..MK-1 plus the requested
    baselines. Columns: algo, refs, gamma_db, mean_sum_rate, trials."""
    ref_counts = tuple(range(config.M * config.K))
    baselines = tuple(a for a in spec.algos if a != "cb_refim")
    sweep_spec = replace(spec, algos=baselines + ("cb_refim",))
    results, failures = _run_trials(config, sweep_spec, ref_counts=ref_counts)
    with _open_csv(spec) as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "refs", "gamma_db", "mean_sum_rate", "trials"])
        for gamma in spec.gamma_db:
            for algo in baselines:
                vals = np.array([r.final_wsr[(algo, gamma)] for r in results])
                writer.writerow([algo, "", f"{gamma:g}", f"{vals.mean():.12g}",
                                 len(results)])
            for refs in ref_counts:
                vals = np.array([r.final_wsr[("cb_refim", gamma, refs)]
                                 for r in results])
                writer.writerow(["cb_refim", refs, f"{gamma:g}",
                                 f"{vals.mean():.12g}", len(results)])
    _report(spec, len(results), failures)
    return Path(spec.out)


def _run_cdf(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Columns: algo, gamma_db, user_rate, ecdf (sorted ascending per algo)."""
    results, failures = _run_trials(config, spec)
    with _open_csv(spec) as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "gamma_db", "user_rate", "ecdf"])
        for algo in spec.algos:
            for gamma in spec.gamma_db:
                samples = np.sort(np.concatenate(
                    [r.user_rates[(algo, gamma)] for r in results]))
                n = samples.size
                for idx, rate in enumerate(samples):
                    writer.writerow([algo, f"{gamma:g}", f"{rate:.12g}",
                                     f"{(idx + 1) / n:.8g}"])
    _report(spec, len(results), failures)
    return Path(spec.out)


def _draws_per_stack(config: NetworkConfig) -> int:
    """Channel draws per reference ranking of the feedback table: as many as
    keep their working set within BATCH_BYTES, and at least one. Per link
    that is two complex128 copies of its Nt channel entries (the draws and
    their stack) and, per (beam, candidate) pair, of which there are K per
    link, about four 8-byte arrays of the ranking. Each draw also holds its
    stream's normals (:meth:`LongTerm.normals`): the real parts of every
    BS's fading and the imaginary parts of the coordinated BSs', 8 bytes
    each."""
    links = config.M * config.n_users * config.N
    normals = (N_UNCOORDINATED + 2 * config.M) * config.n_users * config.N * config.Nt
    return max(1, BATCH_BYTES // (links * 32 * (config.Nt + config.K) + 8 * normals))


def feedback_table(config: NetworkConfig, spec: ExperimentSpec) -> list[dict]:
    """Feedback bits per (algo, K, Nt), in Nt-major order.

    The full algorithm's count is deterministic. The reference-user variant
    depends on which references the channel draw selects, so its bit count is
    averaged over ``spec.trials`` independent realizations (reference
    selection only needs channels, no solving). A trial's user drop,
    shadowing and noise depend only on K, so each (K, trial) topology and
    long-term draw (:func:`draw_long_term`, :func:`compute_noise`) is made
    once and serves every Nt; only the fading is drawn per (Nt, K, trial),
    from the trial's stream just after its shadowing, so every draw equals
    a fresh one bit for bit. Trials run in chunks sized for the largest Nt
    by BATCH_BYTES: each (K, Nt) cell normalizes, ranks and counts a
    chunk's draws as one stack, with one :func:`refim.reference_map` and one
    :func:`refim.feedback_bits` call, which treat every draw bit for bit as
    they would alone.
    """
    seeds = [trial_seeds(spec.seed, t) for t in range(spec.trials)]
    cells = {(nt, k): replace(config, K=int(k), Nt=int(nt), weights=None, assignment=None)
             for nt in spec.nt_list for k in spec.k_list}
    totals = {cell: [] for cell in cells}
    for k in spec.k_list:
        first = cells[spec.nt_list[0], k]           # the drop and its long-term draw read no Nt
        size = min(_draws_per_stack(cells[nt, k]) for nt in spec.nt_list)
        for lo in range(0, spec.trials, size):
            chunk = seeds[lo:lo + size]
            drops = [build_topology(first, s_topo) for s_topo, _ in chunk]
            long_terms = [draw_long_term(topology, first, s_chan)
                          for topology, (_, s_chan) in zip(drops, chunk)]
            noise = np.stack([compute_noise(topology, first, lt.shadow)
                              for topology, lt in zip(drops, long_terms)])
            for nt in sorted(spec.nt_list, reverse=True):  # one draw of normals serves all
                cfg = cells[nt, k]
                raw = np.stack([draw_fading(lt, cfg) for lt in long_terms])
                h = normalize_channels(raw, noise)
                counts = refim.out_of_cell_reference_counts(
                    cfg, refim.reference_map(h, cfg) < spec.refs)
                totals[nt, k].append(refim.feedback_bits(cfg, "cb_refim", counts,
                                                         qbits=spec.qbits))
    return [dict(K=cfg.K, Nt=cfg.Nt, icbf_bits=refim.feedback_bits(cfg, "icbf", qbits=spec.qbits),
                 cb_refim_bits=float(np.mean(np.concatenate(totals[cell]))))
            for cell, cfg in cells.items()]


def _run_feedback(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Columns: algo, K, Nt, bits (cb_refim bits are trial means)."""
    rows = feedback_table(config, spec)
    with _open_csv(spec) as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "K", "Nt", "bits"])
        for row in rows:
            writer.writerow(["icbf", row["K"], row["Nt"], row["icbf_bits"]])
        for row in rows:
            writer.writerow(["cb_refim", row["K"], row["Nt"],
                             f"{row['cb_refim_bits']:.6g}"])
    _report(spec, spec.trials, 0)
    return Path(spec.out)


def _report(spec: ExperimentSpec, used: int, failures: int) -> None:
    msg = f"{spec.kind}: {used} trials -> {spec.out}"
    if failures:
        msg += f" ({failures} trials excluded after errors)"
    print(msg)


_RUNNERS = {
    "convergence": _run_convergence,
    "snr_sweep": _run_snr_sweep,
    "ref_sweep": _run_ref_sweep,
    "cdf": _run_cdf,
    "feedback": _run_feedback,
}


def run_experiment(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Dispatch one experiment; returns the written CSV path."""
    return _RUNNERS[spec.kind](config, spec)
