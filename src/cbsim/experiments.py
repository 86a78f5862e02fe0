"""Monte-Carlo experiment harness producing the figure data as CSV.

Five experiment kinds are supported, each with its CSV columns in
:data:`COLUMNS`:

  convergence  mean weighted sum-rate per outer iteration and algorithm
  snr_sweep    mean weighted sum-rate at convergence versus transmit SNR
  ref_sweep    mean weighted sum-rate of cb_refim versus reference count
  cdf          sorted per-user total rates (empirical CDF support)
  feedback     inter-BS feedback bits versus users-per-cell and antennas

The four solver kinds share one table: a row is one algorithm, or in a
ref_sweep cb_refim at one reference count (:func:`_rows`), and the results
are arrays with leading (row, trial, SNR) axes -- the weighted sum-rate,
the sum-rate after each outer iteration and the per-user rates -- from the
solve batch through the stacking of kept trials to the CSV lines. One
writer, :func:`run_counted`, writes every kind's file.

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
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import initializers, metrics, refim, solver
from .config import (BOOLEAN, FINITE, PATH, NetworkConfig, check_settings, integer,
                     list_of, one_of, setting, setting_keys)
from .errors import CbsimError, ConfigurationError, InvalidStateError
from .network import (apply_noise, build_topology, compute_noise, draw_channels, draw_fading,
                      draw_streams, dump_channels_csv, dump_topology_csv, long_term_of,
                      normalize_channels, place_users, stream_lengths)

#: Each experiment kind and its CSV columns. outer_iter counts from 1; refs
#: is empty but on a ref_sweep's cb_refim rows; cdf rows are sorted by
#: user_rate per (algo, gamma_db); cb_refim's feedback bits are trial means.
COLUMNS = {
    "convergence": ("algo", "gamma_db", "outer_iter", "mean_sum_rate", "trials"),
    "snr_sweep": ("algo", "gamma_db", "mean_sum_rate", "std_sum_rate", "trials"),
    "ref_sweep": ("algo", "refs", "gamma_db", "mean_sum_rate", "trials"),
    "cdf": ("algo", "gamma_db", "user_rate", "ecdf"),
    "feedback": ("algo", "K", "Nt", "bits"),
}
EXPERIMENT_KINDS = tuple(COLUMNS)
SOLVER_ALGOS = set(solver.ALGORITHMS)
BASELINE_ALGOS = set(initializers.INITIALIZERS)
DEFAULT_ALGOS = ("cm", "zf", "mslnr", "icbf", "icbf_wi", "cb_refim")
#: Errors that exclude one trial: a cbsim error or a singular linear solve.
TRIAL_ERRORS = (CbsimError, np.linalg.LinAlgError)
#: Byte budget of one solver batch's victim weights and leakage matrices;
#: it sets how many trials :func:`_run_trials` solves as one group, and
#: for how many draws :func:`feedback_table` selects references as one stack.
BATCH_BYTES = 4 * 2**20


@dataclass
class ExperimentSpec:
    """What to run and where to write it."""
    kind: str = setting(MISSING, one_of(EXPERIMENT_KINDS), key=None)
    trials: int = setting(100, integer(1), flag="--trials", help="Monte-Carlo trials")
    seed: int = setting(0, integer(0), flag="--seed", help="master seed")
    # ":g" labels each SNR point in the CSVs and the trace file names
    gamma_db: tuple[float, ...] = setting((30.0,), list_of(FINITE, "g"), flag="--gamma-db",
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


def _rows(config: NetworkConfig, spec: ExperimentSpec) -> list[tuple[str, int | None]]:
    """The rows of a run, in CSV order: (algorithm, swept reference count or
    None). A ref_sweep lists the algorithms other than cb_refim, then
    cb_refim once per reference count 0..MK-1; every other kind lists
    ``spec.algos``."""
    if spec.kind != "ref_sweep":
        return [(algo, None) for algo in spec.algos]
    return ([(algo, None) for algo in spec.algos if algo != "cb_refim"]
            + [("cb_refim", refs) for refs in range(config.M * config.K)])


def run_solver_trials(config: NetworkConfig, spec: ExperimentSpec, trials: tuple[int, ...]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel realizations ``trials`` as one stack with leading (trial,
    gamma) axes. Returns three arrays with leading (row, trial, gamma) axes,
    the rows those of :func:`_rows`: the weighted sum-rate, the sum-rate
    after each of the L_out_max outer iterations (continued past the end of
    a solve, flat for a baseline) and the MK user rates.

    Each trial's raw draw is normalized at every SNR point in one broadcast.
    Each initializer runs once on the stack, for its baseline row and every
    solver start; one :func:`solver.solve_batch` runs every (solver row,
    trial, gamma) solve; one batched :func:`metrics.rate_report` rates every
    row. A solve's result does not depend on its batch, so each trial's
    slice is bit-identical to a call on that trial alone.
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
    rows = _rows(config, spec)
    solves = [i for i, (algo, _) in enumerate(rows) if algo in SOLVER_ALGOS]
    inits = {name: initializers.make_initial_beams(name, h, config)
             for name in dict.fromkeys([algo for algo, _ in rows if algo in BASELINE_ALGOS]
                                       + ([spec.init] if solves else []))}
    beams = [inits.get(algo) for algo, _ in rows]               # a solver's filled in below
    traces = []
    if solves:
        def per_solve(x):       # (trial, gamma, ...) -> (solve * trial * gamma, ...)
            return np.concatenate([x] * len(solves)).reshape((-1,) + x.shape[2:])

        each = shape[0] * shape[1]
        solved, traces = solver.solve_batch(
            per_solve(h), config, per_solve(inits[spec.init]),
            [rows[i][0] for i in solves for _ in range(each)],
            [spec.refs if rows[i][1] is None else rows[i][1] for i in solves for _ in range(each)])
        solved = solved.reshape((len(solves),) + shape + solved.shape[1:])
        for s, i in enumerate(solves):
            beams[i] = solved[s]
    traces = np.array(traces, dtype=object).reshape((len(solves),) + shape)
    report = metrics.rate_report(h, np.stack(beams), config)
    wsr = report.weighted_sum_rate
    cap = config.L_out_max
    outer = np.repeat(wsr[..., None], cap, axis=-1)
    outer[solves] = np.reshape([(t.outer_sum_rates + t.outer_sum_rates[-1:] * cap)[:cap]
                                for t in traces.flat], traces.shape + (cap,))
    if spec.dump_prefix and 0 in trials:
        for i, row_traces in zip(solves, traces[:, trials.index(0)]):
            algo, refs = rows[i]
            suffix = "" if refs is None else f"_r{refs}"
            for gamma, trace in zip(spec.gamma_db, row_traces):
                trace.to_csv(f"{spec.dump_prefix}_trace_{algo}_{gamma:g}{suffix}.csv")
    return wsr, outer, report.user_rates.reshape(wsr.shape + (-1,))


def _trials_per_group(config: NetworkConfig, spec: ExperimentSpec) -> int:
    """Trials per group: the fewest near-equal groups whose solver batch (every
    solver solve of its trials) keeps its victim weights (float64, MK per
    triple) and leakage matrices (complex128, Nt^2 per triple) within
    BATCH_BYTES, and at least one group per worker. Each group holds at least
    one trial."""
    triples = config.M * config.K * config.N
    per_solve = triples * (8 * config.M * config.K + 16 * config.Nt ** 2)
    solves = sum(algo in SOLVER_ALGOS for algo, _ in _rows(config, spec))
    per_trial = per_solve * len(spec.gamma_db) * solves
    cap = max(1, BATCH_BYTES // max(per_trial, 1))
    groups = max(-(-spec.trials // cap), min(spec.workers, spec.trials))
    return -(-spec.trials // groups)


def _run_group(config: NetworkConfig, spec: ExperimentSpec, trials: tuple[int, ...]
               ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray] | str]:
    """Each trial's slice of the :func:`run_solver_trials` arrays, or its
    error text if it raised one of TRIAL_ERRORS.

    The group runs as one; if it raises, each trial runs again on its own,
    so a failure excludes only the trial that raised it.
    """
    try:
        arrays = run_solver_trials(config, spec, trials)
    except TRIAL_ERRORS as exc:
        if len(trials) == 1:
            return [str(exc)]
        return [out for t in trials for out in _run_group(config, spec, (t,))]
    return [tuple(a[:, i] for a in arrays) for i in range(len(trials))]


def _check_zero_forcing(config: NetworkConfig, spec: ExperimentSpec) -> None:
    """Fail before any trial runs if a row uses zero-forcing, as a baseline
    or as the solvers' start, where the assignment crowds a cell."""
    algos = {algo for algo, _ in _rows(config, spec)}
    if "zf" in algos:
        use = "algos lists zf"
    elif spec.init == "zf" and SOLVER_ALGOS & algos:
        use = "init = zf"
    else:
        return
    try:
        initializers.check_zf(config)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{use}, but {exc}") from None


def _run_trials(config: NetworkConfig, spec: ExperimentSpec
                ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """The :func:`run_solver_trials` arrays of every kept trial, stacked
    along the trial axis in trial order, and the number of failed trials.
    Trials run in contiguous groups, optionally in worker processes.

    Failed trials (a cbsim error or a singular linear solve) are excluded
    from the aggregates; the exclusion count is reported so the statistics
    stay honest. Any other exception ends the run.
    """
    _check_zero_forcing(config, spec)
    size = _trials_per_group(config, spec)
    groups = [tuple(range(lo, min(lo + size, spec.trials)))
              for lo in range(0, spec.trials, size)]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor    # only workers need the pool
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_run_group, config, spec, g) for g in groups]
            outcomes = [out for future in futures for out in future.result()]
    else:
        outcomes = [out for g in groups for out in _run_group(config, spec, g)]
    failures = 0
    for t, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            failures += 1
            print(f"warning: trial {t} failed: {outcome}", file=sys.stderr)
    kept = [out for out in outcomes if not isinstance(out, str)]
    if not kept:
        raise InvalidStateError(f"every trial failed ({failures} errors)")
    return tuple(np.stack(parts, axis=1) for parts in zip(*kept)), failures


def _draws_per_stack(config: NetworkConfig) -> int:
    """Trials per chunk of the feedback table, sized for its largest (K, Nt)
    cell ``config``: as many draws as keep their working set within
    BATCH_BYTES, and at least one. Per link that is two complex128 copies of
    its Nt channel entries (the draws and their stack) and, per (beam,
    candidate) pair, of which there are K per link, about four 8-byte arrays
    of the selection (its scores, keys and mask, or the ranks above one
    reference). Each draw also holds its trial's two streams, drawn to the
    largest cell's :func:`stream_lengths`, 8 bytes a value."""
    links = config.M * config.n_users * config.N
    streams = 8 * sum(stream_lengths(config))
    return max(1, BATCH_BYTES // (links * 32 * (config.Nt + config.K) + streams))


def feedback_table(config: NetworkConfig, spec: ExperimentSpec) -> list[dict]:
    """Feedback bits per (algo, K, Nt), in Nt-major order.

    The full algorithm's count is deterministic. The reference-user variant
    depends on which references the channel draw selects, so its bit count is
    averaged over ``spec.trials`` independent realizations (reference
    selection only needs channels, no solving). Each trial's two streams are
    drawn once (:func:`draw_streams`), as long as the largest cell reads them,
    and every cell reads its prefix, so every draw equals a fresh one bit for
    bit. Trials run in chunks sized for the largest cell by BATCH_BYTES. Per
    chunk, each K places the users and makes the long-term draw and noise of
    the stack once for every Nt; each (K, Nt) cell draws the fading,
    normalizes, selects references and counts them for the stack, with one
    :func:`refim.reference_mask` and one :func:`refim.feedback_bits` call,
    which treat every draw bit for bit as they would alone. At the default
    ``spec.refs`` of 1 the selection is one argmin per beam, not a ranking.
    """
    cells = {(nt, k): replace(config, K=int(k), Nt=int(nt), weights=None, assignment=None)
             for nt in spec.nt_list for k in spec.k_list}
    largest = cells[max(spec.nt_list), max(spec.k_list)]
    size = _draws_per_stack(largest)
    totals = {cell: [] for cell in cells}
    for lo in range(0, spec.trials, size):
        uniforms, normals = map(np.stack, zip(*[
            draw_streams(largest, trial_seeds(spec.seed, t))
            for t in range(lo, min(lo + size, spec.trials))]))
        for k in spec.k_list:
            first = cells[spec.nt_list[0], k]       # the drop and its long-term draw read no Nt
            drops = place_users(first, uniforms)
            long_term = long_term_of(drops, first, normals)
            noise = compute_noise(drops, first, long_term.shadow)
            for nt in sorted(spec.nt_list, reverse=True):
                cfg = cells[nt, k]
                h = normalize_channels(draw_fading(long_term, cfg), noise)
                counts = refim.out_of_cell_reference_counts(
                    cfg, refim.reference_mask(h, cfg, spec.refs))
                totals[nt, k].append(refim.feedback_bits(cfg, "cb_refim", counts,
                                                         qbits=spec.qbits))
    return [dict(K=cfg.K, Nt=cfg.Nt, icbf_bits=refim.feedback_bits(cfg, "icbf", qbits=spec.qbits),
                 cb_refim_bits=float(np.mean(np.concatenate(totals[cell]))))
            for cell, cfg in cells.items()]


def _lines(config: NetworkConfig, spec: ExperimentSpec) -> tuple[Iterator[list], int, int]:
    """Run the ``spec.kind`` experiment: its CSV rows, made one at a time in
    :data:`COLUMNS` order, the trials its aggregates use and the trials
    excluded after errors."""
    if spec.kind == "feedback":
        table = feedback_table(config, spec)
        lines = ([algo, row["K"], row["Nt"],
                  row["icbf_bits"] if algo == "icbf" else f"{row['cb_refim_bits']:.6g}"]
                 for algo in ("icbf", "cb_refim") for row in table)
        return lines, spec.trials, 0
    (wsr, outer, rates), excluded = _run_trials(config, spec)
    used = wsr.shape[1]
    rows = _rows(config, spec)
    gammas = [f"{gamma:g}" for gamma in spec.gamma_db]
    if spec.kind == "convergence":
        lines = ([algo, gamma, it + 1, f"{mean:.12g}", used]
                 for (algo, _), row in zip(rows, outer)
                 for j, gamma in enumerate(gammas)
                 for it, mean in enumerate(row[:, j].mean(axis=0)))
    elif spec.kind == "snr_sweep":
        lines = ([algo, gamma, f"{vals.mean():.12g}", f"{vals.std():.12g}", used]
                 for (algo, _), row in zip(rows, wsr)
                 for gamma, vals in zip(gammas, row.T))
    elif spec.kind == "ref_sweep":                  # by SNR point first
        lines = ([algo, refs, gamma, f"{vals.mean():.12g}", used]
                 for j, gamma in enumerate(gammas)
                 for (algo, refs), vals in zip(rows, wsr[:, :, j]))
    else:                                           # cdf
        lines = ([algo, gamma, f"{rate:.12g}", f"{(idx + 1) / samples.size:.8g}"]
                 for (algo, _), row in zip(rows, rates)
                 for j, gamma in enumerate(gammas)
                 for samples in [np.sort(row[:, j].ravel())]
                 for idx, rate in enumerate(samples))
    return lines, used, excluded


def run_counted(config: NetworkConfig, spec: ExperimentSpec) -> tuple[Path, int, int]:
    """Run one experiment and write its CSV: the optional timestamp comment
    line, the kind's :data:`COLUMNS` header and its rows. Returns the written
    CSV path, the trials its aggregates use and the trials excluded after
    errors."""
    lines, used, excluded = _lines(config, spec)
    path = Path(spec.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if spec.timestamp:          # through the writer, so it ends in CRLF like every row
            writer.writerow([f"# generated {datetime.now(timezone.utc).isoformat()}"])
        writer.writerow(COLUMNS[spec.kind])
        writer.writerows(lines)
    return path, used, excluded


def run_experiment(config: NetworkConfig, spec: ExperimentSpec) -> Path:
    """Dispatch one experiment; returns the written CSV path. Nothing goes
    to stdout: each excluded trial is warned about on stderr, and
    :func:`run_counted` returns the trial counts as well."""
    return run_counted(config, spec)[0]
