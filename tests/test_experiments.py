"""Harness and CLI tests: CSV schemas, determinism, worker equivalence."""
import csv
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import reference
from cbsim import experiments, initializers, metrics, refim, solver
from cbsim.cli import main, parse_config
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, InvalidStateError
from cbsim.experiments import (ExperimentSpec, feedback_table,
                               run_experiment, run_solver_trials, trial_seeds)
from cbsim.initializers import init_mslnr
from cbsim.network import apply_noise, build_topology, draw_channels, dump_channels_csv
from cbsim.refim import feedback_bits


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], rows[1:]


def small_spec(kind, out, **kw):
    defaults = dict(trials=2, seed=3, gamma_db=(20.0,), algos=("cm", "icbf"),
                    workers=1, timestamp=False, out=str(out))
    defaults.update(kw)
    return ExperimentSpec(kind=kind, **defaults)


def small_config(**kw):
    defaults = dict(M=2, N=2, K=2, Nt=2)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def trial_channels(config, seed, trial, gamma):
    """The noise-normalized channels of one trial at one SNR, as the harness
    draws them."""
    s_topo, s_chan = trial_seeds(seed, trial)
    topology = build_topology(config, s_topo)
    cfg = config.with_gamma_db(gamma)
    return apply_noise(topology, cfg, *draw_channels(topology, config, s_chan))


def test_trial_seed_mixing_is_deterministic_and_distinct():
    assert trial_seeds(7, 0) == trial_seeds(7, 0)
    assert trial_seeds(7, 0) != trial_seeds(7, 1)
    assert trial_seeds(8, 0) != trial_seeds(7, 0)


def test_convergence_rows_are_algos_times_outer_iterations(tmp_path):
    out = tmp_path / "conv.csv"
    config = small_config()
    spec = small_spec("convergence", out, trials=1)
    run_experiment(config, spec)
    header, rows = read_csv(out)
    assert header == ["algo", "gamma_db", "outer_iter", "mean_sum_rate", "trials"]
    assert len(rows) == len(spec.algos) * config.L_out_max
    # baseline algorithms report a constant line
    cm_rates = [r[3] for r in rows if r[0] == "cm"]
    assert len(set(cm_rates)) == 1


def test_snr_sweep_monotone_in_gamma(tmp_path):
    out = tmp_path / "snr.csv"
    config = small_config()
    spec = small_spec("snr_sweep", out, trials=6, gamma_db=(10.0, 30.0, 50.0),
                      algos=("cm", "mslnr", "icbf"))
    run_experiment(config, spec)
    _, rows = read_csv(out)
    for algo in spec.algos:
        means = [float(r[2]) for r in rows if r[0] == algo]
        assert len(means) == 3
        assert means[0] <= means[1] <= means[2]


def test_ref_sweep_covers_all_counts(tmp_path):
    out = tmp_path / "refs.csv"
    config = small_config()
    spec = small_spec("ref_sweep", out, trials=1, algos=("mslnr", "cb_refim"))
    run_experiment(config, spec)
    _, rows = read_csv(out)
    ref_rows = [r for r in rows if r[0] == "cb_refim"]
    assert [int(r[1]) for r in ref_rows] == list(range(config.M * config.K))
    assert any(r[0] == "mslnr" for r in rows)


def test_cdf_sample_count(tmp_path):
    out = tmp_path / "cdf.csv"
    config = small_config()
    spec = small_spec("cdf", out, trials=3, algos=("cm",))
    run_experiment(config, spec)
    _, rows = read_csv(out)
    assert len(rows) == spec.trials * config.M * config.K
    rates = [float(r[2]) for r in rows]
    assert rates == sorted(rates)
    assert float(rows[-1][3]) == pytest.approx(1.0)


def test_feedback_csv_matches_formula(tmp_path):
    out = tmp_path / "fb.csv"
    config = NetworkConfig()
    spec = small_spec("feedback", out, trials=2, k_list=(2, 3), nt_list=(2,),
                      algos=("icbf", "cb_refim"))
    run_experiment(config, spec)
    _, rows = read_csv(out)
    icbf_rows = {(int(r[1]), int(r[2])): float(r[3]) for r in rows if r[0] == "icbf"}
    for (k, nt), bits in icbf_rows.items():
        cfg = NetworkConfig(M=3, N=3, K=k, Nt=nt)
        assert bits == feedback_bits(cfg, "icbf", qbits=8)


def test_feedback_table_is_deterministic():
    config = NetworkConfig()
    spec = small_spec("feedback", "unused.csv", trials=3, k_list=(2,), nt_list=(2,))
    a = feedback_table(config, spec)
    b = feedback_table(config, spec)
    assert a == b


def test_feedback_table_matches_a_fresh_drop_per_cell(monkeypatch):
    """Each trial's two generators are made once per run, and the table
    equals, bit for bit, a loop that builds the topology, channels, noise
    and references anew for every (Nt, K, trial) cell."""
    config = NetworkConfig()
    spec = small_spec("feedback", "unused.csv", trials=3, k_list=(2, 3), nt_list=(2, 3))
    expected = []
    for nt in spec.nt_list:
        for k in spec.k_list:
            cfg = replace(config, K=k, Nt=nt, weights=None, assignment=None)
            totals = []
            for t in range(spec.trials):
                s_topo, s_chan = trial_seeds(spec.seed, t)
                topology = build_topology(cfg, s_topo)
                h = apply_noise(topology, cfg, *draw_channels(topology, cfg, s_chan))
                mask = refim.reference_mask(h, cfg, spec.refs)
                counts = refim.out_of_cell_reference_counts(cfg, mask)
                totals.append(feedback_bits(cfg, "cb_refim", counts, qbits=spec.qbits))
            expected.append(dict(K=k, Nt=nt, icbf_bits=feedback_bits(cfg, "icbf", qbits=8),
                                 cb_refim_bits=float(np.mean(totals))))
    generators = Counter()
    real_rng = np.random.default_rng

    def counting_rng(seed):
        generators[seed] += 1
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    assert feedback_table(config, spec) == expected
    assert set(generators) == {s for t in range(spec.trials) for s in trial_seeds(spec.seed, t)}
    assert set(generators.values()) == {1}


@pytest.mark.parametrize("m, n", [(3, 3), (2, 2), (1, 1)])
@pytest.mark.parametrize("refs", [1, 2])
def test_feedback_table_matches_the_oracle_draws(m, n, refs):
    """The table equals, bit for bit, a per-cell loop over the oracle draws
    of tests/reference.py (users dropped with Generator.uniform, every BS's
    channels, the noise from the full distance matrix), at unsorted K and
    Nt lists."""
    config = NetworkConfig(M=m, N=n)
    spec = small_spec("feedback", "unused.csv", trials=3, refs=refs, k_list=(3, 1, 2),
                      nt_list=(1, 3))
    expected = []
    for nt in spec.nt_list:
        for k in spec.k_list:
            cfg = replace(config, K=k, Nt=nt, weights=None, assignment=None)
            bs_xy = build_topology(cfg, 0).bs_xy            # the sites, which no seed moves
            totals = []
            for t in range(spec.trials):
                s_topo, s_chan = trial_seeds(spec.seed, t)
                user_xy = reference.drop_users(bs_xy, m, k, s_topo)
                raw, shadow, dist = reference.draw_channels_full(bs_xy, user_xy, n, nt, s_chan)
                noise = reference.noise_full(dist, shadow, m, n, cfg.Pmax, cfg.sigma2)
                h = raw[:m] * (1.0 / np.sqrt(noise))[None, :, :, None]
                counts = refim.out_of_cell_reference_counts(
                    cfg, refim.reference_mask(h, cfg, refs))
                totals.append(feedback_bits(cfg, "cb_refim", counts, qbits=spec.qbits))
            expected.append(dict(K=k, Nt=nt, icbf_bits=feedback_bits(cfg, "icbf", qbits=8),
                                 cb_refim_bits=float(np.mean(totals))))
    assert feedback_table(config, spec) == expected


def test_feedback_table_ranks_each_cell_as_one_stack_within_the_budget(monkeypatch):
    """Each (K, Nt) cell selects the references of all its trials' draws as
    one stack, in one reference_mask call, the largest Nt first. A budget
    too small for every trial at once splits the trials into chunks sized
    for the largest cell, each selected per (K, Nt) cell as one stack, and
    the table stays bit for bit the same."""
    config = NetworkConfig()
    spec = small_spec("feedback", "unused.csv", trials=5, k_list=(2, 4), nt_list=(2, 3))
    real, stacks = refim.reference_mask, []

    def counting(h, cfg, counts):
        stacks.append((cfg.K, cfg.Nt, h.shape[0]))
        return real(h, cfg, counts)

    monkeypatch.setattr(refim, "reference_mask", counting)
    whole = feedback_table(config, spec)
    assert stacks == [(2, 3, 5), (2, 2, 5), (4, 3, 5), (4, 2, 5)]
    stacks.clear()
    # two draws of the largest cell, K=4 and Nt=3: 3 * 12 * 3 links of
    # 32 * (3 + 4) bytes each, and streams of 24 uniforms and 27 * 12 +
    # 30 * 12 * 3 * 3 normals, 8 bytes a value; three do not fit
    per_draw = 108 * 224 + 8 * (24 + 324 + 3240)
    monkeypatch.setattr(experiments, "BATCH_BYTES", 3 * per_draw - 1)
    assert experiments._draws_per_stack(
        replace(config, K=4, Nt=3, weights=None, assignment=None)) == 2
    assert feedback_table(config, spec) == whole
    assert stacks == [(2, 3, 2), (2, 2, 2), (4, 3, 2), (4, 2, 2)] * 2 + [
        (2, 3, 1), (2, 2, 1), (4, 3, 1), (4, 2, 1)]


def test_csv_byte_identical_reruns(tmp_path):
    config = small_config()
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(config, small_spec("snr_sweep", out1, trials=2))
    run_experiment(config, small_spec("snr_sweep", out2, trials=2))
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_comment_present_when_enabled(tmp_path):
    """Every kind's timestamp line ends in CRLF like the rows, and the rest of
    the file is the timestamp=False file byte for byte."""
    config = small_config()
    for kind in experiments.COLUMNS:
        stamped, plain = tmp_path / f"{kind}_t.csv", tmp_path / f"{kind}.csv"
        for out, timestamp in ((stamped, True), (plain, False)):
            run_experiment(config, small_spec(kind, out, trials=1, timestamp=timestamp,
                                              k_list=(2,), nt_list=(2,)))
        lines = stamped.read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b"# generated ")
        assert all(line.endswith(b"\r\n") for line in lines), kind
        assert b"".join(lines[1:]) == plain.read_bytes(), kind


@pytest.mark.parametrize("kind", ["convergence", "snr_sweep", "ref_sweep", "cdf"])
def test_grouping_does_not_change_results(tmp_path, monkeypatch, kind):
    """All trials in one group, one trial per group and two workers write
    the same bytes."""
    config = small_config()
    spec = dict(trials=3, gamma_db=(10.0, 30.0), algos=("cm", "icbf", "cb_refim"))
    assert experiments._trials_per_group(config, small_spec(kind, "x", **spec)) == 3
    one_group, two_workers = tmp_path / "one.csv", tmp_path / "w2.csv"
    run_experiment(config, small_spec(kind, one_group, **spec))
    run_experiment(config, small_spec(kind, two_workers, workers=2, **spec))
    monkeypatch.setattr(experiments, "BATCH_BYTES", 1)
    assert experiments._trials_per_group(config, small_spec(kind, "x", **spec)) == 1
    solo = tmp_path / "solo.csv"
    run_experiment(config, small_spec(kind, solo, **spec))
    assert one_group.read_bytes() == solo.read_bytes() == two_workers.read_bytes()


def test_group_budget_counts_every_solver_solve(monkeypatch):
    """A group's one batch holds every solver solve of its trials, so the
    budget counts all three solvers, not the largest one alone."""
    config = NetworkConfig()                      # desk scale
    spec = ExperimentSpec(kind="snr_sweep", trials=6, gamma_db=(10.0, 30.0, 50.0))
    per_solve = 27 * (8 * 9 + 16 * 9)             # victim weights and leakages, bytes
    one_algo, all_algos = 3 * per_solve, 9 * per_solve   # per trial: 17,496 and 52,488
    monkeypatch.setattr(experiments, "BATCH_BYTES", 40_000)
    assert one_algo < experiments.BATCH_BYTES < all_algos
    assert experiments._trials_per_group(config, spec) == 1
    monkeypatch.setattr(experiments, "BATCH_BYTES", 2 * all_algos)
    assert experiments._trials_per_group(config, spec) == 2
    baselines = ExperimentSpec(kind="snr_sweep", trials=6, algos=("cm", "zf"))
    assert experiments._trials_per_group(config, baselines) == 6


def test_one_solve_batch_per_group(tmp_path, monkeypatch):
    """Every solver solve of a group, cb_refim at each reference count
    included, runs in one batch; the CSV matches a one-group run."""
    config = small_config()
    spec = dict(trials=3, gamma_db=(10.0, 30.0), algos=("cm", "icbf", "icbf_wi", "cb_refim"))
    one_group = tmp_path / "one.csv"
    run_experiment(config, small_spec("ref_sweep", one_group, **spec))
    real_solve, batches = solver.solve_batch, []

    def counting(h, config, inits, algo, ref_counts=1):
        batches.append(Counter(algo))
        return real_solve(h, config, inits, algo, ref_counts)

    monkeypatch.setattr(solver, "solve_batch", counting)
    # 2 gammas x (icbf, icbf_wi and cb_refim at 0..3 refs) = 12 solves per trial
    monkeypatch.setattr(experiments, "BATCH_BYTES", 2 * 12 * 8 * (8 * 4 + 16 * 4))
    split = tmp_path / "split.csv"
    run_experiment(config, small_spec("ref_sweep", split, **spec))
    assert batches == [Counter(icbf=4, icbf_wi=4, cb_refim=16),
                       Counter(icbf=2, icbf_wi=2, cb_refim=8)]
    assert split.read_bytes() == one_group.read_bytes()


def test_trial_results_independent_of_other_trials():
    config = small_config()
    spec3 = small_spec("snr_sweep", "unused.csv", trials=3)
    solo, _, _ = run_solver_trials(config, spec3, (2,))
    again, _, _ = run_solver_trials(config, small_spec("snr_sweep", "unused.csv", trials=9), (2,))
    icbf_at_20 = (1, 0, 0)                        # (row, trial, gamma)
    assert solo[icbf_at_20] == again[icbf_at_20]


def test_harness_matches_a_loop_of_single_solves():
    """run_solver_trials on 3 trials at 2 SNR points, with cb_refim swept over
    0..MK-1 = 0..3 references, equals bit for bit a loop over (trial, gamma)
    that normalizes, initializes, solves and rates each draw on its own."""
    config = small_config()
    spec = small_spec("ref_sweep", "unused.csv", trials=3, gamma_db=(10.0, 30.0),
                      algos=("cm", "mslnr", "icbf", "icbf_wi", "cb_refim"))
    rows = [(algo, None) for algo in ("cm", "mslnr", "icbf", "icbf_wi")]
    rows += [("cb_refim", r) for r in range(4)]
    assert experiments._rows(config, spec) == rows
    shape = (len(rows), 3, len(spec.gamma_db))
    want = (np.zeros(shape), np.zeros(shape + (config.L_out_max,)),
            np.zeros(shape + (config.M * config.K,)))
    for t in range(3):
        s_topo, s_chan = trial_seeds(spec.seed, t)
        topology = build_topology(config, s_topo)
        raw, shadow = draw_channels(topology, config, s_chan)
        for j, gamma in enumerate(spec.gamma_db):
            cfg = config.with_gamma_db(gamma)
            h = apply_noise(topology, cfg, raw, shadow)
            start = initializers.make_initial_beams(spec.init, h, cfg)
            for row, (algo, refs) in enumerate(rows):
                if algo not in solver.ALGORITHMS:
                    beams, trace = initializers.make_initial_beams(algo, h, cfg), None
                else:
                    beams, trace = solver.solve(h, cfg, start, algo,
                                                spec.refs if refs is None else refs)
                report = metrics.rate_report(h, beams, cfg)
                want[0][row, t, j] = report.weighted_sum_rate
                series = trace.outer_sum_rates if trace else [report.weighted_sum_rate]
                pad = [series[-1]] * (cfg.L_out_max - len(series))
                want[1][row, t, j] = series + pad
                want[2][row, t, j] = report.user_rates.ravel()
    assert_same_results(experiments.run_solver_trials(config, spec, (0, 1, 2)), want)


def test_each_initializer_runs_once_per_group(monkeypatch):
    """Each initializer runs once, on the group's stack of (trial, gamma)
    draws; the mslnr beams serve the baseline row and every solver start."""
    calls = []

    def counting(name, init):
        def wrapper(h, cfg):
            calls.append((name, h.shape[:2]))
            return init(h, cfg)
        return wrapper

    for name, init in list(initializers.INITIALIZERS.items()):
        monkeypatch.setitem(initializers.INITIALIZERS, name, counting(name, init))
    spec = small_spec("ref_sweep", "unused.csv", trials=3, gamma_db=(10.0, 30.0),
                      algos=("cm", "mslnr", "icbf", "cb_refim"))
    experiments.run_solver_trials(small_config(), spec, (0, 1, 2))
    assert calls == [("cm", (3, 2)), ("mslnr", (3, 2))]


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="plot")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="cdf", algos=("dpc",))
    for key, value in [("trials", 0), ("gamma_db", ()), ("seed", -1), ("workers", 0),
                       ("workers", -4), ("qbits", 0), ("k_list", ()), ("nt_list", ()),
                       ("algos", ()), ("gamma_db", (10.0, 30.0, 10.0)),
                       ("algos", ("cm", "icbf", "icbf")), ("k_list", (2, 3, 2)),
                       ("nt_list", (2, 2)), ("gamma_db", (10.0, 10.0000001))]:
        with pytest.raises(ConfigurationError, match=key):
            ExperimentSpec(kind="feedback", **{key: value})
    for key, value, bad in [("k_list", (2, 2.5), "2.5"), ("nt_list", (2, 2.9), "2.9"),
                            ("k_list", (True,), "True"), ("nt_list", (3, np.True_), "True"),
                            ("k_list", ("3",), "'3'"), ("gamma_db", (10.0, np.nan), "nan"),
                            ("gamma_db", (np.inf,), "inf"), ("gamma_db", (True,), "True"),
                            # a scalar or a string where a list belongs, a non-boolean switch
                            ("gamma_db", 30.0, "30.0"), ("k_list", 5, "5"),
                            ("algos", "icbf", "'icbf'"), ("timestamp", "no", "'no'")]:
        with pytest.raises(ConfigurationError, match=f"{key} .*{bad}"):
            ExperimentSpec(kind="feedback", **{key: value})
    for key in ("trials", "seed", "refs", "workers", "qbits"):
        for value, bad in [(2.5, "2.5"), (True, "True"), (np.True_, "True"), ("3", "'3'")]:
            with pytest.raises(ConfigurationError, match=f"{key} must be an integer.*{bad}"):
                ExperimentSpec(kind="feedback", **{key: value})
    assert ExperimentSpec(kind="feedback", k_list=(np.int64(2),)).k_list == (2,)
    assert ExperimentSpec(kind="feedback", trials=np.int64(3), qbits=np.int32(4)).qbits == 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_and_writes_csv(tmp_path):
    out = tmp_path / "cli.csv"
    code = main(["snr_sweep", "--trials", "1", "--seed", "9",
                 "--algo", "cm,mslnr", "--gamma-db", "20",
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "algo"
    assert len(rows) == 2


@pytest.mark.parametrize("kind", ["snr_sweep", "feedback"])
def test_run_experiment_writes_nothing_to_stdout(tmp_path, capsys, kind):
    out = tmp_path / f"{kind}.csv"
    spec = small_spec(kind, out, k_list=(2,), nt_list=(2,))
    assert run_experiment(small_config(), spec) == out
    assert capsys.readouterr().out == ""
    assert out.exists()


def test_cli_prints_one_summary_line_with_the_exclusions(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cli.csv"
    flags = ["--trials", "3", "--algo", "cm", "--out", str(out), "--no-timestamp"]
    assert main(["snr_sweep", *flags]) == 0
    assert capsys.readouterr().out == f"snr_sweep: 3 trials -> {out}\n"
    monkeypatch.setattr(experiments, "trial_seeds", failing_trial_seeds({1}))
    assert main(["snr_sweep", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"snr_sweep: 2 trials -> {out} (1 trials excluded after errors)\n"
    assert captured.err == "warning: trial 1 failed: injected failure\n"


def test_cli_reads_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 2\nK = 2\nNt = 2\ntrials = 1\nalgos = cm\ngamma_db = 15\n")
    out = tmp_path / "out.csv"
    code = main(["snr_sweep", "--config", str(cfg), "--out", str(out),
                 "--no-timestamp"])
    assert code == 0
    _, rows = read_csv(out)
    assert rows == [["cm", "15", rows[0][2], rows[0][3], "1"]]


def test_cli_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 5\n")
    config, spec = parse_config("cdf", str(cfg), {"trials": 2})
    assert spec.trials == 2
    assert config.M == 3


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = 0\n")
    code = main(["cdf", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1


@pytest.mark.parametrize("key, flags, lines", [
    ("gamma_db", ["--gamma-db", "10,abc"], ""),
    ("gamma_db", ["--gamma-db", ","], ""),
    ("algos", ["--algo", ""], ""),
    ("seed", ["--seed", "-1"], ""),
    ("workers", ["--workers", "0"], ""),
    ("workers", ["--workers", "-4"], ""),
    ("qbits", [], "qbits = 0\n"),
    ("k_list", [], "k_list =\n"),
    ("nt_list", [], "nt_list = ,\n"),
    ("gamma_db", ["--gamma-db", "10,10"], ""),
    ("algos", ["--algo", "cm,icbf,icbf"], ""),
    ("k_list", [], "k_list = 2,3,2\n"),
    ("nt_list", [], "nt_list = 2,2\n"),
    ("gamma_db", ["--gamma-db", "nan"], ""),
    ("gamma_db", ["--gamma-db", "10,inf"], ""),
    ("lambda_min", [], "lambda_min = inf\n"),
    ("Pmax", [], "pmax = inf\n"),
    ("init", ["--init", "mrc"], ""),
    ("seed", ["--seed", "abc"], ""),
    ("trials", ["--trials", "2.5"], ""),
    ("gamma_db", ["--gamma-db", "10,10.0000001"], ""),
])
def test_cli_rejects_bad_value_naming_its_key(tmp_path, capsys, key, flags, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "x.csv"
    code = main(["snr_sweep", "--config", str(cfg), "--trials", "1", "--out", str(out)]
                + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--workers", "2"),
    ("--algo", "cm"),
    ("--init", "cm"),
    ("--dump-prefix", "P"),
    ("--gamma-db", "10,50"),
])
def test_cli_feedback_rejects_flags_it_does_not_read(tmp_path, capsys, flag, value):
    """The feedback table reads no worker count, algorithm list, start or
    dump prefix, and one SNR point: naming any of them, or a list of SNR
    points, fails before any trial, naming the flag."""
    out = tmp_path / "x.csv"
    code = main(["feedback", "--trials", "1", "--out", str(out), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


def test_cli_feedback_reads_config_keys_it_does_not_use(tmp_path):
    """A config file serves every kind: its workers, algos, init and
    gamma_db list are accepted by feedback, which reads gamma_db's first
    entry as --gamma-db with that one entry does."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\nalgos = cm\ninit = cm\ngamma_db = 10, 50\n")
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    common = ["--trials", "1", "--no-timestamp"]
    assert main(["feedback", "--config", str(cfg), *common, "--out", str(from_file)]) == 0
    assert main(["feedback", "--gamma-db", "10", *common, "--out", str(from_flag)]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes()


def test_cli_list_flags_parse_like_config_files(tmp_path):
    """--gamma-db and --algo read a list as a config file does: empty items
    are skipped."""
    base, lists = tmp_path / "base.cfg", tmp_path / "lists.cfg"
    base.write_text("M = 2\nK = 2\nNt = 2\ntrials = 1\n")
    lists.write_text(base.read_text() + "algos = cm,,zf\ngamma_db = 10,,30\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["snr_sweep", "--config", str(lists), "--out", str(from_file),
                 "--no-timestamp"]) == 0
    assert main(["snr_sweep", "--config", str(base), "--algo", "cm,,zf", "--gamma-db", "10,,30",
                 "--out", str(from_flags), "--no-timestamp"]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()
    assert len(read_csv(from_flags)[1]) == 4


def test_cli_rejects_unsupported_cluster_size_at_config_time(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("M = 4\n")
    out = tmp_path / "x.csv"
    code = main(["snr_sweep", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "M=4" in err and "every trial failed" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind, algos, init, use", [
    ("snr_sweep", "cm,zf,icbf", "mslnr", "algos lists zf"),
    ("snr_sweep", "cm,icbf", "zf", "init = zf"),
    ("ref_sweep", "cm", "zf", "init = zf"),
], ids=["baseline", "start", "ref_sweep_start"])
def test_crowded_zero_forcing_fails_before_any_trial(tmp_path, monkeypatch, capsys,
                                                      kind, algos, init, use):
    """K=4 users per cell on Nt=2 antennas cannot be zero-forced: the run fails
    at once, naming the setting and the crowded cell, with no trial run. A
    ref_sweep always solves cb_refim, so it starts from zf whatever its
    algos."""
    monkeypatch.setattr(experiments, "trial_seeds", failing_trial_seeds(set(range(3))))
    want = (f"{use}, but zero-forcing needs Nt >= active users per cell; "
            f"cell 0 subchannel 0 has 4 > Nt=2")
    spec = small_spec(kind, tmp_path / "lib.csv", trials=3,
                      algos=tuple(algos.split(",")), init=init)
    with pytest.raises(ConfigurationError) as raised:
        run_experiment(NetworkConfig(K=4, Nt=2), spec)
    assert str(raised.value) == want
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text("K = 4\nNt = 2\n")
    out = tmp_path / "cli.csv"
    code = main([kind, "--config", str(cfg), "--algo", algos, "--init", init,
                 "--trials", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists() and not (tmp_path / "lib.csv").exists()


def test_zero_forcing_start_unused_without_a_solver(tmp_path):
    spec = small_spec("snr_sweep", tmp_path / "x.csv", algos=("cm",), init="zf")
    run_experiment(small_config(K=3), spec)
    _, rows = read_csv(spec.out)
    assert [r[0] for r in rows] == ["cm"]


def test_cli_rejects_unknown_algorithm(tmp_path):
    code = main(["cdf", "--algo", "genie", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fft_sweep"])


def test_cli_reports_unwritable_output():
    # a path below a regular file cannot be created, even when running as root
    code = main(["snr_sweep", "--trials", "1", "--algo", "cm",
                 "--out", "/dev/null/x/y.csv"])
    assert code == 1


def test_cli_dump_prefix_writes_debug_csvs(tmp_path):
    out = tmp_path / "main.csv"
    prefix = tmp_path / "dbg"
    code = main(["snr_sweep", "--trials", "2", "--algo", "cm,icbf",
                 "--gamma-db", "20,30", "--out", str(out),
                 "--no-timestamp", "--dump-prefix", str(prefix)])
    assert code == 0
    assert (tmp_path / "dbg_topology.csv").exists()
    # trial 0's solver traces: one per solve, none for a baseline
    assert sorted(p.name for p in tmp_path.glob("dbg_trace_*")) == [
        "dbg_trace_icbf_20.csv", "dbg_trace_icbf_30.csv"]
    config, spec = parse_config("snr_sweep", None, {"trials": 2, "algos": ("icbf",),
                                                   "gamma_db": (20.0, 30.0)})
    h = np.stack([trial_channels(config, spec.seed, 0, gamma) for gamma in (20.0, 30.0)])
    # trial 0's channels at the first gamma_db point
    dump_channels_csv(h[0], tmp_path / "want_channels.csv")
    assert (tmp_path / "dbg_channels.csv").read_bytes() == (
        tmp_path / "want_channels.csv").read_bytes()
    _, rows = read_csv(tmp_path / "dbg_channels.csv")       # k is the global user index
    assert sorted({int(row[1]) for row in rows}) == list(range(config.M * config.K))
    inits = init_mslnr(h, config)
    _, traces = solver.solve_batch(h, config, inits, "icbf")
    for gamma, trace in zip(("20", "30"), traces):
        want = tmp_path / f"want_{gamma}.csv"
        trace.to_csv(want)
        got = (tmp_path / f"dbg_trace_icbf_{gamma}.csv").read_text()
        assert got == want.read_text()
        assert got.splitlines()[0] == "outer,inner,sum_rate,power_1,power_2,power_3"
        assert len(got.splitlines()) == 1 + len(trace.sum_rates) > 1


def test_ref_sweep_dump_names_each_reference_count(tmp_path):
    prefix = tmp_path / "dbg"
    spec = small_spec("ref_sweep", tmp_path / "refs.csv", trials=2,
                      algos=("mslnr", "icbf", "cb_refim"), dump_prefix=str(prefix))
    run_experiment(small_config(), spec)
    names = sorted(p.name for p in tmp_path.glob("dbg_trace_*"))
    assert names == ["dbg_trace_cb_refim_20_r0.csv", "dbg_trace_cb_refim_20_r1.csv",
                     "dbg_trace_cb_refim_20_r2.csv", "dbg_trace_cb_refim_20_r3.csv",
                     "dbg_trace_icbf_20.csv"]


def assert_same_results(got, want):
    """The (sum-rate, outer series, user rates) arrays of run_solver_trials,
    (row, trial, gamma) leading, are equal bit for bit."""
    assert len(got) == len(want) == 3
    for got_array, want_array in zip(got, want):
        assert np.array_equal(got_array, want_array)


def stacked(results):
    """Single-trial run_solver_trials results joined along the trial axis."""
    return tuple(np.concatenate(parts, axis=1) for parts in zip(*results))


def failing_trial_seeds(doomed):
    """trial_seeds that raises in the set-up of the trials in ``doomed``."""
    def seeds(master_seed, trial):
        if trial in doomed:
            raise InvalidStateError("injected failure")
        return trial_seeds(master_seed, trial)
    return seeds


def test_failed_trials_are_excluded_with_warning(tmp_path, monkeypatch, capsys):
    config = small_config()
    spec = small_spec("snr_sweep", tmp_path / "flaky.csv", trials=3, algos=("cm", "icbf"))
    solo = stacked(run_solver_trials(config, spec, (t,)) for t in (0, 2))
    assert experiments._trials_per_group(config, spec) == 3
    monkeypatch.setattr(experiments, "trial_seeds", failing_trial_seeds({1}))
    run_experiment(config, spec)
    _, rows = read_csv(spec.out)
    assert rows[0][-1] == "2"          # one of three trials excluded
    captured = capsys.readouterr()
    assert captured.out == ""          # the exclusion count is the CLI's to print
    assert captured.err == "warning: trial 1 failed: injected failure\n"
    kept, failures = experiments._run_trials(config, spec)
    assert failures == 1
    assert_same_results(kept, solo)


def test_singular_solve_excludes_only_its_trial(tmp_path, monkeypatch, capsys):
    """A solve of trial 1 raises inside the batch of all three trials."""
    config = small_config()
    spec = small_spec("snr_sweep", tmp_path / "singular.csv", trials=3, algos=("icbf",),
                      gamma_db=(20.0, 30.0))
    solo = stacked(run_solver_trials(config, spec, (t,)) for t in (0, 2))
    doomed = trial_channels(config, spec.seed, 1, 30.0)
    real_solve, batches = solver.solve_batch, []

    def singular_in_trial_1(h, *args, **kwargs):
        batches.append(len(h))
        if any(np.array_equal(one, doomed) for one in h):
            raise np.linalg.LinAlgError("injected singular matrix")
        return real_solve(h, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_batch", singular_in_trial_1)
    run_experiment(config, spec)
    assert batches == [6, 2, 2, 2]     # the group, then each trial alone
    _, rows = read_csv(spec.out)
    assert [r[-1] for r in rows] == ["2", "2"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "warning: trial 1 failed: injected singular matrix\n"
    kept, failures = experiments._run_trials(config, spec)
    assert failures == 1
    assert_same_results(kept, solo)


def test_other_exceptions_end_the_run(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected programming error")

    monkeypatch.setattr(solver, "solve_batch", broken)
    with pytest.raises(TypeError, match="injected programming error"):
        run_experiment(small_config(), small_spec("snr_sweep", tmp_path / "t.csv",
                                                  trials=3, algos=("icbf",)))


def test_all_trials_failing_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "trial_seeds", failing_trial_seeds({0, 1}))
    with pytest.raises(InvalidStateError, match="every trial failed"):
        run_experiment(small_config(),
                       small_spec("snr_sweep", tmp_path / "x.csv", trials=2,
                                  algos=("cm",)))
