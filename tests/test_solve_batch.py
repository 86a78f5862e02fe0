"""solver.solve_batch: every solve of a batch behaves exactly as it does alone.

A batch runs its solves in lockstep, one inner iteration each per step, and
each solve leaves when its own stop tests say so. Nothing of one solve may
depend on the others in its batch or on their order, down to the last bit.
"""
import re

import numpy as np
import pytest

from cbsim import solver
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, UsageError
from cbsim.initializers import init_mslnr
from cbsim.metrics import weighted_sum_rate
from cbsim.network import apply_noise, build_topology, draw_channels, realize_network
from cbsim.solver import ALGORITHMS, solve, solve_batch, stationarity_residuals

GAMMAS = (10.0, 30.0, 50.0)


def trial(seed, config=None):
    """(channels h, config, mslnr beams) at every gamma of one channel draw."""
    config = config or NetworkConfig()
    topology = build_topology(config, seed)
    raw, shadow = draw_channels(topology, config, seed + 1)
    out = []
    for gamma in GAMMAS:
        cfg = config.with_gamma_db(gamma)
        h = apply_noise(topology, cfg, raw, shadow)
        out.append((h, cfg, init_mslnr(h, cfg)))
    return out


def assert_same_solve(batched, alone):
    (beams_b, trace_b), (beams_a, trace_a) = batched, alone
    assert trace_b.algo == trace_a.algo
    assert trace_b.iteration_index == trace_a.iteration_index
    assert trace_b.sum_rates == trace_a.sum_rates
    assert trace_b.final_residual == trace_a.final_residual
    assert trace_b.outer_sum_rates == trace_a.outer_sum_rates
    assert len(trace_b.bs_power_trace) == len(trace_a.bs_power_trace)
    for powers_b, powers_a in zip(trace_b.bs_power_trace, trace_a.bs_power_trace):
        assert np.array_equal(powers_b, powers_a)
    assert trace_b.inner_converged == trace_a.inner_converged
    assert trace_b.non_monotone_steps == trace_a.non_monotone_steps
    assert trace_b.stop_reason == trace_a.stop_reason
    assert trace_b.best_sum_rate == trace_a.best_sum_rate
    assert np.array_equal(trace_b.duals, trace_a.duals)
    assert np.array_equal(beams_b, beams_a)


def assert_record_entry(record, b, alone):
    """Entry b of every per-solve array of a batch's record equals that of
    the solve alone, so a record left in the batch's internal order fails."""
    cap = len(record.outer_sum_rates[b])
    series = (alone.outer_sum_rates + alone.outer_sum_rates[-1:] * cap)[:cap]
    assert record.algo[b] == alone.algo
    assert record.outer_sum_rates[b].tolist() == series
    assert record.inner_iters[b] == len(alone.iteration_index)
    assert record.outer_iters[b] == len(alone.outer_sum_rates)
    assert record.non_monotone_steps[b] == alone.non_monotone_steps
    assert record.converged_outer[b] == alone.converged_outer
    assert record.init_sum_rate[b] == alone.init_sum_rate
    assert record.best_sum_rate[b] == alone.best_sum_rate
    assert record.final_residual[b] == alone.final_residual
    assert np.array_equal(record.duals[b], alone.duals)


@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_mixed_batch_matches_each_solve(algo, reverse):
    """3 gamma points, and on cb_refim 0, 1 and 8 references at each."""
    refs = (0, 1, 8) if algo == "cb_refim" else (1,)
    solves = [(ch, cfg, init, r) for ch, cfg, init in trial(3) for r in refs]
    if reverse:
        solves.reverse()
    beams, record = solve_batch(np.stack([s[0] for s in solves]), solves[0][1],
                                np.stack([s[2] for s in solves]), algo,
                                [s[3] for s in solves])
    assert len(record.algo) == beams.shape[0] == len(solves)
    for b, ((ch, cfg, init, r), best) in enumerate(zip(solves, beams)):
        alone = solve(ch, cfg, init, algo, ref_count=r)
        assert_same_solve((best, record.trace(b)), alone)
        assert_record_entry(record, b, alone[1])


def test_mixed_algorithm_batch_matches_each_solve():
    """icbf, icbf_wi and cb_refim interleaved in one batch, across two channel
    draws that every algorithm shares, with mixed
    reference counts: each solve is its own solve, returned in the caller's
    order, and the solves leave the batch at different steps."""
    draws = trial(3) + trial(8)
    solves = [(ch, cfg, init, algo, r)
              for j, (ch, cfg, init) in enumerate(draws)
              for algo, r in (("cb_refim", j % 3), ("icbf_wi", 1), ("icbf", 2),
                              ("cb_refim", 8 - j))]
    solves = solves[1::2] + solves[::2]          # mix the order of the algorithms
    beams, record = solve_batch(np.stack([s[0] for s in solves]), NetworkConfig(),
                                np.stack([s[2] for s in solves]),
                                [s[3] for s in solves], [s[4] for s in solves])
    assert record.algo.tolist() == [s[3] for s in solves]
    for b, ((ch, cfg, init, algo, r), best) in enumerate(zip(solves, beams)):
        alone = solve(ch, cfg, init, algo, ref_count=r)
        assert_same_solve((best, record.trace(b)), alone)
        assert_record_entry(record, b, alone[1])
    steps = record.inner_iters.tolist()
    assert len(set(steps)) > 3, steps


def test_algorithm_list_checked():
    (ch, cfg, init), = trial(3)[:1]
    inits = np.stack([init] * 3)
    with pytest.raises(UsageError, match="one algorithm or 3, got 2"):
        solve_batch(np.stack([ch] * 3), cfg, inits, ["icbf", "cb_refim"])
    with pytest.raises(ConfigurationError, match="'wmmse'"):
        solve_batch(np.stack([ch] * 3), cfg, inits, ["icbf", "wmmse", "cb_refim"])
    with pytest.raises(ConfigurationError, match="reference count must be >= 0"):
        solve_batch(np.stack([ch] * 3), cfg, inits, ["icbf", "icbf_wi", "cb_refim"], [-1, 1, -2])


@pytest.mark.parametrize("seed, outer_cap, reasons", [
    (5, 1, ["outer_cap"] * 3),
    (3, 4, ["outer_tol", "outer_tol", "outer_cap"]),   # the 50 dB solve uses all 4
], ids=["L_out_max=1", "mixed"])
def test_stop_reason_alone_and_in_a_batch(seed, outer_cap, reasons):
    config = NetworkConfig(L_out_max=outer_cap)
    solves = trial(seed, config)
    alone = [solve(ch, cfg, init, "icbf_wi")[1] for ch, cfg, init in solves]
    _, record = solve_batch(np.stack([s[0] for s in solves]), config,
                            np.stack([s[2] for s in solves]), "icbf_wi")
    batched = [record.trace(b) for b in range(len(solves))]
    assert [t.stop_reason for t in alone] == [t.stop_reason for t in batched] == reasons
    assert record.converged_outer.tolist() == [r == "outer_tol" for r in reasons]


def test_batch_shape_mismatch_rejected():
    (ch, cfg, init), = trial(3)[:1]
    with pytest.raises(UsageError, match="initial beams"):
        solve_batch(np.stack([ch] * 3), cfg, init[None], "icbf")
    with pytest.raises(UsageError, match="initial beams"):
        solve_batch(ch[None][:0], cfg, init[:0], "icbf")
    with pytest.raises(UsageError, match="need channels"):
        solve_batch(ch, cfg, init[None], "icbf")      # one draw, not a stack of them
    # the channels are one array, not the (topology, h) pair that
    # realize_network returns, nor a list
    wanted = re.escape(f"need channels {(1,) + ch.shape}")
    pair = realize_network(cfg, 3)
    with pytest.raises(UsageError, match=wanted + ".*got tuple"):
        solve_batch(pair, cfg, init[None], "icbf")
    with pytest.raises(UsageError, match=wanted + ".*got tuple"):
        solve(pair, cfg, init, "icbf")
    with pytest.raises(UsageError, match=wanted + ".*got list"):
        solve_batch([ch], cfg, init[None], "icbf")
    with pytest.raises(UsageError, match="reference count"):
        solve_batch(np.stack([ch] * 3), cfg, np.stack([init] * 3), "cb_refim", [0, 1])


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_final_residual_is_the_stationarity_residual_at_the_returned_iterate(algo):
    """At 10, 30 and 50 dB in one batch, bit for bit the largest residual
    over the triples at the returned beams and duals."""
    solves = trial(3)
    beams, record = solve_batch(np.stack([s[0] for s in solves]), solves[0][1],
                                np.stack([s[2] for s in solves]), algo)
    for (ch, cfg, _), best, duals, residual in zip(solves, beams, record.duals,
                                                   record.final_residual):
        want = np.max(stationarity_residuals(ch, best, duals, cfg))
        assert residual == want
        assert np.isfinite(want) and want > 0.0


def test_residual_is_computed_once_per_batch(monkeypatch):
    """One residual pass per solve_batch call, after the loop, against one
    dual search per lockstep inner step."""
    calls = {"_residuals_of_link": 0, "lambda_bisection": 0}

    def count(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(solver, name, wrapper)

    for name in calls:
        count(name)
    solves = trial(3)
    _, record = solve_batch(np.stack([s[0] for s in solves] * 3), solves[0][1],
                            np.stack([s[2] for s in solves] * 3),
                            ["icbf"] * 3 + ["icbf_wi"] * 3 + ["cb_refim"] * 3)
    steps = int(record.inner_iters.max())
    assert calls == {"_residuals_of_link": 1, "lambda_bisection": steps}
    assert steps > 1


def test_each_trace_owns_its_duals():
    """Solves that never beat their start, and solves that do, each hold
    their own duals: writing one trace's changes no other, nor the record."""
    config = NetworkConfig(weights=np.zeros((3, 3, 3)))
    (ch, cfg, init), = trial(3, config)[:1]
    _, stuck = solve_batch(np.stack([ch, ch]), cfg, np.stack([init, init]), "icbf")
    assert np.array_equal(stuck.best_sum_rate, stuck.init_sum_rate)
    solves = trial(3)
    _, improved = solve_batch(np.stack([s[0] for s in solves]), solves[0][1],
                              np.stack([s[2] for s in solves]), "icbf")
    assert np.all(improved.best_sum_rate > improved.init_sum_rate)
    for record in (stuck, improved):
        recorded = record.duals.copy()
        traces = [record.trace(b) for b in range(len(recorded))]
        traces[0].duals[0] = -1.0
        for trace, duals in zip(traces[1:], recorded[1:]):
            assert trace.duals is not traces[0].duals
            assert np.array_equal(trace.duals, duals)
        assert np.array_equal(record.duals, recorded)


def closes_inner_loop(trace):
    """Per step: whether it is the last step of its outer iteration."""
    index = trace.iteration_index
    return [j + 1 == len(index) or index[j + 1][0] != outer
            for j, (outer, _) in enumerate(index)]


def within(now, before, tol):
    return abs(now - before) <= tol * max(abs(before), 1e-12)


@pytest.mark.parametrize("caps", [{}, {"L_in_max": 2, "L_out_max": 2}],
                         ids=["default caps", "caps hit"])
def test_traces_match_a_recomputation_from_their_steps(caps):
    """icbf, icbf_wi and cb_refim at 0 and 1 references over three draws in
    one batch: every trace field and record entry that the solve derives from
    its steps equals a scalar recomputation from the logged steps themselves."""
    config = NetworkConfig(**caps)
    solves = [(ch, init, algo, r) for seed in (3, 5, 8) for ch, _, init in trial(seed, config)
              for algo, r in (("icbf", 1), ("icbf_wi", 1), ("cb_refim", 0), ("cb_refim", 1))]
    _, record = solve_batch(np.stack([s[0] for s in solves]), config,
                            np.stack([s[1] for s in solves]),
                            [s[2] for s in solves], [s[3] for s in solves])
    traces = [record.trace(b) for b in range(len(solves))]
    for b, trace in enumerate(traces):
        steps = len(trace.iteration_index)
        assert steps == len(trace.sum_rates) == len(trace.bs_power_trace) > 0
        outers = [outer for outer, _ in trace.iteration_index]
        inners = [inner for _, inner in trace.iteration_index]
        assert outers == sorted(outers) and outers[0] == 0
        closing = closes_inner_loop(trace)
        # each inner loop counts up from 0, at most to the cap
        assert all(i == (0 if j == 0 or closing[j - 1] else inners[j - 1] + 1)
                   for j, i in enumerate(inners))
        assert max(inners) < config.L_in_max
        series = [w for w, end in zip(trace.sum_rates, closing) if end]
        assert trace.outer_sum_rates == series
        assert len(trace.inner_converged) == len(series) == outers[-1] + 1
        assert record.inner_iters[b] == steps and record.outer_iters[b] == len(series)
        # the record continues the series past its last outer iteration
        cap = config.L_out_max
        assert record.outer_sum_rates[b].tolist() == (series + series[-1:] * cap)[:cap]
        start = weighted_sum_rate(*solves[b][:2], config)
        assert record.init_sum_rate[b] == trace.init_sum_rate == start
        rates = [trace.init_sum_rate] + trace.sum_rates
        non_monotone = sum(now < before * (1.0 - 1e-12) for before, now in zip(rates, rates[1:]))
        assert trace.non_monotone_steps == record.non_monotone_steps[b] == non_monotone
        assert trace.best_sum_rate == record.best_sum_rate[b] == max(rates)
        # an inner loop ends on its tolerance or its cap, and only there
        ends = [j for j, end in enumerate(closing) if end]
        assert trace.inner_converged == [within(rates[j + 1], rates[j], config.inner_tol)
                                         for j in ends]
        assert all(c or inners[j] + 1 == config.L_in_max
                   for j, c in zip(ends, trace.inner_converged))
        assert not any(within(rates[j + 1], rates[j], config.inner_tol)
                       for j, end in enumerate(closing) if not end)
        # the outer loop likewise
        starts = [trace.init_sum_rate] + trace.outer_sum_rates
        settled = [within(now, before, config.outer_tol)
                   for before, now in zip(starts, starts[1:])]
        assert trace.converged_outer == record.converged_outer[b] == settled[-1]
        assert not any(settled[:-1])
        if not trace.converged_outer:
            assert len(trace.outer_sum_rates) == config.L_out_max
    if caps:
        assert any(not t.converged_outer for t in traces)
        assert any(False in t.inner_converged for t in traces)
