"""solver.solve_batch: every solve of a batch behaves exactly as it does alone.

A batch runs its solves in lockstep, one inner iteration each per step, and
each solve leaves when its own stop tests say so. Nothing of one solve may
depend on the others in its batch or on their order, down to the last bit.
"""
import numpy as np
import pytest

from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, UsageError
from cbsim.initializers import init_mslnr
from cbsim.network import ChannelState, apply_noise, build_topology, draw_channels
from cbsim.solver import ALGORITHMS, solve, solve_batch

GAMMAS = (10.0, 30.0, 50.0)


def trial(seed, config=None):
    """(channels, config, mslnr beams) at every gamma of one channel draw."""
    config = config or NetworkConfig()
    topology = build_topology(config, seed)
    raw = draw_channels(topology, config, seed + 1)
    out = []
    for gamma in GAMMAS:
        cfg = config.with_gamma_db(gamma)
        channels = apply_noise(topology, cfg, raw)
        out.append((channels, cfg, init_mslnr(channels, cfg)))
    return out


def stack(states):
    """One ChannelState whose leading axis holds the given draws."""
    return ChannelState(normalized=np.stack([ch.normalized for ch in states]))


def assert_same_solve(batched, alone):
    (beams_b, trace_b), (beams_a, trace_a) = batched, alone
    assert trace_b.algo == trace_a.algo
    assert trace_b.iteration_index == trace_a.iteration_index
    assert trace_b.sum_rates == trace_a.sum_rates
    assert trace_b.residuals == trace_a.residuals
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


@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_mixed_batch_matches_each_solve(algo, reverse):
    """3 gamma points, and on cb_refim 0, 1 and 8 references at each."""
    refs = (0, 1, 8) if algo == "cb_refim" else (1,)
    solves = [(ch, cfg, init, r) for ch, cfg, init in trial(3) for r in refs]
    if reverse:
        solves.reverse()
    beams, traces = solve_batch(stack([s[0] for s in solves]), solves[0][1],
                                np.stack([s[2] for s in solves]), algo,
                                [s[3] for s in solves])
    assert len(traces) == beams.shape[0] == len(solves)
    for (ch, cfg, init, r), best, trace in zip(solves, beams, traces):
        assert_same_solve((best, trace), solve(ch, cfg, init, algo, ref_count=r))


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
    beams, traces = solve_batch(stack([s[0] for s in solves]), NetworkConfig(),
                                np.stack([s[2] for s in solves]),
                                [s[3] for s in solves], [s[4] for s in solves])
    assert [t.algo for t in traces] == [s[3] for s in solves]
    for (ch, cfg, init, algo, r), best, trace in zip(solves, beams, traces):
        assert_same_solve((best, trace), solve(ch, cfg, init, algo, ref_count=r))
    steps = [len(t.iteration_index) for t in traces]
    assert len(set(steps)) > 3, steps


def test_algorithm_list_checked():
    (ch, cfg, init), = trial(3)[:1]
    inits = np.stack([init] * 3)
    with pytest.raises(UsageError, match="one algorithm or 3, got 2"):
        solve_batch(stack([ch] * 3), cfg, inits, ["icbf", "cb_refim"])
    with pytest.raises(ConfigurationError, match="'wmmse'"):
        solve_batch(stack([ch] * 3), cfg, inits, ["icbf", "wmmse", "cb_refim"])
    with pytest.raises(ConfigurationError, match="reference count must be >= 0"):
        solve_batch(stack([ch] * 3), cfg, inits, ["icbf", "icbf_wi", "cb_refim"], [-1, 1, -2])


@pytest.mark.parametrize("seed, outer_cap, reasons", [
    (5, 1, ["outer_cap"] * 3),
    (3, 4, ["outer_tol", "outer_tol", "outer_cap"]),   # the 50 dB solve uses all 4
], ids=["L_out_max=1", "mixed"])
def test_stop_reason_alone_and_in_a_batch(seed, outer_cap, reasons):
    config = NetworkConfig(L_out_max=outer_cap)
    solves = trial(seed, config)
    alone = [solve(ch, cfg, init, "icbf_wi")[1] for ch, cfg, init in solves]
    _, batched = solve_batch(stack([s[0] for s in solves]), config,
                             np.stack([s[2] for s in solves]), "icbf_wi")
    assert [t.stop_reason for t in alone] == [t.stop_reason for t in batched] == reasons
    assert [t.converged_outer for t in batched] == [r == "outer_tol" for r in reasons]


def test_batch_shape_mismatch_rejected():
    (ch, cfg, init), = trial(3)[:1]
    with pytest.raises(UsageError, match="initial beams"):
        solve_batch(stack([ch] * 3), cfg, init[None], "icbf")
    with pytest.raises(UsageError, match="initial beams"):
        solve_batch(ChannelState(normalized=ch.normalized[None][:0]), cfg, init[:0], "icbf")
    with pytest.raises(UsageError, match="need channels"):
        solve_batch(ch, cfg, init[None], "icbf")      # one draw, not a stack of them
    with pytest.raises(UsageError, match="reference count"):
        solve_batch(stack([ch] * 3), cfg, np.stack([init] * 3), "cb_refim", [0, 1])
