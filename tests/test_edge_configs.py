"""Regression runs of all three solvers on edge configurations.

Each configuration runs 5 seeds, one solve at a time and as one
``solve_batch``, with every warning raised as an error and
numpy's floating-point checks (overflow, underflow, invalid, divide) set to
raise, so a silent NaN, an overflow or a division by zero anywhere in the
initializer or the solve fails the test.
"""
import warnings

import numpy as np
import pytest

from cbsim.config import NetworkConfig
from cbsim.initializers import init_mslnr
from cbsim.metrics import power_feasible, weighted_sum_rate
from cbsim.network import realize_network
from cbsim.solver import ALGORITHMS, solve, solve_batch

SEEDS = range(5)


def _zero_weights_on_one_bs():
    config = NetworkConfig()
    config.weights[1] = 0.0
    return config


def _partial_assignment():
    config = NetworkConfig()
    config.assignment[0, 1, 0] = config.assignment[1, 0, 2] = False
    config.assignment[2, 2, :] = False
    return config


def _idle_bs():
    config = NetworkConfig()
    config.assignment[1] = False
    return config


EDGE_CONFIGS = {
    "single_link": lambda: NetworkConfig(M=1, K=1, N=1, Nt=2),
    "more_users_than_antennas": lambda: NetworkConfig(M=2, K=4, N=2, Nt=2),
    "snr_80db": lambda: NetworkConfig(gamma_db=80.0),
    "snr_minus_20db": lambda: NetworkConfig(gamma_db=-20.0),
    "zero_weights_on_one_bs": _zero_weights_on_one_bs,
    "partial_assignment": _partial_assignment,
    "idle_bs": _idle_bs,
    "single_antenna": lambda: NetworkConfig(Nt=1),
}


def assert_clean(config, h, beams, trace):
    assert np.all(np.isfinite(beams)) and np.all(np.isfinite(trace.duals))
    assert np.all(np.isfinite(trace.sum_rates)) and np.isfinite(trace.final_residual)
    assert power_feasible(beams, config)
    assert np.all(np.array(trace.bs_power_trace) <= config.Pmax * (1.0 + 1e-9))
    assert trace.best_sum_rate >= trace.init_sum_rate
    assert trace.best_sum_rate == pytest.approx(
        weighted_sum_rate(h, beams, config), rel=1e-12)
    assert np.all(beams[~config.assignment] == 0.0)
    assert np.all(trace.duals >= config.lambda_min)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_config_solves_cleanly(name, algo):
    for seed in SEEDS:
        config = EDGE_CONFIGS[name]()
        h = realize_network(config, seed)[1]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            init = init_mslnr(h, config)
            beams, trace = solve(h, config, init, algo, ref_count=1)
        assert_clean(config, h, beams, trace)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_config_batch_of_seeds_solves_cleanly(name, algo):
    """All seeds as one batch: each solve clean and equal to its own solve."""
    config = EDGE_CONFIGS[name]()
    h = np.stack([realize_network(config, seed)[1] for seed in SEEDS])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        inits = init_mslnr(h, config)
        beams, record = solve_batch(h, config, inits, algo, ref_counts=1)
        alone = [solve(one, config, init, algo, ref_count=1) for one, init in zip(h, inits)]
    traces = [record.trace(b) for b in range(len(h))]
    for one, best, trace, (beams_1, trace_1) in zip(h, beams, traces, alone):
        assert_clean(config, one, best, trace)
        assert np.array_equal(best, beams_1) and trace.sum_rates == trace_1.sum_rates
        assert np.array_equal(trace.duals, trace_1.duals)
