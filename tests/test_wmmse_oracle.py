"""Validation of the WMMSE oracle in tests/reference.py.

Acceptance criterion 5 measures the solvers' gain against this oracle, so it
is checked here on its own terms first: optimality on instances small enough
for a grid search, monotone progress, the power budget, agreement of its rate
formula with the library's, and independence from the solver and metrics
code.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

import reference
from cbsim.config import NetworkConfig
from cbsim.initializers import init_mslnr
from cbsim.metrics import weighted_sum_rate
from cbsim.network import realize_network

ITERS = 200


def _batch(config, seeds):
    """Stacked normalized channels and mslnr starting beams, one per seed."""
    h = np.stack([realize_network(config, seed)[1] for seed in seeds])
    return h, init_mslnr(h, config)


@pytest.fixture(scope="module")
def desk_run():
    """WMMSE on desk-scale realizations at 10, 30 and 50 dB, one batch, every
    trial run for all ITERS iterations (no early stop).

    Returns the per-trial configs and channels, the beams and the weighted
    sum-rate history.
    """
    configs, hs, starts = [], [], []
    for gamma in (10.0, 30.0, 50.0):
        config = NetworkConfig(gamma_db=gamma)
        h, start = _batch(config, range(10))
        configs += [config] * len(h)
        hs.append(h)
        starts.append(start)
    h = np.concatenate(hs)
    beams, wsr = reference.wmmse(h, np.concatenate(starts),
                                 configs[0].weights * configs[0].assignment,
                                 configs[0].Pmax, ITERS, tol=-np.inf)
    return configs, h, beams, wsr


def test_wmmse_reaches_the_grid_search_optimum():
    """At least 98% of criterion 8's dense grid search on its 20 two-cell,
    one-user, two-antenna instances."""
    config = NetworkConfig(M=2, K=1, N=1, Nt=2)
    seeds = range(20)
    h, start = _batch(config, seeds)
    _, wsr = reference.wmmse(h, start, config.weights * config.assignment,
                             config.Pmax, ITERS)
    for t, one in enumerate(h):
        hmat = [[one[m, u, 0] for u in range(2)] for m in range(2)]
        best, _ = reference.grid_search_two_cell(
            hmat, config.Pmax, float(config.weights[0, 0, 0]))
        assert wsr[t, -1] >= 0.98 * best, f"seed {seeds[t]}"


def test_wmmse_sum_rate_never_decreases(desk_run):
    """Monotone up to rounding: no step loses more than 1e-12 relative."""
    _, _, _, wsr = desk_run
    steps = np.diff(wsr, axis=1) / wsr[:, :-1]
    assert steps.min() >= -1e-12
    assert np.all(wsr[:, -1] > wsr[:, 0])


def test_wmmse_respects_every_power_budget(desk_run):
    configs, _, beams, _ = desk_run
    powers = np.sum(np.abs(beams) ** 2, axis=(2, 3, 4))
    assert powers.max() <= configs[0].Pmax * (1.0 + 1e-9)


def test_wmmse_rate_formula_matches_the_library(desk_run):
    """The oracle's own sum-rate equals cbsim's on the beams it returns."""
    configs, h, beams, wsr = desk_run
    for t, config in enumerate(configs):
        lib = weighted_sum_rate(h[t], beams[t], config)
        assert wsr[t, -1] == pytest.approx(lib, rel=1e-12), f"{config.gamma_db} dB"


def test_wmmse_leaves_unscheduled_triples_silent():
    assignment = np.ones((3, 3, 3), dtype=bool)
    assignment[0, 1, :] = False
    assignment[2, :, 0] = False
    config = NetworkConfig(assignment=assignment)
    h, start = _batch(config, (3, 4))
    beams, wsr = reference.wmmse(h, start, config.weights * config.assignment,
                                 config.Pmax, 20)
    assert np.all(beams[:, ~assignment] == 0.0)
    assert np.all(np.diff(wsr, axis=1) >= -1e-12 * wsr[:, :-1])


def test_reference_module_imports_nothing_from_the_package():
    """The oracle stays independent of cbsim.solver and cbsim.metrics (and of
    every other cbsim module)."""
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules == {"numpy"}
