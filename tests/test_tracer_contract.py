"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` times cbsim's layers by replacing module-level
functions, looked up by name, with wrappers. A renamed function, or a call
path that reaches a function through a stored reference instead of its
module attribute, silently drops a layer from the traced benchmark. These
tests read the tracer's tables without importing or editing it and check both.
"""
import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from cbsim import ExperimentSpec, experiments, refim, run_experiment, solver
from cbsim.config import NetworkConfig
from cbsim.initializers import init_mslnr
from cbsim.network import realize_network

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "ROOT", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def traced_names():
    tables = tracer_tables()
    names = [(mod, fn) for mod, fns in tables["SPANS"].items() for fn in fns]
    return names + [tables["ROOT"], tables["COUNTED"]]


def test_tracer_tables_are_readable():
    assert set(tracer_tables()) == {"SPANS", "ROOT", "COUNTED"}


@pytest.mark.parametrize("mod, fn", traced_names())
def test_traced_name_is_a_module_level_callable(mod, fn):
    assert callable(getattr(importlib.import_module(f"cbsim.{mod}"), fn, None))


def count_calls(monkeypatch, calls, module, name):
    """Replace ``module.name`` with a wrapper that counts into ``calls[name]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("kind, per_trial", [("snr_sweep", 1), ("ref_sweep", 1),
                                             ("feedback", 0)])
def test_each_sweep_trial_calls_each_network_span_once(monkeypatch, tmp_path, kind, per_trial):
    """The benchmark's network spans: each trial of a sweep calls
    draw_channels once and apply_noise once, at every SNR point together;
    the feedback table draws its channels in parts and calls neither. The
    calls are counted through cbsim.experiments' names, which the tracer
    replaces."""
    calls = Counter()
    for name in ("draw_channels", "apply_noise"):
        count_calls(monkeypatch, calls, experiments, name)
    spec = ExperimentSpec(kind=kind, trials=2, seed=1, gamma_db=(10.0, 30.0, 50.0),
                          workers=1, timestamp=False, out=str(tmp_path / "out.csv"))
    run_experiment(NetworkConfig(), spec)
    assert calls["draw_channels"] == calls["apply_noise"] == per_trial * spec.trials


def test_cb_refim_solve_reaches_the_traced_layers(monkeypatch):
    calls = Counter()
    for name in ("lambda_bisection", "update_beams", "_betas_power"):
        count_calls(monkeypatch, calls, solver, name)
    count_calls(monkeypatch, calls, refim, "invert_rank_r")
    config = NetworkConfig()
    h = realize_network(config, 1)[1]
    _, trace = solver.solve(h, config, init_mslnr(h, config), "cb_refim")
    inner = len(trace.iteration_index)
    # one joint dual search and one beam update per inner iteration; each
    # search evaluates f(lambda) more than once. The beams come from the
    # evaluator's eigendecomposition: the solve never runs the dense rank-one
    # recursion.
    assert calls["lambda_bisection"] == calls["update_beams"] == inner > 0
    assert calls["invert_rank_r"] == 0
    assert calls["_betas_power"] > inner
