"""lambda_bisection returns the plain bisection's duals and betas bit for bit.

The search locates each BS's budget crossing by Newton steps, replays the
bisection against it and verifies the replay with a few exact evaluations.
Its result must not depend on any of that: the oracle is the bisection that
evaluates f at every midpoint (``reference.dual_bisection``), run on the same
evaluator through the same ``solver._betas_power``.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbsim import solver
from cbsim.config import NetworkConfig
from cbsim.initializers import init_mslnr
from cbsim.network import ChannelState, realize_network
from cbsim.refim import reference_map
from cbsim.solver import DualEvaluator, _all_leakages, full_mask

#: One solve per algorithm, in the evaluator's mode order: icbf's direct solve,
#: cb_refim's direct solve on a leakage truncated to two victims per beam, and
#: icbf_wi's inverse-free solve.
ALGO_MODES = ("direct", "direct", "sherman_morrison")
ALGO_VICTIMS = (None, 2, None)


def oracle(ev, interf, config):
    flat = interf.swapaxes(-1, -2).reshape(ev.weights.shape)
    hi, b2 = reference.dual_bisection(
        lambda lam: solver._betas_power(ev, lam, flat), config.lambda_min, ev.lam_up,
        config.Pmax, solver.BISECT_WIDTH_RTOL, solver.BISECT_POWER_RTOL,
        solver.BISECT_MAX_STEPS)
    shape = ev.lead + (config.M,)
    return hi.reshape(shape), np.sqrt(b2).swapaxes(1, 2).reshape(shape + (config.K, config.N))


def assert_same_search(ev, interf, config, warm=None):
    duals, betas = solver.lambda_bisection(ev, interf, config, warm)
    want_duals, want_betas = oracle(ev, interf, config)
    assert np.array_equal(duals, want_duals)
    assert np.array_equal(betas, want_betas)
    return duals, betas


def mixed_batch(rng, config, modes, victims=None, gain=(-2.0, 4.0), q_scale=(-4.0, 0.0),
                interference=(-3.0, 3.0)):
    """An evaluator over one solve per mode (modes in GAMMA_MODES order) on
    random channels whose per-link gains span ``gain`` decades, random
    interference, and the leakage matrices. ``victims`` caps the victims per
    beam, one cap for every solve or one per solve (None: no cap), so the
    leakage matrices have at most that rank."""
    b = len(modes)
    shape = (b, config.M, config.n_users, config.N, config.Nt)
    scale = 10.0 ** rng.uniform(*gain, shape[:3] + (1, 1))
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(scale / 2)
    channels = ChannelState(normalized=h, n_coordinated=config.M)
    q = 10.0 ** rng.uniform(*q_scale, (b, config.n_users, config.N))
    mask = np.broadcast_to(full_mask(config), (b,) + full_mask(config).shape)
    if victims is not None:
        caps = [victims] * b if np.ndim(victims) == 0 else victims
        caps = np.array([np.inf if cap is None else cap for cap in caps])
        order = np.argsort(rng.random(mask.shape), axis=-1)
        mask = mask & (np.argsort(order, axis=-1) < caps[:, None, None, None, None])
    leakages = _all_leakages(channels, q, mask)
    interf = 10.0 ** rng.uniform(*interference, (b, config.M, config.K, config.N))
    return DualEvaluator(channels, leakages, config, list(modes)), interf, leakages


def every_algorithm(rng, config, **ranges):
    """:func:`mixed_batch` over one solve per algorithm (ALGO_MODES)."""
    return mixed_batch(rng, config, ALGO_MODES, ALGO_VICTIMS, **ranges)


def random_config(rng, **fixed):
    dims = {name: int(rng.integers(1, 4)) for name in ("M", "N", "K")}
    dims["Nt"] = int(rng.integers(1, 5))
    dims.update(fixed)
    shape = (dims["M"], dims["K"], dims["N"])
    assignment = rng.random(shape) < 0.8                  # holes in the (n, k) order
    weights = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.9)
    return NetworkConfig(**dims, assignment=assignment, weights=weights,
                         Pmax=float(10.0 ** rng.uniform(-1.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), warm=st.sampled_from(["none", "random", "near"]))
def test_search_matches_the_bisection_on_random_mixed_evaluators(seed, warm):
    rng = np.random.default_rng(seed)
    config = random_config(rng)
    algos = np.sort(rng.integers(0, len(ALGO_MODES), int(rng.integers(1, 5))))
    victims = [int(rng.integers(0, config.n_users)) if ALGO_VICTIMS[a] else None for a in algos]
    ev, interf, _ = mixed_batch(rng, config, [ALGO_MODES[a] for a in algos], victims)
    start = None
    if warm == "random":
        start = 10.0 ** rng.uniform(-10.0, 2.0, ev.lead + (config.M,))
    elif warm == "near":     # the previous inner step's dual is close to this one's
        start = oracle(ev, interf, config)[0] * rng.uniform(0.9, 1.1, ev.lead + (config.M,))
    assert_same_search(ev, interf, config, start)


def test_search_matches_the_bisection_on_channel_draws():
    """Real channels and mslnr leakages at 10, 30 and 50 dB, one solve per
    algorithm, cb_refim's on one reference."""
    for gamma_db in (10.0, 30.0, 50.0):
        config = NetworkConfig(gamma_db=gamma_db)
        draws = [realize_network(config, seed)[1] for seed in (3, 4, 5)]
        channels = ChannelState(normalized=np.stack([d.normalized for d in draws]),
                                n_coordinated=config.M)
        beams = np.stack([init_mslnr(d, config) for d in draws])
        link = solver.link_state(channels, beams, config)
        masks = np.stack([full_mask(config), reference_map(draws[1], config) < 1,
                          full_mask(config)])
        leakages = _all_leakages(channels, solver._q_from_link(config, link), masks)
        ev = DualEvaluator(channels, leakages, config, list(ALGO_MODES))
        interf = solver._interference_of_link(config, link)
        duals = assert_same_search(ev, interf, config)[0]
        assert_same_search(ev, interf, config, duals * 1.05)


def case_beams_off(rng):
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    ev, interf, _ = every_algorithm(rng, config)
    interf[1] = 1e15                       # the cb_refim solve: every beam stays off
    return ev, interf, config, lambda duals, betas: (np.all(duals[1] == config.lambda_min)
                                                     and np.all(betas[1] == 0.0))


def case_fits_at_the_floor(rng):
    # full-rank leakage comparable to the own link: even at lambda_min the
    # beams that stay on need little power
    config = NetworkConfig(M=2, N=2, K=3, Nt=2, Pmax=3.0)
    ev, interf, _ = mixed_batch(rng, config, ("direct", "direct"), (None, 2),
                                q_scale=(-2.0, -1.5), gain=(1.0, 2.0),
                                interference=(-3.0, -2.0))
    return ev, interf, config, lambda duals, betas: (np.any(duals == config.lambda_min)
                                                     and np.any(betas > 0.0))


def case_width_stopped(rng):
    # strong links without leakage: lambda* sits ~1e-10 below lambda_upper, and
    # the power tolerance is a narrower interval than the bracket width
    config = NetworkConfig(M=1, N=1, K=1, Nt=2, weights=np.ones((1, 1, 1)))
    ev, interf, _ = every_algorithm(rng, config, gain=(10.0, 10.5), q_scale=(-30, -29),
                                    interference=(-3.0, -2.0))

    def width_stopped(duals, betas):
        flat = interf.swapaxes(-1, -2).reshape(ev.weights.shape)
        power = solver._betas_power(ev, duals.ravel(), flat)[1]
        return np.all(config.Pmax - power > solver.BISECT_POWER_RTOL * config.Pmax)
    return ev, interf, config, width_stopped


def case_steep(rng):
    # a tiny budget is met just before the last beams switch off, where
    # ln f falls steeply in ln lambda
    config = NetworkConfig(M=3, N=2, K=2, Nt=3, Pmax=1e-7)
    ev, interf, _ = every_algorithm(rng, config)

    def steep(duals, betas):
        flat = interf.swapaxes(-1, -2).reshape(ev.weights.shape)
        _, f, df = solver._betas_power(ev, duals.ravel(), flat, slope=True)
        with np.errstate(invalid="ignore"):          # f = 0 where every beam is off
            return np.nanmax(-duals.ravel() * df / f) > 100.0
    return ev, interf, config, steep


def case_icbf_wi_rank(rank):
    # the inverse-free Gamma is not an inverse once rank(L) > 1
    def case(rng):
        config = NetworkConfig(M=2, N=2, K=3, Nt=3)
        ev, interf, leakages = mixed_batch(rng, config, ["sherman_morrison"] * 3,
                                           victims=rank, q_scale=(-1.0, 1.0))
        ranks = np.linalg.matrix_rank(leakages, hermitian=True)
        return ev, interf, config, lambda duals, betas: ranks.max() == rank
    return case


@pytest.mark.parametrize("case", [case_beams_off, case_fits_at_the_floor, case_width_stopped,
                                  case_steep, case_icbf_wi_rank(2), case_icbf_wi_rank(3)],
                         ids=["beams_off", "fits_at_floor", "width_stopped", "steep",
                              "icbf_wi_rank_2", "icbf_wi_rank_3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_the_bisection_on_adversarial_rows(case, seed):
    ev, interf, config, property_holds = case(np.random.default_rng(seed))
    duals, betas = assert_same_search(ev, interf, config)
    assert property_holds(duals, betas)
    assert_same_search(ev, interf, config, duals * 1.5)


def count_exact_searches(monkeypatch):
    calls = Counter()
    real = solver._dual_search

    def counted(ev, interf, config, warm=None, rows=None):
        calls["exact" if rows is not None else "search"] += 1
        return real(ev, interf, config, warm, rows)
    monkeypatch.setattr(solver, "_dual_search", counted)
    return calls


@pytest.mark.parametrize("wrong", ["over_near_star", "fit_below_star", "within_past_tolerance",
                                   "no_tolerance", "not_located"])
def test_a_wrong_prediction_is_caught_and_searched_exactly(monkeypatch, wrong):
    """A located lambda* or lambda_tol that misleads the replay: the verify
    checks fail for the misled BSs, whose solves are searched again exactly,
    and the result is still the bisection's. Each of the first four misleads
    a different check: the final lo over budget, the hi within the
    tolerance, or the smallest midpoint that fit with room."""
    rng = np.random.default_rng(7)
    config = NetworkConfig(M=3, N=2, K=2, Nt=3)
    ev, interf, _ = every_algorithm(rng, config)
    real = solver._locate

    def misled(*args):
        star, tol = real(*args)
        zone = tol - star                       # where f fits within the tolerance
        if wrong == "over_near_star":           # the zone's lower half judged over budget
            star = star + 0.5 * zone
        elif wrong == "fit_below_star":         # midpoints just below lambda* judged to fit
            star, tol = star * (1 - 1e-3), tol * (1 - 1e-3)
        elif wrong == "within_past_tolerance":  # midpoints with room judged within
            tol = tol + zone
        elif wrong == "no_tolerance":           # no midpoint judged within the tolerance
            tol = star
        else:
            star[::2] = tol[::2] = np.nan
        return np.stack((star, tol))
    monkeypatch.setattr(solver, "_locate", misled)
    calls = count_exact_searches(monkeypatch)
    assert_same_search(ev, interf, config)
    assert calls["exact"] == 1


def test_a_search_evaluates_f_a_few_times(monkeypatch):
    """Over a real solve, a dual search evaluates f (slope evaluations
    included) far fewer times than the ~30 of the plain bisection, and no
    search falls back to the exact one."""
    calls = count_exact_searches(monkeypatch)
    real = solver._betas_power

    def counted(*args, **kwargs):
        calls["evals"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(solver, "_betas_power", counted)
    config = NetworkConfig()
    _, channels = realize_network(config, 1)
    _, trace = solver.solve(channels, config, init_mslnr(channels, config), "icbf")
    searches = len(trace.iteration_index)
    assert calls["exact"] == 0
    assert calls["evals"] <= 12 * searches


def test_slope_matches_finite_differences():
    """The slope that _betas_power returns is df/dlambda of its power, on
    every Gamma mode."""
    rng = np.random.default_rng(11)
    config = NetworkConfig(M=2, N=2, K=2, Nt=3)
    ev, interf, _ = every_algorithm(rng, config, q_scale=(-1.0, 0.0),
                                    interference=(-2.0, -1.0))
    flat = interf.swapaxes(-1, -2).reshape(ev.weights.shape)
    lam = 0.3 * ev.lam_up
    _, f, df = solver._betas_power(ev, lam, flat, slope=True)
    assert np.array_equal(f, solver._betas_power(ev, lam, flat)[1])
    step = 1e-6 * lam
    fd = (solver._betas_power(ev, lam + step, flat)[1]
          - solver._betas_power(ev, lam - step, flat)[1]) / (2 * step)
    assert np.all(df < 0.0)
    np.testing.assert_allclose(df, fd, rtol=1e-5)
