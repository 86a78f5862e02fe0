"""Solver core tests: leakage, Gamma, beta, dual bisection, double loop, KKT."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, UsageError
from cbsim.initializers import init_cm, init_mslnr
from cbsim.metrics import bs_powers, link_state, sinr_of_link, weighted_sum_rate
from cbsim.network import realize_network
from cbsim.refim import reference_mask
from cbsim.solver import (LN2, DualEvaluator, _all_leakages, _betas_power,
                          _q_from_link, beta, finite_difference_gradient, full_mask,
                          gamma_direct, gamma_sherman_morrison, interference_all,
                          kkt_report, lagrangian_gradient, lagrangian_value,
                          lambda_bisection, solve, stationarity_residuals, update_beams)

complex_entries = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                                     allow_nan=False, allow_infinity=False)


def synthetic_channels(config, seed=0):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.n_users, config.N, config.Nt)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return h


def random_beams(config, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.K, config.N, config.Nt)
    beams = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return beams * config.assignment[..., None]


def empty_beams(config):
    return np.zeros((config.M, config.K, config.N, config.Nt), dtype=complex)


def full_leakages(h, beams, config):
    """Full leakage matrix of every triple, (M, K, N, Nt, Nt), as the solver
    builds it: victim weights q from the link state over the full victim mask."""
    q = _q_from_link(config, link_state(h, beams, config))
    return _all_leakages(h, q, full_mask(config))


def random_psd(rng, nt, scale=1.0):
    x = (rng.standard_normal((nt, nt)) + 1j * rng.standard_normal((nt, nt))) / np.sqrt(2)
    return scale * (x @ x.conj().T)


# ---------------------------------------------------------------------------
# interference
# ---------------------------------------------------------------------------

def test_interference_single_beam_is_zero():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2)
    h = synthetic_channels(config)
    beams = random_beams(config, 1)
    assert interference_all(h, beams, config)[0, 0, 0] == 0.0


def test_interference_matches_sinr_identity():
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    h = synthetic_channels(config, 2)
    beams = random_beams(config, 3)
    interf = interference_all(h, beams, config)
    sinrs = sinr_of_link(config, link_state(h, beams, config))
    for m in range(2):
        for k in range(2):
            for n in range(2):
                hk = h[m, config.user_id(m, k), n]
                sig = abs(np.vdot(hk, beams[m, k, n])) ** 2
                assert sinrs[m, k, n] * (1.0 + interf[m, k, n]) == pytest.approx(sig, rel=1e-10)
                assert interf[m, k, n] == pytest.approx(
                    reference.interference_scalar(h, beams, config, m, k, n), rel=1e-12)


def test_interference_orthogonal_interferer():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = np.zeros((2, 2, 1, 2), dtype=complex)
    h[0, 0, 0] = [1.0, 0.0]
    h[1, 0, 0] = [0.0, 1.0]   # interferer channel into user 0
    h[0, 1, 0] = [0.3, 0.4]
    h[1, 1, 0] = [1.0, 0.0]
    beams = empty_beams(config)
    beams[0, 0, 0] = [1.0, 0.0]
    beams[1, 0, 0] = [1.0, 0.0]   # orthogonal to h[1, user0]
    assert interference_all(h, beams, config)[0, 0, 0] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_zero_for_lone_user():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2)
    h = synthetic_channels(config)
    leak = full_leakages(h, random_beams(config, 4), config)[0, 0, 0]
    assert np.allclose(leak, 0.0)


def test_leakage_zero_when_other_beams_off():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = synthetic_channels(config, 5)
    beams = empty_beams(config)
    beams[0, 0, 0] = [1.0, 0.5]
    leak = full_leakages(h, beams, config)[0, 0, 0]
    assert np.allclose(leak, 0.0)


def test_leakage_matches_scalar_oracle():
    config = NetworkConfig(M=2, N=2, K=2, Nt=3)
    h = synthetic_channels(config, 6)
    beams = random_beams(config, 7)
    got = full_leakages(h, beams, config)
    for (m, k, n) in reference.active_triples(config):
        want = reference.leakage_scalar(h, beams, config, m, k, n)
        assert np.allclose(got[m, k, n], want, rtol=1e-10, atol=1e-14)


def test_leakage_invariants():
    config = NetworkConfig(M=2, N=1, K=3, Nt=3)
    h = synthetic_channels(config, 8)
    beams = random_beams(config, 9)
    mat = full_leakages(h, beams, config)[0, 1, 0]
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(mat)
    assert evals.min() >= -1e-10 * np.trace(mat).real
    assert np.trace(mat).real >= 0


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_gamma_direct_identity_leakage_free():
    lam = 2.0
    g = gamma_direct(np.zeros((3, 3), dtype=complex), lam)
    assert np.allclose(g, np.eye(3) / (lam * LN2))


def test_gamma_direct_diagonal():
    lam = 1.0 / LN2   # lambda * ln2 = 1
    g = gamma_direct(np.diag([1.0, 0.0]).astype(complex), lam)
    assert np.allclose(g, np.diag([0.5, 1.0]))


def test_gamma_direct_residual():
    rng = np.random.default_rng(10)
    for _ in range(25):
        nt = rng.integers(1, 5)
        mat = random_psd(rng, nt)
        lam = 10.0 ** rng.uniform(-3, 1)
        g = gamma_direct(mat, lam)
        t = mat + lam * LN2 * np.eye(nt)
        assert np.linalg.norm(g @ t - np.eye(nt)) <= 1e-10


def test_gamma_sherman_morrison_identity_leakage_free():
    lam = 0.25
    g = gamma_sherman_morrison(np.zeros((2, 2), dtype=complex), lam)
    assert np.allclose(g, np.eye(2) / (lam * LN2))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(min_value=1e-3, max_value=10.0),
       lam=st.floats(min_value=1e-4, max_value=10.0),
       vec=st.lists(complex_entries, min_size=2, max_size=4))
@example(q=8.0, lam=1e-4, vec=[2 + 1.5j, 2 + 1.5j])   # kappa = 1.44e6
def test_gamma_sherman_morrison_exact_for_rank_one(q, lam, vec):
    # The two forms agree to rounding of the formed matrix T, whose condition
    # number kappa = (lambda ln2 + tr L) / (lambda ln2) reaches 1e6 and more at
    # the lower end of the lambda range; see the conditioning test below.
    h = np.array(vec)
    mat = q * np.outer(h, h.conj())
    kappa = (lam * LN2 + np.trace(mat).real) / (lam * LN2)
    gd = gamma_direct(mat, lam)
    gs = gamma_sherman_morrison(mat, lam)
    rel = np.linalg.norm(gs - gd) / np.linalg.norm(gd)
    assert rel <= max(1e-12, 100 * np.finfo(float).eps * kappa)


def test_gamma_sherman_morrison_small_lambda_conditioning():
    # At lambda near the dual floor the formed matrix T is ill conditioned
    # (kappa ~ ||L|| / (lambda ln2)), so agreement between the closed form
    # and a dense solve degrades towards kappa * machine-eps. Check against
    # a conditioning-aware bound rather than a fixed one.
    rng = np.random.default_rng(11)
    for _ in range(50):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mat = rng.uniform(0.1, 2.0) * np.outer(h, h.conj())
        lam = 10.0 ** rng.uniform(-10, 0)
        kappa = (lam * LN2 + np.trace(mat).real) / (lam * LN2)
        gd = gamma_direct(mat, lam)
        gs = gamma_sherman_morrison(mat, lam)
        rel = np.linalg.norm(gs - gd) / np.linalg.norm(gd)
        assert rel <= max(1e-12, 100 * np.finfo(float).eps * kappa)


def test_gamma_sherman_morrison_scalar_taxation_form():
    lam, leak = 0.7, 1.3
    g = gamma_sherman_morrison(np.array([[leak]], dtype=complex), lam)
    assert g[0, 0].real == pytest.approx(1.0 / (lam * LN2 + leak))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=1e-6, max_value=10.0), seed=st.integers(0, 10_000))
def test_gamma_positive_definite_both_modes(lam, seed):
    rng = np.random.default_rng(seed)
    mat = random_psd(rng, 3)
    for g in (gamma_direct(mat, lam), gamma_sherman_morrison(mat, lam)):
        evals = np.linalg.eigvalsh(g)
        assert evals.min() > 0


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def beta_setup(seed=12, nt=3):
    config = NetworkConfig(M=1, N=1, K=1, Nt=nt, weights=np.ones((1, 1, 1)))
    h = synthetic_channels(config, seed)
    return config, h


def test_beta_clamps_to_zero():
    config, h = beta_setup()
    hk = h[0, 0, 0]
    lam = 10.0 * np.linalg.norm(hk) ** 2   # taxes the beam off
    gamma = gamma_direct(np.zeros((3, 3), dtype=complex), lam)
    assert beta(h, config, 0, 0, 0, gamma, interference_value=0.0) == 0.0


def test_beta_direct_substitution():
    # w = 1, u = 2, i = 0 -> beta = 0.5; arrange u = 2 via a unit channel
    config = NetworkConfig(M=1, N=1, K=1, Nt=1, weights=np.ones((1, 1, 1)))
    h = np.ones((1, 1, 1, 1), dtype=complex)
    lam = 0.5 / LN2    # Gamma = 2 => u = |h|^2 * 2 = 2
    gamma = gamma_direct(np.zeros((1, 1), dtype=complex), lam)
    assert beta(h, config, 0, 0, 0, gamma, 0.0) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(min_value=1e-3, max_value=5.0),
       interf=st.floats(min_value=0.0, max_value=3.0))
def test_beta_fixed_point_residual(seed, lam, interf):
    """v = beta * Gamma * h satisfies the stationarity equation for the given
    leakage and interference."""
    config, h = beta_setup(seed)
    rng = np.random.default_rng(seed + 1)
    mat = random_psd(rng, 3, scale=0.5)
    gamma = gamma_direct(mat, lam)
    hk = h[0, 0, 0]
    b = beta(h, config, 0, 0, 0, gamma, interf)
    v = b * (gamma @ hk)
    t = mat + lam * LN2 * np.eye(3)
    sig = abs(np.vdot(hk, v)) ** 2
    lhs = t @ v
    rhs = hk * np.vdot(hk, v) / (1.0 + sig + interf)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(lhs), 1e-12)


# ---------------------------------------------------------------------------
# dual bisection
# ---------------------------------------------------------------------------

def bisection_setup(seed, gamma_db=30.0, refs=None):
    """A channel draw, its leakages at the mslnr beams and the interference;
    with ``refs``, cb_refim's leakages truncated to that many references."""
    config = NetworkConfig(M=2, N=2, K=2, Nt=2, gamma_db=gamma_db)
    h = realize_network(config, seed)[1]
    beams = init_mslnr(h, config)
    mask = full_mask(config) if refs is None else reference_mask(h, config, refs)
    leakages = _all_leakages(h, _q_from_link(config, link_state(h, beams, config)), mask)
    return config, h, leakages, interference_all(h, beams, config)


def bisect(h, leakages, interf, config, mode):
    ev = DualEvaluator(h, leakages, config, mode)
    return ev, *lambda_bisection(ev, interf, config)


def test_bisection_returns_floor_when_beams_off():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2,
                           weights=np.zeros((1, 1, 1)))   # w = 0 kills the beam
    h = synthetic_channels(config, 14)
    leakages = np.zeros((1, 1, 1, 2, 2), dtype=complex)
    _, duals, betas = bisect(h, leakages, np.zeros((1, 1, 1)), config, "direct")
    assert duals[0] == config.lambda_min == 1e-10
    assert np.all(betas == 0.0)


def test_bisection_inactive_constraint_keeps_floor():
    # tiny channels: even at the dual floor the power fits the budget
    config = NetworkConfig(M=1, N=1, K=1, Nt=2, weights=np.ones((1, 1, 1)))
    h = np.full((1, 1, 1, 2), 1e-6, dtype=complex)
    leakages = np.zeros((1, 1, 1, 2, 2), dtype=complex)
    _, duals, betas = bisect(h, leakages, np.zeros((1, 1, 1)), config, "direct")
    assert duals[0] == config.lambda_min
    # power implied by the returned betas stays within budget
    gamma = gamma_direct(leakages[(0, 0, 0)], duals[0])
    v = betas[0, 0, 0] * (gamma @ h[0, 0, 0])
    assert np.linalg.norm(v) ** 2 <= config.Pmax


@pytest.mark.parametrize("mode", ["direct", "sherman_morrison"])
def test_bisection_against_dense_scan(mode):
    config, h, leakages, interf = bisection_setup(17)
    _, duals, _ = bisect(h, leakages, interf, config, mode)
    gamma_fn = gamma_direct if mode == "direct" else gamma_sherman_morrison
    for m in range(config.M):
        lam_star = duals[m]

        def power_at(lam):
            total = 0.0
            for k in range(config.K):
                for n in range(config.N):
                    gam = gamma_fn(leakages[(m, k, n)], lam)
                    hk = h[m, config.user_id(m, k), n]
                    b = beta(h, config, m, k, n, gam, interf[m, k, n])
                    total += b ** 2 * np.linalg.norm(gam @ hk) ** 2
            return total

        f_star = power_at(lam_star)
        assert f_star <= config.Pmax * (1.0 + 1e-12)
        assert (abs(f_star - config.Pmax) <= 1e-6 * config.Pmax
                or lam_star == config.lambda_min)

        lam_up = max(config.weights[m, k, n]
                     * np.linalg.norm(h[m, config.user_id(m, k), n]) ** 2
                     for k in range(config.K) for n in range(config.N)) / LN2
        grid = np.logspace(np.log10(config.lambda_min), np.log10(lam_up), 10_000)
        f_grid = np.array([power_at(l) for l in grid])
        # monotone non-increasing within tolerance
        assert np.all(np.diff(f_grid) <= 1e-9)
        # the dense scan brackets the bisection result
        feasible = grid[f_grid <= config.Pmax]
        assert feasible.size > 0
        assert lam_star <= feasible[0] * (1.0 + 1e-6)


def test_bisected_power_feasible_every_bs():
    for seed in (21, 22):
        config, h, leakages, interf = bisection_setup(seed)
        ev, duals, betas = bisect(h, leakages, interf, config, "direct")
        beams = update_beams(ev, duals, betas)
        assert np.all(bs_powers(beams) <= config.Pmax * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# update_beams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, gamma_fn, refs",
                         [("direct", gamma_direct, None),
                          ("sherman_morrison", gamma_sherman_morrison, None),
                          ("direct", gamma_direct, 1)],
                         ids=["direct-gamma_direct", "sherman_morrison-gamma_sherman_morrison",
                              "direct_truncated-gamma_direct"])
def test_gamma_h_matches_dense_forms(mode, gamma_fn, refs):
    """The evaluator's Gamma h equals the dense per-triple Gamma times h, on
    the full leakage and on cb_refim's leakage truncated to one reference."""
    config, h, leakages, _ = bisection_setup(26, refs=refs)
    config.assignment[1, 0, 1] = False     # a hole in BS 1's (n, k) order
    ev = DualEvaluator(h, leakages, config, mode)
    duals = np.array([0.05, 0.4])
    gh = ev.gamma_h(duals)
    for m, k, n in zip(*np.nonzero(config.assignment)):
        hk = h[m, config.user_id(m, k), n]
        want = gamma_fn(leakages[m, k, n], duals[m]) @ hk
        assert np.linalg.norm(gh[m, k, n] - want) <= 1e-10 * np.linalg.norm(want)


def test_dual_function_matches_dense_forms_on_a_mixed_evaluator():
    """u, ||Gamma h||^2, beta^2 and the per-BS power of one evaluator holding
    icbf's direct solve, cb_refim's direct solve on a leakage truncated to two
    references, and icbf_wi's sherman_morrison solve equal the dense per-triple
    forms, at the dual floor, a middle dual and the dual upper bound.

    Two references of three candidates keep the truncated leakage at full
    rank (Nt = 2). With fewer, L + x I at the dual floor has a condition
    number near 1e12, and any two exact inverses agree only to about eps
    times that (the conditioning bound of test_refim's recursion oracle)."""
    modes = ("direct", "direct", "sherman_morrison")
    setups = [bisection_setup(seed, refs=refs) for seed, refs in ((26, None), (27, 2), (28, None))]
    config = setups[0][0]
    config.assignment[1, 0, 1] = False     # a hole in BS 1's (n, k) order
    h = np.stack([s[1] for s in setups])
    leakages = np.stack([s[2] for s in setups])
    interf = np.stack([s[3] for s in setups])
    ev = DualEvaluator(h, leakages, config, list(modes))
    dense = {"direct": gamma_direct, "sherman_morrison": gamma_sherman_morrison}
    flat_interf = interf.swapaxes(-1, -2).reshape(ev.weights.shape)
    for lam in (np.full(ev.lam_up.shape, config.lambda_min),
                0.5 * (config.lambda_min + ev.lam_up), ev.lam_up):
        u, g2 = ev.u_g2(lam)
        b2, power = _betas_power(ev, lam, flat_interf)
        for b, mode in enumerate(modes):
            for m in range(config.M):
                row = b * config.M + m
                want_power = 0.0
                for k in range(config.K):
                    for n in range(config.N):
                        hk = h[b, m, config.user_id(m, k), n]
                        gh = dense[mode](leakages[b, m, k, n], lam[row]) @ hk
                        u_ref, g2_ref = np.vdot(hk, gh).real, np.linalg.norm(gh) ** 2
                        w = config.weights[m, k, n] * config.assignment[m, k, n]
                        b2_ref = max(w * u_ref - interf[b, m, k, n] - 1.0, 0.0) / u_ref ** 2
                        want_power += b2_ref * g2_ref
                        assert u[row, n, k] == pytest.approx(u_ref, rel=1e-10, abs=0.0)
                        assert g2[row, n, k] == pytest.approx(g2_ref, rel=1e-10, abs=0.0)
                        assert b2[row, n, k] == pytest.approx(b2_ref, rel=1e-10, abs=1e-300)
                assert power[row] == pytest.approx(want_power, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("rows", [1, 7, 60])
@pytest.mark.parametrize("nt", [2, 3, 4])
def test_pole_major_sums_equal_trailing_axis_sums_bit_for_bit(nt, rows):
    """The pole-major reductions of the eigendecomposed rows reproduce the
    trailing-axis sums over each triple's eigenvalues exactly."""
    rng = np.random.default_rng(100 * nt + rows)
    config = NetworkConfig(M=1, N=2, K=3, Nt=nt)
    shape = (rows, config.M, config.n_users, config.N, nt)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    leakages = np.array([random_psd(rng, nt, scale) for scale in
                         10.0 ** rng.uniform(-3, 3, rows * config.K * config.N)])
    leakages = leakages.reshape(rows, config.M, config.K, config.N, nt, nt)
    ev = DualEvaluator(h, leakages, config, "direct")
    lam = 10.0 ** rng.uniform(-10, 1, rows)
    u, g2 = ev.u_g2(lam)
    proj = np.abs(ev.coef) ** 2                           # (rows, N, K, Nt)
    d = ev.poles.T.reshape(proj.shape) + (lam * LN2)[:, None, None, None]
    assert np.array_equal(u, (proj / d).sum(-1))
    assert np.array_equal(g2, (proj / d ** 2).sum(-1))


def test_sherman_morrison_row_without_leakage():
    """With L = 0 (tr L = 0) the closed form gives u = H / x and
    ||Gamma h||^2 = H / x^2 > 0, down to the dual floor."""
    config = NetworkConfig(M=1, N=1, K=1, Nt=3, weights=np.ones((1, 1, 1)))
    h = synthetic_channels(config, 47)
    hh = np.linalg.norm(h) ** 2
    ev = DualEvaluator(h, np.zeros((1, 1, 1, 3, 3), dtype=complex), config,
                       "sherman_morrison")
    for lam in (config.lambda_min, 1e-3, 10.0):
        u, g2 = ev.u_g2(np.array([lam]))
        x = lam * LN2
        assert u[0, 0, 0] == pytest.approx(hh / x, rel=1e-14)
        assert g2[0, 0, 0] > 0.0
        assert g2[0, 0, 0] == pytest.approx(hh / x ** 2, rel=1e-14)


def test_dual_evaluator_rejects_unknown_mode():
    config, h, leakages, _ = bisection_setup(27)
    with pytest.raises(ConfigurationError, match="bogus"):
        DualEvaluator(h, leakages, config, "bogus")


def test_update_beams_recovers_matched_direction():
    config = NetworkConfig(M=1, N=1, K=1, Nt=3, weights=np.ones((1, 1, 1)))
    h = synthetic_channels(config, 23)
    leakages = np.zeros((1, 1, 1, 3, 3), dtype=complex)
    duals = np.array([0.5])
    hk = h[0, 0, 0]
    gamma = gamma_direct(leakages[(0, 0, 0)], duals[0])
    b = beta(h, config, 0, 0, 0, gamma, 0.0)
    ev = DualEvaluator(h, leakages, config, "direct")
    beams = update_beams(ev, duals, np.full((1, 1, 1), b))
    v = beams[0, 0, 0]
    assert abs(np.vdot(v, hk)) == pytest.approx(np.linalg.norm(v) * np.linalg.norm(hk))


def test_update_beams_zero_beta_switches_off():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2)
    h = synthetic_channels(config, 24)
    leakages = np.zeros((1, 1, 1, 2, 2), dtype=complex)
    ev = DualEvaluator(h, leakages, config, "direct")
    beams = update_beams(ev, np.array([1.0]), np.zeros((1, 1, 1)))
    assert np.all(beams == 0.0)


def test_update_beams_stationarity_for_given_state():
    """Fresh beams satisfy the stationarity equation under the leakage and
    interference they were computed from (exact-inverse mode)."""
    config, h, leakages, interf = bisection_setup(25)
    ev, duals, betas = bisect(h, leakages, interf, config, "direct")
    beams = update_beams(ev, duals, betas)
    for m in range(config.M):
        for k in range(config.K):
            for n in range(config.N):
                v = beams[m, k, n]
                if np.linalg.norm(v) == 0.0:
                    continue
                hk = h[m, config.user_id(m, k), n]
                t = leakages[m, k, n] + duals[m] * LN2 * np.eye(config.Nt)
                sig = abs(np.vdot(hk, v)) ** 2
                lhs = t @ v
                rhs = (config.weights[m, k, n] * hk * np.vdot(hk, v)
                       / (1.0 + sig + interf[m, k, n]))
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


# ---------------------------------------------------------------------------
# the double loop
# ---------------------------------------------------------------------------

def test_solve_single_link_waterfilling_limit():
    config = NetworkConfig(M=1, K=1, N=1, Nt=2, gamma_db=10.0,
                           weights=np.ones((1, 1, 1)))
    h = realize_network(config, 3)[1]
    hk = h[0, 0, 0]
    # deliberately misaligned full-power start so the solver's own fixed
    # point (not the initializer) is returned
    init = empty_beams(config)
    init[0, 0, 0] = np.sqrt(config.Pmax) * np.array([hk[1], hk[0]]) / np.linalg.norm(hk)
    beams, trace = solve(h, config, init, "icbf")
    inner_count = len([1 for (o, i) in trace.iteration_index if o == 0])
    assert inner_count <= 2
    assert trace.best_sum_rate == pytest.approx(
        np.log2(1.0 + config.Pmax * np.linalg.norm(hk) ** 2), rel=1e-6)
    assert bs_powers(beams)[0] == pytest.approx(config.Pmax, rel=1e-5)
    v = beams[0, 0, 0]
    assert abs(np.vdot(v, hk)) == pytest.approx(np.linalg.norm(v) * np.linalg.norm(hk))
    # converged single link satisfies the stationarity equation essentially exactly
    rep = kkt_report(h, beams, trace.duals, config)
    assert rep.max_stationarity_residual <= 1e-8


@pytest.mark.parametrize("algo", ["icbf", "icbf_wi", "cb_refim"])
def test_solve_improves_on_initializer_and_stays_feasible(algo):
    config = NetworkConfig()
    h = realize_network(config, 31)[1]
    init = init_mslnr(h, config)
    beams, trace = solve(h, config, init, algo, ref_count=1)
    assert trace.best_sum_rate >= trace.init_sum_rate
    assert trace.best_sum_rate == pytest.approx(
        weighted_sum_rate(h, beams, config), rel=1e-12)
    # power feasibility after every inner iteration, not just at exit
    for powers in trace.bs_power_trace:
        assert np.all(powers <= config.Pmax * (1.0 + 1e-9))
    assert len(trace.sum_rates) == len(trace.iteration_index)


def test_solve_outer_iterations_settle_quickly():
    config = NetworkConfig()
    h = realize_network(config, 32)[1]
    init = init_mslnr(h, config)
    _, trace = solve(h, config, init, "icbf")
    series = list(trace.outer_sum_rates)
    while len(series) < config.L_out_max:
        series.append(series[-1])
    assert abs(series[3] - series[2]) <= 0.01 * series[2]


def test_solve_rejects_infeasible_init():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2)
    h = synthetic_channels(config, 33)
    init = empty_beams(config)
    init[0, 0, 0] = [10.0 * np.sqrt(config.Pmax), 0.0]
    with pytest.raises(UsageError):
        solve(h, config, init, "icbf")


@pytest.mark.parametrize("algo", ["icbf", "icbf_wi"])
def test_beams_live_in_channel_span(algo):
    """Solutions are combinations of the BS's channels to the co-subchannel
    users, visible when the antenna count exceeds the user count."""
    config = NetworkConfig(M=2, K=1, N=1, Nt=4)
    h = realize_network(config, 34)[1]
    init = init_mslnr(h, config)
    beams, _ = solve(h, config, init, algo)
    for m in range(config.M):
        v = beams[m, 0, 0]
        if np.linalg.norm(v) == 0.0:
            continue
        basis = np.stack([h[m, g, 0] for g in range(config.n_users)]).T
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        residual = np.linalg.norm(basis @ coef - v)
        assert residual <= 1e-8 * np.linalg.norm(v)


def test_trace_serialization(tmp_path):
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = realize_network(config, 35)[1]
    _, trace = solve(h, config, init_cm(h, config), "icbf")
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "outer,inner,sum_rate,power_1,power_2"
    assert len(lines) == 1 + len(trace.sum_rates)


# ---------------------------------------------------------------------------
# KKT diagnostics
# ---------------------------------------------------------------------------

def test_complementary_slackness_at_dual_floor():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = realize_network(config, 36)[1]
    beams = init_cm(h, config) * 0.5   # slack power
    duals = np.full(config.M, config.lambda_min)
    rep = kkt_report(h, beams, duals, config)
    assert rep.max_complementary_slackness <= 1e-10 * config.Pmax


def test_gradient_matches_finite_differences_at_random_point():
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    h = realize_network(config, 37)[1]
    rng = np.random.default_rng(38)
    beams = random_beams(config, 39, scale=0.1)
    beams *= np.sqrt(config.Pmax / max(bs_powers(beams).max(), 1e-12)) * 0.7
    duals = rng.uniform(0.05, 1.0, size=config.M)
    g_an = lagrangian_gradient(h, beams, duals, config)
    g_fd = finite_difference_gradient(h, beams, duals, config, step=1e-5)
    rel = np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd)
    assert rel <= 1e-4


def test_gradient_zero_at_beam_off_point():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2, weights=np.zeros((1, 1, 1)))
    h = synthetic_channels(config, 40)
    grad = lagrangian_gradient(h, empty_beams(config), np.array([1.0]), config)
    assert np.allclose(grad, 0.0)


def test_lagrangian_value_decomposition():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = realize_network(config, 41)[1]
    beams = init_cm(h, config) * 0.8
    duals = np.array([0.3, 0.7])
    expected = (weighted_sum_rate(h, beams, config)
                + np.dot(duals, config.Pmax - bs_powers(beams)))
    assert lagrangian_value(h, beams, duals, config) == pytest.approx(expected)


def test_stationarity_residual_skips_off_beams():
    config = NetworkConfig(M=1, N=1, K=2, Nt=2)
    h = synthetic_channels(config, 42)
    beams = empty_beams(config)
    beams[0, 0, 0] = [0.4, 0.1]
    res = stationarity_residuals(h, beams, np.array([0.2]), config)
    assert res[0, 1, 0] == 0.0
    assert res[0, 0, 0] > 0.0


def test_stationarity_residual_matches_scalar_oracle():
    """The array form agrees with the per-triple equation built from the
    scalar leakage and interference oracles, with inactive and off beams."""
    config = NetworkConfig(M=2, N=2, K=2, Nt=3)
    config.assignment[1, 0, 1] = False
    h = synthetic_channels(config, 43)
    beams = random_beams(config, 44)
    beams[0, 1, 0] = 0.0
    duals = np.array([0.3, 0.05])
    res = stationarity_residuals(h, beams, duals, config)
    for m in range(config.M):
        for k in range(config.K):
            for n in range(config.N):
                v = beams[m, k, n]
                if not config.assignment[m, k, n] or not v.any():
                    assert res[m, k, n] == 0.0
                    continue
                hk = h[m, config.user_id(m, k), n]
                t = (reference.leakage_scalar(h, beams, config, m, k, n)
                     + duals[m] * LN2 * np.eye(config.Nt))
                i = reference.interference_scalar(h, beams, config, m, k, n)
                rhs = (config.weights[m, k, n] * hk * np.vdot(hk, v)
                       / (1.0 + abs(np.vdot(hk, v)) ** 2 + i))
                want = np.linalg.norm(t @ v - rhs) / np.linalg.norm(v)
                assert res[m, k, n] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# configuration edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["icbf", "icbf_wi", "cb_refim"])
def test_solve_with_partial_assignment(algo):
    """Inactive (user, subchannel) pairs stay silent through the whole loop."""
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    config.assignment[0, 1, 0] = False
    config.assignment[1, 0, 1] = False
    h = realize_network(config, 44)[1]
    init = init_mslnr(h, config)
    assert np.all(init[0, 1, 0] == 0.0)
    beams, trace = solve(h, config, init, algo, ref_count=1)
    assert np.all(beams[0, 1, 0] == 0.0)
    assert np.all(beams[1, 0, 1] == 0.0)
    assert trace.best_sum_rate >= trace.init_sum_rate
    assert np.all(bs_powers(beams) <= config.Pmax * (1.0 + 1e-9))


@pytest.mark.parametrize("algo", ["icbf", "icbf_wi", "cb_refim"])
def test_solve_single_antenna_taxation_path(algo):
    """Scalar channels drive the 1/(lambda*ln2 + L) taxation form end to end."""
    config = NetworkConfig(M=2, N=2, K=1, Nt=1)
    h = realize_network(config, 45)[1]
    init = init_cm(h, config)
    beams, trace = solve(h, config, init, algo, ref_count=1)
    assert trace.best_sum_rate >= trace.init_sum_rate
    assert np.all(bs_powers(beams) <= config.Pmax * (1.0 + 1e-9))
    res = stationarity_residuals(h, beams, trace.duals, config)
    assert np.all(np.isfinite(res))


def test_dual_evaluator_stable_at_floor_with_aligned_rank_one_leakage():
    """At the dual floor, rank-one leakage aligned with the channel makes the
    inverse-free power expression cancel almost completely; the evaluator must
    still agree (in sign and value) with the literal Gamma-based computation."""
    rng = np.random.default_rng(46)
    config = NetworkConfig(M=1, N=1, K=1, Nt=3, weights=np.ones((1, 1, 1)))
    for _ in range(25):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # leakage parallel to the channel, plus a small misaligned part
        mix = rng.uniform(0.0, 0.2)
        other = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mat = (rng.uniform(0.5, 2.0) * np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
               + mix * np.outer(other, other.conj()) / np.linalg.norm(other) ** 2)
        ev = DualEvaluator(h.reshape(1, 1, 1, 3), mat[None, None, None], config,
                           "sherman_morrison")
        for lam in (1e-10, 1e-6, 1e-2):
            u, g2 = ev.u_g2(np.array([lam]))
            gam = gamma_sherman_morrison(mat, lam)
            u_ref = np.vdot(h, gam @ h).real
            g2_ref = np.linalg.norm(gam @ h) ** 2
            assert g2[0, 0] > 0
            assert u[0, 0] == pytest.approx(u_ref, rel=1e-4)
            assert g2[0, 0] == pytest.approx(g2_ref, rel=1e-4)
