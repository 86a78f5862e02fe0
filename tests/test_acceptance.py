"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Desk scale throughout: M = N = K = Nt = 3, 100 trials, fixed master seed.
The Monte-Carlo fixture below is shared by the statistical criteria, and a
second fixture runs the WMMSE oracle of reference.py on the same trials for
criteria 5 and 10; the numerical criteria run standalone. Each test prints

    ACCEPTANCE <n> (<short name>): PASS|FAIL -- detail

before asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as
a checklist.
"""
import numpy as np
import pytest

import reference
from cbsim.config import NetworkConfig
from cbsim.initializers import init_mslnr, make_initial_beams
from cbsim.metrics import link_state, rate_report
from cbsim.network import apply_noise, build_topology, draw_channels, realize_network
from cbsim import refim
from cbsim.experiments import ExperimentSpec, feedback_table, trial_seeds
from cbsim.solver import (_all_leakages, _q_from_link, beta, full_mask, gamma_direct,
                          gamma_sherman_morrison, interference_all, kkt_report,
                          solve, solve_batch, stationarity_residuals)

TRIALS = 100
MASTER_SEED = 2024
GAMMAS = (10.0, 30.0, 50.0)
SOLVER_ALGOS = ("icbf", "icbf_wi", "cb_refim")
BASELINES = ("cm", "zf", "mslnr")
WMMSE_ITERS = 400
OFF_RATE = 1e-9      # a user whose summed rate is below this is switched off


def _check(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def suite():
    """100-trial desk-scale Monte-Carlo shared by criteria 3, 4, 5, 6, 9, 10."""
    config0 = NetworkConfig()
    full_refs = config0.M * config0.K - 1
    acc = {
        "wsr": {},           # (algo, gamma) -> list of weighted sum-rates
        "outer": {},         # (algo, gamma) -> list of per-outer sum-rate series
        "user_rates": {},    # (algo, gamma) -> list of per-user rate arrays
        "channels": {},      # gamma -> list of normalized channel arrays
        "init": {},          # gamma -> list of mslnr starting beams
        "max_power": 0.0,
    }

    def record(algo, gamma, rep, series):
        acc["wsr"].setdefault((algo, gamma), []).append(rep.weighted_sum_rate)
        if series is not None:
            acc["outer"].setdefault((algo, gamma), []).append(series)
        acc["user_rates"].setdefault((algo, gamma), []).append(rep.user_rates.ravel())
        acc["max_power"] = max(acc["max_power"], float(rep.powers.max()))

    for t in range(TRIALS):
        s_topo, s_chan = trial_seeds(MASTER_SEED, t)
        topology = build_topology(config0, s_topo)
        raw, shadow = draw_channels(topology, config0, s_chan)
        for gamma in GAMMAS:
            cfg = config0.with_gamma_db(gamma)
            h = apply_noise(topology, cfg, raw, shadow)
            init = init_mslnr(h, cfg)
            acc["channels"].setdefault(gamma, []).append(h)
            acc["init"].setdefault(gamma, []).append(init)
            for base in BASELINES:
                beams = init if base == "mslnr" else make_initial_beams(base, h, cfg)
                record(base, gamma, rate_report(h, beams, cfg), None)

    # one batched solve per (algorithm, gamma) over all trials
    runs = [(algo, gamma, algo, 1) for gamma in GAMMAS for algo in SOLVER_ALGOS]
    runs.append(("cb_refim_full", 30.0, "cb_refim", full_refs))
    for name, gamma, algo, refs in runs:
        cfg = config0.with_gamma_db(gamma)
        inits = np.stack(acc["init"][gamma])
        h = np.stack(acc["channels"][gamma])
        beams, batch = solve_batch(h, cfg, inits, algo, refs)
        for one, best, series in zip(h, beams, batch.outer_sum_rates):
            record(name, gamma, rate_report(one, best, cfg), series)
    return acc


@pytest.fixture(scope="module")
def oracle(suite):
    """WMMSE (tests/reference.py) from the suite's own mslnr beams, per SNR.

    Holds per-trial weighted sum-rates and per-user rates of shape
    (TRIALS, M*K), for criteria 5 and 10. All SNRs run as one batch.
    """
    config = NetworkConfig()
    h = np.concatenate([suite["channels"][gamma] for gamma in GAMMAS])
    start = np.concatenate([suite["init"][gamma] for gamma in GAMMAS])
    beams, wsr = reference.wmmse(h, start, config.weights * config.assignment,
                                 config.Pmax, WMMSE_ITERS)
    wsr = wsr[:, -1].reshape(len(GAMMAS), TRIALS)
    user_rates = reference.link_rates(h, beams).sum(axis=3).reshape(
        len(GAMMAS), TRIALS, -1)
    return {gamma: {"wsr": wsr[i], "user_rates": user_rates[i]}
            for i, gamma in enumerate(GAMMAS)}


def mean_wsr(suite, algo, gamma):
    return float(np.mean(suite["wsr"][(algo, gamma)]))


def test_criterion_1_rank_one_downdate_exactness():
    """Closed-form rank-one inverse vs dense PD solve over 1e3 random draws,
    dual values spanning [1e-10, 10]."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        nt = int(rng.integers(1, 5))
        h = (rng.standard_normal(nt) + 1j * rng.standard_normal(nt)) / np.sqrt(2)
        q = rng.uniform(0.01, 5.0)
        lam = rng.uniform(1e-10, 10.0)
        mat = q * np.outer(h, h.conj())
        gd = gamma_direct(mat, lam)
        gs = gamma_sherman_morrison(mat, lam)
        worst = max(worst, np.linalg.norm(gs - gd) / np.linalg.norm(gd))
    _check(1, "rank-one inverse exactness", worst <= 1e-10,
           f"worst relative deviation {worst:.3e} (tolerance 1e-10)")


def test_criterion_2_kkt_stationarity_and_gradient():
    """Stationarity residual at convergence, improvement over the starting
    point, and analytic-vs-finite-difference Lagrangian gradients."""
    config = NetworkConfig(L_in_max=200, L_out_max=100,
                           inner_tol=1e-10, outer_tol=1e-9)
    h = realize_network(config, 7)[1]
    init = init_mslnr(h, config)
    beams, trace = solve(h, config, init, "icbf")
    rep = kkt_report(h, beams, trace.duals, config)
    res_init = float(np.max(stationarity_residuals(h, init, trace.duals, config)))

    grad_ok, grad_worst = True, 0.0
    rng = np.random.default_rng(202)
    for point_seed in (301, 302, 303):
        rnd = np.random.default_rng(point_seed)
        shape = (config.M, config.K, config.N, config.Nt)
        cand = rnd.standard_normal(shape) + 1j * rnd.standard_normal(shape)
        from cbsim.metrics import bs_powers
        cand *= np.sqrt(0.8 * config.Pmax / bs_powers(cand).max())
        duals = rng.uniform(0.05, 1.0, size=config.M)
        point_rep = kkt_report(h, cand, duals, config)
        grad_worst = max(grad_worst, point_rep.grad_rel_gap)
        grad_ok &= point_rep.grad_rel_gap <= 1e-4

    ok = (rep.max_stationarity_residual <= 1e-3
          and rep.max_stationarity_residual * 10.0 <= res_init
          and rep.grad_rel_gap <= 1e-4
          and grad_ok)
    _check(2, "KKT stationarity + gradient",
           ok,
           f"residual {rep.max_stationarity_residual:.3e} (tol 1e-3), "
           f"initializer residual {res_init:.3e} "
           f"(ratio {res_init / rep.max_stationarity_residual:.0f}x, need >=10x), "
           f"worst FD gradient gap {max(grad_worst, rep.grad_rel_gap):.3e} (tol 1e-4)")


def test_criterion_3_convergence_in_few_outer_iterations(suite):
    """Mean sum-rate change between outer iterations 3 and 4 at or below 1%."""
    details, ok = [], True
    for algo in SOLVER_ALGOS:
        for gamma in GAMMAS:
            curve = np.mean(np.array(suite["outer"][(algo, gamma)]), axis=0)
            change = abs(curve[3] - curve[2]) / curve[2]
            ok &= change <= 0.01
            details.append(f"{algo}@{gamma:.0f}dB {100 * change:.3f}%")
    _check(3, "outer-loop convergence", ok, "; ".join(details))


def test_criterion_4_algorithm_ordering_at_30db(suite):
    """icbf >= icbf_wi >= cb_refim >= best initializer, 1% statistical slack."""
    v = {a: mean_wsr(suite, a, 30.0)
         for a in SOLVER_ALGOS + BASELINES}
    best_base = max(v["cm"], v["zf"], v["mslnr"])
    ok = (v["icbf"] >= 0.99 * v["icbf_wi"]
          and v["icbf_wi"] >= 0.99 * v["cb_refim"]
          and v["cb_refim"] >= 0.99 * best_base)
    _check(4, "algorithm ordering @30dB", ok,
           " >= ".join(f"{a}:{v[a]:.4f}" for a in SOLVER_ALGOS)
           + f" >= best-init:{best_base:.4f}")


def test_criterion_5_gain_over_mslnr(suite, oracle):
    """Mean-sum-rate gains of icbf and cb_refim over the max-SLNR baseline
    within +-15 percentage points of the gain that the independent WMMSE
    oracle reaches from the same mslnr beams on the same trials.

    The literature figures 42/31/24 (icbf) and 41/28/16 (cb_refim) at
    10/30/50 dB are printed for reference only. PAPER.md does not record the
    SNR convention behind them, and in this model (gamma = Pmax / sigma^2,
    unit path gain at 200 m) most links sit below 0 dB SNR at 10 dB, where
    the optimum's gain over mslnr is near 96%.
    """
    reported = {"icbf": (42.0, 31.0, 24.0), "cb_refim": (41.0, 28.0, 16.0)}
    ok, details = True, []
    for i, gamma in enumerate(GAMMAS):
        base = mean_wsr(suite, "mslnr", gamma)
        target = 100.0 * (float(np.mean(oracle[gamma]["wsr"])) / base - 1.0)
        ratio = np.asarray(suite["wsr"][("icbf", gamma)]) / oracle[gamma]["wsr"]
        details.append(f"WMMSE@{gamma:.0f}dB {target:.1f}% (icbf/WMMSE per trial "
                       f"{ratio.min():.3f}..{ratio.max():.3f})")
        for algo, figures in reported.items():
            gain = 100.0 * (mean_wsr(suite, algo, gamma) / base - 1.0)
            inside = target - 15.0 <= gain <= target + 15.0
            ok &= inside
            details.append(f"{algo}@{gamma:.0f}dB {gain:.1f}% (target {target:.1f}+-15"
                           f"{'' if inside else ', OUT'}; reported {figures[i]})")
    _check(5, "gain over max-SLNR baseline", ok, "; ".join(details))


def test_criterion_6_reference_count_sweep(suite):
    """One reference retains >=88% of the full-leakage mean sum-rate, and the
    all-candidates leakage matrix equals the full one exactly."""
    ratio = mean_wsr(suite, "cb_refim", 30.0) / mean_wsr(suite, "cb_refim_full", 30.0)

    config = NetworkConfig()
    h = realize_network(config, 17)[1]
    beams, _ = solve(h, config, init_mslnr(h, config), "icbf_wi")
    q = _q_from_link(config, link_state(h, beams, config))
    all_candidates = refim.reference_mask(h, config, config.M * config.K - 1)
    truncated = _all_leakages(h, q, all_candidates)
    full = _all_leakages(h, q, full_mask(config))
    scale = np.maximum(np.linalg.norm(full, axis=(-2, -1)), 1e-300)
    worst = float(np.max(np.linalg.norm(truncated - full, axis=(-2, -1)) / scale))
    ok = ratio >= 0.88 and worst <= 1e-10
    _check(6, "reference-count sweep", ok,
           f"R=1 / R=MK-1 mean ratio {ratio:.4f} (need >=0.88); "
           f"all-candidates vs full leakage deviation {worst:.2e} (tol 1e-10)")


def test_criterion_7_feedback_accounting(monkeypatch):
    """Bit counts: exact hand equality for the 3x3x3 case and the
    reference-variant / full-exchange ratio inside [0.60, 0.85] per (K, Nt).

    Under the documented rules (own-cell candidates allowed, intra-cell
    references free, references deduplicated) the ratio is
    2Nt/(2Nt+3) + 3R/((2Nt+3)(M-1)K), with R the distinct out-of-cell
    references per (BS, subchannel). Each out-of-band config prints that
    floor and R, counted here from the victim masks feedback_table uses.
    """
    config = NetworkConfig()
    icbf_bits = refim.feedback_bits(config, "icbf", qbits=8)
    hand_icbf = 3 * 3 * (6 * (2 * 3 + 3)) * 8          # 3888
    cb_bits = refim.feedback_bits(config, "cb_refim", np.full((3, 3), 3), qbits=8)
    hand_cb = 3 * 3 * (6 * 2 * 3 + 3 * 3) * 8          # 3240
    exact = (icbf_bits == hand_icbf) and (cb_bits == hand_cb)

    out_of_cell = {}                                   # (K, Nt) -> counts
    select = refim.reference_mask
    spec = ExperimentSpec(kind="feedback", trials=30, seed=MASTER_SEED,
                          k_list=tuple(range(2, 11)), nt_list=(2, 3, 4))

    def counting_reference_mask(h, cfg, counts):
        masks = select(h, cfg, counts)
        for mask in masks.reshape((-1,) + masks.shape[-4:]):   # per draw
            for m in range(cfg.M):
                for n in range(cfg.N):
                    refs = {g for k in range(cfg.K) for g in np.flatnonzero(mask[m, k, n])
                            if g // cfg.K != m}
                    out_of_cell.setdefault((cfg.K, cfg.Nt), []).append(len(refs))
        return masks

    monkeypatch.setattr(refim, "reference_mask", counting_reference_mask)
    rows = feedback_table(config, spec)
    out_of_band = [(r["K"], r["Nt"], r["cb_refim_bits"] / r["icbf_bits"])
                   for r in rows
                   if not 0.60 <= r["cb_refim_bits"] / r["icbf_bits"] <= 0.85]
    ratios = [r["cb_refim_bits"] / r["icbf_bits"] for r in rows]

    def explain(k, nt, r):
        counts = out_of_cell.get((k, nt))
        refs = f"{np.mean(counts):.2f}" if counts else "n/a"
        return (f"K={k},Nt={nt}:{r:.3f} (2Nt/(2Nt+3)={2 * nt / (2 * nt + 3):.3f}, "
                f"mean out-of-cell refs {refs})")

    ok = exact and not out_of_band
    _check(7, "feedback accounting", ok,
           f"hand equality {'ok' if exact else 'BROKEN'}; "
           f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}] over 27 configs; "
           f"outside [0.60, 0.85]: "
           + (", ".join(explain(k, nt, r) for k, nt, r in out_of_band)
              if out_of_band else "none"))


def test_criterion_8_brute_force_optimality():
    """icbf reaches at least 98% of a dense direction/power grid search on
    two-cell single-user instances, 20 seeds, >=1e6 grid points."""
    worst, details = 2.0, []
    for seed in range(20):
        config = NetworkConfig(M=2, K=1, N=1, Nt=2)
        h = realize_network(config, seed)[1]
        hmat = [[h[m, u, 0] for u in range(2)] for m in range(2)]
        best, n_points = reference.grid_search_two_cell(
            hmat, config.Pmax, float(config.weights[0, 0, 0]))
        assert n_points >= 1_000_000
        _, trace = solve(h, config, init_mslnr(h, config), "icbf")
        worst = min(worst, trace.best_sum_rate / best)
    _check(8, "brute-force optimality", worst >= 0.98,
           f"worst icbf/grid ratio {worst:.4f} over 20 seeds (need >=0.98)")


def test_criterion_9_power_feasibility_and_dual_monotonicity(suite):
    """Per-BS power within budget on every trial; per-BS transmit power is a
    non-increasing function of the dual variable."""
    max_power = suite["max_power"]
    budget_ok = max_power <= NetworkConfig().Pmax * (1.0 + 1e-9)

    worst_increase = -np.inf
    for seed in (51, 52, 53):
        config = NetworkConfig(M=2, N=2, K=2, Nt=2)
        h = realize_network(config, seed)[1]
        rng = np.random.default_rng(seed)
        shape = (config.M, config.K, config.N, config.Nt)
        beams = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        from cbsim.metrics import bs_powers
        beams *= np.sqrt(config.Pmax / bs_powers(beams).max())
        interf = interference_all(h, beams, config)
        q = _q_from_link(config, link_state(h, beams, config))
        leak = _all_leakages(h, q, full_mask(config))
        for mode, gamma_fn in (("direct", gamma_direct),
                               ("sherman_morrison", gamma_sherman_morrison)):
            m = 0
            lams = np.logspace(-8, 2, 400)
            f_vals = []
            for lam in lams:
                total = 0.0
                for k in range(2):
                    for n in range(2):
                        g = gamma_fn(leak[(m, k, n)], lam)
                        hk = h[m, config.user_id(m, k), n]
                        b = beta(h, config, m, k, n, g, interf[m, k, n])
                        total += b ** 2 * np.linalg.norm(g @ hk) ** 2
                f_vals.append(total)
            worst_increase = max(worst_increase, float(np.max(np.diff(f_vals))))
    mono_ok = worst_increase <= 1e-9
    _check(9, "power feasibility + dual monotonicity", budget_ok and mono_ok,
           f"max per-BS power {max_power:.12f} (budget 1 + 1e-9); "
           f"largest f(lambda) increase {worst_increase:.2e} (tol 1e-9)")


def test_criterion_10_edge_user_improvement(suite, oracle):
    """10th-percentile per-user rate of cb_refim at least 1.3x that of the
    channel-matched baseline at 30 dB.

    The detail line also prints what WMMSE reaches from the same start: the
    equal-weight sum-rate optimum switches users fully off, which puts the
    10th percentile at 0 for any solver that finds it.
    """
    cb = np.concatenate(suite["user_rates"][("cb_refim", 30.0)])
    cm = np.concatenate(suite["user_rates"][("cm", 30.0)])
    wm = oracle[30.0]["user_rates"].ravel()
    p_cb = float(np.percentile(cb, 10))
    p_cm = float(np.percentile(cm, 10))
    off_fraction = float(np.mean(cb < OFF_RATE))
    ok = p_cb >= 1.30 * p_cm
    _check(10, "edge-user improvement", ok,
           f"10th percentile cb_refim {p_cb:.4f} vs cm {p_cm:.4f} (need >=1.3x); "
           f"cb_refim switches {100 * off_fraction:.1f}% of users fully off; "
           f"WMMSE switches {100 * float(np.mean(wm < OFF_RATE)):.1f}% off, "
           f"10th percentile {float(np.percentile(wm, 10)):.4f}")


def test_criterion_11_single_antenna_specialization():
    """With one transmit antenna the reference rule reduces to picking the
    strongest candidate channel gain (1e3 random instances)."""
    config = NetworkConfig(M=3, N=1, K=2, Nt=1)
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(1000):
        h = rng.standard_normal((3, 6, 1, 1)) + 1j * rng.standard_normal((3, 6, 1, 1))
        m = int(rng.integers(0, 3))
        k = int(rng.integers(0, 2))
        ranks = refim.reference_map(h, config)[m, k, 0]
        refs = [divmod(int(g), config.K) for g in np.argsort(ranks, kind="stable")[:1]]
        candidates = [(j, u) for j in range(3) for u in range(2) if (j, u) != (m, k)]
        gains = [abs(h[m, 2 * j + u, 0, 0]) ** 2 for (j, u) in candidates]
        if refs != [candidates[int(np.argmax(gains))]]:
            mismatches += 1
    _check(11, "single-antenna specialization", mismatches == 0,
           f"{mismatches} mismatches out of 1000 instances")
