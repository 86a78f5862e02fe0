"""The package's public names."""
import cbsim

PUBLIC_NAMES = {
    "NetworkConfig", "parse_config_file",
    "CbsimError", "ConfigurationError", "UsageError", "DegenerateChannelError",
    "InvalidStateError", "BracketError",
    "ExperimentSpec", "run_experiment",
    "init_cm", "init_zf", "init_mslnr", "make_initial_beams",
    "RateReport", "weighted_sum_rate", "bs_powers", "power_feasible", "rate_report",
    "Topology", "ChannelState", "build_topology", "draw_channels",
    "compute_noise", "normalize_channels", "realize_network",
    "reference_map", "invert_rank_r", "feedback_bits",
    "DualEvaluator", "SolverTrace", "KKTReport", "gamma_direct",
    "gamma_sherman_morrison", "beta", "lambda_bisection",
    "update_beams", "solve", "solve_batch", "kkt_report",
}


def test_public_names_are_pinned_and_resolve():
    assert len(cbsim.__all__) == len(PUBLIC_NAMES) == 40
    assert set(cbsim.__all__) == PUBLIC_NAMES
    for name in cbsim.__all__:
        assert getattr(cbsim, name) is not None
