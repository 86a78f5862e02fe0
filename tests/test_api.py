"""The package's public names, and the README's library examples."""
import re
from pathlib import Path

import cbsim

PUBLIC_NAMES = {
    "NetworkConfig", "parse_config_file",
    "CbsimError", "ConfigurationError", "UsageError", "DegenerateChannelError",
    "InvalidStateError", "BracketError",
    "ExperimentSpec", "run_experiment",
    "init_cm", "init_zf", "init_mslnr", "make_initial_beams",
    "RateReport", "weighted_sum_rate", "bs_powers", "power_feasible", "rate_report",
    "Topology", "build_topology", "draw_channels",
    "compute_noise", "normalize_channels", "realize_network",
    "reference_mask", "invert_rank_r", "feedback_bits",
    "DualEvaluator", "SolverTrace", "BatchTrace", "KKTReport", "gamma_direct",
    "gamma_sherman_morrison", "beta", "lambda_bisection",
    "update_beams", "solve", "solve_batch", "kkt_report",
}


def test_public_names_are_pinned_and_resolve():
    assert len(cbsim.__all__) == len(PUBLIC_NAMES) == 40
    assert set(cbsim.__all__) == PUBLIC_NAMES
    for name in cbsim.__all__:
        assert getattr(cbsim, name) is not None


def test_readme_library_snippets_run(capsys):
    """The README's two fenced python snippets run in order in one namespace,
    the second on the first one's config: one solve, then two batches of 8."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippets = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(snippets) == 2
    namespace = {}
    for code in snippets:
        exec(compile(code, "README.md", "exec"), namespace)
    wsr, reason = capsys.readouterr().out.split()
    assert float(wsr) > 0.0 and reason in ("outer_tol", "outer_cap")
    config, beams, record = namespace["config"], namespace["beams"], namespace["record"]
    assert beams.shape == (8, config.M, config.K, config.N, config.Nt)
    assert record.algo.tolist() == ["icbf", "icbf_wi", "cb_refim", "icbf"] * 2
