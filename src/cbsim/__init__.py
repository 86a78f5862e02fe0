"""Coordinated multicell downlink beamforming simulator.

Weighted sum-rate maximization across a small cluster of multi-antenna base
stations sharing OFDMA subchannels, solved by KKT fixed-point iteration
(ICBF), its inverse-free variant (ICBF-WI) and the reference-user
approximation (CB-REFIM), with channel modeling and a Monte-Carlo experiment
harness.
"""
from .config import NetworkConfig, parse_config_file
from .errors import (BracketError, CbsimError, ConfigurationError,
                     DegenerateChannelError, InvalidStateError, UsageError)
from .experiments import ExperimentSpec, run_experiment
from .initializers import init_cm, init_mslnr, init_zf, make_initial_beams
from .metrics import (RateReport, bs_powers, power_feasible, rate_report,
                      weighted_sum_rate)
from .network import (ChannelState, Topology, build_topology, compute_noise,
                      draw_channels, normalize_channels, realize_network)
from .refim import feedback_bits, invert_rank_r, reference_map
from .solver import (DualEvaluator, KKTReport, SolverTrace, beta, gamma_direct,
                     gamma_sherman_morrison, kkt_report, lambda_bisection, solve,
                     solve_batch, update_beams)

__all__ = [
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
]

__version__ = "0.1.0"
