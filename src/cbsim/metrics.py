"""Link state, SINR, rates and per-BS power for a channel/beam pair.

Channels are noise-normalized upstream, so every denominator here uses a
noise floor of exactly 1. Rates are base-2 (bits per channel use) throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .errors import UsageError

#: Relative slack applied to the per-BS power budget when checking feasibility.
POWER_FEASIBILITY_RTOL = 1e-9


def check_active(config: NetworkConfig, m: int, k: int, n: int) -> None:
    if not config.is_active(m, k, n):
        raise UsageError(f"triple (m={m}, k={k}, n={n}) is not active")


def link_state(h: np.ndarray, beams: np.ndarray,
               config: NetworkConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes, total received power and signal power of every link.

    amps[j, u, g, n] = h_{j,g}(n)^H v_{j,u}(n), shape (M, K, MK, N);
    total[g, n] is the power user g receives from every active beam on n and
    signal[g, n] the part of it from the user's own beam, both (MK, N).
    Inactive beams contribute exact zeros. Channels and beams may carry
    leading batch axes that broadcast together (one stack of draws against
    several beam sets for it), which every output then leads with.
    """
    amps = np.einsum("...jgna,...juna->...jugn", h.conj(), beams)
    p = np.abs(amps) ** 2
    total = np.einsum("...jugn,jun->...gn", p, config.assignment.astype(float))
    gids = np.arange(config.n_users)
    signal = p[..., gids // config.K, gids % config.K, gids, :]
    return amps, total, signal


def sinr_of_link(config: NetworkConfig, link: tuple) -> np.ndarray:
    """SINR per active triple from a :func:`link_state`, shape (..., M, K, N);
    zeros where inactive."""
    _, total, sig = link
    shape = total.shape[:-2] + (config.M, config.K, config.N)
    return np.where(config.assignment,
                    sig.reshape(shape) / (1.0 + (total - sig).reshape(shape)), 0.0)


def sum_rate_of_link(config: NetworkConfig, link: tuple) -> float | np.ndarray:
    """Weighted sum-rate from a :func:`link_state`: a float, or one per
    solve of a batched link state."""
    rates = np.log2(1.0 + sinr_of_link(config, link))
    terms = config.weights * rates * config.assignment
    wsr = np.sum(terms.reshape(terms.shape[:-3] + (-1,)), axis=-1)
    return float(wsr) if wsr.ndim == 0 else wsr


def weighted_sum_rate(h: np.ndarray, beams: np.ndarray,
                      config: NetworkConfig) -> float:
    """sum over active (m, k, n) of w_k(n) * log2(1 + SINR_{m,k}(n))."""
    return sum_rate_of_link(config, link_state(h, beams, config))


def bs_powers(beams: np.ndarray) -> np.ndarray:
    """Transmit power of every BS, shape (..., M) for beams (..., M, K, N, Nt)."""
    return np.sum(np.abs(beams) ** 2, axis=(-3, -2, -1))


def power_feasible(beams: np.ndarray, config: NetworkConfig) -> bool:
    return bool(np.all(bs_powers(beams) <= config.Pmax * (1.0 + POWER_FEASIBILITY_RTOL)))


@dataclass
class RateReport:
    """Per-triple SINRs/rates plus the aggregates the experiments record."""
    sinr: np.ndarray          # (M, K, N)
    rate: np.ndarray          # (M, K, N), log2(1 + SINR)
    weighted_sum_rate: float
    user_rates: np.ndarray    # (M, K), total rate per user across subchannels
    powers: np.ndarray        # (M,)


def rate_report(h: np.ndarray, beams: np.ndarray,
                config: NetworkConfig) -> RateReport:
    s = sinr_of_link(config, link_state(h, beams, config))
    r = np.log2(1.0 + s)
    wsr = float(np.sum(config.weights * r * config.assignment))
    user_rates = np.sum(r * config.assignment, axis=2)
    return RateReport(sinr=s, rate=r, weighted_sum_rate=wsr,
                      user_rates=user_rates, powers=bs_powers(beams))
