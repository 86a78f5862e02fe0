"""Baseline beamformers: channel-matched, per-cell zero-forcing, max-SLNR.

All three split the power budget evenly across the N*K beams of a BS, so the
per-BS power constraint holds with equality under the default full
assignment. Each takes the noise-normalized channels h (..., M, MK, N, Nt),
with any leading batch axes (a stack of channel draws), and returns beams
(..., M, K, N, Nt), every draw's bit for bit what it is alone; a degenerate
channel is reported by draw, cell and user.
"""
from __future__ import annotations

import numpy as np

from . import solver
from .config import NetworkConfig
from .errors import ConfigurationError, DegenerateChannelError
from .network import own_links


def _beam_scale(config: NetworkConfig) -> float:
    return np.sqrt(config.Pmax / (config.N * config.K))


def _first_user(where: np.ndarray) -> str:
    """The "(cell, user)" of the first set entry of an (..., M, K, N) array,
    taken in (draw, cell, subchannel, user) order; on a stack of channel draws
    followed by "of draw d"."""
    *draw, m, _, k = np.argwhere(where.swapaxes(-1, -2))[0].tolist()
    return f"({m}, {k})" + (f" of draw {', '.join(map(str, draw))}" if draw else "")


def init_cm(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Channel-matched (maximum ratio transmission) beams.

    v_{m,k}(n) = sqrt(Pmax / (N K)) * h_{m,k}(n) / ||h_{m,k}(n)||
    """
    own = own_links(h, config)                                         # (..., M, K, N, Nt)
    norms = np.linalg.norm(own, axis=-1)
    zero = np.any(norms == 0.0, axis=-1, keepdims=True)               # per user, any subchannel
    if zero.any():
        raise DegenerateChannelError(f"zero channel for user {_first_user(zero)}")
    beams = _beam_scale(config) * own / norms[..., None]
    return beams * config.assignment[..., None]


def check_zf(config: NetworkConfig) -> None:
    """Raise ConfigurationError naming the first cell and subchannel with more
    active users than antennas: zero-forcing cannot null them all."""
    active = config.assignment                                         # (M, K, N)
    crowded = np.argwhere(active.sum(axis=1) > config.Nt)
    if crowded.size:
        m, n = crowded[0]
        raise ConfigurationError(
            f"zero-forcing needs Nt >= active users per cell; cell {m} subchannel {n} "
            f"has {active[m, :, n].sum()} > Nt={config.Nt}")


def init_zf(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Per-cell zero-forcing beams.

    Each beam is the channel projected onto the orthogonal complement of the
    other active same-cell channels on the subchannel, then renormalized:

        v = sqrt(Pmax / (N K)) * P_perp h / ||P_perp h||

    Requires Nt >= (active users per cell per subchannel); nulling the K-1
    same-cell channels needs that many spare dimensions. Each user's
    projection comes from the pseudo-inverse of the matrix of its cell's other
    active channels, so dependent co-users never reach a singular solve: a
    channel within 1e-14 (relative) of their span is reported as degenerate.
    """
    check_zf(config)
    active = config.assignment                                         # (M, K, N)
    hs = (own_links(h, config) * active[..., None]).swapaxes(-3, -2)   # (..., M, N, K, Nt)
    # others[..., m, n, k] (Nt, K): the channels of cell m's active users on n but k, as columns
    others = np.swapaxes(hs[..., None, :, :] * ~np.eye(config.K, dtype=bool)[..., None], -1, -2)
    span = others @ (np.linalg.pinv(others) @ hs[..., None])           # (..., M, N, K, Nt, 1)
    residual = (hs - span[..., 0]).swapaxes(-3, -2)                    # (..., M, K, N, Nt)
    norms = np.linalg.norm(residual, axis=-1)
    degenerate = active & (norms <= 1e-14 * np.linalg.norm(hs, axis=-1).swapaxes(-1, -2))
    if degenerate.any():
        raise DegenerateChannelError(
            f"channel of user {_first_user(degenerate)} lies in the span of its "
            f"same-cell co-subchannel channels")
    return _beam_scale(config) * residual / np.where(active, norms, 1.0)[..., None]


def init_mslnr(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Maximum signal-to-leakage-plus-noise-ratio beams.

    Direction maximizes |h^H x|^2 / (x^H D x) with

        D = sum over other active co-subchannel users of h_u h_u^H
            + (N K / Pmax) * I

    The numerator matrix is rank one, so the dominant generalized eigenvector
    is D^{-1} h up to scale; one batched solve replaces any
    eigendecomposition. The sum is the solver's leakage matrix at unit
    victim weights over the full victim set. Every beam keeps the equal power
    split ||v||^2 = Pmax / (N K).
    """
    ridge = config.N * config.K / config.Pmax
    unit = np.ones((config.n_users, config.N))
    leak = solver._all_leakages(h, unit, solver.full_mask(config))
    dmat = leak + ridge * np.eye(config.Nt)
    direction = np.linalg.solve(dmat, own_links(h, config)[..., None])[..., 0]
    norms = np.linalg.norm(direction, axis=-1)
    active = config.assignment
    zero = active & (norms == 0.0)
    if zero.any():
        raise DegenerateChannelError(f"zero channel for user {_first_user(zero)}")
    return (_beam_scale(config) * direction / np.where(active, norms, 1.0)[..., None]
            * active[..., None])


INITIALIZERS = {"cm": init_cm, "zf": init_zf, "mslnr": init_mslnr}


def make_initial_beams(name: str, h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    try:
        fn = INITIALIZERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown initializer '{name}', expected one of {sorted(INITIALIZERS)}")
    return fn(h, config)
