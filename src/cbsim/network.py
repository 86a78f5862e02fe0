"""Cellular topology, fading channels and long-term noise model.

Geometry: a cluster of up to 3 coordinated BSs on a hexagonal grid with
2000 m inter-site distance, surrounded by 24 uncoordinated BSs placed on the
nearest lattice sites around the cluster centroid. Users are dropped
uniformly in angle and uniformly in radius within a [500, 1100] m annulus
around their serving BS.

Channel model per (BS, user, subchannel):

    h_raw = sqrt((200 / d)^3.5 * L) * g,   g ~ CN(0, I_Nt)

with log-normal shadowing 10*log10(L) ~ Normal(0, 8^2) drawn once per
(BS, user) link and shared across subchannels; small-scale fading is drawn
independently per subchannel (flat within a subchannel).

Long-term noise per user aggregates thermal noise and the average power
received from the 24 uncoordinated BSs:

    noise = sigma^2 + sum_out (200 / d)^3.5 * L * Pmax / N

Downstream modules consume noise-normalized channels h = h_raw / sqrt(noise),
so their noise floor is exactly 1.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .config import NetworkConfig
from .errors import DegenerateChannelError, InvalidStateError

INTER_SITE_M = 2000.0
USER_RADIUS_MIN_M = 500.0
USER_RADIUS_MAX_M = 1100.0
N_UNCOORDINATED = 24
PATHLOSS_REF_M = 200.0
PATHLOSS_EXPONENT = 3.5
SHADOWING_STD_DB = 8.0


@dataclass
class Topology:
    """BS and user positions in meters.

    bs_xy: (M + 24, 2); rows 0..M-1 are the coordinated cluster, the rest are
           the uncoordinated interferers ordered by distance from the cluster
           centroid.
    user_xy: (M, K, 2); user (m, k) is served by BS m.
    """
    bs_xy: np.ndarray
    user_xy: np.ndarray

    def user_bs_distances(self) -> np.ndarray:
        """Distance matrix of shape (n_bs, M*K) from every BS to every user."""
        users = self.user_xy.reshape(-1, 2)
        diff = self.bs_xy[:, None, :] - users[None, :, :]
        return np.linalg.norm(diff, axis=-1)


@dataclass
class ChannelState:
    """Raw channels, shadowing, long-term noise and normalized channels.

    raw:        (n_bs, M*K, N, Nt) complex, all BSs including uncoordinated
    shadow:     (n_bs, M*K) linear shadowing gains L per link
    noise:      (..., M*K, N) linear noise power per (user, subchannel)
    normalized: (..., M, M*K, N, Nt) complex, coordinated BSs only,
                normalized = raw / sqrt(noise); the leading axes, if any,
                stack SNR points

    Every layer below this one takes the normalized array itself, ``h``,
    with any leading axes that stack SNR points or channel draws.
    """
    raw: np.ndarray | None = None
    shadow: np.ndarray | None = None
    noise: np.ndarray | None = None
    normalized: np.ndarray | None = None


def own_links(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Normalized channel from every BS to its own users, shape (..., M, K, N, Nt):
    own[..., m, k] = h_{m,(m,k)}, with any leading batch axes of the channels h."""
    bs = np.arange(config.M)
    return h.reshape(h.shape[:-3] + (config.M, config.K) + h.shape[-2:])[..., bs, bs, :, :, :]


def _cluster_sites(M: int) -> np.ndarray:
    d = INTER_SITE_M
    sites = np.array([
        [0.0, 0.0],
        [d, 0.0],
        [d / 2.0, d * np.sqrt(3.0) / 2.0],
    ])
    return sites[:M]


def path_gain(distance_m: np.ndarray | float) -> np.ndarray | float:
    """Distance-dependent power gain (200 / d)^3.5; unity at 200 m."""
    return (PATHLOSS_REF_M / np.asarray(distance_m, dtype=float)) ** PATHLOSS_EXPONENT


@cache
def _base_stations(M: int) -> np.ndarray:
    """The M coordinated sites, then the 24 uncoordinated ones: the
    hexagonal-lattice points nearest to the cluster centroid (ties broken by
    coordinates), which reproduces the two surrounding tiers. Computed once
    per cluster size and read-only; :func:`build_topology` copies it."""
    cluster = _cluster_sites(M)
    centroid = cluster.mean(axis=0)

    a = np.array([INTER_SITE_M, 0.0])
    b = np.array([INTER_SITE_M / 2.0, INTER_SITE_M * np.sqrt(3.0) / 2.0])
    i, j = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7), indexing="ij")
    lattice = i.reshape(-1, 1) * a + j.reshape(-1, 1) * b
    on_cluster = np.isclose(lattice[:, None], cluster, atol=1e-6).all(axis=-1).any(axis=1)
    lattice = lattice[~on_cluster]
    dist = np.linalg.norm(lattice - centroid, axis=1)
    # sort by distance, then coordinates, for a fully deterministic ring order
    order = np.lexsort((lattice[:, 1], lattice[:, 0], np.round(dist, 6)))
    outer = lattice[order[:N_UNCOORDINATED]]
    sites = np.vstack([cluster, outer])
    sites.flags.writeable = False
    return sites


def build_topology(config: NetworkConfig, seed: int) -> Topology:
    """Place the coordinated cluster, the 24 uncoordinated BSs and all users.

    Deterministic given (config, seed); only M, K and the seed matter. Every
    call returns its own writable ``bs_xy``, so moving a BS in one topology
    leaves every other one as it was.
    """
    rng = np.random.default_rng(seed)
    bs_xy = _base_stations(config.M).copy()
    cluster = bs_xy[:config.M]

    radius = rng.uniform(USER_RADIUS_MIN_M, USER_RADIUS_MAX_M, size=(config.M, config.K))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(config.M, config.K))
    offsets = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    user_xy = cluster[:, None, :] + offsets

    return Topology(bs_xy=bs_xy, user_xy=user_xy)


def draw_channels(topology: Topology, config: NetworkConfig, seed: int) -> ChannelState:
    """Draw shadowing and small-scale fading for every (BS, user, subchannel).

    Returns a ChannelState with ``raw`` and ``shadow`` filled; noise and
    normalized channels are computed by :func:`compute_noise` and
    :func:`normalize_channels`.
    """
    rng = np.random.default_rng(seed)
    n_bs = topology.bs_xy.shape[0]
    n_users = config.n_users
    dist = topology.user_bs_distances()

    shadow_db = rng.normal(0.0, SHADOWING_STD_DB, size=(n_bs, n_users))
    shadow = 10.0 ** (shadow_db / 10.0)

    shape = (n_bs, n_users, config.N, config.Nt)
    fading = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    amp = np.sqrt(path_gain(dist) * shadow)
    raw = amp[:, :, None, None] * fading
    return ChannelState(raw=raw, shadow=shadow)


def compute_noise(topology: Topology, config: NetworkConfig,
                  channels: ChannelState, sigma2: list[float] | None = None) -> np.ndarray:
    """Long-term noise map: thermal floor plus uncoordinated-BS interference.

    noise[g, n] = sigma^2 + sum over uncoordinated BSs of
    (200/d)^3.5 * L * Pmax / N, at ``config.sigma2`` or at each of the
    thermal floors ``sigma2`` along a leading axis. Fills ``channels.noise``
    and returns it.
    """
    if channels.shadow is None:
        raise InvalidStateError("draw_channels must run before compute_noise")
    dist = topology.user_bs_distances()
    gains = path_gain(dist[config.M:]) * channels.shadow[config.M:]  # (24, MK)
    out_power = gains.sum(axis=0) * config.Pmax / config.N           # (MK,)
    noise = (config.sigma2 if sigma2 is None else np.asarray(sigma2)[:, None]) + out_power
    channels.noise = np.repeat(noise[..., None], config.N, axis=-1)
    return channels.noise


def normalize_channels(channels: ChannelState, config: NetworkConfig) -> ChannelState:
    """Fill ``normalized`` with raw / sqrt(noise) for the M coordinated BSs,
    with the leading axes of the noise."""
    if channels.raw is None or channels.noise is None:
        raise InvalidStateError("raw channels and noise must exist before normalization")
    if np.any(channels.noise <= 0):
        raise InvalidStateError("noise power must be strictly positive")
    scale = 1.0 / np.sqrt(channels.noise)                     # (..., MK, N)
    normalized = channels.raw[:config.M] * scale[..., None, :, :, None]
    if not np.all(np.isfinite(normalized)):
        raise InvalidStateError("normalized channels contain non-finite entries")
    norms = np.linalg.norm(normalized, axis=-1)
    if np.any(norms == 0.0):
        raise DegenerateChannelError("all-zero channel vector encountered")
    channels.normalized = normalized
    return channels


def realize_network(config: NetworkConfig, seed: int) -> tuple[Topology, ChannelState]:
    """Topology + fully normalized channels from a single master seed."""
    s_topo, s_chan = np.random.SeedSequence(seed).generate_state(2)
    topology = build_topology(config, int(s_topo))
    return topology, apply_noise(topology, config, draw_channels(topology, config, int(s_chan)))


def apply_noise(topology: Topology, config: NetworkConfig,
                channels: ChannelState, sigma2: list[float] | None = None) -> ChannelState:
    """Noise + normalization of a fresh state sharing an existing raw draw:
    at ``config.sigma2``, or at every thermal floor of ``sigma2`` in one
    broadcast, one entry of a leading axis each."""
    fresh = ChannelState(raw=channels.raw, shadow=channels.shadow)
    compute_noise(topology, config, fresh, sigma2)
    return normalize_channels(fresh, config)


# ---------------------------------------------------------------------------
# debug CSV dumps
# ---------------------------------------------------------------------------

def dump_topology_csv(topology: Topology, path: str | Path) -> None:
    """Columns: kind, cell, index, x_m, y_m. BS rows first, then users; the
    first M sites, one per cell of users, are the coordinated ones."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "cell", "index", "x_m", "y_m"])
        for b, (x, y) in enumerate(topology.bs_xy):
            kind = "bs_coordinated" if b < len(topology.user_xy) else "bs_uncoordinated"
            writer.writerow([kind, "", b, f"{x:.6f}", f"{y:.6f}"])
        for m in range(topology.user_xy.shape[0]):
            for k in range(topology.user_xy.shape[1]):
                x, y = topology.user_xy[m, k]
                writer.writerow(["user", m, k, f"{x:.6f}", f"{y:.6f}"])


def dump_channels_csv(h: np.ndarray, path: str | Path) -> None:
    """Normalized channels h (M, MK, N, Nt) of one draw, one row per (m, k, n):
    m, k, n, re/im per antenna."""
    m_count, n_users, n_sub, nt = h.shape
    header = ["m", "k", "n"]
    for a in range(nt):
        header += [f"re{a}", f"im{a}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m in range(m_count):
            for g in range(n_users):
                for n in range(n_sub):
                    row = [m, g, n]
                    for a in range(nt):
                        row += [f"{h[m, g, n, a].real:.12e}", f"{h[m, g, n, a].imag:.12e}"]
                    writer.writerow(row)
