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

A trial reads two streams: the topology generator's uniforms (the radii,
then the angles) and the channel generator's standard normals (the
shadowing, then the fading). A smaller drop or draw reads a prefix of each,
so the streams that :func:`draw_streams` draws once for the largest serve
every smaller K and Nt as fresh draws would. :func:`place_users`,
:func:`long_term_of` and :func:`draw_fading` read them and draw nothing;
the seed forms :func:`build_topology` and :func:`draw_channels` draw their
stream in one call, to :func:`stream_lengths`, and run the same readers.
A draw is made in two steps: the long-term part (shadowing, coordinated
amplitudes, :func:`compute_noise`) reads no N or Nt, so one serves the
fading (:func:`draw_fading`) of every antenna count its stream holds. Each
step also takes a stack of drops along leading axes.

Each step is a function of arrays that writes none of its inputs:
:func:`draw_channels` returns the raw channels and the shadowing,
:func:`compute_noise` the noise, :func:`normalize_channels` the normalized
channels h, and :func:`apply_noise` chains the last two.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .config import NetworkConfig
from .errors import DegenerateChannelError, InvalidStateError, UsageError

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
    user_xy: (..., M, K, 2); user (m, k) is served by BS m. Leading axes
             are a stack of drops, which share the sites.
    """
    bs_xy: np.ndarray
    user_xy: np.ndarray

    def user_bs_distances(self, bs: slice = slice(None)) -> np.ndarray:
        """Distance matrix of shape (..., n, M*K) from the BSs ``bs_xy[bs]``, every
        BS by default, to every user of each drop. Computed from the positions at
        call time, row by row as the full matrix, so a moved BS is seen at once."""
        users = self.user_xy.reshape(self.user_xy.shape[:-3] + (-1, 2))
        diff = self.bs_xy[bs, None, :] - users[..., None, :, :]
        return np.linalg.norm(diff, axis=-1)


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
    return place_users(config, np.random.default_rng(seed).random(2 * config.n_users))


def place_users(config: NetworkConfig, uniforms: np.ndarray) -> Topology:
    """The drops read from topology streams ``uniforms`` (..., >= 2*M*K) in
    [0, 1): M*K radii, then M*K angles, each low + (high - low) * u as
    ``Generator.uniform`` makes it. Leading axes are a stack of drops."""
    u = uniforms[..., :2 * config.n_users].reshape(uniforms.shape[:-1]
                                                   + (2, config.M, config.K))
    radius = USER_RADIUS_MIN_M + (USER_RADIUS_MAX_M - USER_RADIUS_MIN_M) * u[..., 0, :, :]
    angle = 2.0 * np.pi * u[..., 1, :, :]
    offsets = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    bs_xy = _base_stations(config.M).copy()
    return Topology(bs_xy=bs_xy, user_xy=bs_xy[:config.M, None, :] + offsets)


def stream_lengths(config: NetworkConfig) -> tuple[int, int]:
    """The uniforms and normals a drop and draw at the config read: 2*M*K, and
    every link's shadowing, then the fading's real (all BSs) and imaginary (M) parts."""
    n_bs = config.M + N_UNCOORDINATED
    fading = config.n_users * config.N * config.Nt
    return 2 * config.n_users, n_bs * config.n_users + (n_bs + config.M) * fading


def draw_streams(config: NetworkConfig, seeds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Both streams of a trial from its (topology, channel) seeds, one generator
    each, drawn once to the config's :func:`stream_lengths`."""
    uniforms, normals = stream_lengths(config)
    return (np.random.default_rng(seeds[0]).random(uniforms),
            np.random.default_rng(seeds[1]).standard_normal(normals))


@dataclass(frozen=True)
class LongTerm:
    """The part of a channel draw, or of a stack of draws along leading axes,
    that no antenna count changes, and the stream's normals that follow it.

    shadow: (..., n_bs, M*K) linear shadowing gains L per link, every BS
    amp:    (..., M, M*K) sqrt((200 / d)^3.5 * L) of the coordinated links
    fading: (..., count) the stream's standard normals after the shadowing,
            of which :func:`draw_fading` reads the prefix its cell needs
    """
    shadow: np.ndarray
    amp: np.ndarray
    fading: np.ndarray


def long_term_of(topology: Topology, config: NetworkConfig, normals: np.ndarray) -> LongTerm:
    """The long-term draw read from channel streams ``normals`` (..., >=
    n_bs*M*K), one per drop of the topology: the shadowing in dB is 8 times
    each of the first n_bs*M*K, as ``Generator.normal(0, 8)`` makes it; the
    rest is for the fading. Only M and K of the config are read, so one
    long-term draw serves every N and Nt its stream holds."""
    n_bs, m = topology.bs_xy.shape[0], config.M
    count = n_bs * config.n_users
    shadow_db = SHADOWING_STD_DB * normals[..., :count].reshape(
        normals.shape[:-1] + (n_bs, config.n_users))
    shadow = 10.0 ** (shadow_db / 10.0)
    amp = np.sqrt(path_gain(topology.user_bs_distances(slice(None, m))) * shadow[..., :m, :])
    return LongTerm(shadow=shadow, amp=amp, fading=normals[..., count:])


def draw_fading(long_term: LongTerm, config: NetworkConfig) -> np.ndarray:
    """Raw channels (..., M, M*K, N, Nt) of the coordinated BSs at the
    config's N and Nt, with the leading axes of the long-term draw:
    small-scale fading per (coordinated BS, user, subchannel), scaled by the
    long-term amplitudes.

    The fading is that of a draw for every BS, taken from the normals right
    after the shadowing: the real parts, then the imaginary parts, each over
    (n_bs, M*K, N, Nt). Only the M coordinated rows of each are read, and
    the imaginary parts are drawn no further than those rows, so the result
    equals the first M rows of the full draw bit for bit, and every Nt of a
    long-term draw reads the same stream as a fresh draw would.
    """
    m = long_term.amp.shape[-2]
    shape = long_term.shadow.shape[-2:] + (config.N, config.Nt)
    size = int(np.prod(shape))
    count = size + size // shape[0] * m
    have = long_term.fading.shape[-1]
    if have < count:
        raise UsageError(f"the fading at N = {config.N}, Nt = {config.Nt} reads {count} "
                         f"normals after the shadowing, but the stream holds {have}")
    normals = long_term.fading[..., :count]
    lead = normals.shape[:-1]
    real = normals[..., :size].reshape(lead + shape)[..., :m, :, :, :]
    imag = normals[..., size:].reshape(lead + (m,) + shape[1:])
    fading = (real + 1j * imag) / np.sqrt(2.0)
    return long_term.amp[..., None, None] * fading


def draw_channels(topology: Topology, config: NetworkConfig,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One channel draw: the seed's stream of normals, drawn in one call to
    the config's :func:`stream_lengths`, read by :func:`long_term_of` and
    then :func:`draw_fading`. Returns the raw channels (M, M*K, N, Nt) of
    the coordinated BSs and the shadowing (n_bs, M*K) of every BS, whose
    ring rows feed :func:`compute_noise`.
    """
    normals = np.random.default_rng(seed).standard_normal(stream_lengths(config)[1])
    long_term = long_term_of(topology, config, normals)
    return draw_fading(long_term, config), long_term.shadow


def compute_noise(topology: Topology, config: NetworkConfig, shadow: np.ndarray,
                  sigma2: list[float] | None = None) -> np.ndarray:
    """Long-term noise map (..., M*K, N): thermal floor plus uncoordinated-BS
    interference, from the shadowing ``shadow`` (..., n_bs, M*K) of a draw or
    a stack of draws.

    noise[g, n] = sigma^2 + sum over uncoordinated BSs of
    (200/d)^3.5 * L * Pmax / N, at ``config.sigma2`` or at each of the
    thermal floors ``sigma2`` along a leading axis (of one drop). Only the
    ring's distances are computed, from the positions at call time, and the
    ring is summed BS by BS along its own axis, so a stack sums as one drop.
    """
    dist = topology.user_bs_distances(slice(config.M, None))          # (..., 24, MK)
    gains = path_gain(dist) * shadow[..., config.M:, :]
    out_power = gains.sum(axis=-2) * config.Pmax / config.N          # (..., MK)
    noise = (config.sigma2 if sigma2 is None else np.asarray(sigma2)[:, None]) + out_power
    return np.repeat(noise[..., None], config.N, axis=-1)


def normalize_channels(raw: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The normalized channels h = raw / sqrt(noise) of the M coordinated
    BSs, with the leading axes of the raw channels (..., M, M*K, N, Nt) and
    the noise (..., M*K, N) broadcast: one raw draw at every thermal floor,
    or a stack of draws with a noise each. The noise must be positive, and
    h finite with no all-zero channel vector."""
    if np.any(noise <= 0):
        raise InvalidStateError("noise power must be strictly positive")
    scale = 1.0 / np.sqrt(noise)                              # (..., MK, N)
    h = raw * scale[..., None, :, :, None]
    if not np.all(np.isfinite(h)):
        raise InvalidStateError("normalized channels contain non-finite entries")
    norms = np.linalg.norm(h, axis=-1)
    if np.any(norms == 0.0):
        raise DegenerateChannelError("all-zero channel vector encountered")
    return h


def realize_network(config: NetworkConfig, seed: int) -> tuple[Topology, np.ndarray]:
    """Topology and normalized channels h (M, M*K, N, Nt) from a single
    master seed."""
    s_topo, s_chan = np.random.SeedSequence(seed).generate_state(2)
    topology = build_topology(config, int(s_topo))
    return topology, apply_noise(topology, config, *draw_channels(topology, config, int(s_chan)))


def apply_noise(topology: Topology, config: NetworkConfig, raw: np.ndarray,
                shadow: np.ndarray, sigma2: list[float] | None = None) -> np.ndarray:
    """The normalized channels of one raw draw and its shadowing, at
    ``config.sigma2`` or at every thermal floor of ``sigma2`` in one
    broadcast, one entry of a leading axis each."""
    return normalize_channels(raw, compute_noise(topology, config, shadow, sigma2))


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
    m, k, n, re/im per antenna. m is the coordinated BS and k the global user
    index 0..MK-1 (:meth:`NetworkConfig.user_id`), not the in-cell index.
    The experiment harness dumps trial 0's draw at the first gamma_db point."""
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
