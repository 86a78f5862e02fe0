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

A draw is made in two steps. The long-term part (:func:`draw_long_term`:
the shadowing, the stream's first draw, and the coordinated amplitudes;
then the noise of :func:`compute_noise`) depends on the drop and the seed
but not on N or Nt. The fading (:func:`draw_fading`) reads the normals of
the same stream after the shadowing, so one long-term draw serves every
antenna count bit for bit as a fresh draw would. :func:`draw_channels` is
the two steps at one config; the feedback table shares the first across Nt.

Each step is a function of arrays that writes none of its inputs:
:func:`draw_channels` returns the raw channels and the shadowing,
:func:`compute_noise` the noise, :func:`normalize_channels` the normalized
channels h, and :func:`apply_noise` chains the last two.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
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

    def user_bs_distances(self, bs: slice = slice(None)) -> np.ndarray:
        """Distance matrix of shape (n, M*K) from the BSs ``bs_xy[bs]``, every
        BS by default, to every user. Computed from the positions at call
        time, row by row as the full matrix, so a moved BS is seen at once."""
        users = self.user_xy.reshape(-1, 2)
        diff = self.bs_xy[bs, None, :] - users[None, :, :]
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
    rng = np.random.default_rng(seed)
    bs_xy = _base_stations(config.M).copy()
    cluster = bs_xy[:config.M]

    radius = rng.uniform(USER_RADIUS_MIN_M, USER_RADIUS_MAX_M, size=(config.M, config.K))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(config.M, config.K))
    offsets = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    user_xy = cluster[:, None, :] + offsets

    return Topology(bs_xy=bs_xy, user_xy=user_xy)


@dataclass
class LongTerm:
    """The part of one channel draw that no antenna count changes.

    shadow: (n_bs, M*K) linear shadowing gains L per link, every BS
    amp:    (M, M*K) sqrt((200 / d)^3.5 * L) of the coordinated links
    rng:    the draw's generator, just past the standard normals drawn so far
    drawn:  the standard normals the stream gave after the shadowing draw,
            extended on demand by :meth:`normals`
    """
    shadow: np.ndarray
    amp: np.ndarray
    rng: np.random.Generator
    drawn: np.ndarray = field(default_factory=lambda: np.empty(0))

    def normals(self, count: int) -> np.ndarray:
        """The first ``count`` standard normals after the shadowing draw. Each
        normal is drawn once: a longer request continues the stream, which
        gives the same values as one draw of ``count`` normals."""
        have = self.drawn.size
        if count > have:
            more = self.rng.standard_normal(count - have)
            self.drawn = more if have == 0 else np.concatenate([self.drawn, more])
        return self.drawn[:count]


def draw_long_term(topology: Topology, config: NetworkConfig, seed: int) -> LongTerm:
    """Shadowing for every (BS, user) link, the first draw of the seed's
    stream, and the amplitudes of the M coordinated rows. Only M and K of
    the config are read, so one long-term draw serves every N and Nt of a
    (K, seed) drop; the ring's noise follows from its shadowing by
    :func:`compute_noise`."""
    rng = np.random.default_rng(seed)
    m = config.M
    shadow_db = rng.normal(0.0, SHADOWING_STD_DB,
                           size=(topology.bs_xy.shape[0], config.n_users))
    shadow = 10.0 ** (shadow_db / 10.0)
    amp = np.sqrt(path_gain(topology.user_bs_distances(slice(None, m))) * shadow[:m])
    return LongTerm(shadow=shadow, amp=amp, rng=rng)


def draw_fading(long_term: LongTerm, config: NetworkConfig) -> np.ndarray:
    """Raw channels (M, M*K, N, Nt) of the coordinated BSs at the config's N
    and Nt: small-scale fading per (coordinated BS, user, subchannel), scaled
    by the long-term amplitudes.

    The fading is that of a draw for every BS, taken from the normals right
    after the shadowing: the real parts, then the imaginary parts, each over
    (n_bs, M*K, N, Nt). Only the M coordinated rows of each are read, and
    the imaginary parts are drawn no further than those rows, so the result
    equals the first M rows of the full draw bit for bit, and every Nt of a
    long-term draw reads the same stream as a fresh draw would.
    """
    m = long_term.amp.shape[0]
    shape = long_term.shadow.shape + (config.N, config.Nt)
    size = int(np.prod(shape))
    normals = long_term.normals(size + size // shape[0] * m)
    real = normals[:size].reshape(shape)[:m]
    imag = normals[size:].reshape((m,) + shape[1:])
    fading = (real + 1j * imag) / np.sqrt(2.0)
    return long_term.amp[:, :, None, None] * fading


def draw_channels(topology: Topology, config: NetworkConfig,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One channel draw: :func:`draw_long_term`, then :func:`draw_fading` at
    the config's N and Nt. Returns the raw channels (M, M*K, N, Nt) of the
    coordinated BSs and the shadowing (n_bs, M*K) of every BS, whose ring
    rows feed :func:`compute_noise`.
    """
    long_term = draw_long_term(topology, config, seed)
    return draw_fading(long_term, config), long_term.shadow


def compute_noise(topology: Topology, config: NetworkConfig, shadow: np.ndarray,
                  sigma2: list[float] | None = None) -> np.ndarray:
    """Long-term noise map (..., M*K, N): thermal floor plus uncoordinated-BS
    interference, from a draw's shadowing ``shadow`` (n_bs, M*K).

    noise[g, n] = sigma^2 + sum over uncoordinated BSs of
    (200/d)^3.5 * L * Pmax / N, at ``config.sigma2`` or at each of the
    thermal floors ``sigma2`` along a leading axis. Only the ring's
    distances are computed, from the positions at call time.
    """
    dist = topology.user_bs_distances(slice(config.M, None))          # (24, MK)
    gains = path_gain(dist) * shadow[config.M:]
    out_power = gains.sum(axis=0) * config.Pmax / config.N           # (MK,)
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
