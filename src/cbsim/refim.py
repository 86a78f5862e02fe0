"""Reference-user machinery: selection, truncated leakage, feedback accounting.

Instead of summing leakage over every co-subchannel user, a BS approximates
its leakage matrix with the few users that absorb most of it. The reference
users of beam (m, k, n) are the candidates u with the largest

    score(u) = ||h_{m,u}(n)||^2 * |h_{m,u}(n)^H h_{m,k}(n)|^2
             = ||G_{m,u}(n) h_{m,k}(n)||^2,

drawn from all scheduled users on the subchannel across the neighbourhood of
BS m (its own cell included, since intra-cell leakage matters too). With
single-antenna transmitters the alignment factor is common to all candidates
and the rule degenerates to picking the strongest channel gain.
"""
from __future__ import annotations

import numpy as np

from .config import NetworkConfig
from .errors import ConfigurationError
from .metrics import check_active
from .network import ChannelState
from .solver import LN2, _all_leakages, q_coefficients


def neighbour_sets(config: NetworkConfig) -> list[set[int]]:
    """N(m) per BS. The coordinated cluster is small, so it is a full mesh
    and every set contains the BS itself."""
    return [set(range(config.M)) for _ in range(config.M)]


def scheduled_users(config: NetworkConfig, m: int, n: int) -> list[tuple[int, int]]:
    """All (cell, user) pairs active on subchannel n across N(m)."""
    hood = neighbour_sets(config)[m]
    return [(j, u) for j in sorted(hood) for u in range(config.K)
            if config.is_active(j, u, n)]


def reference_scores(channels: ChannelState, config: NetworkConfig,
                     m: int, k: int, n: int,
                     candidates: list[tuple[int, int]]) -> np.ndarray:
    h = channels.normalized
    hk = h[m, config.user_id(m, k), n]
    scores = np.empty(len(candidates))
    for idx, (j, u) in enumerate(candidates):
        hu = h[m, config.user_id(j, u), n]
        scores[idx] = np.sum(np.abs(hu) ** 2) * np.abs(np.vdot(hu, hk)) ** 2
    return scores


def select_references(channels: ChannelState, config: NetworkConfig,
                      m: int, k: int, n: int, r_count: int) -> list[tuple[int, int]]:
    """The r_count highest-scoring candidates, descending score.

    Candidates are the scheduled users of the neighbourhood minus (m, k)
    itself. Ties break towards the lowest (cell, user) index; asking for more
    references than candidates returns them all.
    """
    check_active(config, m, k, n)
    if r_count < 0:
        raise ConfigurationError(f"reference count must be >= 0, got {r_count}")
    candidates = [(j, u) for (j, u) in scheduled_users(config, m, n) if (j, u) != (m, k)]
    if r_count == 0 or not candidates:
        return []
    scores = reference_scores(channels, config, m, k, n, candidates)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    return [candidates[i] for i in order[:r_count]]


def reference_map(channels: ChannelState, config: NetworkConfig,
                  r_count: int) -> dict[tuple[int, int, int], list[tuple[int, int]]]:
    """References for every active triple."""
    refs = {}
    for m in range(config.M):
        for n in range(config.N):
            for k in range(config.K):
                if config.is_active(m, k, n):
                    refs[(m, k, n)] = select_references(channels, config, m, k, n, r_count)
    return refs


def _mask_from_refs(config: NetworkConfig, refmap: dict) -> np.ndarray:
    mask = np.zeros((config.M, config.K, config.N, config.n_users), dtype=bool)
    for (m, k, n), refs in refmap.items():
        for (j, u) in refs:
            mask[m, k, n, config.user_id(j, u)] = True
    return mask


def reference_mask(channels: ChannelState, config: NetworkConfig,
                   r_count: int) -> np.ndarray:
    """Victim mask (M, K, N, MK) of the truncated leakage: mask[m, k, n, g]
    is set when user g is one of beam (m, k, n)'s reference users."""
    return _mask_from_refs(config, reference_map(channels, config, r_count))


def leakage_refim(channels: ChannelState, beams: np.ndarray, config: NetworkConfig,
                  m: int, k: int, n: int,
                  refs: list[tuple[int, int]]) -> np.ndarray:
    """Rank-limited (Nt, Nt) leakage: only the reference users' terms are summed.

    An empty reference list yields the zero matrix (selfish single-cell
    mode); passing every candidate reproduces the full leakage matrix
    exactly.
    """
    check_active(config, m, k, n)
    mask = _mask_from_refs(config, {(m, k, n): refs})
    q = q_coefficients(channels, beams, config)
    return _all_leakages(channels, q, mask)[1][m, k, n]


def invert_rank_r(coeffs: np.ndarray, vecs: np.ndarray, lam) -> np.ndarray:
    """Exact inverses of (lambda*ln2*I + sum_r q_r h_r h_r^H) by sequential
    rank-one updates, batched over leading axes.

    coeffs (..., R) holds the q_r >= 0 and vecs (..., R, Nt) the h_r; lam
    broadcasts against the leading axes. Each update divides by
    1 + q * h^H A^{-1} h >= 1 (the terms are PSD), so the recursion never
    degenerates, and a zero coefficient leaves the inverse unchanged. With a
    single term this reduces to the closed inverse-free expression.
    """
    nt = vecs.shape[-1]
    x = np.asarray(lam) * LN2
    gamma = np.eye(nt, dtype=complex) / x[..., None, None]
    gamma = np.broadcast_to(gamma, coeffs.shape[:-1] + (nt, nt))
    for r in range(coeffs.shape[-1]):
        q, vec = coeffs[..., r], vecs[..., r, :]
        if not q.any():
            continue
        gv = (gamma @ vec[..., None])[..., 0]
        denom = 1.0 + q * np.sum(vec.conj() * gv, axis=-1).real
        gamma = gamma - (q / denom)[..., None, None] * (gv[..., :, None] * gv.conj()[..., None, :])
    return 0.5 * (gamma + gamma.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# inter-BS feedback accounting
# ---------------------------------------------------------------------------

#: reals exchanged per user for the channel vector (2*Nt) and for the
#: weight / received-signal-strength / interference-plus-noise scalars (3).
SCALAR_FEEDBACK_REALS = 3


def out_of_cell_reference_counts(config: NetworkConfig,
                                 refmap: dict) -> np.ndarray:
    """Distinct reference users of BS m on subchannel n served by other BSs.

    Intra-cell references cost nothing on the backhaul (the BS already knows
    its own users), and a user referenced by several of BS m's beams is
    fetched once.
    """
    referenced = _mask_from_refs(config, refmap).any(axis=1)           # (M, N, MK)
    own_cell = np.arange(config.n_users) // config.K == np.arange(config.M)[:, None]
    return np.sum(referenced & ~own_cell[:, None], axis=-1)


def feedback_bits(config: NetworkConfig, algo: str,
                  out_of_cell_refs: np.ndarray | None = None,
                  qbits: int = 8) -> int:
    """Total inter-BS feedback bits for one scheduling interval.

    Four information classes flow between BSs for each out-of-cell neighbour
    user: the channel vector (2*Nt reals) plus three scalars (weight,
    received signal strength, interference-plus-noise strength). The full
    algorithm fetches all four classes for every neighbour user; the
    reference-user variant still fetches every channel vector but only the
    reference users' scalars:

        icbf     reals(m, n) = |U(m, n)| * (2*Nt + 3)
        cb_refim reals(m, n) = |U(m, n)| * 2*Nt + 3 * distinct_refs(m, n)

    where U(m, n) are the users scheduled on n and served by N(m) \\ {m}.
    Bits = reals * qbits.
    """
    if algo not in ("icbf", "icbf_wi", "cb_refim"):
        raise ConfigurationError(f"no feedback model for algorithm '{algo}'")
    hoods = neighbour_sets(config)
    others = np.array([[j in hoods[m] and j != m for j in range(config.M)]
                       for m in range(config.M)])                    # (M, M)
    users = int(np.sum(others @ config.assignment.sum(axis=1)))     # sum of |U(m, n)|
    if algo != "cb_refim":
        return users * (2 * config.Nt + SCALAR_FEEDBACK_REALS) * qbits
    if out_of_cell_refs is None:
        raise ConfigurationError("cb_refim feedback accounting needs reference counts")
    refs = int(np.sum(out_of_cell_refs))
    return (users * 2 * config.Nt + SCALAR_FEEDBACK_REALS * refs) * qbits
