"""Reference-user machinery: selection, feedback accounting, and the
reference form of the paper's rank-one recursion.

Instead of summing leakage over every co-subchannel user, a BS approximates
its leakage matrix with the few users that absorb most of it. The reference
users of beam (m, k, n) are the candidates u with the largest

    score(u) = ||h_{m,u}(n)||^2 * |h_{m,u}(n)^H h_{m,k}(n)|^2
             = ||G_{m,u}(n) h_{m,k}(n)||^2,

drawn from all users scheduled on the subchannel across the cluster (the
beam's own cell included, since intra-cell leakage matters too). With
single-antenna transmitters the alignment factor is common to all candidates
and the rule degenerates to picking the strongest channel gain.

A BS can invert the truncated leakage plus lambda*ln2*I by one rank-one
update per reference, with no dense inversion (:func:`invert_rank_r`). The
solver takes the same inverse from the eigendecomposition its dual search
already holds, so that saving is counted work, not executed code; the
recursion is the reference the tests check the solver against.
"""
from __future__ import annotations

import numpy as np

from .config import NetworkConfig
from .errors import ConfigurationError
from .network import own_links
from .solver import ALGORITHMS, LN2, full_mask


def reference_map(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Place of every user in every beam's candidate order, shape (..., M, K, N, MK)
    with any leading batch axes of the channels h (a stack of draws).

    ranks[m, k, n, g] = i when user g is the (i+1)-th highest-scoring
    candidate of beam (m, k, n), and the largest int when g is no candidate.
    Candidates are the users scheduled on n across the cluster minus (m, k)
    itself; an inactive beam has none. Ties break towards the lowest
    (cell, user) index. ``ranks < r`` is the victim mask of r references (all
    candidates when r exceeds their count), and
    ``np.argsort(ranks, kind="stable")`` lists them in descending score. Every
    score is computed in one pass, ||h_u||^2 first, then |h_u^H h_k|^2, and
    sorted once per beam. Every draw of a stack gets its own ranks bit for bit.
    """
    gain = np.sum(np.abs(h) ** 2, axis=-1).swapaxes(-1, -2)[..., None, :, :]  # (..., M, 1, N, MK)
    cross = np.abs(np.einsum("...mgna,...mkna->...mkng", h.conj(),
                             own_links(h, config))) ** 2
    candidates = full_mask(config)
    order = np.argsort(np.where(candidates, -(gain * cross), np.inf), axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1)          # a permutation's one inverse
    return np.where(candidates, ranks, np.iinfo(ranks.dtype).max)


def invert_rank_r(coeffs: np.ndarray, vecs: np.ndarray, lam) -> np.ndarray:
    """Exact inverses of (lambda*ln2*I + sum_r q_r h_r h_r^H) by sequential
    rank-one updates, batched over leading axes: the reference form of the
    paper's recursion, which the solver no longer runs.

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
                                 mask: np.ndarray) -> np.ndarray:
    """Distinct reference users of BS m on subchannel n served by other BSs,
    shape (..., M, N), from the victim mask (..., M, K, N, MK), ``ranks < r``
    of :func:`reference_map`, with any leading axes of a stack of draws.

    Intra-cell references cost nothing on the backhaul (the BS already knows
    its own users), and a user referenced by several of BS m's beams is
    fetched once.
    """
    referenced = mask.any(axis=-3)                                     # (..., M, N, MK)
    own_cell = np.arange(config.n_users) // config.K == np.arange(config.M)[:, None]
    return np.sum(referenced & ~own_cell[:, None], axis=-1)


def feedback_bits(config: NetworkConfig, algo: str,
                  out_of_cell_refs: np.ndarray | None = None,
                  qbits: int = 8) -> int | np.ndarray:
    """Total inter-BS feedback bits for one scheduling interval.

    Four information classes flow between BSs for each out-of-cell neighbour
    user: the channel vector (2*Nt reals) plus three scalars (weight,
    received signal strength, interference-plus-noise strength). The full
    algorithm fetches all four classes for every neighbour user; the
    reference-user variant still fetches every channel vector but only the
    reference users' scalars:

        icbf     reals(m, n) = |U(m, n)| * (2*Nt + 3)
        cb_refim reals(m, n) = |U(m, n)| * 2*Nt + 3 * distinct_refs(m, n)

    where U(m, n) are the users scheduled on n and served by the other BSs
    of the cluster. Bits = reals * qbits. The reference counts
    ``out_of_cell_refs`` (..., M, N) may stack draws along leading axes:
    cb_refim then returns one count per draw, an int for a single (M, N).
    """
    if algo not in ALGORITHMS:
        raise ConfigurationError(f"no feedback model for algorithm '{algo}'")
    others = ~np.eye(config.M, dtype=bool)                            # (M, M)
    users = int(np.sum(others @ config.assignment.sum(axis=1)))     # sum of |U(m, n)|
    if algo != "cb_refim":
        return users * (2 * config.Nt + SCALAR_FEEDBACK_REALS) * qbits
    if out_of_cell_refs is None:
        raise ConfigurationError("cb_refim feedback accounting needs reference counts")
    refs = np.sum(out_of_cell_refs, axis=(-2, -1))
    bits = (users * 2 * config.Nt + SCALAR_FEEDBACK_REALS * refs) * qbits
    return int(bits) if np.ndim(bits) == 0 else bits
