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

Selection is two steps: :func:`reference_keys` scores a draw's (beam,
candidate) pairs, with no antenna axis, and :func:`select_references`
takes the victim mask of r references per beam over any stack of keys:
one argmin per beam at r <= 1, a ranking above (:func:`reference_map`).
:func:`reference_mask` is both steps on one draw or stack. Both paths read
the same keys, so they agree bit for bit, and ties go to the lowest
(cell, user) index.

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


def reference_keys(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """The score step: every (beam, candidate) pair's sort key, its negated
    score, shape (..., M, N, K, MK) with any leading batch axes of the
    channels h. With no Nt axis, the keys of several antenna counts stack.

    Both operands of the |h_u^H h_k|^2 contraction are laid out contiguous
    in (..., M, N, user, Nt), so each pair's sum runs over its Nt entries in
    order, the same arithmetic for every candidate: duplicated users score
    exactly alike, and every draw of a stack as it would alone. (A BLAS
    matmul is faster, but can round a candidate by its column position and
    so split exact ties.) Conjugating the own links rather than the channels
    gives the conjugate sum, of the same modulus bit for bit, and negating
    the gain rather than the product gives the same bits in one pass less.
    """
    own = np.ascontiguousarray(own_links(h, config).conj().swapaxes(-3, -2))  # (..., M, N, K, Nt)
    h_n = np.ascontiguousarray(h.swapaxes(-3, -2))                            # (..., M, N, MK, Nt)
    cross = np.abs(np.einsum("...ka,...ga->...kg", own, h_n)) ** 2             # (..., M, N, K, MK)
    gain = (np.abs(h_n) ** 2).sum(axis=-1)[..., None, :]                       # (..., M, N, 1, MK)
    return -gain * cross


def select_references(keys: np.ndarray, config: NetworkConfig, counts=None) -> np.ndarray:
    """The selection step over any stack of :func:`reference_keys` of
    ``config``'s cells, users and assignment, at any antenna counts: the
    victim mask (..., M, K, N, MK) of every beam's ``counts`` best
    candidates (an int or one per draw along the leading axes), or without
    counts the ranks of :func:`reference_map`. When no count exceeds 1, each
    beam's reference is the first minimum of its keys (a non-candidate's is
    +inf), the candidate a stable sort puts first, and nothing is ranked.
    """
    candidates = full_mask(config).swapaxes(1, 2)
    keys = np.where(candidates, keys, np.inf)
    if counts is None or np.max(counts) > 1:
        ranks = np.argsort(np.argsort(keys, axis=-1, kind="stable"), axis=-1)  # order's inverse
        ranks = np.where(candidates, ranks, np.iinfo(ranks.dtype).max).swapaxes(-3, -2)
        return ranks if counts is None else ranks < np.asarray(counts)[..., None, None, None, None]
    best = np.arange(config.n_users) == np.argmin(keys, axis=-1)[..., None]
    return (best & (candidates & (np.asarray(counts)[..., None, None, None, None] >= 1))
            ).swapaxes(-3, -2)


def reference_map(h: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Place of every user in every beam's candidate order, shape (..., M, K, N, MK)
    with any leading batch axes of the channels h (a stack of draws).

    ranks[m, k, n, g] = i when user g is the (i+1)-th highest-scoring
    candidate of beam (m, k, n), and the largest int when g is no candidate.
    Candidates are the users scheduled on n across the cluster minus (m, k)
    itself; an inactive beam has none. Ties break towards the lowest
    (cell, user) index. ``np.argsort(ranks, kind="stable")`` lists a beam's
    candidates in descending score. ``ranks < r`` is the victim mask of r
    references, which :func:`reference_mask` gives without the ranks when r
    is at most 1. Every draw of a stack gets its own ranks bit for bit.
    """
    return select_references(reference_keys(h, config), config)


def reference_mask(h: np.ndarray, config: NetworkConfig, counts) -> np.ndarray:
    """Victim mask of every beam's ``counts`` best candidates, shape
    (..., M, K, N, MK): ``reference_map(h, config) < counts`` bit for bit,
    so every candidate when a count exceeds theirs and none at 0.

    ``counts`` is an int, or one count per draw along the leading axes of h.
    """
    return select_references(reference_keys(h, config), config, counts)


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
    shape (..., M, N), from the victim mask (..., M, K, N, MK) of
    :func:`reference_mask`, with any leading axes of a stack of draws.

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
    users = (config.M - 1) * int(config.assignment.sum())            # sum of |U(m, n)|
    if algo != "cb_refim":
        return users * (2 * config.Nt + SCALAR_FEEDBACK_REALS) * qbits
    if out_of_cell_refs is None:
        raise ConfigurationError("cb_refim feedback accounting needs reference counts")
    refs = np.sum(out_of_cell_refs, axis=(-2, -1))
    bits = (users * 2 * config.Nt + SCALAR_FEEDBACK_REALS * refs) * qbits
    return int(bits) if np.ndim(bits) == 0 else bits
