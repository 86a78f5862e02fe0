"""Reference-user selection, truncated leakage, the rank-one recursion and
cb_refim's Gamma against it, feedback."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError
from cbsim.initializers import init_mslnr
from cbsim.metrics import link_state
from cbsim.network import own_links, realize_network
from cbsim.refim import (feedback_bits, invert_rank_r,
                         out_of_cell_reference_counts, reference_map, reference_mask)
from cbsim.solver import (LN2, DualEvaluator, _all_leakages, _q_from_link, _victim_weights,
                          full_mask, gamma_sherman_morrison, solve_batch)


def synthetic_channels(config, seed=0):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.n_users, config.N, config.Nt)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return h


def random_beams(config, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.K, config.N, config.Nt)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def references_of(ranks, config, r_count):
    """{(m, k, n): [(cell, user), ...]} of every active triple: its r_count
    references (all candidates when fewer), in order, from the ranks."""
    counts = np.sum(ranks < r_count, axis=-1)
    order = np.argsort(ranks, axis=-1, kind="stable")
    return {(m, k, n): [divmod(int(g), config.K) for g in order[m, k, n, :counts[m, k, n]]]
            for m, k, n in reference.active_triples(config)}


def select_references(h, config, m, k, n, r_count):
    """The library's references of one active triple."""
    return references_of(reference_map(h, config), config, r_count)[(m, k, n)]


def mask_of(config, refmap):
    """Victim mask (M, K, N, MK) of a {(m, k, n): [(cell, user), ...]} map."""
    mask = np.zeros((config.M, config.K, config.N, config.n_users), dtype=bool)
    for (m, k, n), refs in refmap.items():
        for (j, u) in refs:
            mask[m, k, n, config.user_id(j, u)] = True
    return mask


def oracle_references(h, config, r_count):
    return {t: reference.select_references(h, config, *t, r_count)
            for t in reference.active_triples(config)}


def test_reference_map_matches_scalar_oracle():
    """Every triple's references, in order, and the victim mask ranks < r
    equal the scalar oracle's on random sizes, partial assignments and
    reference counts from 0 to above the candidate count."""
    rng = np.random.default_rng(31)
    for draw in range(300):
        config = NetworkConfig(M=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)),
                               K=int(rng.integers(1, 5)), Nt=int(rng.integers(1, 5)))
        config.assignment[:] = rng.random(config.assignment.shape) < 0.7
        h = synthetic_channels(config, draw)
        r_count = int(rng.choice([0, 1, 2, config.n_users + 1, rng.integers(0, config.n_users)]))
        ranks = reference_map(h, config)
        expected = oracle_references(h, config, r_count)
        assert references_of(ranks, config, r_count) == expected
        assert np.array_equal(ranks < r_count, mask_of(config, expected))


def test_mask_of_any_count_from_one_selection():
    """One ranks array gives every count's victim mask, from 0 to above the
    candidate count, and the drawn count's reference order, as the scalar
    oracle selects them at that count."""
    rng = np.random.default_rng(32)
    for draw in range(100):
        config = NetworkConfig(M=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)),
                               K=int(rng.integers(1, 5)), Nt=int(rng.integers(1, 5)))
        config.assignment[:] = rng.random(config.assignment.shape) < 0.7
        h = synthetic_channels(config, draw)
        drawn = int(rng.integers(0, config.n_users + 2))
        ranks = reference_map(h, config)
        for r_count in range(config.n_users + 2):
            expected = oracle_references(h, config, r_count)
            assert np.array_equal(ranks < r_count, mask_of(config, expected))
            if r_count == drawn:
                assert references_of(ranks, config, r_count) == expected


def test_reference_map_on_a_stack_of_draws():
    """On an array stacking 6 draws along two leading axes, every draw's
    ranks equal its own unstacked ranks bit for bit, on random sizes and
    partial assignments."""
    rng = np.random.default_rng(33)
    for draw in range(50):
        config = NetworkConfig(M=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)),
                               K=int(rng.integers(1, 5)), Nt=int(rng.integers(1, 5)))
        config.assignment[:] = rng.random(config.assignment.shape) < 0.7
        h = np.stack([synthetic_channels(config, 6 * draw + d) for d in range(6)])
        ranks = reference_map(h.reshape((2, 3) + h.shape[1:]), config)
        assert ranks.shape == (2, 3, config.M, config.K, config.N, config.n_users)
        for d, one in enumerate(h):
            assert np.array_equal(ranks[divmod(d, 3)], reference_map(one, config))


def random_config(rng, nt=None):
    """A random small config with about 30% of its (user, subchannel) pairs
    inactive."""
    config = NetworkConfig(M=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)),
                           K=int(rng.integers(1, 5)),
                           Nt=int(rng.integers(1, 5)) if nt is None else nt)
    config.assignment[:] = rng.random(config.assignment.shape) < 0.7
    return config


@pytest.mark.parametrize("nt", [None, 1])
def test_reference_mask_is_the_ranks_below_every_count(nt):
    """reference_mask(h, config, r) is reference_map(h, config) < r bit for
    bit for every r from 0 to MK, on random sizes (at Nt = 1 too) with
    inactive triples: the argmin path at r <= 1, the ranks above."""
    rng = np.random.default_rng(34)
    for draw in range(60):
        config = random_config(rng, nt)
        h = synthetic_channels(config, draw)
        ranks = reference_map(h, config)
        for r_count in range(config.n_users + 1):
            mask = reference_mask(h, config, r_count)
            assert mask.shape == ranks.shape and mask.dtype == bool
            assert np.array_equal(mask, ranks < r_count)


def test_reference_mask_of_a_stack_with_one_count_per_draw():
    """On 6 draws stacked along two leading axes, with one count per draw
    (all at most 1, then up to MK) or one for all, every draw's mask is its
    own ranks below its count."""
    rng = np.random.default_rng(35)
    for draw in range(50):
        config = random_config(rng)
        h = np.stack([synthetic_channels(config, 6 * draw + d) for d in range(6)])
        h = h.reshape((2, 3) + h.shape[1:])
        ranks = reference_map(h, config)
        for counts in (rng.integers(0, 2, size=(2, 3)),
                       rng.integers(0, config.n_users + 1, size=(2, 3)),
                       int(rng.integers(0, 3))):
            expected = ranks < np.reshape(counts, np.shape(counts) + (1, 1, 1, 1))
            assert np.array_equal(reference_mask(h, config, counts), expected)


@pytest.mark.parametrize("size", [(3, 3, 3, 3), (2, 1, 3, 2), (1, 2, 5, 4), (3, 2, 2, 1)])
def test_duplicated_users_tie_to_the_lowest_index_on_both_paths(size):
    """Two users with the same channel from every BS on every subchannel
    score exactly alike for every beam that has both as candidates. The
    lower index ranks just before the higher one, and one reference is the
    lower one on the argmin path as on the ranks; made the strongest users,
    they are every other beam's single reference."""
    m_bs, n_sub, k_users, nt = size
    config = NetworkConfig(M=m_bs, N=n_sub, K=k_users, Nt=nt)
    rng = np.random.default_rng(36)
    for draw in range(20):
        h = synthetic_channels(config, 100 + draw)
        low, high = sorted(rng.choice(config.n_users, size=2, replace=False))
        h[:, high] = h[:, low] = 1e3 * h[:, low]
        ranks = reference_map(h, config)
        both = full_mask(config)[..., low] & full_mask(config)[..., high]
        assert both.any()
        assert np.array_equal(ranks[..., high][both], ranks[..., low][both] + 1)
        mask = reference_mask(h, config, 1)
        assert np.array_equal(mask, ranks < 1)
        assert np.all(mask[..., low][both]) and not np.any(mask[..., high][both])


def test_negative_reference_count_rejected():
    config = NetworkConfig(M=1, N=1, K=2, Nt=2)
    h = synthetic_channels(config)
    init = init_mslnr(h, config)[None]
    with pytest.raises(ConfigurationError, match="reference count"):
        solve_batch(h[None], config, init, "cb_refim", ref_counts=[-1])


def test_single_candidate_is_selected():
    config = NetworkConfig(M=1, N=1, K=2, Nt=2)
    h = synthetic_channels(config, 1)
    refs = select_references(h, config, 0, 0, 0, r_count=3)
    assert refs == [(0, 1)]


def test_orthogonal_candidate_loses():
    config = NetworkConfig(M=1, N=1, K=3, Nt=2)
    h = np.zeros((1, 3, 1, 2), dtype=complex)
    h[0, 0, 0] = [1.0, 0.0]
    h[0, 1, 0] = [0.0, 5.0]       # orthogonal to user 0: score 0
    h[0, 2, 0] = [0.1, 0.0]       # weakly aligned, but nonzero score
    refs = select_references(h, config, 0, 0, 0, r_count=1)
    assert refs == [(0, 2)]


def test_selection_matches_exhaustive_argmax():
    config = NetworkConfig()
    h = realize_network(config, 2)[1]
    for m in range(config.M):
        for k in range(config.K):
            for n in range(config.N):
                hk = h[m, config.user_id(m, k), n]
                best, best_score = None, -1.0
                for j in range(config.M):
                    for u in range(config.K):
                        if (j, u) == (m, k):
                            continue
                        hu = h[m, config.user_id(j, u), n]
                        gmat = np.outer(hu, hu.conj())
                        score = np.linalg.norm(gmat @ hk) ** 2
                        # identity: ||G h_k||^2 = ||h_u||^2 |h_u^H h_k|^2
                        alt = (np.linalg.norm(hu) ** 2
                               * abs(np.vdot(hu, hk)) ** 2)
                        assert score == pytest.approx(alt, rel=1e-10)
                        if score > best_score:
                            best, best_score = (j, u), score
                assert select_references(h, config, m, k, n, 1) == [best]


def test_selection_orders_by_score_and_caps_at_candidates():
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    h = synthetic_channels(config, 3)
    refs = select_references(h, config, 0, 0, 0, r_count=99)
    assert len(refs) == config.M * config.K - 1
    assert (0, 0) not in refs
    assert len(set(refs)) == len(refs)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0))
def test_selection_invariant_to_own_channel_rescaling(scale):
    config = NetworkConfig(M=2, N=1, K=2, Nt=3)
    h = synthetic_channels(config, 4)
    base = select_references(h, config, 0, 0, 0, 2)
    scaled = h.copy()
    scaled[0, 0, 0] *= scale
    assert select_references(scaled, config, 0, 0, 0, 2) == base


def test_single_antenna_reduces_to_strongest_gain():
    """With one transmit antenna the alignment factor is common, so the rule
    picks the candidate with the strongest channel gain."""
    config = NetworkConfig(M=3, N=1, K=2, Nt=1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        h = (rng.standard_normal((3, 6, 1, 1))
             + 1j * rng.standard_normal((3, 6, 1, 1)))
        m, k = rng.integers(0, 3), rng.integers(0, 2)
        refs = select_references(h, config, m, int(k), 0, 1)
        candidates = [(j, u) for j in range(3) for u in range(2) if (j, u) != (m, k)]
        gains = [abs(h[m, 2 * j + u, 0, 0]) ** 2 for j, u in candidates]
        assert refs == [candidates[int(np.argmax(gains))]]


def test_reference_map_covers_active_triples():
    """An inactive beam has no candidates, and an inactive user is no
    beam's candidate on that subchannel."""
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    config.assignment[1, 0, 1] = False
    h = synthetic_channels(config, 6)
    candidates = reference_map(h, config) < np.iinfo(np.intp).max
    assert not candidates[1, 0, 1].any()
    assert not candidates[:, :, 1, config.user_id(1, 0)].any()
    assert np.sum(candidates.any(axis=-1)) == 2 * 2 * 2 - 1


# ---------------------------------------------------------------------------
# truncated leakage
# ---------------------------------------------------------------------------

def leakages(h, beams, config, mask):
    """Leakage matrix of every triple over the victim mask, (M, K, N, Nt, Nt),
    as the solver builds it from the beams' link state."""
    q = _q_from_link(config, link_state(h, beams, config))
    return _all_leakages(h, q, mask)


def test_refim_leakage_empty_refs_is_selfish_mode():
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    h = synthetic_channels(config, 7)
    leak = leakages(h, random_beams(config, 8), config, reference_mask(h, config, 0))
    assert np.all(leak == 0.0)


def test_refim_leakage_single_reference_is_rank_one():
    config = NetworkConfig()
    h = realize_network(config, 9)[1]
    beams = random_beams(config, 10, scale=0.2)
    leak = leakages(h, beams, config, reference_mask(h, config, 1))
    evals = np.sort(np.linalg.eigvalsh(leak), axis=-1)[..., ::-1]
    assert np.all(evals[..., 0] > 0.0)
    assert np.all(evals[..., 1] <= 1e-10 * np.trace(leak, axis1=-2, axis2=-1).real)


def test_refim_leakage_all_candidates_equals_full():
    config = NetworkConfig()
    h = realize_network(config, 11)[1]
    beams = random_beams(config, 12, scale=0.2)
    truncated = leakages(h, beams, config,
                         reference_mask(h, config, config.M * config.K - 1))
    full = leakages(h, beams, config, full_mask(config))
    dev = np.linalg.norm(truncated - full, axis=(-2, -1))
    assert np.all(dev <= 1e-12 * np.maximum(np.linalg.norm(full, axis=(-2, -1)), 1e-300))


@pytest.mark.parametrize("size", [{}, {"M": 3, "K": 4, "N": 2, "Nt": 2}],
                         ids=["desk", "m3k4n2t2"])
def test_cb_refim_with_every_reference_is_icbf(size):
    """At r = MK - 1 every other user is a reference, the truncated leakage is
    the full one, and a cb_refim solve is an icbf solve bit for bit, in beams
    and in every step's sum rate, the two interleaved in one batch."""
    config = NetworkConfig(**size)
    draws = [realize_network(config, seed)[1] for seed in range(4)]
    h = np.stack([ch for ch in draws for _ in range(2)])
    inits = np.stack([init_mslnr(ch, config) for ch in h])
    beams, record = solve_batch(h, config, inits, ["icbf", "cb_refim"] * len(draws),
                                config.M * config.K - 1)
    for j in range(0, len(h), 2):
        icbf, cb_refim = record.trace(j), record.trace(j + 1)
        assert np.array_equal(beams[j], beams[j + 1])
        assert icbf.sum_rates == cb_refim.sum_rates
        assert icbf.iteration_index == cb_refim.iteration_index


# ---------------------------------------------------------------------------
# sequential rank-one inversion
# ---------------------------------------------------------------------------

def test_invert_rank_r_empty():
    g = invert_rank_r(np.zeros(0), np.zeros((0, 3)), 2.0)
    assert np.allclose(g, np.eye(3) / (2.0 * LN2))


def test_invert_rank_r_single_term_matches_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = rng.uniform(0.01, 3.0)
        lam = 10.0 ** rng.uniform(-3, 1)
        gs = gamma_sherman_morrison(q * np.outer(h, h.conj()), lam)
        gr = invert_rank_r(np.array([q]), h[None], lam)
        assert np.linalg.norm(gr - gs) <= 1e-12 * np.linalg.norm(gs)


def test_invert_rank_r_three_terms_residual():
    rng = np.random.default_rng(14)
    for _ in range(25):
        hs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        qs = rng.uniform(0.01, 2.0, size=3)
        total = np.einsum("r,ra,rb->ab", qs, hs, hs.conj())
        lam = 10.0 ** rng.uniform(-2, 1)
        g = invert_rank_r(qs, hs, lam)
        t = lam * LN2 * np.eye(3) + total
        assert np.linalg.norm(g @ t - np.eye(3)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(min_value=1e-4, max_value=10.0),
       r=st.integers(0, 4))
def test_invert_rank_r_positive_definite(seed, lam, r):
    rng = np.random.default_rng(seed)
    qs = rng.uniform(0.0, 2.0, size=r)
    hs = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
    g = invert_rank_r(qs, hs, lam)
    assert np.allclose(g, g.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0


def test_invert_rank_r_batched_matches_each_slice():
    """Leading axes batch independent inverses, each with its own lambda;
    zero coefficients drop their terms."""
    rng = np.random.default_rng(15)
    qs = rng.uniform(0.0, 2.0, size=(2, 4, 3))
    qs[0, 1, 2] = qs[1, :, 0] = 0.0
    hs = rng.standard_normal((2, 4, 3, 2)) + 1j * rng.standard_normal((2, 4, 3, 2))
    lams = np.array([[0.3], [2.0]])
    g = invert_rank_r(qs, hs, lams)
    assert g.shape == (2, 4, 2, 2)
    for b in range(2):
        for a in range(4):
            t = (lams[b, 0] * LN2 * np.eye(2)
                 + np.einsum("r,ra,rb->ab", qs[b, a], hs[b, a], hs[b, a].conj()))
            assert np.linalg.norm(g[b, a] @ t - np.eye(2)) <= 1e-12
            keep = qs[b, a] > 0
            single = invert_rank_r(qs[b, a, keep], hs[b, a, keep], lams[b, 0])
            assert np.linalg.norm(g[b, a] - single) <= 1e-14 * np.linalg.norm(single)


@pytest.mark.parametrize("seed, gamma_db", [(1, 10.0), (2, 30.0), (3, 50.0)])
def test_cb_refim_gamma_h_matches_the_rank_one_recursion(seed, gamma_db):
    """On a real channel draw, the Gamma h that a cb_refim solve takes from its
    evaluator's eigendecomposition equals the paper's recursion times h, at
    every reference count 0..MK-1 (0 gives Gamma = I / x) and at the dual
    floor, the bracket middle and lambda_upper.

    Both are exact inverses of T = L + x I, so they agree to 1e-10 relative
    up to T's conditioning. At the dual floor x is about 7e-11: rounding in
    L of order eps ||L|| then moves either inverse by up to about
    eps cond(T) relative, and with fewer references than antennas cond(T)
    is near 1e12, so the bound there widens by 8 eps cond(T)."""
    config = NetworkConfig(gamma_db=gamma_db)
    h = realize_network(config, seed)[1]
    q = _q_from_link(config, link_state(h, init_mslnr(h, config), config))
    counts = np.arange(config.n_users)
    stack = np.broadcast_to(h, counts.shape + h.shape)
    masks = reference_mask(stack, config, counts)
    leak = _all_leakages(stack, q, masks)                      # (count, M, K, N, Nt, Nt)
    ev = DualEvaluator(stack, leak, config, "direct")
    coeffs = _victim_weights(masks, q)                         # (count, M, K, N, MK)
    victims = h.swapaxes(1, 2)[:, None]                        # (M, 1, N, MK, Nt)
    own = own_links(h, config)
    e_max = np.linalg.eigvalsh(leak)[..., -1]
    for lam in (np.full(ev.lam_up.shape, config.lambda_min),
                0.5 * (config.lambda_min + ev.lam_up), ev.lam_up):
        lam = lam.reshape(len(counts), config.M, 1, 1)
        got = ev.gamma_h(lam)
        want = np.einsum("...ij,...j->...i", invert_rank_r(coeffs, victims, lam), own)
        x = lam * LN2
        rel = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
        assert np.all(rel <= 1e-10 + 8.0 * np.finfo(float).eps * (e_max + x) / x)


# ---------------------------------------------------------------------------
# feedback accounting
# ---------------------------------------------------------------------------

def test_feedback_hand_computation():
    # M=3 full mesh, N=3, K=3, Nt=3, 8 bits:
    # per (m, n): 6 neighbour users -> icbf 6 * (2*3 + 3) = 54 reals;
    # cb_refim with 3 distinct out-of-cell references: 6*6 + 3*3 = 45 reals
    config = NetworkConfig()
    icbf = feedback_bits(config, "icbf", qbits=8)
    assert icbf == 3 * 3 * 54 * 8 == 3888
    counts = np.full((3, 3), 3, dtype=int)
    cb = feedback_bits(config, "cb_refim", counts, qbits=8)
    assert cb == 3 * 3 * 45 * 8 == 3240
    assert cb / icbf == pytest.approx(45.0 / 54.0)


def test_feedback_fewer_bits_when_references_repeat():
    config = NetworkConfig()
    dense = feedback_bits(config, "cb_refim", np.full((3, 3), 3), qbits=8)
    sparse = feedback_bits(config, "cb_refim", np.full((3, 3), 1), qbits=8)
    assert sparse < dense


def test_feedback_ratio_approaches_one_for_many_antennas():
    config = NetworkConfig(M=3, N=3, K=3, Nt=1000)
    icbf = feedback_bits(config, "icbf", qbits=8)
    cb = feedback_bits(config, "cb_refim", np.full((3, 3), 3), qbits=8)
    assert cb / icbf > 0.99


def test_out_of_cell_reference_counting():
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    refmap = {
        (0, 0, 0): [(1, 0)],
        (0, 1, 0): [(1, 0)],          # repeat: counted once
        (1, 0, 0): [(1, 1)],          # intra-cell: free
        (1, 1, 0): [(0, 1)],
    }
    counts = out_of_cell_reference_counts(config, mask_of(config, refmap))
    assert counts[0, 0] == 1
    assert counts[1, 0] == 1


def test_feedback_accounting_matches_loop_reference():
    """The array forms count exactly what the per-(m, n) loops count, on
    random assignments and reference maps (repeats and own-cell picks
    included)."""
    rng = np.random.default_rng(16)
    for _ in range(200):
        config = NetworkConfig(M=int(rng.integers(1, 4)), K=int(rng.integers(1, 6)),
                               N=int(rng.integers(1, 4)), Nt=int(rng.integers(1, 5)))
        config.assignment[:] = rng.random(config.assignment.shape) < 0.8
        refmap = {}
        for m, k, n in zip(*np.nonzero(config.assignment)):
            others = [(j, u) for j in range(config.M) for u in range(config.K)
                      if (j, u) != (m, k)]
            picks = rng.integers(0, len(others) + 1, size=rng.integers(0, 4))
            refmap[(m, k, n)] = [others[i] for i in picks if i < len(others)]
        counts = out_of_cell_reference_counts(config, mask_of(config, refmap))
        assert np.array_equal(counts,
                              reference.out_of_cell_reference_counts_loop(config, refmap))
        for algo in ("icbf", "icbf_wi", "cb_refim"):
            bits = feedback_bits(config, algo, counts, qbits=8)
            assert type(bits) is int
            assert bits == reference.feedback_bits_loop(config, algo, counts, qbits=8)


def test_reference_counts_of_a_stack_of_draws():
    """On a (T, M, K, N, MK) stack of victim masks the counts are each
    draw's own, as one call per draw and the loop oracle count them."""
    rng = np.random.default_rng(29)
    for m, k, n in [(1, 3, 2), (2, 2, 1), (3, 4, 3)]:
        config = NetworkConfig(M=m, K=k, N=n, Nt=2)
        users = [(j, u) for j in range(m) for u in range(k)]
        refmaps = []
        for _ in range(5):
            refmaps.append({(a, b, c): [users[i] for i in rng.integers(0, len(users), size=2)
                                        if users[i] != (a, b)]
                            for a, b, c in reference.active_triples(config)})
        counts = out_of_cell_reference_counts(
            config, np.stack([mask_of(config, refmap) for refmap in refmaps]))
        assert counts.shape == (5, m, n)
        for got, refmap in zip(counts, refmaps, strict=True):
            assert np.array_equal(got, out_of_cell_reference_counts(config,
                                                                    mask_of(config, refmap)))
            assert np.array_equal(got, reference.out_of_cell_reference_counts_loop(config,
                                                                                   refmap))


def test_feedback_bits_of_a_stack_of_counts():
    """A (2, 3, M, N) stack of reference counts gives one bit count per draw,
    each equal to its own call, and the full algorithm's count ignores it."""
    rng = np.random.default_rng(41)
    for m, k, n, nt in [(1, 2, 1, 1), (2, 3, 2, 2), (3, 4, 3, 4)]:
        config = NetworkConfig(M=m, K=k, N=n, Nt=nt)
        config.assignment[:] = rng.random(config.assignment.shape) < 0.8
        counts = rng.integers(0, (m - 1) * k + 1, size=(2, 3, m, n))
        bits = feedback_bits(config, "cb_refim", counts, qbits=6)
        assert bits.shape == (2, 3) and bits.dtype == np.int64
        for index in np.ndindex(2, 3):
            one = feedback_bits(config, "cb_refim", counts[index], qbits=6)
            assert type(one) is int and bits[index] == one
            assert one == reference.feedback_bits_loop(config, "cb_refim", counts[index], 6)
        assert (feedback_bits(config, "icbf", counts, qbits=6)
                == feedback_bits(config, "icbf", qbits=6))


def test_feedback_requires_counts_for_reference_mode():
    config = NetworkConfig()
    with pytest.raises(Exception):
        feedback_bits(config, "cb_refim", None, qbits=8)
