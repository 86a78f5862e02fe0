"""Baseline beamformer tests."""
import numpy as np
import pytest

import reference
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, DegenerateChannelError
from cbsim.initializers import init_cm, init_mslnr, init_zf, make_initial_beams
from cbsim.metrics import bs_powers, power_feasible
from cbsim.network import ChannelState, realize_network


def synthetic_channels(config, seed=0):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.n_users, config.N, config.Nt)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return ChannelState(normalized=h, n_coordinated=config.M)


def test_cm_unit_power_and_direction():
    config = NetworkConfig(M=1, N=1, K=1, Nt=2, Pmax=1.0)
    h = np.zeros((1, 1, 1, 2), dtype=complex)
    c = np.exp(0.7j)
    h[0, 0, 0] = np.array([3.0, 4.0]) * c
    state = ChannelState(normalized=h, n_coordinated=1)
    beams = init_cm(state, config)
    v = beams[0, 0, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0)
    # parallel to the channel: |h^H v| = ||h|| ||v||
    assert abs(np.vdot(h[0, 0, 0], v)) == pytest.approx(5.0)


def test_cm_splits_power_exactly():
    config = NetworkConfig(Pmax=2.5)
    _, state = realize_network(config, 1)
    beams = init_cm(state, config)
    assert np.allclose(bs_powers(beams), config.Pmax, rtol=1e-12)


def test_cm_single_antenna_is_phase():
    config = NetworkConfig(M=1, N=1, K=1, Nt=1, Pmax=4.0)
    h = np.full((1, 1, 1, 1), 1.0 - 1.0j)
    state = ChannelState(normalized=h, n_coordinated=1)
    v = init_cm(state, config)[0, 0, 0, 0]
    assert abs(v) == pytest.approx(2.0)     # sqrt(Pmax / (N K))
    assert np.angle(v) == pytest.approx(np.angle(h[0, 0, 0, 0]))


def test_zf_single_user_equals_cm():
    config = NetworkConfig(M=2, N=2, K=1, Nt=2)
    state = synthetic_channels(config, seed=2)
    assert np.allclose(init_zf(state, config), init_cm(state, config))


def test_zf_keeps_orthogonal_channel():
    config = NetworkConfig(M=1, N=1, K=2, Nt=2)
    h = np.zeros((1, 2, 1, 2), dtype=complex)
    h[0, 0, 0] = [1.0, 0.0]
    h[0, 1, 0] = [0.0, 1.0]
    state = ChannelState(normalized=h, n_coordinated=1)
    beams = init_zf(state, config)
    v = beams[0, 0, 0]
    assert abs(v[0]) == pytest.approx(np.linalg.norm(v))


def test_zf_nulls_same_cell_channels():
    config = NetworkConfig(M=2, N=2, K=2, Nt=3)
    _, state = realize_network(config, 3)
    beams = init_zf(state, config)
    for m in range(config.M):
        for n in range(config.N):
            for k in range(config.K):
                for u in range(config.K):
                    if u == k:
                        continue
                    hu = state.normalized[m, config.user_id(m, u), n]
                    v = beams[m, k, n]
                    assert abs(np.vdot(hu, v)) <= 1e-10 * np.linalg.norm(hu) * np.linalg.norm(v)


def test_zf_requires_enough_antennas():
    config = NetworkConfig(M=1, N=1, K=3, Nt=2)
    state = synthetic_channels(config, seed=4)
    with pytest.raises(ConfigurationError):
        init_zf(state, config)


@pytest.mark.parametrize("K, first, second", [(2, 0, 1), (3, 1, 2)])
def test_zf_parallel_same_cell_channels_are_degenerate(K, first, second):
    """Two same-cell users with parallel channels on one subchannel: the first
    of them is named, and no singular solve escapes, also when a third user
    is independent of both."""
    config = NetworkConfig(M=2, N=2, K=K, Nt=3)
    h = synthetic_channels(config, seed=41).normalized.copy()
    h[1, config.user_id(1, second), 1] = 2.0 * h[1, config.user_id(1, first), 1]
    state = ChannelState(normalized=h, n_coordinated=config.M)
    with pytest.raises(DegenerateChannelError, match=rf"user \(1, {first}\) lies in the span"):
        init_zf(state, config)


def test_array_initializers_match_loop_oracles():
    """zf and mslnr equal the per-triple loop forms on random
    sizes and partial assignments; zf only where every cell has at most Nt
    active users per subchannel."""
    rng = np.random.default_rng(43)
    zf_draws = 0
    for draw in range(300):
        config = NetworkConfig(M=int(rng.integers(1, 4)), N=int(rng.integers(1, 4)),
                               K=int(rng.integers(1, 5)), Nt=int(rng.integers(1, 5)),
                               Pmax=float(rng.uniform(0.5, 4.0)))
        config.assignment[:] = rng.random(config.assignment.shape) < 0.7
        state = synthetic_channels(config, draw)
        got = init_mslnr(state, config)
        assert np.max(np.abs(got - reference.mslnr_loop(state, config)), initial=0.0) <= 1e-12
        if np.all(config.assignment.sum(axis=1) <= config.Nt):
            zf_draws += 1
            got = init_zf(state, config)
            assert np.max(np.abs(got - reference.zf_loop(state, config)), initial=0.0) <= 1e-12
    assert zf_draws >= 100


@pytest.mark.parametrize("init", [init_cm, init_zf, init_mslnr])
def test_initializers_on_a_stack_of_draws(init):
    """On a ChannelState stacking 4 channel draws, every initializer returns
    each draw's beams bit for bit, and a zero channel is reported by draw,
    cell and user."""
    config = NetworkConfig()
    config.assignment[0, 1, 2] = False
    states = [realize_network(config, seed)[1] for seed in range(4)]
    h = np.stack([state.normalized for state in states])
    beams = init(ChannelState(normalized=h, n_coordinated=config.M), config)
    assert beams.shape == (4, config.M, config.K, config.N, config.Nt)
    for draw, state in enumerate(states):
        assert np.array_equal(beams[draw], init(state, config))
    h[1, 2, config.user_id(2, 1), 0] = 0.0
    with pytest.raises(DegenerateChannelError, match=r"user \(2, 1\) of draw 1\b"):
        init(ChannelState(normalized=h, n_coordinated=config.M), config)


def test_mslnr_reduces_to_cm_without_other_users():
    config = NetworkConfig(M=1, N=1, K=1, Nt=3)
    state = synthetic_channels(config, seed=5)
    a = init_mslnr(state, config)[0, 0, 0]
    b = init_cm(state, config)[0, 0, 0]
    # same direction (up to phase) and same norm
    assert abs(np.vdot(a, b)) == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
    assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b))


def test_mslnr_direction_maximizes_rayleigh_quotient():
    config = NetworkConfig(M=2, N=1, K=2, Nt=3)
    state = synthetic_channels(config, seed=6)
    beams = init_mslnr(state, config)
    rng = np.random.default_rng(7)
    ridge = config.N * config.K / config.Pmax
    for m in range(config.M):
        for k in range(config.K):
            hk = state.normalized[m, config.user_id(m, k), 0]
            dmat = ridge * np.eye(config.Nt, dtype=complex)
            for j in range(config.M):
                for u in range(config.K):
                    if (j, u) == (m, k):
                        continue
                    hu = state.normalized[m, config.user_id(j, u), 0]
                    dmat += np.outer(hu, hu.conj())

            def quotient(x):
                num = abs(np.vdot(hk, x)) ** 2
                den = np.vdot(x, dmat @ x).real
                return num / den

            best = quotient(beams[m, k, 0])
            probes = (rng.standard_normal((10_000, config.Nt))
                      + 1j * rng.standard_normal((10_000, config.Nt)))
            vals = (np.abs(probes.conj() @ hk) ** 2
                    / np.einsum("pi,ij,pj->p", probes.conj(), dmat, probes).real)
            assert vals.max() <= best + 1e-9


def test_mslnr_equal_split_power():
    config = NetworkConfig(Pmax=3.0)
    _, state = realize_network(config, 8)
    beams = init_mslnr(state, config)
    assert np.allclose(bs_powers(beams), config.Pmax, rtol=1e-12)


def test_all_initializers_power_feasible():
    config = NetworkConfig()
    _, state = realize_network(config, 10)
    for name in ("cm", "zf", "mslnr"):
        beams = make_initial_beams(name, state, config)
        assert power_feasible(beams, config)


def test_mslnr_dominates_cm_and_zf_in_slnr():
    config = NetworkConfig()
    _, state = realize_network(config, 11)
    b_cm = init_cm(state, config)
    b_zf = init_zf(state, config)
    b_ms = init_mslnr(state, config)
    for m in range(config.M):
        for k in range(config.K):
            for n in range(config.N):
                best = reference.slnr_scalar(state, b_ms, config, m, k, n)
                assert best >= reference.slnr_scalar(state, b_cm, config, m, k, n) - 1e-9
                assert best >= reference.slnr_scalar(state, b_zf, config, m, k, n) - 1e-9


def test_unknown_initializer_rejected():
    config = NetworkConfig(M=1, N=1, K=1, Nt=1)
    state = synthetic_channels(config)
    with pytest.raises(ConfigurationError):
        make_initial_beams("mrc", state, config)
