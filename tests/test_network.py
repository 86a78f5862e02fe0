"""Topology, channel and noise model tests."""
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbsim.config import NetworkConfig
from cbsim.errors import ConfigurationError, InvalidStateError
from cbsim.network import (ChannelState, apply_noise, build_topology,
                           compute_noise, draw_channels, draw_fading, draw_long_term,
                           dump_channels_csv, dump_topology_csv, normalize_channels,
                           path_gain, realize_network)


def small_config(**kw):
    defaults = dict(M=3, N=2, K=2, Nt=2)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def test_coordinated_bs_spacing_is_2000m():
    topo = build_topology(NetworkConfig(), seed=0)
    bs = topo.bs_xy[:3]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(bs[i] - bs[j]) == pytest.approx(2000.0)


def test_24_uncoordinated_sites_on_surrounding_rings():
    topo = build_topology(NetworkConfig(), seed=1)
    assert topo.bs_xy.shape == (27, 2)
    centroid = topo.bs_xy[:3].mean(axis=0)
    ring = np.linalg.norm(topo.bs_xy[3:] - centroid, axis=1)
    # surrounding sites sit beyond the cluster's own centroid distance
    assert ring.min() > np.linalg.norm(topo.bs_xy[0] - centroid)
    assert len(set(map(tuple, np.round(topo.bs_xy, 3)))) == 27


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_user_distances_within_annulus(seed):
    config = NetworkConfig()
    topo = build_topology(config, seed)
    for m in range(config.M):
        for k in range(config.K):
            d = np.linalg.norm(topo.user_xy[m, k] - topo.bs_xy[m])
            assert 500.0 <= d <= 1100.0


def test_topology_deterministic():
    a = build_topology(NetworkConfig(), seed=99)
    b = build_topology(NetworkConfig(), seed=99)
    assert np.array_equal(a.bs_xy, b.bs_xy)
    assert np.array_equal(a.user_xy, b.user_xy)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_topology_owns_its_sites(m):
    """The sites are computed once per cluster size, but each topology gets
    its own writable copy: moving a BS in one leaves the next one untouched,
    and the ring stays the pinned one."""
    pinned = json.loads((Path(__file__).resolve().parent / "data"
                         / "fingerprint.json").read_text())["rings"][str(m)]
    config = NetworkConfig(M=m, K=2)
    first = build_topology(config, seed=5)
    assert first.bs_xy.flags.writeable
    first.bs_xy[m] = first.user_xy[0, 0]
    first.bs_xy[0] += 100.0
    second = build_topology(config, seed=5)
    assert not np.shares_memory(first.bs_xy, second.bs_xy)
    assert second.bs_xy[0].tolist() == [0.0, 0.0]
    assert second.bs_xy[m:].tolist() == pinned
    assert np.array_equal(second.bs_xy, build_topology(config, seed=6).bs_xy)
    assert np.array_equal(second.user_xy, first.user_xy)


def test_unsupported_cluster_size_rejected():
    with pytest.raises(ConfigurationError, match="M=4"):
        NetworkConfig(M=4)


def test_small_clusters_supported():
    for m in (1, 2):
        topo = build_topology(NetworkConfig(M=m, K=1), seed=0)
        assert topo.bs_xy.shape == (m + 24, 2)


def test_path_gain_reference_distance():
    assert path_gain(200.0) == pytest.approx(1.0)
    # (200/400)^3.5 evaluated by hand
    assert path_gain(400.0) == pytest.approx(0.08838834764831845, rel=1e-12)


def test_shadowing_statistics():
    # ~1e5 links: 27 BSs x 3702 users
    config = NetworkConfig(M=3, K=1234, N=1, Nt=1)
    topo = build_topology(config, seed=3)
    state = draw_channels(topo, config, seed=4)
    shadow_db = 10.0 * np.log10(state.shadow).ravel()
    assert shadow_db.size >= 1e5 - 100
    assert abs(shadow_db.mean()) < 0.3
    assert abs(shadow_db.std() - 8.0) < 0.3


def test_rayleigh_component_statistics():
    # ~1e5 coordinated links: 3 BSs x 33,336 users
    config = NetworkConfig(M=3, K=11112, N=1, Nt=1)
    topo = build_topology(config, seed=5)
    state = draw_channels(topo, config, seed=6)
    amp2 = path_gain(topo.user_bs_distances()[:config.M]) * state.shadow[:config.M]
    fading = state.raw[:, :, 0, 0] / np.sqrt(amp2)
    flat = fading.ravel()
    assert flat.size >= 1e5
    assert abs(flat.mean()) < 3.0 / np.sqrt(flat.size)
    assert abs(np.mean(np.abs(flat) ** 2) - 1.0) < 0.02


@pytest.mark.parametrize("m", [1, 2, 3])
def test_draw_equals_the_coordinated_rows_of_a_full_draw(m):
    """raw is the first M rows of a fading draw for every BS, bit for bit,
    the shadowing is that draw's in full, and the noise, from the ring's
    distances alone, equals the noise built from the full distance matrix."""
    for k, n, nt in itertools.product((1, 2, 10), (1, 3), (1, 2, 4)):
        config = NetworkConfig(M=m, K=k, N=n, Nt=nt, gamma_db=20.0)
        for seed in (0, 17, 2**32 - 1):
            topo = build_topology(config, seed)
            state = draw_channels(topo, config, seed ^ 1)
            raw, shadow, dist = reference.draw_channels_full(topo.bs_xy, topo.user_xy,
                                                             n, nt, seed ^ 1)
            assert state.raw.shape == (m, m * k, n, nt)
            assert np.array_equal(state.raw, raw[:m])
            assert np.array_equal(state.shadow, shadow)
            assert np.array_equal(compute_noise(topo, config, state),
                                  reference.noise_full(dist, shadow, m, n,
                                                       config.Pmax, config.sigma2))


@pytest.mark.parametrize("m", [1, 3])
def test_one_long_term_draw_serves_every_antenna_count(m):
    """One long-term draw, then the fading at Nt = 1, 2 and 4 in either
    order, gives at each Nt the first M rows of a full draw, its shadowing
    and noise, and the normalized channels, bit for bit."""
    for k, n, seed in [(1, 1, 0), (2, 3, 17), (10, 3, 2**32 - 1)]:
        config = NetworkConfig(M=m, K=k, N=n, Nt=1, gamma_db=20.0)
        topo = build_topology(config, seed)
        for order in ((1, 2, 4), (4, 1, 2)):
            long_term = draw_long_term(topo, config, seed ^ 1)
            noise = compute_noise(topo, config, ChannelState(shadow=long_term.shadow))
            for nt in order:
                cfg = replace(config, Nt=nt, weights=None, assignment=None)
                raw = draw_fading(long_term, cfg)
                full, shadow, dist = reference.draw_channels_full(topo.bs_xy, topo.user_xy,
                                                                  n, nt, seed ^ 1)
                want_noise = reference.noise_full(dist, shadow, m, n, cfg.Pmax, cfg.sigma2)
                assert np.array_equal(raw, full[:m])
                assert np.array_equal(long_term.shadow, shadow)
                assert np.array_equal(noise, want_noise)
                h = normalize_channels(ChannelState(raw=raw, noise=noise), cfg).normalized
                assert np.array_equal(
                    h, full[:m] * (1.0 / np.sqrt(want_noise))[None, :, :, None])


def test_channel_draw_deterministic():
    config = small_config()
    topo = build_topology(config, seed=11)
    a = draw_channels(topo, config, seed=22)
    b = draw_channels(topo, config, seed=22)
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.shadow, b.shadow)


def test_noise_floor_without_interferers():
    config = small_config(gamma_db=20.0)
    topo = build_topology(config, seed=0)
    state = draw_channels(topo, config, seed=1)
    state.shadow[config.M:] = 0.0   # silence the uncoordinated ring
    noise = compute_noise(topo, config, state)
    assert np.allclose(noise, config.sigma2)


def test_noise_single_interferer_contribution():
    # one uncoordinated BS at 200 m with unit shadowing and Pmax = N
    config = small_config(N=2, Pmax=2.0, gamma_db=30.0)
    topo = build_topology(config, seed=0)
    state = draw_channels(topo, config, seed=1)
    state.shadow[config.M:] = 0.0
    state.shadow[config.M, 0] = 1.0
    topo.bs_xy[config.M] = topo.user_xy[0, 0] + np.array([200.0, 0.0])
    noise = compute_noise(topo, config, state)
    assert noise[0, 0] == pytest.approx(config.sigma2 + 1.0)


def test_noise_dominates_thermal_at_high_snr():
    config = small_config(gamma_db=200.0)
    topo = build_topology(config, seed=2)
    state = draw_channels(topo, config, seed=3)
    noise = compute_noise(topo, config, state)
    gains = path_gain(topo.user_bs_distances()[config.M:]) * state.shadow[config.M:]
    interference = gains.sum(axis=0) * config.Pmax / config.N
    assert np.allclose(noise[:, 0], interference, rtol=1e-10)


def test_noise_at_least_thermal():
    config = small_config()
    topo, state = realize_network(config, 8)
    assert np.all(state.noise >= config.sigma2)


def test_normalization_reconstruction_identity():
    config = small_config()
    topo, state = realize_network(config, 13)
    rebuilt = state.normalized * np.sqrt(state.noise)[None, :, :, None]
    assert np.allclose(rebuilt, state.raw[:config.M], rtol=1e-12, atol=0)
    norm_n = np.linalg.norm(state.normalized, axis=-1) ** 2 * state.noise[None]
    norm_raw = np.linalg.norm(state.raw[:config.M], axis=-1) ** 2
    assert np.allclose(norm_n, norm_raw, rtol=1e-12)


def test_unit_noise_leaves_channels_unchanged():
    config = small_config()
    topo = build_topology(config, seed=4)
    state = draw_channels(topo, config, seed=5)
    state.noise = np.ones((config.n_users, config.N))
    normalize_channels(state, config)
    assert np.array_equal(state.normalized, state.raw[:config.M])


def test_scalar_noise_division():
    state = ChannelState(
        raw=np.array([[[[2.0 + 0j, 0.0, 0.0]]]]),
        shadow=np.ones((1, 1)),
        noise=np.full((1, 1), 4.0))
    normalize_channels(state, NetworkConfig(M=1, N=1, K=1, Nt=3))
    assert np.allclose(state.normalized[0, 0, 0], [1.0, 0.0, 0.0])


def test_nonpositive_noise_rejected():
    config = small_config()
    topo = build_topology(config, seed=4)
    state = draw_channels(topo, config, seed=5)
    state.noise = np.zeros((config.n_users, config.N))
    with pytest.raises(InvalidStateError):
        normalize_channels(state, config)


def test_normalize_requires_noise():
    config = small_config()
    topo = build_topology(config, seed=4)
    state = draw_channels(topo, config, seed=5)
    with pytest.raises(InvalidStateError):
        normalize_channels(state, config)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_realization_deterministic(seed):
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    _, a = realize_network(config, seed)
    _, b = realize_network(config, seed)
    assert np.array_equal(a.normalized, b.normalized)
    assert np.array_equal(a.noise, b.noise)


def test_apply_noise_shares_raw_draw():
    config = small_config(gamma_db=10.0)
    topo = build_topology(config, seed=6)
    raw = draw_channels(topo, config, seed=7)
    lo = apply_noise(topo, config.with_gamma_db(10.0), raw)
    hi = apply_noise(topo, config.with_gamma_db(40.0), raw)
    assert lo.raw is raw.raw
    assert np.all(hi.noise < lo.noise)
    # every SNR point in one broadcast: each point's state bit for bit
    sigma2 = [config.with_gamma_db(gamma).sigma2 for gamma in (10.0, 40.0)]
    both = apply_noise(topo, config, raw, sigma2)
    assert both.raw is raw.raw
    for point, alone in enumerate((lo, hi)):
        assert np.array_equal(both.noise[point], alone.noise)
        assert np.array_equal(both.normalized[point], alone.normalized)


def test_csv_dumps(tmp_path):
    """Both dumps in their documented layout: the M coordinated sites first,
    and one channel row per (m, k, n) with re/im per antenna, h[0, 0, 0]
    first."""
    config = small_config()
    topo, state = realize_network(config, 21)
    h = state.normalized
    tpath = tmp_path / "topo.csv"
    cpath = tmp_path / "chan.csv"
    dump_topology_csv(topo, tpath)
    dump_channels_csv(h, cpath)
    tlines = tpath.read_text().splitlines()
    assert tlines[0] == "kind,cell,index,x_m,y_m"
    assert len(tlines) == 1 + 27 + config.M * config.K
    kinds = [line.split(",")[0] for line in tlines[1:]]
    assert kinds[:config.M] == ["bs_coordinated"] * config.M
    assert kinds.count("bs_coordinated") == config.M
    clines = cpath.read_text().splitlines()
    assert clines[0] == "m,k,n," + ",".join(f"re{a},im{a}" for a in range(config.Nt))
    assert len(clines) == 1 + config.M * config.n_users * config.N
    first = clines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    values = np.array([float(x) for x in first[3:]])
    assert np.allclose(values[0::2] + 1j * values[1::2], h[0, 0, 0], rtol=1e-12, atol=0)
