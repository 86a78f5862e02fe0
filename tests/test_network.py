"""Topology, channel and noise model tests."""
import itertools
import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbsim.config import NetworkConfig
from cbsim.errors import (ConfigurationError, DegenerateChannelError, InvalidStateError,
                          UsageError)
from cbsim.network import (apply_noise, build_topology, compute_noise, draw_channels,
                           draw_fading, draw_streams, dump_channels_csv, dump_topology_csv,
                           long_term_of, normalize_channels, path_gain, place_users,
                           realize_network, stream_lengths)


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
    _, shadow = draw_channels(topo, config, seed=4)
    shadow_db = 10.0 * np.log10(shadow).ravel()
    assert shadow_db.size >= 1e5 - 100
    assert abs(shadow_db.mean()) < 0.3
    assert abs(shadow_db.std() - 8.0) < 0.3


def test_rayleigh_component_statistics():
    # ~1e5 coordinated links: 3 BSs x 33,336 users
    config = NetworkConfig(M=3, K=11112, N=1, Nt=1)
    topo = build_topology(config, seed=5)
    raw, shadow = draw_channels(topo, config, seed=6)
    amp2 = path_gain(topo.user_bs_distances()[:config.M]) * shadow[:config.M]
    fading = raw[:, :, 0, 0] / np.sqrt(amp2)
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
            got_raw, got_shadow = draw_channels(topo, config, seed ^ 1)
            raw, shadow, dist = reference.draw_channels_full(topo.bs_xy, topo.user_xy,
                                                             n, nt, seed ^ 1)
            assert got_raw.shape == (m, m * k, n, nt)
            assert np.array_equal(got_raw, raw[:m])
            assert np.array_equal(got_shadow, shadow)
            assert np.array_equal(compute_noise(topo, config, got_shadow),
                                  reference.noise_full(dist, shadow, m, n,
                                                       config.Pmax, config.sigma2))


@pytest.mark.parametrize("m", [1, 3])
def test_one_long_term_draw_serves_every_antenna_count(m):
    """One long-term draw read from a stream drawn for Nt = 4, then the
    fading at Nt = 1, 2 and 4 in either order, gives at each Nt the first M
    rows of a full draw, its shadowing and noise, and the normalized
    channels, bit for bit."""
    for k, n, seed in [(1, 1, 0), (2, 3, 17), (10, 3, 2**32 - 1)]:
        config = NetworkConfig(M=m, K=k, N=n, Nt=1, gamma_db=20.0)
        topo = build_topology(config, seed)
        largest = replace(config, Nt=4, weights=None, assignment=None)
        _, normals = draw_streams(largest, (seed, seed ^ 1))
        for order in ((1, 2, 4), (4, 1, 2)):
            long_term = long_term_of(topo, config, normals)
            noise = compute_noise(topo, config, long_term.shadow)
            for nt in order:
                cfg = replace(config, Nt=nt, weights=None, assignment=None)
                raw = draw_fading(long_term, cfg)
                full, shadow, dist = reference.draw_channels_full(topo.bs_xy, topo.user_xy,
                                                                  n, nt, seed ^ 1)
                want_noise = reference.noise_full(dist, shadow, m, n, cfg.Pmax, cfg.sigma2)
                assert np.array_equal(raw, full[:m])
                assert np.array_equal(long_term.shadow, shadow)
                assert np.array_equal(noise, want_noise)
                h = normalize_channels(raw, noise)
                assert np.array_equal(
                    h, full[:m] * (1.0 / np.sqrt(want_noise))[None, :, :, None])


def test_generator_draws_are_their_stream_values():
    """The numpy rules that let a drop and a draw read stream values:
    Generator.uniform(a, b) is a + (b - a) * random() and
    Generator.normal(0, 8) is 0 + 8 * standard_normal(), one stream value per
    output, and a later call continues the stream where the last one
    stopped. A numpy release that changed them would move every table."""
    for seed in range(1000):
        uniforms = np.random.default_rng(seed).random(60)
        rng = np.random.default_rng(seed)
        assert np.array_equal(rng.uniform(500.0, 1100.0, size=(3, 10)).ravel(),
                              500.0 + (1100.0 - 500.0) * uniforms[:30])
        assert np.array_equal(rng.uniform(0.0, 2.0 * np.pi, size=(3, 10)).ravel(),
                              0.0 + (2.0 * np.pi - 0.0) * uniforms[30:])
        normals = np.random.default_rng(seed).standard_normal(100)
        rng = np.random.default_rng(seed)
        assert np.array_equal(rng.normal(0.0, 8.0, size=(3, 20)).ravel(), 0.0 + 8.0 * normals[:60])
        assert np.array_equal(rng.standard_normal(40), normals[60:])


@pytest.mark.parametrize("m", [1, 3])
def test_a_smaller_cell_reads_a_prefix_of_the_streams(m):
    """For K = 1, 2, 10, N = 1, 3 and Nt = 1, 4, the drops, long-term draws,
    noise and fading read from a stack of two trials' streams drawn for
    K = 12 and Nt = 5 equal, for each trial, build_topology, the long-term
    draw of streams drawn for the cell, compute_noise and draw_channels at
    the cell, bit for bit."""
    seeds = [(0, 1), (17, 2**32 - 1)]
    for k, n, nt in itertools.product((1, 2, 10), (1, 3), (1, 4)):
        config = NetworkConfig(M=m, K=k, N=n, Nt=nt, gamma_db=20.0)
        larger = replace(config, K=12, Nt=5, weights=None, assignment=None)
        uniforms, normals = map(np.stack, zip(*[draw_streams(larger, s) for s in seeds]))
        drops = place_users(config, uniforms)
        long_term = long_term_of(drops, config, normals)
        noise = compute_noise(drops, config, long_term.shadow)
        raw = draw_fading(long_term, config)
        for i, (s_topo, s_chan) in enumerate(seeds):
            topo = build_topology(config, s_topo)
            alone = long_term_of(topo, config, draw_streams(config, (s_topo, s_chan))[1])
            raw_alone, shadow_alone = draw_channels(topo, config, s_chan)
            assert np.array_equal(drops.bs_xy, topo.bs_xy)
            assert np.array_equal(drops.user_xy[i], topo.user_xy)
            assert np.array_equal(long_term.shadow[i], alone.shadow)
            assert np.array_equal(long_term.shadow[i], shadow_alone)
            assert np.array_equal(long_term.amp[i], alone.amp)
            assert np.array_equal(noise[i], compute_noise(topo, config, shadow_alone))
            assert np.array_equal(raw[i], raw_alone)


def test_channel_draw_deterministic():
    config = small_config()
    topo = build_topology(config, seed=11)
    raw_a, shadow_a = draw_channels(topo, config, seed=22)
    raw_b, shadow_b = draw_channels(topo, config, seed=22)
    assert np.array_equal(raw_a, raw_b)
    assert np.array_equal(shadow_a, shadow_b)


def test_noise_floor_without_interferers():
    config = small_config(gamma_db=20.0)
    topo = build_topology(config, seed=0)
    _, shadow = draw_channels(topo, config, seed=1)
    shadow[config.M:] = 0.0   # silence the uncoordinated ring
    noise = compute_noise(topo, config, shadow)
    assert np.allclose(noise, config.sigma2)


def test_noise_single_interferer_contribution():
    # one uncoordinated BS at 200 m with unit shadowing and Pmax = N
    config = small_config(N=2, Pmax=2.0, gamma_db=30.0)
    topo = build_topology(config, seed=0)
    _, shadow = draw_channels(topo, config, seed=1)
    shadow[config.M:] = 0.0
    shadow[config.M, 0] = 1.0
    topo.bs_xy[config.M] = topo.user_xy[0, 0] + np.array([200.0, 0.0])
    noise = compute_noise(topo, config, shadow)
    assert noise[0, 0] == pytest.approx(config.sigma2 + 1.0)


def test_noise_dominates_thermal_at_high_snr():
    config = small_config(gamma_db=200.0)
    topo = build_topology(config, seed=2)
    _, shadow = draw_channels(topo, config, seed=3)
    noise = compute_noise(topo, config, shadow)
    gains = path_gain(topo.user_bs_distances()[config.M:]) * shadow[config.M:]
    interference = gains.sum(axis=0) * config.Pmax / config.N
    assert np.allclose(noise[:, 0], interference, rtol=1e-10)


def test_noise_at_least_thermal():
    config = small_config()
    topo = build_topology(config, seed=7)
    _, shadow = draw_channels(topo, config, seed=8)
    assert np.all(compute_noise(topo, config, shadow) >= config.sigma2)


def test_normalization_reconstruction_identity():
    config = small_config()
    topo = build_topology(config, seed=12)
    raw, shadow = draw_channels(topo, config, seed=13)
    noise = compute_noise(topo, config, shadow)
    h = normalize_channels(raw, noise)
    rebuilt = h * np.sqrt(noise)[None, :, :, None]
    assert np.allclose(rebuilt, raw[:config.M], rtol=1e-12, atol=0)
    norm_n = np.linalg.norm(h, axis=-1) ** 2 * noise[None]
    norm_raw = np.linalg.norm(raw[:config.M], axis=-1) ** 2
    assert np.allclose(norm_n, norm_raw, rtol=1e-12)


def test_unit_noise_leaves_channels_unchanged():
    config = small_config()
    topo = build_topology(config, seed=4)
    raw, _ = draw_channels(topo, config, seed=5)
    h = normalize_channels(raw, np.ones((config.n_users, config.N)))
    assert np.array_equal(h, raw[:config.M])


def test_scalar_noise_division():
    h = normalize_channels(np.array([[[[2.0 + 0j, 0.0, 0.0]]]]), np.full((1, 1), 4.0))
    assert np.allclose(h[0, 0, 0], [1.0, 0.0, 0.0])


def test_nonpositive_noise_rejected():
    config = small_config()
    topo = build_topology(config, seed=4)
    raw, _ = draw_channels(topo, config, seed=5)
    with pytest.raises(InvalidStateError):
        normalize_channels(raw, np.zeros((config.n_users, config.N)))


def test_non_finite_and_all_zero_channels_rejected():
    config = small_config()
    topo = build_topology(config, seed=4)
    raw, _ = draw_channels(topo, config, seed=5)
    noise = np.ones((config.n_users, config.N))
    bad = raw.copy()
    bad[0, 1, 0, 0] = np.nan
    with pytest.raises(InvalidStateError, match="non-finite"):
        normalize_channels(bad, noise)
    bad = raw.copy()
    bad[1, 2, 1] = 0.0
    with pytest.raises(DegenerateChannelError, match="all-zero"):
        normalize_channels(bad, noise)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_realization_deterministic(seed):
    """Two realizations from one seed are equal, and each is the draw, the
    noise of compute_noise and the normalization of the seed's two streams."""
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    _, a = realize_network(config, seed)
    topo, b = realize_network(config, seed)
    assert np.array_equal(a, b)
    s_topo, s_chan = np.random.SeedSequence(seed).generate_state(2)
    assert np.array_equal(topo.user_xy, build_topology(config, int(s_topo)).user_xy)
    raw, shadow = draw_channels(topo, config, int(s_chan))
    noise = compute_noise(topo, config, shadow)
    assert np.array_equal(b, normalize_channels(raw, noise))


def test_apply_noise_shares_raw_draw():
    config = small_config(gamma_db=10.0)
    topo = build_topology(config, seed=6)
    raw, shadow = draw_channels(topo, config, seed=7)
    lo_noise = compute_noise(topo, config.with_gamma_db(10.0), shadow)
    hi_noise = compute_noise(topo, config.with_gamma_db(40.0), shadow)
    assert np.all(hi_noise < lo_noise)
    lo = apply_noise(topo, config.with_gamma_db(10.0), raw, shadow)
    hi = apply_noise(topo, config.with_gamma_db(40.0), raw, shadow)
    # every SNR point in one broadcast: each point's noise and channels bit for bit
    sigma2 = [config.with_gamma_db(gamma).sigma2 for gamma in (10.0, 40.0)]
    both_noise = compute_noise(topo, config, shadow, sigma2)
    both = apply_noise(topo, config, raw, shadow, sigma2)
    for point, (alone, noise) in enumerate(((lo, lo_noise), (hi, hi_noise))):
        assert np.array_equal(both_noise[point], noise)
        assert np.array_equal(both[point], alone)
        assert np.array_equal(alone, normalize_channels(raw, noise))


def frozen(array):
    """A read-only copy of ``array``: an in-place write to it raises."""
    array = array.copy()
    array.flags.writeable = False
    return array


def test_steps_write_none_of_their_inputs():
    """place_users, long_term_of and draw_fading on read-only streams, and
    compute_noise, normalize_channels and apply_noise on read-only raw
    channels, shadowing and noise, return the bits they return on writable
    copies, at one thermal floor and at a list of them: any in-place write
    to an input raises."""
    config = small_config(gamma_db=10.0)
    uniforms, normals = draw_streams(config, (6, 7))
    topo = place_users(config, frozen(uniforms))
    long_term = long_term_of(topo, config, frozen(normals))
    raw, shadow = draw_fading(long_term, config), long_term.shadow
    assert np.array_equal(topo.user_xy, place_users(config, uniforms.copy()).user_xy)
    fresh = long_term_of(topo, config, normals.copy())
    assert np.array_equal(shadow, fresh.shadow)
    assert np.array_equal(long_term.amp, fresh.amp)
    assert np.array_equal(raw, draw_fading(fresh, config))
    sigma2 = [config.with_gamma_db(gamma).sigma2 for gamma in (10.0, 40.0)]
    for floors in (None, sigma2):
        noise = compute_noise(topo, config, shadow.copy(), floors)
        want = (noise,
                normalize_channels(raw.copy(), noise.copy()),
                apply_noise(topo, config, raw.copy(), shadow.copy(), floors))
        frozen_raw, frozen_shadow, frozen_noise = frozen(raw), frozen(shadow), frozen(noise)
        got = (compute_noise(topo, config, frozen_shadow, floors),
               normalize_channels(frozen_raw, frozen_noise),
               apply_noise(topo, config, frozen_raw, frozen_shadow, floors))
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)


def test_a_long_term_draw_keeps_its_arrays():
    """A long-term draw is frozen. Read at Nt = 4, then 1, then 2, and at
    each again, it keeps the very arrays it was made with, unchanged, and
    gives the same bits at each Nt every time."""
    config = small_config(Nt=4)
    topo = build_topology(config, seed=3)
    _, normals = draw_streams(config, (3, 4))
    long_term = long_term_of(topo, config, normals)
    with pytest.raises(FrozenInstanceError):
        long_term.fading = normals

    def arrays():
        return long_term.shadow, long_term.amp, long_term.fading

    kept = arrays()
    copies = [a.copy() for a in kept]
    seen = {}
    for nt in (4, 1, 2, 4, 1, 2):
        raw = draw_fading(long_term, replace(config, Nt=nt, weights=None, assignment=None))
        assert np.array_equal(seen.setdefault(nt, raw), raw)
        for array, was, copy in zip(arrays(), kept, copies, strict=True):
            assert array is was
            assert np.array_equal(array, copy)


def test_a_short_stream_names_its_length():
    """Fading asked of a stream too short for its cell fails before it
    reads, naming the normals it needs and the normals it got."""
    config = small_config(Nt=2)
    topo = build_topology(config, seed=3)
    _, normals = draw_streams(replace(config, Nt=1, weights=None, assignment=None), (3, 4))
    long_term = long_term_of(topo, config, normals)
    have = long_term.fading.shape[-1]
    need = stream_lengths(config)[1] - long_term.shadow.size
    with pytest.raises(UsageError, match=f"reads {need} normals .* holds {have}$"):
        draw_fading(long_term, config)


def test_csv_dumps(tmp_path):
    """Both dumps in their documented layout: the M coordinated sites first,
    and one channel row per (m, k, n) with re/im per antenna, h[0, 0, 0]
    first."""
    config = small_config()
    topo, h = realize_network(config, 21)
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
