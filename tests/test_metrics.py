"""SINR / rate / power metric tests against scalar oracles, and the SLNR
oracle that the max-SLNR initializer test relies on."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbsim.config import NetworkConfig
from cbsim.metrics import (bs_powers, link_state, power_feasible, rate_report,
                           sinr_of_link, weighted_sum_rate)


def synthetic_channels(config, seed=0):
    rng = np.random.default_rng(seed)
    shape = (config.M, config.n_users, config.N, config.Nt)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return h


def empty_beams(config):
    return np.zeros((config.M, config.K, config.N, config.Nt), dtype=complex)


def sinr(h, beams, config):
    """SINR of every triple, (M, K, N), from the batched link state."""
    return sinr_of_link(config, link_state(h, beams, config))


def single_link_state(h_vec):
    config = NetworkConfig(M=1, N=1, K=1, Nt=len(h_vec), weights=np.ones((1, 1, 1)))
    h = np.asarray(h_vec, dtype=complex).reshape(1, 1, 1, -1)
    return config, h


def test_sinr_single_beam_no_interference():
    config, h = single_link_state([1.0, 0.0])
    beams = empty_beams(config)
    beams[0, 0, 0] = [2.0, 0.0]
    assert sinr(h, beams, config)[0, 0, 0] == pytest.approx(4.0)


def test_sinr_zero_beam():
    config, h = single_link_state([1.0, 0.5])
    beams = empty_beams(config)
    assert sinr(h, beams, config)[0, 0, 0] == 0.0


def test_sinr_two_beam_hand_instance():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2)
    h = np.zeros((2, 2, 1, 2), dtype=complex)
    h[0, 0, 0] = [1.0 + 1.0j, 0.5]         # BS0 -> user0
    h[1, 0, 0] = [0.3 - 0.2j, 0.4j]        # BS1 -> user0 (interference path)
    h[0, 1, 0] = [0.1, 0.2]
    h[1, 1, 0] = [1.0, -1.0j]
    beams = empty_beams(config)
    beams[0, 0, 0] = [0.6, -0.8j]
    beams[1, 0, 0] = [0.5 + 0.5j, 0.1]
    got = sinr(h, beams, config)
    for m, k, n in reference.active_triples(config):
        want = reference.sinr_scalar(h, beams, config, m, k, n)
        assert got[m, k, n] == pytest.approx(want, rel=1e-12)


def test_wsr_zero_beams():
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    h = synthetic_channels(config)
    assert weighted_sum_rate(h, empty_beams(config), config) == 0.0


def test_wsr_single_beam_log2():
    config, h = single_link_state([1.0])
    beams = empty_beams(config)
    beams[0, 0, 0] = [np.sqrt(3.0)]        # SINR = 3, w = 1
    assert weighted_sum_rate(h, beams, config) == pytest.approx(2.0)


def test_per_user_rate_samples_trivial():
    config, h = single_link_state([1.0])
    beams = empty_beams(config)
    beams[0, 0, 0] = [np.sqrt(3.0)]
    rep = rate_report(h, beams, config)
    assert rep.user_rates.ravel().tolist() == [pytest.approx(2.0)]


def test_wsr_matches_scalar_oracle():
    config = NetworkConfig(M=2, N=2, K=2, Nt=2)
    h = synthetic_channels(config, seed=5)
    rng = np.random.default_rng(6)
    beams = (rng.standard_normal((2, 2, 2, 2))
             + 1j * rng.standard_normal((2, 2, 2, 2))) * 0.4
    got = weighted_sum_rate(h, beams, config)
    assert got == pytest.approx(reference.wsr_scalar(h, beams, config), rel=1e-12)


def test_wsr_invariant_to_user_relabel():
    config = NetworkConfig(M=2, N=2, K=3, Nt=2)
    h = synthetic_channels(config, seed=9)
    rng = np.random.default_rng(10)
    beams = (rng.standard_normal((2, 3, 2, 2))
             + 1j * rng.standard_normal((2, 3, 2, 2))) * 0.3
    base = weighted_sum_rate(h, beams, config)
    perm = np.array([2, 0, 1])
    permuted_h = h.copy()
    for m in range(2):
        block = h[:, m * 3:(m + 1) * 3]
        permuted_h[:, m * 3:(m + 1) * 3] = block[:, perm]
    assert weighted_sum_rate(permuted_h, beams[:, perm], config) == pytest.approx(base)


def test_bs_power_and_feasibility():
    config = NetworkConfig(M=2, N=1, K=1, Nt=2, Pmax=2.0)
    beams = empty_beams(config)
    assert bs_powers(beams)[0] == 0.0
    assert power_feasible(beams, config)
    beams[0, 0, 0] = [np.sqrt(2.0), 0.0]   # exactly Pmax
    assert bs_powers(beams)[0] == pytest.approx(2.0)
    assert power_feasible(beams, config)
    beams[1, 0, 0] = [np.sqrt(2.2), 0.0]   # 1.1 * Pmax
    assert not power_feasible(beams, config)


def test_slnr_single_user():
    config, h = single_link_state([1.0, 2.0])
    beams = empty_beams(config)
    beams[0, 0, 0] = [1.0, 1.0]
    expected = abs(np.vdot(h[0, 0, 0], beams[0, 0, 0])) ** 2
    assert reference.slnr_scalar(h, beams, config, 0, 0, 0) == pytest.approx(expected)


def test_slnr_orthogonal_beam_has_no_leakage():
    config = NetworkConfig(M=1, N=1, K=2, Nt=2, weights=np.ones((1, 2, 1)))
    h = np.zeros((1, 2, 1, 2), dtype=complex)
    h[0, 0, 0] = [1.0, 0.0]
    h[0, 1, 0] = [0.0, 1.0]
    beams = empty_beams(config)
    beams[0, 0, 0] = [3.0, 0.0]            # orthogonal to user 1's channel
    slnr = reference.slnr_scalar(h, beams, config, 0, 0, 0)
    assert slnr == pytest.approx(9.0)
    assert slnr == pytest.approx(sinr(h, beams, config)[0, 0, 0])


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=50.0))
def test_isolated_beam_scaling(alpha):
    config, h = single_link_state([0.8 + 0.1j, -0.3j])
    beams = empty_beams(config)
    beams[0, 0, 0] = [0.5, 0.25 + 0.1j]
    base = abs(np.vdot(h[0, 0, 0], beams[0, 0, 0])) ** 2
    assert sinr(h, beams * alpha, config)[0, 0, 0] == pytest.approx(
        alpha ** 2 * base, rel=1e-9)


def test_rate_monotone_in_sinr():
    s = np.linspace(0.0, 50.0, 200)
    rates = np.log2(1.0 + s)
    assert np.all(np.diff(rates) > 0)


def test_slnr_bounded_by_desired_power():
    config = NetworkConfig(M=2, N=1, K=2, Nt=2)
    h = synthetic_channels(config, seed=20)
    rng = np.random.default_rng(21)
    beams = (rng.standard_normal((2, 2, 1, 2))
             + 1j * rng.standard_normal((2, 2, 1, 2)))
    for m in range(2):
        for k in range(2):
            cap = abs(np.vdot(h[m, config.user_id(m, k), 0],
                              beams[m, k, 0])) ** 2
            assert reference.slnr_scalar(h, beams, config, m, k, 0) <= cap + 1e-12
