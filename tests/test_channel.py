import numpy as np
import pytest

from beamspace_noma import (ChannelParams, lens_transform_matrix, sample_realization,
                            steering_vector, to_beamspace, trial_rng)


def test_steering_broadside_is_constant():
    v = steering_vector(0.0, 4)
    np.testing.assert_allclose(v, np.full(4, 0.5), atol=1e-15)


def test_steering_two_element_quarter_direction():
    # indices {-1/2, +1/2}: exp(-j*2*pi*(1/4)*m) -> [e^{j pi/4}, e^{-j pi/4}]
    v = steering_vector(0.25, 2)
    expected = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_steering_rejects_zero_antennas():
    with pytest.raises(ValueError):
        steering_vector(0.1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
def test_steering_unit_norm(n):
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-0.5, 0.5, 20):
        assert abs(np.linalg.norm(steering_vector(theta, n)) - 1.0) <= 1e-12


def test_grid_steering_vectors_are_orthonormal():
    lens = lens_transform_matrix(4)
    v = steering_vector(lens.directions[2], 4)  # third grid direction = 1/8
    assert lens.directions[2] == pytest.approx(0.125, abs=1e-15)
    for n in range(4):
        inner = abs(np.vdot(steering_vector(lens.directions[n], 4), v))
        assert inner == pytest.approx(1.0 if n == 2 else 0.0, abs=1e-12)


def test_lens_grid_directions():
    np.testing.assert_allclose(lens_transform_matrix(4).directions,
                               [-0.375, -0.125, 0.125, 0.375], atol=1e-15)
    assert lens_transform_matrix(256).directions[0] == pytest.approx(-255 / 512, abs=1e-15)
    with pytest.raises(ValueError):
        lens_transform_matrix(1)


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 129, 256, 512])
def test_lens_unitarity(n):
    u = lens_transform_matrix(n).matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("n", [*range(2, 131), 256, 512])
def test_lens_is_the_direct_exp_bit_for_bit(n):
    lens = lens_transform_matrix(n)
    m = np.arange(n) - (n - 1) / 2.0
    direct = np.exp(2j * np.pi * np.outer(lens.directions, m)) / np.sqrt(n)
    assert lens.matrix.tobytes() == direct.tobytes()
    assert lens.matrix.flags.c_contiguous


def test_single_path_norm_equals_gain():
    params = ChannelParams(n_antennas=8, n_users=1, n_nlos=0)
    real = sample_realization(params, trial_rng(1, 0))
    assert np.linalg.norm(real.matrix[:, 0]) == pytest.approx(abs(real.path_gains[0, 0]),
                                                              rel=1e-12)


def test_zero_nlos_variance_gives_pure_los():
    params = ChannelParams(n_antennas=8, n_users=1, n_nlos=2, nlos_var=0.0)
    real = sample_realization(params, trial_rng(2, 0))
    assert np.all(real.path_gains[0, 1:] == 0)
    los = real.path_gains[0, 0] * steering_vector(real.path_directions[0, 0], 8)
    np.testing.assert_allclose(real.matrix[:, 0], los, atol=1e-15)


def test_nlos_power_matches_configured_variance():
    # E[sum_{l>=1} |beta_l|^2] = 2 * 0.1 = 0.2; per-sample variance 2 * 0.1^2,
    # so the mean of 1e5 samples sits within 3 * sqrt(0.02/1e5) = 1.342e-3
    params = ChannelParams(n_antennas=4, n_users=100_000, n_nlos=2)
    real = sample_realization(params, trial_rng(4, 0))
    mean_nlos = float(np.sum(np.abs(real.path_gains[:, 1:]) ** 2, axis=1).mean())
    assert abs(mean_nlos - 0.2) <= 1.35e-3


def test_channel_reconstructs_from_path_records():
    params = ChannelParams(n_antennas=32, n_users=6, n_nlos=3, nlos_var=0.2)
    real = sample_realization(params, trial_rng(5, 1))
    for k in range(params.n_users):
        rebuilt = sum(real.path_gains[k, l] * steering_vector(real.path_directions[k, l], 32)
                      for l in range(4))
        err = np.linalg.norm(real.matrix[:, k] - rebuilt) / np.linalg.norm(rebuilt)
        assert err <= 1e-12


def test_user_channel_reconstructs_too():
    params = ChannelParams(n_antennas=16, n_users=1, n_nlos=2)
    real = sample_realization(params, trial_rng(6, 0))
    rebuilt = sum(g * steering_vector(t, 16)
                  for g, t in zip(real.path_gains[0], real.path_directions[0]))
    assert np.linalg.norm(real.matrix[:, 0] - rebuilt) <= 1e-12 * np.linalg.norm(rebuilt)


def test_same_seed_is_bit_identical():
    params = ChannelParams(n_antennas=16, n_users=5)
    a = sample_realization(params, trial_rng(9, 3))
    b = sample_realization(params, trial_rng(9, 3))
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.path_gains.tobytes() == b.path_gains.tobytes()
    c = sample_realization(params, trial_rng(9, 4))
    assert a.matrix.tobytes() != c.matrix.tobytes()


def test_on_grid_channel_is_one_sparse():
    lens = lens_transform_matrix(4)
    h = steering_vector(lens.directions[1], 4)
    hb = to_beamspace(h[:, None], lens)[:, 0]
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0
    np.testing.assert_allclose(hb, expected, atol=1e-12)


def test_beamspace_of_zero_is_zero():
    lens = lens_transform_matrix(8)
    np.testing.assert_array_equal(to_beamspace(np.zeros((8, 2)), lens), np.zeros((8, 2)))


def test_beamspace_dimension_mismatch():
    with pytest.raises(ValueError):
        to_beamspace(np.zeros((4, 1)), lens_transform_matrix(8))


def test_beamspace_norm_preservation():
    params = ChannelParams(n_antennas=64, n_users=8)
    real = sample_realization(params, trial_rng(7, 0))
    lens = lens_transform_matrix(64)
    hb = to_beamspace(real.matrix, lens)
    np.testing.assert_allclose(np.linalg.norm(hb, axis=0),
                               np.linalg.norm(real.matrix, axis=0), rtol=1e-10)


def test_off_grid_peak_matches_brute_force_and_nearest_grid():
    n = 32
    lens = lens_transform_matrix(n)
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(-0.5, 0.5)
        h = (rng.standard_normal() + 1j * rng.standard_normal()) * steering_vector(theta, n)
        peak = int(np.argmax(np.abs(to_beamspace(h[:, None], lens)[:, 0])))
        # oracle 1: direct inner products against every grid steering vector
        brute = int(np.argmax([abs(np.vdot(steering_vector(d, n), h)) for d in lens.directions]))
        assert peak == brute
        # oracle 2: nearest grid direction wins for a single path
        assert peak == int(np.argmin(np.abs(lens.directions - theta)))
