import numpy as np
import pytest

from beamspace_noma import (ChannelParams, LinkBudget, PrecodingError,
                            beamspace_mimo_single_user, build_noma_link,
                            fully_digital_zf, group_users, lens_transform_matrix,
                            link_gains, mimo_oma, sample_realization, select_beams,
                            steering_vector, sum_rate, trial_rng)


def test_fully_digital_single_user_is_matched_filter():
    rng = np.random.default_rng(0)
    h = (rng.standard_normal(8) + 1j * rng.standard_normal(8))[:, None]
    budget = LinkBudget(noise_mw=0.5, total_power_mw=3.0)
    result = fully_digital_zf(h, budget)
    expected = np.log2(1 + np.linalg.norm(h) ** 2 * 3.0 / 0.5)
    assert result.sum_rate == pytest.approx(expected, rel=1e-12)
    assert result.n_rf == 8 and len(result.users) == 1


def test_fully_digital_orthogonal_users_reduce_to_matched_filters():
    n, k = 16, 4
    gains = np.array([1.5, 0.8, 2.0, 1.1])
    h = np.stack([gains[i] * steering_vector(lens_transform_matrix(n).directions[3 * i], n)
                  for i in range(k)], axis=1)
    budget = LinkBudget(noise_mw=0.25, total_power_mw=4.0)
    result = fully_digital_zf(h, budget)
    expected = np.log2(1 + gains**2 * 1.0 / 0.25)
    np.testing.assert_allclose(result.rates, expected, rtol=1e-10)


def test_fully_digital_leakage_is_negligible():
    params = ChannelParams(n_antennas=16, n_users=4)
    real = sample_realization(params, trial_rng(61, 0))
    budget = LinkBudget(noise_mw=0.1, total_power_mw=4.0)
    result = fully_digital_zf(real.matrix, budget)
    # re-derive the leakage directly from the precoder definition
    h = real.matrix
    w = h @ np.linalg.inv(h.conj().T @ h)
    w /= np.linalg.norm(w, axis=0, keepdims=True)
    heff = np.abs(h.conj().T @ w) ** 2
    for k in range(4):
        off = np.delete(heff[k, :], k)
        assert np.max(off) <= 1e-9 * heff[k, k]


def test_fully_digital_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fully_digital_zf(np.ones((2, 4), dtype=complex), LinkBudget(1.0, 1.0))
    dup = np.ones((8, 2), dtype=complex)
    with pytest.raises(PrecodingError):
        fully_digital_zf(dup, LinkBudget(1.0, 1.0))


def test_beamspace_mimo_conflict_free_matches_noma_grouping():
    n, k = 16, 4
    lens = lens_transform_matrix(n)
    rng = np.random.default_rng(62)
    cols = [(rng.standard_normal() + 1j * rng.standard_normal())
            * steering_vector(lens.directions[i], n) for i in (1, 6, 10, 14)]
    hb = lens.matrix @ np.stack(cols, axis=1)
    budget = LinkBudget(noise_mw=0.2, total_power_mw=4.0)
    single = beamspace_mimo_single_user(hb, budget)
    grouping, precoder = build_noma_link(hb, "strongest")
    noma = sum_rate(grouping, precoder, np.full(k, 1.0), budget)
    assert single.sum_rate == pytest.approx(noma.sum_rate, abs=1e-9)
    assert single.n_rf == k


def test_beamspace_mimo_reassigns_conflicting_user():
    n = 16
    lens = lens_transform_matrix(n)
    # both users dominant on beam 5 (slightly off grid so side beams are alive)
    h0 = 2.0 * steering_vector(lens.directions[5] + 0.02 / n, n)
    h1 = 1.0 * steering_vector(lens.directions[5] - 0.30 / n, n)
    hb = lens.matrix @ np.stack([h0, h1], axis=1)
    assert group_users(select_beams(hb), hb).n_rf == 1  # genuine conflict on beam 5
    budget = LinkBudget(noise_mw=0.2, total_power_mw=2.0)
    result = beamspace_mimo_single_user(hb, budget)
    assert result.n_rf == 2
    # greedy expectation: user 0 (stronger) keeps beam 5, user 1 takes its
    # best remaining beam at a strictly weaker gain
    mags = np.abs(hb)
    second_best = int(np.argmax(np.where(np.arange(n) != 5, mags[:, 1], -1.0)))
    assert second_best != 5
    assert mags[second_best, 1] < mags[5, 1]
    expected_rows = sorted([5, second_best])
    np.testing.assert_array_equal(result.users[np.argsort(result.users)], [0, 1])
    # recompute the scheme by hand on the expected claims
    sel = np.array(expected_rows)
    eq = hb[sel, :][:, [0, 1] if expected_rows[0] == 5 else [1, 0]]
    w = eq @ np.linalg.inv(eq.conj().T @ eq)
    w /= np.linalg.norm(w, axis=0, keepdims=True)
    heff = np.abs(hb[sel, :].conj().T @ w) ** 2
    order = [0, 1] if expected_rows[0] == 5 else [1, 0]
    per = budget.total_power_mw / 2
    expected = 0.0
    for slot, user in enumerate(order):
        des = heff[user, slot] * per
        itf = sum(heff[user, j] * per for j in range(2) if j != slot)
        expected += np.log2(1 + des / (itf + budget.noise_mw))
    assert result.sum_rate == pytest.approx(expected, rel=1e-10)


def test_oma_singletons_equal_noma_with_beam_powers(random_link):
    _, _, grouping, precoder = random_link(seed=63, trial=0, n=32, k=4)
    if any(len(m) > 1 for m in grouping.beams):
        pytest.skip("draw had conflicts")
    budget = LinkBudget(noise_mw=0.3, total_power_mw=6.0)
    oma = mimo_oma(grouping, precoder, budget)
    per_beam = budget.total_power_mw / grouping.n_rf
    noma = sum_rate(grouping, precoder, np.full(4, per_beam), budget)
    assert oma.sum_rate == pytest.approx(noma.sum_rate, abs=1e-12)


def test_oma_identical_users_split_the_single_user_rate():
    from beamspace_noma import BeamGrouping, Precoder

    h = np.array([[1.2 + 0j]])
    pair = BeamGrouping(beams=[np.array([0, 1])],
                        reduced=np.array([[1.2 + 0j, 1.2 + 0j]]),
                        selected=np.array([0]))
    w = Precoder(matrix=np.eye(1, dtype=complex), zf_residual=0.0)
    budget = LinkBudget(noise_mw=0.5, total_power_mw=4.0)
    oma = mimo_oma(pair, w, budget)
    single = np.log2(1 + 1.2**2 * 4.0 / 0.5)
    np.testing.assert_allclose(oma.rates, [single / 2, single / 2], rtol=1e-12)


def test_oma_resource_fractions_cover_each_beam(random_link):
    _, _, grouping, precoder = random_link(seed=64, trial=0, n=16, k=8, min_groups=1)
    budget = LinkBudget(noise_mw=0.3, total_power_mw=8.0)
    oma = mimo_oma(grouping, precoder, budget)
    lg = link_gains(grouping, precoder)
    shares = 1.0 / np.array([len(grouping.beams[b]) for b in lg.beam_of])
    for n in range(grouping.n_rf):
        assert shares[lg.beam_of == n].sum() == pytest.approx(1.0, abs=1e-12)
    assert oma.n_rf == grouping.n_rf
