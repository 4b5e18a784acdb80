from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamspace_noma import (BeamGrouping, ChannelParams, DegenerateChannelError,
                            LinkBudget, beamspace_mimo_single_user, build_noma_link,
                            equivalent_channel_strongest, group_users,
                            lens_transform_matrix, reorder, sample_realization,
                            select_beams, steering_vector, sum_rate, trial_rng,
                            verify_order, zf_precoder)

from oracles import reference_verify_order


def _beamspace_with_peaks(rows, n=10, peak=5.0):
    """Columns with a dominant entry at the requested row, plus small clutter."""
    rng = np.random.default_rng(0)
    hb = 0.1 * (rng.standard_normal((n, len(rows))) + 1j * rng.standard_normal((n, len(rows))))
    for k, r in enumerate(rows):
        hb[r, k] = peak * (1 + 1j)
    return hb


def test_select_beams_distinct_set():
    hb = _beamspace_with_peaks([3, 3, 7])
    beam_for_user = select_beams(hb)
    np.testing.assert_array_equal(beam_for_user, [3, 3, 7])
    g = group_users(beam_for_user, hb)
    np.testing.assert_array_equal(g.selected, [3, 7])
    assert g.n_rf == 2


def test_distinct_grid_users_get_own_beams():
    n, k = 16, 5
    lens = lens_transform_matrix(n)
    cols = [steering_vector(lens.directions[i], n) for i in (1, 4, 7, 10, 13)]
    hb = lens.matrix @ np.stack(cols, axis=1)
    g = group_users(select_beams(hb), hb)
    assert g.n_rf == k
    assert all(len(m) == 1 for m in g.beams)


def test_zero_column_is_degenerate():
    hb = _beamspace_with_peaks([2, 6])
    hb[:, 1] = 0
    with pytest.raises(DegenerateChannelError, match="user 1"):
        select_beams(hb)


def test_grouping_sorts_by_reduced_norm():
    hb = _beamspace_with_peaks([3, 3, 7])
    hb[3, 1] *= 2.0  # user 1 stronger than user 0 on the shared beam
    g = group_users(select_beams(hb), hb)
    np.testing.assert_array_equal(g.beams[0], [1, 0])
    np.testing.assert_array_equal(g.beams[1], [2])
    assert g.beam_channels(0).shape == (2, 2)


def test_grouping_tie_breaks_on_user_index():
    hb = _beamspace_with_peaks([4, 4])
    hb[:, 1] = hb[:, 0]  # identical columns -> identical norms
    g = group_users(select_beams(hb), hb)
    np.testing.assert_array_equal(g.beams[0], [0, 1])


def test_single_user_grouping():
    hb = _beamspace_with_peaks([2])
    g = group_users(select_beams(hb), hb)
    assert g.n_rf == 1 and len(g.beams[0]) == 1
    assert g.reduced[:, 0].shape == (1,)


def test_reduced_channels_are_bit_equal_rows():
    params = ChannelParams(n_antennas=32, n_users=10)
    real = sample_realization(params, trial_rng(21, 0))
    hb = lens_transform_matrix(32).matrix @ real.matrix
    g = group_users(select_beams(hb), hb)
    for k in range(10):
        assert np.array_equal(g.reduced[:, k], hb[g.selected, k])


def test_partition_property():
    params = ChannelParams(n_antennas=16, n_users=12)
    for t in range(20):
        real = sample_realization(params, trial_rng(22, t))
        hb = lens_transform_matrix(16).matrix @ real.matrix
        g = group_users(select_beams(hb), hb)
        flat = np.sort(g.users_flat)
        np.testing.assert_array_equal(flat, np.arange(12))
        assert sum(len(m) for m in g.beams) == 12


def test_verify_order_singletons_and_identical_users():
    hb = _beamspace_with_peaks([1, 5, 8])
    g = group_users(select_beams(hb), hb)
    w = zf_precoder(equivalent_channel_strongest(g))
    assert verify_order(g, w) == {}
    hb2 = _beamspace_with_peaks([4, 4])
    hb2[:, 1] = hb2[:, 0]
    g2 = group_users(select_beams(hb2), hb2)
    w2 = zf_precoder(equivalent_channel_strongest(g2))
    assert verify_order(g2, w2) == {}


def test_verify_order_matches_direct_comparison(random_link):
    for trial in range(8):
        _, _, grouping, precoder = random_link(seed=23, trial=trial, n=16, k=6, min_groups=1)
        repairs = verify_order(grouping, precoder)
        for n, members in enumerate(grouping.beams):
            gains = [abs(np.vdot(grouping.reduced[:, u], precoder.matrix[:, n]))
                     for u in members]
            violated = any(gains[i] < gains[i + 1] for i in range(len(gains) - 1))
            assert (n in repairs) == violated


def test_reorder_restores_gain_decay():
    # force a violation by reversing a two-user beam, then repair it
    hb = _beamspace_with_peaks([3, 3])
    hb[3, 1] *= 3.0
    g = group_users(select_beams(hb), hb)
    swapped = BeamGrouping(beams=[g.beams[0][::-1]], reduced=g.reduced, selected=g.selected)
    w = zf_precoder(equivalent_channel_strongest(swapped))
    repairs = verify_order(swapped, w)
    assert list(repairs) == [0]
    fixed = reorder(swapped, repairs)
    w2 = zf_precoder(equivalent_channel_strongest(fixed))
    assert verify_order(fixed, w2) == {}


def test_conflict_free_grouping_matches_single_user_pipeline():
    # on-grid distinct users: the NOMA pipeline with equal powers must equal
    # the single-user-per-beam scheme on the same realization
    n, k = 16, 4
    lens = lens_transform_matrix(n)
    rng = np.random.default_rng(24)
    cols = [(rng.standard_normal() + 1j * rng.standard_normal())
            * steering_vector(lens.directions[i], n) for i in (2, 5, 9, 14)]
    hb = lens.matrix @ np.stack(cols, axis=1)
    budget = LinkBudget(noise_mw=0.1, total_power_mw=4.0)
    grouping, precoder = build_noma_link(hb, "strongest")
    noma = sum_rate(grouping, precoder, np.full(k, 1.0), budget)
    single = beamspace_mimo_single_user(hb, budget)
    assert noma.sum_rate == pytest.approx(single.sum_rate, abs=1e-10)


def _random_grouping(rng, sizes):
    """Random reduced channels for beams of the given sizes, users shuffled."""
    n_rf, k = len(sizes), sum(sizes)
    users = rng.permutation(k)
    beams = np.split(users, np.cumsum(sizes)[:-1])
    reduced = rng.standard_normal((n_rf, k)) + 1j * rng.standard_normal((n_rf, k))
    return BeamGrouping(beams=beams, reduced=reduced, selected=np.arange(n_rf) * 3)


@pytest.mark.parametrize("shape", ["all_singleton", "one_beam", "mixed"])
def test_verify_order_matches_the_gain_check_of_every_beam(shape):
    rng = np.random.default_rng({"all_singleton": 11, "one_beam": 12, "mixed": 13}[shape])
    repaired = 0
    for _ in range(200):
        n = int(rng.integers(1, 17))
        if shape == "all_singleton":
            sizes = [1] * n
        elif shape == "one_beam":
            sizes = [int(rng.integers(1, 9))]
        else:
            sizes = list(rng.integers(1, 5, n))
        grouping = _random_grouping(rng, sizes)
        precoders = [zf_precoder(equivalent_channel_strongest(grouping)),
                     SimpleNamespace(matrix=rng.standard_normal((len(sizes),) * 2) + 0j)]
        for precoder in precoders:
            repairs = verify_order(grouping, precoder)
            expected = reference_verify_order(grouping, precoder)
            assert list(repairs) == list(expected)  # the same beams, in beam order
            for n, ref in expected.items():
                perm = repairs[n]
                assert (perm.dtype, perm.shape, perm.tobytes()) == (ref.dtype, ref.shape,
                                                                    ref.tobytes())
            repaired += len(repairs)
    # lone users never need a repair; the other shapes must exercise one
    assert (repaired > 0) == (shape != "all_singleton")


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=16),
       seed=st.integers(0, 2**32 - 1), zf=st.booleans())
def test_one_repair_pass_restores_the_order_under_the_same_precoder(sizes, seed, zf):
    rng = np.random.default_rng(seed)
    grouping = _random_grouping(rng, sizes)
    precoder = (zf_precoder(equivalent_channel_strongest(grouping)) if zf
                else SimpleNamespace(matrix=rng.standard_normal((len(sizes),) * 2) + 0j))
    repairs = verify_order(grouping, precoder)
    fixed = reorder(grouping, repairs)
    assert verify_order(fixed, precoder) == {}
    assert fixed.reduced is grouping.reduced and fixed.selected is grouping.selected
    for n, (before, after) in enumerate(zip(grouping.beams, fixed.beams)):
        # only the reported beams change, and each keeps its member set
        assert np.array_equal(before, after) == (n not in repairs)
        assert np.array_equal(np.sort(before), np.sort(after))
