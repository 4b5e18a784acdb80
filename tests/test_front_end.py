"""The trial front end against the code it replaced, bit for bit: the channel
draw with mirrored steering rows, the one-sort grouping, the batched
one-member SVD beams and the direct single-user beam claim."""

import math

import numpy as np
import pytest

from beamspace_noma import (BeamAssignment, BeamGrouping, ChannelParams, SystemConfig,
                            beamspace_mimo_single_user, channel, equivalent_channel_svd,
                            group_users, lens_transform_matrix, run_trial, sample_realization,
                            select_beams, trial_rng)
from beamspace_noma.baselines import _claim_beams
from beamspace_noma.cli import main as cli_main

from conftest import FixedDirections
from oracles import (reference_beamspace_mimo, reference_claim_beams,
                     reference_equivalent_channel_svd, reference_group_users,
                     reference_sample_realization)


def _bits(realization):
    return (realization.matrix.tobytes(), realization.path_gains.tobytes(),
            realization.path_directions.tobytes())


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 255, 256])
@pytest.mark.parametrize("n_nlos", [0, 2])
@pytest.mark.parametrize("direction_range", [(-0.5, 0.5), (0.0, 0.5), (-1.0, 1.0), (-2.0, 3.0)])
def test_realization_matches_the_full_exp(n, n_nlos, direction_range):
    params = ChannelParams(n_antennas=n, n_users=5, n_nlos=n_nlos)
    for trial in range(3):
        # directions drawn over the range, ends on exact zero and past +-1 included
        directions = trial_rng(17, trial).uniform(*direction_range, size=5 * (n_nlos + 1))
        new = sample_realization(params, FixedDirections(directions, seed=trial))
        ref = reference_sample_realization(params, FixedDirections(directions, seed=trial))
        assert _bits(new) == _bits(ref)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 255, 256])
@pytest.mark.parametrize("n_nlos", [0, 2])
def test_seeded_realization_matches_the_full_exp(n, n_nlos):
    # one generator feeds both draws, so the order it is read in (directions,
    # then gains) is checked along with the values
    params = ChannelParams(n_antennas=n, n_users=5, n_nlos=n_nlos)
    for trial in range(3):
        new = sample_realization(params, trial_rng(17, trial))
        ref = reference_sample_realization(params, trial_rng(17, trial))
        assert _bits(new) == _bits(ref)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 65])
@pytest.mark.parametrize("special", [
    [0.5, -0.5], [1.0, -1.0], [1e-300, -1e-300],        # mirrored, at the range's edges
    [0.0], [-0.0], [5e-324], [-1e-310], [1.0000000000000002], [-7.5], [math.nan],
])
def test_special_directions_match_the_full_exp(n, special):
    # the special directions sit among ordinary ones; one outside MIRROR_RANGE
    # sends the whole draw to the direct exp
    directions = special + [0.3125, -0.1, 0.49999999999999994]
    params = ChannelParams(n_antennas=n, n_users=len(directions), n_nlos=0)
    with np.errstate(invalid="ignore"):
        new = sample_realization(params, FixedDirections(directions, seed=n))
        ref = reference_sample_realization(params, FixedDirections(directions, seed=n))
    assert _bits(new) == _bits(ref)


class _CountingExp:
    """numpy as seen by the channel module, counting complex exp entries."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.entries += np.size(x)
        return np.exp(x, *args, **kwargs)


@pytest.mark.parametrize("n", [2, 3, 16, 17])
def test_ordinary_directions_take_the_exp_on_half_the_rows(monkeypatch, n):
    counter = _CountingExp()
    monkeypatch.setattr(channel, "np", counter)
    params = ChannelParams(n_antennas=n, n_users=4, n_nlos=2)
    sample_realization(params, trial_rng(3, 0))
    assert counter.entries == (n - n // 2) * 4 * 3
    counter.entries = 0
    sample_realization(params, FixedDirections([0.0, 0.2, 0.3], seed=1))
    assert counter.entries == n * 4 * 3


def _peaked(rows, n=12, seed=0, peak=4.0):
    """Beamspace columns with a dominant entry at the given rows plus clutter."""
    rng = np.random.default_rng(seed)
    hb = 0.1 * (rng.standard_normal((n, len(rows))) + 1j * rng.standard_normal((n, len(rows))))
    for k, r in enumerate(rows):
        hb[r, k] = peak * (1 + 1j) * (1 + 0.1 * k)
    return hb


def _assert_same_grouping(new, ref):
    assert len(new.beams) == len(ref.beams)
    for a, b in zip(new.beams, ref.beams):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert new.reduced.tobytes() == ref.reduced.tobytes()
    assert new.selected.tobytes() == ref.selected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
def test_grouping_matches_the_per_beam_loop(k):
    lens = lens_transform_matrix(16)
    params = ChannelParams(n_antennas=16, n_users=k)
    for trial in range(20):
        hb = lens.matrix @ sample_realization(params, trial_rng(5, trial)).matrix
        a = select_beams(hb)
        _assert_same_grouping(group_users(a, hb), reference_group_users(a, hb))


@pytest.mark.parametrize("rows", [[3] * 7, [3, 5, 3, 5, 3, 8, 1], list(range(7))])
def test_grouping_from_one_beam_to_one_beam_per_user(rows):
    # beams of 1..K users, with exact norm ties: user 4 repeats user 1, user 5
    # is user 2 negated, and user 6 is user 0 conjugated
    hb = _peaked(rows)
    hb[:, 4], hb[:, 5], hb[:, 6] = hb[:, 1], -hb[:, 2], hb[:, 0].conj()
    a = select_beams(hb)
    _assert_same_grouping(group_users(a, hb), reference_group_users(a, hb))


def test_grouping_of_a_hand_made_assignment():
    # a selected beam without users, users on an unselected beam, unsorted beams
    hb = _peaked([2, 2, 6, 9, 6, 2])
    a = BeamAssignment(beam_for_user=np.array([2, 2, 6, 9, 6, 2]),
                       selected=np.array([6, 4, 2]))
    new, ref = group_users(a, hb), reference_group_users(a, hb)
    _assert_same_grouping(new, ref)
    assert [m.tolist() for m in new.beams] == [[4, 2], [], [5, 1, 0]]


def _grouping(reduced, beams):
    return BeamGrouping(beams=[np.array(m) for m in beams], reduced=reduced,
                        selected=np.arange(reduced.shape[0]))


def _svd_outcome(fn, grouping):
    with np.errstate(all="ignore"):
        try:
            eq = fn(grouping)
        except ValueError as err:
            return ValueError, str(err)
    return eq.shape, eq.flags.c_contiguous, eq.tobytes()


def _random_reduced(rng, n_rf, k):
    base = rng.standard_normal((n_rf, 1)) + 1j * rng.standard_normal((n_rf, 1))
    reduced = base * (rng.standard_normal((1, k)) + 1j * rng.standard_normal((1, k)))
    return reduced + 0.05 * (rng.standard_normal((n_rf, k)) + 1j * rng.standard_normal((n_rf, k)))


@pytest.mark.parametrize("sizes", [[1], [1, 1, 1, 1], [2], [3, 1, 1], [1, 2, 1, 4], [6]])
def test_svd_beams_of_one_to_k_users_match_the_loop(sizes):
    rng = np.random.default_rng(len(sizes) * 10 + sum(sizes))
    users = rng.permutation(sum(sizes))
    beams = np.split(users, np.cumsum(sizes)[:-1])
    for _ in range(10):
        g = _grouping(_random_reduced(rng, len(sizes), sum(sizes)), beams)
        assert _svd_outcome(equivalent_channel_svd, g) == \
            _svd_outcome(reference_equivalent_channel_svd, g)


@pytest.mark.parametrize("lone_entries", [
    [0.0, -0.0, 1.0, -2.0],                      # real, with signed zeros
    [complex(-0.0, 1.0), complex(0.0, -0.0), complex(-0.0, -0.0), 3.0],
    [complex(-0.0, 0.0), 1j, -1j, complex(0.0, -2.0)],
    [1e160, 0.0, 0.0, 0.0],                      # b00 overflows, imaginary part 0
    [1e200 + 1e200j, 1.0, 0.0, 0.0],             # b00 overflows, imaginary part NaN
    [math.inf, 1.0, 2.0, 3.0],                   # infinite entry: imaginary part NaN
    [1e-170, 1e-170j, 0.0, -0.0],                # every square underflows: zero matrix
    [1.2e-162 + 1.2e-162j, 0.0, 0.0, 0.0],       # |h|^2 rounds up, its parts do not
    [0.0, 0.0, 0.0, 0.0],
])
def test_one_member_svd_beams_keep_every_bit(lone_entries):
    # beam 0 holds the special user; beams 1 and 3 hold one ordinary user and
    # beam 2 two users, so the batch, the loop and their merge all run
    rng = np.random.default_rng(11)
    reduced = _random_reduced(rng, 4, 5)
    reduced[:, 2] = lone_entries
    g = _grouping(reduced, [[2], [0], [4, 1], [3]])
    assert _svd_outcome(equivalent_channel_svd, g) == \
        _svd_outcome(reference_equivalent_channel_svd, g)


@pytest.mark.parametrize("seed", range(4))
def test_svd_links_of_full_trials_match_the_loop(seed):
    lens = lens_transform_matrix(64)
    params = ChannelParams(n_antennas=64, n_users=24)
    for trial in range(5):
        hb = lens.matrix @ sample_realization(params, trial_rng(seed, trial)).matrix
        g = group_users(select_beams(hb), hb)
        assert _svd_outcome(equivalent_channel_svd, g) == \
            _svd_outcome(reference_equivalent_channel_svd, g)


def _conflicts(hb):
    """Users whose first argmax beam an earlier claimant already holds."""
    first = np.abs(hb).argmax(axis=0)
    taken, conflicts = set(), 0
    for user, beam in reference_claim_beams(hb).items():
        conflicts += int(first[user] in taken)
        taken.add(beam)
    return conflicts


@pytest.mark.parametrize("rows", [
    [3, 3, 3, 5, 5, 0], [1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5], list(range(12)),
    [11] * 12,
])
def test_claims_match_the_free_beam_scan(rows):
    hb = _peaked(rows)
    claimed = reference_claim_beams(hb)
    claim = _claim_beams(hb)
    assert claim.tolist() == [claimed[u] for u in range(len(rows))]
    assert len(set(claim.tolist())) == len(rows)


def test_claim_ties_resolve_as_the_scan_does():
    # equal norms (user 1 repeats user 0, user 2 is user 0 negated); user 3,
    # the weakest, peaks on the taken beam 4 and ties on the free beams 7 and 9
    hb = _peaked([4, 4, 4, 7, 4])
    hb[:, 1], hb[:, 2] = hb[:, 0], -hb[:, 0]
    hb[4, 3], hb[7, 3], hb[9, 3] = 3.0, 2.9, 2.9
    claimed = reference_claim_beams(hb)
    assert _claim_beams(hb).tolist() == [claimed[u] for u in range(5)]
    assert claimed[3] == 7 and _conflicts(hb) >= 3


def test_beamspace_mimo_with_conflicts_matches_the_reference(budget):
    lens = lens_transform_matrix(32)
    params = ChannelParams(n_antennas=32, n_users=20)
    conflicts = 0
    for trial in range(10):
        hb = lens.matrix @ sample_realization(params, trial_rng(8, trial)).matrix
        conflicts += _conflicts(hb)
        new = beamspace_mimo_single_user(hb, budget)
        ref = reference_beamspace_mimo(hb, budget)
        assert np.float64(new.sum_rate).tobytes() == np.float64(ref.sum_rate).tobytes()
        assert new.rates.tobytes() == ref.rates.tobytes()
        assert new.users.tobytes() == ref.users.tobytes()
    assert conflicts >= 10


def _overflow_config(variant):
    return SystemConfig(n_antennas=16, n_users=4, seed=1, variant=variant,
                        los_variance=1e300, snr_db=[10.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_svd_mix_is_a_recorded_drop():
    svd = run_trial(_overflow_config("svd"), 0)
    strongest = run_trial(_overflow_config("strongest"), 0)
    for rec in svd:
        if rec.scheme in ("noma", "oma"):
            assert rec.dropped and "equivalent channel" in rec.drop_reason
            assert "non-finite" in rec.drop_reason
    # the other schemes do not use the equivalent channel
    for rec_svd, rec_strongest in zip(svd, strongest):
        if rec_svd.scheme in ("beamspace_mimo", "fully_digital"):
            assert not rec_svd.dropped
            assert repr(rec_svd.__dict__) == repr(rec_strongest.__dict__)


@pytest.mark.filterwarnings("error")
def test_overflowing_svd_mix_drops_without_a_warning():
    # the power iteration's norms overflow on this link: NOMA and OMA drop with
    # the one reason and no RuntimeWarning reaches stderr
    records = run_trial(_overflow_config("svd"), 0)
    reason = "equivalent channel has non-finite entries"
    assert [(r.scheme, r.dropped, r.drop_reason) for r in records] == [
        ("noma", True, reason), ("oma", True, reason),
        ("beamspace_mimo", False, ""), ("fully_digital", False, "")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_svd_mix_keeps_the_cli_running(tmp_path):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 4\nlos_variance = 1e300\n")
    out = tmp_path / "overflow"
    code = cli_main(["sweep-snr", "--config", str(cfg), "--seed", "1", "--snr", "10",
                     "--trials", "1", "--variant", "svd", "--out", str(out)])
    assert code == 0
    assert "non-finite" in (tmp_path / "overflow.csv").read_text()
