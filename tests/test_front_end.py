"""The trial front end against the code it replaced, bit for bit: the channel
draw with mirrored steering rows, the one-sort grouping, the SVD equivalent
channel and the direct single-user beam claim."""

import math

import numpy as np
import pytest

from beamspace_noma import (BeamGrouping, ChannelParams, SystemConfig,
                            beamspace_mimo_single_user, build_noma_link, channel,
                            equivalent_channel_svd, group_users, lens_transform_matrix,
                            link_gains, precoding, run_trial, sample_realization,
                            select_beams, trial_rng)
from beamspace_noma.baselines import _claim_beams
from beamspace_noma.cli import main as cli_main
from beamspace_noma.runner import DROP_ERRORS

from conftest import FixedDirections
from oracles import (reference_beamspace_mimo, reference_claim_beams,
                     reference_equivalent_channel_svd, reference_group_users,
                     reference_sample_realization, reference_zf_precoder)


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
    # unsorted beams, users off their peak beam, and exact norm ties: user 3
    # repeats user 1 on beam 2, and user 4 is user 0 negated on beam 9
    hb = _peaked([2, 2, 6, 9, 6, 2, 9])
    hb[:, 3], hb[:, 4] = hb[:, 1], -hb[:, 0]
    beam_for_user = np.array([9, 2, 6, 2, 9, 6, 2])
    new = group_users(beam_for_user, hb)
    _assert_same_grouping(new, reference_group_users(beam_for_user, hb))
    assert new.selected.tolist() == [2, 6, 9]
    assert [m.tolist() for m in new.beams] == [[6, 1, 3], [5, 2], [0, 4]]


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


def _zf_outcome(fn, equivalent):
    with np.errstate(all="ignore"):
        try:
            pre = fn(equivalent)
        except precoding.PrecodingError as err:
            return type(err), str(err), np.float64(err.condition).tobytes()
    return pre.matrix.tobytes(), np.float64(pre.zf_residual).tobytes()


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
    # beam 2 two users. One-member columns are their user's channel bit for
    # bit, where the per-beam loop's h @ [1-0j] turns a -0.0 real part into
    # +0.0 and an infinite entry's other part into NaN; the two-user column is
    # the loop's, and ZF keeps or drops the link exactly as on the loop's channel
    rng = np.random.default_rng(11)
    reduced = _random_reduced(rng, 4, 5)
    reduced[:, 2] = lone_entries
    beams = [[2], [0], [4, 1], [3]]
    g = _grouping(reduced, beams)
    with np.errstate(all="ignore"):
        eq = equivalent_channel_svd(g)
        ref = reference_equivalent_channel_svd(g)
    assert eq.shape == (4, 4) and eq.flags.c_contiguous and eq.dtype == complex
    for n, members in enumerate(beams):
        want = reduced[:, members[0]] if len(members) == 1 else ref[:, n]
        assert eq[:, n].tobytes() == want.tobytes()
    assert _zf_outcome(precoding.zf_precoder, eq) == \
        _zf_outcome(reference_zf_precoder, ref)


@pytest.mark.parametrize("lone_entries", [[1e200 + 1e200j, 1.0, 0.0, 0.0],
                                          [math.inf, 1.0, 2.0, 3.0]])
def test_only_beams_of_two_or_more_users_run_the_power_iteration(monkeypatch, lone_entries):
    # these lone rows overflow their Gram; they take their channel as it is
    shapes, loop = [], precoding.top_left_singular_vector
    monkeypatch.setattr(precoding, "top_left_singular_vector",
                        lambda mat: shapes.append(mat.shape) or loop(mat))
    reduced = _random_reduced(np.random.default_rng(11), 4, 5)
    reduced[:, 2] = lone_entries
    with np.errstate(all="ignore"):
        equivalent_channel_svd(_grouping(reduced, [[2], [0], [4, 1], [3]]))
    assert shapes == [(2, 4)]


@pytest.mark.parametrize("seed", range(4))
def test_svd_links_of_full_trials_match_the_loop(seed):
    lens = lens_transform_matrix(64)
    params = ChannelParams(n_antennas=64, n_users=24)
    for trial in range(5):
        hb = lens.matrix @ sample_realization(params, trial_rng(seed, trial)).matrix
        g = group_users(select_beams(hb), hb)
        assert _svd_outcome(equivalent_channel_svd, g) == \
            _svd_outcome(reference_equivalent_channel_svd, g)


SPECIAL_ENTRIES = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                   math.inf, -math.inf, complex(0.0, math.inf), 5e-324]


def _loop_equivalent(grouping):
    """Every beam, one-member ones too, through the package's power iteration,
    whose finite-matrix gate returns at once on the infinite beams the
    reference iteration would run to its cap."""
    cols = []
    for n in range(grouping.n_rf):
        h_n = grouping.beam_channels(n)
        cols.append(h_n @ precoding.top_left_singular_vector(h_n.T).conj())
    return np.stack(cols, axis=1)


def _link_outcome(hb):
    with np.errstate(all="ignore"):
        try:
            grouping, precoder = build_noma_link(hb, "svd")
            lg = link_gains(grouping, precoder)
        except DROP_ERRORS as err:
            return type(err), str(err)
    return ([m.tolist() for m in grouping.beams], precoder.matrix.tobytes(),
            np.float64(precoder.zf_residual).tobytes(), lg.gains.tobytes(), lg.own.tobytes())


def _fuzzed_beamspace(rng):
    n, k = int(rng.integers(2, 17)), int(rng.integers(1, 9))
    hb = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) \
        * 10.0 ** rng.uniform(-3, 3, k)
    if k > 1 and rng.random() < 0.25:  # a twin shares its beam and its norm
        twin = rng.choice(k, 2, replace=False)
        hb[:, twin[1]] = hb[:, twin[0]]
    rows = np.unique(np.abs(hb).argmax(axis=0))  # specials land on selected beams
    for _ in range(int(rng.integers(0, 6))):
        hb[rng.choice(rows), rng.integers(k)] = SPECIAL_ENTRIES[rng.integers(len(SPECIAL_ENTRIES))]
    return hb


def _lone_special_beams(hb):
    with np.errstate(all="ignore"):
        try:
            g = group_users(select_beams(hb), hb)
        except DROP_ERRORS:
            return 0
    cols = [g.reduced[:, m[0]] for m in g.beams if len(m) == 1]
    parts = [np.concatenate([c.real, c.imag]) for c in cols]
    return sum(bool(np.any(np.isinf(p) | ((p == 0) & np.signbit(p)))) for p in parts)


def test_svd_links_with_special_entries_match_the_per_beam_loop(monkeypatch):
    # one-member columns are their user's channel, where the loop's h @ [1-0j]
    # turns a -0.0 real part into +0.0 and an infinite entry's other part into
    # NaN: every link is still kept with the same bytes, or dropped with the
    # same error
    rng = np.random.default_rng(2030)
    spaces = [_fuzzed_beamspace(rng) for _ in range(600)]
    new = [_link_outcome(hb) for hb in spaces]
    monkeypatch.setattr(precoding, "equivalent_channel_svd", _loop_equivalent)
    assert [_link_outcome(hb) for hb in spaces] == new
    assert sum(not isinstance(o[0], type) for o in new) >= 100
    assert sum(_lone_special_beams(hb) for hb in spaces) >= 100


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
def test_overflowing_svd_mix_is_kept():
    # M M^H is finite on the two-user beam but the norm of M M^H x overflows:
    # the power iteration's certificate fails and the SVD mixes the beam
    svd = run_trial(_overflow_config("svd"), 0)
    strongest = run_trial(_overflow_config("strongest"), 0)
    for rec in svd:
        assert not rec.dropped and np.isfinite(rec.sum_rate) and rec.sum_rate > 0
    # the other schemes do not use the equivalent channel
    for rec_svd, rec_strongest in zip(svd, strongest):
        if rec_svd.scheme in ("beamspace_mimo", "fully_digital"):
            assert repr(rec_svd.__dict__) == repr(rec_strongest.__dict__)


@pytest.mark.filterwarnings("error")
def test_overflowing_svd_mix_is_kept_without_a_warning():
    # no RuntimeWarning from the overflowing norms reaches stderr
    records = run_trial(_overflow_config("svd"), 0)
    assert [(r.scheme, r.dropped, r.drop_reason) for r in records] == [
        ("noma", False, ""), ("oma", False, ""),
        ("beamspace_mimo", False, ""), ("fully_digital", False, "")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_svd_mix_keeps_the_cli_running(tmp_path):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 4\nlos_variance = 1e300\n")
    out = tmp_path / "overflow"
    code = cli_main(["sweep-snr", "--config", str(cfg), "--seed", "1", "--snr", "10",
                     "--trials", "1", "--variant", "svd", "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "overflow.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and all(row.split(",")[9] == "0" for row in rows)
