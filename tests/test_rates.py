import numpy as np
import pytest

from beamspace_noma import (BeamGrouping, LinkBudget, PowerModel, Precoder,
                            energy_efficiency, interference_vector, link_gains, sinr,
                            sum_rate, zf_precoder)


def _identity_precoder(n):
    return Precoder(matrix=np.eye(n, dtype=complex), zf_residual=0.0)


def _hand_instance():
    """2 beams / 3 users with identity precoding; all gains hand-checkable."""
    reduced = np.array([[1.0 + 0j, 0.8, 0.1j],
                        [0.1 + 0j, 0.2j, 0.9]])
    grouping = BeamGrouping(beams=[np.array([0, 1]), np.array([2])],
                            reduced=reduced, selected=np.array([0, 1]))
    return grouping, _identity_precoder(2)


def test_interference_single_user_is_noise(budget):
    g = BeamGrouping(beams=[np.array([0])], reduced=np.array([[2.0 + 0j]]),
                     selected=np.array([0]))
    w = _identity_precoder(1)
    xi = interference_vector(link_gains(g, w), np.array([3.0]), budget.noise_mw)
    assert xi[0] == budget.noise_mw


def test_first_user_with_zf_sees_only_noise(random_link, budget):
    _, _, grouping, precoder = random_link(seed=41, trial=0, n=32, k=6, min_groups=1)
    powers = np.full(6, budget.total_power_mw / 6)
    lg = link_gains(grouping, precoder)
    xi_all = interference_vector(lg, powers, budget.noise_mw)
    for n in range(grouping.n_rf):
        xi = xi_all[lg.beam_slices[n].start]
        assert xi == pytest.approx(budget.noise_mw, rel=1e-9)


def test_hand_expanded_interference_terms():
    grouping, w = _hand_instance()
    powers = np.array([2.0, 1.0, 3.0])
    noise = 0.5
    xi = interference_vector(link_gains(grouping, w), powers, noise)  # flat order 0, 1, 2
    # user 0: beam 0 rank 0 -> only beam 1 leaks: |0.1|^2 * 3 + noise
    assert xi[0] == pytest.approx(0.01 * 3.0 + 0.5, abs=1e-15)
    # user 1: beam 0 rank 1 -> own-beam 0.8^2 * 2 + cross |0.2|^2 * 3 + noise
    assert xi[1] == pytest.approx(0.64 * 2.0 + 0.04 * 3.0 + 0.5, abs=1e-15)
    # user 2: beam 1 rank 0 -> cross |0.1|^2 * (2 + 1) + noise
    assert xi[2] == pytest.approx(0.01 * 3.0 + 0.5, abs=1e-15)
    assert sinr(1, 0, grouping, w, powers, noise) == pytest.approx(
        0.64 * 1.0 / (0.64 * 2.0 + 0.04 * 3.0 + 0.5), abs=1e-15)


def test_sinr_zero_power_and_single_user(budget):
    grouping, w = _hand_instance()
    assert sinr(0, 0, grouping, w, np.array([0.0, 1.0, 1.0]), 0.5) == 0.0
    g1 = BeamGrouping(beams=[np.array([0])], reduced=np.array([[1.5 + 0j]]),
                      selected=np.array([0]))
    w1 = _identity_precoder(1)
    assert sinr(0, 0, g1, w1, np.array([2.0]), 0.5) == pytest.approx(2.25 * 2.0 / 0.5)


def test_sinr_doubles_with_power_for_first_user_single_beam():
    g = BeamGrouping(beams=[np.array([0, 1])],
                     reduced=np.array([[1.0 + 0j, 0.7]]), selected=np.array([0]))
    w = _identity_precoder(1)
    lo = sinr(0, 0, g, w, np.array([1.0, 2.0]), 0.3)
    hi = sinr(0, 0, g, w, np.array([2.0, 4.0]), 0.3)
    assert hi == pytest.approx(2 * lo, rel=1e-12)


def test_sum_rate_unit_sinr_single_user():
    g = BeamGrouping(beams=[np.array([0])], reduced=np.array([[1.0 + 0j]]),
                     selected=np.array([0]))
    budget = LinkBudget(noise_mw=2.0, total_power_mw=2.0)
    report = sum_rate(g, _identity_precoder(1), np.array([2.0]), budget)
    assert report.sum_rate == pytest.approx(1.0, abs=1e-12)


def test_sum_rate_zero_powers(random_link, budget):
    _, _, grouping, precoder = random_link(seed=42, trial=1, n=16, k=5)
    report = sum_rate(grouping, precoder, np.zeros(5), budget)
    assert report.sum_rate == 0.0


def test_sum_rate_matches_term_by_term_oracle(random_link, budget):
    # independent re-implementation: explicit loops over the signal decomposition
    for trial in range(6):
        _, _, grouping, precoder = random_link(seed=43, trial=trial, n=16, k=6, min_groups=1)
        rng = np.random.default_rng(trial)
        powers = rng.uniform(0.1, 2.0, size=6)
        report = sum_rate(grouping, precoder, powers, budget)
        flat = list(report.users)
        total = 0.0
        for n, members in enumerate(grouping.beams):
            for m, user in enumerate(members):
                h = grouping.reduced[:, user]
                own = abs(np.vdot(h, precoder.matrix[:, n])) ** 2
                u = flat.index(user)
                intra = own * sum(powers[flat.index(v)] for v in members[:m])
                inter = 0.0
                for j, others in enumerate(grouping.beams):
                    if j == n:
                        continue
                    gain_j = abs(np.vdot(h, precoder.matrix[:, j])) ** 2
                    inter += gain_j * sum(powers[flat.index(v)] for v in others)
                gamma = own * powers[u] / (intra + inter + budget.noise_mw)
                total += np.log2(1 + gamma)
        assert report.sum_rate == pytest.approx(total, rel=1e-12)


def test_energy_efficiency_reference_points():
    budget = LinkBudget(noise_mw=1.0, total_power_mw=32.0)
    pm = PowerModel()  # 300 / 5 / 200 mW
    # denominator: 32 + 32*300 + 32*5 + 200 = 9992 mW = 9.992 W
    assert energy_efficiency(100.0, 32, budget, pm) == pytest.approx(100.0 / 9.992, abs=1e-12)
    assert energy_efficiency(0.0, 32, budget, pm) == 0.0
    # fully digital at N = 256: 32 + 256*305 + 200 = 78312 mW
    assert energy_efficiency(100.0, 256, budget, pm) == pytest.approx(100.0 / 78.312, abs=1e-12)


def test_sic_removal_never_hurts(random_link, budget):
    # adding back the cancelled (later-ranked) users' powers can only raise xi
    for trial in range(5):
        _, _, grouping, precoder = random_link(seed=44, trial=trial, n=16, k=6, min_groups=1)
        rng = np.random.default_rng(trial)
        powers = rng.uniform(0.1, 2.0, size=6)
        lg = link_gains(grouping, precoder)
        flat = list(lg.users)
        xi_all = interference_vector(lg, powers, budget.noise_mw)
        for n, members in enumerate(grouping.beams):
            for m, user in enumerate(members):
                u = flat.index(user)
                with_sic = sinr(m, n, grouping, precoder, powers, budget.noise_mw)
                cancelled = sum(powers[flat.index(v)] for v in members[m + 1:])
                xi = xi_all[lg.beam_slices[n].start + m]
                without = lg.own_gain[u] * powers[u] / (xi + lg.own_gain[u] * cancelled)
                assert with_sic >= without - 1e-15


def test_noise_strictly_degrades_sinr(random_link):
    _, _, grouping, precoder = random_link(seed=45, trial=0, n=16, k=5)
    powers = np.full(5, 1.0)
    a = sum_rate(grouping, precoder, powers, LinkBudget(noise_mw=0.5, total_power_mw=5.0))
    b = sum_rate(grouping, precoder, powers, LinkBudget(noise_mw=0.8, total_power_mw=5.0))
    assert np.all(b.sinr < a.sinr)
    assert np.all(np.isfinite(a.rates)) and np.all(a.rates >= 0)


def test_noise_mapping_and_scale_invariance(random_link):
    budget = LinkBudget.from_snr(32.0, 10.0, n_users=16)
    assert budget.noise_mw == pytest.approx((32.0 / 16) / 10.0, abs=1e-15)
    _, _, grouping, precoder = random_link(seed=46, trial=0, n=16, k=5)
    b1 = LinkBudget.from_snr(10.0, 7.0, n_users=5)
    b2 = LinkBudget.from_snr(20.0, 7.0, n_users=5)
    powers = np.linspace(1.0, 3.0, 5)
    r1 = sum_rate(grouping, precoder, powers, b1)
    r2 = sum_rate(grouping, precoder, 2 * powers, b2)
    np.testing.assert_allclose(r1.sinr, r2.sinr, rtol=1e-12)


def _looped_seg_excl_cumsum(x, slices):
    cum = np.cumsum(x)
    out = cum - x
    for s in slices:
        if s.start > 0:
            out[s] -= cum[s.start - 1]
    return out


@pytest.mark.parametrize("sizes", [[1], [5], [1, 1, 1], [3, 1, 4, 1, 5], [2] * 16])
def test_seg_excl_cumsum_matches_per_beam_loop(sizes):
    from beamspace_noma.rates import seg_excl_cumsum

    rng = np.random.default_rng(len(sizes))
    x = rng.exponential(size=sum(sizes)) * 10.0 ** rng.uniform(-6, 6, size=sum(sizes))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    slices = [slice(bounds[i], bounds[i + 1]) for i in range(len(sizes))]
    seg_start = np.repeat(bounds[:-1], sizes)
    got = seg_excl_cumsum(x, seg_start)
    assert got.tobytes() == _looped_seg_excl_cumsum(x, slices).tobytes()
    for s in slices:
        assert got[s.start] == 0.0


def test_link_gains_own_gain_and_beam_start(random_link):
    _, _, grouping, precoder = random_link(seed=3, n=32, k=12, min_groups=2)
    lg = link_gains(grouping, precoder)
    rows = np.arange(len(lg.users))
    assert lg.own_gain.tobytes() == lg.gains[rows, lg.beam_of].tobytes()
    for n, s in enumerate(lg.beam_slices):
        assert np.all(lg.beam_start[s] == s.start) and np.all(lg.beam_of[s] == n)
