"""The SNR-batched power allocation, baselines and trial against the
one-budget-at-a-time references in oracles.py, bit for bit."""

import math
import warnings
from dataclasses import asdict
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, PrecodingError,
                            SystemConfig, allocate, allocate_batch, beamspace_mimo_single_user,
                            beamspace_mimo_single_user_batch, build_noma_link, fully_digital_zf,
                            fully_digital_zf_batch, lens_transform_matrix, link_gains, mimo_oma,
                            mimo_oma_batch, run_trial, runner, sample_realization, trial_rng,
                            update_p)
from beamspace_noma.power import (OUTER_CAP, _base_denominator, _update_p_rows,
                                  _with_rate_multipliers)
from beamspace_noma.rates import budget_arrays

# Seven points above the default sweep: below 10 dB a min-rate of 1 bps/Hz is
# infeasible for most users, so every iteration runs the 200-round dual cap
# and the per-budget reference takes minutes (one small link covers 0 and
# 5 dB with two iterations).
SNR_DB = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
SETTINGS = [(min_rate, max_iters) for min_rate in (0.0, 1.0, 50.0)
            for max_iters in (0, 1, 20, 500)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _budgets(k, snr_db=SNR_DB, total_mw=32.0):
    return [LinkBudget.from_snr(total_mw, snr, k) for snr in snr_db]


def _link(n, k, seed, trial=0):
    real = sample_realization(ChannelParams(n_antennas=n, n_users=k), trial_rng(seed, trial))
    beamspace = lens_transform_matrix(n).matrix @ real.matrix
    grouping, precoder = build_noma_link(beamspace, "strongest")
    return real.matrix, beamspace, grouping, precoder


def _assert_same_report(got, want):
    assert got.users.tobytes() == want.users.tobytes()
    for field in ("sinr", "rates"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert type(got.sum_rate) is float and _bits(got.sum_rate) == _bits(want.sum_rate)
    assert got.n_rf == want.n_rf


def _assert_same_allocation(got, want):
    assert got.powers.dtype == want.powers.dtype and got.powers.shape == want.powers.shape
    assert got.powers.tobytes() == want.powers.tobytes()
    assert all(type(v) is float for v in got.trace + got.budget_trace)
    assert _bits(got.trace) == _bits(want.trace)
    assert _bits(got.budget_trace) == _bits(want.budget_trace)
    assert type(got.budget_multiplier) is float
    assert _bits(got.budget_multiplier) == _bits(want.budget_multiplier)
    assert got.rate_multipliers.tobytes() == want.rate_multipliers.tobytes()
    assert got.feasible is want.feasible
    assert got.iterations_used == want.iterations_used
    _assert_same_report(got.report, want.report)


def _check_allocations(grouping, precoder, budgets, max_iters, min_rate):
    config = OptimizerConfig(max_iters=max_iters, min_rate=min_rate)
    got = allocate_batch(link_gains(grouping, precoder), budgets, config)
    assert len(got) == len(budgets)
    want = [oracles.sequential_allocate(grouping, precoder, budget, max_iters, min_rate)
            for budget in budgets]
    for alloc, ref in zip(got, want):
        _assert_same_allocation(alloc, ref)
    return want


@pytest.mark.parametrize("min_rate,max_iters", SETTINGS)
def test_allocation_matches_per_budget_loop_on_a_small_link(min_rate, max_iters):
    _, _, grouping, precoder = _link(16, 6, 3)
    assert grouping.n_rf < 6  # at least one NOMA group
    _check_allocations(grouping, precoder, _budgets(6), max_iters, min_rate)


@pytest.mark.parametrize("max_iters", [0, 1, 20, 500])
def test_allocation_matches_per_budget_loop_on_a_second_small_link(max_iters):
    _, _, grouping, precoder = _link(32, 12, 8)
    assert grouping.n_rf < 12
    _check_allocations(grouping, precoder, _budgets(12), max_iters, 0.0)


# min_rate 1 for 500 iterations would take minutes at full scale
@pytest.mark.parametrize("min_rate,max_iters", [s for s in SETTINGS if s != (1.0, 500)])
def test_allocation_matches_per_budget_loop_at_full_scale(min_rate, max_iters):
    _, _, grouping, precoder = _link(256, 32, 3)
    want = _check_allocations(grouping, precoder, _budgets(32), max_iters, min_rate)
    if (min_rate, max_iters) in ((0.0, 500), (1.0, 20)):
        # rows leave the batch at different iterations
        assert len({ref.iterations_used for ref in want}) > 1


def test_rows_stop_at_different_dual_rounds():
    _, _, grouping, precoder = _link(32, 12, 8)
    lg = link_gains(grouping, precoder)
    rounds = set()
    for budget in _budgets(12):
        p = np.full(12, budget.total_power_mw / 12)
        xi = oracles.interference_vector(lg, p, budget.noise_mw)
        c = np.conj(np.sqrt(p) * lg.own) / (p * lg.own_gain + xi)
        a = (p * lg.own_gain + xi) / xi
        got_p, got = update_p(c, a, grouping, precoder, OptimizerConfig(min_rate=1.0), budget)
        want_p, want = oracles.sequential_update_p(lg, c, a, 1.0, budget)
        assert got_p.tobytes() == want_p.tobytes()
        assert type(got.budget_multiplier) is float and type(got.max_violation) is float
        assert _bits(got.budget_multiplier) == _bits(want.budget_multiplier)
        assert got.rate_multipliers.tobytes() == want.rate_multipliers.tobytes()
        assert got.rounds == want.rounds
        assert _bits(got.max_violation) == _bits(want.max_violation)
        rounds.add(got.rounds)
    assert len(rounds) > 1


@pytest.mark.parametrize("min_rate, some_row_converges", [(1.0, True), (3.0, False)])
def test_stacked_dual_ascent_rows_match_the_sequential_ascent(min_rate, some_row_converges):
    # the rows leave the ascent at different rounds or run its cap; the last
    # row's NaN noise makes every violation NaN, so it returns its round-1
    # iterate. LinkBudget rejects a NaN noise, so that budget is a namespace
    _, _, grouping, precoder = _link(16, 6, 3)
    lg = link_gains(grouping, precoder)
    budgets = _budgets(6, snr_db=[0.0, 10.0, 30.0])
    budgets.append(SimpleNamespace(total_power_mw=32.0, noise_mw=math.nan))
    c, a = [], []
    for budget in budgets[:3] + budgets[1:2]:  # the NaN row steps from the 10 dB split
        p = np.full(6, budget.total_power_mw / 6)
        xi = oracles.interference_vector(lg, p, budget.noise_mw)
        c.append(np.conj(np.sqrt(p) * lg.own) / (p * lg.own_gain + xi))
        a.append((p * lg.own_gain + xi) / xi)
    eta = OptimizerConfig(min_rate=min_rate).rate_threshold
    p, lam, mu, rounds, violation = _update_p_rows(lg, np.array(c), np.array(a), eta,
                                                   *budget_arrays(budgets), np.zeros(len(budgets)))
    for row, budget in enumerate(budgets):
        want_p, want = oracles.sequential_update_p(lg, c[row], a[row], min_rate, budget)
        assert p[row].tobytes() == want_p.tobytes()
        assert _bits(lam[row]) == _bits(want.budget_multiplier)
        assert mu[row].tobytes() == want.rate_multipliers.tobytes()
        assert rounds[row] == want.rounds
        assert _bits(violation[row]) == _bits(want.max_violation)
    assert rounds[-1] == OUTER_CAP and math.isnan(violation[-1])
    assert any(rounds < OUTER_CAP) is some_row_converges


@pytest.mark.parametrize("eta", [0.0, 1.0, np.inf])
def test_stationary_denominator_rows_match_one_row_calls(eta):
    _, _, grouping, precoder = _link(16, 6, 3)
    lg = link_gains(grouping, precoder)
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    a = 1.0 + rng.exponential(size=(3, 6))
    # a row without multipliers must get the base terms alone, even where
    # adding the zero multiplier terms would change them (inf * 0 is NaN)
    mu = np.vstack([np.zeros(6), rng.exponential(size=6), np.zeros(6)])
    mu[2, 4] = 0.5
    with np.errstate(invalid="ignore"):
        got = _with_rate_multipliers(lg, _base_denominator(lg, c, a), mu, eta)
        for row in range(3):
            want = oracles._stationary_denominator(lg, c[row], a[row], mu[row], eta)
            assert got[row].tobytes() == want.tobytes()
            one = _with_rate_multipliers(lg, _base_denominator(lg, c[row], a[row]), mu[row],
                                         eta)
            assert one.tobytes() == want.tobytes()


@pytest.mark.parametrize("min_rate", [0.0, 1.0])
def test_single_user_and_single_budget(min_rate):
    _, _, grouping, precoder = _link(8, 1, 4)
    _check_allocations(grouping, precoder, _budgets(1), 20, min_rate)
    _, _, grouping, precoder = _link(16, 6, 3)
    for budget in _budgets(6, snr_db=[10.0]):
        _assert_same_allocation(allocate(grouping, precoder, budget,
                                         OptimizerConfig(max_iters=20, min_rate=min_rate)),
                                oracles.sequential_allocate(grouping, precoder, budget, 20,
                                                            min_rate))


def _assert_same_scheme(got, want):
    assert (got.n_rf, len(got.users)) == (want.n_rf, len(want.users))
    _assert_same_report(got, want)  # users, sinr, rates and sum rate bits


@pytest.mark.parametrize("n,k,seed", [(16, 6, 3), (32, 12, 8), (256, 32, 3), (8, 1, 4)])
def test_baselines_match_per_budget_calls(n, k, seed):
    spatial, beamspace, grouping, precoder = _link(n, k, seed)
    budgets = _budgets(k)
    lg = link_gains(grouping, precoder)
    batches = {
        "fully_digital": (fully_digital_zf_batch(spatial, budgets), fully_digital_zf,
                          oracles.reference_fully_digital_zf, spatial),
        "beamspace_mimo": (beamspace_mimo_single_user_batch(beamspace, budgets),
                           beamspace_mimo_single_user, oracles.reference_beamspace_mimo,
                           beamspace),
    }
    for got_all, one, reference, channel in batches.values():
        assert len(got_all) == len(budgets)
        for got, budget in zip(got_all, budgets):
            want = reference(channel, budget)
            _assert_same_scheme(got, want)
            _assert_same_scheme(one(channel, budget), want)
    got_all = mimo_oma_batch(lg, budgets)
    assert len(got_all) == len(budgets)
    for got, budget in zip(got_all, budgets):
        want = oracles.reference_mimo_oma(grouping, precoder, budget)
        _assert_same_scheme(got, want)
        _assert_same_scheme(mimo_oma(grouping, precoder, budget), want)


def test_singular_channel_raises_the_per_budget_error():
    spatial, _, _, _ = _link(16, 4, 5)
    spatial[:, 2] = spatial[:, 1]
    budgets = _budgets(4)
    with pytest.raises(PrecodingError) as want:
        oracles.reference_fully_digital_zf(spatial, budgets[0])
    with pytest.raises(PrecodingError) as got:
        fully_digital_zf_batch(spatial, budgets)
    assert str(got.value) == str(want.value)


def _records(records):
    # repr keeps float bits, NaN and the difference between float and np.float64
    return [repr(asdict(rec)) for rec in records]


def test_run_trial_matches_per_snr_reference_with_min_rate():
    config = SystemConfig(n_antennas=32, n_users=8, snr_db=[10.0, 20.0, 30.0],
                          trials=3, seed=11, min_rate=1.0, max_iters=8)
    feasible, iterations = set(), set()
    for trial in range(config.trials):
        got = run_trial(config, trial)
        assert len(got) == len(config.snr_db) * len(config.schemes)
        assert _records(got) == _records(oracles.reference_trial(config, trial))
        noma = [rec for rec in got if rec.scheme == "noma"]
        feasible.update(rec.feasible for rec in noma)
        iterations.update(len(rec.trace) for rec in noma)
    # the SNR rows differ in feasibility and in the iteration they stop at
    assert feasible == {True, False} and len(iterations) > 1


def test_run_trial_matches_per_snr_reference_with_min_rate_below_10_db(monkeypatch):
    # rmin 1 at 0 and 5 dB on a small link with two iterations, so the
    # per-budget reference runs its capped dual rounds in about a second:
    # the rate multipliers push budget roots within rounding above their
    # poles, where the adjacency certificate places them
    from beamspace_noma import power

    adjacent = []
    real_certify = power._certify

    def certify(numer, denom_base, picks, *args):
        rows = real_certify(numer, denom_base, picks, *args)
        adjacent.extend(node for row, (below, node, _) in picks
                        if row in rows and math.nextafter(below, math.inf) == node)
        return rows

    monkeypatch.setattr(power, "_certify", certify)
    config = SystemConfig(n_antennas=16, n_users=4, snr_db=[0.0, 5.0], trials=1, seed=1,
                          min_rate=1.0, max_iters=2, schemes=["noma", "oma"])
    got = run_trial(config, 0)
    assert _records(got) == _records(oracles.reference_trial(config, 0))
    assert len(adjacent) > 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_trial_matches_per_snr_reference_at_a_huge_los_variance(seed):
    # NOMA's sum rate or an iterate can come out NaN here, and both sides must
    # then drop it with one reason; whether it does depends on the BLAS kernel,
    # so only the records' equality is asserted
    config = SystemConfig(n_antennas=8, n_users=5, los_variance=1e40, snr_db=[-10.0, 0.0],
                          trials=1, max_iters=3, seed=seed)
    assert _records(run_trial(config, 0)) == _records(oracles.reference_trial(config, 0))


# the iteration at which each of trials 0-2 meets a NaN NOMA iterate (None:
# kept) at N = 16, K = 4 and 10 dB; the other schemes keep every trial
NAN_ITERATE_DROPS = {(1e40, "strongest"): [2, 1, 1], (1e40, "svd"): [3, 1, 1],
                     (1e100, "svd"): [None, 1, None]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("los_variance,variant", list(NAN_ITERATE_DROPS))
def test_nan_iterates_drop_noma_without_a_warning(los_variance, variant):
    config = SystemConfig(n_antennas=16, n_users=4, los_variance=los_variance, variant=variant,
                          snr_db=[10.0], trials=3)
    records = [rec for trial in range(config.trials) for rec in run_trial(config, trial)]
    noma = [rec for rec in records if rec.scheme == "noma"]
    assert [rec.drop_reason for rec in noma] == [
        f"non-finite sum rate nan at iteration {t}" if t else ""
        for t in NAN_ITERATE_DROPS[los_variance, variant]]
    assert all(rec.dropped == bool(rec.drop_reason) for rec in noma)
    others = [rec for rec in records if rec.scheme != "noma"]
    assert len(others) == 9 and not any(rec.dropped for rec in others)
    assert all(math.isfinite(rec.sum_rate) for rec in others)


@st.composite
def _extreme_configs(draw):
    """Configs of every scheme at any LoS variance a float holds (10^u, u in
    -300..308) and SNR points in -50..300 dB, where the link's arithmetic
    overflows, underflows and goes NaN."""
    n = draw(st.integers(8, 16))
    return SystemConfig(n_antennas=n, n_users=draw(st.integers(2, min(8, n))),
                        n_nlos=draw(st.integers(0, 3)),
                        los_variance=10.0 ** draw(st.floats(-300.0, 308.0)),
                        snr_db=list(dict.fromkeys(draw(st.lists(st.floats(-50.0, 300.0),
                                                                min_size=1, max_size=3)))),
                        max_iters=draw(st.integers(0, 5)), min_rate=0.0,
                        variant=draw(st.sampled_from(["strongest", "svd"])),
                        trials=1, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=_extreme_configs())
def test_run_trial_keeps_finite_records_or_drops_them_without_a_warning(config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_trial(config, 0)
    assert len(records) == len(config.snr_db) * len(config.schemes)
    for rec in records:
        if rec.dropped:
            assert rec.drop_reason
        else:
            assert math.isfinite(rec.sum_rate) and math.isfinite(rec.energy_eff), rec


@st.composite
def _trial_configs(draw):
    """Small configs of every scheme: N 8-16, K 2-8, L 0-3, one to three SNR
    points in -10..90 dB and LoS variances from 1e-6 to 1e12. A minimum rate
    caps K at 6 and the iterations at 3: below about 10 dB its rows run every
    dual round, one budget at a time in the oracle."""
    min_rate = draw(st.just(0.0) | st.floats(0.0, 2.0))
    n = draw(st.integers(8, 16))
    k = draw(st.integers(2, min(8, n) if min_rate == 0.0 else 6))
    return SystemConfig(n_antennas=n, n_users=k, n_nlos=draw(st.integers(0, 3)),
                        los_variance=10.0 ** draw(st.floats(-6.0, 12.0)),
                        snr_db=list(dict.fromkeys(draw(st.lists(st.floats(-10.0, 90.0),
                                                                min_size=1, max_size=3)))),
                        max_iters=draw(st.integers(0, 5 if min_rate == 0.0 else 3)),
                        min_rate=min_rate, variant=draw(st.sampled_from(["strongest", "svd"])),
                        trials=1, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(config=_trial_configs(), twin=st.none() | st.floats(0.0, 17.0))
def test_run_trial_matches_per_snr_reference_on_drawn_configs(config, twin):
    # a drawn twin makes user 1 user 0 plus 10**-twin of its own channel, so
    # cond(H) spans the ZF drop at COND_LIMIT up to an exact copy
    real_sample = runner.sample_realization

    def sample(params, rng):
        realization = real_sample(params, rng)
        if twin is not None:
            h = realization.matrix
            h[:, 1] = h[:, 0] + 10.0 ** -twin * h[:, 1]
        return realization

    with patch.object(runner, "sample_realization", sample), \
            patch.object(oracles, "sample_realization", sample):
        got = run_trial(config, 0)
        with np.errstate(all="ignore"):  # the oracle rates NaN iterates with warnings
            want = oracles.reference_trial(config, 0)
    assert _records(got) == _records(want)


def test_run_trial_drops_every_snr_point_of_a_singular_channel(monkeypatch):
    real_sample = runner.sample_realization

    def duplicate_user(params, rng):
        realization = real_sample(params, rng)
        realization.matrix[:, 3] = realization.matrix[:, 2]
        return realization

    monkeypatch.setattr(runner, "sample_realization", duplicate_user)
    monkeypatch.setattr(oracles, "sample_realization", duplicate_user)
    config = SystemConfig(n_antennas=16, n_users=6, snr_db=[0.0, 15.0, 30.0], trials=1, seed=2)
    got = run_trial(config, 0)
    assert _records(got) == _records(oracles.reference_trial(config, 0))
    for scheme, reason in (("fully_digital", "channel condition"),
                           ("beamspace_mimo", "equivalent channel condition")):
        records = [rec for rec in got if rec.scheme == scheme]
        assert len(records) == len(config.snr_db)
        assert all(rec.dropped and rec.drop_reason.startswith(reason) for rec in records)
