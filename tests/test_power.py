import math

import numpy as np
import pytest

from beamspace_noma import (BeamGrouping, LinkBudget, OptimizerConfig, Precoder, allocate,
                            link_gains, mmse_error, proposition1_check, sinr, sum_rate,
                            update_p)
from beamspace_noma.power import (_base_denominator, _mmse_terms, _powers_at,
                                  _with_rate_multipliers)

from conftest import xi_one


def _single_user(gain=1.0):
    g = BeamGrouping(beams=[np.array([0])],
                     reduced=np.array([[complex(np.sqrt(gain))]]),
                     selected=np.array([0]))
    w = Precoder(matrix=np.eye(1, dtype=complex), zf_residual=0.0)
    return g, w


def _mse(c, p, g_own, xi):
    # e(c) from the signal decomposition, used as the grid-search oracle
    return abs(1 - c * np.sqrt(p) * g_own) ** 2 + abs(c) ** 2 * xi


def test_update_c_reference_point():
    lg = link_gains(*_single_user())
    for p, want in ((1.0, pytest.approx(0.5, abs=1e-15)), (0.0, 0.0)):
        powers = np.array([p])
        xi = xi_one(lg, powers, 1.0)
        assert _mmse_terms(lg, powers, xi)[0][0] == want


def test_update_c_beats_local_grid(random_link, budget):
    _, _, grouping, precoder = random_link(seed=51, trial=0, n=16, k=5, min_groups=1)
    rng = np.random.default_rng(0)
    powers = rng.uniform(0.2, 2.0, size=5)
    lg = link_gains(grouping, precoder)
    xi_all = xi_one(lg, powers, budget.noise_mw)
    c = _mmse_terms(lg, powers, xi_all)[0]
    for n, members in enumerate(grouping.beams):
        for m, user in enumerate(members):
            u = list(lg.users).index(user)
            xi = xi_all[np.searchsorted(lg.beam_of, n) + m]
            e_star = _mse(c[u], powers[u], lg.own[u], xi)
            for dr in np.linspace(-1e-2, 1e-2, 9):
                for di in np.linspace(-1e-2, 1e-2, 9):
                    trial_c = c[u] + dr + 1j * di
                    assert _mse(trial_c, powers[u], lg.own[u], xi) >= e_star - 1e-14


def test_update_a_reference_points():
    lg = link_gains(*_single_user())
    # p = 1, gain 1, noise 1 -> sinr 1 -> e = 1/2, a = 2
    for p, want, tol in ((1.0, 2.0, 1e-12), (0.0, 1.0, 1e-15)):
        powers = np.array([p])
        a = 1.0 / _mmse_terms(lg, powers, xi_one(lg, powers, 1.0))[1]
        assert a[0] == pytest.approx(want, abs=tol)


def test_update_a_equals_one_plus_sinr(random_link, budget):
    _, _, grouping, precoder = random_link(seed=52, trial=1, n=16, k=6, min_groups=1)
    rng = np.random.default_rng(1)
    powers = rng.uniform(0.0, 2.0, size=6)
    lg = link_gains(grouping, precoder)
    xi = xi_one(lg, powers, budget.noise_mw)
    a = 1.0 / _mmse_terms(lg, powers, xi)[1]
    for n, members in enumerate(grouping.beams):
        for m, user in enumerate(members):
            u = list(lg.users).index(user)
            gamma = sinr(m, n, grouping, precoder, powers, budget.noise_mw)
            assert abs(a[u] - (1 + gamma)) <= 1e-10


def test_mmse_error_matches_identity(random_link, budget):
    for trial in range(5):
        _, _, grouping, precoder = random_link(seed=53, trial=trial, n=16, k=6)
        rng = np.random.default_rng(trial)
        powers = rng.uniform(0.0, 3.0, size=6)
        e = mmse_error(powers, grouping, precoder, budget.noise_mw)
        lg = link_gains(grouping, precoder)
        for n, members in enumerate(grouping.beams):
            for m, user in enumerate(members):
                u = list(lg.users).index(user)
                gamma = sinr(m, n, grouping, precoder, powers, budget.noise_mw)
                assert abs(e[u] - 1.0 / (1.0 + gamma)) <= 1e-12


@pytest.mark.parametrize("count", [5, 7])
def test_mmse_error_rejects_a_power_per_user_of_the_wrong_length(random_link, budget, count):
    _, _, grouping, precoder = random_link(seed=3, n=16, k=6)
    with pytest.raises(ValueError, match=rf"^expected 6 powers, got \({count},\)$"):
        mmse_error(np.ones(count), grouping, precoder, budget.noise_mw)


def test_update_p_single_user_takes_full_budget():
    g, w = _single_user(gain=0.8)
    budget = LinkBudget(noise_mw=0.4, total_power_mw=5.0)
    config = OptimizerConfig()
    p0 = np.array([budget.total_power_mw])
    lg = link_gains(g, w)
    xi = xi_one(lg, p0, budget.noise_mw)
    c, e = _mmse_terms(lg, p0, xi)
    a = 1.0 / e
    p, duals = update_p(c, a, g, w, config, budget)
    assert p[0] == pytest.approx(5.0, rel=1e-8)
    assert duals.budget_multiplier > 0


def test_update_p_zero_numerator_gives_zero_power():
    g, w = _single_user()
    budget = LinkBudget(noise_mw=1.0, total_power_mw=4.0)
    p, duals = update_p(np.array([0.0 + 0j]), np.array([1.0]), g, w, OptimizerConfig(), budget)
    assert p[0] == 0.0
    assert duals.budget_multiplier == 0.0


def test_update_p_fills_budget_on_multiuser_instance(random_link):
    for trial in range(5):
        _, _, grouping, precoder = random_link(seed=54, trial=trial, n=16, k=3, min_groups=1)
        budget = LinkBudget.from_snr(1.0, 10.0, n_users=3)
        p = np.full(3, budget.total_power_mw / 3)
        lg = link_gains(grouping, precoder)
        xi = xi_one(lg, p, budget.noise_mw)
        c, e = _mmse_terms(lg, p, xi)
        a = 1.0 / e
        p_new, _ = update_p(c, a, grouping, precoder, OptimizerConfig(), budget)
        assert abs(p_new.sum() - 1.0) <= 1e-9
        assert np.all(p_new >= 0)


def test_budget_multiplier_monotonically_drains_power(random_link, budget):
    _, _, grouping, precoder = random_link(seed=55, trial=0, n=16, k=5, min_groups=1)
    lg = link_gains(grouping, precoder)
    p0 = np.full(5, 1.0)
    xi = xi_one(lg, p0, budget.noise_mw)
    c, e = _mmse_terms(lg, p0, xi)
    a = 1.0 / e
    numer = a * np.real(c * lg.own)
    denom = _with_rate_multipliers(lg, _base_denominator(lg, c, a), np.zeros(5), 0.0)
    totals = [_powers_at(numer, denom, lam).sum() for lam in np.geomspace(1e-4, 1e3, 40)]
    assert np.all(np.diff(totals) <= 1e-12)


def test_allocate_zero_iterations_returns_initialization(random_link, budget):
    _, _, grouping, precoder = random_link(seed=56, trial=0, n=16, k=4)
    alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=0))
    assert alloc.trace == []
    np.testing.assert_allclose(alloc.powers, np.full(4, budget.total_power_mw / 4))
    assert alloc.iterations_used == 0


def test_allocate_single_user_converges_immediately():
    g, w = _single_user(gain=1.3)
    budget = LinkBudget(noise_mw=0.2, total_power_mw=7.0)
    alloc = allocate(g, w, budget, OptimizerConfig(max_iters=5))
    assert alloc.powers[0] == pytest.approx(7.0, rel=1e-8)
    assert alloc.trace[0] == pytest.approx(np.log2(1 + 1.3 * 7.0 / 0.2), rel=1e-8)


def test_allocate_trace_is_monotone_and_budget_feasible(random_link):
    for trial in range(15):
        _, _, grouping, precoder = random_link(seed=57, trial=trial, n=16, k=6, min_groups=1)
        budget = LinkBudget.from_snr(16.0, 10.0, n_users=6)
        alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=15))
        assert np.all(np.diff(alloc.trace) >= -1e-8)
        assert np.all(np.asarray(alloc.budget_trace) <= budget.total_power_mw + 1e-9)
        assert np.all(alloc.powers >= 0)


def test_allocate_beats_simplex_grid_oracle(random_link):
    from oracles import simplex_grid_optimum

    # brute-force oracle: exhaustive sum rate on the budget face, step P/300
    for trial in range(5):
        _, _, grouping, precoder = random_link(seed=58, trial=trial, n=8, k=3, min_groups=1)
        budget = LinkBudget.from_snr(1.0, 10.0, n_users=3)
        alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=150))
        achieved = sum_rate(grouping, precoder, alloc.powers, budget).sum_rate
        assert achieved >= 0.98 * simplex_grid_optimum(grouping, precoder, budget, steps=300)


def test_allocate_respects_feasible_min_rate(random_link):
    _, _, grouping, precoder = random_link(seed=59, trial=2, n=16, k=4, min_groups=1)
    budget = LinkBudget.from_snr(32.0, 20.0, n_users=4)
    alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=20, min_rate=1.0))
    report = sum_rate(grouping, precoder, alloc.powers, budget)
    assert alloc.feasible
    assert np.all(report.rates >= 1.0 - 1e-6)


def test_allocate_flags_unreachable_min_rate(random_link):
    _, _, grouping, precoder = random_link(seed=60, trial=0, n=16, k=4, min_groups=1)
    budget = LinkBudget.from_snr(32.0, 0.0, n_users=4)
    alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=10, min_rate=50.0))
    assert not alloc.feasible
    assert np.all(alloc.powers >= 0)
    assert alloc.powers.sum() <= budget.total_power_mw + 1e-9


def test_allocate_stops_on_stagnation():
    g, w = _single_user()
    budget = LinkBudget(noise_mw=0.5, total_power_mw=2.0)
    alloc = allocate(g, w, budget, OptimizerConfig(max_iters=500))
    assert alloc.iterations_used < 500


@pytest.mark.parametrize("min_rate", [math.nan, math.inf, -1.0, 1024.0, 2000.0])
def test_optimizer_config_rejects_min_rate_without_a_finite_sinr_floor(min_rate):
    with pytest.raises(ValueError, match="min_rate"):
        OptimizerConfig(min_rate=min_rate)


def test_proposition1_reference_points():
    grid = np.geomspace(0.01, 100.0, 20001)
    a1, f1 = proposition1_check(1.0, grid)
    assert f1 == pytest.approx(0.0, abs=1e-6)
    assert abs(a1 - 1.0) <= 1.01 * (grid[np.searchsorted(grid, 1.0)] - grid[np.searchsorted(grid, 1.0) - 1])
    a2, f2 = proposition1_check(2.0, grid)
    assert f2 == pytest.approx(-1.0, abs=1e-6)
    assert a2 == pytest.approx(0.5, rel=2e-3)
    a3, _ = proposition1_check(0.37, grid)
    assert a3 == pytest.approx(1 / 0.37, rel=2e-3)
    with pytest.raises(ValueError):
        proposition1_check(-1.0, grid)


@pytest.mark.parametrize("snr_db,min_rate", [(0.0, 0.0), (20.0, 0.0), (20.0, 1.0)])
def test_allocate_report_is_sum_rate_at_final_powers(random_link, snr_db, min_rate):
    for trial in range(5):
        _, _, grouping, precoder = random_link(seed=61, trial=trial, n=16, k=6, min_groups=1)
        budget = LinkBudget.from_snr(16.0, snr_db, n_users=6)
        alloc = allocate(grouping, precoder, budget,
                         OptimizerConfig(max_iters=15, min_rate=min_rate))
        ref = sum_rate(grouping, precoder, alloc.powers, budget)
        for name in ("users", "sinr", "rates"):
            np.testing.assert_array_equal(getattr(alloc.report, name), getattr(ref, name))
        assert alloc.report.sum_rate == ref.sum_rate
        assert alloc.report.n_rf == ref.n_rf
        assert alloc.iterations_used >= 1
        assert alloc.report.sum_rate == alloc.trace[-1]
