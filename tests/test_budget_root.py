"""The batched budget bisection against the sequential one, bit for bit."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles
from beamspace_noma import power
from beamspace_noma.power import BISECT_DEPTH, BUDGET_TOL, MAX_HALVINGS, _solve_budgets
from oracles import sequential_solve_budget


def _assert_same_root(numer, denom_base, total_mw):
    """Solve the root as a (1, K) row and check it against the sequential
    bisection; return the multiplier and the (K,) powers."""
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total_mw)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total_mw]))
    assert lam[0] == want_lam
    assert p.dtype == want_p.dtype and p.shape == (1,) + want_p.shape
    assert p.tobytes() == want_p.tobytes()
    return lam[0], p[0]


def _instance(seed, k, negative_denoms=False):
    rng = np.random.default_rng(seed)
    numer = rng.exponential(size=k) * 10.0 ** rng.uniform(-3, 1)
    denom_base = rng.exponential(size=k) * 10.0 ** rng.uniform(-3, 1)
    if negative_denoms:
        denom_base -= rng.uniform(0, 2) * denom_base.max()
    return numer, denom_base


@pytest.mark.parametrize("k", [1, 2, 7, 32, 64])
@pytest.mark.parametrize("seed", range(6))
def test_matches_sequential_on_random_instances(k, seed):
    numer, denom_base = _instance(seed, k)
    full = float(np.sum((numer / denom_base) ** 2))
    for total in (full * 2.0, full * 0.9, full * 1e-3, full * 1e-9, 32.0):
        _assert_same_root(numer, denom_base, total)


@pytest.mark.parametrize("k", [1, 32, 64])
@pytest.mark.parametrize("seed", range(6))
def test_matches_sequential_with_negative_denominators(k, seed):
    numer, denom_base = _instance(100 + seed, k, negative_denoms=True)
    for total in (1e-6, 1.0, 32.0, 1e6):
        _assert_same_root(numer, denom_base, total)


def test_slack_budget_returns_zero_multiplier():
    numer, denom_base = _instance(1, 32)
    lam, p = _assert_same_root(numer, denom_base, 1e30)
    assert lam == 0.0 and p.sum() <= 1e30


def test_doubling_phase_beyond_one():
    numer, denom_base = _instance(2, 32)
    lam, p = _assert_same_root(numer * 1e6, denom_base, 1e-3)
    assert lam > 1.0
    assert 1e-3 - p.sum() <= BUDGET_TOL * 1e-3


def test_zero_and_negative_numerators():
    numer, denom_base = _instance(3, 64)
    numer[::3] = 0.0
    numer[1::5] *= -1.0
    numer[7] = -0.0
    for total in (1e-4, 1.0, 32.0):
        lam, p = _assert_same_root(numer, denom_base, total)
        assert np.all(p[numer <= 0] == 0.0)


def test_nan_numerator_gets_zero_power():
    numer, denom_base = _instance(4, 16)
    numer[5] = np.nan
    lam, p = _assert_same_root(numer, denom_base, 0.5)
    assert p[5] == 0.0


@pytest.mark.parametrize("total", [1e-250, 1e-30, 1e30, 1e250])
def test_tiny_and_huge_totals(total):
    numer, denom_base = _instance(5, 32)
    _assert_same_root(numer, denom_base, total)
    _assert_same_root(numer * 1e100, denom_base, total)


def test_stop_on_midpoint_equal_to_an_endpoint():
    # p = (1 / (lam - 0.5))^2 jumps by ~20% between neighbouring doubles near
    # the root 0.5 + 1e-15, so the residual stop is never met; from [0, 1] the
    # bracket shrinks to two neighbouring doubles after ~53 halvings, far
    # below the cap
    numer, denom_base, total = np.array([1.0]), np.array([-0.5]), 1e30
    lam, p = _assert_same_root(numer, denom_base, total)
    assert total - p.sum() > BUDGET_TOL * total
    assert 0.5 < lam < 0.5 + 1e-14


def test_halving_cap():
    # the root sits near 1e-70, ~230 halvings below the first bracket [0, 1]
    numer, denom_base, total = np.array([1.0]), np.array([-1e-70]), 1e200
    lam, p = _assert_same_root(numer, denom_base, total)
    assert lam == 2.0 ** -MAX_HALVINGS
    assert total - p.sum() > BUDGET_TOL * total


def _halving_grid(lo, hi):
    grid = [lo, hi]
    for _ in range(BISECT_DEPTH):
        fine = [lo]
        for left, right in zip(grid, grid[1:]):
            fine += [(left + right) / 2.0, right]
        grid = fine
    return np.array(grid)


def _is_dyadic(lo, hi):
    width = Fraction(hi) - Fraction(lo)
    return (width > 0 and 1 in (width.numerator, width.denominator)
            and (width.numerator * width.denominator).bit_count() == 1
            and (Fraction(lo) / width).denominator == 1)


def _round_table(monkeypatch, lo, hi):
    """The multipliers one round evaluates for the bracket [lo, hi]."""
    evaluated = []
    real = power._batch_powers

    def capture(numer, denom_base, lams, positive):
        evaluated.append(lams[0, :, 0].copy())
        return real(numer, denom_base, lams, positive)

    monkeypatch.setattr(power, "_batch_powers", capture)
    record = [0, 1.0, 1.0, lo, hi, None, -np.inf, 0]
    width = 2 ** BISECT_DEPTH + 1
    power._walk_tables(np.ones((1, 1, 1)), np.ones((1, 1, 1)), power._round_walks([record]),
                       width, np.zeros(1), np.empty((1, 1)))
    monkeypatch.undo()
    assert len(evaluated) == 1 and evaluated[0].shape == (width,)
    return evaluated[0]


def test_round_table_holds_the_midpoint_tree(monkeypatch):
    # every bracket a bisection from [0, 1] or [2**399, 2**400] passes through
    # in its first 60 halvings, down to two neighbouring doubles, and brackets
    # of subnormal width
    rng = np.random.default_rng(7)
    brackets = [(0.0, 5e-324), (2.0 ** -1022, 2.0 ** -1022 + 5e-324),
                (5 * 2.0 ** -1070, 6 * 2.0 ** -1070)]
    for start in ((0.0, 1.0), (2.0 ** 399, 2.0 ** 400)):
        for bias in (0.0, 0.5, 1.0, 0.5, 0.5):
            lo, hi = start
            for _ in range(61):
                brackets.append((lo, hi))
                mid = (lo + hi) / 2.0
                if mid == lo or mid == hi:
                    break
                lo, hi = (mid, hi) if rng.random() < bias else (lo, mid)
    for lo, hi in brackets:
        assert _is_dyadic(lo, hi), (lo, hi)
        table, tree = _round_table(monkeypatch, lo, hi), _halving_grid(lo, hi)
        step = (Fraction(hi) - Fraction(lo)) / 2 ** BISECT_DEPTH
        for i, (node, want) in enumerate(zip(table.tolist(), tree.tolist())):
            if Fraction(node) == Fraction(lo) + i * step:
                assert node == want, (lo, hi, i)
            else:
                # not a double: the halving that reaches it meets a midpoint
                # equal to an endpoint and stops
                level = (i & -i).bit_length() - 1
                assert want in (tree[i - (1 << level)], tree[i + (1 << level)]), (lo, hi, i)
        assert table[0] == lo and table[-1] == hi


def test_powers_at_matches_the_masked_form_on_special_values():
    values = [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, np.inf, np.nan]
    numer, denom_base = (np.array(x) for x in zip(*itertools.product(values, values)))
    for lam in (0.0, 0.5, 1.0, 1e300, np.array([[0.0], [2.0 ** -1074], [1.0]])):
        want = oracles._powers_at(numer, denom_base, lam)
        got = power._powers_at(numer, denom_base, lam)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), lam


def test_root_leaves_the_masked_form_once_every_denominator_is_positive(monkeypatch):
    # at multiplier 0 two users have non-positive denominators, so the first
    # batch needs the masks; the root lies near 0.7, past -min(denom_base), so
    # every later batch of the bracket [lo, hi] can drop them
    numer, denom_base = np.ones(8), np.linspace(-0.2, 1.0, 8)
    total = float(np.sum((numer / (denom_base + 0.7)) ** 2))
    masked = []
    real = power._powers_at

    def counting(numer, denom_base, lam):
        masked.append(np.ndim(lam) == 3)
        return real(numer, denom_base, lam)

    monkeypatch.setattr(power, "_powers_at", counting)
    lam, _ = _assert_same_root(numer, denom_base, total)
    assert 0.5 < lam < 1.0
    assert masked.count(True) == 1


def _sequential_rows(numer, denom_base, total):
    rows = [sequential_solve_budget(n, d, t) for n, d, t in zip(numer, denom_base, total)]
    return np.array([lam for lam, _ in rows]), np.array([p for _, p in rows])


def _random_batch(rng, n_rows, k):
    """Rows of every kind the root meets: slack budgets, roots in (0, 1) and
    beyond 1, non-positive denominators, NaN/zero/negative numerators and
    totals from 1e-250 to 1e250."""
    scale = 10.0 ** rng.uniform(-100, 100, size=(n_rows, 1))
    numer = rng.exponential(size=(n_rows, k)) * 10.0 ** rng.uniform(-3, 1, size=(n_rows, 1))
    denom_base = rng.exponential(size=(n_rows, k)) * 10.0 ** rng.uniform(-3, 1, size=(n_rows, 1))
    numer *= np.where(rng.random((n_rows, 1)) < 0.3, scale, 1.0)
    shift = rng.random(n_rows) < 0.25
    denom_base[shift] -= rng.uniform(0, 1.5, size=(shift.sum(), 1)) * denom_base[shift].max(
        axis=-1, keepdims=True)
    special = rng.random((n_rows, k)) < 0.05
    numer[special] = rng.choice([0.0, -0.0, -1.0, np.nan], size=special.sum())
    kind = rng.random(n_rows)
    target = np.where(kind < 0.5, 10.0 ** rng.uniform(-4, 0, n_rows),
                      10.0 ** rng.uniform(0, 30, n_rows))
    target += np.fmax(-denom_base.min(axis=-1), 0.0)
    fill = np.sum(oracles._powers_at(numer, denom_base, target[:, None]), axis=-1)
    slack = np.sum(oracles._powers_at(numer, denom_base, 0.0), axis=-1) * rng.uniform(1, 3, n_rows)
    total = np.where(kind < 0.7, fill, np.where(kind < 0.8, slack,
                                                10.0 ** rng.uniform(-250, 250, n_rows)))
    total = np.where(np.isfinite(total) & (total > 0), total,
                     10.0 ** rng.uniform(-250, 250, n_rows))
    guess = np.where(rng.random(n_rows) < 0.5, target * rng.uniform(0.9, 1.1, n_rows),
                     rng.choice([np.nan, 0.0, 0.5, 2.0], size=n_rows))
    return numer, denom_base, total, guess


def test_matches_sequential_on_a_seeded_sweep_of_random_rows(monkeypatch):
    rng = np.random.default_rng(2024)
    rows, rounds = 0, []
    real_rounds = power._round_walks

    def round_walks(brackets):
        rounds.extend((bracket[3], bracket[4]) for bracket in brackets)
        return real_rounds(brackets)

    monkeypatch.setattr(power, "_round_walks", round_walks)
    while rows < 2000:
        n_rows, k = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        numer, denom_base, total, guess = _random_batch(rng, n_rows, k)
        want_lam, want_p = _sequential_rows(numer, denom_base, total)
        lam, p = power._solve_budgets(numer, denom_base, total, guess)
        assert lam.tobytes() == want_lam.tobytes(), (numer, denom_base, total, guess)
        assert p.shape == want_p.shape and p.tobytes() == want_p.tobytes()
        rows += n_rows
    assert len(rounds) > 1000
    assert all(_is_dyadic(lo, hi) for lo, hi in rounds)


@pytest.mark.parametrize("case,root", [("inside", 0.3), ("masked", 0.8), ("slack", -1.0),
                                       ("doubling", 1e6)])
def test_guess_never_changes_the_bits(case, root):
    numer, denom_base = _instance(11, 32, negative_denoms=case == "masked")
    total = 1e30 if case == "slack" else float(np.sum((numer / (denom_base + root)) ** 2))
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    assert want_lam == 0.0 if case == "slack" else abs(want_lam / root - 1.0) < 1e-6
    for guess in (np.nan, 0.0, 1e300, -1.0, np.inf, want_lam, 0.5 * want_lam, 1.5 * want_lam):
        lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                                np.array([guess]))
        assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes(), guess


def test_full_scale_roots_rarely_resume_the_grid_rounds(monkeypatch):
    # the default sweep's link and SNR points: nearly every root should finish
    # in its certified window, or the speedup has decayed into the rounds
    from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, allocate_batch,
                                build_noma_link, lens_transform_matrix, link_gains,
                                sample_realization, trial_rng)

    params = ChannelParams(n_antennas=256, n_users=32)
    lens = lens_transform_matrix(256)
    budgets = [LinkBudget.from_snr(32.0, snr, 32) for snr in range(0, 31, 5)]
    roots, resumed = [], []
    real_solve, real_rounds = power._solve_budgets, power._round_walks

    def solve(numer, *args):
        roots.append(len(numer))
        resumed.append(0)
        return real_solve(numer, *args)

    def round_walks(brackets):
        resumed[-1] = max(resumed[-1], len(brackets))
        return real_rounds(brackets)

    monkeypatch.setattr(power, "_solve_budgets", solve)
    monkeypatch.setattr(power, "_round_walks", round_walks)
    for trial in range(2):
        real = sample_realization(params, trial_rng(41, trial))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        allocate_batch(link_gains(grouping, precoder), budgets, OptimizerConfig())
    assert sum(roots) >= 200
    assert sum(resumed) <= 0.1 * sum(roots)


@pytest.mark.parametrize("zone_factor,shift", [(64.0, 0.0), (1 / 64, 0.0), (1.0, 3.0),
                                               (1.0, -3.0), (1.0, 0.5)])
def test_newton_estimate_never_changes_the_bits(monkeypatch, zone_factor, shift):
    # windows too coarse for the walk (it leaves the table and resumes), too
    # narrow to certify, or off the root: the walk and the rounds fix it all
    real_newton, real_walk = power._newton, power._walk
    resumed_walks = []

    def newton(*args):
        return [None if root is None else
                (root[0] + shift * root[1], root[1] * zone_factor, root[2])
                for root in real_newton(*args)]

    def walk(bracket, first, sums, batch, left, right, exponent):
        stopped = real_walk(bracket, first, sums, batch, left, right, exponent)
        # a window's table starts above its tree's first node, a round's at it
        if first != left and not stopped and bracket[7] < MAX_HALVINGS:
            resumed_walks.append(bracket[7])
        return stopped

    monkeypatch.setattr(power, "_newton", newton)
    monkeypatch.setattr(power, "_walk", walk)
    rng = np.random.default_rng(77)
    for _ in range(60):
        n_rows, k = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        numer, denom_base, total, guess = _random_batch(rng, n_rows, k)
        want_lam, want_p = _sequential_rows(numer, denom_base, total)
        lam, p = power._solve_budgets(numer, denom_base, total, guess)
        assert lam.tobytes() == want_lam.tobytes() and p.tobytes() == want_p.tobytes()
    if zone_factor > 1.0:
        assert len(resumed_walks) > 10


def test_window_walk_hits_the_halving_cap(monkeypatch):
    # the root sits near 9e-66, so the skip to its window would pass the cap:
    # the walk halves one step at a time up to it, and hi, known only by a
    # bound, is evaluated when the row resumes
    numer, denom_base, total = np.array([1.0, 2.0]), np.array([1e-66, 1e-60]), 1e130
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    walks = []
    real_walk = power._walk

    def walk(bracket, first, sums, batch, left, right, exponent):
        stopped = real_walk(bracket, first, sums, batch, left, right, exponent)
        walks.append((first != left, bracket[7], bracket[5] is None))
        return stopped

    monkeypatch.setattr(power, "_walk", walk)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]), np.array([9e-66]))
    assert lam[0] == want_lam == 2.0 ** -MAX_HALVINGS and p[0].tobytes() == want_p.tobytes()
    assert walks == [(True, MAX_HALVINGS, True), (False, MAX_HALVINGS, False)]


@pytest.mark.parametrize("numer,denom,total,guess", [(1e-150, 1e-151, 1.0, 9e-151),
                                                     (1e-160, 1e-311, 1e300, 1e-310),
                                                     (1e-160, 0.0, 1e300, 1e-310)])
def test_roots_near_the_subnormal_range(numer, denom, total, guess):
    # windows whose nodes are 2**-500 .. 2**-1070 apart: the tree above them
    # is far deeper than the halving cap
    numer, denom_base = np.array([numer, 0.5 * numer]), np.array([denom, 2.0 * denom])
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    for hint in (guess, np.nan):
        lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                                np.array([hint]))
        assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()


@pytest.mark.parametrize("exponent", range(-176, -150, 3))
def test_walk_skips_close_to_the_halving_cap(exponent):
    # roots near 2**exponent: the halvings skipped to the window plus the ones
    # inside it come close to (or pass) the cap, so the count must be exact
    numer, denom_base = np.array([1.0, 0.25]), np.array([2.0 ** exponent, 2.0 ** (exponent + 3)])
    root = 1.7 * 2.0 ** exponent
    total = float(np.sum((numer / (denom_base + root)) ** 2))
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]), np.array([root]))
    assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()


def test_zero_numerator_user_with_the_lowest_denominator():
    # the user without power has denominator -0.375 + lam, which is zero at the
    # dyadic node 0.375 just below the root: the unmasked form would read 0/0
    # there, so the window must not reach below that node
    numer, denom_base = np.array([0.0, 1.0]), np.array([-0.375, 0.1])
    total = float((1.0 / (0.475 + 1e-12)) ** 2)
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                            np.array([0.375 + 1e-12]))
    assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()
