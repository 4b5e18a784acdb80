"""The batched budget bisection against the sequential one, bit for bit."""

import itertools

import numpy as np
import pytest

import oracles
from beamspace_noma import power
from beamspace_noma.power import (BISECT_DEPTH, BUDGET_TOL, MAX_HALVINGS, _bisection_grid,
                                  _solve_budget)
from oracles import sequential_solve_budget


def _assert_same_root(numer, denom_base, total_mw):
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total_mw)
    lam, p = _solve_budget(numer, denom_base, total_mw)
    assert lam == want_lam
    assert p.dtype == want_p.dtype and p.shape == want_p.shape
    assert p.tobytes() == want_p.tobytes()
    return lam, p


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


def test_bisection_grid_is_the_midpoint_tree():
    rng = np.random.default_rng(7)
    brackets = [(0.0, 1.0), (0.5, 1.0), (2.0 ** 399, 2.0 ** 400), (0.0, 2.0 ** 400),
                (0.0, 5e-324), (0.1, 0.3), (1.0, np.nextafter(1.0, 2.0))]
    # brackets a bisection from [0, 1] reaches after 20..60 halvings
    for depth in (20, 40, 45, 50, 60):
        lo, hi = 0.0, 1.0
        for _ in range(depth):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if rng.random() < 0.5 else (lo, mid)
        brackets.append((lo, hi))
    for _ in range(50):
        lo, hi = sorted(rng.uniform(0, 10.0 ** rng.uniform(-5, 5), size=2))
        brackets.append((float(lo), float(hi)))
    for lo, hi in brackets:
        grid = _bisection_grid(lo, hi)
        assert grid.shape == (2 ** BISECT_DEPTH + 1,)
        assert grid.tobytes() == _halving_grid(lo, hi).tobytes(), (lo, hi)


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
