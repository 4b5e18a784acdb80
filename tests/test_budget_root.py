"""The batched budget bisection against the sequential one, bit for bit."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamspace_noma import (SystemConfig, build_noma_link, lens_transform_matrix, power,
                            sample_realization, to_beamspace, trial_rng)
from beamspace_noma.power import BUDGET_TOL, DOUBLINGS, MAX_HALVINGS, _solve_budgets
from beamspace_noma.rates import link_and_powers
from oracles import sequential_solve_budget


def _assert_same_root(numer, denom_base, total_mw):
    """Solve the root as a (1, K) row and check it against the sequential
    bisection; return the multiplier and the (K,) powers."""
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total_mw)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total_mw]), np.zeros(1))
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


def test_nan_denominator_doubles_to_the_cap():
    # a NaN sum is never within the budget, so the bisection doubles to the
    # cap before it halves, as for a root above 1
    numer, denom_base = _instance(4, 16)
    denom_base[3] = np.nan
    lam, p = _assert_same_root(numer, denom_base, 0.5)
    assert 2.0 ** (DOUBLINGS - 1) < lam <= 2.0 ** DOUBLINGS


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


def _is_dyadic(lo, hi):
    width = Fraction(hi) - Fraction(lo)
    return (width > 0 and 1 in (width.numerator, width.denominator)
            and (width.numerator * width.denominator).bit_count() == 1
            and (Fraction(lo) / width).denominator == 1)


def _binade_path(pole):
    """The brackets of the one-at-a-time bisection on a row over budget at
    every multiplier up to pole and under it, by more than the residual
    tolerance, above: the doubling from 1, then halvings until a midpoint
    meets an endpoint. Checks that every midpoint it forms is exact."""
    hi = 1.0
    while hi <= pole:
        hi *= 2.0
    lo, path = hi / 2.0, []
    while True:
        path.append((lo, hi))
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return path
        assert Fraction(mid) == (Fraction(lo) + Fraction(hi)) / 2, (pole, lo, hi)
        lo, hi = (mid, hi) if mid <= pole else (lo, mid)


def test_binade_bisection_ends_at_the_neighbouring_doubles():
    # the adjacency certificate's premise: from the rung above a pole in
    # [1, 2**(DOUBLINGS - 1)), every midpoint is a double and the bracket
    # shrinks to the pole and the double above it within 52 halvings, so the
    # bisection returns that double; poles at the rungs, one ulp below them,
    # at 1, at the top of the range and at random mantissas
    rng = np.random.default_rng(7)
    top = 2.0 ** (DOUBLINGS - 1)
    poles = [1.0, math.nextafter(1.0, 2.0), math.nextafter(top, 0.0), 0.5 * top]
    for j in range(1, DOUBLINGS - 1):
        poles += [2.0 ** j, math.nextafter(2.0 ** j, 0.0), math.ldexp(rng.uniform(0.5, 1.0), j)]
    for pole in poles:
        path = _binade_path(pole)
        assert path[-1] == (pole, math.nextafter(pole, math.inf)), pole
        assert len(path) - 1 <= 52 <= MAX_HALVINGS
        assert all(_is_dyadic(lo, hi) for lo, hi in path)


def test_powers_at_matches_the_masked_form_on_special_values():
    values = [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, np.inf, np.nan]
    numer, denom_base = (np.array(x) for x in zip(*itertools.product(values, values)))
    for lam in (0.0, 0.5, 1.0, 1e300, np.array([[0.0], [2.0 ** -1074], [1.0]])):
        want = oracles._powers_at(numer, denom_base, lam)
        with np.errstate(all="ignore"):  # `_solve_budgets` owns the guard
            got = power._powers_at(numer, denom_base, lam)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), lam


def test_library_allocation_on_an_ordinary_link_is_silent():
    # the root divides at and below its rows' poles; its own guard keeps
    # that silent in library calls made outside `run_trial`
    config = SystemConfig(seed=3, snr_db=[0.0], min_rate=1.0, max_iters=2)
    spatial = sample_realization(config.channel_params(), trial_rng(config.seed, 0)).matrix
    grouping, precoder = build_noma_link(
        to_beamspace(spatial, lens_transform_matrix(config.n_antennas)), config.variant)
    budget = config.budget(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = power.allocate(grouping, precoder, budget, config.optimizer_config())
        lg, p, xi = link_and_powers(grouping, precoder, alloc.powers, budget.noise_mw)
        c, e = power._mmse_terms(lg, p[0], xi[0])
        power.update_p(c, 1.0 / e, grouping, precoder, config.optimizer_config(), budget)
    assert alloc.iterations_used == 2


def test_root_leaves_the_masked_form_once_every_denominator_is_positive(monkeypatch):
    # at multiplier 0 two users have non-positive denominators, but the
    # Newton steps start at the pole bound, past -min(denom_base), and the
    # root lies near 0.7, so the table of plain quotients certifies it and no
    # masked `_powers_at` call (the fallback's row) is made
    numer, denom_base = np.ones(8), np.linspace(-0.2, 1.0, 8)
    total = float(np.sum((numer / (denom_base + 0.7)) ** 2))
    masked = []
    real = power._powers_at

    def counting(numer, denom_base, lam):
        masked.append(np.ndim(lam))
        return real(numer, denom_base, lam)

    monkeypatch.setattr(power, "_powers_at", counting)
    lam, _ = _assert_same_root(numer, denom_base, total)
    assert 0.5 < lam < 1.0
    # the oracle's own evaluations go through its own `_powers_at`
    assert masked == []


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


def _seeded_sweep(monkeypatch, forced):
    """Solve 2,000 rows of `_random_batch` (seed 2024) against the
    sequential bisection; forced refuses every certificate, so every row runs
    the fallback. Returns the counts of certified and fallback rows."""
    rng = np.random.default_rng(2024)
    rows, certified, fallback = 0, [], []
    real_certify, real_bisect = power._certify, power._bisect

    def certify(*args):
        taken = real_certify(*args)
        certified.extend(taken)
        return set() if forced else taken

    def bisect(numer, denom_base, total):
        fallback.append(total)
        return real_bisect(numer, denom_base, total)

    monkeypatch.setattr(power, "_certify", certify)
    monkeypatch.setattr(power, "_bisect", bisect)
    while rows < 2000:
        n_rows, k = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        numer, denom_base, total, guess = _random_batch(rng, n_rows, k)
        want_lam, want_p = _sequential_rows(numer, denom_base, total)
        lam, p = power._solve_budgets(numer, denom_base, total, guess)
        assert lam.tobytes() == want_lam.tobytes(), (numer, denom_base, total, guess)
        assert p.shape == want_p.shape and p.tobytes() == want_p.tobytes()
        rows += n_rows
    monkeypatch.undo()
    return rows, len(certified), len(fallback)


def test_matches_sequential_on_a_seeded_sweep_of_random_rows(monkeypatch):
    # both paths carry over a thousand rows: the certificates on their own,
    # the fallback when every certificate is refused
    rows, certified, fallback = _seeded_sweep(monkeypatch, forced=False)
    assert certified > 1000 and certified + fallback == rows
    rows, _, fallback = _seeded_sweep(monkeypatch, forced=True)
    assert fallback == rows > 1000


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


def test_full_scale_roots_never_reach_the_fallback(monkeypatch):
    # the default sweep's link and SNR points: every root should be
    # certified, or the speedup has decayed into the per-row bisection
    from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, allocate_batch,
                                build_noma_link, lens_transform_matrix, link_gains,
                                sample_realization, trial_rng)

    params = ChannelParams(n_antennas=256, n_users=32)
    lens = lens_transform_matrix(256)
    budgets = [LinkBudget.from_snr(32.0, snr, 32) for snr in range(0, 31, 5)]
    roots, fallback = [], []
    real_solve, real_bisect = power._solve_budgets, power._bisect

    def solve(numer, *args):
        roots.append(len(numer))
        return real_solve(numer, *args)

    def bisect(*args):
        fallback.append(args)
        return real_bisect(*args)

    monkeypatch.setattr(power, "_solve_budgets", solve)
    monkeypatch.setattr(power, "_bisect", bisect)
    for trial in range(2):
        real = sample_realization(params, trial_rng(41, trial))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        allocate_batch(link_gains(grouping, precoder), budgets, OptimizerConfig())
    assert sum(roots) >= 200
    assert fallback == []


@pytest.mark.parametrize("zone_factor,shift", [(64.0, 0.0), (1 / 64, 0.0), (1.0, 3.0),
                                               (1.0, -3.0), (1.0, 0.5)])
def test_newton_estimate_never_changes_the_bits(monkeypatch, zone_factor, shift):
    # zones too wide (the pick is coarser than the residual zone allows and
    # its certificate fails), too narrow to hold a node, or off the root: the
    # certificate and the fallback fix it all
    real_newton, real_certify = power._newton, power._certify
    failed = []

    def newton(*args):
        return [None if root is None else (root[0] + shift * root[1], root[1] * zone_factor)
                for root in real_newton(*args)]

    def certify(numer, denom_base, picks, *args):
        certified = real_certify(numer, denom_base, picks, *args)
        failed.extend(row for row, _ in picks if row not in certified)
        return certified

    monkeypatch.setattr(power, "_newton", newton)
    monkeypatch.setattr(power, "_certify", certify)
    rng = np.random.default_rng(77)
    for _ in range(60):
        n_rows, k = int(rng.integers(1, 9)), int(rng.integers(1, 65))
        numer, denom_base, total, guess = _random_batch(rng, n_rows, k)
        want_lam, want_p = _sequential_rows(numer, denom_base, total)
        lam, p = power._solve_budgets(numer, denom_base, total, guess)
        assert lam.tobytes() == want_lam.tobytes() and p.tobytes() == want_p.tobytes()
    if zone_factor > 1.0:
        assert len(failed) > 10


def test_declined_pick_bisects_to_the_halving_cap(monkeypatch):
    # the root sits near 9e-66, far more than 52 halvings below 1: the warm
    # row's pick is declined, and the fallback evaluates 0, the rung 1 and
    # every halving of [0, 1] up to the cap, one at a time
    numer, denom_base, total = np.array([1.0, 2.0]), np.array([1e-66, 1e-60]), 1e130
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    picks, evaluated = [], []
    real_pick, real_powers_at = power._pick, power._powers_at

    def pick(estimate, zone):
        picks.append(real_pick(estimate, zone))
        return picks[-1]

    def powers_at(numer, denom_base, lam):
        evaluated.append(lam)
        return real_powers_at(numer, denom_base, lam)

    monkeypatch.setattr(power, "_pick", pick)
    monkeypatch.setattr(power, "_powers_at", powers_at)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]), np.array([9e-66]))
    assert lam[0] == want_lam == 2.0 ** -MAX_HALVINGS and p[0].tobytes() == want_p.tobytes()
    assert picks == [None]
    assert evaluated == [0.0, 1.0] + [2.0 ** -i for i in range(1, MAX_HALVINGS + 1)]


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
    # there, so a certificate whose lower node is 0.375 needs the masks
    numer, denom_base = np.array([0.0, 1.0]), np.array([-0.375, 0.1])
    total = float((1.0 / (0.475 + 1e-12)) ** 2)
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                            np.array([0.375 + 1e-12]))
    assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()


def _certified_nodes(monkeypatch):
    """Spy on `_certify`: record the nodes (c - 2**l, c, c + 2**l) of every
    certified pick."""
    certified = []
    real_certify = power._certify

    def certify(numer, denom_base, picks, *args):
        rows = real_certify(numer, denom_base, picks, *args)
        certified.extend(nodes for row, nodes in picks if row in rows)
        return rows

    monkeypatch.setattr(power, "_certify", certify)
    return certified


def _assert_tree_node(below, node, above, tree_lo, tree_hi):
    """node is an odd multiple of 2**l = node - below = above - node strictly
    inside the dyadic tree [tree_lo, tree_hi]."""
    step = node - below
    assert above - node == step and math.frexp(step)[0] == 0.5
    assert (Fraction(node) / Fraction(step)).numerator % 2 == 1
    assert tree_lo <= below < node < above <= tree_hi


def test_root_above_one_is_placed_by_a_window(monkeypatch):
    # test_doubling_phase_beyond_one's root, near 1.05e8: the last doubling
    # opens [2**26, 2**27], and the node certified inside it is the root
    nodes = _certified_nodes(monkeypatch)
    numer, denom_base = _instance(2, 32)
    lam, _ = _assert_same_root(numer * 1e6, denom_base, 1e-3)
    assert 2.0 ** 26 < lam < 2.0 ** 27
    [(below, node, above)] = nodes
    assert node == lam
    _assert_tree_node(below, node, above, 2.0 ** 26, 2.0 ** 27)


@pytest.mark.parametrize("scale", [40, 60])
def test_window_nodes_coarser_than_one(monkeypatch, scale):
    # above 2**40 the residual zone is wider than 2, so the certified node is
    # an odd multiple of a power of two above 1 inside the last doubling
    nodes = _certified_nodes(monkeypatch)
    numer, denom_base, root = np.array([1.0, 2.0]), np.array([1.0, 3.0]), 1.3 * 2.0 ** scale
    total = float(np.sum((numer / (denom_base + root)) ** 2))
    lam, _ = _assert_same_root(numer, denom_base, total)
    assert abs(lam / root - 1.0) < 1e-9
    [(below, node, above)] = nodes
    assert node == lam and node - below > 1.0
    _assert_tree_node(below, node, above, 2.0 ** scale, 2.0 ** (scale + 1))


def test_min_rate_roots_above_one_are_placed_by_windows(monkeypatch):
    # trial 7 of the fairness run at seed 7 (20 dB, rmin 1): its rate
    # multipliers push ten budget roots past 1, and certificates should place
    # them rather than the fallback
    from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, allocate_batch,
                                build_noma_link, lens_transform_matrix, link_gains,
                                sample_realization, trial_rng)

    real = sample_realization(ChannelParams(n_antennas=256, n_users=32), trial_rng(7, 7))
    grouping, precoder = build_noma_link(lens_transform_matrix(256).matrix @ real.matrix,
                                         "strongest")
    nodes = _certified_nodes(monkeypatch)
    allocate_batch(link_gains(grouping, precoder), [LinkBudget.from_snr(32.0, 20.0, 32)],
                   OptimizerConfig(min_rate=1.0))
    assert sum(node > 1.0 for _, node, _ in nodes) > 0


def test_min_rate_roots_rarely_reach_the_fallback(monkeypatch):
    # fairness trials 6 and 7 at seed 7: rows warm started above their roots
    # step down no lower than the pole bound, so nearly all settle and
    # certify instead of running the per-row bisection
    from beamspace_noma import SystemConfig, run_trial

    roots, fallback = [], []
    real_solve, real_bisect = power._solve_budgets, power._bisect

    def solve(numer, *args):
        roots.append(len(numer))
        return real_solve(numer, *args)

    monkeypatch.setattr(power, "_solve_budgets", solve)
    monkeypatch.setattr(power, "_bisect", lambda *args: fallback.append(args) or real_bisect(*args))
    config = SystemConfig(seed=7, snr_db=[20.0], schemes=["noma"], min_rate=1.0)
    for trial in (6, 7):
        run_trial(config, trial)
    assert sum(roots) > 1000 and len(fallback) <= 0.01 * sum(roots)


def _halvings(lam):
    """The halvings the sequential bisection takes to stop at lam: none at 0
    and at the rungs 1, 2, 4, ..., else the depth of lam in its tree [0, 1]
    or [2**(j - 1), 2**j]."""
    mantissa, j = math.frexp(lam)
    if lam == 0.0 or (lam >= 1.0 and mantissa == 0.5):
        return 0
    exact = Fraction(lam)
    level = ((exact.numerator & -exact.numerator).bit_length()
             - exact.denominator.bit_length())
    return (0 if lam < 1.0 else j - 1) - level


def _assert_same_root_for_every_guess(numer, denom_base, total):
    """Check the (1, K) row against the sequential bisection from no guess,
    a non-positive or infinite one, the root itself and 1e-3 off it; return
    the multiplier."""
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    for guess in (math.nan, 0.0, -1.0, math.inf, want_lam, want_lam * (1.0 - 1e-3),
                  want_lam * (1.0 + 1e-3)):
        lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                                np.array([guess]))
        assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes(), guess
    return want_lam


def _edge_row(node, offset, numer=(1.0, 0.5), shape=(0.5, 2.0)):
    """Rows whose budget root sits `offset` residual zones above the node
    (denominators proportional to it): for offset in (-1, 0] the zone above
    the root holds the node."""
    numer, denom_base = np.array(numer), np.array(shape) * node
    p = (numer / (denom_base + node)) ** 2
    zone = BUDGET_TOL * p.sum() / (2.0 * np.sum(p / (denom_base + node)))
    root = node + offset * zone
    return numer, denom_base, float(np.sum((numer / (denom_base + root)) ** 2))


@pytest.mark.parametrize("offset", [-3.0, -1.5, -0.9, -0.5, 0.0, 0.5, 1.5, 3.0])
def test_dyadic_edges_match_the_sequential_bisection(monkeypatch, offset):
    # roots at the nodes 2**j, j in -60..60: zones that hold 1 or a rung,
    # roots just above 2**j (c - 2**l = 2**j, the last doubling's lo), just
    # below it (c + 2**l = 2**j) and near 2**-j in [0, 1] (c - 2**l = 0)
    nodes = _certified_nodes(monkeypatch)
    for j in range(-60, 61):
        _assert_same_root_for_every_guess(*_edge_row(2.0 ** j, offset))
    rungs = {node for _, node, above in nodes if above == math.inf}
    lowers = {below for below, _, above in nodes if above < math.inf}
    uppers = {above for *_, above in nodes if above < math.inf}
    # below 2**-18 the certified node would lie more than 52 halvings deep
    edges = {2.0 ** j for j in range(-18, 61)}
    if -1.0 < offset <= 0.0:
        assert {2.0 ** j for j in range(61)} <= rungs and 0.0 in lowers
    elif offset > 0.0:
        assert edges <= lowers
    elif offset == -1.5:
        assert edges <= uppers


def test_halving_depths_at_the_exact_limit(monkeypatch):
    # within 52 halvings every node on the path is a double and the pick is
    # certified; from 53 on it is declined and the fallback takes the row, up
    # to the cap of MAX_HALVINGS (the root near 1e-70)
    nodes = _certified_nodes(monkeypatch)
    depths = {}
    for exponent in range(17, 23):
        for mantissa in (1.3, 1.7):
            root = mantissa * 2.0 ** -exponent
            numer, denom_base = np.array([1.0, 0.5]), np.array([root, 2.0 * root])
            total = float(np.sum((numer / (denom_base + root)) ** 2))
            nodes.clear()
            lam = _assert_same_root_for_every_guess(numer, denom_base, total)
            depths[_halvings(lam)] = lam in [node for _, node, _ in nodes]
    nodes.clear()
    lam = _assert_same_root_for_every_guess(np.array([1.0]), np.array([-1e-70]), 1e200)
    assert _halvings(lam) == MAX_HALVINGS and not nodes
    assert depths[52] and not depths[53]
    assert all(certified == (depth <= 52) for depth, certified in depths.items())


@pytest.mark.parametrize("root", [0.3, 0.7 * 2.0 ** -10, 1.05e8, 1.3 * 2.0 ** 40])
def test_zero_numerator_user_at_the_lower_node(monkeypatch, root):
    # a user without power whose denominator is zero at c - 2**l: the lower
    # node's plain quotient reads 0/0, a NaN sum that fails the certificate,
    # so the row runs the fallback and still gets the sequential bits
    nodes = _certified_nodes(monkeypatch)
    numer, denom_base = np.array([1.0, 0.5]), np.array([1.0, 3.0]) * root
    total = float(np.sum((numer / (denom_base + root)) ** 2))
    _assert_same_root(numer, denom_base, total)
    [(below, node, _)] = nodes
    numer, denom_base = np.append(numer, 0.0), np.append(denom_base, -below)
    fallback, real_bisect = [], power._bisect
    monkeypatch.setattr(power, "_bisect", lambda *args: fallback.append(1) or real_bisect(*args))
    nodes.clear()
    assert _assert_same_root_for_every_guess(numer, denom_base, total) == node
    assert not nodes and len(fallback) == 7


@st.composite
def _dyadic_edge_rows(draw):
    """A row whose root sits a few residual zones from a node 2**j, with
    guesses that miss it, hit it or sit 1e-3 off."""
    k = draw(st.integers(1, 4))
    numer = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    shape = draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
    numer, denom_base, total = _edge_row(2.0 ** draw(st.integers(-60, 60)),
                                         draw(st.floats(-4.0, 4.0)), numer, shape)
    guess = draw(st.sampled_from([math.nan, 0.0, -1.0, math.inf, "root", 1.0 - 1e-3, 1.0 + 1e-3]))
    return numer, denom_base, total, guess


@settings(max_examples=200, deadline=None)
@given(row=_dyadic_edge_rows())
def test_budget_root_at_dyadic_edges_is_the_sequential_bisection(row):
    numer, denom_base, total, guess = row
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    if guess == "root":
        guess = want_lam
    elif guess in (1.0 - 1e-3, 1.0 + 1e-3):
        guess *= want_lam
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]), np.array([guess]))
    assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()


def test_full_scale_warm_rows_all_certify(monkeypatch):
    # the default sweep's link and SNR points, as in
    # test_full_scale_roots_never_reach_the_fallback: every row warm
    # started from the last iteration's multiplier is certified
    from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, allocate_batch,
                                build_noma_link, lens_transform_matrix, link_gains,
                                sample_realization, trial_rng)

    params = ChannelParams(n_antennas=256, n_users=32)
    lens = lens_transform_matrix(256)
    budgets = [LinkBudget.from_snr(32.0, snr, 32) for snr in range(0, 31, 5)]
    warm, certified = [], []
    real_solve, real_certify = power._solve_budgets, power._certify

    def solve(numer, denom_base, total_mw, guess):
        warm.append({row for row, (low, hint) in enumerate(zip(denom_base.min(axis=-1), guess))
                     if max(-low, 0.0) < hint < math.inf})
        certified.append(set())
        return real_solve(numer, denom_base, total_mw, guess)

    def certify(numer, denom_base, picks, *args):
        rows = real_certify(numer, denom_base, picks, *args)
        certified[-1] |= rows
        return rows

    monkeypatch.setattr(power, "_solve_budgets", solve)
    monkeypatch.setattr(power, "_certify", certify)
    for trial in range(2):
        real = sample_realization(params, trial_rng(41, trial))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        allocate_batch(link_gains(grouping, precoder), budgets, OptimizerConfig())
    assert sum(map(len, warm)) >= 200
    assert all(rows <= done for rows, done in zip(warm, certified))


def test_min_rate_ci_run_reaches_adjacency_certificates_fallback_ladders_and_failed_picks(
        monkeypatch, tmp_path):
    # CI's `sim sweep-snr --rmin 1 --snr 0 --iters 2 --schemes noma --trials 1`:
    # its rate multipliers put many roots within rounding above their poles,
    # where the double above the pole is certified outside the residual zone;
    # rows whose pick is declined or fails its certificate run the fallback,
    # some of them up the doubling ladder past 1
    from beamspace_noma.cli import main as cli_main

    counts = {"adjacent": 0, "ladder": 0, "declined": 0, "failed": 0}
    real_pick, real_certify, real_bisect = power._pick, power._certify, power._bisect

    def pick(estimate, zone):
        nodes = real_pick(estimate, zone)
        counts["declined"] += nodes is None
        return nodes

    def certify(numer, denom_base, picks, totals, *args):
        rows = real_certify(numer, denom_base, picks, totals, *args)
        counts["failed"] += len(picks) - len(rows)
        for row, (below, node, _) in picks:
            if row in rows and math.nextafter(below, math.inf) == node:
                at = power._powers_at(numer[row], denom_base[row], node).sum()
                counts["adjacent"] += totals[row] - at > BUDGET_TOL * totals[row]
        return rows

    def bisect(*args):
        lam, p = real_bisect(*args)
        counts["ladder"] += lam > 1.0
        return lam, p

    for name, spy in (("_pick", pick), ("_certify", certify), ("_bisect", bisect)):
        monkeypatch.setattr(power, name, spy)
    assert cli_main(["sweep-snr", "--rmin", "1", "--snr", "0", "--iters", "2", "--schemes",
                     "noma", "--trials", "1", "--out", str(tmp_path / "rmin")]) == 0
    assert counts["adjacent"] > 0 and counts["ladder"] > 0
    assert counts["declined"] + counts["failed"] > 0


def _pole_row(pole, factor=5.0, others=()):
    """A row whose pole user (numerator 1) sits at `pole`, plus `others`
    (numerator, denominator) users, with a budget `factor` times its sum at
    the double above the pole: at factor 5 the pole bound -d + n /
    sqrt(total) rounds onto the pole and that double lies outside the
    residual zone."""
    numer = np.array([1.0] + [n for n, _ in others])
    denom_base = np.array([-pole] + [d for _, d in others])
    above = math.nextafter(pole, math.inf)
    return numer, denom_base, factor * float(np.sum(oracles._powers_at(numer, denom_base, above)))


_TOP = 2.0 ** (DOUBLINGS - 1)


@pytest.mark.parametrize("pole", [1.0, 2.0, 2.0 ** 10, 2.0 ** 100, 2.0 ** 398, 3.0, 1e100,
                                  math.nextafter(2.0, 0.0), math.nextafter(2.0 ** 50, 0.0),
                                  math.nextafter(_TOP, 0.0), _TOP, 0.75, 2.0 ** -100,
                                  2.0 ** -170])
def test_root_within_rounding_above_the_pole_is_the_double_above_it(monkeypatch, pole):
    # poles at 2**j, one ulp below 2**j (the double above is the rung 2**j),
    # at 1 and at other mantissas: the adjacency certificate places the
    # root. At 2**(DOUBLINGS - 1) the double above lies past the last rung,
    # so the fallback returns the doubling cap; below 1 no pick is offered,
    # and near 2**-170 the bisection stops at the halving cap instead
    nodes = _certified_nodes(monkeypatch)
    above = math.nextafter(pole, math.inf)
    lam = _assert_same_root_for_every_guess(*_pole_row(pole))
    if pole == _TOP:
        assert lam == 2.0 ** DOUBLINGS and not nodes
    elif pole < 1.0:
        assert not nodes and (lam == above) == (pole > 2.0 ** -148)
    else:
        upper = math.inf if math.frexp(above)[0] == 0.5 else math.nextafter(above, math.inf)
        assert lam == above and (pole, above, upper) in nodes


def test_zero_numerator_user_below_the_pole(monkeypatch):
    # the smallest denominator belongs to a user without power, so the pole
    # is the next user's; at the pole the first user's denominator is
    # negative and only the masked form zeroes its power
    nodes = _certified_nodes(monkeypatch)
    numer, denom_base, total = _pole_row(5.0, others=[(0.0, -6.0), (0.5, 2.0)])
    numer = numer[[1, 0, 2]]
    denom_base = denom_base[[1, 0, 2]]
    above = math.nextafter(5.0, math.inf)
    assert _assert_same_root_for_every_guess(numer, denom_base, total) == above
    assert (5.0, above, math.nextafter(above, math.inf)) in nodes


@pytest.mark.parametrize("numer,denom_base,total,root", [
    ([7.105427357601002e-15, 3636217643.6921844], [-4294967296.000001, 10625410905.484549],
     0.05939365829203906, 4294967296.25),
    ([1.0339757656912846e-25, 7541.422297786031], [-1023.9999999999998, 1013.2457547268116],
     13.703126865102039, 1023.9999999999999),
    ([9.094947017729282e-13, 1.651673777449845e+16, 0.0],
     [-2251799813685247.8, 4334349912917613.0, -4405458340796372.0], 6.289054360377847,
     2251799813685248.0)])
def test_newton_pick_below_the_pole_never_certifies(numer, denom_base, total, root):
    # from the root as its guess, Newton settles a few ulps under the pole,
    # where the plain quotient reads the pole user's term as a finite one and
    # the sums pass every comparison: only the certificate's pole guard keeps
    # the pick from returning that node below the pole
    numer, denom_base = np.array(numer), np.array(denom_base)
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    assert want_lam == root and root > -denom_base[0]
    for guess in (math.nan, 0.0, root):
        lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]),
                                np.array([guess]))
        assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes(), guess


def test_in_zone_double_above_the_pole_still_needs_its_upper_neighbour(monkeypatch):
    # the pole user's term is tiny beside a far user's, so the doubles above
    # the pole 3 lie in the residual zone two at a time; the bisection stops
    # at the rung 4 first. The adjacency pick (3, c, c+) must fail on c+,
    # since an upper node of inf would certify c
    picks, nodes = [], _certified_nodes(monkeypatch)
    real_pick = power._pick
    monkeypatch.setattr(power, "_pick", lambda *root: picks.append(real_pick(*root)) or picks[-1])
    c = math.nextafter(3.0, math.inf)
    upper = math.nextafter(c, math.inf)
    far = (1.0 / (1e20 + c)) ** 2
    small = (c - 3.0) * math.sqrt(0.5 * BUDGET_TOL * far)
    numer, denom_base = np.array([small, 1.0]), np.array([-3.0, 1e20])
    at_c, at_upper = (float(np.sum(oracles._powers_at(numer, denom_base, lam)))
                      for lam in (c, upper))
    total = at_c + 0.1 * (small / (c - 3.0)) ** 2
    assert 0 <= total - at_c < total - at_upper <= BUDGET_TOL * total
    want_lam, _ = sequential_solve_budget(numer, denom_base, total)
    assert want_lam == 4.0
    _assert_same_root(numer, denom_base, total)
    assert (3.0, c, upper) in picks and not any(node == c for _, node, _ in nodes)


def test_zero_totals_and_rows_without_power_in_one_batch():
    # a zero budget has no pole bound (NaN, not n / sqrt(0)), and a row
    # without a positive numerator has no pole: both run the fallback,
    # beside rows that certify
    rows = [([1.0, 2.0], [1.0, 2.0], 0.0), ([1e-100, 0.0], [1.0, 1.0], 0.0),
            ([0.0, np.nan], [-1.0, 0.5], 0.5), ([-1.0, -0.0], [1.0, 2.0], 0.0),
            ([1.0, 0.5], [0.5, -0.25], 0.5), ([1.0, 0.5], [0.5, 0.25], 0.5)]
    for batch in (rows, rows[:3], rows[2:3], rows[::-1]):
        numer, denom_base, total = (np.array(column) for column in zip(*batch))
        want_lam, want_p = _sequential_rows(numer, denom_base, total)
        for guess in (np.full(len(total), np.nan), want_lam):
            lam, p = _solve_budgets(numer, denom_base, total, guess)
            assert lam.tobytes() == want_lam.tobytes() and p.tobytes() == want_p.tobytes()


@st.composite
def _pole_hugging_rows(draw):
    """A row whose pole user sits a few ulps from 2**k, with a numerator
    from far below to above the pole's ulp, a few other users (zero
    numerators with lower denominators among them) and a budget around its
    sum at the double above the pole."""
    k = draw(st.integers(1, DOUBLINGS - 2))
    pole = 2.0 ** k
    for _ in range(draw(st.integers(-2, 2)) % 5):
        pole = math.nextafter(pole, math.inf if draw(st.booleans()) else 0.0)
    ulp = math.ulp(pole)
    numer = [math.ldexp(ulp, draw(st.integers(-40, 8)))]
    denom_base = [-pole]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            numer.append(draw(st.sampled_from([0.0, -1.0])))
            denom_base.append(-pole * draw(st.floats(1.0, 2.0)))
        else:
            numer.append(draw(st.floats(0.01, 10.0)) * pole)
            denom_base.append(pole * draw(st.floats(-0.99, 10.0)))
    numer, denom_base = np.array(numer), np.array(denom_base)
    above = math.nextafter(pole, math.inf)
    total = float(np.sum(oracles._powers_at(numer, denom_base, above)))
    factors = [0.0, 0.25, 0.999, 1.0, 1.0 + 5e-11, 1.0 + 2e-10, 4.0, 5.0, 1e6]
    total *= draw(st.sampled_from(factors) | st.floats(0.1, 100.0))
    guess = draw(st.sampled_from([math.nan, 0.0, math.inf, "root", 1.0 - 1e-3, 1.0 + 1e-3]))
    return numer, denom_base, total, guess


@settings(max_examples=200, deadline=None)
@given(row=_pole_hugging_rows())
def test_budget_root_near_the_pole_is_the_sequential_bisection(row):
    numer, denom_base, total, guess = row
    want_lam, want_p = sequential_solve_budget(numer, denom_base, total)
    if guess == "root":
        guess = want_lam
    elif guess in (1.0 - 1e-3, 1.0 + 1e-3):
        guess *= want_lam
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total]), np.array([guess]))
    assert lam[0] == want_lam and p[0].tobytes() == want_p.tobytes()
