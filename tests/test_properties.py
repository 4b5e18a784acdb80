"""Properties checked over drawn inputs rather than at a few seeds."""

import math

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, PrecodingError,
                            allocate_batch, build_noma_link, lens_transform_matrix, link_gains,
                            sample_realization, trial_rng)
from beamspace_noma.power import BUDGET_TOL, DOUBLINGS, _solve_budgets

from oracles import _powers_at, reference_sample_realization, sequential_solve_budget

# interval ends: the usual [-1/2, 1/2], ends on exact zero and past +-1, where
# mirrored and direct draws meet
_ENDS = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0]) | \
    st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _direction_ranges(draw):
    lo, hi = sorted(draw(st.lists(_ENDS, min_size=2, max_size=2, unique=True)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), k=st.integers(1, 8), n_nlos=st.integers(0, 3),
       direction_range=_direction_ranges(), seed=st.integers(0, 2**63 - 1),
       trial=st.integers(0, 1000))
def test_mirrored_steering_rows_equal_the_full_exp(n, k, n_nlos, direction_range, seed,
                                                  trial):
    params = ChannelParams(n_antennas=n, n_users=k, n_nlos=n_nlos,
                           direction_range=direction_range)
    new = sample_realization(params, trial_rng(seed, trial))
    ref = reference_sample_realization(params, trial_rng(seed, trial))
    assert new.matrix.tobytes() == ref.matrix.tobytes()
    assert new.path_gains.tobytes() == ref.path_gains.tobytes()
    assert np.array_equal(new.path_directions, ref.path_directions)


# budget roots in (0, 1), past 1 to beyond the doubling cap 2**DOUBLINGS,
# deep enough to meet the halving cap, and near the subnormal range
_ROOT_SCALES = (st.integers(-60, 0) | st.integers(1, DOUBLINGS + 2) | st.integers(-300, -61)
                | st.integers(-1074, -1000))
_SHAPES = st.floats(1e-3, 1e3)
_SPECIAL_NUMERATORS = st.sampled_from([0.0, -0.0, -1.0, math.nan])


@st.composite
def _budget_rows(draw, k):
    """numer, denom_base, total and guess of one root: denominators and root
    at a drawn power-of-two scale, some denominators shifted negative (the
    masked rows), numerators at a drawn gain over them, some zero, -0,
    negative or NaN, and the total the powers take at the root."""
    scale = draw(_ROOT_SCALES)
    gain = draw(st.integers(-150, 480))
    numer = [math.ldexp(x, scale + gain)
             for x in draw(st.lists(_SHAPES | _SPECIAL_NUMERATORS, min_size=k, max_size=k))]
    denom_base = [math.ldexp(x, scale) for x in draw(st.lists(_SHAPES, min_size=k, max_size=k))]
    if draw(st.booleans()):
        shift = draw(st.floats(0.05, 1.5)) * max(denom_base)
        denom_base = [d - shift for d in denom_base]
    # a root close above a masked row's pole moves its sum by more than the
    # residual tolerance between neighbouring doubles
    offset = draw(st.floats(1e-3, 4.0) | st.floats(1e-13, 1e-6))
    root = max(-min(denom_base), 0.0) + math.ldexp(offset, scale)
    numer, denom_base = np.array(numer), np.array(denom_base)
    total = float(np.sum(_powers_at(numer, denom_base, root)))
    guess = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.5, root])
                 | st.floats(0.5, 2.0).map(lambda f: f * root))
    return numer, denom_base, total, guess


@st.composite
def _budget_batches(draw):
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(_budget_rows(k), min_size=1, max_size=4))
    return tuple(np.array(column) for column in zip(*rows))


@settings(max_examples=300, deadline=None)
@given(batch=_budget_batches())
def test_budget_root_is_the_sequential_bisection(batch):
    numer, denom_base, total, guess = batch
    lam, p = _solve_budgets(numer, denom_base, total, guess)
    want = [sequential_solve_budget(*row) for row in zip(numer, denom_base, total)]
    assert lam.tobytes() == np.array([root for root, _ in want]).tobytes()
    assert p.tobytes() == np.array([powers for _, powers in want]).tobytes()
    assert np.all(p >= 0)
    # past the doubling cap the bisection returns hi = 2**DOUBLINGS with the
    # powers at 2**(DOUBLINGS - 1), which exceed the budget
    uncapped = lam < 2.0 ** DOUBLINGS
    assert np.all(p.sum(axis=-1)[uncapped] <= total[uncapped] * (1 + BUDGET_TOL))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 32), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       snr_db=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3),
       min_rate=st.sampled_from([0.0, 1.0]), variant=st.sampled_from(["strongest", "svd"]))
def test_allocation_keeps_the_budget_and_climbs_without_a_minimum_rate(n, k, seed, snr_db,
                                                                       min_rate, variant):
    real = sample_realization(ChannelParams(n_antennas=n, n_users=k), trial_rng(seed, 0))
    try:
        grouping, precoder = build_noma_link(lens_transform_matrix(n).matrix @ real.matrix,
                                             variant)
    except PrecodingError:
        reject()
    budgets = [LinkBudget.from_snr(32.0, snr, k) for snr in snr_db]
    # a row whose minimum rate cannot be met runs all OUTER_CAP dual rounds in
    # every iteration, up to 0.3 s each here, so rmin = 1 runs two iterations
    config = OptimizerConfig(max_iters=20 if min_rate == 0.0 else 2, min_rate=min_rate)
    allocations = allocate_batch(link_gains(grouping, precoder), budgets, config)
    for alloc, budget in zip(allocations, budgets):
        assert np.all(np.array(alloc.budget_trace) <= budget.total_power_mw)
        assert np.all(alloc.powers >= 0)
        if min_rate == 0.0:
            # the bound of test_allocate_trace_is_monotone_and_budget_feasible
            assert np.all(np.diff(alloc.trace) >= -1e-8)
