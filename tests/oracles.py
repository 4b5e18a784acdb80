"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive quantities from first principles (exhaustive
search, explicit term enumeration) instead of calling the iterative code
paths they are used to judge.
"""

import numpy as np

from beamspace_noma import link_gains
from beamspace_noma.power import BUDGET_TOL, _powers_at


def simplex_grid_optimum(grouping, precoder, budget, steps=1000):
    """Best sum rate over the exhaustive grid on the budget face
    {p >= 0, sum p = P} with spacing P/steps. Three-user instances only."""
    lg = link_gains(grouping, precoder)
    if len(lg.users) != 3:
        raise ValueError("grid oracle is written for 3-user instances")
    scale = budget.total_power_mw / steps
    ij = np.array([(i, j) for i in range(steps + 1) for j in range(steps + 1 - i)])
    points = np.column_stack([ij[:, 0], ij[:, 1], steps - ij[:, 0] - ij[:, 1]]) * scale
    own, gains, beam_of = lg.own_gain, lg.gains, lg.beam_of
    beam_power = np.zeros((len(points), lg.n_rf))
    for n in range(lg.n_rf):
        beam_power[:, n] = points[:, beam_of == n].sum(axis=1)
    inter = beam_power @ gains.T - beam_power[:, beam_of] * own
    intra = np.zeros_like(points)
    for s in lg.beam_slices:
        cum = np.cumsum(points[:, s], axis=1)
        intra[:, s] = cum - points[:, s]
    xi = own * intra + inter + budget.noise_mw
    rates = np.log2(1.0 + own * points / xi).sum(axis=1)
    return float(rates.max())


def sequential_solve_budget(numer, denom_base, total_mw):
    """The one-multiplier-at-a-time budget bisection that
    `power._solve_budget` batches; it must return the same bits."""
    p = _powers_at(numer, denom_base, 0.0)
    if p.sum() <= total_mw:
        return 0.0, p
    hi = 1.0
    for _ in range(400):
        p = _powers_at(numer, denom_base, hi)
        if p.sum() <= total_mw:
            break
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(200):
        if total_mw - p.sum() <= BUDGET_TOL * total_mw:
            break
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        p_mid = _powers_at(numer, denom_base, mid)
        if p_mid.sum() > total_mw:
            lo = mid
        else:
            hi, p = mid, p_mid
    return hi, p
