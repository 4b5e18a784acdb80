"""Iterative joint power allocation maximizing the NOMA sum rate.

The non-convex sum-rate objective is rewritten through the MMSE identity
1/(1+sinr) = min_c E|s - c y|^2 and a concave log-weight bound, giving three
blocks with closed-form optima: per-user equalizers c, positive weights
a = 1 + sinr, and powers from the KKT stationarity condition. The power step
is a convex problem solved by bisection on the budget multiplier plus an
active-set ascent on the per-user minimum-rate multipliers.

The blocks and the objective see the powers only through the interference-
plus-noise vector, computed once per iteration. Solver tolerances are constants.

The budget bisection evaluates BISECT_DEPTH levels of its halving tree per
vectorized call and then walks the path a one-at-a-time bisection would take,
so it returns the sequential bisection's multiplier and powers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder
from .rates import (LinkBudget, LinkGains, RateReport, interference_vector, link_gains,
                    rate_report, seg_excl_cumsum)

RATE_SLACK = 1e-6       # achieved-rate tolerance when judging feasibility
VIOLATION_TOL = 1e-8    # min-rate constraint slack target for the active set
BUDGET_TOL = 1e-10      # relative power-budget residual for the bisection
OUTER_CAP = 200         # cap on min-rate constraint-enforcement rounds per power step
STAGNATION_TOL = 1e-12  # early stop once the objective gains less than this ...
STAGNATION_PATIENCE = 3  # ... for this many consecutive iterations
MAX_HALVINGS = 200      # cap on budget-bisection halvings per root
BISECT_DEPTH = 5        # bisection-tree levels evaluated per vectorized call
_GRID_FRACTIONS = np.arange(2 ** BISECT_DEPTH + 1) / 2.0 ** BISECT_DEPTH
_EXACT_NUMERATOR = 2 ** (53 - BISECT_DEPTH)
_EXACT_DENOMINATOR = 2 ** (1074 - BISECT_DEPTH)


@dataclass
class OptimizerConfig:
    """Knobs of the iterative allocation.

    max_iters    : outer c/a/p iteration cap (T_max)
    min_rate     : per-user minimum rate in bps/Hz

    The solver tolerances are the module constants BUDGET_TOL, MAX_HALVINGS,
    OUTER_CAP, STAGNATION_TOL and STAGNATION_PATIENCE.
    """

    max_iters: int = 20
    min_rate: float = 0.0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.min_rate < 0:
            raise ValueError("min_rate must be >= 0")

    @property
    def rate_threshold(self) -> float:
        """Linear SINR floor implied by min_rate: 2^Rmin - 1."""
        return 2.0 ** self.min_rate - 1.0


@dataclass
class AuxState:
    """Per-user block variables of one iteration."""

    c: np.ndarray        # complex equalizers
    a: np.ndarray        # positive weights (= 1 + sinr at the update point)
    e: np.ndarray        # minimized MSE values, in (0, 1]
    powers: np.ndarray   # powers the blocks were computed at
    iteration: int


@dataclass
class DualSolution:
    """Multipliers produced by one power update."""

    budget_multiplier: float
    rate_multipliers: np.ndarray
    rounds: int
    max_violation: float


@dataclass
class PowerAllocation:
    """Final powers with the optimization trace and dual variables."""

    powers: np.ndarray        # flat (beam-major, SIC order), mW
    users: np.ndarray         # original user ids for each flat slot
    trace: list[float]        # sum rate after each iteration
    budget_trace: list[float]  # total transmit power after each iteration
    budget_multiplier: float
    rate_multipliers: np.ndarray
    feasible: bool
    iterations_used: int
    report: RateReport        # SINRs and rates at the final powers


def mmse_identity(gamma: float) -> float:
    """Minimum MSE achievable at SINR gamma: 1/(1+gamma)."""
    if gamma < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma}")
    return 1.0 / (1.0 + gamma)


def proposition1_check(b: float, grid: np.ndarray) -> tuple[float, float]:
    """Evaluate f(a) = -a*b/ln2 + log2(a) + 1/ln2 on a positive grid and
    return (argmax, max); the analytic optimum is a = 1/b, f = -log2(b)."""
    if b <= 0:
        raise ValueError(f"b must be > 0, got {b}")
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("grid must be strictly positive")
    f = -grid * b / np.log(2.0) + np.log2(grid) + 1.0 / np.log(2.0)
    i = int(np.argmax(f))
    return float(grid[i]), float(f[i])


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------

def _equalizers(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return np.conj(np.sqrt(powers) * lg.own) / (powers * lg.own_gain + xi)


def _mmse(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return xi / (powers * lg.own_gain + xi)


def update_c(powers: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
             noise_mw: float, lg: LinkGains | None = None) -> np.ndarray:
    """Optimal per-user MMSE equalizers at the given powers (flat order)."""
    lg = lg or link_gains(grouping, precoder)
    powers = np.asarray(powers, dtype=float)
    return _equalizers(lg, powers, interference_vector(lg, powers, noise_mw))


def update_a(powers: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
             noise_mw: float, lg: LinkGains | None = None) -> np.ndarray:
    """Optimal per-user weights a = 1/e_opt = 1 + sinr (flat order)."""
    lg = lg or link_gains(grouping, precoder)
    powers = np.asarray(powers, dtype=float)
    return 1.0 / _mmse(lg, powers, interference_vector(lg, powers, noise_mw))


def mmse_error(powers: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
               noise_mw: float) -> np.ndarray:
    """Minimized per-user MSE values e_opt at the given powers."""
    lg = link_gains(grouping, precoder)
    powers = np.asarray(powers, dtype=float)
    return _mmse(lg, powers, interference_vector(lg, powers, noise_mw))


def _stationary_denominator(lg: LinkGains, c: np.ndarray, a: np.ndarray,
                            mu: np.ndarray, eta: float) -> np.ndarray:
    """Lambda-free part of the KKT denominator tau for every user.

    Per user u on beam n: all same-beam users ranked at or after u plus every
    other beam's users contribute a*|c|^2*|h^H w_n|^2; the min-rate
    multipliers enter with -mu_u on the own gain and +eta*mu_v on the gains of
    users whose constraints user u's power tightens.
    """
    weights = a * np.abs(c) ** 2
    colsum = weights @ lg.gains
    own_w = weights * lg.own_gain
    base = colsum[lg.beam_of] - seg_excl_cumsum(own_w, lg.beam_start)
    if not np.any(mu):
        return base
    colmu = mu @ lg.gains
    own_mu = mu * lg.own_gain
    incl = seg_excl_cumsum(own_mu, lg.beam_start) + own_mu
    return base + eta * (colmu[lg.beam_of] - incl) - own_mu


def _powers_at(numer: np.ndarray, denom_base: np.ndarray, lam: float) -> np.ndarray:
    denom = denom_base + lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.where(numer > 0, (numer / denom) ** 2, 0.0)
    return np.where((denom <= 0) & (numer > 0), np.inf, p)


def _bisection_grid(lo: float, hi: float) -> np.ndarray:
    """Bracket endpoints after BISECT_DEPTH rounds of halving every interval of
    [lo, hi]: 2**BISECT_DEPTH + 1 ascending values, each new one the
    (left + right) / 2.0 midpoint of the two it splits.

    With lo = A / den and hi = B / den for integers 0 <= A < B and a power of
    two den, every grid point is an integer below B * 2**BISECT_DEPTH over
    den * 2**BISECT_DEPTH. Below 2**53 (and above the subnormal step) all of
    them are doubles, so no midpoint rounds and the affine grid is the same
    array; otherwise the midpoints are taken level by level.
    """
    (a, den_lo), (b, den_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den = max(den_lo, den_hi)
    if a >= 0 and b * (den // den_hi) < _EXACT_NUMERATOR and den < _EXACT_DENOMINATOR:
        return lo + (hi - lo) * _GRID_FRACTIONS
    grid = np.array([lo, hi])
    for _ in range(BISECT_DEPTH):
        fine = np.empty(2 * len(grid) - 1)
        fine[0::2] = grid
        fine[1::2] = (grid[:-1] + grid[1:]) / 2.0
        grid = fine
    return grid


def _solve_budget(numer: np.ndarray, denom_base: np.ndarray,
                  total_mw: float) -> tuple[float, np.ndarray]:
    """Bisect the budget multiplier so the closed-form powers fill the budget.

    Returns the feasible side of the bracket, so sum(p) <= total always; the
    remaining residual is at most BUDGET_TOL * total (or the budget is slack
    at multiplier zero, which complementary slackness permits).

    After the slack check at zero and the doubling phase that brackets the
    root, the halvings run in batches: every multiplier the next BISECT_DEPTH
    halvings can visit (the interior of `_bisection_grid(lo, hi)`) is
    evaluated in one (2**BISECT_DEPTH - 1, K) array, and the walk down the
    tree then follows the path of a one-at-a-time bisection on the row sums,
    with the same residual stop, the same stop on a midpoint equal to an
    endpoint and the same cap of MAX_HALVINGS. Each row is elementwise the
    1-D `_powers_at` vector and a row sum of a C-contiguous array equals the
    1-D sum, so the returned multiplier and powers are bit-identical to the
    sequential bisection.
    """
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
    p_sum = float(p.sum())
    # Rounding is monotone, so denom_base + lam > 0 for every lam >= lo once it
    # holds at lo. The masks of _powers_at then only zero the powers of users
    # whose numerator is not positive (or NaN), and fmax gives those the same
    # +0.0 without masks.
    unmasked = bool(denom_base.min() + lo > 0)
    if unmasked:
        numer = np.fmax(numer, 0.0)
    halvings = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while halvings < MAX_HALVINGS:
            grid = _bisection_grid(lo, hi)
            lams = grid[1:-1, None]
            points = grid.tolist()
            if unmasked:
                batch = (numer / (denom_base + lams)) ** 2
            else:
                batch = _powers_at(numer, denom_base, lams)
            sums = batch.sum(axis=1).tolist()
            left, right = 0, len(points) - 1
            while right - left > 1 and halvings < MAX_HALVINGS:
                if total_mw - p_sum <= BUDGET_TOL * total_mw:
                    return hi, p
                node = (left + right) // 2
                mid = points[node]
                if mid == lo or mid == hi:
                    return hi, p
                halvings += 1
                if sums[node - 1] > total_mw:
                    lo, left = mid, node
                else:
                    hi, right = mid, node
                    p, p_sum = batch[node - 1], sums[node - 1]
    return hi, p


def update_p(aux: AuxState, grouping: BeamGrouping, precoder: Precoder,
             config: OptimizerConfig, budget: LinkBudget,
             lg: LinkGains | None = None) -> tuple[np.ndarray, DualSolution]:
    """Closed-form KKT power update for fixed equalizers and weights.

    The budget multiplier comes from bisection. When a minimum rate is set,
    per-user multipliers follow a projected dual ascent on the linearized
    rate constraints: steps start at 1/|h^H w|^2, halve when a constraint's
    violation changes sign (oscillation) and double while it refuses to
    shrink, until every violation is within tolerance or the round cap is
    hit, in which case the least-violating iterate is returned.
    """
    lg = lg or link_gains(grouping, precoder)
    eta = config.rate_threshold
    numer = aux.a * np.real(aux.c * lg.own)
    mu = np.zeros_like(numer)
    step = 1.0 / np.maximum(lg.own_gain, 1e-300)
    prev_theta = None
    best = None
    rounds = 0
    for rounds in range(1, OUTER_CAP + 1):
        denom_base = _stationary_denominator(lg, aux.c, aux.a, mu, eta)
        lam, p = _solve_budget(numer, denom_base, budget.total_power_mw)
        if eta == 0.0:
            return p, DualSolution(lam, mu, rounds, 0.0)
        xi = interference_vector(lg, p, budget.noise_mw)
        theta = eta * xi - lg.own_gain * p
        violation = float(theta.max())
        if best is None or violation < best[0]:
            best = (violation, p, lam, mu.copy())
        if violation <= VIOLATION_TOL:
            return p, DualSolution(lam, mu, rounds, violation)
        if prev_theta is not None:
            flipped = np.sign(theta) * np.sign(prev_theta) < 0
            stalled = (theta > 0) & (prev_theta > 0) & (theta > 0.7 * prev_theta)
            step = np.where(flipped, step * 0.5, np.where(stalled, step * 2.0, step))
        mu = np.maximum(0.0, mu + step * theta)
        prev_theta = theta
    violation, p, lam, mu = best
    return p, DualSolution(lam, mu, rounds, violation)


def allocate(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget,
             config: OptimizerConfig | None = None) -> PowerAllocation:
    """Run the iterative c/a/p optimization from an equal power split.

    Records the sum rate after every iteration; the trace is non-decreasing
    (up to numerical slack) when no minimum rate is enforced. Stops early on
    stagnation. The feasibility flag reports whether the final rates meet the
    minimum-rate floor; it is never silently relaxed.
    """
    config = config or OptimizerConfig()
    lg = link_gains(grouping, precoder)
    k = len(lg.users)
    p = np.full(k, budget.total_power_mw / k)
    trace: list[float] = []
    budget_trace: list[float] = []
    lam, mu = 0.0, np.zeros(k)
    xi = interference_vector(lg, p, budget.noise_mw)
    report = rate_report(lg, p, xi)
    stall = 0
    iterations = 0
    for t in range(1, config.max_iters + 1):
        iterations = t
        c = _equalizers(lg, p, xi)
        a = 1.0 / _mmse(lg, p, xi)
        aux = AuxState(c=c, a=a, e=1.0 / a, powers=p, iteration=t)
        p, duals = update_p(aux, grouping, precoder, config, budget, lg=lg)
        lam, mu = duals.budget_multiplier, duals.rate_multipliers
        prev = report.sum_rate
        xi = interference_vector(lg, p, budget.noise_mw)
        report = rate_report(lg, p, xi)
        trace.append(report.sum_rate)
        budget_trace.append(float(p.sum()))
        stall = stall + 1 if report.sum_rate - prev < STAGNATION_TOL else 0
        if stall >= STAGNATION_PATIENCE:
            break
    feasible = bool(np.all(report.rates >= config.min_rate - RATE_SLACK)
                    and p.sum() <= budget.total_power_mw + 1e-9)
    return PowerAllocation(powers=p, users=lg.users, trace=trace,
                           budget_trace=budget_trace, budget_multiplier=lam,
                           rate_multipliers=mu, feasible=feasible,
                           iterations_used=iterations, report=report)
