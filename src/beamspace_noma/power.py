"""Iterative joint power allocation maximizing the NOMA sum rate.

The non-convex sum-rate objective is rewritten through the MMSE identity
1/(1+sinr) = min_c E|s - c y|^2 and a concave log-weight bound, giving three
blocks with closed-form optima: per-user equalizers c, positive weights
a = 1 + sinr, and powers from the KKT stationarity condition. The power step
is a convex problem solved by bisection on the budget multiplier plus an
active-set ascent on the per-user minimum-rate multipliers.

The blocks and the objective see the powers only through the interference-
plus-noise vector, computed once per iteration. Solver tolerances are constants.

The SNR points of a trial share the link and differ only in the noise, so
`allocate_batch` solves them together: each budget is one row of (S, K)
arrays and follows exactly the iterations a lone run would take, leaving the
batch when it stagnates (and the min-rate dual ascent when it converges).
Every batched step keeps the bits of the one-row computation: elementwise
ops, row sums of C-contiguous rows, per-row gemv through stacked matmuls and
per-beam bincounts over row-offset bins. `allocate`, `update_p` and the 1-D
helpers are one-row views of the batched code.

The budget bisection evaluates BISECT_DEPTH levels of every row's halving
tree per vectorized call and then walks the path a one-at-a-time bisection
would take, so it returns the sequential bisection's multiplier and powers
bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder
from .rates import (LinkBudget, LinkGains, RateReport, budget_arrays, interference_vector,
                    link_gains, rate_reports, seg_excl_cumsum)

RATE_SLACK = 1e-6       # achieved-rate tolerance when judging feasibility
VIOLATION_TOL = 1e-8    # min-rate constraint slack target for the active set
BUDGET_TOL = 1e-10      # relative power-budget residual for the bisection
OUTER_CAP = 200         # cap on min-rate constraint-enforcement rounds per power step
STAGNATION_TOL = 1e-12  # early stop once the objective gains less than this ...
STAGNATION_PATIENCE = 3  # ... for this many consecutive iterations
MAX_HALVINGS = 200      # cap on budget-bisection halvings per root
BISECT_DEPTH = 5        # bisection-tree levels evaluated per vectorized call
DOUBLINGS = 400         # cap on budget-multiplier doublings from 1 before halving
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
    """Lambda-free part of the KKT denominator tau for every user; c, a and mu
    are (K,) or (R, K) rows.

    Per user u on beam n: all same-beam users ranked at or after u plus every
    other beam's users contribute a*|c|^2*|h^H w_n|^2; the min-rate
    multipliers enter with -mu_u on the own gain and +eta*mu_v on the gains of
    users whose constraints user u's power tightens.
    """
    return _with_rate_multipliers(lg, _base_denominator(lg, c, a), mu, eta)


def _base_denominator(lg: LinkGains, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`_stationary_denominator` with every min-rate multiplier zero."""
    weights = a * np.abs(c) ** 2
    colsum = np.matmul(weights[..., None, :], lg.gains)[..., 0, :]
    return colsum.take(lg.beam_of, axis=-1) - seg_excl_cumsum(weights * lg.own_gain,
                                                             lg.beam_start)


def _with_rate_multipliers(lg: LinkGains, base: np.ndarray, mu: np.ndarray,
                           eta: float) -> np.ndarray:
    """The denominator `base` of zero multipliers plus the min-rate multiplier
    terms; a row whose multipliers are all zero gets `base` alone."""
    colmu = np.matmul(mu[..., None, :], lg.gains)[..., 0, :]
    own_mu = mu * lg.own_gain
    incl = seg_excl_cumsum(own_mu, lg.beam_start) + own_mu
    tightened = base + eta * (colmu.take(lg.beam_of, axis=-1) - incl) - own_mu
    return np.where(mu.any(axis=-1)[..., None], tightened, base)


def _powers_at(numer: np.ndarray, denom_base: np.ndarray, lam) -> np.ndarray:
    """Closed-form powers (numer / (denom_base + lam))**2 at multiplier lam:
    zero where numer is not positive, inf where a positive numer meets a
    non-positive denominator (the clamp to 0 makes that quotient inf)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(numer > 0, (numer / np.maximum(denom_base + lam, 0.0)) ** 2, 0.0)


def _bisection_grid(lo: float, hi: float) -> np.ndarray:
    """One-row view of `_bisection_grids`."""
    return _bisection_grids([(lo, hi)])[0]


def _bisection_grids(brackets: list[tuple[float, float]]) -> np.ndarray:
    """Bracket endpoints after BISECT_DEPTH rounds of halving every interval of
    each row's [lo, hi]: (R, 2**BISECT_DEPTH + 1) ascending values, each new
    one the (left + right) / 2.0 midpoint of the two it splits.

    With lo = A / den and hi = B / den for integers 0 <= A < B and a power of
    two den, every grid point is an integer below B * 2**BISECT_DEPTH over
    den * 2**BISECT_DEPTH. Below 2**53 (and above the subnormal step) all of
    them are doubles, so no midpoint rounds and the affine grid is the same
    array; other rows take the midpoints level by level.
    """
    lo_width = np.array([(lo, hi - lo) for lo, hi in brackets])
    grid = lo_width[:, :1] + lo_width[:, 1:] * _GRID_FRACTIONS
    inexact = [row for row, bracket in enumerate(brackets) if not _dyadic_grid_is_exact(*bracket)]
    if inexact:
        span = len(_GRID_FRACTIONS) - 1
        mids = np.empty((len(inexact), span + 1))
        mids[:, ::span] = [brackets[row] for row in inexact]
        while span > 1:
            half = span // 2
            mids[:, half::span] = (mids[:, :-1:span] + mids[:, span::span]) / 2.0
            span = half
        grid[inexact] = mids
    return grid


def _dyadic_grid_is_exact(lo: float, hi: float) -> bool:
    (a, den_lo), (b, den_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den = max(den_lo, den_hi)
    return a >= 0 and b * (den // den_hi) < _EXACT_NUMERATOR and den < _EXACT_DENOMINATOR


def _solve_budget(numer: np.ndarray, denom_base: np.ndarray,
                  total_mw: float) -> tuple[float, np.ndarray]:
    """One-row view of `_solve_budgets`: the multiplier and (K,) powers."""
    lam, p = _solve_budgets(numer[None], denom_base[None], np.array([total_mw]))
    return float(lam[0]), p[0]


def _solve_budgets(numer: np.ndarray, denom_base: np.ndarray,
                   total_mw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every row's budget multiplier so its closed-form powers fill
    that row's budget; numer and denom_base are (R, K), total_mw is (R,).

    Returns the feasible side of each bracket, so sum(p) <= total always; the
    remaining residual is at most BUDGET_TOL * total (or the budget is slack
    at multiplier zero, which complementary slackness permits).

    Every row follows the path of a one-at-a-time bisection: the slack check
    at zero, doubling from one until the budget is met, then halvings with a
    residual stop, a stop on a midpoint equal to an endpoint and a cap of
    MAX_HALVINGS. The halvings run in rounds: every multiplier the next
    BISECT_DEPTH halvings of every open row can visit (its `_bisection_grids`
    row) is evaluated as one (R, 2**BISECT_DEPTH + 1, K) array, and each
    row's walk down its tree then reads its row sums. The first round spans
    [0, 1], so its ends are the slack check and the first doubling point;
    only rows over budget at 1 keep doubling, and they start halving in the
    next round. Each row is elementwise the 1-D `_powers_at` vector and a
    row sum of a C-contiguous array equals the 1-D sum, so each row's
    multiplier and powers are bit-identical to the sequential bisection.
    """
    lam, powers = np.zeros(len(numer)), np.empty_like(numer)
    # one record per open row: [row, budget, smallest denominator, bracket
    # lo and hi, powers at hi (None before the first round), their sum, halvings]
    brackets = [[row, total, low, 0.0, 1.0, None, 0.0, 0] for row, (total, low) in
                enumerate(zip(total_mw.tolist(), denom_base.min(axis=-1).tolist()))]
    numer, denom_base = np.fmax(numer, 0.0)[:, None, :], denom_base[:, None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            lams = _bisection_grids([(bracket[3], bracket[4]) for bracket in brackets])[..., None]
            # Rounding is monotone, so denom_base + lam > 0 for every lam >= lo
            # once it holds at lo. The masks of _powers_at then only zero the
            # powers of users whose numerator is not positive (or NaN), and
            # fmax gives those the same +0.0 without masks.
            if all(low + lo > 0 for _, _, low, lo, _, _, _, _ in brackets):
                batch = (numer / (denom_base + lams)) ** 2
            else:
                batch = _powers_at(numer, denom_base, lams)
            still_open = []
            for pos, (bracket, row_sums, row_batch) in enumerate(
                    zip(brackets, batch.sum(axis=-1).tolist(), batch)):
                row, total, _, lo, hi, p, p_sum, count = bracket
                if p is None:  # the first round: [lo, hi] = [0, 1]
                    if row_sums[0] <= total:
                        powers[row] = row_batch[0]
                        still_open.append(False)
                        continue
                    p, p_sum = row_batch[-1], row_sums[-1]
                    if not p_sum <= total:
                        hi = 2.0
                        for _ in range(DOUBLINGS - 1):
                            p = _powers_at(numer[pos, 0], denom_base[pos, 0], hi)
                            if p.sum() <= total:
                                break
                            hi *= 2.0
                        bracket[3:7] = hi / 2.0, hi, p, float(p.sum())
                        still_open.append(True)
                        continue
                # the sequential bisection; its midpoints are the grid's nodes
                left, right = 0, 2 ** BISECT_DEPTH
                stopped = False
                while right - left > 1 and count < MAX_HALVINGS:
                    if total - p_sum <= BUDGET_TOL * total:
                        stopped = True
                        break
                    mid = (lo + hi) / 2.0
                    if mid == lo or mid == hi:
                        stopped = True
                        break
                    count += 1
                    node = (left + right) // 2
                    if row_sums[node] > total:
                        lo, left = mid, node
                    else:
                        hi, right = mid, node
                        p, p_sum = row_batch[node], row_sums[node]
                bracket[3:] = lo, hi, p, p_sum, count
                still_open.append(not stopped and count < MAX_HALVINGS)
                if not still_open[-1]:
                    lam[row], powers[row] = hi, p
            if not any(still_open):
                return lam, powers
            if not all(still_open):
                brackets = [bracket for bracket, keep in zip(brackets, still_open) if keep]
                numer = numer.compress(still_open, axis=0)
                denom_base = denom_base.compress(still_open, axis=0)


def _update_p_rows(lg: LinkGains, c: np.ndarray, a: np.ndarray, eta: float,
                   total_mw: np.ndarray, noise_mw: np.ndarray):
    """Closed-form KKT power update for R rows of equalizers and weights.

    Returns (R, K) powers and per-row budget multipliers, (R, K) rate
    multipliers, dual rounds and worst min-rate violations. Rows leave the
    dual ascent at the round where they converge; see `update_p`.
    """
    numer = a * np.real(c * lg.own)
    mu = np.zeros_like(numer)
    n_rows = len(numer)
    base = _base_denominator(lg, c, a)  # c and a are fixed for the step
    if eta == 0.0:
        lam, p = _solve_budgets(numer, base, total_mw)
        return p, lam, mu, np.ones(n_rows, dtype=int), np.zeros(n_rows)
    out_p, out_lam, out_mu = np.empty_like(numer), np.empty(n_rows), np.empty_like(numer)
    out_rounds, out_violation = np.full(n_rows, OUTER_CAP), np.empty(n_rows)
    live = np.arange(n_rows)
    step = np.full(numer.shape, 1.0 / np.maximum(lg.own_gain, 1e-300))
    prev_theta = None
    for rounds in range(1, OUTER_CAP + 1):
        lam, p = _solve_budgets(numer, _with_rate_multipliers(lg, base, mu, eta), total_mw)
        xi = interference_vector(lg, p, noise_mw)
        theta = eta * xi - lg.own_gain * p
        violation = theta.max(axis=-1)
        if prev_theta is None:
            best = (violation, p, lam, mu)
        else:
            better = violation < best[0]
            best = (np.where(better, violation, best[0]),
                    np.where(better[:, None], p, best[1]),
                    np.where(better, lam, best[2]),
                    np.where(better[:, None], mu, best[3]))
        done = violation <= VIOLATION_TOL
        if done.any():
            finished = live[done]
            out_p[finished], out_lam[finished], out_mu[finished] = p[done], lam[done], mu[done]
            out_rounds[finished], out_violation[finished] = rounds, violation[done]
            keep = ~done
            if not keep.any():
                return out_p, out_lam, out_mu, out_rounds, out_violation
            live, numer, base, mu, step, theta = (x[keep] for x in (live, numer, base, mu,
                                                                     step, theta))
            total_mw, noise_mw = total_mw[keep], noise_mw[keep]
            best = tuple(x[keep] for x in best)
            if prev_theta is not None:
                prev_theta = prev_theta[keep]
        if prev_theta is not None:
            flipped = np.sign(theta) * np.sign(prev_theta) < 0
            stalled = (theta > 0) & (prev_theta > 0) & (theta > 0.7 * prev_theta)
            step = np.where(flipped, step * 0.5, np.where(stalled, step * 2.0, step))
        mu = np.maximum(0.0, mu + step * theta)
        prev_theta = theta
    out_violation[live], out_p[live], out_lam[live], out_mu[live] = best
    return out_p, out_lam, out_mu, out_rounds, out_violation


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
    total, noise = budget_arrays([budget])
    p, lam, mu, rounds, violation = _update_p_rows(lg, aux.c[None], aux.a[None],
                                                   config.rate_threshold, total, noise)
    return p[0], DualSolution(float(lam[0]), mu[0], int(rounds[0]), float(violation[0]))


def allocate(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget,
             config: OptimizerConfig | None = None) -> PowerAllocation:
    """Run the iterative c/a/p optimization from an equal power split; the
    one-budget view of `allocate_batch`."""
    return allocate_batch(grouping, precoder, [budget], config)[0]


def allocate_batch(grouping: BeamGrouping, precoder: Precoder, budgets: Sequence[LinkBudget],
                   config: OptimizerConfig | None = None,
                   lg: LinkGains | None = None) -> list[PowerAllocation]:
    """Run the iterative c/a/p optimization for every budget on one link.

    The budgets (one per SNR point) form the rows of (S, K) arrays, and each
    row follows the iterations a lone run would take. Records the sum rate
    after every iteration; the trace is non-decreasing (up to numerical
    slack) when no minimum rate is enforced. A row stops early on
    stagnation. The feasibility flag reports whether the final rates meet the
    minimum-rate floor; it is never silently relaxed.
    """
    config = config or OptimizerConfig()
    lg = lg or link_gains(grouping, precoder)
    eta = config.rate_threshold
    total, noise = budget_arrays(budgets)
    n_rows, k = len(total), len(lg.users)
    p = np.repeat(total[:, None] / k, k, axis=1)
    lam, mu = np.zeros(n_rows), np.zeros((n_rows, k))
    xi = interference_vector(lg, p, noise)
    reports = rate_reports(lg, p, xi)
    traces: list[list[float]] = [[] for _ in range(n_rows)]
    budget_traces: list[list[float]] = [[] for _ in range(n_rows)]
    stall, iterations = [0] * n_rows, [0] * n_rows
    live = np.arange(n_rows)
    for t in range(1, config.max_iters + 1):
        p_live = p[live]
        c = _equalizers(lg, p_live, xi)
        a = 1.0 / _mmse(lg, p_live, xi)
        p_live, lam[live], mu[live], _, _ = _update_p_rows(lg, c, a, eta, total[live],
                                                           noise[live])
        p[live] = p_live
        xi = interference_vector(lg, p_live, noise[live])
        keep = []
        for row, report, used in zip(live.tolist(), rate_reports(lg, p_live, xi),
                                     p_live.sum(axis=-1).tolist()):
            iterations[row] = t
            gain = report.sum_rate - reports[row].sum_rate
            stall[row] = stall[row] + 1 if gain < STAGNATION_TOL else 0
            reports[row] = report
            traces[row].append(report.sum_rate)
            budget_traces[row].append(used)
            keep.append(stall[row] < STAGNATION_PATIENCE)
        if not any(keep):
            break
        live, xi = live[keep], xi[keep]
    out = []
    for row, report in enumerate(reports):
        feasible = bool(np.all(report.rates >= config.min_rate - RATE_SLACK)
                        and p[row].sum() <= total[row] + 1e-9)
        out.append(PowerAllocation(powers=p[row], users=lg.users, trace=traces[row],
                                   budget_trace=budget_traces[row],
                                   budget_multiplier=float(lam[row]),
                                   rate_multipliers=mu[row], feasible=feasible,
                                   iterations_used=iterations[row], report=report))
    return out
