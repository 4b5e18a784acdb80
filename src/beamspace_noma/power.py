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
per-beam bincounts over row-offset bins. `allocate_batch` sees the link only
through its `LinkGains`; the one-budget views `allocate` and `update_p` build
them from (grouping, precoder) and stay because the benchmark's tracer wraps
them by name.

The budget root returns the multiplier and powers of a one-at-a-time
bisection bit for bit, but evaluates few of its midpoints. Every bracket the
bisection opens is dyadic, so its midpoints are integer nodes at a
power-of-two scale, and the bisection is a walk down a tree of nodes that
reads row sums from tables of consecutive evaluated nodes. The powers' sum
falls monotonically in the multiplier even in floating point, so a window
placed by Newton steps around the root, once its ends certify the budget
bounds, decides every halving outside it. Rows that do not certify walk
rounds of tables that hold every node of the next BISECT_DEPTH halvings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder
from .rates import (LinkBudget, LinkGains, RateReport, budget_arrays, interference_vector,
                    link_gains, rate_reports, seg_excl_cumsum, sum_rates)

RATE_SLACK = 1e-6       # achieved-rate tolerance when judging feasibility
MAX_MIN_RATE = 1024.0   # 2**min_rate overflows a double from here on
VIOLATION_TOL = 1e-8    # min-rate constraint slack target for the active set
BUDGET_TOL = 1e-10      # relative power-budget residual for the bisection
OUTER_CAP = 200         # cap on min-rate constraint-enforcement rounds per power step
STAGNATION_TOL = 1e-12  # early stop once the objective gains less than this ...
STAGNATION_PATIENCE = 3  # ... for this many consecutive iterations
MAX_HALVINGS = 200      # cap on budget-bisection halvings per root
BISECT_DEPTH = 5        # bisection-tree levels evaluated per vectorized call
DOUBLINGS = 400         # cap on budget-multiplier doublings from 1 before halving
NEWTON_STEPS = 8        # cap on Newton steps placing a budget root in (0, 1)
NEWTON_SETTLED = 2.0 ** -20  # relative budget misfit at which the Newton steps stop
UNDERSHOOT = 2.0 ** 42  # bound on a settled estimate's shortfall, in zones per misfit**2


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
        if not 0 <= self.min_rate < MAX_MIN_RATE:
            raise ValueError(f"min_rate must be finite, >= 0 and < {MAX_MIN_RATE:g} bps/Hz "
                             f"(2**min_rate - 1 is the SINR floor), got {self.min_rate}")

    @property
    def rate_threshold(self) -> float:
        """Linear SINR floor implied by min_rate: 2^Rmin - 1."""
        return 2.0 ** self.min_rate - 1.0


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
    trace: list[float]        # sum rate after each iteration
    budget_trace: list[float]  # total transmit power after each iteration
    budget_multiplier: float
    rate_multipliers: np.ndarray
    feasible: bool
    iterations_used: int
    report: RateReport        # SINRs and rates at the final powers


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


def mmse_error(powers: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
               noise_mw: float) -> np.ndarray:
    """Minimized per-user MSE values e_opt at the given powers."""
    lg = link_gains(grouping, precoder)
    powers = np.asarray(powers, dtype=float)
    return _mmse(lg, powers, interference_vector(lg, powers, noise_mw))


def _base_denominator(lg: LinkGains, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Lambda-free KKT denominator of (K,) or (R, K) rows c and a at zero
    min-rate multipliers: for user u on beam n, every user ranked at or after
    u on beam n or on another beam adds a*|c|^2*|h^H w_n|^2."""
    weights = a * np.abs(c) ** 2
    colsum = np.matmul(weights[..., None, :], lg.gains)[..., 0, :]
    return colsum.take(lg.beam_of, axis=-1) - seg_excl_cumsum(weights * lg.own_gain,
                                                             lg.beam_start)


def _with_rate_multipliers(lg: LinkGains, base: np.ndarray, mu: np.ndarray,
                           eta: float) -> np.ndarray:
    """`base` plus the min-rate multiplier terms: -mu_u on the own gain and
    +eta*mu_v on the gains of users whose constraints u's power tightens. A
    row whose multipliers are all zero gets `base` alone."""
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


def _solve_budgets(numer: np.ndarray, denom_base: np.ndarray, total_mw: np.ndarray,
                   guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every row's budget multiplier so its closed-form powers fill
    that row's budget; numer and denom_base are (R, K), total_mw is (R,) and
    guess, if given, holds (R,) estimates of the multipliers (a warm start).

    Returns the feasible side of each bracket, so sum(p) <= total always; the
    remaining residual is at most BUDGET_TOL * total (or the budget is slack
    at multiplier zero, which complementary slackness permits).

    Every row follows the path of a one-at-a-time bisection: the slack check
    at zero, doubling from one until the budget is met, then halvings of
    [0, 1] (or of the last doubling) with a residual stop, a stop on a
    midpoint equal to an endpoint and a cap of MAX_HALVINGS. The multiplier
    and powers are bit-identical to that bisection's.

    One evaluation at 0, 1 and a start point settles the slack and doubling
    checks. The bracket that opens next, [0, 1] or the last doubling [2**(j -
    1), 2**j], is dyadic, and so is each of its halvings: hi - lo = 2**w with
    lo a multiple of 2**w, so a halving's midpoint is exact wherever it is a
    double, and where it is not, lo and hi are neighbouring doubles and the
    midpoint stop ends the bisection. Every multiplier the bisection
    evaluates is thus a node of a dyadic tree, and `_walk_tables` evaluates
    tables of consecutive nodes and `_walk`s the tree through them.

    A row whose root lies in (0, 1) is placed by `_newton` and certified in a
    window of nodes [a, b] (`_certified_walks`): S(a) > total and total -
    S(b) > BUDGET_TOL * total, with S(x) the row sum of the powers at
    multiplier x. Where every denominator is positive, S is non-increasing in
    the multiplier even in floating point: each addition, division and square
    rounds monotonically and the summation order is fixed. So every midpoint
    at or below a goes right and every one at or above b goes left without
    meeting the residual stop, and the walk takes those halvings in closed
    form; only midpoints inside the window read evaluated sums. The guess and
    the Newton estimate only choose which multipliers are evaluated; no
    branch of the walk depends on them.

    Rows over budget at 1, rows whose window does not certify or has a
    denominator that is not positive at a, and walks that leave the table
    resume from their bracket in rounds (`_round_walks`) whose tables hold
    every node the next BISECT_DEPTH halvings can visit. Windows and rounds
    are evaluated as separate (R, T, K) arrays. Each evaluated row is
    elementwise the 1-D `_powers_at` vector, and a row sum of a C-contiguous
    array equals the 1-D sum.
    """
    n_rows = len(numer)
    lam, powers = np.zeros(n_rows), np.empty_like(numer)
    lows, totals = denom_base.min(axis=-1).tolist(), total_mw.tolist()
    numer, denom_base = np.fmax(numer, 0.0)[:, None, :], denom_base[:, None, :]
    hints = [math.nan] * n_rows if guess is None else guess.tolist()
    # every denominator is positive above floor; Newton starts from the guess
    # where it lies in (floor, 1), else halfway from floor to 1
    floors = [max(-low, 0.0) for low in lows]
    starts = [hint if floor < hint < 1.0 else 0.5 * (floor + 1.0)
              for floor, hint in zip(floors, hints)]
    lams = np.array([(0.0, 1.0, start) for start in starts])[..., None]
    # one record per open row: [row, budget, smallest denominator, bracket lo
    # and hi, powers at hi (None where only a bound is known there), their
    # sum, halvings]
    brackets, inside = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        batch = _batch_powers(numer, denom_base, lams, all(low > 0 for low in lows))
        for row, (at_zero, at_one, _) in enumerate(batch.sum(axis=-1).tolist()):
            total = totals[row]
            if at_zero <= total:
                powers[row] = batch[row, 0]
                continue
            bracket = [row, total, lows[row], 0.0, 1.0, batch[row, 1], at_one, 0]
            if at_one <= total:  # the root lies in (0, 1]
                (inside if total > 0 else brackets).append(bracket)
                continue
            hi = 2.0
            for _ in range(DOUBLINGS - 1):
                p = _powers_at(numer[row, 0], denom_base[row, 0], hi)
                if p.sum() <= total:
                    break
                hi *= 2.0
            bracket[3:7] = hi / 2.0, hi, p, float(p.sum())
            brackets.append(bracket)
        if inside:
            rows = [bracket[0] for bracket in inside]
            roots = _newton(_take(numer, rows)[:, 0], _take(denom_base, rows)[:, 0],
                            [bracket[1] for bracket in inside],
                            [starts[bracket[0]] for bracket in inside],
                            _take(batch, rows)[:, 2], [floors[bracket[0]] for bracket in inside])
            windows, width = _certified_walks(inside, roots)
            placed = {walk[0][0] for walk in windows}
            brackets += [bracket for bracket in inside if bracket[0] not in placed]
            brackets += _walk_tables(numer, denom_base, windows, width, lam, powers)
        while brackets:
            brackets = _walk_tables(numer, denom_base, _round_walks(brackets),
                                    2 ** BISECT_DEPTH + 1, lam, powers)
    return lam, powers


def _take(array: np.ndarray, rows: list[int]) -> np.ndarray:
    return array if rows == list(range(len(array))) else array.take(rows, axis=0)


def _batch_powers(numer: np.ndarray, denom_base: np.ndarray, lams: np.ndarray,
                  positive: bool) -> np.ndarray:
    """(R, T, K) powers of (R, 1, K) rows with non-negative numerators at the
    (R, T, 1) multipliers lams. Where positive says that every denom_base +
    lam > 0, the masks of `_powers_at` would only zero the powers of users
    with a zero numerator, which the division already does."""
    if positive:
        return (numer / (denom_base + lams)) ** 2
    return _powers_at(numer, denom_base, lams)


def _newton(numer: np.ndarray, denom_base: np.ndarray, totals: list[float], x: list[float],
            p: np.ndarray, floors: list[float]) -> list[tuple[float, float, float] | None]:
    """Estimate the roots of S(lam) = sum((numer / (denom_base + lam))**2) =
    total of (R, K) rows by Newton steps on g = S**-0.5, from x where the
    powers are p.

    Above floor every denominator is positive and g is concave and
    increasing, so a step lands at or below the root and later steps climb
    to it; a step that would cross floor halves the distance to it instead.
    Returns per row None if it has not settled within NEWTON_STEPS, else the
    estimate, the width BUDGET_TOL * total / |S'| of the residual zone above
    the root and the relative budget misfit sqrt(S / total) - 1 at the last
    evaluated point, which bounds how far the estimate falls short.
    """
    for _ in range(NEWTON_STEPS):
        denom = denom_base + np.array(x)[:, None]
        if p is None:
            p = (numer / denom) ** 2
        roots, following, settled = [], [], True
        for row_sum, half_slope, x_row, floor, total in zip(
                p.sum(axis=-1).tolist(), (p / denom).sum(axis=-1).tolist(), x, floors, totals):
            # half_slope is -S'/2
            if half_slope > 0.0:
                misfit = math.sqrt(row_sum / total) - 1.0
                estimate = x_row + misfit * row_sum / half_slope
                zone = (0.5 * BUDGET_TOL) * total / half_slope
            else:
                misfit = estimate = zone = math.nan
            if abs(misfit) <= NEWTON_SETTLED and zone < math.inf:
                roots.append((estimate, zone, misfit))
            else:
                roots.append(None)
                settled = False
            following.append(estimate if estimate > floor else 0.5 * (floor + x_row))
        if settled:
            break
        x, p = following, None
    return roots


def _certified_walks(brackets: list, roots: list) -> tuple[list, int]:
    """Place windows around the `_newton` estimates of the rows whose roots
    lie in (0, 1): return the walks for `_walk_tables` and their common table
    width. Rows without a root or whose window does not fit get no walk.

    A row's table holds the multiples of a power of two `step` <= zone / 2
    from a node below its estimate to one past the residual zone above it,
    widened by UNDERSHOOT * misfit**2 zones for the estimate's shortfall, in
    the tree [0, 1] of the node multiples of step. Nodes stay below 2**51,
    so every node a skip lands on has a double as its multiplier.
    """
    placed = []
    for bracket, root in zip(brackets, roots):
        if root is None:
            continue
        estimate, zone, misfit = root
        exponent = math.frexp(0.5 * zone)[1] - 1
        step = math.ldexp(1.0, exponent)
        below = (estimate - 0.25 * zone) / step
        above = (estimate + (1.25 + UNDERSHOOT * misfit * misfit) * zone) / step
        if 1.0 <= below and above < 2.0 ** 51 and math.floor(below) * step > -bracket[2]:
            placed.append((bracket, math.floor(below), math.ceil(above), exponent))
    width = max([last - first + 1 for _, first, last, _ in placed], default=0)
    return [(bracket, first, 0, 1 << -exponent, exponent) for bracket, first, _, exponent in placed
            if first + width - 1 < 2 ** -exponent], width


def _round_walks(brackets: list) -> list:
    """One walk per bracket over every node its next BISECT_DEPTH halvings
    can visit: for a dyadic bracket with hi - lo = 2**w, the integers
    lo / 2**(w - BISECT_DEPTH) + i, i in 0 .. 2**BISECT_DEPTH, at scale
    2**(w - BISECT_DEPTH). A node whose multiplier is not a double splits two
    neighbouring doubles, so the bisection stops (mid == lo or mid == hi)
    before the walk reads it.
    """
    walks = []
    for bracket in brackets:
        lo, hi = bracket[3:5]
        exponent = math.frexp(hi - lo)[1] - 1 - BISECT_DEPTH
        first = int(math.ldexp(lo, -exponent))
        walks.append((bracket, first, first, first + 2 ** BISECT_DEPTH, exponent))
    return walks


def _walk_tables(numer: np.ndarray, denom_base: np.ndarray, walks: list, width: int,
                 lam: np.ndarray, powers: np.ndarray) -> list:
    """Evaluate a table of `width` consecutive nodes for every walk and
    `_walk` each row; store the multipliers and powers of the rows that
    finish and return the records of the rest, their brackets replayed as far
    as the walk went.

    A walk (bracket, first, left, right, exponent) holds the nodes first ..
    first + width - 1 of the bracket's tree [left, right] at multipliers
    node * 2**exponent. Each row is evaluated as one (width, K) slice, which
    is elementwise the 1-D `_powers_at` vector of each node. Where the table
    does not reach an end of the tree, the walk is taken only if that end of
    the table certifies the bound `_walk` assumes past it; a table that ends
    at right gives the powers at hi where only a bound was known.
    """
    if not walks:
        return []
    rows = [walk[0][0] for walk in walks]
    nodes = np.ldexp(np.array([walk[1] for walk in walks], dtype=float)[:, None]
                     + np.arange(width), np.array([walk[4] for walk in walks])[:, None])
    positive = all(bracket[2] + math.ldexp(first, exponent) > 0
                   for bracket, first, *_, exponent in walks)
    table = _batch_powers(_take(numer, rows), _take(denom_base, rows), nodes[..., None],
                          positive)
    still_open = []
    for (bracket, first, left, right, exponent), row_sums, row_table in zip(
            walks, table.sum(axis=-1).tolist(), table):
        total, last = bracket[1], first + width - 1
        if last == right and bracket[5] is None:
            bracket[5:7] = row_table[-1], row_sums[-1]
        if ((first == left or row_sums[0] > total)
                and (last == right or not total - row_sums[-1] <= BUDGET_TOL * total)
                and (_walk(bracket, first, row_sums, row_table, left, right, exponent)
                     or bracket[7] >= MAX_HALVINGS)
                and bracket[5] is not None):
            lam[bracket[0]], powers[bracket[0]] = bracket[4], bracket[5]
        else:
            still_open.append(bracket)
    return still_open


def _walk(bracket: list, first: int, sums: list, batch: np.ndarray, left: int, right: int,
          exponent: int) -> bool:
    """Advance one row's sequential bisection; return whether it stopped.

    The bracket [lo, hi] spans the integer tree nodes [left, right]; a node's
    multiplier is its index times 2**exponent, and each halving's midpoint is
    the middle node. Nodes first .. first + len(sums) - 1 have evaluated
    powers (rows of batch) and row sums (sums). A node below them is over
    budget and one above them under budget by more than the residual
    tolerance: the caller has certified both ends. The walk ends at a stop,
    at the halving cap or where the next midpoint falls between two nodes,
    and writes the bracket it reached into the record.

    When the middle node lies outside the table, every halving down to the
    coarsest table node inside the bracket is decided by the bounds, so they
    are taken at once, unless the cap falls among them.
    """
    total, lo, hi, p, p_sum, count = bracket[1], *bracket[3:]
    last = first + len(sums) - 1
    stopped = False
    while right - left > 1 and count < MAX_HALVINGS:
        if total - p_sum <= BUDGET_TOL * total:
            stopped = True
            break
        node = (left + right) // 2
        if not first <= node <= last:
            low_node, high_node = max(first, left + 1), min(last, right - 1)
            level = (high_node ^ (low_node - 1)).bit_length() - 1
            coarsest = high_node >> level << level
            skipped = (right - left).bit_length() - level - 2
            if count + skipped < MAX_HALVINGS:
                node, count = coarsest, count + skipped
                if coarsest - (1 << level) != left:
                    left = coarsest - (1 << level)
                    lo = math.ldexp(left, exponent)
                if coarsest + (1 << level) != right:
                    right = coarsest + (1 << level)
                    hi, p, p_sum = math.ldexp(right, exponent), None, -math.inf
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            stopped = True
            break
        count += 1
        if node < first or node <= last and sums[node - first] > total:
            lo, left = mid, node
        elif node <= last:
            hi, right, p, p_sum = mid, node, batch[node - first], sums[node - first]
        else:
            hi, right, p, p_sum = mid, node, None, -math.inf
    bracket[3:] = lo, hi, p, p_sum, count
    return stopped


def _update_p_rows(lg: LinkGains, c: np.ndarray, a: np.ndarray, eta: float,
                   total_mw: np.ndarray, noise_mw: np.ndarray, guess: np.ndarray | None = None):
    """Closed-form KKT power update for R rows of equalizers and weights.

    Returns (R, K) powers and per-row budget multipliers, (R, K) rate
    multipliers, dual rounds and worst min-rate violations. Rows leave the
    dual ascent at the round where they converge; see `update_p`. guess holds
    estimates of the budget multipliers (the previous iteration's) to start
    the first budget root from; each dual round starts from the last one's.
    """
    numer = a * np.real(c * lg.own)
    mu = np.zeros_like(numer)
    n_rows = len(numer)
    base = _base_denominator(lg, c, a)  # c and a are fixed for the step
    if eta == 0.0:
        lam, p = _solve_budgets(numer, base, total_mw, guess)
        return p, lam, mu, np.ones(n_rows, dtype=int), np.zeros(n_rows)
    out_p, out_lam, out_mu = np.empty_like(numer), np.empty(n_rows), np.empty_like(numer)
    out_rounds, out_violation = np.full(n_rows, OUTER_CAP), np.empty(n_rows)
    live = np.arange(n_rows)
    step = np.full(numer.shape, 1.0 / np.maximum(lg.own_gain, 1e-300))
    prev_theta = None
    for rounds in range(1, OUTER_CAP + 1):
        lam, p = _solve_budgets(numer, _with_rate_multipliers(lg, base, mu, eta), total_mw, guess)
        guess = lam
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
            live, numer, base, mu, step, theta, guess = (
                x[keep] for x in (live, numer, base, mu, step, theta, guess))
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


def update_p(c: np.ndarray, a: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
             config: OptimizerConfig, budget: LinkBudget) -> tuple[np.ndarray, DualSolution]:
    """Closed-form KKT power update for fixed equalizers c and weights a
    (flat order).

    The budget multiplier comes from bisection. When a minimum rate is set,
    per-user multipliers follow a projected dual ascent on the linearized
    rate constraints: steps start at 1/|h^H w|^2, halve when a constraint's
    violation changes sign (oscillation) and double while it refuses to
    shrink, until every violation is within tolerance or the round cap is
    hit, in which case the least-violating iterate is returned.
    """
    lg = link_gains(grouping, precoder)
    total, noise = budget_arrays([budget])
    p, lam, mu, rounds, violation = _update_p_rows(lg, c[None], a[None], config.rate_threshold,
                                                   total, noise)
    return p[0], DualSolution(float(lam[0]), mu[0], int(rounds[0]), float(violation[0]))


def allocate(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget,
             config: OptimizerConfig | None = None) -> PowerAllocation:
    """Run the iterative c/a/p optimization from an equal power split; the
    one-budget view of `allocate_batch`."""
    return allocate_batch(link_gains(grouping, precoder), [budget], config or OptimizerConfig())[0]


def allocate_batch(lg: LinkGains, budgets: Sequence[LinkBudget],
                   config: OptimizerConfig) -> list[PowerAllocation]:
    """Run the iterative c/a/p optimization for every budget on one link.

    The budgets (one per SNR point) form the rows of (S, K) arrays, and each
    row follows the iterations a lone run would take. Records the sum rate
    after every iteration; the trace is non-decreasing (up to numerical
    slack) when no minimum rate is enforced. A row stops early on
    stagnation. The feasibility flag reports whether the final rates meet the
    minimum-rate floor; it is never silently relaxed.
    """
    eta = config.rate_threshold
    total, noise = budget_arrays(budgets)
    n_rows, k = len(total), len(lg.users)
    p = np.repeat(total[:, None] / k, k, axis=1)
    lam, mu = np.zeros(n_rows), np.zeros((n_rows, k))
    # the interference rows at each row's latest powers; the rate reports are
    # built once, from the final ones
    xi_rows = interference_vector(lg, p, noise)
    xi, latest = xi_rows, sum_rates(lg, p, xi_rows).tolist()
    traces: list[list[float]] = [[] for _ in range(n_rows)]
    budget_traces: list[list[float]] = [[] for _ in range(n_rows)]
    stall, iterations = [0] * n_rows, [0] * n_rows
    live = np.arange(n_rows)
    for t in range(1, config.max_iters + 1):
        p_live = p[live]
        c = _equalizers(lg, p_live, xi)
        a = 1.0 / _mmse(lg, p_live, xi)
        p_live, lam[live], mu[live], _, _ = _update_p_rows(lg, c, a, eta, total[live],
                                                           noise[live], lam[live])
        p[live] = p_live
        xi = interference_vector(lg, p_live, noise[live])
        xi_rows[live] = xi
        keep = []
        for row, rate, used in zip(live.tolist(), sum_rates(lg, p_live, xi).tolist(),
                                   p_live.sum(axis=-1).tolist()):
            iterations[row] = t
            stall[row] = stall[row] + 1 if rate - latest[row] < STAGNATION_TOL else 0
            latest[row] = rate
            traces[row].append(rate)
            budget_traces[row].append(used)
            keep.append(stall[row] < STAGNATION_PATIENCE)
        if not any(keep):
            break
        live, xi = live[keep], xi[keep]
    out = []
    for row, report in enumerate(rate_reports(lg, p, xi_rows)):
        feasible = bool(np.all(report.rates >= config.min_rate - RATE_SLACK)
                        and p[row].sum() <= total[row] + 1e-9)
        out.append(PowerAllocation(powers=p[row], trace=traces[row],
                                   budget_trace=budget_traces[row],
                                   budget_multiplier=float(lam[row]),
                                   rate_multipliers=mu[row], feasible=feasible,
                                   iterations_used=iterations[row], report=report))
    return out
