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
them from (grouping, precoder); the benchmark's tracer wraps both by name and
the acceptance suite calls `allocate`.

The budget root returns the multiplier and powers of a one-at-a-time
bisection bit for bit, but evaluates few of its midpoints. Every multiplier
the bisection evaluates is a node of a dyadic tree, and it stops at the
first node c on its path inside the residual zone; every node before c is
coarser, so it lies outside the neighbours c -/+ 2**l. The powers' sum falls
monotonically in the multiplier even in floating point, so the sums at c and
its two neighbours certify the whole path. Newton steps, warm started from
the previous multiplier, pick c, and one table of three nodes per row
certifies it; rows that do not certify walk rounds of tables that hold every
node of the next BISECT_DEPTH halvings.
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
NEWTON_STEPS = 8        # cap on Newton steps placing a budget root
NEWTON_SETTLED = 2.0 ** -20  # relative budget misfit at which the Newton steps stop


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
    return _mmse(lg, powers, interference_vector(lg, powers[None], np.array([noise_mw]))[0])


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
                   guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every row's budget multiplier so its closed-form powers fill
    that row's budget; numer and denom_base are (R, K), total_mw is (R,)
    positive budgets and guess holds (R,) estimates of the multipliers (a warm
    start; NaN or 0 where there is none).

    Returns the feasible side of each bracket, within BUDGET_TOL * total of
    the budget (or slack at multiplier zero, as complementary slackness
    permits), except past the doubling cap: there lam = 2**DOUBLINGS, sum(p) >
    total and `allocate_batch`'s budget check reports the row infeasible.

    Every row follows the path of a one-at-a-time bisection, bit for bit: the
    slack check at zero, doubling from one until the budget is met, then
    halvings of [0, 1] (or of the last doubling) with a residual stop, a stop
    on a midpoint equal to an endpoint and a cap of MAX_HALVINGS. Every
    multiplier it evaluates is a node of a dyadic tree: 0, the rungs 2**j,
    and odd multiples of 2**l inside the bracket. It stops at the first node
    c on its path whose sum S lies in the residual zone (S <= total and
    total - S <= BUDGET_TOL * total), and every node it visits before c (0 and
    the rungs included) is coarser than c, so it lies at or below c - 2**l or
    at or above c + 2**l. S is non-increasing in the multiplier even in
    floating point, masked terms included: each addition, clamp, division and
    square rounds monotonically and the summation order is fixed. So three
    sums certify the whole path (`_certify`): S(c - 2**l) > total sends every
    node below right, c lies in the zone, and S(c + 2**l) <= total outside
    the zone sends every node above left without a residual stop.

    Warm rows (a finite guess above the floor max(0, -min(denom_base))) run
    `_newton` from the guess; cold rows first take the slack check, the rung
    at 1 and the doubling (`_open_brackets`), then `_newton` from halfway
    between their floor and hi. `_pick` turns each settled estimate into the
    nodes of c, and one (R, 3, K) table evaluates them all; the estimates only
    choose what is evaluated. The rest (unsettled, declined or failed, warm
    rows after their brackets open, and rows past the doubling cap) resume
    from their brackets in rounds (`_round_walks`) whose tables hold every
    node the next BISECT_DEPTH halvings can visit. Each evaluated row is
    elementwise the 1-D `_powers_at` vector, and a row sum of a C-contiguous
    array equals the 1-D sum.
    """
    n_rows = len(numer)
    lam, powers = np.zeros(n_rows), np.empty_like(numer)
    lows, totals, hints = denom_base.min(axis=-1).tolist(), total_mw.tolist(), guess.tolist()
    numer, denom_base = np.fmax(numer, 0.0)[:, None, :], denom_base[:, None, :]
    floors = [max(-low, 0.0) for low in lows]
    warm = [row for row in range(n_rows) if floors[row] < hints[row] < math.inf]
    cold = [row for row in range(n_rows) if row not in warm]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        brackets = _open_brackets(numer, denom_base, cold, totals, lows, powers)
        # past the doubling cap the powers held are those at hi / 2, not at hi;
        # a cold row's Newton steps start halfway from its floor to hi
        placeable = [bracket for bracket in brackets if bracket[6] <= bracket[1]]
        rows = warm + [bracket[0] for bracket in placeable]
        cold_floors = [max(-low, lo) for _, _, low, lo, *_ in placeable]
        roots = _newton(numer.take(rows, axis=0)[:, 0], denom_base.take(rows, axis=0)[:, 0],
                        [totals[row] for row in rows],
                        [hints[row] for row in warm] + [0.5 * (floor + bracket[4]) for floor, bracket
                                                        in zip(cold_floors, placeable)],
                        [floors[row] for row in warm] + cold_floors)
        picks = [(row, nodes) for row, root in zip(rows, roots)
                 if root is not None and (nodes := _pick(*root)) is not None]
        certified = _certify(numer, denom_base, picks, totals, lows, lam, powers)
        brackets = [bracket for bracket in brackets if bracket[0] not in certified]
        brackets += _open_brackets(numer, denom_base, [row for row in warm if row not in certified],
                                   totals, lows, powers)
        while brackets:
            brackets = _walk_tables(numer, denom_base, _round_walks(brackets), lam, powers)
    return lam, powers


def _batch_powers(numer: np.ndarray, denom_base: np.ndarray, lams: np.ndarray,
                  positive: bool) -> np.ndarray:
    """(R, T, K) powers of (R, 1, K) rows with non-negative numerators at the
    (R, T, 1) multipliers lams. Where positive says that every denom_base +
    lam > 0, the masks of `_powers_at` would only zero the powers of users
    with a zero numerator, which the division already does."""
    if positive:
        return (numer / (denom_base + lams)) ** 2
    return _powers_at(numer, denom_base, lams)


def _open_brackets(numer: np.ndarray, denom_base: np.ndarray, rows: list[int],
                   totals: list[float], lows: list[float], powers: np.ndarray) -> list:
    """Take rows through the slack check at 0, the rung at 1 and the doubling;
    store the powers of the rows slack at 0 and return a record per other
    row: [row, budget, smallest denominator, bracket lo and hi, powers at hi,
    their sum, halvings]."""
    if not rows:
        return []
    batch = _batch_powers(numer.take(rows, axis=0), denom_base.take(rows, axis=0),
                          np.array([0.0, 1.0])[None, :, None], all(lows[row] > 0 for row in rows))
    brackets = []
    for row, (at_zero, at_one), row_batch in zip(rows, batch.sum(axis=-1).tolist(), batch):
        total = totals[row]
        if at_zero <= total:
            powers[row] = row_batch[0]
            continue
        bracket = [row, total, lows[row], 0.0, 1.0, row_batch[1], at_one, 0]
        if not at_one <= total:  # the root lies past 1, or the sum is NaN
            hi = 2.0
            for _ in range(DOUBLINGS - 1):
                p = _powers_at(numer[row, 0], denom_base[row, 0], hi)
                if p.sum() <= total:
                    break
                hi *= 2.0
            bracket[3:7] = hi / 2.0, hi, p, float(p.sum())
        brackets.append(bracket)
    return brackets


def _newton(numer: np.ndarray, denom_base: np.ndarray, totals: list[float], x: list[float],
            floors: list[float]) -> list[tuple[float, float] | None]:
    """Estimate the roots of S(lam) = sum((numer / (denom_base + lam))**2) =
    total of (R, K) rows by Newton steps on g = S**-0.5, from x.

    Above floor every denominator is positive and g is concave and
    increasing, so a step lands at or below the root and later steps climb
    to it; a step that would cross floor halves the distance to it instead.
    Returns per row None if it has not settled within NEWTON_STEPS, else the
    estimate and the width BUDGET_TOL * total / |S'| of the residual zone
    above the root. The estimate adds to the last step its shortfall to
    second order, -g'' / (2 g') * step**2.
    """
    for _ in range(NEWTON_STEPS):
        denom = denom_base + np.array(x)[:, None]
        p = (numer / denom) ** 2
        slopes = p / denom
        steps, following, settled = [], [], True
        for row_sum, half_slope, x_row, floor, total in zip(
                p.sum(axis=-1).tolist(), slopes.sum(axis=-1).tolist(), x, floors, totals):
            # half_slope is -S'/2
            if half_slope > 0.0:
                misfit = math.sqrt(row_sum / total) - 1.0
                step = misfit * row_sum / half_slope
                zone = (0.5 * BUDGET_TOL) * total / half_slope
            else:
                misfit = step = zone = math.nan
            settled_row = abs(misfit) <= NEWTON_SETTLED and zone < math.inf
            estimate = x_row + step
            steps.append((estimate, zone, step, half_slope, row_sum) if settled_row else None)
            settled = settled and settled_row
            following.append(estimate if estimate > floor else 0.5 * (floor + x_row))
        if settled:
            break
        x = following
    roots = []
    for last, bend in zip(steps, (slopes / denom).sum(axis=-1).tolist()):
        if last is not None:
            estimate, zone, step, half_slope, row_sum = last
            # -g'' / (2 g') = 1.5 * (sum(p / denom**2) / half_slope - half_slope / S)
            last = estimate + 1.5 * (bend / half_slope - half_slope / row_sum) * step * step, zone
        roots.append(last)
    return roots


def _pick(estimate: float, zone: float) -> tuple[float, float, float] | None:
    """The nodes (c - 2**l, c, c + 2**l) that certify a root estimated at
    `estimate` with a residual zone `zone` wide: c is the node of [estimate,
    estimate + zone] the bisection reaches first. That is 1 (below it 0) or
    else the smallest rung 2**j (below it 2**(j - 1)), since the rungs come
    before every halving; no node above a rung is visited, so its upper node
    is inf, whose sum 0 always passes. Otherwise c is the coarsest node of
    the interval in the tree [0, 1] or [2**(j - 1), 2**j]. None for an
    estimate that is not positive and finite, a rung past the doubling cap or
    a c more than 52 halvings (or MAX_HALVINGS) deep: within 52 every node on
    the path is a double, so no midpoint meets an endpoint."""
    top = estimate + zone
    if not 0.0 < estimate < top < math.inf:
        return None
    if estimate <= 1.0 <= top:
        return 0.0, 1.0, math.inf
    rung = 0  # the tree [0, 1]
    if estimate > 1.0:
        mantissa, rung = math.frexp(estimate)  # 2**(rung - 1) <= estimate < 2**rung
        if mantissa == 0.5 or math.ldexp(1.0, rung) <= top:
            node = estimate if mantissa == 0.5 else math.ldexp(1.0, rung)
            return (0.5 * node, node, math.inf) if node <= 2.0 ** (DOUBLINGS - 1) else None
        if rung > DOUBLINGS - 1:
            return None
    # in units of 2**exponent, the coarsest node in [first, last] is a
    # multiple of the highest bit where first - 1 and last differ
    exponent = max(math.frexp(zone)[1] - 1, max(rung - 1, 0) - min(52, MAX_HALVINGS))
    first, last = math.ceil(math.ldexp(estimate, -exponent)), math.floor(math.ldexp(top, -exponent))
    if first > last:
        return None
    level = (last ^ (first - 1)).bit_length() - 1
    node, step = math.ldexp(last >> level << level, exponent), math.ldexp(1.0, exponent + level)
    return node - step, node, node + step


def _certify(numer: np.ndarray, denom_base: np.ndarray, picks: list, totals: list[float],
             lows: list[float], lam: np.ndarray, powers: np.ndarray) -> set[int]:
    """Evaluate every pick's three nodes in one (R, 3, K) table; store c and
    the powers at c of each row whose certificate holds, and return those
    rows. Every comparison fails on a NaN sum."""
    if not picks:
        return set()
    rows = [row for row, _ in picks]
    nodes = np.array([nodes for _, nodes in picks])
    # a zero-numerator user's 0/0 at its own pole needs the masks
    positive = all(below > -lows[row] for row, (below, _, _) in picks)
    table = _batch_powers(numer.take(rows, axis=0), denom_base.take(rows, axis=0),
                          nodes[..., None], positive)
    taken = []
    for i, (row, (below, at, above)) in enumerate(zip(rows, table.sum(axis=-1).tolist())):
        total, tol = totals[row], BUDGET_TOL * totals[row]
        if below > total >= at and total - at <= tol and above <= total and total - above > tol:
            taken.append(i)
    stored = [rows[i] for i in taken]
    lam[stored], powers[stored] = nodes[taken, 1], table[taken, 1]
    return set(stored)


def _round_walks(brackets: list) -> list:
    """One walk (bracket, first, exponent) per bracket over every node its
    next BISECT_DEPTH halvings can visit: for a dyadic bracket with hi - lo =
    2**w, the integers first + i, i in 0 .. 2**BISECT_DEPTH, at scale
    2**exponent = 2**(w - BISECT_DEPTH). A node whose multiplier is not a
    double splits two neighbouring doubles, so the bisection stops (mid == lo
    or mid == hi) before the walk reads it.
    """
    walks = []
    for bracket in brackets:
        lo, hi = bracket[3:5]
        exponent = math.frexp(hi - lo)[1] - 1 - BISECT_DEPTH
        walks.append((bracket, int(math.ldexp(lo, -exponent)), exponent))
    return walks


def _walk_tables(numer: np.ndarray, denom_base: np.ndarray, walks: list, lam: np.ndarray,
                 powers: np.ndarray) -> list:
    """Evaluate every walk's table of 2**BISECT_DEPTH + 1 nodes, each row as
    one slice, and `_walk` each row; store the multipliers and powers of the
    rows that finish and return the records of the rest, their brackets
    replayed as far as the walk went."""
    rows = [walk[0][0] for walk in walks]
    nodes = np.ldexp(np.array([first for _, first, _ in walks], dtype=float)[:, None]
                     + np.arange(2 ** BISECT_DEPTH + 1),
                     np.array([exponent for *_, exponent in walks])[:, None])
    positive = all(bracket[2] + math.ldexp(first, exponent) > 0
                   for bracket, first, exponent in walks)
    table = _batch_powers(numer.take(rows, axis=0), denom_base.take(rows, axis=0),
                          nodes[..., None], positive)
    still_open = []
    for (bracket, *_), row_sums, row_table in zip(walks, table.sum(axis=-1).tolist(), table):
        if _walk(bracket, row_sums, row_table) or bracket[7] >= MAX_HALVINGS:
            lam[bracket[0]], powers[bracket[0]] = bracket[4], bracket[5]
        else:
            still_open.append(bracket)
    return still_open


def _walk(bracket: list, sums: list, table: np.ndarray) -> bool:
    """Advance one row's sequential bisection through its round table, whose
    nodes 0 .. 2**BISECT_DEPTH span the bracket [lo, hi]: each midpoint is
    the middle node of the current span, with powers table[node] and row sum
    sums[node]. Write the bracket reached into the record and return whether
    the bisection stopped; the walk also ends at the halving cap or where the
    next midpoint falls between two nodes."""
    total, lo, hi, p, p_sum, count = bracket[1], *bracket[3:]
    left, right = 0, 2 ** BISECT_DEPTH
    stopped = False
    while right - left > 1 and count < MAX_HALVINGS and not stopped:
        mid = (lo + hi) / 2.0
        stopped = total - p_sum <= BUDGET_TOL * total or mid == lo or mid == hi
        if not stopped:
            count, node = count + 1, (left + right) // 2
            if sums[node] > total:
                lo, left = mid, node
            else:
                hi, right, p, p_sum = mid, node, table[node], sums[node]
    bracket[3:] = lo, hi, p, p_sum, count
    return stopped


def _update_p_rows(lg: LinkGains, c: np.ndarray, a: np.ndarray, eta: float,
                   total_mw: np.ndarray, noise_mw: np.ndarray, guess: np.ndarray):
    """Closed-form KKT power update for R rows of equalizers and weights.

    Returns (R, K) powers and per-row budget multipliers, (R, K) rate
    multipliers, dual rounds and worst min-rate violations. Rows leave the
    dual ascent at the round where they converge; see `update_p`. guess holds
    estimates of the budget multipliers (the previous iteration's, or zeros)
    to start the first budget root from; each dual round starts from the last
    one's.
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
    # a zero previous violation neither flips nor stalls the first round's steps
    prev_theta = np.zeros_like(numer)
    for rounds in range(1, OUTER_CAP + 1):
        lam, p = _solve_budgets(numer, _with_rate_multipliers(lg, base, mu, eta), total_mw, guess)
        guess = lam
        xi = interference_vector(lg, p, noise_mw)
        theta = eta * xi - lg.own_gain * p
        violation = theta.max(axis=-1)
        if rounds == 1:
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
            live, numer, base, mu, step, theta, prev_theta, guess = (
                x[keep] for x in (live, numer, base, mu, step, theta, prev_theta, guess))
            total_mw, noise_mw = total_mw[keep], noise_mw[keep]
            best = tuple(x[keep] for x in best)
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
                                                   total, noise, np.zeros(1))
    return p[0], DualSolution(float(lam[0]), mu[0], int(rounds[0]), float(violation[0]))


def allocate(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget,
             config: OptimizerConfig) -> PowerAllocation:
    """Run the iterative c/a/p optimization from an equal power split; the
    one-budget view of `allocate_batch`."""
    return allocate_batch(link_gains(grouping, precoder), [budget], config)[0]


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
    xi = interference_vector(lg, p, noise)
    latest = sum_rates(lg, p, xi).tolist()
    traces: list[list[float]] = [[] for _ in range(n_rows)]
    budget_traces: list[list[float]] = [[] for _ in range(n_rows)]
    stall = [0] * n_rows
    # the state of the live rows stays compacted; a row's final powers,
    # multipliers and interference are written out when it leaves, and the
    # rate reports are built once, from them
    live, live_total, live_noise = np.arange(n_rows), total, noise
    final = np.empty_like(p), np.empty_like(lam), np.empty_like(mu), np.empty_like(xi)
    for _ in range(config.max_iters):
        c = _equalizers(lg, p, xi)
        a = 1.0 / _mmse(lg, p, xi)
        p, lam, mu, _, _ = _update_p_rows(lg, c, a, eta, live_total, live_noise, lam)
        xi = interference_vector(lg, p, live_noise)
        keep = []
        for row, rate, used in zip(live.tolist(), sum_rates(lg, p, xi).tolist(),
                                   p.sum(axis=-1).tolist()):
            stall[row] = stall[row] + 1 if rate - latest[row] < STAGNATION_TOL else 0
            latest[row] = rate
            traces[row].append(rate)
            budget_traces[row].append(used)
            keep.append(stall[row] < STAGNATION_PATIENCE)
        if not any(keep):
            break
        if not all(keep):
            leaving = np.logical_not(keep)
            for out, x in zip(final, (p, lam, mu, xi)):
                out[live[leaving]] = x[leaving]
            live, p, lam, mu, xi, live_total, live_noise = (
                x[keep] for x in (live, p, lam, mu, xi, live_total, live_noise))
    for out, x in zip(final, (p, lam, mu, xi)):
        out[live] = x
    p, lam, mu, xi_rows = final
    out = []
    for row, report in enumerate(rate_reports(lg, p, xi_rows)):
        feasible = bool(np.all(report.rates >= config.min_rate - RATE_SLACK)
                        and p[row].sum() <= total[row] + 1e-9)
        out.append(PowerAllocation(powers=p[row], trace=traces[row],
                                   budget_trace=budget_traces[row],
                                   budget_multiplier=float(lam[row]),
                                   rate_multipliers=mu[row], feasible=feasible,
                                   iterations_used=len(traces[row]), report=report))
    return out
