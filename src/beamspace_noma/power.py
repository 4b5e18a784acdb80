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
its two neighbours certify the whole path. Newton steps pick c, from the
previous multiplier or a bound below the root set by the pole user (the
smallest denominator), and one table of three nodes per row certifies it.
Where that bound rounds onto the pole, c is the double above it, certified
even outside the residual zone. Other rows run the plain bisection.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder
from .rates import (LinkBudget, LinkGains, RateReport, budget_arrays, interference_vector,
                    link_and_powers, link_gains, rate_reports, seg_excl_cumsum, sum_rates)

RATE_SLACK = 1e-6       # achieved-rate tolerance when judging feasibility
MAX_MIN_RATE = 1024.0   # 2**min_rate overflows a double from here on
VIOLATION_TOL = 1e-8    # min-rate constraint slack target for the active set
BUDGET_TOL = 1e-10      # relative power-budget residual for the bisection
OUTER_CAP = 200         # cap on min-rate constraint-enforcement rounds per power step
STAGNATION_TOL = 1e-12  # early stop once the objective gains less than this ...
STAGNATION_PATIENCE = 3  # ... for this many consecutive iterations
MAX_HALVINGS = 200      # cap on budget-bisection halvings per root
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

def _mmse_terms(lg: LinkGains, p: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equalizers c and minimized MSEs e = 1/(1 + sinr), over one p*|h^H w|^2 + xi."""
    total = p * lg.own_gain + xi
    return np.conj(np.sqrt(p) * lg.own) / total, xi / total


def mmse_error(powers: np.ndarray, grouping: BeamGrouping, precoder: Precoder,
               noise_mw: float) -> np.ndarray:
    """Minimized per-user MSE values e_opt at the given powers."""
    lg, p, xi = link_and_powers(grouping, precoder, powers, noise_mw)
    return _mmse_terms(lg, p[0], xi[0])[1]


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
    zero where numer is not positive, and inf, silent under `_solve_budgets`,
    where a positive numer meets a denominator clamped to 0."""
    return np.where(numer > 0, (numer / np.maximum(denom_base + lam, 0.0)) ** 2, 0.0)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
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

    Every row gets the multiplier and powers of `_bisect`, the one-at-a-time
    bisection, bit for bit. Every multiplier it evaluates is a dyadic node:
    0, the rungs 2**j, and odd multiples of 2**l inside the bracket. S, the
    powers' sum, is non-increasing in the multiplier even in floating point,
    masked terms included: each addition, clamp, division and square rounds
    monotonically and the summation order is fixed. So three sums certify a
    node c as its answer (`_certify`).

    Each row's pole user has the smallest denominator d among the positive
    numerators n. S >= (n / (d + lam))**2 puts the root at or above -d + n /
    sqrt(total); `_newton` starts from that bound, or from a larger finite
    guess, and `_pick` turns its estimate into c and its neighbours c -/+
    2**l, or, where the bound rounds onto the pole, c into the double above
    the pole, which may lie outside the residual zone. One (R, 3, K) table
    of plain quotients, exact above the pole, where a certificate needs c,
    evaluates every row's nodes; rows without a pick or a certificate run
    `_bisect`. A row sum of a C-contiguous array equals the 1-D sum.
    """
    n_rows = len(numer)
    lam, powers = np.zeros(n_rows), np.empty_like(numer)
    numer, totals = np.fmax(numer, 0.0), total_mw.tolist()
    users = denom_base.argmin(axis=-1).tolist()
    if not all(numer.item(row, user) > 0.0 for row, user in enumerate(users)):
        # a smallest denominator without power: the pole is the next one's
        users = np.where(numer > 0.0, denom_base, np.inf).argmin(axis=-1).tolist()
    poles = [(-denom_base.item(row, user), numer.item(row, user))
             for row, user in enumerate(users)]
    # no bound (NaN) for a zero budget; a row whose start is not finite never settles
    bounds = [pole + n / math.sqrt(total) if total > 0.0 else math.nan
              for (pole, n), total in zip(poles, totals)]
    roots = _newton(numer, denom_base, totals,
                    [hint if bound < hint < math.inf else bound
                     for bound, hint in zip(bounds, guess.tolist())], poles)
    picks = [(row, nodes) for row, root in enumerate(roots)
             if root is not None and (nodes := _pick(*root)) is not None]
    certified = _certify(numer, denom_base, picks, totals, poles, lam, powers)
    for row in range(n_rows):
        if row not in certified:
            lam[row], powers[row] = _bisect(numer[row], denom_base[row], totals[row])
    return lam, powers


def _newton(numer: np.ndarray, denom_base: np.ndarray, totals: list[float], x: list[float],
            poles: list[tuple[float, float]]) -> list[tuple[float, float] | None]:
    """Estimate the roots of S(lam) = sum((numer / (denom_base + lam))**2) =
    total of (R, K) rows by Newton steps on g = S**-0.5, from x at or above
    each row's pole -d, whose user has the numerator n (poles holds (-d, n)).

    Above -d, g is concave and increasing, so every step lands at or below
    the root. A step from above the root (S < total) moves no lower than -d +
    n / sqrt(total - rest), rest being S less the pole user's term, which at
    the root is total - rest(root) <= total - rest(x): no step crosses the
    pole. Returns per row None if it has not settled within NEWTON_STEPS,
    (-d, 0.0) if x rounds onto the pole, else the estimate and the width
    BUDGET_TOL * total / |S'| of the residual zone above the root. The
    estimate adds to the last step its shortfall to second order, -g'' / (2
    g') * step**2.
    """
    for _ in range(NEWTON_STEPS):
        denom = denom_base + np.array(x)[:, None]
        p = (numer / denom) ** 2
        slopes = p / denom
        steps, following, settled = [], [], True
        for row_sum, half_slope, x_row, total, (pole, n) in zip(
                p.sum(axis=-1).tolist(), slopes.sum(axis=-1).tolist(), x, totals, poles):
            if x_row <= pole:
                steps.append((pole, 0.0, 0.0, 0.0, 0.0))
                following.append(pole)
                continue
            # half_slope is -S'/2
            if half_slope > 0.0:
                misfit = math.sqrt(row_sum / total) - 1.0
                step = misfit * row_sum / half_slope
                zone = (0.5 * BUDGET_TOL) * total / half_slope
            else:
                misfit = step = zone = math.nan
            settled_row = abs(misfit) <= NEWTON_SETTLED and 0.0 < zone < math.inf
            estimate = x_row + step
            steps.append((estimate, zone, step, half_slope, row_sum) if settled_row else None)
            settled = settled and settled_row
            if row_sum < total:
                term = n / (x_row - pole)
                estimate = max(estimate, pole + n / math.sqrt(total - (row_sum - term * term)))
            following.append(estimate)
        if settled:
            break
        x = following
    roots = []
    for last, bend in zip(steps, (slopes / denom).sum(axis=-1).tolist()):
        if last is not None:
            estimate, zone, step, half_slope, row_sum = last
            if zone > 0.0:
                # -g'' / (2 g') = 1.5 * (sum(p / denom**2) / half_slope - half_slope / S)
                estimate += 1.5 * (bend / half_slope - half_slope / row_sum) * step * step
            last = estimate, zone
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
    the path is a double, so no midpoint meets an endpoint.

    A zero zone puts the root within rounding above the pole `estimate`: for
    a pole in [1, 2**(DOUBLINGS - 1)), c is the next double, flanked by the
    pole and the double above c (inf above a rung)."""
    if zone == 0.0:
        node = math.nextafter(estimate, math.inf)
        above = math.inf if math.frexp(node)[0] == 0.5 else math.nextafter(node, math.inf)
        return (estimate, node, above) if 1.0 <= estimate < 2.0 ** (DOUBLINGS - 1) else None
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
             poles: list[tuple[float, float]], lam: np.ndarray, powers: np.ndarray) -> set[int]:
    """Evaluate every pick's nodes (below, c, above) in one (R, 3, K) table
    of plain quotients; store c and the powers at c of each row whose
    certificate holds, and return those rows. A certificate needs c above
    its row's pole -d (poles as for `_newton`): there every positive
    numerator meets a positive denominator, so the table is `_powers_at`'s
    or NaN (a zero numerator's 0/0). At a node not above the pole, where
    Newton can land a few ulps short, it reads finite or NaN where
    `_powers_at` reads inf or 0. Every comparison fails on a NaN sum, so
    either can only fail a certificate.

    Both branches need S(below) > total >= S(c). Inside the residual zone
    every node the bisection visits before c is coarser, at or below c - 2**l
    <= below or at or above c + 2**l >= above, and S(above) <= total outside
    the zone sends those above left without a residual stop. Outside it,
    below and c must be neighbouring doubles, which every pick puts in [1,
    2**(DOUBLINGS - 1)]: the doubling stops at the rung at or above c, every
    midpoint of that binade is a double, and within 52 halvings the bracket
    is (below, c), whose midpoint meets an endpoint, so the bisection returns
    c. The picks' 52-halving bound holds both branches."""
    if not picks:
        return set()
    rows = [row for row, _ in picks]
    nodes = np.array([nodes for _, nodes in picks])
    numer, denom_base = numer.take(rows, axis=0)[:, None], denom_base.take(rows, axis=0)[:, None]
    table = (numer / (denom_base + nodes[..., None])) ** 2
    certified = set()
    for (row, (below_node, node, _)), (below, at, above), row_table in zip(
            picks, table.sum(axis=-1).tolist(), table):
        total, tol = totals[row], BUDGET_TOL * totals[row]
        if node > poles[row][0] and below > total >= at and (
                total - above > tol if total - at <= tol
                else math.nextafter(below_node, math.inf) == node):
            lam[row], powers[row] = node, row_table[1]
            certified.add(row)
    return certified


def _bisect(numer: np.ndarray, denom_base: np.ndarray, total: float) -> tuple[float, np.ndarray]:
    """One row's budget bisection, one multiplier at a time: the slack check
    at zero, doubling from one until the budget is met (at most DOUBLINGS
    rungs), then halvings of [0, 1] or of the last doubling until the sum is
    within BUDGET_TOL * total of the budget, a midpoint meets an endpoint or
    MAX_HALVINGS is reached. Returns the upper end and its powers.

    The doubling gallops to the same rung: it tries the exponents 0, 1, 2, 4,
    8, ... (the last DOUBLINGS - 1), then bisects on the exponent between the
    last that misses the budget and the first that meets it. S is
    non-increasing, and a NaN sum misses at every rung, so the rungs that meet
    it are exactly those from the ladder's stop up. When none does, the ladder
    stops at 2**DOUBLINGS holding the powers at its last rung, and so does
    this."""
    p = _powers_at(numer, denom_base, 0.0)
    if p.sum() <= total:
        return 0.0, p
    # p holds the powers at 2**rung; `failed` is the highest exponent known to miss
    failed, rung = -1, 0
    p = _powers_at(numer, denom_base, 1.0)
    while not p.sum() <= total and rung < DOUBLINGS - 1:
        failed, rung = rung, min(2 * rung or 1, DOUBLINGS - 1)
        p = _powers_at(numer, denom_base, math.ldexp(1.0, rung))
    if p.sum() <= total:
        while rung - failed > 1:
            mid = (failed + rung) // 2
            p_mid = _powers_at(numer, denom_base, math.ldexp(1.0, mid))
            if p_mid.sum() <= total:
                rung, p = mid, p_mid
            else:
                failed = mid
        hi = math.ldexp(1.0, rung)
    else:
        hi = math.ldexp(1.0, DOUBLINGS)
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(MAX_HALVINGS):
        mid = (lo + hi) / 2.0
        if total - p.sum() <= BUDGET_TOL * total or mid == lo or mid == hi:
            break
        p_mid = _powers_at(numer, denom_base, mid)
        if p_mid.sum() > total:
            lo = mid
        else:
            hi, p = mid, p_mid
    return hi, p


def _update_p_rows(lg: LinkGains, c: np.ndarray, a: np.ndarray, eta: float,
                   total_mw: np.ndarray, noise_mw: np.ndarray, guess: np.ndarray):
    """Closed-form KKT power update for R rows of equalizers and weights.

    Returns (R, K) powers and per-row budget multipliers, (R, K) rate
    multipliers, dual rounds and worst min-rate violations. Rows leave the
    dual ascent at the round where they converge; a capped row's powers are
    the root at its least-violating multipliers, that round's bits, as a
    row's root depends on its row alone, not on its guess. guess holds
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
        # each live row's least-violating round so far
        better = (violation < out_violation[live]) | (rounds == 1)
        out_violation[live[better]], out_mu[live[better]] = violation[better], mu[better]
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
        flipped = np.sign(theta) * np.sign(prev_theta) < 0
        stalled = (prev_theta > 0) & (theta > 0.7 * prev_theta)
        step = np.where(flipped, step * 0.5, np.where(stalled, step * 2.0, step))
        mu = np.maximum(0.0, mu + step * theta)
        prev_theta = theta
    out_lam[live], out_p[live] = _solve_budgets(
        numer, _with_rate_multipliers(lg, base, out_mu[live], eta), total_mw, guess)
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
    hit. A capped row returns its least-violating multipliers with the
    powers and budget multiplier of the budget root at them.
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
    # rate reports are built once, from them. A row whose start rate is not
    # finite leaves before its first step, with the start as its final state
    live, live_total, live_noise = np.arange(n_rows), total, noise
    final = np.empty_like(p), np.empty_like(lam), np.empty_like(mu), np.empty_like(xi)
    keep = [math.isfinite(rate) for rate in latest]
    for _ in range(config.max_iters):
        if not any(keep):
            break
        if not all(keep):
            leaving = np.logical_not(keep)
            for out, x in zip(final, (p, lam, mu, xi)):
                out[live[leaving]] = x[leaving]
            live, p, lam, mu, xi, live_total, live_noise = (
                x[keep] for x in (live, p, lam, mu, xi, live_total, live_noise))
        c, e = _mmse_terms(lg, p, xi)  # the weights are a = 1/e
        p, lam, mu, _, _ = _update_p_rows(lg, c, 1.0 / e, eta, live_total, live_noise, lam)
        xi = interference_vector(lg, p, live_noise)
        keep = []
        for row, rate, used in zip(live.tolist(), sum_rates(lg, p, xi).tolist(),
                                   p.sum(axis=-1).tolist()):
            stall[row] = stall[row] + 1 if rate - latest[row] < STAGNATION_TOL else 0
            latest[row] = rate
            traces[row].append(rate)
            budget_traces[row].append(used)
            keep.append(stall[row] < STAGNATION_PATIENCE)
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
