"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive quantities from first principles (exhaustive
search, explicit term enumeration) instead of calling the iterative code
paths they are used to judge.

The per-budget references at the end are the one-SNR-point-at-a-time power
allocation, baselines and trial loop that the SNR-batched code replaced,
kept here on 1-D arrays so that they share no arithmetic with it; the
batched code must reproduce them bit for bit.

The link-layer references (`reference_zf_columns`,
`reference_top_left_singular_vector`, `reference_verify_order`) are the
ZF build that always ran the SVD condition check, the power iteration
without its one-row closed form and the order check that evaluated
one-member beams; the current code must match them bit for bit.
`reference_noma_link` builds the NOMA link from them and the front-end
references, and `reference_trial` and the baseline references take their ZF
from them, so a trial's link shares no code with `runner.build_noma_link`
past the beam selection.

The front-end references (`reference_sample_realization`,
`reference_group_users`, `reference_equivalent_channel_svd`,
`reference_claim_beams`) are the channel draw that ran the complex exp on
every antenna row, the per-beam grouping loop, the one-beam-at-a-time SVD
equivalent channel and the greedy beam claim that scanned the free beams for
every user; the current code must match them bit for bit.

`reference_payload` is the JSON document `runner.sweep` wrote when it padded
the convergence traces with a helper of its own; `sweep` must write it byte
for byte.
"""

import math
from functools import lru_cache

import numpy as np

from beamspace_noma import (BeamGrouping, ChannelRealization, DualSolution,
                            ExperimentRecord, PowerAllocation, Precoder, RateReport,
                            equivalent_channel_strongest, energy_efficiency, link_gains,
                            sample_realization, select_beams, to_beamspace, trial_rng)
from beamspace_noma.channel import DIRECTION_RANGE
from beamspace_noma.power import (BUDGET_TOL, OUTER_CAP, RATE_SLACK, STAGNATION_PATIENCE,
                                  STAGNATION_TOL, VIOLATION_TOL)
from beamspace_noma.precoding import COND_LIMIT, PrecodingError
from beamspace_noma.runner import DROP_ERRORS, _lens


@lru_cache(maxsize=4)
def _simplex_grid(steps):
    """The integer points (i, j, steps - i - j) with i, j >= 0, ordered by i
    and then j; built once per `steps` and shared read-only."""
    counts = np.arange(steps + 1, 0, -1)  # the j values each i admits
    i = np.repeat(np.arange(steps + 1), counts)
    j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    grid = np.column_stack([i, j, steps - i - j])
    grid.flags.writeable = False
    return grid


def simplex_grid_optimum(grouping, precoder, budget, steps=1000):
    """Best sum rate over the exhaustive grid on the budget face
    {p >= 0, sum p = P} with spacing P/steps. Three-user instances only."""
    lg = link_gains(grouping, precoder)
    if len(lg.users) != 3:
        raise ValueError("grid oracle is written for 3-user instances")
    points = _simplex_grid(steps) * (budget.total_power_mw / steps)
    own, gains, beam_of = lg.own_gain, lg.gains, lg.beam_of
    beam_power = np.zeros((len(points), lg.n_rf))
    for n in range(lg.n_rf):
        beam_power[:, n] = points[:, beam_of == n].sum(axis=1)
    inter = beam_power @ gains.T - beam_power[:, beam_of] * own
    intra = np.zeros_like(points)
    for n in range(lg.n_rf):
        s = beam_of == n
        cum = np.cumsum(points[:, s], axis=1)
        intra[:, s] = cum - points[:, s]
    xi = own * intra + inter + budget.noise_mw
    rates = np.log2(1.0 + own * points / xi).sum(axis=1)
    return float(rates.max())


def sequential_solve_budget(numer, denom_base, total_mw):
    """The one-multiplier-at-a-time budget bisection `power._bisect`; the
    batched root `power._solve_budgets` must return the same bits."""
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


# ---------------------------------------------------------------------------
# per-budget references
# ---------------------------------------------------------------------------

def _powers_at(numer, denom_base, lam):
    denom = denom_base + lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.where(numer > 0, (numer / denom) ** 2, 0.0)
    return np.where((denom <= 0) & (numer > 0), np.inf, p)


def _seg_excl_cumsum(x, seg_start):
    cum = np.zeros(len(x) + 1)
    np.cumsum(x, out=cum[1:])
    return cum[1:] - x - cum[seg_start]


def interference_vector(lg, powers, noise_mw):
    powers = np.asarray(powers, dtype=float)
    beam_power = np.bincount(lg.beam_of, weights=powers, minlength=lg.n_rf)
    inter = lg.gains @ beam_power - lg.own_gain * beam_power[lg.beam_of]
    return lg.own_gain * _seg_excl_cumsum(powers, lg.beam_start) + inter + noise_mw


def rate_report(lg, powers, xi):
    gamma = lg.own_gain * powers / xi
    rates = np.log2(1.0 + gamma)
    return RateReport(users=lg.users, sinr=gamma, rates=rates,
                      sum_rate=float(rates.sum()), n_rf=lg.n_rf)


def _stationary_denominator(lg, c, a, mu, eta):
    weights = a * np.abs(c) ** 2
    colsum = weights @ lg.gains
    own_w = weights * lg.own_gain
    base = colsum[lg.beam_of] - _seg_excl_cumsum(own_w, lg.beam_start)
    if not np.any(mu):
        return base
    colmu = mu @ lg.gains
    own_mu = mu * lg.own_gain
    incl = _seg_excl_cumsum(own_mu, lg.beam_start) + own_mu
    return base + eta * (colmu[lg.beam_of] - incl) - own_mu


def sequential_update_p(lg, c, a, min_rate, budget):
    """The KKT power step with its min-rate dual ascent for one budget."""
    eta = 2.0 ** min_rate - 1.0
    numer = a * np.real(c * lg.own)
    mu = np.zeros_like(numer)
    step = 1.0 / np.maximum(lg.own_gain, 1e-300)
    prev_theta = None
    best = None
    rounds = 0
    for rounds in range(1, OUTER_CAP + 1):
        denom_base = _stationary_denominator(lg, c, a, mu, eta)
        lam, p = sequential_solve_budget(numer, denom_base, budget.total_power_mw)
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


def sequential_allocate(grouping, precoder, budget, max_iters, min_rate):
    """The c/a/p iteration for one budget, from the equal power split."""
    lg = link_gains(grouping, precoder)
    k = len(lg.users)
    p = np.full(k, budget.total_power_mw / k)
    trace, budget_trace = [], []
    lam, mu = 0.0, np.zeros(k)
    xi = interference_vector(lg, p, budget.noise_mw)
    report = rate_report(lg, p, xi)
    stall = 0
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        c = np.conj(np.sqrt(p) * lg.own) / (p * lg.own_gain + xi)
        a = 1.0 / (xi / (p * lg.own_gain + xi))
        p, duals = sequential_update_p(lg, c, a, min_rate, budget)
        lam, mu = duals.budget_multiplier, duals.rate_multipliers
        prev = report.sum_rate
        xi = interference_vector(lg, p, budget.noise_mw)
        report = rate_report(lg, p, xi)
        trace.append(report.sum_rate)
        budget_trace.append(float(p.sum()))
        stall = stall + 1 if report.sum_rate - prev < STAGNATION_TOL else 0
        if stall >= STAGNATION_PATIENCE:
            break
    feasible = bool(np.all(report.rates >= min_rate - RATE_SLACK)
                    and p.sum() <= budget.total_power_mw + 1e-9)
    return PowerAllocation(powers=p, trace=trace, budget_trace=budget_trace,
                           budget_multiplier=lam, rate_multipliers=mu, feasible=feasible,
                           iterations_used=iterations, report=report)


def reference_fully_digital_zf(spatial, budget):
    n, k = spatial.shape
    w, _ = reference_zf_columns(spatial, "channel")
    g = np.abs(spatial.conj().T @ w) ** 2
    per_user = budget.total_power_mw / k
    desired = np.diag(g) * per_user
    interf = (g.sum(axis=1) - np.diag(g)) * per_user + budget.noise_mw
    gamma = desired / interf
    rates = np.log2(1.0 + gamma)
    return RateReport(users=np.arange(k), sinr=gamma, rates=rates,
                      sum_rate=float(rates.sum()), n_rf=n)


def reference_claim_beams(beamspace):
    """Greedy single-user beam claim scanning the free beams for every user:
    {user: beam} in claim order."""
    n, k = beamspace.shape
    norms = np.linalg.norm(beamspace, axis=0)
    mags = np.abs(beamspace)
    claimed = {}
    free = np.ones(n, dtype=bool)
    for user in np.lexsort((np.arange(k), -norms)):
        best = int(np.argmax(np.where(free, mags[:, user], -1.0)))
        claimed[user] = best
        free[best] = False
    return claimed


def reference_beamspace_mimo(beamspace, budget):
    k = beamspace.shape[1]
    claimed = reference_claim_beams(beamspace)
    selected = np.array(sorted(claimed.values()))
    beam_rank = {beam: i for i, beam in enumerate(selected)}
    beams = [np.empty(0, dtype=int)] * k
    for user, beam in claimed.items():
        beams[beam_rank[beam]] = np.array([user])
    grouping = BeamGrouping(beams=beams, reduced=beamspace[selected, :], selected=selected)
    lg = link_gains(grouping, reference_zf_precoder(equivalent_channel_strongest(grouping)))
    powers = np.full(k, budget.total_power_mw / k)
    return rate_report(lg, powers, interference_vector(lg, powers, budget.noise_mw))


def reference_mimo_oma(grouping, precoder, budget):
    lg = link_gains(grouping, precoder)
    per_beam = budget.total_power_mw / lg.n_rf
    inter = (lg.gains.sum(axis=1) - lg.own_gain) * per_beam
    xi = inter + budget.noise_mw
    gamma = lg.own_gain * per_beam / xi
    share = 1.0 / np.array([len(grouping.beams[b]) for b in lg.beam_of])
    rates = share * np.log2(1.0 + gamma)
    return RateReport(users=lg.users, sinr=gamma, rates=rates,
                      sum_rate=float(rates.sum()), n_rf=lg.n_rf)


def _drop_reason(sum_rate, trace=()):
    """Why a scheme's result is a drop: a non-finite sum rate, or for NOMA a
    non-finite iterate, reported at the first one; "" keeps it."""
    if not math.isfinite(sum_rate):
        return f"non-finite sum rate {sum_rate!r}"
    for t, rate in enumerate(trace, 1):
        if not math.isfinite(rate):
            return f"non-finite sum rate {rate!r} at iteration {t}"
    return ""


def reference_trial(config, trial_index):
    """`runner.run_trial` as a loop over SNR points, one budget at a time,
    with its drop rule: a DROP_ERRORS failure, a non-finite sum rate or a
    non-finite NOMA iterate drops the record."""
    realization = sample_realization(config.channel_params(), trial_rng(config.seed, trial_index))
    beamspace = to_beamspace(realization.matrix, _lens(config.n_antennas))
    noma_link, noma_error = None, None
    if "noma" in config.schemes or "oma" in config.schemes:
        try:
            noma_link = reference_noma_link(beamspace, config.variant)
        except DROP_ERRORS as err:
            noma_error = err
    records = []
    for snr_db in config.snr_db:
        budget = config.budget(snr_db)
        for scheme in config.schemes:
            variant = config.variant if scheme in ("noma", "oma") else "na"
            rec = ExperimentRecord(trial=trial_index, seed=config.seed, snr_db=snr_db,
                                   scheme=scheme, variant=variant, k=config.n_users, n_rf=0,
                                   sum_rate=math.nan, energy_eff=math.nan)
            records.append(rec)
            try:
                if scheme in ("noma", "oma") and noma_error is not None:
                    raise noma_error
                if scheme == "noma":
                    alloc = sequential_allocate(*noma_link, budget, config.max_iters,
                                                config.min_rate)
                    result = alloc.report
                elif scheme == "oma":
                    result = reference_mimo_oma(*noma_link, budget)
                elif scheme == "beamspace_mimo":
                    result = reference_beamspace_mimo(beamspace, budget)
                else:
                    result = reference_fully_digital_zf(realization.matrix, budget)
            except DROP_ERRORS as err:
                rec.dropped, rec.drop_reason = True, str(err)
                continue
            reason = _drop_reason(result.sum_rate, alloc.trace if scheme == "noma" else ())
            if reason:
                rec.dropped, rec.drop_reason = True, reason
                continue
            rec.n_rf, rec.sum_rate = result.n_rf, result.sum_rate
            if scheme == "noma":
                rec.feasible = alloc.feasible
                rec.trace = list(alloc.trace)
                rec.user_rates = [float(r) for r in alloc.report.rates_by_user]
            rec.energy_eff = energy_efficiency(rec.sum_rate, rec.n_rf, budget,
                                               config.power_model())
    return records


def reference_zf_columns(h, what):
    """ZF columns with the SVD condition check run on every channel."""
    cond = float(np.linalg.cond(h))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise PrecodingError(f"{what} condition {cond:.3e} exceeds {COND_LIMIT:.0e}",
                             condition=cond)
    w_raw = h @ np.linalg.inv(h.conj().T @ h)
    residual = float(np.max(np.abs(h.conj().T @ w_raw - np.eye(h.shape[1]))))
    return w_raw / np.linalg.norm(w_raw, axis=0, keepdims=True), residual


def reference_zf_precoder(equivalent):
    """`zf_precoder` through `reference_zf_columns`."""
    if not np.isfinite(equivalent).all():
        raise PrecodingError("equivalent channel has non-finite entries",
                             condition=float("nan"))
    w, residual = reference_zf_columns(equivalent, "equivalent channel")
    return Precoder(matrix=w, zf_residual=residual)


def reference_noma_link(beamspace, variant):
    """`runner.build_noma_link` from the reference grouping, SVD equivalent
    channel, ZF and order check: the violating beams re-sorted once and the
    precoder rebuilt once."""
    def precoder_of(grouping):
        if variant == "svd":
            return reference_zf_precoder(reference_equivalent_channel_svd(grouping))
        return reference_zf_precoder(grouping.reduced[:, [m[0] for m in grouping.beams]])

    grouping = reference_group_users(select_beams(beamspace), beamspace)
    precoder = precoder_of(grouping)
    repairs = reference_verify_order(grouping, precoder)
    if repairs:
        beams = [members[repairs[n]] if n in repairs else members
                 for n, members in enumerate(grouping.beams)]
        grouping = BeamGrouping(beams=beams, reduced=grouping.reduced,
                                selected=grouping.selected)
        precoder = precoder_of(grouping)
    return grouping, precoder


def reference_top_left_singular_vector(mat, tol=1e-12, max_iters=10_000):
    """Power iteration on M M^H for every shape, one-row matrices included."""
    mat = np.atleast_2d(np.asarray(mat))
    scale = np.linalg.norm(mat)
    if scale == 0:
        raise ValueError("zero matrix has no dominant singular vector")
    b = mat @ mat.conj().T
    r = b.shape[0]
    x = np.ones(r) / np.sqrt(r)
    best_x, best_res, lam = x, np.inf, 0.0
    stall, restarted = 0, False
    for _ in range(max_iters):
        y = b @ x
        lam = float(np.real(x.conj() @ y))
        res = float(np.linalg.norm(y - lam * x))
        if res < best_res:
            best_x, best_res, stall = x, res, 0
        else:
            stall += 1
        if res <= tol * scale**2:
            best_x, best_res = x, res
            break
        if stall > 50 and not restarted:
            rng = np.random.default_rng(0)
            x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            x /= np.linalg.norm(x)
            stall, restarted = 0, True
            continue
        ny = np.linalg.norm(y)
        if ny == 0:
            rng = np.random.default_rng(1)
            x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            x /= np.linalg.norm(x)
            continue
        x = y / ny
    else:
        x = best_x
        lam = float(np.real(x.conj() @ (b @ x)))
    pivot = np.argmax(np.abs(x))
    phase = x[pivot] / abs(x[pivot])
    u = np.asarray(x / phase, dtype=complex)
    return u, float(np.sqrt(max(lam, 0.0)))


def reference_verify_order(grouping, precoder):
    """SIC-order check that evaluates the gains and the permutation of every
    beam, one-member ones too, and keeps those of the violating beams."""
    repairs = {}
    for n, members in enumerate(grouping.beams):
        g = np.abs(grouping.reduced[:, members].conj().T @ precoder.matrix[:, n])
        perm = np.lexsort((members, -g))
        if np.any(np.diff(g) > 0):
            repairs[n] = perm
    return repairs


def reference_sample_realization(params, rng):
    """Channel draw with the complex exp evaluated on every antenna row."""
    k, n_paths = params.n_users, params.n_nlos + 1
    directions = rng.uniform(*DIRECTION_RANGE, size=(k, n_paths))
    gains = np.empty((k, n_paths), dtype=complex)
    scale = np.sqrt(params.los_var / 2.0)
    gains[:, 0] = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if params.n_nlos:
        scale = np.sqrt(params.nlos_var / 2.0)
        size = (k, params.n_nlos)
        gains[:, 1:] = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    n = params.n_antennas
    m = np.arange(n) - (n - 1) / 2.0
    steer = np.exp(-2j * np.pi * np.outer(m, directions.ravel())) / np.sqrt(n)
    h = np.einsum("nkl,kl->nk", steer.reshape(n, k, n_paths), gains)
    return ChannelRealization(matrix=h, path_gains=gains, path_directions=directions)


def reference_group_users(assignment, beamspace):
    """Per-beam grouping loop: members of each selected beam, sorted by
    decreasing reduced-channel norm with ties to the lower user index."""
    reduced = beamspace[assignment.selected, :]
    norms = np.linalg.norm(reduced, axis=0)
    beams = []
    for beam in assignment.selected:
        members = np.where(assignment.beam_for_user == beam)[0]
        beams.append(members[np.lexsort((members, -norms[members]))])
    return BeamGrouping(beams=beams, reduced=reduced, selected=assignment.selected)


def reference_equivalent_channel_svd(grouping):
    """SVD equivalent channel built one beam at a time by the power iteration."""
    if any(len(members) == 0 for members in grouping.beams):
        raise ValueError("every beam must contain at least one user")
    cols = []
    for n in range(grouping.n_rf):
        h_n = grouping.beam_channels(n)
        u, _ = reference_top_left_singular_vector(h_n.T)
        cols.append(h_n @ u.conj())
    return np.stack(cols, axis=1)


def _pad_trace(trace, length):
    return trace + [trace[-1]] * (length - len(trace))


def reference_payload(config, mode, records, summary):
    """The JSON payload of a `sweep` run in `mode` over its sorted records."""
    payload = {
        "mode": mode,
        "seed": config.seed,
        "trials": config.trials,
        "variant": config.variant,
        "summary": summary,
    }
    if mode == "convergence":
        traces = [_pad_trace(r.trace, config.max_iters) for r in records
                  if r.scheme == "noma" and not r.dropped and r.trace]
        if traces:
            payload["convergence_trace"] = [float(v) for v in np.mean(traces, axis=0)]
    if mode == "fairness":
        payload["min_rate"] = config.min_rate
        payload["fairness"] = [
            {"trial": r.trial, "snr_db": r.snr_db, "feasible": r.feasible,
             "user_rates": r.user_rates}
            for r in records if r.scheme == "noma" and not r.dropped
        ]
    return payload
