"""Comparison schemes: fully digital ZF, single-user-per-beam beamspace MIMO,
and OMA sharing on the NOMA grouping. All baselines use equal power splits.

Each scheme has a batch form taking one budget per SNR point: the precoder
and gains, which do not depend on the noise, are built once and the rates of
all budgets are rows of one array; `mimo_oma_batch` takes the NOMA link's
`LinkGains`. Like the NOMA allocation, every scheme yields one
`rates.RateReport` per budget, built by `rates.reports`. The one-budget views
serve the acceptance suite and the benchmark's tracer, which wraps them by
name; `mimo_oma` builds the gains.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder, equivalent_channel_strongest, zf_columns, zf_precoder
from .rates import (LinkBudget, LinkGains, RateReport, budget_arrays, interference_vector,
                    link_gains, rate_reports, reports)


def fully_digital_zf(spatial: np.ndarray, budget: LinkBudget) -> RateReport:
    """One-budget view of `fully_digital_zf_batch`."""
    return fully_digital_zf_batch(spatial, [budget])[0]


def fully_digital_zf_batch(spatial: np.ndarray,
                           budgets: Sequence[LinkBudget]) -> list[RateReport]:
    """ZF on the spatial channels with one RF chain per antenna and equal
    power P/K per user, one report per budget, in user order. Residual cross
    terms are kept in the SINR even though ZF drives them to numerical zero.
    The precoder and its gains are built once; only the power split and the
    noise differ between budgets."""
    n, k = spatial.shape
    if k > n:
        raise ValueError(f"fully digital ZF needs K <= N, got K={k}, N={n}")
    w, _ = zf_columns(spatial, "channel")
    g = np.abs(spatial.conj().T @ w) ** 2  # row k = |h_k^H W|^2
    own = np.diag(g)
    total, noise = budget_arrays(budgets)
    per_user = total[:, None] / k
    return reports(np.arange(k), n, own * per_user,
                   (g.sum(axis=1) - own) * per_user + noise[:, None])


def beamspace_mimo_single_user(beamspace: np.ndarray, budget: LinkBudget) -> RateReport:
    """One-budget view of `beamspace_mimo_single_user_batch`."""
    return beamspace_mimo_single_user_batch(beamspace, [budget])[0]


def _claim_beams(beamspace: np.ndarray) -> np.ndarray:
    """Each user's own beam for single-user beamspace MIMO (needs K <= N).

    Users claim greedily in decreasing channel-norm order (ties to the lower
    user index), each taking its strongest still-unclaimed beam (ties to the
    lower beam). A user whose first argmax beam is free takes it directly;
    only a conflict scans the free beams.
    """
    n, k = beamspace.shape
    norms = np.linalg.norm(beamspace, axis=0)
    mags = np.abs(beamspace)
    first = mags.argmax(axis=0).tolist()
    claim = np.empty(k, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    for user in np.lexsort((np.arange(k), -norms)).tolist():
        best = first[user]
        if not free[best]:
            best = int(np.argmax(np.where(free, mags[:, user], -1.0)))
        claim[user] = best
        free[best] = False
    return claim


def beamspace_mimo_single_user_batch(beamspace: np.ndarray,
                                     budgets: Sequence[LinkBudget]) -> list[RateReport]:
    """Existing beamspace MIMO: every user gets its own beam (N_RF = K).

    Users claim beams greedily (`_claim_beams`), then ZF runs on the K x K
    reduced matrix with equal power per user. The claim, the precoder and
    the link gains are built once; each budget is one row of the rate
    computation.
    """
    n, k = beamspace.shape
    if k > n:
        raise ValueError(f"single-user beam assignment needs K <= N, got K={k}, N={n}")
    claim = _claim_beams(beamspace)
    selected = np.sort(claim)
    beams = [np.array([user]) for user in np.argsort(claim)]
    grouping = BeamGrouping(beams=beams, reduced=beamspace[selected, :],
                            selected=selected)
    lg = link_gains(grouping, zf_precoder(equivalent_channel_strongest(grouping)))
    total, noise = budget_arrays(budgets)
    powers = np.repeat(total[:, None] / k, k, axis=1)
    return rate_reports(lg, powers, interference_vector(lg, powers, noise))


def mimo_oma(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget) -> RateReport:
    """One-budget view of `mimo_oma_batch`."""
    return mimo_oma_batch(link_gains(grouping, precoder), [budget])[0]


def mimo_oma_batch(lg: LinkGains, budgets: Sequence[LinkBudget]) -> list[RateReport]:
    """Orthogonal sharing on the NOMA grouping: conflicting users split their
    beam's time/frequency evenly, each enjoying the full per-beam power
    P/N_RF during its share; other beams always transmit at P/N_RF. One
    report per budget."""
    total, noise = budget_arrays(budgets)
    per_beam = total[:, None] / lg.n_rf
    xi = (lg.gains.sum(axis=1) - lg.own_gain) * per_beam + noise[:, None]
    share = 1.0 / np.bincount(lg.beam_of)[lg.beam_of]
    return reports(lg.users, lg.n_rf, lg.own_gain * per_beam, xi, share=share)
