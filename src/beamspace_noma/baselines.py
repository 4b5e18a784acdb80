"""Comparison schemes: fully digital ZF, single-user-per-beam beamspace MIMO,
and OMA sharing on the NOMA grouping. All baselines use equal power splits.

Each scheme has a batch form taking one budget per SNR point: the precoder
and gains, which do not depend on the noise, are built once and the rates of
all budgets are rows of one array. The one-budget functions are views of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder, equivalent_channel_strongest, zf_columns, zf_precoder
from .rates import (LinkBudget, LinkGains, budget_arrays, interference_vector, link_gains,
                    rate_reports)


@dataclass
class SchemeResult:
    """Outcome of one scheme on one realization."""

    scheme: str
    sum_rate: float
    n_rf: int
    served: int
    rates: np.ndarray  # per served user, scheme-specific order
    users: np.ndarray  # user ids matching `rates`


def fully_digital_zf(spatial: np.ndarray, budget: LinkBudget) -> SchemeResult:
    """One-budget view of `fully_digital_zf_batch`."""
    return fully_digital_zf_batch(spatial, [budget])[0]


def fully_digital_zf_batch(spatial: np.ndarray,
                           budgets: Sequence[LinkBudget]) -> list[SchemeResult]:
    """ZF on the spatial channels with one RF chain per antenna and equal
    power P/K per user, one result per budget. Residual cross terms are kept
    in the SINR even though ZF drives them to numerical zero. The precoder
    and its gains are built once; only the power split and the noise differ
    between budgets."""
    n, k = spatial.shape
    if k > n:
        raise ValueError(f"fully digital ZF needs K <= N, got K={k}, N={n}")
    w, _ = zf_columns(spatial, "channel")
    g = np.abs(spatial.conj().T @ w) ** 2  # row k = |h_k^H W|^2
    own = np.diag(g)
    cross = g.sum(axis=1) - own
    total, noise = budget_arrays(budgets)
    per_user = total[:, None] / k
    rates = np.log2(1.0 + own * per_user / (cross * per_user + noise[:, None]))
    return [SchemeResult(scheme="fully_digital", sum_rate=total_rate, n_rf=n, served=k,
                         rates=r, users=np.arange(k))
            for r, total_rate in zip(rates, rates.sum(axis=-1).tolist())]


def beamspace_mimo_single_user(beamspace: np.ndarray, budget: LinkBudget) -> SchemeResult:
    """One-budget view of `beamspace_mimo_single_user_batch`."""
    return beamspace_mimo_single_user_batch(beamspace, [budget])[0]


def beamspace_mimo_single_user_batch(beamspace: np.ndarray,
                                     budgets: Sequence[LinkBudget]) -> list[SchemeResult]:
    """Existing beamspace MIMO: every user gets its own beam (N_RF = K).

    Users claim beams greedily in decreasing channel-norm order, each taking
    its strongest still-unclaimed beam, then ZF runs on the K x K reduced
    matrix with equal power per user. The claim, the precoder and the link
    gains are built once; each budget is one row of the rate computation.
    """
    n, k = beamspace.shape
    if k > n:
        raise ValueError(f"single-user beam assignment needs K <= N, got K={k}, N={n}")
    norms = np.linalg.norm(beamspace, axis=0)
    order = np.lexsort((np.arange(k), -norms))
    mags = np.abs(beamspace)
    claimed: dict[int, int] = {}
    free = np.ones(n, dtype=bool)
    for user in order:
        best = int(np.argmax(np.where(free, mags[:, user], -1.0)))
        claimed[user] = best
        free[best] = False
    selected = np.array(sorted(claimed.values()))
    beam_rank = {beam: i for i, beam in enumerate(selected)}
    beams = [np.empty(0, dtype=int)] * k
    for user, beam in claimed.items():
        beams[beam_rank[beam]] = np.array([user])
    grouping = BeamGrouping(beams=beams, reduced=beamspace[selected, :],
                            selected=selected)
    lg = link_gains(grouping, zf_precoder(equivalent_channel_strongest(grouping)))
    total, noise = budget_arrays(budgets)
    powers = np.repeat(total[:, None] / k, k, axis=1)
    reports = rate_reports(lg, powers, interference_vector(lg, powers, noise))
    return [SchemeResult(scheme="beamspace_mimo", sum_rate=report.sum_rate, n_rf=k,
                         served=k, rates=report.rates, users=report.users)
            for report in reports]


def mimo_oma(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget) -> SchemeResult:
    """One-budget view of `mimo_oma_batch`."""
    return mimo_oma_batch(grouping, precoder, [budget])[0]


def mimo_oma_batch(grouping: BeamGrouping, precoder: Precoder, budgets: Sequence[LinkBudget],
                   lg: LinkGains | None = None) -> list[SchemeResult]:
    """Orthogonal sharing on the NOMA grouping: conflicting users split their
    beam's time/frequency evenly, each enjoying the full per-beam power
    P/N_RF during its share; other beams always transmit at P/N_RF. One
    result per budget; `lg` reuses the NOMA link's gains."""
    lg = lg or link_gains(grouping, precoder)
    total, noise = budget_arrays(budgets)
    per_beam = total[:, None] / lg.n_rf
    inter = (lg.gains.sum(axis=1) - lg.own_gain) * per_beam
    gamma = lg.own_gain * per_beam / (inter + noise[:, None])
    share = 1.0 / np.array([len(grouping.beams[b]) for b in lg.beam_of])
    rates = share * np.log2(1.0 + gamma)
    return [SchemeResult(scheme="oma", sum_rate=total_rate, n_rf=lg.n_rf,
                         served=len(lg.users), rates=r, users=lg.users)
            for r, total_rate in zip(rates, rates.sum(axis=-1).tolist())]
