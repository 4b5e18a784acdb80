"""Comparison schemes: fully digital ZF, single-user-per-beam beamspace MIMO,
and OMA sharing on the NOMA grouping. All baselines use equal power splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder, equivalent_channel_strongest, zf_columns, zf_precoder
from .rates import LinkBudget, link_gains, sum_rate


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
    """ZF on the spatial channels with one RF chain per antenna and equal
    power P/K per user. Residual cross terms are kept in the SINR even though
    ZF drives them to numerical zero."""
    n, k = spatial.shape
    if k > n:
        raise ValueError(f"fully digital ZF needs K <= N, got K={k}, N={n}")
    w, _ = zf_columns(spatial, "channel")
    heff = spatial.conj().T @ w            # (K, K), row k = h_k^H W
    g = np.abs(heff) ** 2
    per_user = budget.total_power_mw / k
    desired = np.diag(g) * per_user
    interf = (g.sum(axis=1) - np.diag(g)) * per_user + budget.noise_mw
    rates = np.log2(1.0 + desired / interf)
    return SchemeResult(scheme="fully_digital", sum_rate=float(rates.sum()),
                        n_rf=n, served=k, rates=rates, users=np.arange(k))


def beamspace_mimo_single_user(beamspace: np.ndarray, budget: LinkBudget) -> SchemeResult:
    """Existing beamspace MIMO: every user gets its own beam (N_RF = K).

    Users claim beams greedily in decreasing channel-norm order, each taking
    its strongest still-unclaimed beam, then ZF runs on the K x K reduced
    matrix with equal power per user.
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
    precoder = zf_precoder(equivalent_channel_strongest(grouping))
    powers = np.full(k, budget.total_power_mw / k)
    report = sum_rate(grouping, precoder, powers, budget)
    return SchemeResult(scheme="beamspace_mimo", sum_rate=report.sum_rate,
                        n_rf=k, served=k, rates=report.rates, users=report.users)


def mimo_oma(grouping: BeamGrouping, precoder: Precoder, budget: LinkBudget) -> SchemeResult:
    """Orthogonal sharing on the NOMA grouping: conflicting users split their
    beam's time/frequency evenly, each enjoying the full per-beam power
    P/N_RF during its share; other beams always transmit at P/N_RF."""
    lg = link_gains(grouping, precoder)
    per_beam = budget.total_power_mw / lg.n_rf
    inter = (lg.gains.sum(axis=1) - lg.own_gain) * per_beam
    gamma = lg.own_gain * per_beam / (inter + budget.noise_mw)
    share = 1.0 / np.array([len(grouping.beams[b]) for b in lg.beam_of])
    rates = share * np.log2(1.0 + gamma)
    return SchemeResult(scheme="oma", sum_rate=float(rates.sum()), n_rf=lg.n_rf,
                        served=len(lg.users), rates=rates, users=lg.users)
