"""Per-user SINR, achievable rates, sum spectral efficiency, energy efficiency.

Rates are analytic: the m-th user of a beam decodes and cancels users ranked
after it, so its residual interference is the earlier-ranked users of its own
beam plus every other beam's total power, plus noise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .beams import BeamGrouping
from .precoding import Precoder

MW_PER_W = 1000.0


@dataclass
class LinkBudget:
    """Noise variance and transmit power budget, both in mW."""

    noise_mw: float
    total_power_mw: float

    def __post_init__(self):
        if self.noise_mw <= 0:
            raise ValueError(f"noise power must be > 0, got {self.noise_mw}")
        if self.total_power_mw <= 0:
            raise ValueError(f"power budget must be > 0, got {self.total_power_mw}")

    @classmethod
    def from_snr(cls, total_power_mw: float, snr_db: float, n_users: int) -> "LinkBudget":
        """Noise from the per-user transmit-power SNR convention:
        sigma^2 = (P / K) / SNR_linear."""
        if n_users < 1:
            raise ValueError(f"need at least 1 user, got {n_users}")
        return cls(noise_mw=(total_power_mw / n_users) / 10.0 ** (snr_db / 10.0),
                   total_power_mw=total_power_mw)


@dataclass
class PowerModel:
    """Hardware power draw entering the energy-efficiency denominator (mW)."""

    rf_chain_mw: float = 300.0
    switch_mw: float = 5.0
    baseband_mw: float = 200.0

    def __post_init__(self):
        for name in ("rf_chain_mw", "switch_mw", "baseband_mw"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"power-model constant {name} must be finite and >= 0, "
                                 f"got {value}")


@dataclass
class RateReport:
    """Per-user link metrics in the grouping's flat (beam-major, SIC) order."""

    users: np.ndarray         # original user indices, flat order
    sinr: np.ndarray
    interference: np.ndarray  # denominator terms incl. noise
    rates: np.ndarray         # bps/Hz
    sum_rate: float
    n_rf: int

    @property
    def rates_by_user(self) -> np.ndarray:
        """Rates re-indexed by original user id."""
        out = np.empty_like(self.rates)
        out[self.users] = self.rates
        return out


@dataclass
class LinkGains:
    """Precomputed |h_{m,n}^H w_j| structure shared by rate and power code.

    Flat user order is beam-major with SIC rank ascending inside each beam.
    """

    heff: np.ndarray      # (K, N_RF) complex, row u = h_u^H W
    gains: np.ndarray     # |heff|^2
    own: np.ndarray       # (K,) complex own-beam gain h_u^H w_{beam(u)}
    own_gain: np.ndarray  # (K,) |own|^2, read from gains
    beam_of: np.ndarray   # (K,) int
    beam_start: np.ndarray  # (K,) int flat index of the first user of beam_of
    beam_slices: list[slice]
    users: np.ndarray     # (K,) original user ids in flat order
    n_rf: int


def link_gains(grouping: BeamGrouping, precoder: Precoder) -> LinkGains:
    """Build the effective-gain structure for one grouping/precoder pair."""
    users = grouping.users_flat
    heff = grouping.reduced[:, users].conj().T @ precoder.matrix
    gains = np.abs(heff) ** 2
    sizes = [len(m) for m in grouping.beams]
    beam_of = np.repeat(np.arange(grouping.n_rf), sizes)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    slices = [slice(bounds[i], bounds[i + 1]) for i in range(grouping.n_rf)]
    rows = np.arange(len(users))
    return LinkGains(heff=heff, gains=gains, own=heff[rows, beam_of],
                     own_gain=gains[rows, beam_of], beam_of=beam_of,
                     beam_start=bounds[beam_of], beam_slices=slices, users=users,
                     n_rf=grouping.n_rf)


def budget_arrays(budgets: Sequence[LinkBudget]) -> tuple[np.ndarray, np.ndarray]:
    """(S,) total transmit powers and (S,) noise powers of S budgets."""
    return (np.array([b.total_power_mw for b in budgets], dtype=float),
            np.array([b.noise_mw for b in budgets], dtype=float))


def seg_excl_cumsum(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums along the last axis of x restarting at each
    segment boundary; seg_start[i] is the index of the first element of
    element i's segment.

    Element i gets cumsum(x)[i] - x[i] - cumsum(x)[seg_start[i] - 1], the last
    term read as exactly 0.0 on the first segment.
    """
    cum = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    inclusive = x.cumsum(axis=-1, out=cum[..., 1:])
    return inclusive - x - cum.take(seg_start, axis=-1)


def interference_vector(lg: LinkGains, powers: np.ndarray, noise_mw) -> np.ndarray:
    """All users' post-SIC interference-plus-noise terms at once.

    powers is (K,) with a scalar noise_mw, or (S, K) with one noise power per
    row. Each row's beam powers are one bincount over row-offset bins and its
    cross-beam terms one gemv of a stacked matmul, so a row's result has the
    same bits as the (K,) call on that row alone.
    """
    powers = np.asarray(powers, dtype=float)
    rows = powers.reshape(-1, powers.shape[-1])
    n_rows = len(rows)
    bins = (lg.beam_of + np.arange(0, n_rows * lg.n_rf, lg.n_rf)[:, None]).ravel()
    beam_power = np.bincount(bins, weights=rows.ravel(),
                             minlength=n_rows * lg.n_rf).reshape(n_rows, lg.n_rf)
    inter = (np.matmul(lg.gains, beam_power[:, :, None])[:, :, 0]
             - lg.own_gain * beam_power.take(lg.beam_of, axis=-1))
    xi = (lg.own_gain * seg_excl_cumsum(rows, lg.beam_start) + inter
          + np.asarray(noise_mw)[..., None])
    return xi.reshape(powers.shape)


def _sinr_and_rates(lg: LinkGains, powers: np.ndarray, xi: np.ndarray):
    gamma = lg.own_gain * powers / xi
    return gamma, np.log2(1.0 + gamma)


def sum_rates(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The sum rates of `rate_reports`, bit for bit, without building reports:
    (S,) for (S, K) powers and their interference-plus-noise rows xi."""
    return _sinr_and_rates(lg, powers, xi)[1].sum(axis=-1)


def rate_reports(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> list[RateReport]:
    """One report per row of (S, K) powers and their interference-plus-noise
    rows xi = interference_vector(lg, powers, noise)."""
    gamma, rates = _sinr_and_rates(lg, powers, xi)
    return [RateReport(users=lg.users, sinr=g, interference=x, rates=r, sum_rate=total,
                       n_rf=lg.n_rf)
            for g, x, r, total in zip(gamma, xi, rates, rates.sum(axis=-1).tolist())]


def rate_report(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> RateReport:
    """SINRs, rates and sum rate at (K,) powers from their interference-plus-
    noise vector xi = interference_vector(lg, powers, noise)."""
    return rate_reports(lg, powers[None], xi[None])[0]


def interference_term(m: int, n: int, grouping: BeamGrouping, precoder: Precoder,
                      powers: np.ndarray, noise_mw: float) -> float:
    """Residual interference plus noise at the m-th user (0-based SIC rank)
    of beam n: own-beam gain times earlier-ranked powers, plus every other
    beam's total power through the cross gains, plus noise."""
    lg = link_gains(grouping, precoder)
    u = lg.beam_slices[n].start + m
    return float(interference_vector(lg, powers, noise_mw)[u])


def sinr(m: int, n: int, grouping: BeamGrouping, precoder: Precoder,
         powers: np.ndarray, noise_mw: float) -> float:
    """Post-SIC SINR of the m-th user (0-based) of beam n."""
    lg = link_gains(grouping, precoder)
    u = lg.beam_slices[n].start + m
    xi = interference_vector(lg, powers, noise_mw)[u]
    return float(lg.own_gain[u] * powers[u] / xi)


def sum_rate(grouping: BeamGrouping, precoder: Precoder, powers: np.ndarray,
             budget: LinkBudget) -> RateReport:
    """Assemble every user's SINR and rate and the sum spectral efficiency."""
    powers = np.asarray(powers, dtype=float)
    lg = link_gains(grouping, precoder)
    if powers.shape != lg.users.shape:
        raise ValueError(f"expected {lg.users.shape[0]} powers, got {powers.shape}")
    return rate_report(lg, powers, interference_vector(lg, powers, budget.noise_mw))


def energy_efficiency(sum_rate_bpshz: float, n_rf: int, budget: LinkBudget,
                      power_model: PowerModel) -> float:
    """Sum rate over total consumed power (transmit + RF chains + switches +
    baseband), in bps/Hz/W."""
    total_mw = (budget.total_power_mw + n_rf * power_model.rf_chain_mw
                + n_rf * power_model.switch_mw + power_model.baseband_mw)
    return sum_rate_bpshz / (total_mw / MW_PER_W)
