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
        if not (math.isfinite(self.noise_mw) and self.noise_mw > 0):
            raise ValueError(f"noise power must be finite and > 0, got {self.noise_mw}")
        if not (math.isfinite(self.total_power_mw) and self.total_power_mw > 0):
            raise ValueError(f"power budget must be finite and > 0, got {self.total_power_mw}")

    @classmethod
    def from_snr(cls, total_power_mw: float, snr_db: float, n_users: int) -> "LinkBudget":
        """Noise from the per-user transmit-power SNR convention:
        sigma^2 = (P / K) / SNR_linear."""
        if n_users < 1:
            raise ValueError(f"need at least 1 user, got {n_users}")
        try:
            noise_mw = (total_power_mw / n_users) / 10.0 ** (snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):  # SNR_linear overflows or underflows to 0
            noise_mw = math.nan
        if not (math.isfinite(noise_mw) and noise_mw > 0):
            raise ValueError(f"SNR {snr_db:g} dB gives no finite, positive noise power "
                             f"(P / K) / SNR_linear at P = {total_power_mw:g} mW, K = {n_users}")
        return cls(noise_mw=noise_mw, total_power_mw=total_power_mw)


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
    """Per-user link metrics of one scheme at one budget, in the order of
    `users`: user order for fully digital ZF, the grouping's flat
    (beam-major, SIC) order for the other schemes."""

    users: np.ndarray         # original user indices
    sinr: np.ndarray
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

    Flat user order is beam-major with SIC rank ascending inside each beam,
    so beam_of is sorted and each beam's users form one run of it.
    """

    gains: np.ndarray     # (K, N_RF) |h_u^H w_j|^2
    own: np.ndarray       # (K,) complex own-beam gain h_u^H w_{beam(u)}
    own_gain: np.ndarray  # (K,) |own|^2, read from gains
    beam_of: np.ndarray   # (K,) int, ascending
    beam_start: np.ndarray  # (K,) int flat index of the first user of beam_of
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
    rows = np.arange(len(users))
    return LinkGains(gains=gains, own=heff[rows, beam_of],
                     own_gain=gains[rows, beam_of], beam_of=beam_of,
                     beam_start=bounds[beam_of], users=users, n_rf=grouping.n_rf)


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


def interference_vector(lg: LinkGains, powers: np.ndarray, noise_mw: np.ndarray) -> np.ndarray:
    """All users' post-SIC interference-plus-noise terms at once, for (S, K)
    float powers with (S,) noise powers, one row per budget.

    Each row's beam powers are one bincount over row-offset bins and its
    cross-beam terms one gemv of a stacked matmul, so a row's result has the
    same bits whichever rows share its call.
    """
    n_rows = len(powers)
    bins = (lg.beam_of + np.arange(0, n_rows * lg.n_rf, lg.n_rf)[:, None]).ravel()
    beam_power = np.bincount(bins, weights=powers.ravel(),
                             minlength=n_rows * lg.n_rf).reshape(n_rows, lg.n_rf)
    inter = (np.matmul(lg.gains, beam_power[:, :, None])[:, :, 0]
             - lg.own_gain * beam_power.take(lg.beam_of, axis=-1))
    return lg.own_gain * seg_excl_cumsum(powers, lg.beam_start) + inter + noise_mw[:, None]


def _log_rates(desired: np.ndarray, interference: np.ndarray,
               share: float | np.ndarray = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """sinr = desired / interference and rates = share * log2(1 + sinr), share being
    each user's resource fraction; a NaN iterate rates NaN, silently in `run_trial`."""
    gamma = desired / interference
    return gamma, share * np.log2(1.0 + gamma)


def reports(users: np.ndarray, n_rf: int, desired: np.ndarray, interference: np.ndarray,
            share: float | np.ndarray = 1.0) -> list[RateReport]:
    """One report per row of (S, K) desired-signal and interference-plus-noise powers."""
    gamma, rates = _log_rates(desired, interference, share)
    return [RateReport(users=users, sinr=g, rates=r, sum_rate=total, n_rf=n_rf)
            for g, r, total in zip(gamma, rates, rates.sum(axis=-1).tolist())]


def sum_rates(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The (S,) sum rates of `rate_reports`, without building the reports."""
    return _log_rates(lg.own_gain * powers, xi)[1].sum(axis=-1)


def rate_reports(lg: LinkGains, powers: np.ndarray, xi: np.ndarray) -> list[RateReport]:
    """One report per row of (S, K) powers and their interference-plus-noise
    rows xi = interference_vector(lg, powers, noise)."""
    return reports(lg.users, lg.n_rf, lg.own_gain * powers, xi)


def link_and_powers(grouping: BeamGrouping, precoder: Precoder, powers: np.ndarray,
                    noise_mw: float) -> tuple[LinkGains, np.ndarray, np.ndarray]:
    """Link gains, (1, K) float power row and its interference-plus-noise row
    of a one-budget call at (K,) powers in flat user order (else ValueError)."""
    powers = np.asarray(powers, dtype=float)
    lg = link_gains(grouping, precoder)
    if powers.shape != lg.users.shape:
        raise ValueError(f"expected {lg.users.shape[0]} powers, got {powers.shape}")
    p = powers[None]
    return lg, p, interference_vector(lg, p, np.array([noise_mw]))


def sinr(m: int, n: int, grouping: BeamGrouping, precoder: Precoder,
         powers: np.ndarray, noise_mw: float) -> float:
    """Post-SIC SINR of the m-th user (0-based) of beam n."""
    if not 0 <= n < grouping.n_rf:
        raise ValueError(f"beam {n} is not one of the {grouping.n_rf} beams")
    if not 0 <= m < len(grouping.beams[n]):
        raise ValueError(f"beam {n} has {len(grouping.beams[n])} users, so no user {m}")
    lg, p, xi = link_and_powers(grouping, precoder, powers, noise_mw)
    return float(rate_reports(lg, p, xi)[0].sinr[np.searchsorted(lg.beam_of, n) + m])


def sum_rate(grouping: BeamGrouping, precoder: Precoder, powers: np.ndarray,
             budget: LinkBudget) -> RateReport:
    """Assemble every user's SINR and rate and the sum spectral efficiency."""
    return rate_reports(*link_and_powers(grouping, precoder, powers, budget.noise_mw))[0]


def energy_efficiency(sum_rate_bpshz: float, n_rf: int, budget: LinkBudget,
                      power_model: PowerModel) -> float:
    """Sum rate over total consumed power (transmit + RF chains + switches +
    baseband), in bps/Hz/W."""
    total_mw = (budget.total_power_mw + n_rf * power_model.rf_chain_mw
                + n_rf * power_model.switch_mw + power_model.baseband_mw)
    return sum_rate_bpshz / (total_mw / MW_PER_W)
