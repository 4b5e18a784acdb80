"""Monte Carlo experiment runner: seeded paired trials, scheme sweeps, and
CSV/JSON emission.

Every scheme and SNR point inside a trial consumes the identical channel
realization, so scheme comparisons are paired. NOMA and OMA also share one
beam grouping and ZF precoder: `trial_link` builds that link once per trial,
only when either runs, and a failed build drops both schemes with its one
reason. `sweep` maps one list of (user-count cell, trial) jobs through a
single worker pool, or a plain loop at `workers=1`; records are sorted before
writing so the output files are byte-deterministic for a given master seed.
Both output files are opened, under temp names, before the first trial.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TextIO

import numpy as np

from . import baselines, beams, power, precoding, rates
from .channel import (LensMatrix, lens_transform_matrix, sample_realization, to_beamspace,
                      trial_rng)
from .config import SystemConfig

# failures that turn one trial's scheme into a recorded drop instead of an abort
DROP_ERRORS = (precoding.PrecodingError, beams.DegenerateChannelError)

CSV_COLUMNS = ["trial", "seed", "snr_db", "scheme", "variant", "k", "n_rf",
               "sum_rate_bpshz", "energy_eff_bpshzw", "dropped", "drop_reason"]


@dataclass
class ExperimentRecord:
    """One (trial, SNR, scheme) outcome."""

    trial: int
    seed: int
    snr_db: float
    scheme: str
    variant: str
    k: int
    n_rf: int
    sum_rate: float
    energy_eff: float
    dropped: bool = False
    drop_reason: str = ""
    feasible: bool = True
    trace: list[float] | None = None
    user_rates: list[float] | None = None


@dataclass
class SweepResult:
    records: list[ExperimentRecord]
    summary: list[dict]
    csv_path: str
    json_path: str


@lru_cache(maxsize=4)
def _lens(n_antennas: int) -> LensMatrix:
    return lens_transform_matrix(n_antennas)


def build_noma_link(beamspace: np.ndarray, variant: str) -> tuple[beams.BeamGrouping, precoding.Precoder]:
    """Grouping and ZF precoder with one bounded order-repair pass.

    Users are first ranked by reduced-channel norm; `beams.verify_order` maps
    each beam whose equivalent gains violate the assumed SIC decay to the
    permutation that restores it. Those beams are re-sorted once and the
    precoder rebuilt once (no further iteration).
    """
    grouping = beams.group_users(beams.select_beams(beamspace), beamspace)
    precoder = precoding.zf_precoder(precoding.make_equivalent(grouping, variant))
    repairs = beams.verify_order(grouping, precoder)
    if repairs:
        grouping = beams.reorder(grouping, repairs)
        precoder = precoding.zf_precoder(precoding.make_equivalent(grouping, variant))
    return grouping, precoder


def trial_link(config: SystemConfig, trial_index: int) -> tuple[np.ndarray, np.ndarray, object]:
    """The trial's stage before its schemes: the spatial channel drawn from
    `trial_rng`, its beamspace, and the NOMA link that NOMA and OMA share.

    The link is a `rates.LinkGains`, built once and only when `noma` or `oma`
    runs; otherwise it is None. A build failing with one of DROP_ERRORS
    returns that error in the link's place, so both schemes drop with the one
    reason.
    """
    realization = sample_realization(config.channel_params(), trial_rng(config.seed, trial_index))
    beamspace = to_beamspace(realization.matrix, _lens(config.n_antennas))
    try:
        link = (rates.link_gains(*build_noma_link(beamspace, config.variant))
                if "noma" in config.schemes or "oma" in config.schemes else None)
    except DROP_ERRORS as err:
        link = err
    return realization.matrix, beamspace, link


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def run_trial(config: SystemConfig, trial_index: int) -> list[ExperimentRecord]:
    """Execute every configured scheme at every SNR point on one realization.

    The SNR points share the link and differ only in the noise, so each
    scheme runs once with one budget per SNR point and fills its own record
    at each point, after `trial_link`. A scheme failing with one of
    DROP_ERRORS, its link build included, is dropped at every SNR point; a
    non-finite sum rate (for NOMA, at any iteration) drops that SNR point.
    Non-finite arithmetic ends in these drops, so numpy's warnings are off here.
    """
    spatial, beamspace, link = trial_link(config, trial_index)
    budgets = [config.budget(snr_db) for snr_db in config.snr_db]
    # scheme -> its results at every SNR point: a PowerAllocation (noma), whose
    # `report` holds its rates, or a RateReport per budget
    batch = {
        "noma": lambda: power.allocate_batch(link, budgets, config.optimizer_config()),
        "oma": lambda: baselines.mimo_oma_batch(link, budgets),
        "beamspace_mimo": lambda: baselines.beamspace_mimo_single_user_batch(beamspace, budgets),
        "fully_digital": lambda: baselines.fully_digital_zf_batch(spatial, budgets),
    }

    records = [ExperimentRecord(trial=trial_index, seed=config.seed, snr_db=snr_db,
                                scheme=scheme, k=config.n_users, n_rf=0,
                                variant=config.variant if scheme in ("noma", "oma") else "na",
                                sum_rate=math.nan, energy_eff=math.nan)
               for snr_db in config.snr_db for scheme in config.schemes]
    pm = config.power_model()
    for j, scheme in enumerate(config.schemes):
        own = records[j::len(config.schemes)]  # this scheme's record at each SNR point
        try:
            if scheme in ("noma", "oma") and isinstance(link, Exception):
                raise link
            results = batch[scheme]()
        except DROP_ERRORS as err:
            for rec in own:
                rec.dropped, rec.drop_reason = True, str(err)
            continue
        for rec, result, budget in zip(own, results, budgets):
            report = result.report if scheme == "noma" else result  # sum_rate and n_rf
            reason = ("" if math.isfinite(report.sum_rate)
                      else f"non-finite sum rate {report.sum_rate!r}")
            if scheme == "noma" and not reason:
                reason = next((f"non-finite sum rate {rate!r} at iteration {t}"
                               for t, rate in enumerate(result.trace, 1)
                               if not math.isfinite(rate)), "")
            if reason:
                rec.dropped, rec.drop_reason = True, reason
                continue
            rec.sum_rate, rec.n_rf = report.sum_rate, report.n_rf
            if scheme == "noma":
                rec.feasible = result.feasible
                rec.trace = list(result.trace)
                rec.user_rates = [float(r) for r in report.rates_by_user]
            rec.energy_eff = rates.energy_efficiency(rec.sum_rate, rec.n_rf, budget, pm)
    return records


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def summarize(records: list[ExperimentRecord], scheme_order: list[str]) -> list[dict]:
    """Per (sweep point, scheme) means and standard errors over kept trials."""
    cells: dict[tuple, list[ExperimentRecord]] = {}
    for rec in records:
        cells.setdefault((rec.snr_db, rec.k, rec.scheme), []).append(rec)
    rank = {s: i for i, s in enumerate(scheme_order)}
    out = []
    for (snr_db, k, scheme) in sorted(cells, key=lambda c: (c[0], c[1], rank.get(c[2], 99))):
        group = cells[(snr_db, k, scheme)]
        kept = [r for r in group if not r.dropped]
        se = np.array([r.sum_rate for r in kept])
        ee = np.array([r.energy_eff for r in kept])
        out.append({
            "snr_db": snr_db, "k": k, "scheme": scheme,
            "mean_se": float(se.mean()) if len(kept) else math.nan,
            "stderr_se": _stderr(se),
            "mean_ee": float(ee.mean()) if len(kept) else math.nan,
            "stderr_ee": _stderr(ee),
            "trials": len(group),
            "dropped": len(group) - len(kept),
        })
    return out


def write_csv(records: list[ExperimentRecord], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.trial, r.seed, repr(r.snr_db), r.scheme,
                         r.variant, r.k, r.n_rf, repr(r.sum_rate),
                         repr(r.energy_eff), int(r.dropped),
                         r.drop_reason.replace(",", ";")])


def sweep(config: SystemConfig, mode: str) -> SweepResult:
    """Run a full experiment and emit `<out>.csv` plus `<out>.json`.

    Modes: 'snr' sweeps the configured SNR points; 'users' additionally sweeps
    the user counts; 'convergence' records the mean per-iteration sum-rate
    trace; 'fairness' dumps per-user rates under the active minimum rate.
    Both files are opened under temp names before the first trial (so an
    unwritable destination fails there) and moved into place at the end, so a
    failed run leaves earlier outputs at the same path intact.
    """
    if mode not in ("snr", "users", "convergence", "fairness"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    # building every cell's config first validates each swept user count
    cells = [config.with_users(k) for k in config.users_sweep] if mode == "users" else [config]
    paths = config.output_paths()
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        os.makedirs(os.path.dirname(paths[0]) or ".", exist_ok=True)
        with (open(temps[0], "w", newline="", encoding="utf-8") as csv_fh,
              open(temps[1], "w", encoding="utf-8") as json_fh):
            jobs = [(cell, t) for cell in cells for t in range(cell.trials)]
            if config.workers > 1:
                # imported here: multiprocessing adds to every start, and one worker never uses it
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=config.workers) as pool:
                    chunks = list(pool.map(run_trial, *zip(*jobs)))
            else:
                chunks = [run_trial(cell, t) for cell, t in jobs]
            records = [rec for chunk in chunks for rec in chunk]
            rank = {s: i for i, s in enumerate(config.schemes)}
            records.sort(key=lambda r: (r.trial, r.snr_db, r.k, rank.get(r.scheme, 99)))
            summary = summarize(records, config.schemes)
            payload: dict = {
                "mode": mode,
                "seed": config.seed,
                "trials": config.trials,
                "variant": config.variant,
                "summary": summary,
            }
            kept_noma = [r for r in records if r.scheme == "noma" and not r.dropped]
            if mode == "convergence":  # traces that stop early repeat their last value
                traces = [r.trace + r.trace[-1:] * (config.max_iters - len(r.trace))
                          for r in kept_noma if r.trace]
                if traces:
                    payload["convergence_trace"] = [float(v) for v in np.mean(traces, axis=0)]
            if mode == "fairness":
                payload["min_rate"] = config.min_rate
                payload["fairness"] = [
                    {"trial": r.trial, "snr_db": r.snr_db, "feasible": r.feasible,
                     "user_rates": r.user_rates}
                    for r in kept_noma
                ]
            write_csv(records, csv_fh)
            json.dump(payload, json_fh, indent=2)
            json_fh.write("\n")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
    return SweepResult(records, summary, *paths)
