"""Monte Carlo experiment runner: seeded paired trials, scheme sweeps, and
CSV/JSON emission.

Every scheme and SNR point inside a trial consumes the identical channel
realization, so scheme comparisons are paired. Trials are independent and may
run in a worker pool; records are sorted before writing so the output files
are byte-deterministic for a given master seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

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

    Users are first ranked by reduced-channel norm; if the resulting
    equivalent gains violate the assumed SIC decay, each offending beam is
    re-sorted once and the precoder rebuilt once (no further iteration).
    """
    grouping = beams.group_users(beams.select_beams(beamspace), beamspace)
    precoder = precoding.zf_precoder(precoding.make_equivalent(grouping, variant))
    report = beams.verify_order(grouping, precoder)
    if not report.ok:
        grouping = beams.reorder(grouping, report)
        precoder = precoding.zf_precoder(precoding.make_equivalent(grouping, variant))
    return grouping, precoder


def _scheme_results(scheme: str, config: SystemConfig, budgets: list[rates.LinkBudget],
                    spatial: np.ndarray, beamspace: np.ndarray, noma_link) -> list:
    """One scheme at every SNR point: a PowerAllocation (noma), whose `report`
    holds its rates, or a RateReport per budget. NOMA and OMA re-raise a
    `noma_link` that is an exception."""
    if scheme in ("noma", "oma") and isinstance(noma_link, Exception):
        raise noma_link
    if scheme == "noma":
        return power.allocate_batch(noma_link, budgets, config.optimizer_config())
    if scheme == "oma":
        return baselines.mimo_oma_batch(noma_link, budgets)
    if scheme == "beamspace_mimo":
        return baselines.beamspace_mimo_single_user_batch(beamspace, budgets)
    if scheme == "fully_digital":
        return baselines.fully_digital_zf_batch(spatial, budgets)
    raise ValueError(f"unknown scheme {scheme!r}")


def run_trial(config: SystemConfig, trial_index: int) -> list[ExperimentRecord]:
    """Execute every configured scheme at every SNR point on one realization.

    The SNR points share the link and differ only in the noise, so each
    scheme runs once with one budget per SNR point. NOMA and OMA share one link
    value, its `LinkGains` or the DROP_ERRORS exception that failed its build.
    A scheme failing with one of DROP_ERRORS is dropped at every SNR point; a
    non-finite sum rate (for NOMA, at any iteration) drops that SNR point.
    """
    rng = trial_rng(config.seed, trial_index)
    realization = sample_realization(config.channel_params(), rng)
    beamspace = to_beamspace(realization.matrix, _lens(config.n_antennas))
    budgets = [config.budget(snr_db) for snr_db in config.snr_db]

    noma_link = None
    if "noma" in config.schemes or "oma" in config.schemes:
        try:
            noma_link = rates.link_gains(*build_noma_link(beamspace, config.variant))
        except DROP_ERRORS as err:
            noma_link = err

    outcomes: dict[str, list | str] = {}  # results per SNR point, or the drop reason
    for scheme in config.schemes:
        try:
            outcomes[scheme] = _scheme_results(scheme, config, budgets, realization.matrix,
                                               beamspace, noma_link)
        except DROP_ERRORS as err:
            outcomes[scheme] = str(err)

    records = []
    pm = config.power_model()
    for i, (snr_db, budget) in enumerate(zip(config.snr_db, budgets)):
        for scheme in config.schemes:
            variant = config.variant if scheme in ("noma", "oma") else "na"
            rec = ExperimentRecord(trial=trial_index, seed=config.seed,
                                   snr_db=snr_db, scheme=scheme, variant=variant,
                                   k=config.n_users, n_rf=0, sum_rate=math.nan,
                                   energy_eff=math.nan)
            records.append(rec)
            outcome = outcomes[scheme]
            if isinstance(outcome, str):
                rec.dropped, rec.drop_reason = True, outcome
                continue
            result = outcome[i]
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


def _run_cell(config: SystemConfig) -> list[ExperimentRecord]:
    """All trials for one configuration, optionally across worker processes."""
    indices = range(config.trials)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(run_trial, [config] * config.trials, indices))
    else:
        chunks = [run_trial(config, t) for t in indices]
    return [rec for chunk in chunks for rec in chunk]


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


def _output_paths(out_base: str) -> tuple[str, str]:
    base = out_base[:-4] if out_base.endswith(".csv") else out_base
    return base + ".csv", base + ".json"


def _check_writable(*paths: str) -> None:
    for path in paths:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8"):
            pass


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(records: list[ExperimentRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.trial, r.seed, _format(r.snr_db), r.scheme,
                             r.variant, r.k, r.n_rf, _format(r.sum_rate),
                             _format(r.energy_eff), int(r.dropped),
                             r.drop_reason.replace(",", ";")])


def _pad_trace(trace: list[float], length: int) -> list[float]:
    if not trace:
        return [math.nan] * length
    return trace + [trace[-1]] * (length - len(trace))


def sweep(config: SystemConfig, mode: str) -> SweepResult:
    """Run a full experiment and emit `<out>.csv` plus `<out>.json`.

    Modes: 'snr' sweeps the configured SNR points; 'users' additionally sweeps
    the user counts; 'convergence' records the mean per-iteration sum-rate
    trace; 'fairness' dumps per-user rates under the active minimum rate.
    Both files are written to temp files and moved into place at the end, so
    a failed run leaves earlier outputs at the same path intact.
    """
    if mode not in ("snr", "users", "convergence", "fairness"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    # building every cell's config first validates each swept user count
    cells = [config.with_users(k) for k in config.users_sweep] if mode == "users" else [config]
    csv_path, json_path = _output_paths(config.out)
    temps = [f"{path}.{os.getpid()}.tmp" for path in (csv_path, json_path)]
    try:
        # fails before the run on an unwritable destination; old outputs stay
        _check_writable(*temps)
        records, summary = _run_and_write(config, mode, cells, *temps)
        os.replace(temps[0], csv_path)
        os.replace(temps[1], json_path)
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
    return SweepResult(records=records, summary=summary,
                       csv_path=csv_path, json_path=json_path)


def _run_and_write(config: SystemConfig, mode: str, cells: list[SystemConfig],
                   csv_path: str, json_path: str) -> tuple[list[ExperimentRecord], list[dict]]:
    """Run every cell, then write the sorted records and the JSON payload."""
    records = [rec for cell in cells for rec in _run_cell(cell)]

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

    write_csv(records, csv_path)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return records, summary
