"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. The heavy paired Monte Carlo runs are shared through module-scoped
fixtures; everything is seeded and deterministic.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import simplex_grid_optimum

from beamspace_noma import (ChannelParams, LinkBudget, OptimizerConfig, PowerModel,
                            PrecodingError, SystemConfig, allocate,
                            beamspace_mimo_single_user, build_noma_link,
                            energy_efficiency, fully_digital_zf, group_users,
                            lens_transform_matrix, link_gains, mimo_oma, mmse_error,
                            proposition1_check, sample_realization, select_beams, sinr,
                            sum_rate, sweep, trial_rng)


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _paired_budget(snr_db, k, total=32.0):
    return LinkBudget.from_snr(total, snr_db, n_users=k)


@pytest.fixture(scope="module")
def ordering_runs():
    """200 paired trials at N=256, K=32, SNR 10 dB for all four schemes."""
    lens = lens_transform_matrix(256)
    params = ChannelParams(256, 32)
    budget = _paired_budget(10.0, 32)
    rows = {"fd": [], "noma": [], "oma": [], "bs": [], "nrf": []}
    dropped = 0
    for t in range(200):
        real = sample_realization(params, trial_rng(101, t))
        hb = lens.matrix @ real.matrix
        try:
            grouping, precoder = build_noma_link(hb, "strongest")
            alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=20))
            noma = sum_rate(grouping, precoder, alloc.powers, budget).sum_rate
            oma = mimo_oma(grouping, precoder, budget).sum_rate
            bs = beamspace_mimo_single_user(hb, budget).sum_rate
            fd = fully_digital_zf(real.matrix, budget).sum_rate
        except PrecodingError:
            dropped += 1
            continue
        for key, value in zip(("fd", "noma", "oma", "bs", "nrf"),
                              (fd, noma, oma, bs, grouping.n_rf)):
            rows[key].append(value)
    return {k: np.array(v) for k, v in rows.items()} | {"dropped": dropped,
                                                        "budget": budget}


@pytest.fixture(scope="module")
def convergence_allocs():
    """100 seeded allocations at N=64, K=16, SNR 10 dB with T_max = 20."""
    lens = lens_transform_matrix(64)
    params = ChannelParams(64, 16)
    budget = _paired_budget(10.0, 16)
    out = []
    for t in range(100):
        real = sample_realization(params, trial_rng(102, t))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        out.append(allocate(grouping, precoder, budget, OptimizerConfig(max_iters=20)))
    return out, budget


def test_criterion_1_lens_unitarity():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 16, 64, 256):
        u = lens_transform_matrix(n).matrix
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(n)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "unitarity", ok, f"max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_zero_forcing():
    lens = lens_transform_matrix(64)
    params = ChannelParams(64, 8)
    worst = 0.0
    dropped = 0
    for t in range(100):
        real = sample_realization(params, trial_rng(103, t))
        try:
            grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        except PrecodingError:
            dropped += 1
            continue
        firsts = [m[0] for m in grouping.beams]
        heff = np.abs(grouping.reduced[:, firsts].conj().T @ precoder.matrix)
        for n in range(grouping.n_rf):
            off = np.delete(heff[:, n], n)
            if off.size:
                worst = max(worst, float(np.max(off) / heff[n, n]))
    ok = worst <= 1e-9
    _report(2, "zero forcing", ok,
            f"max leakage ratio {worst:.2e} over 100 trials ({dropped} dropped)")


def test_criterion_3_mmse_identity():
    worst = 0.0
    checks = 0
    lens = lens_transform_matrix(16)
    params = ChannelParams(16, 5)
    for t in range(200):
        real = sample_realization(params, trial_rng(104, t))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        rng = np.random.default_rng(t)
        powers = rng.uniform(0.0, 4.0, size=5)
        noise = float(rng.uniform(0.05, 1.0))
        e_opt = mmse_error(powers, grouping, precoder, noise)
        lg = link_gains(grouping, precoder)
        flat = list(lg.users)
        for n, members in enumerate(grouping.beams):
            for m, user in enumerate(members):
                gamma = sinr(m, n, grouping, precoder, powers, noise)
                worst = max(worst, abs(e_opt[flat.index(user)] - 1.0 / (1.0 + gamma)))
                checks += 1
    ok = worst <= 1e-10 and checks >= 1000
    _report(3, "MMSE identity", ok, f"max |e - 1/(1+sinr)| {worst:.2e} over {checks} instances")


def test_criterion_4_proposition_1():
    grid = np.geomspace(0.05, 20.0, 8192)
    ratio = grid[1] / grid[0]
    ok = True
    details = []
    for b in (0.1, 0.37, 1.0, 2.0, 10.0):
        argmax, fmax = proposition1_check(b, grid)
        step = (ratio - 1.0) / b  # local grid spacing near 1/b
        ok &= abs(argmax - 1.0 / b) <= 1.5 * step
        ok &= abs(fmax - (-np.log2(b))) <= 1e-6
        details.append(f"b={b}: |da|={abs(argmax - 1/b):.1e}, |df|={abs(fmax + np.log2(b)):.1e}")
    _report(4, "proposition 1", ok, "; ".join(details))


def test_criterion_5_monotone_convergence(convergence_allocs):
    allocs, _ = convergence_allocs
    worst_dip = 0.0
    ratios = []
    for alloc in allocs:
        trace = alloc.trace + [alloc.trace[-1]] * (20 - len(alloc.trace))
        diffs = np.diff(alloc.trace)
        if diffs.size:
            worst_dip = max(worst_dip, float(np.max(-diffs)))
        ratios.append(abs(trace[9] - trace[19]) / trace[19])
    mean_ratio = float(np.mean(ratios))
    ok = worst_dip <= 1e-8 and mean_ratio <= 0.01
    _report(5, "monotone ascent + convergence", ok,
            f"worst dip {worst_dip:.2e}, mean |R(10)-R(20)|/R(20) {mean_ratio:.4%}")


def test_criterion_6_budget_and_fairness(convergence_allocs):
    allocs, budget = convergence_allocs
    budget_ok = all(max(a.budget_trace) <= budget.total_power_mw + 1e-9
                    and np.all(a.powers >= 0) for a in allocs)
    lens = lens_transform_matrix(256)
    params = ChannelParams(256, 32)
    b20 = _paired_budget(20.0, 32)
    feasible_trials = 0
    min_rate_seen = np.inf
    for t in range(30):
        real = sample_realization(params, trial_rng(105, t))
        grouping, precoder = build_noma_link(lens.matrix @ real.matrix, "strongest")
        alloc = allocate(grouping, precoder, b20,
                         OptimizerConfig(max_iters=20, min_rate=1.0))
        budget_ok &= alloc.powers.sum() <= b20.total_power_mw + 1e-9
        if alloc.feasible:
            feasible_trials += 1
            report = sum_rate(grouping, precoder, alloc.powers, b20)
            min_rate_seen = min(min_rate_seen, float(report.rates.min()))
    fairness_ok = feasible_trials > 0 and min_rate_seen >= 1.0 - 1e-6
    ok = budget_ok and fairness_ok
    _report(6, "budget + fairness", ok,
            f"budgets respected: {budget_ok}; {feasible_trials}/30 feasible, "
            f"min rate on feasible {min_rate_seen:.8f}")


def test_criterion_7_grid_oracle():
    start = time.perf_counter()
    lens = lens_transform_matrix(8)
    params = ChannelParams(8, 3)
    budget = LinkBudget.from_snr(1.0, 10.0, n_users=3)
    worst = np.inf
    instances = 0
    t = 0
    while instances < 50:
        real = sample_realization(params, trial_rng(106, t))
        t += 1
        hb = lens.matrix @ real.matrix
        if group_users(select_beams(hb), hb).n_rf != 2:
            continue
        grouping, precoder = build_noma_link(hb, "strongest")
        instances += 1
        alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=200))
        achieved = sum_rate(grouping, precoder, alloc.powers, budget).sum_rate
        worst = min(worst, achieved / simplex_grid_optimum(grouping, precoder, budget, 1000))
    elapsed = time.perf_counter() - start
    ok = worst >= 0.98 and elapsed < 120.0
    _report(7, "grid-oracle equivalence", ok,
            f"worst ratio {worst:.5f} over 50 instances, {elapsed:.1f} s")


def test_criterion_8_scheme_ordering(ordering_runs):
    r = ordering_runs
    gaps = {
        "fully_digital - noma": r["fd"] - r["noma"],
        "noma - oma": r["noma"] - r["oma"],
        "oma - beamspace_mimo": r["oma"] - r["bs"],
    }
    ok = True
    details = []
    for name, diff in gaps.items():
        stderr = diff.std(ddof=1) / np.sqrt(len(diff))
        ok &= diff.mean() > 2 * stderr
        details.append(f"{name}: {diff.mean():.2f} (2se {2 * stderr:.2f})")
    _report(8, "scheme ordering", ok,
            f"means FD {r['fd'].mean():.1f} / NOMA {r['noma'].mean():.1f} / "
            f"OMA {r['oma'].mean():.1f} / BS {r['bs'].mean():.1f}; " + "; ".join(details))


def test_criterion_9_energy_efficiency_gains(ordering_runs):
    r = ordering_runs
    budget, pm = r["budget"], PowerModel()
    ee_noma = np.array([energy_efficiency(se, n, budget, pm)
                        for se, n in zip(r["noma"], r["nrf"])])
    ee_bs = np.array([energy_efficiency(se, 32, budget, pm) for se in r["bs"]])
    ee_fd = np.array([energy_efficiency(se, 256, budget, pm) for se in r["fd"]])
    vs_bs = ee_noma.mean() / ee_bs.mean()
    vs_fd = ee_noma.mean() / ee_fd.mean()
    ok = vs_bs >= 1.10 and vs_fd >= 2.0
    _report(9, "energy-efficiency gains", ok,
            f"EE(NOMA)/EE(beamspace MIMO) {vs_bs:.3f}, EE(NOMA)/EE(fully digital) {vs_fd:.3f}")


def test_criterion_10_conflict_probability():
    lens = lens_transform_matrix(256)
    params = ChannelParams(256, 32)
    conflicts = 0
    trials = 10_000
    for t in range(trials):
        real = sample_realization(params, trial_rng(107, t))
        hb = lens.matrix @ real.matrix
        conflicts += group_users(select_beams(hb), hb).n_rf < 32
    fraction = conflicts / trials
    ok = 0.84 <= fraction <= 0.90
    _report(10, "conflict probability", ok, f"fraction {fraction:.4f} over {trials} trials")


def test_criterion_11_variant_agreement():
    lens = lens_transform_matrix(64)
    params = ChannelParams(64, 16)
    budget = _paired_budget(10.0, 16)
    se = {"strongest": [], "svd": []}
    for t in range(100):
        real = sample_realization(params, trial_rng(108, t))
        hb = lens.matrix @ real.matrix
        for variant in ("strongest", "svd"):
            grouping, precoder = build_noma_link(hb, variant)
            alloc = allocate(grouping, precoder, budget, OptimizerConfig(max_iters=20))
            se[variant].append(sum_rate(grouping, precoder, alloc.powers, budget).sum_rate)
    m1, m2 = np.mean(se["strongest"]), np.mean(se["svd"])
    rel = abs(m1 - m2) / max(m1, m2)
    ok = rel <= 0.05
    _report(11, "variant agreement", ok,
            f"mean SE strongest {m1:.2f} vs svd {m2:.2f}, relative diff {rel:.3%}")


def test_criterion_12_deterministic_output(tmp_path):
    def run(tag):
        config = SystemConfig(n_antennas=64, n_users=8, trials=5, seed=77,
                              snr_db=[0.0, 10.0], max_iters=10,
                              out=str(tmp_path / tag))
        return sweep(config, "snr").csv_path

    first = Path(run("a")).read_bytes()
    second = Path(run("b")).read_bytes()
    ok = first == second and len(first) > 0
    _report(12, "determinism", ok, f"{len(first)} CSV bytes, identical: {first == second}")
