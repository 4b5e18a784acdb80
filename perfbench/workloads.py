"""The benchmark's workloads: which `sim` command each one runs, how its trials
are batched into `cli.main` calls, and what its output must look like."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]         # `sim` arguments before --seed/--trials/--out
    trials_per_batch: int         # trials in one cli.main call
    snr_points: int
    schemes: tuple[str, ...]
    # Nominal batch rate at this commit on a 2-core box. A run always completes
    # seconds * rate / 3 batches; mean_se_bpshz is taken over exactly those, so
    # it is exact at a fixed seed and run length.
    nominal_batches_per_s: float
    why: str

    @property
    def rows_per_batch(self) -> int:
        return self.trials_per_batch * self.snr_points * len(self.schemes)

    def floor_batches(self, seconds: float) -> int:
        return max(1, int(seconds * self.nominal_batches_per_s / 3))


ALL_SCHEMES = ("noma", "oma", "beamspace_mimo", "fully_digital")

WORKLOADS = {w.name: w for w in [
    Workload(
        name="snr_sweep",
        argv=("sweep-snr",),
        trials_per_batch=4, snr_points=7, schemes=ALL_SCHEMES,
        nominal_batches_per_s=2.5,
        why="sim sweep-snr defaults (N=256, K=32, 7 SNR points, 4 schemes): the "
            "paper's headline run, ~86% of it power allocation"),
    Workload(
        name="link_svd",
        argv=("sweep-snr", "--snr", "10", "--schemes", "oma,beamspace_mimo,fully_digital",
              "--variant", "svd"),
        trials_per_batch=40, snr_points=1, schemes=("oma", "beamspace_mimo", "fully_digital"),
        nominal_batches_per_s=4.5,
        why="one SNR point, no NOMA: power allocation is bypassed, so channel "
            "sampling, SVD link build and baselines carry the trial"),
    # Runnable by name but not listed in BENCHMARK.json: per-trial time has a
    # coefficient of variation of ~1.4 (one trial in 200 took 6.9 s against a
    # 305 ms median), so at ~2.5 trials/s the 10-seed spread of trials_per_s
    # stays near 0.2 even in 60 s runs, above every bound the benchmark allows.
    # Its per-module counters are exact and still compare two commits.
    Workload(
        name="fairness",
        argv=("fairness",),
        trials_per_batch=2, snr_points=1, schemes=("noma",),
        nominal_batches_per_s=1.1,
        why="sim fairness defaults (rmin=1 bps/Hz, 20 dB, noma only): loads the "
            "min-rate dual ascent, ~30 rounds per power update"),
]}
