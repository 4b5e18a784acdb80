"""Batch benchmark of the beamspace-NOMA simulator.

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
One process drives a closed loop: each batch is one call
of the real entry point, `cli.main([...])`, with `workers=1` and BLAS pinned
to one thread, and the next batch starts when the previous one returns.
Batch i runs with master seed `seed + i * 2**32`, so batch 0 is the workload
seed itself. Outputs go to a temporary directory inside the checkout and
every batch is checked (checks.py). Times are scaled to a reference machine
speed by a calibration kernel (calibrate.py); unscaled values are recorded.

--trace 0 measures the end-to-end metrics. --trace 1 runs each batch
untraced and then twice with spans around the package's public functions
(tracing.py) and reports per-module metrics; the traced outputs must equal
the untraced ones byte for byte and the counters must repeat exactly.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the run record: environment, sample counts
and the values that are not compared between commits.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: with 2 BLAS threads on a 2-core box CPU
# time doubled for no wall-clock gain.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import REFERENCE_MS, SpeedProbe  # noqa: E402
from checks import BatchCheck, check_batch, load_digests  # noqa: E402
from tracing import TARGETS, SpanStats, Tracer, counters  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "beamspace_noma"
SEED_STRIDE = 2**32
SETUP_PROBES = 7
CALIBRATION_INTERVAL_S = 0.05  # between kernel samples during a batch

# Fresh-process set-up: import the package and build the lens matrix that the
# first trial would otherwise build.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import beamspace_noma.cli
from beamspace_noma.channel import lens_transform_matrix
lens_transform_matrix(int(sys.argv[2]))
print(time.perf_counter() - start)
"""

# metric name -> (unit, numerator, denominator) for the span the name starts
# with; the numerator is a SpanStats quantity, the denominator "trial"
# (traced trials) or "call" (the span's calls)
LAYER_METRICS = {
    "power.allocate.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "power.allocate.self_ms_per_trial": ("ms/trial", "self_ms", "trial"),
    "power.allocate.iterations_per_call": ("iter/call", "count", "call"),
    "power.update_p.ms_per_call": ("ms/call", "total_ms", "call"),
    "power.update_p.self_ms_per_call": ("ms/call", "self_ms", "call"),
    "power.update_p.rounds_per_call": ("rounds/call", "count", "call"),
    "rates.interference_vector.calls_per_trial": ("calls/trial", "calls", "trial"),
    "rates.interference_vector.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "rates.link_gains.calls_per_trial": ("calls/trial", "calls", "trial"),
    "rates.sum_rate.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "channel.sample_realization.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "runner.run_trial.self_ms_per_trial": ("ms/trial", "self_ms", "trial"),
    "runner.build_noma_link.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "beams.select_beams.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "beams.reorder.calls_per_trial": ("calls/trial", "calls", "trial"),
    "precoding.top_left_singular_vector.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "precoding.top_left_singular_vector.calls_per_trial": ("calls/trial", "calls", "trial"),
    "precoding.zf_precoder.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "baselines.fully_digital_zf.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "baselines.beamspace_mimo_single_user.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "baselines.mimo_oma.ms_per_trial": ("ms/trial", "total_ms", "trial"),
    "runner.sweep.self_ms": ("ms/call", "self_ms", "call"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout for the batches' output files."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as path:
            yield path
    finally:
        with contextlib.suppress(OSError):
            parent.rmdir()


@dataclass
class Batch:
    wall_s: float
    output_sha256: str  # of the CSV and JSON bytes together
    check: BatchCheck


class Batches:
    """Runs batch i of a workload through `cli.main` and checks its output."""

    def __init__(self, cli, workload: Workload, seed: int, out_dir: str):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_base = os.path.join(out_dir, "batch")
        self.digests = load_digests()

    def seed_of(self, i: int) -> int:
        return self.seed + i * SEED_STRIDE

    def run(self, i: int) -> Batch:
        w = self.workload
        argv = [*w.argv, "--seed", str(self.seed_of(i)), "--trials",
                str(w.trials_per_batch), "--out", self.out_base]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = self.cli.main(argv)
            wall = perf_counter() - start
        csv_bytes = Path(self.out_base + ".csv").read_bytes()
        json_bytes = Path(self.out_base + ".json").read_bytes()
        check = check_batch(w, self.seed_of(i), csv_bytes, json_bytes, self.digests)
        if code != 0:
            check.problems.append(f"cli.main returned {code}")
        return Batch(wall, hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest(), check)


class TrialClock:
    """Times each `runner.run_trial` call, tallies NOMA feasibility, and
    samples the calibration kernel before a trial when CALIBRATION_INTERVAL_S
    has passed since the last sample, so the machine's speed is known
    throughout each batch."""

    def __init__(self, runner, probe: SpeedProbe):
        self.runner = runner
        self.run_trial = runner.run_trial
        self.probe = probe
        self.ms: list[float] = []             # unscaled, per trial
        self.kernel_before: list[float] = []  # per sample, on the vCPU chosen next
        self.kernel_after: list[float] = []   # per sample, on the vCPU used so far
        self.sample_before: list[int] = []    # per trial, its last preceding sample
        self.kernel_s = 0.0                   # time spent sampling
        self.noma = 0
        self.infeasible = 0
        self._next_sample = 0.0

    def sample(self) -> None:
        start = perf_counter()
        self.kernel_after.append(self.probe.kernel_ms())
        self.kernel_before.append(self.probe.move_to_fastest())
        end = perf_counter()
        self.kernel_s += end - start
        self._next_sample = end + CALIBRATION_INTERVAL_S

    def __call__(self, config, trial_index):
        if perf_counter() >= self._next_sample:
            self.sample()
        self.sample_before.append(len(self.kernel_before) - 1)
        start = perf_counter()
        records = self.run_trial(config, trial_index)
        self.ms.append((perf_counter() - start) * 1e3)
        for rec in records:
            if rec.scheme == "noma" and not rec.dropped:
                self.noma += 1
                self.infeasible += not rec.feasible
        return records

    def scales(self) -> list[float]:
        """Per trial, REFERENCE_MS over the mean of the kernel's times just
        before and just after it on its vCPU; needs a sample after the last
        trial."""
        return [2 * REFERENCE_MS / (self.kernel_before[j] + self.kernel_after[j + 1])
                for j in self.sample_before]

    def __enter__(self) -> "TrialClock":
        self.runner.run_trial = self
        return self

    def __exit__(self, *exc) -> None:
        self.runner.run_trial = self.run_trial


def measure_setup(n_antennas: int, probe: SpeedProbe) -> tuple[float, float]:
    """Seconds one fresh process takes to import the package and build the
    lens: (unscaled, scaled by the kernel timed around it)."""
    before = probe.move_to_fastest()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(n_antennas)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw, raw * 2 * REFERENCE_MS / (before + probe.kernel_ms())


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(numpy, package, probe: SpeedProbe) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": probe.cpus,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "beamspace_noma": package.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "calibration_reference_ms": REFERENCE_MS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(batches: Batches, probe: SpeedProbe, runner, seconds: float, n_antennas: int):
    """End-to-end metrics of one closed-loop run."""
    w = batches.workload
    warm = batches.run(0)
    setup: list[tuple[float, float]] = []
    floor = w.floor_batches(seconds)
    done: list[Batch] = []
    busy_s: list[float] = []  # per batch, wall time minus calibration samples
    with TrialClock(runner, probe) as clock:
        start = perf_counter()
        while len(done) < floor or perf_counter() - start < seconds:
            # set-up probes are spread over the run, between batches, so that
            # their median does not hinge on the machine's speed at one moment
            if perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
                setup.append(measure_setup(n_antennas, probe))
            sampling = clock.kernel_s
            done.append(batches.run(len(done)))
            busy_s.append(done[-1].wall_s - (clock.kernel_s - sampling))
        clock.sample()
    setup += [measure_setup(n_antennas, probe) for _ in range(SETUP_PROBES - len(setup))]
    if warm.output_sha256 != done[0].output_sha256:
        done[0].check.problems.append("batch 0 output differs between warm-up and timed run")

    scales = clock.scales()
    trial_ms = [t * s for t, s in zip(clock.ms, scales)]
    scaled_s = 0.0  # each batch's busy time, scaled as its trials are on average
    for i, busy in enumerate(busy_s):
        part = slice(i * w.trials_per_batch, (i + 1) * w.trials_per_batch)
        scaled_s += busy * sum(trial_ms[part]) / sum(clock.ms[part])
    checks = [b.check for b in done]
    attempted = sum(c.rows for c in checks)
    failed = sum(c.failed for c in checks)
    se_sum = sum(c.se_sum for c in checks[:floor])
    se_rows = sum(c.se_rows for c in checks[:floor])
    trials = len(clock.ms)
    metrics = {
        "trials_per_s": metric(trials / scaled_s, "1/s"),
        "trial_ms_p50": metric(statistics.median(trial_ms), "ms"),
        "trial_ms_p90": metric(percentile(trial_ms, 90), "ms"),
        "setup_s": metric(statistics.median(scaled for _, scaled in setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_se_bpshz": metric(se_sum / se_rows if se_rows else float("nan"), "bps/Hz"),
    }
    record = {
        "batches": len(done), "trials": trials,
        "samples": {"trial_ms": trials, "setup_s": len(setup),
                    "calibration": len(clock.kernel_before),
                    "mean_se_bpshz_rows": se_rows, "mean_se_bpshz_batches": floor},
        "failed_frac": failed / attempted,
        "infeasible_frac": clock.infeasible / clock.noma if clock.noma else None,
        "unscaled": {"trials_per_s": trials / sum(busy_s),
                     "trial_ms_p50": statistics.median(clock.ms),
                     "trial_ms_p90": percentile(clock.ms, 90),
                     "setup_s": statistics.median(raw for raw, _ in setup)},
        "scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
    }
    return metrics, checks, record


def layer_value(stats: SpanStats, quantity: str, per: str, trials: int) -> float:
    numerator = {"total_ms": stats.total_s * 1e3, "self_ms": stats.self_s * 1e3,
                 "calls": stats.calls, "count": stats.count}[quantity]
    denominator = trials if per == "trial" else stats.calls
    return numerator / denominator if denominator else 0.0


def run_traced(batches: Batches, probe: SpeedProbe, seconds: float):
    """Per-module metrics. Each batch runs untraced and then twice traced, so
    the three share the machine's speed of the moment: the overhead estimate
    is paired, and the three outputs must be identical. Span times are scaled
    by the kernel timed before and after each batch."""
    batches.run(0)  # warm-up
    untraced: list[Batch] = []
    traced: list[list[Batch]] = [[], []]
    stats = [{name: SpanStats() for name in TARGETS} for _ in traced]
    scaled_s = [0.0, 0.0, 0.0]  # untraced, first traced, second traced
    missing: set[str] = set()
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        i = len(untraced)
        for p in range(3):
            tracer = Tracer(PACKAGE) if p else contextlib.nullcontext()
            before = probe.move_to_fastest()
            with tracer:
                batch = batches.run(i)
            scale = 2 * REFERENCE_MS / (before + probe.kernel_ms())
            scaled_s[p] += batch.wall_s * scale
            if p == 0:
                untraced.append(batch)
                continue
            traced[p - 1].append(batch)
            missing.update(tracer.missing)
            for name, span in tracer.stats.items():
                stats[p - 1][name].add(span, scale)

    for i, batch in enumerate(untraced):
        if not batch.output_sha256 == traced[0][i].output_sha256 == traced[1][i].output_sha256:
            for done in traced:
                done[i].check.problems.append(f"batch {i}: traced output differs from untraced")
    problems = []
    if counters(stats[0]) != counters(stats[1]):
        diff = sorted(k for k, v in counters(stats[0]).items() if counters(stats[1])[k] != v)
        problems.append(f"traced counters differ between two passes: {diff}")

    both = {name: SpanStats() for name in TARGETS}
    for acc in stats:
        for name, span in acc.items():
            both[name].add(span)
    trials = len(untraced) * batches.workload.trials_per_batch
    metrics = {name: metric(layer_value(both[name.rsplit(".", 1)[0]], quantity, per, 2 * trials),
                            unit)
               for name, (unit, quantity, per) in LAYER_METRICS.items()}
    traced_s = (scaled_s[1] + scaled_s[2]) / 2
    metrics["trace.overhead_frac"] = metric(traced_s / scaled_s[0] - 1.0, "ratio")

    checks = [b.check for b in untraced + traced[0] + traced[1]]
    record = {
        "batches": len(untraced), "trials": trials,
        "samples": {"traced_trials": 2 * trials, "untraced_trials": trials},
        "untraced_trials_per_s": trials / scaled_s[0],
        "traced_trials_per_s": trials / traced_s,
        "counters": {k: list(v) for k, v in counters(stats[0]).items()},
        "untraced_functions": sorted(missing),
    }
    return metrics, checks, record, problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {SRC / PACKAGE} not found; run from a full source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import beamspace_noma
    from beamspace_noma import cli, runner
    from beamspace_noma.config import SystemConfig

    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    with scratch_dir() as out_dir:
        batches = Batches(cli, workload, args.seed, out_dir)
        if args.trace:
            metrics, checks, record, problems = run_traced(batches, probe, args.seconds)
        else:
            metrics, checks, record = run_untraced(batches, probe, runner, args.seconds,
                                                   SystemConfig().n_antennas)
            problems = []

    problems += [p for c in checks for p in c.problems]
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "trials_per_batch": workload.trials_per_batch,
              **record, "metrics": metrics, "problems": problems[:20],
              "environment": environment(numpy, beamspace_noma, probe)}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(c.rows for c in checks),
                      "failed": sum(c.failed for c in checks),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
