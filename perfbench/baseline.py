"""Run every workload of BENCHMARK.json on several seeds and summarise.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Each workload gets `--runs` untraced runs on consecutive seeds and one traced
run on the first seed, all at the benchmark's `run_seconds`. For every
end-to-end metric the summary holds the values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median, which
must stay below the metric's bound. Runs are sequential; stderr gets a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (run record, result line)."""
    done = subprocess.run([*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            record, result = bench(spec, workload, seed, 0)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        trace_record, trace_result = bench(spec, workload, seeds[0], 1)
        ok &= trace_result["correct"]
        summary["environment"] = record["environment"]
        summary["workloads"][workload] = {
            "end_to_end": {name: summarise(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in trace_result["metrics"].items()},
            "trace_counters": trace_record["counters"],
        }
        for name, s in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload:10s} {name:15s} median {s['median']:12.4f} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]})", file=sys.stderr)
    summary["all_correct"] = ok
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
