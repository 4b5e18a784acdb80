"""Recompute the CSV digests that the output checks compare against.

    python3 perfbench/make_digests.py > perfbench/digests.json

The digests pin the simulator's CSV bytes for batches 0 and 1 of workload
seeds 0..31, so regenerate them only when a change to the outputs is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
from checks import digest_key
from workloads import WORKLOADS

SEEDS = range(32)
BATCHES = range(2)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from beamspace_noma import cli

    digests = {}
    with run.scratch_dir() as out_dir:
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                batches = run.Batches(cli, workload, seed, out_dir)
                for i in BATCHES:
                    batches.run(i)
                    csv_bytes = Path(batches.out_base + ".csv").read_bytes()
                    key = digest_key(workload, batches.seed_of(i))
                    digests[key] = hashlib.sha256(csv_bytes).hexdigest()
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
