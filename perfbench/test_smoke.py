"""Smoke test of the benchmark: one-second runs of every workload in both
modes, the output checks on hand-made batches, and the refusal to run
without sources.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from checks import check_batch, digest_key  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_listed_workloads_exist():
    for entry in SPEC["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    record = json.loads(record_line)["record"]
    assert record["seed"] == 3 and record["trials"] >= 1 and record["samples"]
    assert set(record["environment"]) >= {"nproc", "blas_threads", "python", "numpy", "git_commit"}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


TINY = Workload(name="tiny", argv=(), trials_per_batch=1, snr_points=1, schemes=("noma",),
                nominal_batches_per_s=1.0, why="")
HEADER = ("trial,seed,snr_db,scheme,variant,k,n_rf,sum_rate_bpshz,"
          "energy_eff_bpshzw,dropped,drop_reason\n")
GOOD_JSON = b'{"seed": 5, "trials": 1}'


def csv_bytes(row: str) -> bytes:
    return (HEADER + row + "\n").encode()


def test_check_accepts_valid_batch_and_its_digest():
    data = csv_bytes("0,5,10.0,noma,strongest,4,2,3.5,1.2,0,")
    digests = {digest_key(TINY, 5): hashlib.sha256(data).hexdigest()}
    check = check_batch(TINY, 5, data, GOOD_JSON, digests)
    assert not check.problems and check.se_rows == 1 and check.failed == 0


@pytest.mark.parametrize("row", [
    "0,5,10.0,noma,strongest,4,2,nan,1.2,0,",      # kept row without a finite SE
    "0,5,10.0,noma,strongest,4,0,nan,nan,1,",      # dropped row without a reason
    "0,6,10.0,noma,strongest,4,2,3.5,1.2,0,",      # wrong seed column
])
def test_check_rejects_broken_rows(row):
    check = check_batch(TINY, 5, csv_bytes(row), GOOD_JSON, {})
    assert check.problems and check.failed == 1


def test_check_rejects_digest_mismatch():
    data = csv_bytes("0,5,10.0,noma,strongest,4,2,3.5,1.2,0,")
    check = check_batch(TINY, 5, data, GOOD_JSON, {digest_key(TINY, 5): "0" * 64})
    assert check.problems and check.failed == 1
