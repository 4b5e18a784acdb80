"""Output checks on one `cli.main` batch: recorded CSV digests and invariants
that hold for any seed."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

DIGESTS_PATH = Path(__file__).with_name("digests.json")
COLUMNS = {"trial", "seed", "scheme", "sum_rate_bpshz", "energy_eff_bpshzw",
           "dropped", "drop_reason"}


def digest_key(workload: Workload, batch_seed: int) -> str:
    return f"{workload.name}/seed={batch_seed}/trials={workload.trials_per_batch}"


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class BatchCheck:
    rows: int = 0
    dropped: int = 0
    se_sum: float = 0.0
    se_rows: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Records that count as failed: every row of a batch that broke a
        check, otherwise the dropped rows."""
        return self.rows if self.problems else self.dropped


def check_batch(workload: Workload, batch_seed: int, csv_bytes: bytes,
                json_bytes: bytes, digests: dict[str, str]) -> BatchCheck:
    out = BatchCheck()
    where = f"{workload.name} batch seed {batch_seed}"
    expected = digests.get(digest_key(workload, batch_seed))
    if expected is not None and hashlib.sha256(csv_bytes).hexdigest() != expected:
        out.problems.append(f"{where}: CSV sha256 differs from the recorded digest")

    reader = csv.DictReader(io.StringIO(csv_bytes.decode("utf-8")))
    rows = list(reader)
    out.rows = len(rows)
    if not COLUMNS <= set(reader.fieldnames or ()):
        out.problems.append(f"{where}: CSV header {reader.fieldnames}")
        out.rows = max(out.rows, workload.rows_per_batch)
        return out
    if out.rows != workload.rows_per_batch:
        out.problems.append(f"{where}: {out.rows} rows, expected {workload.rows_per_batch}")
        out.rows = max(out.rows, workload.rows_per_batch)
    trials = {r["trial"] for r in rows}
    if trials != {str(t) for t in range(workload.trials_per_batch)}:
        out.problems.append(f"{where}: trial indices {sorted(trials)}")
    if {r["seed"] for r in rows} != {str(batch_seed)}:
        out.problems.append(f"{where}: seed column does not match")
    if {r["scheme"] for r in rows} != set(workload.schemes):
        out.problems.append(f"{where}: schemes {sorted({r['scheme'] for r in rows})}")
    for r in rows:
        if r["dropped"] == "1":
            out.dropped += 1
            if not r["drop_reason"]:
                out.problems.append(f"{where}: dropped row without a reason")
            continue
        try:
            se, ee = float(r["sum_rate_bpshz"]), float(r["energy_eff_bpshzw"])
        except ValueError:
            se = ee = math.nan
        if not (math.isfinite(se) and math.isfinite(ee) and se >= 0.0):
            out.problems.append(f"{where}: kept row with SE {se}, EE {ee}")
            continue
        out.se_sum += se
        out.se_rows += 1

    try:
        payload = json.loads(json_bytes)
    except ValueError:
        payload = {}
    if payload.get("seed") != batch_seed or payload.get("trials") != workload.trials_per_batch:
        out.problems.append(f"{where}: JSON seed/trials do not match the run")
    return out
