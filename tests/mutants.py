"""Mutation checks: each mutant is one small edit to `src/` that named tests
must catch.

Every mutant names a file under `src/`, the exact old text (found exactly
once), the new text and the test ids that must fail on it. The script first
runs the union of those tests on an unmutated copy of `src/`, which must
pass; then, for each mutant, it applies the edit to a fresh temporary copy of
`src/` and runs its tests with `-x` against that copy. It exits non-zero,
naming each mutant that survives (its tests all pass) or no longer applies.

Run from anywhere: `python tests/mutants.py` (pytest does not collect this
file).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("the budget certificate without its pole guard",
           "beamspace_noma/power.py", "node > poles[row][0] and ", "",
           ("tests/test_budget_root.py::test_newton_pick_below_the_pole_never_certifies",)),
    Mutant("a zero numerator may hold the pole",
           "beamspace_noma/power.py", "np.where(numer > 0.0, denom_base, np.inf)",
           "np.where(numer >= 0.0, denom_base, np.inf)",
           ("tests/test_budget_root.py::test_zero_numerator_user_below_the_pole",)),
    Mutant("the power iteration's SVD fallback takes the unscaled matrix",
           "beamspace_noma/precoding.py", "np.linalg.svd(scaled)", "np.linalg.svd(mat)",
           ("tests/test_precoding.py::test_the_svd_fallback_takes_the_rescaled_matrix",)),
)


def _run_tests(src: Path, tests) -> bool:
    """Run the tests against the package under src; True if all pass."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return result.returncode == 0


def _copy_src(scratch: Path) -> Path:
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if not _run_tests(_copy_src(Path(scratch) / "clean"), tests):
            print("the mutants' tests fail on the unmutated source", file=sys.stderr)
            return 1
        for index, mutant in enumerate(MUTANTS):
            src = _copy_src(Path(scratch) / str(index))
            target = src / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                failures.append(f"{mutant.name}: old text found {text.count(mutant.old)} times")
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            killed = not _run_tests(src, mutant.tests)
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name}")
            if not killed:
                failures.append(f"{mutant.name}: survived {', '.join(mutant.tests)}")
    for failure in failures:
        print(f"mutant {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
