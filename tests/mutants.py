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

A known equivalent mutant, which no test can kill, is not listed:
`above <= total and ` put back into `power._certify`'s residual-zone test
(`total - above > tol` already implies it, and a NaN sum fails both).
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
    Mutant("the budget root without its non-finite guard",
           "beamspace_noma/power.py",
           '@np.errstate(divide="ignore", over="ignore", invalid="ignore")\n', "",
           ("tests/test_budget_root.py::test_library_allocation_on_an_ordinary_link_is_silent",)),
    Mutant("the fallback bisection stops on an absolute budget residual",
           "beamspace_noma/power.py", "total - p.sum() <= BUDGET_TOL * total",
           "total - p.sum() <= BUDGET_TOL",
           ("tests/test_properties.py::"
            "test_a_budget_scaled_by_4_to_the_s_keeps_every_record_but_the_energy_efficiency",)),
    Mutant("the budget certificate tests an absolute residual",
           "beamspace_noma/power.py", "BUDGET_TOL * totals[row]", "BUDGET_TOL",
           ("tests/test_budget_root.py::"
            "test_root_leaves_the_masked_form_once_every_denominator_is_positive",)),
    Mutant("the Newton steps place an absolute residual zone",
           "beamspace_noma/power.py", "(0.5 * BUDGET_TOL) * total", "(0.5 * BUDGET_TOL)",
           ("tests/test_budget_root.py::test_full_scale_roots_never_reach_the_fallback",)),
    Mutant("ZF takes every Gram inverse as certified",
           "beamspace_noma/precoding.py",
           "certified = n * residual <= 0.5 and bound <= CERT_LIMIT", "certified = True",
           ("tests/test_precoding.py::test_zf_certificate_matches_the_svd_check_on_a_seeded_sweep",)),
    Mutant("the power iteration capped at 30 steps",
           "beamspace_noma/precoding.py", "POWER_ITER_CAP = 10_000", "POWER_ITER_CAP = 30",
           ("tests/test_precoding.py::test_drawn_svd_links_never_reach_the_svd_fallback",)),
    Mutant("the dual ascent's stall factor 0.8",
           "beamspace_noma/power.py", "theta > 0.7 * prev_theta", "theta > 0.8 * prev_theta",
           ("tests/test_snr_batch.py::test_rows_stop_at_different_dual_rounds",)),
    Mutant("the dual ascent's flip factor 0.4",
           "beamspace_noma/power.py", "step * 0.5", "step * 0.4",
           ("tests/test_snr_batch.py::test_rows_stop_at_different_dual_rounds",)),
    Mutant("the dual ascent's first round not taken as the best so far",
           "beamspace_noma/power.py", "(violation < out_violation[live]) | (rounds == 1)",
           "(violation < out_violation[live])",
           ("tests/test_snr_batch.py::test_allocation_matches_per_budget_loop_on_a_small_link",)),
    Mutant("the dual ascent's best round keeps no multipliers",
           "beamspace_noma/power.py",
           "out_violation[live[better]], out_mu[live[better]] = violation[better], mu[better]",
           "out_violation[live[better]] = violation[better]",
           ("tests/test_snr_batch.py::test_allocation_matches_per_budget_loop_on_a_small_link",)),
    Mutant("the order repair without its precoder rebuild",
           "beamspace_noma/runner.py",
           "grouping = beams.reorder(grouping, repairs)\n"
           "        precoder = precoding.zf_precoder(precoding.make_equivalent(grouping, variant))",
           "grouping = beams.reorder(grouping, repairs)",
           ("tests/test_snr_batch.py::test_run_trial_matches_per_snr_reference_with_min_rate",)),
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
