"""Every name the benchmark's tracer (perfbench/tracing.py) wraps by name must
still resolve to a function of the package, so a rename or a removal fails
here instead of dropping its span.

This does not check that the trial still calls those functions: a name can
resolve and yet read 0 in a trace. `runner.run_trial` now calls
`power.allocate_batch` and the `*_batch` baselines, so the traced
`power.allocate`, `power.update_p` and `baselines.*` spans read 0 on every
workload."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_package_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    targets = tracing.TARGETS
    assert targets
    for name in targets:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"beamspace_noma.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), name
