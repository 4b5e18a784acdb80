"""Spans and counters around the simulator's public functions.

The tracer replaces a function in every module namespace that binds it, so a
caller that imported the name directly (`from .rates import link_gains`) is
traced as well as one that looks it up on the module. Each wrapper records
calls, total time and self time (its span minus the child spans it covers)
under the function's canonical name, plus an optional counter read from the
public return value. Nothing inside the package is modified.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

# canonical name -> counter read from the return value (None: calls only)
TARGETS = {
    "runner.sweep": None,
    "runner.run_trial": None,
    "runner.build_noma_link": None,
    "channel.sample_realization": None,
    "beams.select_beams": None,
    "beams.reorder": None,
    "precoding.top_left_singular_vector": None,
    "precoding.zf_precoder": None,
    "power.allocate": lambda alloc: alloc.iterations_used,
    "power.update_p": lambda result: result[1].rounds,
    "rates.link_gains": None,
    "rates.interference_vector": None,
    "rates.sum_rate": None,
    "baselines.fully_digital_zf": None,
    "baselines.beamspace_mimo_single_user": None,
    "baselines.mimo_oma": None,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0  # sum of the target's counter over its calls

    def add(self, other: "SpanStats", time_scale: float = 1.0) -> None:
        self.calls += other.calls
        self.count += other.count
        self.total_s += other.total_s * time_scale
        self.self_s += other.self_s * time_scale


def counters(stats: dict[str, SpanStats]) -> dict[str, tuple[int, int]]:
    """The deterministic part of a trace: calls and counter sums."""
    return {name: (s.calls, s.count) for name, s in stats.items()}


class Tracer:
    """Install with `with Tracer(package_name) as tracer:`; read `stats`."""

    def __init__(self, package: str):
        self.package = package
        self.stats = {name: SpanStats() for name in TARGETS}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, stack, counter = self.stats[name], self._stack, TARGETS[name]

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
            if counter is not None:
                stats.count += counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for name in TARGETS:
            module_name, _, attr = name.partition(".")
            home = sys.modules.get(f"{self.package}.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
