"""Experiment configuration: defaults, flat key=value config files, CLI parsing."""

from __future__ import annotations

import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import ChannelParams
from .power import OptimizerConfig
from .rates import LinkBudget, PowerModel

ALL_SCHEMES = ("noma", "oma", "beamspace_mimo", "fully_digital")
ONE_USER_PER_CHAIN = ("beamspace_mimo", "fully_digital")  # schemes that need K <= N
VARIANTS = ("strongest", "svd")
MAX_SNR_POINTS = 1000  # points a start:stop:step SNR range may expand to


def _plain(name: str, kind: str, value):
    """`value` as the plain Python numbers of a field annotated `kind` (int,
    float or a list of either); 2.5 for an int raises a ValueError naming `name`."""
    if kind.startswith("list["):
        return [_plain(name, kind[5:-1], v) for v in value]
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and (
            kind == "float" or float(value).is_integer())):
        return int(value) if kind == "int" else float(value)
    raise ValueError(f"{name} must be {'an integer' if kind == 'int' else 'a number'}, "
                     f"got {value!r}")


@dataclass
class SystemConfig:
    """Every scenario constant of one experiment run."""

    n_antennas: int = 256
    n_users: int = 32
    n_nlos: int = 2
    total_power_mw: float = 32.0
    los_variance: float = 1.0
    nlos_variance: float = 0.1
    snr_db: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    users_sweep: list[int] = field(default_factory=lambda: [8, 16, 24, 32])
    trials: int = 200
    seed: int = 1
    max_iters: int = 20
    min_rate: float = 0.0
    rf_chain_mw: float = 300.0
    switch_mw: float = 5.0
    baseband_mw: float = 200.0
    schemes: list[str] = field(default_factory=lambda: list(ALL_SCHEMES))
    variant: str = "strongest"
    out: str = "results"
    workers: int = 1

    def __post_init__(self):
        # numbers are stored plain, so numpy scalars never reach the CSV
        for f in fields(self):
            if f.type in ("int", "float", "list[int]", "list[float]"):
                setattr(self, f.name, _plain(f.name, f.type, getattr(self, f.name)))
        bad_snr = [s for s in self.snr_db if not math.isfinite(s)]
        if bad_snr:
            raise ValueError(f"SNR points must be finite, got {bad_snr}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.total_power_mw) and self.total_power_mw > 0):
            raise ValueError(f"total power (total_power_mw) must be finite and > 0 mW, "
                             f"got {self.total_power_mw}")
        if any(k < 1 for k in self.users_sweep):
            raise ValueError(f"user sweep entries must be >= 1, got {self.users_sweep}")
        # an empty list leaves nothing to run; a repeated entry doubles its
        # records and understates the standard errors
        for name in ("schemes", "snr_db", "users_sweep"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
            repeated = [v for v, count in Counter(getattr(self, name)).items() if count > 1]
            if repeated:
                raise ValueError(f"{name} repeats {repeated}; list each entry once")
        # the component constructors check antennas, users, paths, variances,
        # power-model constants, iteration cap, minimum rate, SNR noise powers and out
        self.channel_params()
        self.power_model()
        self.optimizer_config()
        for snr_db in self.snr_db:
            self.budget(snr_db)
        self.output_paths()
        unknown = [s for s in self.schemes if s not in ALL_SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; expected subset of {ALL_SCHEMES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        one_per_chain = [s for s in self.schemes if s in ONE_USER_PER_CHAIN]
        if one_per_chain and self.n_users > self.n_antennas:
            raise ValueError(f"schemes {one_per_chain} need n_users <= n_antennas, "
                             f"got n_users={self.n_users}, n_antennas={self.n_antennas}")

    def channel_params(self) -> ChannelParams:
        return ChannelParams(n_antennas=self.n_antennas, n_users=self.n_users,
                             n_nlos=self.n_nlos, los_var=self.los_variance,
                             nlos_var=self.nlos_variance)

    def budget(self, snr_db: float) -> LinkBudget:
        return LinkBudget.from_snr(self.total_power_mw, snr_db, self.n_users)

    def power_model(self) -> PowerModel:
        return PowerModel(rf_chain_mw=self.rf_chain_mw, switch_mw=self.switch_mw,
                          baseband_mw=self.baseband_mw)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(max_iters=self.max_iters, min_rate=self.min_rate)

    def output_paths(self) -> tuple[str, str]:
        """`<out>` minus a trailing `.csv`, plus `.csv` and `.json`; a base naming no file fails."""
        base = self.out.removesuffix(".csv")
        if os.path.basename(base) in ("", ".", ".."):
            raise ValueError(f"out must name a file (the run writes <out>.csv and "
                             f"<out>.json), got {self.out!r}")
        return base + ".csv", base + ".json"

    def with_users(self, n_users: int) -> "SystemConfig":
        return replace(self, n_users=n_users)


def parse_snr_spec(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive stop) or a comma list of dB points."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR spec must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"SNR range start, stop and step must be finite, got {spec!r}")
        if step <= 0:
            raise ValueError(f"SNR step must be > 0, got {step}")
        if stop < start:
            raise ValueError(f"SNR range {spec!r} runs down: stop {stop:g} is below "
                             f"start {start:g}")
        size = (stop + step / 2.0 - start) / step  # np.arange's length before rounding up
        if size > MAX_SNR_POINTS:
            count = math.ceil(size) if math.isfinite(size) else size
            raise ValueError(f"SNR range {spec!r} has {count} points; "
                             f"at most {MAX_SNR_POINTS} are allowed")
        return [float(v) for v in np.arange(start, stop + step / 2.0, step)]
    return _parse_list(spec, float)


def _parse_list(spec: str, parse) -> list:
    """The non-empty entries of a comma list, each through `parse`."""
    values = [parse(p) for p in spec.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected at least one comma-separated entry, got {spec!r}")
    return values


def parse_int_list(spec: str) -> list[int]:
    return _parse_list(spec, int)


# one parser per field annotation (a string under `from __future__ import annotations`)
_TYPE_PARSERS = {"int": int, "float": float, "str": str.strip,
                 "list[float]": parse_snr_spec, "list[int]": parse_int_list,
                 "list[str]": lambda spec: _parse_list(spec, str.strip)}
FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(SystemConfig)}


def parse_field(name: str, text: str, where: str):
    """`text` through field `name`'s parser; a parse error is prefixed with `where`."""
    try:
        return FIELD_PARSERS[name](text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_config_file(path: str) -> dict:
    """Read a flat key = value config file into typed SystemConfig fields.

    Blank lines and '#' comments are ignored; unknown and repeated keys are errors.
    """
    values: dict = {}
    first_line: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in FIELD_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(FIELD_PARSERS))})")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats; "
                             f"line {first_line[key]} sets it first")
        first_line[key] = lineno
        values[key] = parse_field(key, value.strip(),
                                  f"{path}:{lineno}: bad value for {key!r}")
    return values


def build_config(file_values: dict, overrides: dict) -> SystemConfig:
    """Defaults, then config-file values, then explicit overrides (CLI flags)."""
    merged = {**file_values, **overrides}
    unknown = set(merged) - FIELD_PARSERS.keys()
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    return SystemConfig(**merged)
