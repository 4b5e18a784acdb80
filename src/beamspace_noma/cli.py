"""Command line front end: `sim <mode>` with config-file and flag overrides.

Each flag parses like its config key, through `config.parse_field`. A value
that does not parse or describe a run, a config file that cannot be read or
repeats a key, a swept user count that a scheme cannot serve, and an `--out`
whose files cannot be made all exit with status 2 before any output is written.
"""

from __future__ import annotations

import argparse
import sys

from .config import ALL_SCHEMES, VARIANTS, build_config, load_config_file, parse_field
from .runner import sweep

# sim mode -> (runner.sweep mode, help, defaults under the config file and flags)
MODES = {
    "sweep-snr": ("snr", "spectrum/energy efficiency against SNR", {}),
    "sweep-users": ("users", "spectrum/energy efficiency against user count", {"snr_db": [10.0]}),
    "convergence": ("convergence", "mean sum-rate trace of the power allocation",
                    {"snr_db": [10.0], "schemes": ["noma"]}),
    "fairness": ("fairness", "per-user rates under a minimum-rate constraint",
                 {"snr_db": [20.0], "schemes": ["noma"], "min_rate": 1.0}),
}
# flag -> (SystemConfig field, help)
FLAGS = {
    "--seed": ("seed", "master seed"),
    "--trials": ("trials", "Monte Carlo trials per sweep point"),
    "--snr": ("snr_db", "SNR points in dB, start:stop:step or comma list"),
    "--users": ("users_sweep", "comma list of user counts for the user sweep"),
    "--schemes": ("schemes", f"comma list from {','.join(ALL_SCHEMES)}"),
    "--variant": ("variant", f"equivalent-channel construction: {' or '.join(VARIANTS)}"),
    "--rmin": ("min_rate", "per-user minimum rate in bps/Hz"),
    "--iters": ("max_iters", "power-allocation iteration cap"),
    "--out": ("out", "output base path (writes <out>.csv and <out>.json)"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Beamspace MIMO-NOMA link simulator: SNR/user sweeps, "
                    "power-allocation convergence, and fairness runs.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, (_, desc, _) in MODES.items():
        mode = sub.add_parser(name, help=desc)
        mode.add_argument("--config", help="flat key = value config file")
        for flag, (_, text) in FLAGS.items():
            mode.add_argument(flag, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    sweep_mode, _, defaults = MODES[args.mode]
    try:
        file_values = load_config_file(args.config) if args.config else {}
        flags = {name: parse_field(name, text, flag) for flag, (name, _) in FLAGS.items()
                 if (text := getattr(args, flag[2:])) is not None}
        config = build_config({**defaults, **file_values}, flags)
        if sweep_mode == "users":  # each swept cell validates its user count
            for k in config.users_sweep:
                config.with_users(k)
    except OSError as exc:  # the config file cannot be read
        parser.error(f"--config: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = sweep(config, sweep_mode)
    except OSError as exc:  # the output files cannot be made
        parser.error(f"--out: {exc}")
    for cell in result.summary:
        print(f"snr={cell['snr_db']:g} dB  k={cell['k']}  {cell['scheme']:<15} "
              f"SE {cell['mean_se']:.3f} +/- {cell['stderr_se']:.3f} bps/Hz  "
              f"EE {cell['mean_ee']:.3f} +/- {cell['stderr_ee']:.3f} bps/Hz/W  "
              f"({cell['trials']} trials, {cell['dropped']} dropped)")
    print(f"wrote {result.csv_path} and {result.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
