"""Command line front end: `sim <mode>` with config-file and flag overrides."""

from __future__ import annotations

import argparse
import sys

from .config import build_config, load_config_file, parse_int_list, parse_schemes, parse_snr_spec
from .runner import sweep

# applied only when neither the config file nor a flag sets the field
MODE_DEFAULTS = {
    "sweep-snr": {},
    "sweep-users": {"snr_db": [10.0]},
    "convergence": {"snr_db": [10.0], "schemes": ["noma"]},
    "fairness": {"snr_db": [20.0], "schemes": ["noma"], "min_rate": 1.0},
}
MODE_NAMES = {"sweep-snr": "snr", "sweep-users": "users",
              "convergence": "convergence", "fairness": "fairness"}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    parser.add_argument("--snr", help="SNR points in dB, start:stop:step or comma list")
    parser.add_argument("--users", help="comma list of user counts for the user sweep")
    parser.add_argument("--schemes", help="comma list from noma,oma,beamspace_mimo,fully_digital")
    parser.add_argument("--variant", choices=["strongest", "svd"],
                        help="equivalent-channel construction")
    parser.add_argument("--rmin", type=float, help="per-user minimum rate in bps/Hz")
    parser.add_argument("--iters", type=int, help="power-allocation iteration cap")
    parser.add_argument("--out", help="output base path (writes <out>.csv and <out>.json)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Beamspace MIMO-NOMA link simulator: SNR/user sweeps, "
                    "power-allocation convergence, and fairness runs.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, desc in [
        ("sweep-snr", "spectrum/energy efficiency against SNR"),
        ("sweep-users", "spectrum/energy efficiency against user count"),
        ("convergence", "mean sum-rate trace of the power allocation"),
        ("fairness", "per-user rates under a minimum-rate constraint"),
    ]:
        _add_common_flags(sub.add_parser(name, help=desc))
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "variant": args.variant,
        "min_rate": args.rmin,
        "max_iters": args.iters,
        "out": args.out,
    }
    for key, flag, spec, parse in (("snr_db", "--snr", args.snr, parse_snr_spec),
                                   ("users_sweep", "--users", args.users, parse_int_list),
                                   ("schemes", "--schemes", args.schemes, parse_schemes)):
        try:
            overrides[key] = parse(spec) if spec is not None else None
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = _overrides(args)
        for key, value in MODE_DEFAULTS[args.mode].items():
            if key not in file_values and overrides.get(key) is None:
                overrides[key] = value
        config = build_config(file_values, overrides)
    except ValueError as exc:  # a bad value: exit with usage before any output is written
        parser.error(str(exc))
    result = sweep(config, MODE_NAMES[args.mode])
    for cell in result.summary:
        print(f"snr={cell['snr_db']:g} dB  k={cell['k']}  {cell['scheme']:<15} "
              f"SE {cell['mean_se']:.3f} +/- {cell['stderr_se']:.3f} bps/Hz  "
              f"EE {cell['mean_ee']:.3f} +/- {cell['stderr_ee']:.3f} bps/Hz/W  "
              f"({cell['trials']} trials, {cell['dropped']} dropped)")
    print(f"wrote {result.csv_path} and {result.json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
