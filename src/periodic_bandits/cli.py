"""Command line entry points.

Subcommands:
  constants  print the deterministic detection constants for (n, g) as JSON
  detect     estimate the period of a CSV sample series
  simulate   run a config at a single horizon and write outputs
  sweep      run a config across its horizon list and write outputs
  report     rebuild summary.json / regret_curves.csv from raw outputs
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import spectral
from .harness import monte_carlo, report_from_dir


def _cmd_constants(args: argparse.Namespace) -> int:
    H = args.H if args.H is not None else spectral.default_H(args.n)
    u1, u2 = spectral.u_constants(args.n, args.g)
    sig_c, b_c = spectral.amplitude_condition_coefficients(args.n, args.g, H)
    row = {
        "n": args.n,
        "g": args.g,
        "H": H,
        "u1": u1,
        "u2": u2,
        "eps_bar": spectral.noise_bound(args.n, args.sigma, H),
        "sigma_coeff": sig_c,
        "B_coeff": b_c,
        "failure_bound": spectral.failure_probability_bound(args.n, args.K, H),
        "K": args.K,
    }
    json.dump(row, sys.stdout, indent=2)
    print()
    return 0


def _read_series(path: str) -> tuple[list[float], list[int]]:
    """Samples, and epochs if the file has an epoch column, from a detect CSV.

    The first nonblank row may be a header; a row of more than two columns,
    any other row that does not parse as numbers, a non-finite value, and an
    epoch column that does not count up by one each exit with a message naming
    the line.
    """
    samples: list[float] = []
    epochs: list[int] = []
    header_allowed = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = [p.strip() for p in line.replace(";", ",").split(",") if p.strip()]
            if not parts:
                continue
            if len(parts) > 2:
                raise SystemExit(
                    f"{path}, line {lineno}: {len(parts)} columns in {line.strip()!r};"
                    " a row is one value or epoch,value"
                )
            try:
                nums = [float(p) for p in parts]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise SystemExit(f"{path}, line {lineno}: non-numeric row {line.strip()!r}")
            header_allowed = False
            if not all(math.isfinite(x) for x in nums):
                raise SystemExit(f"{path}, line {lineno}: non-finite value in {line.strip()!r}")
            if len(nums) == 1:
                samples.append(nums[0])
                continue
            if not nums[0].is_integer():
                raise SystemExit(f"{path}, line {lineno}: epoch {parts[0]} is not an integer")
            if epochs and nums[0] != epochs[-1] + 1:
                raise SystemExit(
                    f"{path}, line {lineno}: epoch {parts[0]} does not follow epoch {epochs[-1]};"
                    " the epoch column must count up by one"
                )
            epochs.append(int(nums[0]))
            samples.append(nums[1])
    if not samples:
        raise SystemExit("no numeric samples found")
    if not epochs:
        epochs = list(range(1, len(samples) + 1))
    if len(epochs) != len(samples):
        raise SystemExit("epoch column must cover every row")
    return samples, epochs


def _cmd_detect(args: argparse.Namespace) -> int:
    samples, epochs = _read_series(args.csv)
    n = args.n if args.n is not None else len(samples)
    if n != len(samples):
        raise SystemExit(f"--n={args.n} but the file holds {len(samples)} samples")
    n, g, H = spectral.detector_parameters(n, args.g, args.H)
    t_max = args.t_max if args.t_max is not None else spectral.default_t_max(n, g)
    periods, estimates = spectral.estimate_periods(
        [(samples, epochs)], n, g, H, args.sigma, t_max=t_max
    )
    est = estimates[0]
    out = {
        "identified": [str(f) for f in est.identified],
        "period": est.period_estimate,
        "threshold": est.threshold,
        "failure_bound": spectral.failure_probability_bound(n, 1, H),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    config.pop("horizons", None)
    monte_carlo(config, out_dir=args.out)
    print(f"wrote outputs to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if "horizons" not in config:
        raise SystemExit("sweep config needs a 'horizons' list")
    monte_carlo(config, out_dir=args.out)
    print(f"wrote outputs to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report_from_dir(args.indir)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"rebuilt summary in {args.indir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="detection constants for (n, g)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--K", type=int, default=5)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("detect", help="estimate the period of a sample series")
    p.add_argument("csv", help="CSV of samples; one column, or epoch,value rows")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=int, default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="run a config at its instance horizon")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a config across its horizon list")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="rebuild summaries from raw outputs")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
