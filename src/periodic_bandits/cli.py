"""Command line entry points.

Subcommands:
  constants  print the deterministic detection constants for (n, g) as JSON
  detect     estimate the period of a CSV sample series
  sweep      run a config across its horizon list (or at its instance
             horizon if it lists none) and write outputs
  report     rebuild summary.json / regret_curves.csv from raw outputs

Every subcommand exits with a one-line message, not a traceback, on a bad
argument, a config with a misspelt or unknown key, or a CSV, config or run
directory file that cannot be read; the message names that file, if there is one.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import spectral
from .harness import monte_carlo, report_from_dir


def _cmd_constants(args: argparse.Namespace) -> int:
    c = spectral.threshold_constants(args.n, args.g, args.sigma, args.H)
    sig_c, b_c = spectral.amplitude_condition_coefficients(c)
    row = {
        "n": c.n,
        "g": c.g,
        "H": c.H,
        "u1": c.u1,
        "u2": c.u2,
        "eps_bar": c.eps_bar,
        "sigma_coeff": sig_c,
        "B_coeff": b_c,
        "failure_bound": spectral.failure_probability_bound(c.n, args.K, c.H),
        "K": args.K,
    }
    json.dump(row, sys.stdout, indent=2)
    print()
    return 0


def _read_series(path: str) -> tuple[list[float], range]:
    """Samples from a detect CSV, and their epochs: a range, from 1 if there is no epoch column.

    The first nonblank row may be a header; a row of more than two columns,
    any other row that does not parse as numbers, a non-finite value, and an
    epoch column that does not count up by one each raise ``ValueError``
    naming the line; a file that cannot be opened raises it with the reason.
    """
    samples: list[float] = []
    epochs: list[int] = []
    header_allowed = True
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(exc.strerror) from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            parts = [p.strip() for p in line.replace(";", ",").split(",") if p.strip()]
            if not parts:
                continue
            if len(parts) > 2:
                raise ValueError(
                    f"line {lineno}: {len(parts)} columns in {line.strip()!r};"
                    " a row is one value or epoch,value"
                )
            try:
                nums = [float(p) for p in parts]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ValueError(f"line {lineno}: non-numeric row {line.strip()!r}")
            header_allowed = False
            if not all(math.isfinite(x) for x in nums):
                raise ValueError(f"line {lineno}: non-finite value in {line.strip()!r}")
            if len(nums) == 1:
                samples.append(nums[0])
                continue
            if not nums[0].is_integer():
                raise ValueError(f"line {lineno}: epoch {parts[0]} is not an integer")
            if epochs and nums[0] != epochs[-1] + 1:
                raise ValueError(
                    f"line {lineno}: epoch {parts[0]} does not follow epoch {epochs[-1]};"
                    " the epoch column must count up by one"
                )
            epochs.append(int(nums[0]))
            samples.append(nums[1])
    if not samples:
        raise ValueError("no numeric samples found")
    if epochs and len(epochs) != len(samples):
        raise ValueError("epoch column must cover every row")
    first = epochs[0] if epochs else 1
    return samples, range(first, first + len(samples))  # checked above to count up by one


def _cmd_detect(args: argparse.Namespace) -> int:
    samples, epochs = _read_series(args.csv)
    if args.t_max is not None and args.t_max < 2:
        raise ValueError(f"--t-max must be at least 2, got {args.t_max}")
    c = spectral.threshold_constants(len(samples), args.g, args.sigma, args.H, args.t_max)
    if c.t_max < 2:
        # no period is representable: refuse rather than report period 1
        raise ValueError(f"n={c.n} samples at g={c.g} give t_max={c.t_max}: no period is below n/(2g)")
    (est,) = spectral.estimate_periods([(samples, epochs)], c.n, c.g, c.H, c.sigma, c.t_max)[1]
    out = {
        "identified": [str(f) for f in est.identified],
        "period": est.period_estimate,
        "threshold": est.threshold,
        "failure_bound": spectral.failure_probability_bound(c.n, 1, c.H),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _load_config(path: str) -> dict:
    """The JSON object in ``path``. A file that cannot be read raises
    ``ValueError`` as a bad config does; an output that cannot be written
    does not, since that is no fault of the config."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValueError(exc.strerror) from None
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def _cmd_sweep(args: argparse.Namespace) -> int:
    monte_carlo(_load_config(args.config), out_dir=args.out)
    print(f"wrote outputs to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report_from_dir(args.indir)
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
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=int, default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="run a config across its horizons, or at its instance horizon")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="rebuild summaries from raw outputs")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a ``ValueError`` exits with one line, prefixed by
    the CSV or config path the subcommand read, if any."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        path = getattr(args, "csv", None) or getattr(args, "config", None)
        raise SystemExit(f"{path}: {exc}" if path else str(exc)) from None


if __name__ == "__main__":
    raise SystemExit(main())
