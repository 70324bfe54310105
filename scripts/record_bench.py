"""Record one benchmark snapshot of the checkout in the current directory.

Run from the root of a checkout, with no options:

  python3 scripts/record_bench.py

It writes ``BENCH_<short commit>.json`` at the root of that checkout, holding:

- ``benchmark``: for every workload in BENCHMARK.json, the last line of
  standard output of the declared command with ``--workload W --seed 0
  --seconds <run_seconds> --trace 0``, parsed as JSON;
- ``default_sweep_wall_s``: the wall time of ``python -m periodic_bandits.cli
  sweep`` on a copy of experiments/default_sweep.json at workers 1 and 2,
  each writing to a temporary directory;
- ``tier1``: the wall time and summary line of the Tier-1 run (ROADMAP.md),
  and the criterion-4 fixture's set-up time, read from ``--durations=0``;
- ``host``: the commit, whether tracked files differed from it, the CPU
  count and the Python and numpy versions.

Times from different hosts or sessions do not compare: compare two files
only when they were written back to back on one host.
"""
from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy

# the set-up line of the module fixture that runs the default sweep, as
# ``--durations=0`` prints it: "2.74s setup    tests/...::test_criterion4a_..."
CRITERION4_SETUP = re.compile(r"^([0-9.]+)s setup\s+\S*::test_criterion4")


def run(cmd: list[str], root: str, env: dict, check: bool = True) -> tuple[float, str]:
    """(wall seconds, standard output) of ``cmd`` run in ``root``; fails if it
    fails, unless ``check`` is false."""
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=check)
    return time.perf_counter() - start, done.stdout


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def main() -> None:
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    commit = git(root, "rev-parse", "--short", "HEAD")

    benchmark = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        cmd = bench["command"] + ["--workload", name, "--seed", "0", "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        benchmark[name] = json.loads(run(cmd, root, env)[1].splitlines()[-1])

    with open(os.path.join(root, "experiments", "default_sweep.json")) as fh:
        sweep = json.load(fh)
    sweep_wall = {}
    for workers in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "sweep.json")
            with open(config, "w") as fh:
                json.dump({**sweep, "workers": workers}, fh)
            cmd = [sys.executable, "-m", "periodic_bandits.cli", "sweep", "--config", config,
                   "--out", os.path.join(tmp, "out")]
            sweep_wall[f"workers_{workers}"] = round(run(cmd, root, env)[0], 3)

    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
    tier1_wall, out = run(cmd, root, env, check=False)  # a failing test is recorded in the summary
    lines = out.splitlines()
    setups = [float(m.group(1)) for m in map(CRITERION4_SETUP.match, lines) if m]
    tier1 = {"wall_s": round(tier1_wall, 3), "summary": lines[-1].strip("= "),
             "criterion4_setup_s": max(setups) if setups else None}

    record = {
        "host": {"commit": commit, "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
                 "cpu_count": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
        "benchmark": benchmark,
        "default_sweep_wall_s": sweep_wall,
        "tier1": tier1,
    }
    path = os.path.join(root, f"BENCH_{commit}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
