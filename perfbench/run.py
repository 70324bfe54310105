"""Run one benchmark workload and print its metrics.

From the repository root:

  python3 perfbench/run.py --workload sweep_long --seed 0 --seconds 20 --trace 0

Every measurement runs in a fresh process (``workloads.py``) with the BLAS
threads pinned to 1. With ``--trace 0`` the end-to-end metrics come from one
timed process plus extra set-up-only processes for the set-up median. With
``--trace 1`` an untraced and a traced process each run the workload's fixed
minimum work, and the per-layer metrics come from the traced one. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (each with its value and unit). See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep_long", "detect_n500", "sweep_par")
SETUP_RUNS = 5        # fresh processes whose set-up times give setup_s
RUN_BUDGET_S = 170    # a whole run, all its processes, must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "epochs_per_s": "1/s",
    "ops_per_s": "1/s",
    "id_success_rate": "ratio",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def reap_session(pgid: int) -> None:
    """Kill whatever is left in a child's session and wait (up to 5 s) until it is gone."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args: list[str], deadline: float | None = None) -> dict:
    """Start workloads.py in a new session, wait for it (until the
    time.monotonic() ``deadline``), return its JSON line."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), *args,
           "--work-dir", os.path.join(OUT_DIR, "work"), "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        reap_session(proc.pid)
        proc.communicate()
        raise ChildFailed(f"{' '.join(args)} ran past the {RUN_BUDGET_S} s budget")
    finally:
        reap_session(proc.pid)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(main: dict, setups: list[float]) -> dict:
    wall = main["wall_s"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "epochs_per_s": main["epochs_per_unit"] / wall,
        "ops_per_s": main["ops_per_unit"] / wall,
        "id_success_rate": main["id_success_rate"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    import tracer  # per-layer names and units; the tracer is not installed here

    layers = traced["layers"]
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in tracer.LAYER_METRICS}
    overhead = traced["wall_s"] / plain["wall_s"]
    metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """The result object for one run; raises ChildFailed if a process fails."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--size", size]
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        plain = run_child(base + ["--fixed"], deadline)
        traced = run_child(base + ["--fixed", "--trace-dir", os.path.join(OUT_DIR, "trace", workload)], deadline)
        runs = [plain, traced]
        metrics = per_layer(plain, traced)
    else:
        setups = [run_child(base + ["--setup-only"], deadline)["setup_scaled"] for _ in range(SETUP_RUNS - 1)]
        main = run_child(base, deadline)
        runs = [main]
        metrics = end_to_end(main, setups + [main["setup_scaled"]])
    attempted = sum(len(r["durations"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "durations": [r["durations"] for r in runs],
            "calibrations": [r["calibrations"] for r in runs],
            "errors": [e for r in runs for e in r["errors"]],
            "env": runs[0]["env"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "periodic_bandits", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'periodic_bandits')}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    details = result.pop("details")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
