"""Self-test of the benchmark, at tiny sizes (about half a minute).

From the repository root:

  python3 perfbench/selftest.py

Checks that
  - every workload, untraced and traced, passes its output checks and emits
    every metric BENCHMARK.json names, with the unit it declares;
  - the tracer puts every attribute it wrapped back, identical to the
    original, after a traced sweep;
  - run.py exits non-zero without printing a result when the package source
    is missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SEED = 3
for _var in run.THREAD_VARS:  # before this process imports numpy
    os.environ[_var] = "1"


def check_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload list differs"
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result = run.measure(workload, SEED, seconds=0.2, trace=trace, size="tiny")
            assert result["correct"] and result["failed"] == 0, (workload, result["details"]["errors"])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))} or units differ"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
                if key == "end_to_end" and name != "id_success_rate":  # tiny blocks cannot resolve a period
                    assert m["value"] > 0, (workload, name, m)
            print(f"ok  {workload} {key}: {len(got)} metrics")


def check_tracer_restores() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import tracer
    from periodic_bandits import harness

    t = tracer.Tracer(os.path.join(run.OUT_DIR, "selftest-trace"))
    tracer.install(t)
    wrapped = list(t._saved)
    assert wrapped, "nothing was wrapped"
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    config = {
        "instance": {"preset": "sweep_default", "params": {"sigma": 0.04}},
        "policies": [{"id": p} for p in tracer.POLICY_IDS],
        "horizons": [300, 600], "replications": 1, "curve_points": 128, "workers": 2,
    }
    harness.monte_carlo(config)
    t.uninstall()
    t.collect()
    assert t.counters.get("harness.pool.workers") == 2 and any(s[4] != t.root_pid for s in t.spans), \
        "no spans gathered from the pool workers"
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    shutil.rmtree(t.spill_dir)
    print(f"ok  tracer restored {len(wrapped)} wrapped attributes")


def check_fails_without_source() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok  run.py fails without the package source")


if __name__ == "__main__":
    check_metrics()
    check_tracer_restores()
    check_fails_without_source()
    print("selftest passed")
