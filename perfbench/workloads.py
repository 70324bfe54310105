"""One benchmark measurement in a fresh process.

Sets up one workload, runs its unit of work repeatedly, checks every output,
and prints one JSON line with the raw measurements. ``run.py`` starts this
script with the BLAS threads pinned and ``PYTHONPATH=src``, and turns its
output into metrics. To run it alone, from the repository root:

  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/workloads.py \
      --workload detect_n500 --seed 0 --seconds 5
"""
from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

import numpy as np

from periodic_bandits import cli, harness, policies, spectral
from periodic_bandits.env import BanditInstance, MeanProfile, NoiseModel
from run import THREAD_VARS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEED = 0
DFT_TOL = 1e-12
SWEEP_POLICIES = ("two_stage", "oracle", "stationary_ucb", "lcm_ucb")

# A unit is the work timed as one sample: one monte_carlo call (sweep_long),
# one `sweep` + `report` CLI pair (sweep_par) or one block (detect_n500).
# ``min_units`` is also the exact work of a --fixed run. detect_n500 needs
# every distinct block once, and at least 100 blocks so that the 90th
# percentile of block latency has ten samples beyond it.
SIZES = {
    "full": {
        "sweep_long": {"horizons": [20000, 40000], "replications": 1, "min_units": 3},
        "sweep_par": {"horizons": [2500, 5000, 10000, 20000, 40000], "replications": 1,
                      "workers": 2, "min_units": 3},
        "detect_n500": {"n": 500, "g": 23, "t_max": 10, "sigma": 0.3, "instances": 34,
                        "min_units": 102},
    },
    "tiny": {
        "sweep_long": {"horizons": [400, 800], "replications": 1, "min_units": 1},
        "sweep_par": {"horizons": [300, 600], "replications": 1, "workers": 2, "min_units": 1},
        "detect_n500": {"n": 50, "g": 8, "t_max": 10, "sigma": 0.3, "instances": 1,
                        "min_units": 3},
    },
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(workload: str, seed: int, size_name: str) -> dict | None:
    """Outputs recorded at the reference seed and full size, if any."""
    if seed != REFERENCE_SEED or size_name != "full" or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)


class Workload:
    """Set up in ``__init__``; ``run`` is timed, ``check`` and ``finish`` are not.

    ``check`` and ``finish`` return a list of failure messages.
    """

    name = ""
    ops_per_unit = 1      # episodes or blocks completed by one unit
    epochs_per_unit = 0   # epochs simulated or analysed by one unit

    def __init__(self, size_name: str, seed: int, work_dir: str):
        self.size = SIZES[size_name][self.name]
        self.work_dir = work_dir
        self.reference = load_reference(self.name, seed, size_name)
        os.makedirs(work_dir, exist_ok=True)

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def id_success_rate(self) -> float:
        raise NotImplementedError

    def observed(self) -> dict:
        """What a reference records for this workload."""
        raise NotImplementedError


class SweepWorkload(Workload):
    """What the two sweeps share: config, a_sup warm-up and the output checks."""

    def __init__(self, size_name, seed, work_dir):
        super().__init__(size_name, seed, work_dir)
        size = self.size
        self.config = {
            "instance": {"preset": "sweep_default", "params": {"sigma": 0.04}},
            "policies": [{"id": p} for p in SWEEP_POLICIES],
            "horizons": list(size["horizons"]),
            "replications": size["replications"],
            "base_seed": seed,
            "curve_points": 128,
            "workers": size.get("workers", 1),
        }
        runs = len(SWEEP_POLICIES) * size["replications"]
        self.ops_per_unit = runs * len(size["horizons"])
        self.epochs_per_unit = runs * sum(size["horizons"])
        self.hashes: dict | None = None
        self.success: float | None = None
        for T in size["horizons"]:  # fill spectral.a_sup's cache for every stage-one (n, g)
            n, g, H = policies.recommended_parameters(T, 3)
            spectral.threshold_constants(n, g, 0.04, H)

    def check_outputs(self, out_dir: str) -> list[str]:
        """CSV row count, and file hashes against the first unit and the reference."""
        errors = []
        hashes = {f: sha256_file(os.path.join(out_dir, f)) for f in ("regret_curves.csv", "summary.json")}
        with open(os.path.join(out_dir, "regret_curves.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        cfg = self.config
        expected = len(cfg["policies"]) * len(cfg["horizons"]) * cfg["replications"] * cfg["curve_points"]
        if rows != expected:
            errors.append(f"regret_curves.csv has {rows} rows, expected {expected}")
        if self.hashes is None:
            self.hashes = hashes
            if self.reference is not None and self.reference != hashes:
                errors.append(f"output hashes {hashes} differ from the reference {self.reference}")
        elif hashes != self.hashes:
            errors.append("outputs differ between identical units")
        return errors

    def note_success(self, raw_rows: list[dict]) -> None:
        """Record the two_stage identification rate of the first unit."""
        if self.success is None:
            succ = [r["success"] for r in raw_rows if r["policy"] == "two_stage"]
            self.success = sum(succ) / len(succ)

    def id_success_rate(self):
        return self.success

    def observed(self):
        return self.hashes


class SweepLong(SweepWorkload):
    """In-process monte_carlo, one worker, no output directory."""

    name = "sweep_long"

    def __init__(self, size_name, seed, work_dir):
        super().__init__(size_name, seed, work_dir)
        self.first = None

    def run(self, i):
        return harness.monte_carlo(self.config)

    def check(self, i, out):
        self.note_success(out["raw"])
        if self.first is None:
            self.first = out
        elif out["raw"] != self.first["raw"] or out["sweep_slopes"] != self.first["sweep_slopes"]:
            return ["results differ between identical units"]
        return []

    def finish(self):
        if self.first is None:
            return []
        out_dir = os.path.join(self.work_dir, "outputs")
        harness.write_outputs(self.config, self.first, out_dir)
        return self.check_outputs(out_dir)


class SweepPar(SweepWorkload):
    """`pbandit sweep` on a pool of workers, then `pbandit report` on its output."""

    name = "sweep_par"

    def __init__(self, size_name, seed, work_dir):
        super().__init__(size_name, seed, work_dir)
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        self.out_dir = os.path.join(work_dir, "run")

    def run(self, i):
        summary = os.path.join(self.out_dir, "summary.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--config", self.config_path, "--out", self.out_dir])
            with open(summary, "rb") as fh:
                written = fh.read()
            cli.main(["report", "--in", self.out_dir])
        return written

    def check(self, i, written):
        errors = []
        with open(os.path.join(self.out_dir, "summary.json"), "rb") as fh:
            if fh.read() != written:
                errors.append("report rebuilt a different summary.json")
        errors += self.check_outputs(self.out_dir)
        if self.success is None:
            rows = []
            raw = os.path.join(self.out_dir, "raw")
            for name in sorted(os.listdir(raw)):
                with open(os.path.join(raw, name)) as fh:
                    rows.extend(json.load(fh))
            self.note_success(rows)
        shutil.rmtree(self.out_dir)
        return errors


class DetectN500(Workload):
    """spectral.estimate_periods on one arm's stage-one block at a time."""

    name = "detect_n500"

    def __init__(self, size_name, seed, work_dir):
        super().__init__(size_name, seed, work_dir)
        size = self.size
        n = self.n = size["n"]
        self.g, self.t_max, self.sigma = size["g"], size["t_max"], size["sigma"]
        self.H = spectral.default_H(n)
        self.epochs_per_unit = n
        arms = (  # the criterion-3 profiles, periods 2, 3 and 4
            MeanProfile.from_values([1.0, 0.0]),
            MeanProfile.from_values([1.0, 0.0, 0.0]),
            MeanProfile.from_values([1.0, 0.0, 0.0, 0.0]),
        )
        self.blocks = []  # (samples, epochs, true period), cut like stage one cuts them
        for i in range(size["instances"]):
            inst = BanditInstance(arms, NoiseModel("gaussian", self.sigma), horizon=n * len(arms))
            eps = inst.noise_stream(seed * 1000 + i).values
            for k, arm in enumerate(arms):
                epochs = range(n * k + 1, n * (k + 1) + 1)
                samples = [arm.values[(t - 1) % arm.period] + float(eps[t - 1]) for t in epochs]
                self.blocks.append((samples, epochs, arm.period))
        self.found: dict[int, tuple[list[str], int]] = {}  # block -> (identified, period)
        spectral.threshold_constants(n, self.g, self.sigma, self.H)  # fills a_sup's cache

    def run(self, i):
        samples, epochs, _ = self.blocks[i % len(self.blocks)]
        _, estimates = spectral.estimate_periods(
            [(samples, epochs)], self.n, self.g, self.H, self.sigma, t_max=self.t_max
        )
        return estimates[0]

    def check(self, i, est):
        b = i % len(self.blocks)
        samples, epochs, _ = self.blocks[b]
        y = np.asarray(samples)
        t = np.asarray(epochs, dtype=float)
        errors = []
        for entry in est.trace:
            direct = abs(np.sum(y * np.exp(-2j * np.pi * entry["v_star"] * t))) / y.size
            if abs(direct - entry["magnitude"]) > DFT_TOL:
                errors.append(f"block {b}: magnitude {entry['magnitude']!r}, direct DFT {direct!r}")
        found = ([str(f) for f in est.identified], est.period_estimate)
        if self.found.setdefault(b, found) != found:
            errors.append(f"block {b}: identified {found[0]}, earlier {self.found[b][0]}")
        if self.reference is not None and self.reference["identified"][b] != found[0]:
            errors.append(f"block {b}: identified {found[0]}, reference {self.reference['identified'][b]}")
        return errors

    def id_success_rate(self):
        hits = [self.found[b][1] == self.blocks[b][2] for b in self.found]
        return sum(hits) / len(hits) if hits else None

    def observed(self):
        return {"identified": [self.found[b][0] for b in sorted(self.found)]}


WORKLOADS = {w.name: w for w in (SweepLong, DetectN500, SweepPar)}


def environment() -> dict:
    """Host and library facts recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class HostSpeed:
    """Calibration that rescales times to one reference host speed.

    The machines this runs on share their cores, and their speed drifts by up
    to a factor of 1.7 over seconds to minutes; interpreter-bound and
    numpy-bound code drift together (their time ratio stays within a few
    percent). So a run calibrates between its timed units, at least once a
    second, with a fixed mix of interpreter and numpy work that nothing in
    the package can speed up. A calibration is the shorter of two
    back-to-back runs of the mix, since an interruption can only lengthen a
    run. The run's time is its interquartile mean unit time x CAL_REF_S over
    the interquartile mean calibration: seconds at the host speed where one
    calibration takes CAL_REF_S. A workload that keeps ``processes`` cores
    busy is calibrated on as many cores at once (the mean of their runs), by
    helper processes that sleep while the units run.
    """

    CAL_REF_S = 0.035
    EVERY_S = 1.0  # calibrate after a unit once this long has passed since the last

    def __init__(self, processes: int = 1):
        t = np.arange(1, 501, dtype=float)
        self._y = np.sin(t)
        self._basis_arg = -2j * np.pi * np.outer(np.linspace(0.0, 0.5, 60), t)
        self.marks: list[tuple[int, float]] = []  # (units done, calibration seconds)
        self.last = 0.0
        self._helpers = []
        ctx = multiprocessing.get_context("spawn")
        for _ in range(processes - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs,), daemon=True)
            proc.start()
            mine.recv()  # ready
            self._helpers.append((proc, mine))
        self.calibrate()  # the first one runs cold

    def calibrate(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(10):
            float(np.abs(np.exp(self._basis_arg) @ self._y).sum())
        end = perf_counter()
        self.last = end
        return end - start

    def mark(self, units_done: int) -> None:
        for _, conn in self._helpers:
            conn.send(True)
        runs = [min(self.calibrate(), self.calibrate())] + [conn.recv() for _, conn in self._helpers]
        self.last = perf_counter()
        self.marks.append((units_done, sum(runs) / len(runs)))

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers.clear()

    def scale(self, durations: list[float]) -> float:
        """The rescaled interquartile mean of ``durations``."""
        return interquartile_mean(durations) * self.CAL_REF_S / interquartile_mean([c for _, c in self.marks])

    def scale_once(self, seconds: float) -> float:
        """Rescale one time with the shortest of three calibrations taken now."""
        return seconds * self.CAL_REF_S / min(self.calibrate() for _ in range(3))


def interquartile_mean(xs: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    xs = sorted(xs)
    k = len(xs) // 4
    return sum(xs[k:len(xs) - k]) / (len(xs) - 2 * k)


def _calibration_helper(conn) -> None:
    speed = HostSpeed()
    conn.send(True)
    while conn.recv():
        conn.send(min(speed.calibrate(), speed.calibrate()))


def measure(wl: Workload, seconds: float, fixed: bool, tracer=None) -> dict:
    """Run units until ``seconds`` have passed (at least ``min_units``), or
    exactly ``min_units`` when ``fixed``; check each unit's output."""
    min_units = wl.size["min_units"]
    speed = HostSpeed(processes=wl.size.get("workers", 1))
    durations: list[float] = []
    errors: list[str] = []
    failed = 0
    speed.mark(0)
    begin = perf_counter()
    i = 0
    while i < min_units or (not fixed and perf_counter() - begin < seconds):
        t0 = perf_counter()
        try:
            out = wl.run(i)
        except Exception:
            durations.append(perf_counter() - t0)
            traceback.print_exc()
            failed += 1
        else:
            durations.append(perf_counter() - t0)
            problems = wl.check(i, out)
            errors += problems
            failed += bool(problems)
        i += 1
        if perf_counter() - speed.last >= speed.EVERY_S:
            speed.mark(i)
    if speed.marks[-1][0] != i:
        speed.mark(i)
    rss = peak_rss_mb()  # before the calibration helpers are reaped and counted
    speed.close()
    if tracer is not None:
        tracer.uninstall()
    problems = wl.finish()
    errors += problems
    failed = min(len(durations), failed + bool(problems))
    return {"durations": durations, "wall_s": speed.scale(durations), "calibrations": speed.marks,
            "peak_rss_mb": rss, "failed": failed, "errors": errors[:20]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--t0", type=float, default=PROCESS_START,
                   help="time.monotonic() at which the parent started this process")
    p.add_argument("--work-dir", default=os.path.join(".perfbench_out", "work"))
    p.add_argument("--setup-only", action="store_true", help="report the set-up time and exit")
    p.add_argument("--fixed", action="store_true", help="run exactly the minimum number of units")
    p.add_argument("--trace-dir", default=None, help="trace the run, writing spans here")
    args = p.parse_args(argv)

    work_dir = os.path.join(args.work_dir, f"{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.size, args.seed, work_dir)
        setup_s = time.monotonic() - args.t0
        result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                  "setup_scaled": HostSpeed().scale_once(setup_s)}
        if not args.setup_only:
            tracer = None
            if args.trace_dir is not None:
                import tracer as tracing  # only traced runs import the tracer

                shutil.rmtree(args.trace_dir, ignore_errors=True)
                tracer = tracing.Tracer(args.trace_dir)
                tracing.install(tracer)
            result.update(measure(wl, args.seconds, args.fixed, tracer))
            result.update(
                ops_per_unit=wl.ops_per_unit,
                epochs_per_unit=wl.epochs_per_unit,
                id_success_rate=wl.id_success_rate(),
                observed=wl.observed(),
                env=environment(),
            )
            if tracer is not None:
                tracer.collect()
                tracer.write(os.path.join(args.trace_dir, "spans.json"))
                result["layers"] = tracing.layer_metrics(tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
