"""Span tracer for the benchmark's traced runs.

The tracer replaces named public functions and methods of the package with
timing wrappers, from the benchmark's side: nothing under ``src/`` knows about
it. Each call records a span (name, start, end, parent, pid, self time) in
memory. Per-epoch calls (each policy's ``decide``/``observe`` and
``nested_cb_decide``, several hundred thousand per sweep) are folded into
per-name totals of calls, busy time and self time instead of being stored one
by one; their time still counts as child time of the enclosing span.

Pool workers are forked after the wrappers are installed, so they trace too.
A worker starts with empty buffers and appends them to a spill file after every
job, because the pool terminates its workers without running exit handlers.
``collect`` merges the spill files into the parent's buffers.

Only ``workloads.py --trace-dir`` imports this module; untraced runs never do.
Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans from different processes share one time base.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
from time import perf_counter

# (metric name, unit), in the order BENCHMARK.json lists them.
POLICY_IDS = ("two_stage", "oracle", "stationary_ucb", "lcm_ucb")
LAYER_METRICS = (
    [
        ("spectral.compute_periodogram.calls", "count"),
        ("spectral.compute_periodogram.busy_s", "s"),
        ("spectral.compute_periodogram.grid_points", "count"),
        ("spectral.identify_frequencies.busy_s", "s"),
        ("spectral.identify_frequencies.peaks", "count"),
        ("spectral.identify_frequencies.match_ratio", "ratio"),
        ("spectral.estimate_periods.calls", "count"),
        ("spectral.estimate_periods.busy_s", "s"),
        ("spectral.estimate_periods.p50_ms", "ms"),
        ("spectral.estimate_periods.p90_ms", "ms"),
        ("spectral.threshold_constants.busy_s", "s"),
        ("policies.nested_cb_decide.calls", "count"),
        ("policies.nested_cb_decide.busy_s", "s"),
        ("policies.nested_cb_decide.explore_ratio", "ratio"),
        ("policies.nested_cb_decide.mean_round", "round"),
    ]
    + [(f"policies.{pid}.{op}_s", "s") for pid in POLICY_IDS for op in ("decide", "observe")]
    + [
        ("policies.forced_pulls", "count"),
        ("env.noise_stream.calls", "count"),
        ("env.noise_stream.busy_s", "s"),
        ("env.pseudo_regret.busy_s", "s"),
        ("harness.run_episode.calls", "count"),
        ("harness.run_episode.busy_s", "s"),
        ("harness.run_episode.self_s", "s"),
        ("harness.run_episode.p50_ms", "ms"),
        ("harness.run_episode.p90_ms", "ms"),
        ("harness.resolve_instance.busy_s", "s"),
        ("harness.aggregate.busy_s", "s"),
        ("harness.write_outputs.busy_s", "s"),
        ("harness.write_outputs.bytes", "B"),
        ("harness.report_from_dir.busy_s", "s"),
        ("harness.pool.busy_s", "s"),
        ("harness.pool.efficiency", "ratio"),
        ("harness.pool.tail_idle_s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
    ]
)


class Tracer:
    """Installs timing wrappers and keeps their spans until ``collect``."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[tuple] = []          # (name, start, end, parent, pid, self_s)
        self.folded: dict[str, list] = {}     # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []          # open spans: [child_s, name]
        self._saved: list[tuple] = []         # (owner, attr, original)
        self.active = False
        os.makedirs(spill_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- wrapping ---------------------------------------------------------

    def _make_wrapper(self, fn, name, folded=False, on_result=None):
        """Timing wrapper around ``fn``; ``name`` is a string or a function of
        the call's positional arguments (to label a method by its instance)."""
        stack, spans, folds = self._stack, self.spans, self.folded
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = stack[-1][1] if stack else None
            cell = [0.0, label]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                if folded:
                    rec = folds.get(label)
                    if rec is None:
                        rec = folds[label] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - cell[0]
                else:
                    spans.append((label, start, end, parent, tracer.pid, dur - cell[0]))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, folded=False, on_result=None) -> None:
        """Replace ``owner.attr`` (a module global or a class's own method)."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._make_wrapper(original, name, folded, on_result))
        self._saved.append((owner, attr, original))

    def wrap_pool(self, owner) -> None:
        """Time pool start-up and ``map`` for pools made through ``owner.Pool``."""
        original = vars(owner)["Pool"]
        tracer = self

        def start_pool(processes=None, *args, **kwargs):
            pool = original(processes, *args, **kwargs)
            tracer.counters["harness.pool.workers"] = processes or os.cpu_count()
            pool.map = tracer._make_wrapper(pool.map, "harness.pool.map")
            return pool

        setattr(owner, "Pool", self._make_wrapper(start_pool, "harness.pool.start"))
        self._saved.append((owner, "Pool", original))

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    # -- pool workers -----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self.spans.clear()
        self.folded.clear()
        self.counters.clear()
        self._stack.clear()

    def spill_if_worker(self) -> None:
        """In a pool worker, append the buffers to this worker's spill file."""
        if self.pid == self.root_pid:
            return
        record = {"spans": self.spans, "folded": self.folded, "counters": self.counters}
        with open(os.path.join(self.spill_dir, f"spill-{self.pid}.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans.clear()
        self.folded.clear()
        self.counters.clear()

    def collect(self) -> None:
        """Merge the workers' spill files into this process's buffers."""
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("spill-"):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.spans.extend(tuple(s) for s in rec["spans"])
                    for label, (calls, busy, self_s) in rec["folded"].items():
                        mine = self.folded.setdefault(label, [0, 0.0, 0.0])
                        mine[0] += calls
                        mine[1] += busy
                        mine[2] += self_s
                    for key, value in rec["counters"].items():
                        if key == "harness.pool.workers":
                            continue
                        self.add(key, value)
            os.remove(path)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "folded": self.folded, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------

def _count_grid(tracer, args, pg) -> None:
    tracer.add("grid_points", pg.grid.size * pg.n)


def _count_peaks(tracer, args, est) -> None:
    tracer.add("peaks", len(est.trace))
    tracer.add("matches", len(est.identified))


def _count_round(tracer, args, result) -> None:
    _, s = result
    if s is not None:
        tracer.add("explore", 1)
        tracer.add("round_sum", s)


def _count_forced(tracer, args, result) -> None:
    tracer.add("forced_pulls", sum(1 for e in result.events if e[1] == "zero_count_forced_pull"))


def _count_bytes(tracer, args, result) -> None:
    out_dir = args[2]
    tracer.add("write_bytes", sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
    ))


def _after_job(tracer, args, result) -> None:
    tracer.spill_if_worker()


def _method_label(op: str):
    labels: dict[str, str] = {}

    def label(args) -> str:
        pid = args[0].policy_id
        name = labels.get(pid)
        if name is None:
            name = labels[pid] = f"policies.{pid}.{op}"
        return name

    return label


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points used by the workloads."""
    from periodic_bandits import cli, env, harness, policies, spectral

    w = tracer.wrap
    w(spectral, "compute_periodogram", "spectral.compute_periodogram", on_result=_count_grid)
    w(spectral, "identify_frequencies", "spectral.identify_frequencies", on_result=_count_peaks)
    w(spectral, "threshold_constants", "spectral.threshold_constants")
    w(spectral, "estimate_periods", "spectral.estimate_periods")
    w(policies, "estimate_periods", "spectral.estimate_periods")
    w(policies, "nested_cb_decide", "policies.nested_cb_decide", folded=True, on_result=_count_round)
    for cls in (policies.TwoStagePolicy, policies.StationaryUCB, policies.LcmUCB):
        w(cls, "decide", _method_label("decide"), folded=True)
        w(cls, "observe", _method_label("observe"), folded=True)
    w(env.BanditInstance, "noise_stream", "env.noise_stream")
    w(harness, "pseudo_regret", "env.pseudo_regret")
    w(harness, "run_episode", "harness.run_episode", on_result=_count_forced)
    w(harness, "resolve_instance", "harness.resolve_instance")
    w(harness, "aggregate", "harness.aggregate")
    w(harness, "write_outputs", "harness.write_outputs", on_result=_count_bytes)
    w(harness, "report_from_dir", "harness.report_from_dir")
    w(cli, "report_from_dir", "harness.report_from_dir")
    w(harness, "monte_carlo", "harness.monte_carlo")
    w(cli, "monte_carlo", "harness.monte_carlo")
    w(harness, "_run_job", "harness.job", on_result=_after_job)
    tracer.wrap_pool(harness)
    w(cli, "main", "cli.main")
    tracer.active = True


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000.0


def _pool_stats(spans: list[tuple], workers: int) -> tuple[float, float]:
    """(efficiency, tail idle seconds) summed over every pool map."""
    busy = capacity = tail = 0.0
    for name, start, end, _, pid, _ in spans:
        if name != "harness.pool.map":
            continue
        last_end: dict[int, float] = {}
        for j_name, j_start, j_end, _, j_pid, _ in spans:
            if j_name == "harness.job" and j_pid != pid and start <= j_start <= end:
                busy += j_end - j_start
                last_end[j_pid] = max(last_end.get(j_pid, j_start), j_end)
        capacity += workers * (end - start)
        if last_end:
            tail += end - min(last_end.values())
    return (busy / capacity if capacity else 0.0), tail


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the collected spans; 0 where a layer did not run."""
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for name, start, end, _, _, self_s in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + self_s
    for name, (calls, busy, self_s) in tracer.folded.items():
        durations.setdefault(name, [])
        self_time[name] = self_time.get(name, 0.0) + self_s
    c = tracer.counters

    def calls(name):
        return tracer.folded[name][0] if name in tracer.folded else len(durations.get(name, ()))

    def busy(name):
        return tracer.folded[name][1] if name in tracer.folded else sum(durations.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    nested = "policies.nested_cb_decide"
    efficiency, tail = _pool_stats(tracer.spans, int(c.get("harness.pool.workers", 0)))
    out = {
        "spectral.compute_periodogram.calls": calls("spectral.compute_periodogram"),
        "spectral.compute_periodogram.busy_s": busy("spectral.compute_periodogram"),
        "spectral.compute_periodogram.grid_points": c.get("grid_points", 0),
        "spectral.identify_frequencies.busy_s": busy("spectral.identify_frequencies"),
        "spectral.identify_frequencies.peaks": c.get("peaks", 0),
        "spectral.identify_frequencies.match_ratio": ratio(c.get("matches", 0), c.get("peaks", 0)),
        "spectral.estimate_periods.calls": calls("spectral.estimate_periods"),
        "spectral.estimate_periods.busy_s": busy("spectral.estimate_periods"),
        "spectral.estimate_periods.p50_ms": _percentile_ms(durations.get("spectral.estimate_periods", []), 50),
        "spectral.estimate_periods.p90_ms": _percentile_ms(durations.get("spectral.estimate_periods", []), 90),
        "spectral.threshold_constants.busy_s": busy("spectral.threshold_constants"),
        f"{nested}.calls": calls(nested),
        f"{nested}.busy_s": busy(nested),
        f"{nested}.explore_ratio": ratio(c.get("explore", 0), calls(nested)),
        f"{nested}.mean_round": ratio(c.get("round_sum", 0), c.get("explore", 0)),
        "policies.forced_pulls": c.get("forced_pulls", 0),
        "env.noise_stream.calls": calls("env.noise_stream"),
        "env.noise_stream.busy_s": busy("env.noise_stream"),
        "env.pseudo_regret.busy_s": busy("env.pseudo_regret"),
        "harness.run_episode.calls": calls("harness.run_episode"),
        "harness.run_episode.busy_s": busy("harness.run_episode"),
        "harness.run_episode.self_s": self_time.get("harness.run_episode", 0.0),
        "harness.run_episode.p50_ms": _percentile_ms(durations.get("harness.run_episode", []), 50),
        "harness.run_episode.p90_ms": _percentile_ms(durations.get("harness.run_episode", []), 90),
        "harness.resolve_instance.busy_s": busy("harness.resolve_instance"),
        "harness.aggregate.busy_s": busy("harness.aggregate"),
        "harness.write_outputs.busy_s": busy("harness.write_outputs"),
        "harness.write_outputs.bytes": c.get("write_bytes", 0),
        "harness.report_from_dir.busy_s": busy("harness.report_from_dir"),
        "harness.pool.busy_s": busy("harness.pool.start") + busy("harness.pool.map"),
        "harness.pool.efficiency": efficiency,
        "harness.pool.tail_idle_s": tail,
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_time.get("cli.main", 0.0),
    }
    for pid in POLICY_IDS:
        for op in ("decide", "observe"):
            out[f"policies.{pid}.{op}_s"] = busy(f"policies.{pid}.{op}")
    return out
