"""Experiment orchestration: episodes, Monte Carlo replication, aggregation.

Configs are plain JSON dicts. Replication r always uses seed base_seed + r, so
growing the replication count preserves the prefix of results, and noise is
keyed by (seed, epoch) so every policy in a run faces the identical noise
sequence. Parallel execution cannot change output bytes: the pool's rows are
put back in job order and reduced deterministically.

That shared noise also makes the oracle's episode the two_stage episode
whenever stage one identifies every period, so an ``oracle`` entry with the
``two_stage`` entry's params runs only where stage one got a period wrong;
elsewhere its row is a copy of the two_stage row (see ``monte_carlo``).

A job is one episode. Most jobs give the row of one (policy, horizon,
replication) cell, plus the coupled oracle's. A ``horizon_free`` policy
(``stationary_ucb``, ``per_phase_ucb``) never reads T, so on an instance that
is the same at every horizon its episode at a shorter horizon is a prefix of
the longest one: it gets one job per replication, at the longest horizon, and
that job's rows for every horizon are cut from its one episode.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from multiprocessing import Pool

import numpy as np

from . import __version__
from .env import BanditInstance, RunResult, _checked_keys, _checked_list, pseudo_regret, resolve_instance
from .policies import InstanceView, Policy, make_policy
from .spectral import _checked_int

CSV_HEADER = "policy,T,replication,t,cum_regret"
CONFIG_KEYS = ("instance", "policies", "horizons", "replications", "base_seed", "curve_points", "workers")
# what summarize and write_curves_csv read of a raw episode row
ROW_KEYS = ("policy", "T", "replication", "final_regret", "curve_t", "curve_regret", "success")


def run_episode(instance: BanditInstance, policy: Policy, seed: int) -> RunResult:
    """Play one full episode; deterministic in (instance, policy config, seed)."""
    stream = instance.noise_stream(seed)
    policy.begin(_view(instance, policy))
    # Python ints and floats in the loop, and one array at the end: numpy
    # scalar arithmetic and item assignment cost more per epoch. Each cycle
    # is rotated by one, so epoch t's mean sits at index t % period
    picked: list[int] = []
    append = picked.append
    profiles = [p.values[-1:] + p.values[:-1] for p in instance.arms]
    periods = instance.periods
    decide, observe = policy.decide, policy.observe
    for t, e in enumerate(stream.values.tolist(), start=1):
        a = decide(t)
        observe(t, a, profiles[a][t % periods[a]] + e)
        append(a)
    actions = np.array(picked, dtype=int)
    _, cum = pseudo_regret(instance, actions)
    return RunResult(
        actions=actions,
        cumulative_regret=cum,
        estimated_periods=policy.estimated_periods,
        events=list(policy.events),
    )


def _view(instance: BanditInstance, policy: Policy) -> InstanceView:
    """What ``policy`` may know of ``instance``."""
    periods = instance.periods if policy.uses_true_periods else None
    return InstanceView(instance.n_arms, instance.horizon, instance.noise.sigma, periods)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _curve_grid(T: int, points: int) -> np.ndarray:
    """The distinct epochs of min(T, points) evenly spaced points in [1, T],
    truncated to integers, in increasing order; one point is epoch T."""
    if points == 1:
        return np.array([T])  # linspace's one point would be its start, 1
    # nondecreasing already, so dropping repeats needs no sort; numpy's
    # unique() would also import numpy.ma into every pool worker's first job
    grid = np.linspace(1, T, num=min(T, points)).astype(int)
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _run_job(job: tuple) -> list[dict]:
    """The rows of one (policy, horizon, replication) job.

    The job runs one episode at its horizon and returns a row for each horizon
    in its last field, cut from that episode (see ``_episode_rows``). That is
    its own horizon alone, unless the policy is ``horizon_free`` and the job
    stands for every horizon of a sweep.

    A ``two_stage`` job whose ``oracle`` is coupled (second to last job field
    true) also returns the oracle's row. If stage one identified every period,
    that row is a copy of the two_stage row: both policies then run stage two
    on the true periods with the same blocks, n and g, and noise is keyed by
    (seed, epoch), so the episodes are identical. Otherwise the oracle runs.
    """
    instance, _, policy_id, params, rep, seed, curve_points, couples_oracle, cuts = job
    rows = _episode_rows(instance, make_policy(policy_id, params), rep, seed, curve_points, cuts)
    if not couples_oracle:
        return rows
    (row,) = rows
    if row["success"]:
        oracle = {
            **row,
            "policy": "oracle",
            "curve_t": list(row["curve_t"]),
            "curve_regret": list(row["curve_regret"]),
            "estimated_periods": list(row["estimated_periods"]),
        }
    else:
        (oracle,) = _episode_rows(instance, make_policy("oracle", params), rep, seed, curve_points, cuts)
    return [row, oracle]


def _episode_rows(
    instance: BanditInstance, policy: Policy, rep: int, seed: int, curve_points: int, cuts: tuple[int, ...]
) -> list[dict]:
    """One episode at ``instance.horizon``, as one row per horizon T in
    ``cuts``: the row of its first T epochs, with T's curve grid."""
    result = run_episode(instance, policy, seed)
    success = None
    if result.estimated_periods is not None:
        success = tuple(result.estimated_periods) == tuple(instance.periods)
    cum = result.cumulative_regret
    rows = []
    for T in cuts:
        grid = _curve_grid(T, curve_points)
        rows.append({
            "policy": policy.policy_id,
            "T": T,
            "replication": rep,
            "seed": seed,
            "final_regret": float(cum[T - 1]),
            "curve_t": grid.tolist(),
            "curve_regret": [float(cum[t - 1]) for t in grid],
            "estimated_periods": list(result.estimated_periods) if result.estimated_periods else None,
            "success": success,
            "n_events": sum(1 for event in result.events if event[0] <= T),
        })
    return rows


@dataclass
class AggregateStats:
    """Replication summary for one (policy, horizon) cell."""

    policy: str
    T: int
    n_reps: int
    mean_final_regret: float
    se_final_regret: float
    success_rate: float | None
    curve_slope: float | None


def loglog_slope(xs, ys) -> tuple[float | None, int]:
    """OLS slope of log(y) against log(x) over the tail of a curve, and the
    number of nonpositive tail points the fit skipped.

    The tail keeps the later half of the points, ceil(len / 2), two at least.
    The slope is None where fewer than two positive points are left in it;
    fewer than two aligned points in all raise ``ValueError``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need two aligned sweep points at minimum")
    k = max(2, math.ceil(xs.size / 2))
    xs, ys = xs[-k:], ys[-k:]
    keep = ys > 0
    skipped = int((~keep).sum())
    xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        return None, skipped
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0]), skipped


def aggregate(rep_rows: list[dict]) -> tuple[AggregateStats, int]:
    """One cell's summary, and the number of nonpositive points its curve
    slope fit skipped."""
    finals = np.array([r["final_regret"] for r in rep_rows])
    R = len(rep_rows)
    se = float(finals.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    succ = [r["success"] for r in rep_rows if r["success"] is not None]
    success_rate = (sum(succ) / len(succ)) if succ else None
    grid = np.asarray(rep_rows[0]["curve_t"])
    mean_curve = np.mean([r["curve_regret"] for r in rep_rows], axis=0)
    try:
        slope, skipped = loglog_slope(grid, mean_curve)
    except ValueError:
        slope, skipped = None, 0
    return AggregateStats(
        policy=rep_rows[0]["policy"],
        T=rep_rows[0]["T"],
        n_reps=R,
        mean_final_regret=float(finals.mean()),
        se_final_regret=se,
        success_rate=success_rate,
        curve_slope=slope,
    ), skipped


def summarize(rows: list[dict]) -> dict:
    """Summarise raw episode rows the one way both sweep and report do.

    Returns {"cells": {(policy, T): AggregateStats}, "raw": rows,
    "sweep_slopes": {policy: slope of mean final regret vs horizon}}; the
    slope fits the last half of the horizons (two at least), and is None where
    the fit is undefined (fewer than two positive means there). Fits that skip
    nonpositive points (a cell's curve slope or a sweep slope) are named in
    one ``UserWarning`` per call.
    """
    by_cell: dict[tuple[str, int], list[dict]] = {}  # each cell's rows in replication order
    for row in sorted(rows, key=lambda r: r["replication"]):
        by_cell.setdefault((row["policy"], row["T"]), []).append(row)
    cells = {}
    skipped = []  # the fits that dropped nonpositive points, named in one warning
    for (pid, T), cell_rows in by_cell.items():
        cells[(pid, T)], n_skipped = aggregate(cell_rows)
        if n_skipped:
            skipped.append(f"{pid} T={T} ({n_skipped} points)")
    sweep_slopes: dict[str, float | None] = {}
    for pid in sorted({p for p, _ in cells}):
        ts = sorted(T for (p, T) in cells if p == pid)
        if len(ts) >= 2:
            finals = [cells[(pid, T)].mean_final_regret for T in ts]
            sweep_slopes[pid], n_skipped = loglog_slope(ts, finals)
            if n_skipped:
                skipped.append(f"{pid} sweep ({n_skipped} points)")
    if skipped:
        warnings.warn(f"skipped nonpositive regret points in the slope fits of {', '.join(skipped)}")
    return {"cells": cells, "raw": rows, "sweep_slopes": sweep_slopes}


def _horizons(config: dict) -> list[int] | None:
    """config["horizons"] checked to be a list of strictly increasing integers
    of at least 1, or None when absent."""
    horizons = config.get("horizons")
    if horizons is None:
        return None
    hs = [_checked_int("horizons", h) for h in _checked_list("horizons", horizons)]
    if not hs:
        raise ValueError("horizons must not be empty")
    if hs != sorted(hs) or len(set(hs)) != len(hs):
        raise ValueError("horizons must be strictly increasing")
    return hs


def _instance_at(spec: dict | BanditInstance, horizon: int | None) -> BanditInstance:
    """``resolve_instance`` with every failure of a bad spec (an unknown
    preset, a misspelt param, a missing key) raised as ``ValueError``."""
    try:
        return resolve_instance(spec, horizon=horizon)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ValueError(f"instance {spec!r} at horizon {horizon}: {type(exc).__name__}: {exc}") from exc


def _policy_params(config: dict, instances: list[BanditInstance]) -> dict[str, dict]:
    """{id: params} of config["policies"], each entry built once with
    ``make_policy`` and begun on every instance, so an unknown id, a bad param
    or one that does not fit some horizon fails before any episode."""
    entries = _checked_list("policies", config.get("policies"))
    if not entries:
        raise ValueError("policies must not be empty")
    for pol in entries:
        if not isinstance(_checked_keys("policies entry", pol, ("id", "params")).get("id"), str):
            raise ValueError(f"policies entry {pol!r} has no string 'id'")
    policy_ids = [pol["id"] for pol in entries]
    if len(set(policy_ids)) != len(policy_ids):
        # rows are keyed by policy id, so two entries would merge into one cell
        raise ValueError(f"policies must have distinct ids, got {policy_ids}")
    params = {}
    for pol in entries:
        try:
            params[pol["id"]] = dict(pol.get("params") or {})
            policy = make_policy(pol["id"], params[pol["id"]])
            for inst in instances:
                policy.begin(_view(inst, policy))
        except (TypeError, ValueError) as exc:
            # TypeError: params that are not a mapping
            raise ValueError(
                f"policies entry {pol['id']!r} cannot be built from params {pol.get('params')!r}: {exc}"
            ) from exc
    return params


def monte_carlo(config: dict, out_dir: str | None = None) -> dict:
    """Run every (policy, horizon, replication) cell of a config.

    Returns the ``summarize`` result for the episode rows and, when
    ``out_dir`` is given, writes regret_curves.csv, summary.json,
    run_meta.json and raw/rows.json. A malformed config, an instance spec or
    a policy entry that cannot be built or a key outside ``CONFIG_KEYS``
    included, raises ``ValueError`` before any episode runs. Without
    ``horizons`` the config runs at its instance's own horizon.

    An ``oracle`` entry whose params equal the ``two_stage`` entry's is
    coupled to it: it gets no jobs of its own, and each two_stage job returns
    the oracle's row too, a copy of its own where stage one identified every
    period (see ``_run_job``). A ``horizon_free`` policy gets one job per
    replication, at the longest horizon, which returns a row for every
    horizon cut from its one episode, provided every horizon resolves to the
    same arms and noise; otherwise (a lower-bound preset, whose means read
    T) it gets one job per horizon like any other policy. With
    ``workers`` > 1 the pool takes the longest horizons first, one job at a
    time, so no long job starts last. Either way the rows come back in job
    order: policy-major in config order, then horizon, then replication.
    """
    _checked_keys("config", config, CONFIG_KEYS)
    R = _checked_int("replications", config.get("replications", 1))
    base_seed = _checked_int("base_seed", config.get("base_seed", 0), least=0)
    curve_points = _checked_int("curve_points", config.get("curve_points", 128))
    workers = _checked_int("workers", config.get("workers", 1))
    horizons = _horizons(config)
    spec = config.get("instance")
    if horizons is None or isinstance(spec, dict) and "file" in spec:
        # resolve once: a file is read once, and a config without horizons
        # runs at its instance's own
        spec = _instance_at(spec, horizons[0] if horizons else None)
        horizons = horizons or [spec.horizon]
    instances = {T: _instance_at(spec, T) for T in horizons}
    params = _policy_params(config, list(instances.values()))
    coupled = "two_stage" in params and "oracle" in params and params["two_stage"] == params["oracle"]

    # a lower-bound preset's means depend on T, so only an instance that stays
    # the same at every horizon has shorter episodes that are prefixes
    longest = instances[horizons[-1]]
    same_instance = all(inst.arms == longest.arms and inst.noise == longest.noise for inst in instances.values())

    def runs(pid: str) -> list[tuple]:
        """(job horizon, horizons cut from its episode) per job of a replication."""
        if same_instance and make_policy(pid, params[pid]).horizon_free:
            return [(horizons[-1], tuple(horizons))]
        return [(T, (T,)) for T in horizons]

    jobs = [
        (instances[T], T, pid, pid_params, rep, base_seed + rep, curve_points, coupled and pid == "two_stage", cuts)
        for pid, pid_params in params.items()
        if not (coupled and pid == "oracle")
        for T, cuts in runs(pid)
        for rep in range(R)
    ]
    if workers > 1:
        # numpy loads these on first use: loaded before the fork, they are
        # inherited, not imported again by every worker on its first job
        import numpy.fft
        import numpy.random
        with Pool(workers) as pool:
            done = pool.map(_run_job, sorted(jobs, key=lambda job: -job[1]), chunksize=1)
    else:
        done = [_run_job(j) for j in jobs]
    rank = {pid: i for i, pid in enumerate(params)}
    rows = sorted(
        (row for job_rows in done for row in job_rows),
        key=lambda r: (rank[r["policy"]], r["T"], r["replication"]),
    )

    results = summarize(rows)
    if out_dir is not None:
        write_outputs(config, results, out_dir)
    return results


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_curves_csv(rows: list[dict], path: str) -> None:
    ordered = sorted(rows, key=lambda r: (r["policy"], r["T"], r["replication"]))
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in ordered:
            base = f'{r["policy"]},{r["T"]},{r["replication"]},'
            for t, c in zip(r["curve_t"], r["curve_regret"]):
                fh.write(base + f"{t},{_fmt(c)}\n")


def _write_summary(config: dict, results: dict, out_dir: str) -> None:
    """summary.json as strict JSON: a NaN or an infinity raises ``ValueError``
    before the file is opened, rather than being written as a bare ``NaN``."""
    cells = sorted((asdict(s) for s in results["cells"].values()), key=lambda c: (c["policy"], c["T"]))
    summary = {"config_hash": config_hash(config), "cells": cells, "sweep_slopes": results["sweep_slopes"]}
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(text)


def write_outputs(config: dict, results: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_curves_csv(results["raw"], os.path.join(out_dir, "regret_curves.csv"))
    _write_summary(config, results, out_dir)
    meta = {
        "config": config,
        "config_hash": config_hash(config),
        "seeds": [int(config.get("base_seed", 0)) + r for r in range(int(config.get("replications", 1)))],
        "versions": {"periodic_bandits": __version__, "numpy": np.__version__},
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    os.makedirs(os.path.join(out_dir, "raw"), exist_ok=True)
    with open(os.path.join(out_dir, "raw", "rows.json"), "w") as fh:
        fh.write(json.dumps(results["raw"]))


def _read_json(path: str):
    """The JSON value in ``path``; a file that cannot be read or is not JSON
    raises ``ValueError`` naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _numbers(xs) -> bool:
    """Whether ``xs`` is a list of finite JSON numbers: ints or floats, not bools."""
    return isinstance(xs, list) and set(map(type, xs)) <= {int, float} and all(map(math.isfinite, xs))


def _raw_rows(path: str) -> list[dict]:
    """The episode rows of raw/rows.json, each checked to hold what
    ``summarize`` and ``write_curves_csv`` read, with values of the types they
    read; each row of a (policy, T) cell has the ``curve_t`` of the cell's
    first row, which ends at T, and no (policy, T, replication) appears
    twice."""
    rows = _read_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: not a JSON list of episode rows")
    curves: dict[tuple[str, int], list] = {}  # each cell's first curve_t
    seen: set[tuple[str, int, int]] = set()
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and all(key in row for key in ROW_KEYS)):
            raise ValueError(f"{path}: row {i} is not an object holding {', '.join(ROW_KEYS)}")
        ts, regrets = row["curve_t"], row["curve_regret"]
        pid, T, rep = row["policy"], row["T"], row["replication"]
        cell = (pid, T) if type(pid) is str and type(T) is int else None
        if cell in curves and ts != curves[cell]:
            raise ValueError(f"{path}: row {i} has another curve_t than the first row of {pid} T={T}")
        # a later row's curve_t equals its cell's first, so only the first is scanned
        if not (
            cell and type(rep) is int and _numbers([row["final_regret"]]) and _numbers(regrets)
            and (cell in curves or (_numbers(ts) and ts[-1:] == [T])) and len(ts) == len(regrets)
            and type(row["success"]) in (bool, type(None))
        ):
            raise ValueError(
                f"{path}: row {i} needs a string policy, integer T and replication, a number final_regret,"
                " curve_t and curve_regret as lists of numbers of one length, curve_t ending at T,"
                " and a bool or null success"
            )
        curves.setdefault(cell, ts)
        if (pid, T, rep) in seen:
            raise ValueError(f"{path}: row {i} repeats {pid} T={T} replication {rep}")
        seen.add((pid, T, rep))
    return rows


def report_from_dir(out_dir: str) -> dict:
    """Recompute summary.json (and regret_curves.csv if absent) from
    raw/rows.json.

    Raises ``ValueError`` naming the file, and writes nothing, when
    raw/rows.json is missing, not JSON, holds no episode rows, or is not a
    list of rows holding ``ROW_KEYS`` with values ``_raw_rows`` accepts, or
    when run_meta.json is missing, not a JSON object, or holds a config with a
    key outside ``CONFIG_KEYS``.
    """
    path = os.path.join(out_dir, "raw", "rows.json")
    rows = _raw_rows(path)
    if not rows:
        raise ValueError(f"{path}: holds no episode rows to report")
    meta_path = os.path.join(out_dir, "run_meta.json")
    meta = _read_json(meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: not a JSON object")
    config = _checked_keys(f"{meta_path} config", meta.get("config"), CONFIG_KEYS)
    results = summarize(rows)
    _write_summary(config, results, out_dir)
    csv_path = os.path.join(out_dir, "regret_curves.csv")
    if not os.path.exists(csv_path):
        write_curves_csv(rows, csv_path)
    return results
