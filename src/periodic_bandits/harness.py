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
from .env import (
    BanditInstance,
    RunResult,
    _checked_int,
    instance_from_dict,
    load_instance,
    make_demo_instance,
    make_lower_bound_instance,
    pseudo_regret,
)
from .policies import InstanceView, Policy, make_policy

CSV_HEADER = "policy,T,replication,t,cum_regret"


def run_episode(instance: BanditInstance, policy: Policy, seed: int) -> RunResult:
    """Play one full episode; deterministic in (instance, policy config, seed)."""
    T, K = instance.horizon, instance.n_arms
    stream = instance.noise_stream(seed)
    view = InstanceView(
        n_arms=K,
        horizon=T,
        sigma=instance.noise.sigma,
        true_periods=instance.periods if policy.uses_true_periods else None,
    )
    policy.begin(view)
    actions = np.empty(T, dtype=int)
    # Python floats in the loop: numpy scalar arithmetic costs more per epoch
    profiles = [p.values for p in instance.arms]
    periods = instance.periods
    eps = stream.values.tolist()
    decide, observe = policy.decide, policy.observe
    for t in range(1, T + 1):
        a = decide(t)
        y = profiles[a][(t - 1) % periods[a]] + eps[t - 1]
        observe(t, a, y)
        actions[t - 1] = a
    _, cum = pseudo_regret(instance, actions)
    return RunResult(
        actions=actions,
        cumulative_regret=cum,
        estimated_periods=policy.estimated_periods,
        events=list(policy.events),
    )


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def make_preset_instance(name: str, params: dict | None = None) -> BanditInstance:
    """Named instances: the single-arm spectral demo, the default three-arm
    sweep environment, and the e1/e2/e3 hard families."""
    params = dict(params or {})
    if name == "demo":
        return make_demo_instance(**params)
    if name == "sweep_default":
        return default_sweep_instance(**params)
    if name in ("e1", "e2", "e3"):
        return make_lower_bound_instance(name, **params)
    raise ValueError(f"unknown preset {name!r}")


def default_sweep_instance(horizon: int = 40000, sigma: float = 0.04) -> BanditInstance:
    """Three arms with periods (2, 3, 4) and a phase-dependent best arm.

    Every arm carries a strong fundamental, detectable at the recommended
    stage-one sample sizes of the larger horizons, and cross-arm margins a few
    multiples of sigma at most phases.
    """
    from .env import MeanProfile, NoiseModel

    arms = (
        MeanProfile.from_values([0.36, 0.04]),
        MeanProfile.from_values([0.04, 0.36, 0.08]),
        MeanProfile.from_values([0.40, 0.24, 0.0, 0.16]),
    )
    return BanditInstance(arms=arms, noise=NoiseModel("gaussian", sigma), horizon=horizon)


def resolve_instance(spec: dict, horizon: int | None = None) -> BanditInstance:
    if "file" in spec:
        inst = load_instance(spec["file"])
    elif "preset" in spec:
        params = dict(spec.get("params", {}))
        if horizon is not None and spec["preset"] in ("e1", "e2", "e3"):
            params["T"] = horizon
        inst = make_preset_instance(spec["preset"], params)
    else:
        inst = instance_from_dict(spec)
    if horizon is not None and inst.horizon != horizon:
        inst = BanditInstance(arms=inst.arms, noise=inst.noise, horizon=horizon)
    return inst


def default_sweep_config() -> dict:
    """The stock regret-rate experiment: five horizons, 50 replications."""
    return {
        "instance": {"preset": "sweep_default", "params": {"sigma": 0.04}},
        "policies": [
            {"id": "two_stage"},
            {"id": "oracle"},
            {"id": "stationary_ucb"},
            {"id": "lcm_ucb"},
        ],
        "horizons": [2500, 5000, 10000, 20000, 40000],
        "replications": 50,
        "base_seed": 0,
        "curve_points": 128,
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _curve_grid(T: int, points: int) -> np.ndarray:
    return np.unique(np.linspace(1, T, num=min(T, points)).astype(int))


def _run_job(job: tuple) -> list[dict]:
    """The rows of one (policy, horizon, replication) job.

    A ``two_stage`` job whose ``oracle`` is coupled (last job field true) also
    returns the oracle's row. If stage one identified every period, that row is
    a copy of the two_stage row: both policies then run stage two on the true
    periods with the same blocks, n, g, H and delta, and noise is keyed by
    (seed, epoch), so the episodes are identical. Otherwise the oracle runs.
    """
    instance, _, policy_id, params, rep, seed, curve_points, couples_oracle = job
    row = _episode_row(instance, make_policy(policy_id, params), rep, seed, curve_points)
    if not couples_oracle:
        return [row]
    if row["success"]:
        oracle = {
            **row,
            "policy": "oracle",
            "curve_t": list(row["curve_t"]),
            "curve_regret": list(row["curve_regret"]),
            "estimated_periods": list(row["estimated_periods"]),
        }
    else:
        oracle = _episode_row(instance, make_policy("oracle", params), rep, seed, curve_points)
    return [row, oracle]


def _episode_row(instance: BanditInstance, policy: Policy, rep: int, seed: int, curve_points: int) -> dict:
    result = run_episode(instance, policy, seed)
    grid = _curve_grid(instance.horizon, curve_points)
    success = None
    if result.estimated_periods is not None:
        success = tuple(result.estimated_periods) == tuple(instance.periods)
    return {
        "policy": policy.policy_id,
        "T": instance.horizon,
        "replication": rep,
        "seed": seed,
        "final_regret": result.final_regret,
        "curve_t": grid.tolist(),
        "curve_regret": [float(result.cumulative_regret[t - 1]) for t in grid],
        "estimated_periods": list(result.estimated_periods) if result.estimated_periods else None,
        "success": success,
        "n_events": len(result.events),
    }


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


def loglog_slope(xs, ys, tail_fraction: float = 0.5) -> float:
    """OLS slope of log(y) against log(x) over the tail of a curve.

    The tail keeps the last ceil(len * tail_fraction) points; nonpositive y
    values in the tail are skipped with a warning. Needs two usable points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need two aligned sweep points at minimum")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    k = max(2, math.ceil(xs.size * tail_fraction))
    xs, ys = xs[-k:], ys[-k:]
    keep = ys > 0
    if not keep.all():
        warnings.warn(f"skipped {int((~keep).sum())} nonpositive regret points in slope fit")
    xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        raise ValueError("fewer than two positive points left in the tail")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def aggregate(rep_rows: list[dict]) -> AggregateStats:
    finals = np.array([r["final_regret"] for r in rep_rows])
    R = len(rep_rows)
    se = float(finals.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    succ = [r["success"] for r in rep_rows if r["success"] is not None]
    success_rate = (sum(succ) / len(succ)) if succ else None
    grid = np.asarray(rep_rows[0]["curve_t"])
    mean_curve = np.mean([r["curve_regret"] for r in rep_rows], axis=0)
    try:
        slope = loglog_slope(grid, mean_curve, tail_fraction=0.5)
    except ValueError:
        slope = None
    return AggregateStats(
        policy=rep_rows[0]["policy"],
        T=rep_rows[0]["T"],
        n_reps=R,
        mean_final_regret=float(finals.mean()),
        se_final_regret=se,
        success_rate=success_rate,
        curve_slope=slope,
    )


def _by_cell(rows: list[dict]) -> dict[tuple[str, int], list[dict]]:
    """Rows grouped by (policy, horizon), each group in replication order."""
    by_cell: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        by_cell.setdefault((row["policy"], row["T"]), []).append(row)
    for cell_rows in by_cell.values():
        cell_rows.sort(key=lambda r: r["replication"])
    return by_cell


def _tail_fraction(config: dict) -> float:
    """config["tail_fraction"] (default 0.5), checked to be a number (not a
    bool) in (0, 1]."""
    value = config.get("tail_fraction", 0.5)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
        raise ValueError(f"tail_fraction must be a number in (0, 1], got {value!r}")
    return float(value)


def summarize(rows: list[dict], config: dict) -> dict:
    """Summarise raw episode rows the one way both sweep and report do.

    Returns {"cells": {(policy, T): AggregateStats}, "raw": rows,
    "sweep_slopes": {policy: slope of mean final regret vs horizon}}; the
    slope fits the tail of the horizons given by config["tail_fraction"]
    (default 0.5), and a fraction outside (0, 1] raises ``ValueError``.
    """
    tail_fraction = _tail_fraction(config)
    cells = {key: aggregate(cell_rows) for key, cell_rows in _by_cell(rows).items()}
    sweep_slopes: dict[str, float] = {}
    for pid in sorted({p for p, _ in cells}):
        ts = sorted(T for (p, T) in cells if p == pid)
        if len(ts) >= 2:
            finals = [cells[(pid, T)].mean_final_regret for T in ts]
            try:
                sweep_slopes[pid] = loglog_slope(ts, finals, tail_fraction=tail_fraction)
            except ValueError:
                sweep_slopes[pid] = float("nan")
    return {"cells": cells, "raw": rows, "sweep_slopes": sweep_slopes}


def _horizons(config: dict) -> list:
    """config["horizons"] checked to be a list of strictly increasing integers
    of at least 1, or [None] (the instance's own horizon) when absent."""
    horizons = config.get("horizons")
    if horizons is None:
        return [None]
    if not isinstance(horizons, (list, tuple)):
        raise ValueError(f"horizons must be a list of integers, got {horizons!r}")
    hs = [_checked_int("horizons", h) for h in horizons]
    if not hs:
        raise ValueError("horizons must not be empty")
    if hs != sorted(hs) or len(set(hs)) != len(hs):
        raise ValueError("horizons must be strictly increasing")
    return hs


def _instance_at(spec: dict, horizon: int | None) -> BanditInstance:
    """``resolve_instance`` with every failure of a bad spec (an unknown
    preset, a misspelt param, a missing key) raised as ``ValueError``."""
    try:
        return resolve_instance(spec, horizon=horizon)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ValueError(f"instance {spec!r} at horizon {horizon}: {type(exc).__name__}: {exc}") from exc


def _policy_params(config: dict) -> dict[str, dict]:
    """{id: params} of config["policies"], each entry built once with
    ``make_policy`` so an unknown id or a bad param fails before any episode."""
    entries = config.get("policies")
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"policies must be a list of entries, got {entries!r}")
    if not entries:
        raise ValueError("policies must not be empty")
    for pol in entries:
        if not isinstance(pol, dict) or "id" not in pol:
            raise ValueError(f"policies entry {pol!r} has no 'id'")
    policy_ids = [pol["id"] for pol in entries]
    if len(set(policy_ids)) != len(policy_ids):
        # rows are keyed by policy id, so two entries would merge into one cell
        raise ValueError(f"policies must have distinct ids, got {policy_ids}")
    params = {}
    for pol in entries:
        try:
            params[pol["id"]] = dict(pol.get("params") or {})
            make_policy(pol["id"], params[pol["id"]])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"policies entry {pol['id']!r} cannot be built: {exc}") from exc
    return params


def monte_carlo(config: dict, out_dir: str | None = None) -> dict:
    """Run every (policy, horizon, replication) cell of a config.

    Returns the ``summarize`` result for the episode rows and, when
    ``out_dir`` is given, writes regret_curves.csv, summary.json, run_meta.json
    and raw/ files. A malformed config, an instance spec or a policy entry that
    cannot be built included, raises ``ValueError`` before any episode runs.

    An ``oracle`` entry whose params equal the ``two_stage`` entry's (value
    for value and type for type) is coupled to it: it gets no jobs of its own,
    and each two_stage job returns the oracle's row too, a copy of its own
    where stage one identified every period (see ``_run_job``). With
    ``workers`` > 1 the pool takes the longest horizons first, one job at a
    time, so no long job starts last. Either way the rows come back in job
    order: policy-major in config order, then horizon, then replication.
    """
    if not isinstance(config.get("instance"), dict):
        raise ValueError(f"instance must be a dict, got {config.get('instance')!r}")
    R = _checked_int("replications", config.get("replications", 1))
    _tail_fraction(config)
    base_seed = _checked_int("base_seed", config.get("base_seed", 0), least=0)
    curve_points = _checked_int("curve_points", config.get("curve_points", 128))
    workers = _checked_int("workers", config.get("workers", 1))
    horizons = _horizons(config)
    params = _policy_params(config)
    # repr, not ==: 64 == 64.0 and True == 1, yet a policy may treat them apart
    coupled = (
        "two_stage" in params and "oracle" in params
        and repr(sorted(params["two_stage"].items())) == repr(sorted(params["oracle"].items()))
    )

    instances = {T: _instance_at(config["instance"], T) for T in horizons}

    jobs = [
        (instances[T], T, pid, pid_params, rep, base_seed + rep, curve_points, coupled and pid == "two_stage")
        for pid, pid_params in params.items()
        if not (coupled and pid == "oracle")
        for T in horizons
        for rep in range(R)
    ]
    if workers > 1:
        with Pool(workers) as pool:
            done = pool.map(_run_job, sorted(jobs, key=lambda job: -(job[1] or 0)), chunksize=1)
    else:
        done = [_run_job(j) for j in jobs]
    rank = {pid: i for i, pid in enumerate(params)}
    rows = sorted(
        (row for job_rows in done for row in job_rows),
        key=lambda r: (rank[r["policy"]], r["T"], r["replication"]),
    )

    results = summarize(rows, config)
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


def summary_dict(config: dict, results: dict) -> dict:
    cells = [asdict(s) for s in results["cells"].values()]
    cells.sort(key=lambda c: (c["policy"], c["T"]))
    return {
        "config_hash": config_hash(config),
        "cells": cells,
        "sweep_slopes": results["sweep_slopes"],
    }


def write_outputs(config: dict, results: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_curves_csv(results["raw"], os.path.join(out_dir, "regret_curves.csv"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary_dict(config, results), fh, indent=2, sort_keys=True)
    meta = {
        "config": config,
        "config_hash": config_hash(config),
        "seeds": [int(config.get("base_seed", 0)) + r for r in range(int(config.get("replications", 1)))],
        "versions": {"periodic_bandits": __version__, "numpy": np.__version__},
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    raw_dir = os.path.join(out_dir, "raw")
    os.makedirs(raw_dir, exist_ok=True)
    for (pid, T), cell_rows in sorted(_by_cell(results["raw"]).items()):
        with open(os.path.join(raw_dir, f"{pid}_T{T}.json"), "w") as fh:
            json.dump(cell_rows, fh)


def report_from_dir(out_dir: str) -> dict:
    """Recompute summary.json (and regret_curves.csv if absent) from raw files.

    Raises ``ValueError``, and writes nothing, when raw/ is missing or holds
    no episode rows.
    """
    raw_dir = os.path.join(out_dir, "raw")
    rows: list[dict] = []
    for name in sorted(os.listdir(raw_dir)) if os.path.isdir(raw_dir) else ():
        if name.endswith(".json"):
            with open(os.path.join(raw_dir, name)) as fh:
                rows.extend(json.load(fh))
    if not rows:
        raise ValueError(f"{raw_dir}: missing, or holds no episode rows to report")
    meta_path = os.path.join(out_dir, "run_meta.json")
    config = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            config = json.load(fh).get("config", {})
    results = summarize(rows, config)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary_dict(config, results), fh, indent=2, sort_keys=True)
    csv_path = os.path.join(out_dir, "regret_curves.csv")
    if not os.path.exists(csv_path):
        write_curves_csv(rows, csv_path)
    return results

