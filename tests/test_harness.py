import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest

from periodic_bandits.env import (
    BanditInstance,
    MeanProfile,
    NoiseModel,
    NoiseStream,
    default_sweep_instance,
    make_demo_instance,
    resolve_instance,
)
from periodic_bandits.harness import config_hash, loglog_slope, monte_carlo, report_from_dir, run_episode
from periodic_bandits.policies import make_policy
from periodic_bandits import cli, env, harness

from helpers import DEFAULT_SWEEP_PATH, load_default_sweep, means_matrix

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))


def small_config(tmp=None, workers=1, reps=3):
    return {
        "instance": {
            "arms": [
                {"period": 2, "values": [0.9, 0.1]},
                {"period": 3, "values": [0.1, 0.9, 0.2]},
            ],
            "noise": {"kind": "gaussian", "sigma": 0.2},
            "horizon": 600,
        },
        "policies": [{"id": "two_stage", "params": {"n": 64, "g": 8}}, {"id": "stationary_ucb"}],
        "horizons": [400, 600],
        "replications": reps,
        "base_seed": 0,
        "curve_points": 40,
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def test_single_arm_oracle_zero_regret():
    inst = BanditInstance(
        arms=(MeanProfile.from_values([0.3, 0.7]),),
        noise=NoiseModel("gaussian", 0.2),
        horizon=300,
    )
    res = run_episode(inst, make_policy("oracle", {"n": 30, "g": 6}), 0)
    assert res.final_regret == 0.0


def test_same_seed_identical_runs(run_recording_rewards):
    inst = default_sweep_instance(horizon=2000)
    a, a_rewards = run_recording_rewards(inst, make_policy("two_stage"), 9)
    b, b_rewards = run_recording_rewards(inst, make_policy("two_stage"), 9)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a_rewards, b_rewards)
    assert np.array_equal(a.cumulative_regret, b.cumulative_regret)


def test_stage_one_regret_matches_recomputation():
    # demo arm plus a flat arm: through the exploration block the regret is
    # exactly the gap sum of the fixed schedule
    arms = (
        MeanProfile.from_values([3.0, 6.0, -3.0, 6.0]),
        MeanProfile.from_values([2.0]),
    )
    inst = BanditInstance(arms=arms, noise=NoiseModel("gaussian", 0.2), horizon=500)
    n = 50
    res = run_episode(inst, make_policy("two_stage", {"n": n, "g": 8}), 4)
    expected = 0.0
    for t in range(1, 2 * n + 1):
        arm = (t - 1) // n
        mu = [prof.values[(t - 1) % prof.period] for prof in arms]
        expected += max(mu) - mu[arm]
    assert res.cumulative_regret[2 * n - 1] == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def test_single_replication_mean_is_the_run():
    cfg = small_config(reps=1)
    res = monte_carlo(cfg)
    inst = BanditInstance(
        arms=(MeanProfile.from_values([0.9, 0.1]), MeanProfile.from_values([0.1, 0.9, 0.2])),
        noise=NoiseModel("gaussian", 0.2),
        horizon=600,
    )
    direct = run_episode(inst, make_policy("two_stage", {"n": 64, "g": 8}), 0)
    assert res["cells"][("two_stage", 600)].mean_final_regret == pytest.approx(direct.final_regret)
    assert res["cells"][("two_stage", 600)].se_final_regret == 0.0


def test_replication_prefix_property():
    small = monte_carlo(small_config(reps=2))
    large = monte_carlo(small_config(reps=4))
    for key in small["cells"]:
        finals_small = [r["final_regret"] for r in small["raw"] if (r["policy"], r["T"]) == key]
        finals_large = [r["final_regret"] for r in large["raw"] if (r["policy"], r["T"]) == key]
        assert finals_large[: len(finals_small)] == finals_small


def test_aggregation_matches_independent_pass(tmp_path):
    out = str(tmp_path / "out")
    monte_carlo(small_config(), out_dir=out)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out, "raw", "rows.json")) as fh:
        raw = json.load(fh)
    for cell in summary["cells"]:
        rows = [r for r in raw if (r["policy"], r["T"]) == (cell["policy"], cell["T"])]
        finals = np.array([r["final_regret"] for r in rows])
        assert cell["mean_final_regret"] == pytest.approx(finals.mean(), abs=1e-12)
        expect_se = finals.std(ddof=1) / math.sqrt(len(finals)) if len(finals) > 1 else 0.0
        assert cell["se_final_regret"] == pytest.approx(expect_se, abs=1e-12)


def test_monte_carlo_validates_horizons():
    cfg = small_config()
    cfg["horizons"] = [600, 400]
    with pytest.raises(ValueError):
        monte_carlo(cfg)
    cfg["horizons"] = [400, 400]
    with pytest.raises(ValueError):
        monte_carlo(cfg)


def test_byte_identical_outputs_and_parallel(tmp_path):
    outs = []
    for i, workers in enumerate([1, 1, 2]):
        out = str(tmp_path / f"out{i}")
        monte_carlo(small_config(workers=workers), out_dir=out)
        with open(os.path.join(out, "regret_curves.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].startswith(b"policy,T,replication,t,cum_regret\n")


def test_report_rebuilds_summary(tmp_path):
    out = str(tmp_path / "out")
    monte_carlo(small_config(), out_dir=out)
    with open(os.path.join(out, "summary.json")) as fh:
        before = json.load(fh)
    os.remove(os.path.join(out, "summary.json"))
    report_from_dir(out)
    with open(os.path.join(out, "summary.json")) as fh:
        after = json.load(fh)
    assert before["cells"] == after["cells"]


def test_report_keeps_summary_bytes(tmp_path):
    # report summarises exactly as sweep did, also after a second sweep with
    # fewer horizons into the same directory: it overwrites raw/rows.json, so
    # no row of the first sweep is left for report to read
    out = str(tmp_path / "out")
    cfg = small_config(reps=2)
    for horizons in ([200, 400, 600], [200]):
        cfg["horizons"] = horizons
        monte_carlo(cfg, out_dir=out)
        assert os.listdir(os.path.join(out, "raw")) == ["rows.json"]
        path = os.path.join(out, "summary.json")
        with open(path, "rb") as fh:
            before = fh.read()
        report_from_dir(out)
        with open(path, "rb") as fh:
            assert fh.read() == before


MISSING = object()  # a config value that stands for deleting its key


@pytest.mark.parametrize(
    ("key", "value"),
    [pytest.param("tail_fraction", v, id=str(v)) for v in (0, -0.5, 1.5, float("nan"))]
    + [pytest.param("tail_fraction", v, id=f"tail_fraction={v!r}") for v in ("0.5", True)]
    + [pytest.param("horizons", 300, id="horizons=300")]
    + [pytest.param("instance", MISSING, id="instance=missing")]
    + [pytest.param("instance", v, id=f"instance={name}") for name, v in (
        ("misspelt-param", {"preset": "sweep_default", "params": {"sigmaa": 0.1}}),
        ("no-horizon", {"arms": [{"period": 2, "values": [0.9, 0.1]}], "noise": {"sigma": 0.2}}),
        ("unknown-preset", {"preset": "sweep_defualt"}),
    )]
    + [pytest.param("policies", v, id=f"policies={name}") for name, v in (
        ("missing", MISSING),
        ("dict", {"stationary_ucb": {}}),
        ("no-id", [{"id": "stationary_ucb"}, {"params": {"ucb_scale": 2.0}}]),
        # a list or object id is unhashable: it must not reach the distinct-ids set
        ("list-id", [{"id": ["two_stage"]}]),
        ("object-id", [{"id": {"two_stage": {}}}]),
    )]
    + [pytest.param("curve_points", v, id=f"curve_points={v}") for v in (0, -3)]
    + [pytest.param("replications", v, id=f"replications={v}") for v in (1.7, 0, True)]
    + [pytest.param("workers", v, id=f"workers={v}") for v in (0, 2.5)]
    + [pytest.param("horizons", v, id=f"horizons={v}") for v in ([300.9], [True, 400], [0, 400])]
    + [pytest.param("base_seed", v, id=f"base_seed={v}") for v in (0.7, -1, True)]
    + [pytest.param("horizons", [], id="horizons=[]"), pytest.param("policies", [], id="policies=[]")]
    + [pytest.param(
        "policies", [{"id": "stationary_ucb"}, {"id": "stationary_ucb", "params": {"ucb_scale": 2.0}}],
        id="policies=same-id-twice",
    )]
    + [pytest.param("policies", [{"id": "stationary_ucb"}, bad], id=f"policies={name}") for name, bad in (
        ("misspelt-param", {"id": "lcm_ucb", "params": {"ucb_scal": 2.0}}),
        ("unknown-id", {"id": "two_stag"}),
        ("bad-delta", {"id": "two_stage", "params": {"delta": 2.0}}),
        ("oracle-misspelt-param", {"id": "oracle", "params": {"dleta": 0.1}}),
        ("H-nan", {"id": "two_stage", "params": {"H": float("nan")}}),
        ("n-float", {"id": "lcm_ucb", "params": {"n": 2.5}}),
        ("n-string", {"id": "lcm_ucb", "params": {"n": "50"}}),
        ("n-bool", {"id": "two_stage", "params": {"n": True}}),
        ("g-one", {"id": "oracle", "params": {"g": 1}}),
        ("g-below-sqrt-n", {"id": "two_stage", "params": {"n": 50, "g": 3}}),
        # g=4 fits n=14 at T=400, not n=17 at T=600; n=250 fills T=400 only
        ("g-fits-shorter-horizon-only", {"id": "oracle", "params": {"g": 4}}),
        ("n-fills-shorter-horizon", {"id": "lcm_ucb", "params": {"n": 250}}),
        ("seq-elim-two-periods", {"id": "seq_elim"}),
    )],
)
def test_tail_fraction_checked_before_any_episode(key, value):
    # every malformed sweep setting fails before an episode runs, rather than
    # being truncated, merged or quietly defaulted; each policy entry is built
    # up front, so a bad one fails before the entries ahead of it run. The
    # slope tail is fixed, so a tail_fraction of any value is an unknown key.
    cfg = small_config()
    if value is MISSING:
        del cfg[key]
    else:
        cfg[key] = value
    with mock.patch.object(harness, "run_episode", side_effect=AssertionError("an episode ran")):
        with pytest.raises(ValueError, match=key):
            monte_carlo(cfg)


@pytest.mark.parametrize(
    ("edit", "named"),
    [
        (lambda cfg: cfg.update(replication=5), "unknown key 'replication'"),
        (lambda cfg: cfg["policies"].append({"id": "lcm_ucb", "parms": {"ucb_scale": 5.0}}), "unknown key 'parms'"),
        (lambda cfg: cfg.update(instance={"preset": "sweep_default", "param": {"sigma": 0.5}}), "unknown key 'param'"),
        (lambda cfg: cfg.update(instance={"file": "instance.json", "params": {}}), "unknown key 'params'"),
        (lambda cfg: cfg.update(instance={"preset": "demo", "params": None}),
         re.escape("preset 'demo' params must be a dict, got None") + "$"),
        (lambda cfg: cfg.update(instance={"preset": "demo", "params": [1, 2]}),
         re.escape("preset 'demo' params must be a dict, got [1, 2]") + "$"),
        (lambda cfg: (cfg.pop("horizons"), cfg.update(instance={"preset": "demo", "params": {"n": "80"}})),
         "n must be an integer of at least 1, got '80'$"),
        (lambda cfg: cfg["instance"].update(horizn=600), "unknown key 'horizn'"),
        (lambda cfg: cfg["instance"].update(noise={"sigm": 0.1}), "unknown key 'sigm'"),
        (lambda cfg: cfg["instance"].update(noise="gaussian"), "noise must be a dict"),
        (lambda cfg: cfg["instance"]["noise"].update(sigma="0.1"), "sigma must be a number, got '0.1'"),
        (lambda cfg: cfg["instance"]["noise"].update(sigma=True), "sigma must be a number, got True"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "values": ["0.9", "0.1"]}),
         "profile value '0.9' at index 0 is not a number"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "fourier": [[True, 0], [0.25, False]]}),
         re.escape("arm 2: fourier coefficient [True, 0] at index 0 is not a number pair")),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "fourier": [[0.5, 0], ["0.25", 0]]}),
         re.escape("arm 2: fourier coefficient ['0.25', 0] at index 1 is not a number pair")),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "values": [0.9, 0.1], "phase": 1}),
         "arm has unknown key 'phase'"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 1, "valeus": [0.5], "values": [0.4]}),
         "arm has unknown key 'valeus'"),
        (lambda cfg: cfg["instance"].update(arms={"period": 2, "values": [0.9, 0.1]}),
         re.escape("arms must be a list, got {'period': 2, 'values': [0.9, 0.1]}") + "$"),
        (lambda cfg: cfg["instance"].update(arms=[]), "need at least one arm$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "values": 5}),
         "arm 2: values must be a list, got 5$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 3, "values": [0.9, 0.1]}),
         "values must contain exactly `period` entries$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2}), "arm 2 needs either 'values' or 'fourier'$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "fourier": 5}),
         "arm 2: fourier must be a list, got 5$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "fourier": [[0.5, 0, 3], [0.1, 0]]}),
         re.escape("arm 2: fourier coefficient [0.5, 0, 3] at index 0 is not a number pair") + "$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 2, "fourier": [0.5, 0.1]}),
         "arm 2: fourier coefficient 0.5 at index 0 is not a number pair$"),
        (lambda cfg: cfg["instance"]["arms"].append({"period": 3, "fourier": [[0.5, 0], [0.1, 0]]}),
         "arm 2: fourier coefficient count must equal period$"),
        (lambda cfg: cfg["policies"][0]["params"].update(delta=0.5), re.escape(
            "policies entry 'two_stage' cannot be built from params {'n': 64, 'g': 8, 'delta': 0.5}: "
            "two_stage params has unknown key 'delta'; expected one of n, g") + "$"),
        (lambda cfg: cfg["policies"].append({"id": "lcm_ucb", "params": {"n": 50, "ucb_scale": 1.0}}), re.escape(
            "policies entry 'lcm_ucb' cannot be built from params {'n': 50, 'ucb_scale': 1.0}: "
            "lcm_ucb params has unknown key 'ucb_scale'; expected one of n, g") + "$"),
        (lambda cfg: cfg["policies"][1].update(params={"ucb_scale": 1.0}), re.escape(
            "policies entry 'stationary_ucb' cannot be built from params {'ucb_scale': 1.0}: "
            "stationary_ucb params has unknown key 'ucb_scale'; expected none") + "$"),
    ],
    ids=["top-level", "policies-entry", "preset-instance", "file-instance", "preset-params-null",
         "preset-params-list", "demo-n-string", "inline-instance", "noise",
         "noise-not-dict", "sigma-string", "sigma-bool", "arm-string-values", "arm-bool-fourier",
         "arm-string-fourier", "arm-phase", "arm-valeus", "arms-dict", "arms-empty", "arm-values-int",
         "arm-values-count", "arm-without-values", "arm-fourier-int", "arm-fourier-triple", "arm-fourier-flat",
         "arm-fourier-count", "policy-param-two_stage", "policy-param-lcm_ucb", "policy-param-stationary_ucb"],
)
def test_unknown_config_key_fails_before_any_episode(edit, named):
    # a misspelt key at any level of the config, or a sigma that float()
    # would accept but is not a number, fails rather than running defaults;
    # a policy param no policy takes is named, in one line, with the params
    # that policy takes
    cfg = small_config()
    edit(cfg)
    with mock.patch.object(harness, "run_episode", side_effect=AssertionError("an episode ran")):
        with pytest.raises(ValueError, match=named):
            monte_carlo(cfg)


def test_file_instance_runs_as_the_same_instance_inline(tmp_path):
    # {"file": path} loads the inline spec from disk: the same rows, and a
    # path that does not exist fails as one ValueError before any episode
    cfg = small_config(reps=2)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg["instance"]))
    inline = monte_carlo(cfg)["raw"]
    from_file = monte_carlo(dict(cfg, instance={"file": str(path)}))["raw"]
    assert from_file == inline
    cfg["instance"] = {"file": str(tmp_path / "missing.json")}
    with mock.patch.object(harness, "run_episode", side_effect=AssertionError("an episode ran")):
        with pytest.raises(ValueError, match="missing.json.* FileNotFoundError: .*No such file"):
            monte_carlo(cfg)


def test_file_instance_is_read_once_per_config(tmp_path):
    # every horizon resolves the instance that one read of the file gave
    cfg = small_config(reps=1)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg["instance"]))
    cfg.update(instance={"file": str(path)}, horizons=[200, 400, 600])
    with mock.patch.object(env, "load_instance", wraps=env.load_instance) as loads:
        raw = monte_carlo(cfg)["raw"]
    assert loads.call_count == 1
    assert sorted({row["T"] for row in raw}) == [200, 400, 600]


def test_report_rewrites_a_deleted_curves_csv(tmp_path):
    # report writes regret_curves.csv only when it is missing, from raw/
    out = str(tmp_path / "out")
    monte_carlo(small_config(reps=2), out_dir=out)
    path = os.path.join(out, "regret_curves.csv")
    with open(path, "rb") as fh:
        before = fh.read()
    os.remove(path)
    report_from_dir(out)
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_one_point_curve_has_no_slope(tmp_path):
    # a curve of one point has no log-log slope to fit
    out = str(tmp_path / "out")
    cfg = small_config(reps=2)
    cfg["curve_points"] = 1
    raw = monte_carlo(cfg, out_dir=out)["raw"]
    with open(os.path.join(out, "summary.json")) as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == 4 and all(c["curve_slope"] is None for c in cells)
    # the one point is the episode's last epoch, not its first
    for row in raw:
        assert row["curve_t"] == [row["T"]]
        assert row["curve_regret"] == [row["final_regret"]]


def test_report_rejects_bad_tail_fraction_before_writing(tmp_path):
    # a run directory from before the slope tail was fixed may hold
    # tail_fraction, now an unknown key, instead of being re-summarised at 0.5
    out = str(tmp_path / "out")
    monte_carlo(small_config(reps=1), out_dir=out)
    meta_path = os.path.join(out, "run_meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["config"]["tail_fraction"] = 0.5
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "rb") as fh:
        before = fh.read()
    with pytest.raises(ValueError, match="tail_fraction"):
        report_from_dir(out)
    with open(summary_path, "rb") as fh:
        assert fh.read() == before


def test_pool_takes_longest_horizons_first(tmp_path):
    # jobs go to the pool one at a time, longest horizon first and in job
    # order within a horizon; the rows come back in job order
    submitted = []

    class SerialPool:
        def __init__(self, processes):
            assert processes == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs, chunksize=None):
            assert chunksize == 1
            submitted.extend((job[1], job[2], job[4]) for job in jobs)
            return [func(job) for job in jobs]

    with mock.patch.object(harness, "Pool", SerialPool):
        pooled = monte_carlo(small_config(workers=2, reps=2), out_dir=str(tmp_path / "pool"))
    assert submitted == [
        (600, pid, rep) for pid in ("two_stage", "stationary_ucb") for rep in (0, 1)
    ] + [(400, "two_stage", rep) for rep in (0, 1)]
    serial = monte_carlo(small_config(workers=1, reps=2), out_dir=str(tmp_path / "serial"))
    assert pooled["raw"] == serial["raw"]
    name = "regret_curves.csv"
    assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


# the criterion-3 profiles with more noise: at seed 0 stage one identifies
# every period, at seeds 1 and 2 it misses one
COUPLING_INSTANCE = {
    "arms": [
        {"period": 2, "values": [1.0, 0.0]},
        {"period": 3, "values": [1.0, 0.0, 0.0]},
        {"period": 4, "values": [1.0, 0.0, 0.0, 0.0]},
    ],
    "noise": {"kind": "gaussian", "sigma": 0.4},
    "horizon": 3000,
}
COUPLING_PARAMS = {"n": 900, "g": 30}


def direct_row(policy_id, params, rep, seed, curve_points):
    inst = env.instance_from_dict(COUPLING_INSTANCE)
    res = run_episode(inst, make_policy(policy_id, params), seed)
    grid = sorted({int(t) for t in np.linspace(1, inst.horizon, num=min(inst.horizon, curve_points))})
    return {
        "policy": policy_id,
        "T": inst.horizon,
        "replication": rep,
        "seed": seed,
        "final_regret": res.final_regret,
        "curve_t": grid,
        "curve_regret": [float(res.cumulative_regret[t - 1]) for t in grid],
        "estimated_periods": list(res.estimated_periods),
        "success": tuple(res.estimated_periods) == inst.periods,
        "n_events": len(res.events),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "policies",
    [
        pytest.param([{"id": "oracle", "params": COUPLING_PARAMS}, {"id": "two_stage", "params": COUPLING_PARAMS}],
                     id="coupled"),
        pytest.param([{"id": "two_stage", "params": COUPLING_PARAMS},
                      {"id": "oracle", "params": {**COUPLING_PARAMS, "g": 40}}], id="g-differs"),
        pytest.param([{"id": "oracle", "params": COUPLING_PARAMS}], id="oracle-only"),
    ],
)
def test_coupled_oracle_rows_equal_direct_episodes(policies, workers):
    cfg = {"instance": COUPLING_INSTANCE, "policies": policies, "replications": 3, "base_seed": 0,
           "curve_points": 40, "workers": workers}
    params = {pol["id"]: pol["params"] for pol in policies}
    with mock.patch.object(harness, "run_episode", wraps=run_episode) as episodes:
        raw = monte_carlo(cfg)["raw"]
    assert [(r["policy"], r["replication"]) for r in raw] == [(p["id"], rep) for p in policies for rep in range(3)]
    for row in raw:
        direct = direct_row(row["policy"], params[row["policy"]], row["replication"], row["seed"], 40)
        assert list(row) == list(direct)
        assert row == direct
    if workers == 1:
        oracle_runs = sum(1 for c in episodes.call_args_list if c.args[1].policy_id == "oracle")
        if "two_stage" in params and params["two_stage"] == params["oracle"]:
            identified = [r["success"] for r in raw if r["policy"] == "two_stage"]
            assert True in identified and False in identified
            assert oracle_runs == identified.count(False)
        else:
            assert oracle_runs == 3


def test_pool_takes_no_job_for_a_coupled_oracle(tmp_path):
    # the two_stage jobs bring the oracle's rows; outputs match the serial run
    submitted = []

    class SerialPool:
        def __init__(self, processes):
            assert processes == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs, chunksize=None):
            assert chunksize == 1
            submitted.extend((job[1], job[2], job[4]) for job in jobs)
            return [func(job) for job in jobs]

    def config(workers):
        cfg = small_config(workers=workers, reps=2)
        cfg["policies"].insert(1, {"id": "oracle", "params": {"n": 64, "g": 8}})
        return cfg

    with mock.patch.object(harness, "Pool", SerialPool):
        pooled = monte_carlo(config(2), out_dir=str(tmp_path / "pool"))
    assert submitted == [
        (600, pid, rep) for pid in ("two_stage", "stationary_ucb") for rep in (0, 1)
    ] + [(400, "two_stage", rep) for rep in (0, 1)]
    serial = monte_carlo(config(1), out_dir=str(tmp_path / "serial"))
    assert pooled["raw"] == serial["raw"]
    assert {(r["policy"], r["T"]) for r in serial["raw"] if r["policy"] == "oracle"} == {("oracle", 400), ("oracle", 600)}
    name = "regret_curves.csv"
    assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def horizon_row(inst, policy_id, rep, seed):
    """The row (40 curve points) of one episode run directly at
    ``inst.horizon``, and the episode."""
    res = run_episode(inst, make_policy(policy_id), seed)
    grid = sorted({int(t) for t in np.linspace(1, inst.horizon, num=min(inst.horizon, 40))})
    row = {
        "policy": policy_id,
        "T": inst.horizon,
        "replication": rep,
        "seed": seed,
        "final_regret": res.final_regret,
        "curve_t": grid,
        "curve_regret": [float(res.cumulative_regret[t - 1]) for t in grid],
        "estimated_periods": list(res.estimated_periods) if res.estimated_periods else None,
        "success": None if res.estimated_periods is None else tuple(res.estimated_periods) == inst.periods,
        "n_events": len(res.events),
    }
    return row, res


# two arms of one period, so per_phase_ucb can run; lcm_ucb's stage-one n
# reads T, so its episodes at different horizons are not prefixes
HORIZON_FREE_POLICIES = [{"id": "stationary_ucb"}, {"id": "per_phase_ucb"}, {"id": "lcm_ucb"}]


def horizon_free_config(kind, workers):
    spec = {
        "arms": [{"period": 2, "values": [0.9, 0.1]}, {"period": 2, "values": [0.2, 0.7]}],
        "noise": {"kind": kind, "sigma": 0.3},
        "horizon": 600,
    }
    return {"instance": spec, "policies": HORIZON_FREE_POLICIES, "horizons": [150, 300, 600], "replications": 2,
            "base_seed": 0, "curve_points": 40, "workers": workers}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["gaussian", "uniform-bounded"])
def test_horizon_free_rows_equal_direct_episodes(kind, workers):
    cfg = horizon_free_config(kind, workers)
    spec, horizons = cfg["instance"], cfg["horizons"]
    with mock.patch.object(harness, "run_episode", wraps=run_episode) as episodes:
        raw = monte_carlo(cfg)["raw"]
    assert [(r["policy"], r["T"], r["replication"]) for r in raw] == [
        (p["id"], T, rep) for p in HORIZON_FREE_POLICIES for T in horizons for rep in range(2)
    ]
    inst = env.instance_from_dict(spec)
    for row in raw:
        at_T = BanditInstance(arms=inst.arms, noise=inst.noise, horizon=row["T"])
        direct, res = horizon_row(at_T, row["policy"], row["replication"], row["seed"])
        assert row == direct
        if row["policy"] != "lcm_ucb":
            # the shorter episode is the first T epochs of the longest one
            _, longest = horizon_row(inst, row["policy"], row["replication"], row["seed"])
            assert np.array_equal(res.actions, longest.actions[: row["T"]])
            assert np.array_equal(res.cumulative_regret, longest.cumulative_regret[: row["T"]])
    if workers == 1:
        # one episode per replication for a horizon-free policy, one per
        # (horizon, replication) otherwise
        runs = [(c.args[1].policy_id, c.args[0].horizon) for c in episodes.call_args_list]
        assert runs == [(pid, 600) for pid in ("stationary_ucb", "per_phase_ucb") for _ in range(2)] + [
            ("lcm_ucb", T) for T in horizons for _ in range(2)
        ]


# sha256 of the UCB baselines' curves on the config above (gaussian noise),
# recorded with one UCB1 object per cell before the three baselines shared
# one UCB1 body over residue cells
HORIZON_FREE_CURVES_SHA256 = "3be0daec060bfd649d2fb341ef6f6e13b210971493291eabc67e67be5dea9432"


def test_horizon_free_golden_bytes(tmp_path):
    monte_carlo(horizon_free_config("gaussian", 1), out_dir=str(tmp_path))
    digest = hashlib.sha256((tmp_path / "regret_curves.csv").read_bytes()).hexdigest()
    assert digest == HORIZON_FREE_CURVES_SHA256


def test_horizon_dependent_instance_is_not_shared():
    # an e1 preset's gap is sqrt(1/(2T)), so its T=400 instance is not the
    # T=800 one: stationary_ucb runs at each horizon and matches direct episodes
    cfg = {"instance": {"preset": "e1"}, "policies": [{"id": "stationary_ucb"}], "horizons": [400, 800],
           "replications": 2, "base_seed": 0, "curve_points": 40, "workers": 1}
    with mock.patch.object(harness, "run_episode", wraps=run_episode) as episodes:
        raw = monte_carlo(cfg)["raw"]
    assert [c.args[0].horizon for c in episodes.call_args_list] == [400, 400, 800, 800]
    for row in raw:
        inst = resolve_instance({"preset": "e1", "params": {"T": row["T"]}})
        direct, _ = horizon_row(inst, "stationary_ucb", row["replication"], row["seed"])
        assert row == direct
    assert raw[0]["final_regret"] == pytest.approx(10.50, abs=0.005)


@pytest.mark.parametrize("kind", ["gaussian", "uniform-bounded"])
@pytest.mark.parametrize("seed", range(5))
def test_noise_stream_is_a_prefix_of_a_longer_one(kind, seed):
    # what lets a horizon-free policy's short episodes be cut from a long one
    model = NoiseModel(kind, 0.5)
    long = NoiseStream(model, seed, 5000).values
    for T in (1, 37, 2500, 4999):
        assert np.array_equal(NoiseStream(model, seed, T).values, long[:T])


@pytest.mark.filterwarnings("ignore:skipped")
def test_undefined_sweep_slope_is_null_in_strict_json(tmp_path):
    # one arm: zero regret at every horizon, so no slope can be fitted; a bare
    # NaN would make summary.json invalid JSON
    def reject(constant):
        raise ValueError(f"{constant} in summary.json")

    cfg = {"instance": {"arms": [{"period": 2, "values": [0.9, 0.1]}], "noise": {"sigma": 0.2}, "horizon": 400},
           "policies": [{"id": "stationary_ucb"}], "horizons": [100, 200, 400], "replications": 2,
           "base_seed": 0, "workers": 1}
    monte_carlo(cfg, out_dir=str(tmp_path))
    path = tmp_path / "summary.json"
    assert json.loads(path.read_text(), parse_constant=reject)["sweep_slopes"] == {"stationary_ucb": None}
    before = path.read_bytes()
    report_from_dir(str(tmp_path))
    assert path.read_bytes() == before


def test_curve_grid_equals_sorted_unique():
    # the grid drops repeats of a nondecreasing array by adjacent difference;
    # it is numpy's unique() of the same points, value for value and in dtype,
    # except that one point is epoch T, where linspace would give its start
    for T in (1, 2, 3, 7, 100, 127, 128, 129, 400, 2500, 40000):
        for points in (1, 2, 3, 40, 128, 1000, 50000):
            want = np.unique(np.linspace(1, T, num=min(T, points)).astype(int)) if points > 1 else np.array([T])
            got = harness._curve_grid(T, points)
            assert got.dtype == want.dtype and np.array_equal(got, want), (T, points)


def test_sweep_job_imports_no_masked_arrays():
    # numpy's unique() imports numpy.ma on its first call, about 27 ms in a
    # fresh pool worker; a job (workers=1 runs the pool's _run_job in process)
    # and the summary must not pay it
    code = textwrap.dedent(f"""
        import json
        import sys
        from periodic_bandits.harness import monte_carlo
        with open({DEFAULT_SWEEP_PATH!r}) as fh:
            cfg = json.load(fh)
        cfg.update(horizons=[300, 600], replications=1, workers=1)
        monte_carlo(cfg)
        assert "numpy.ma" not in sys.modules, "numpy.ma imported"
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_pool_workers_inherit_numpy_random():
    # numpy loads numpy.random on first use; a sweep with workers > 1 loads it
    # before the pool forks, so the workers inherit it instead of each paying
    # for the import on its first job (-X importtime logs every process)
    code = textwrap.dedent(f"""
        import json
        from periodic_bandits.harness import monte_carlo
        with open({DEFAULT_SWEEP_PATH!r}) as fh:
            cfg = json.load(fh)
        cfg.update(horizons=[300, 600], replications=2, workers=2)
        monte_carlo(cfg)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert imported.count("numpy.random") == 1


# sha256 of a small default-shaped sweep's outputs, recorded with the
# per-decision recomputation of every confidence width; an optimisation that
# flips a tie or reorders a float operation changes them
GOLDEN_SWEEP_SHA256 = {
    "regret_curves.csv": "7186ca8492c6a6d3ec9fdccec72e58f264e81eca75db57d9f98bf8e4e084aee2",
    "summary.json": "a82270017b3a37e4745a2b3c355959348a2576c2452c46221f9d81a6ea9df416",
}


def test_small_sweep_golden_bytes(tmp_path):
    cfg = load_default_sweep()
    cfg.update(horizons=[2500, 5000, 10000], replications=2)
    monte_carlo(cfg, out_dir=str(tmp_path))
    for name, digest in GOLDEN_SWEEP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_config_hash_stable_and_sensitive():
    cfg = small_config()
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
    other = small_config()
    other["base_seed"] = 1
    assert config_hash(cfg) != config_hash(other)


def test_presets():
    demo = resolve_instance({"preset": "demo", "params": {"n": 50, "sigma": 0.2}})
    assert demo.periods == (4,)
    sweep = resolve_instance({"preset": "sweep_default", "params": {"horizon": 1234}})
    assert sweep.horizon == 1234 and sweep.periods == (2, 3, 4)
    e1 = resolve_instance({"preset": "e1", "params": {"T": 400}})
    assert e1.periods == (1, 1)
    with pytest.raises(ValueError):
        resolve_instance({"preset": "nope"})


# what a preset needs besides its horizon param; every other preset builds from its defaults
PRESET_PARAMS = {"e3": {"periods": [3, 2]}}


@pytest.mark.parametrize("name", sorted(env.PRESETS))
def test_each_preset_resolves_at_a_horizon(name):
    # a config horizon fills the preset's horizon param, one rule for every
    # entry of PRESETS, and that param given as well is an error
    make, key = env.PRESETS[name]
    params = PRESET_PARAMS.get(name, {})
    inst = resolve_instance({"preset": name, "params": params}, horizon=120)
    assert inst.horizon == 120 and inst == make(**params, **{key: 120})
    with pytest.raises(ValueError, match=f"^preset '{name}' reads the horizon: give either horizons or a {key} param$"):
        resolve_instance({"preset": name, "params": {**params, key: 120}}, horizon=120)


def test_sweep_default_preset_takes_the_function_defaults():
    # the preset forwards its params, so default_sweep_instance's signature
    # holds the only defaults, and a misspelt param is an error
    assert resolve_instance({"preset": "sweep_default"}) == default_sweep_instance(40000)
    assert (resolve_instance({"preset": "sweep_default", "params": {"sigma": 0.1}})
            == default_sweep_instance(40000, sigma=0.1))
    with pytest.raises(TypeError):
        resolve_instance({"preset": "sweep_default", "params": {"sigmaa": 0.1}})


def test_demo_preset_takes_the_function_defaults():
    # like sweep_default, the demo preset forwards its params: n and sigma
    # default to 50 and 0.2, and a misspelt param is an error
    assert resolve_instance({"preset": "demo"}) == make_demo_instance(50, 0.2)
    assert resolve_instance({"preset": "demo", "params": {"sigma": 5.0}}) == make_demo_instance(50, 5.0)
    assert resolve_instance({"preset": "demo", "params": {"n": 80}}).horizon == 80
    with pytest.raises(TypeError):
        resolve_instance({"preset": "demo", "params": {"sigmaa": 5.0}})


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_loglog_slope_recovers_power_laws():
    T = np.array([1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000, 256000, 512000])
    assert loglog_slope(T, 3.0 * np.sqrt(T)) == (pytest.approx(0.5, abs=0.01), 0)
    assert loglog_slope(T, 0.2 * T) == (pytest.approx(1.0, abs=0.01), 0)


def test_loglog_slope_skips_nonpositive():
    # the fit reads the later half of the points, so the zero is in its tail
    xs = [10, 20, 40, 80, 160, 320]
    ys = [1.0, 2.0, 3.0, 0.0, 4.5, 6.0]
    slope, skipped = loglog_slope(xs, ys)
    assert skipped == 1
    assert math.isfinite(slope)


def test_loglog_slope_rejects_tiny_input():
    with pytest.raises(ValueError):
        loglog_slope([10], [1.0])
    # no positive point left to fit: no slope, rather than a made-up one
    assert loglog_slope([10, 20], [0.0, 0.0]) == (None, 2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_constants(capsys):
    assert cli.main(["constants", "--n", "50", "--g", "8"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["u1"] == pytest.approx(0.05047, rel=5e-4)
    assert row["u2"] == pytest.approx(0.02054, rel=5e-4)
    assert row["sigma_coeff"] == pytest.approx(3.337, rel=5e-4)
    assert row["B_coeff"] == pytest.approx(0.2450, rel=5e-4)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["--g", "3"], "g=3 violates g >= max"),
        (["--n", "1"], "n must be at least 2"),
        (["--H", "nan"], "H must be finite"),
        (["--K", "0"], "K >= 1"),
        (["--sigma", "-1"], "sigma must be finite"),
    ],
    ids=["g-3", "n-1", "H-nan", "K-0", "sigma-minus-1"],
)
def test_cli_constants_bad_argument_exits_with_one_line(capsys, args, message):
    # argparse keeps the last of a repeated option, so each case overrides
    # one argument of a good call
    with pytest.raises(SystemExit, match=message) as exc:
        cli.main(["constants", "--n", "50", "--g", "8"] + args)
    assert "\n" not in str(exc.value.code)
    assert capsys.readouterr().out == ""


def test_cli_detect(tmp_path, capsys):
    inst = resolve_instance({"preset": "demo", "params": {"n": 50, "sigma": 0.2}})
    path = tmp_path / "series.csv"
    path.write_text("\n".join(str(m) for m in means_matrix(inst)[0].tolist()))
    assert cli.main(["detect", str(path), "--sigma", "0.2", "--t-max", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["period"] == 4
    assert out["identified"] == ["1/4", "1/2"]
    assert out["threshold"] == pytest.approx(0.8519, abs=1e-3)
    assert out["failure_bound"] == pytest.approx(0.0167, abs=5e-4)


@pytest.mark.parametrize(
    ("rows", "args", "message"),
    [pytest.param(50, [o, v, "--t-max", "10"], f"{o[2:]} must be finite", id=f"{o}-{v}")
     for o, v in (("--sigma", "nan"), ("--sigma", "inf"), ("--H", "nan"), ("--H", "inf"), ("--sigma", "-1"))]
    + [pytest.param(50, ["--g", "1", "--t-max", "10"], "g=1 violates g >= max", id="--g-1")]
    + [pytest.param(50, ["--t-max", v], f"--t-max must be at least 2, got {v}$", id=f"--t-max-{v}")
       for v in ("1", "0")]
    # 12 rows at the default g=4 leave t_max=1, below every period
    + [pytest.param(12, [], r"n=12 samples at g=4 give t_max=1: no period is", id="12-rows")],
)
def test_cli_detect_bad_argument_exits_with_one_line(tmp_path, capsys, rows, args, message):
    # a NaN threshold, like a t_max below 2, would report period 1 as if no
    # peak stood out; a bad argument exits with one line naming the file
    path = tmp_path / "series.csv"
    path.write_text("\n".join(_demo_rows()[:rows]))
    with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: .*{message}") as exc:
        cli.main(["detect", str(path), "--sigma", "0.2"] + args)
    assert "\n" not in str(exc.value)
    assert capsys.readouterr().out == ""


def test_cli_detect_epoch_column(tmp_path, capsys):
    # the epoch column sets each sample's phase: a series may start at any
    # epoch, and a row of one value is numbered from epoch 1
    cases = [
        (["epoch,value"] + _demo_rows(), ["--sigma", "0.2", "--t-max", "10"], 4),
        ([f"{t},{[0.9, 0.1, 0.5, 0.3][t % 4]}" for t in range(1001, 1501)], ["--sigma", "0.1"], 4),
        # a prime length, whose length-n FFTs have no small factors
        ([f"{t},{[0.9, 0.1, 0.5][t % 3]}" for t in range(20001, 20578)], ["--sigma", "0.1"], 3),
        ([str(t % 2) for t in range(1, 41)], ["--sigma", "0.1"], 2),
    ]
    path = tmp_path / "series.csv"
    for rows, args, period in cases:
        path.write_text("\n".join(rows))
        assert cli.main(["detect", str(path)] + args) == 0
        assert json.loads(capsys.readouterr().out)["period"] == period


def test_cli_detect_skips_blank_rows(tmp_path, capsys):
    # an empty, all-space or all-separator row adds no sample
    rows = _demo_rows()
    outs = []
    for name, lines in (("plain", rows), ("blank", ["", *rows[:20], "  ", ",", *rows[20:], " ; ", ""])):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines))
        assert cli.main(["detect", str(path), "--sigma", "0.2", "--t-max", "10"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["period"] == 4


def _demo_rows():
    inst = resolve_instance({"preset": "demo", "params": {"n": 50, "sigma": 0.2}})
    return [f"{t},{m}" for t, m in enumerate(means_matrix(inst)[0].tolist(), start=1)]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda rows: rows[:20] + ["oops,0.5"] + rows[20:], r"line 22: non-numeric row 'oops,0.5'"),
        (lambda rows: ["t,y"] + rows, r"line 2: non-numeric row 't,y'"),
        (lambda rows: rows[:25] + [f"{t},0.5" for t in range(40, 65)], r"line 27: epoch 40 does not follow epoch 25"),
        (lambda rows: rows[:9] + ["10,nan"] + rows[10:], r"line 11: non-finite value"),
        (lambda rows: ["1.5,0.2"] + rows[1:], r"line 2: epoch 1.5 is not an integer"),
        (lambda rows: rows[:5] + ["6,0.1,7.5"] + rows[6:], r"line 7: 3 columns in '6,0.1,7.5'"),
        (lambda rows: [], r"no numeric samples found"),
        (lambda rows: rows + ["0.5"], r"epoch column must cover every row"),
        (None, r"No such file or directory"),
    ],
    ids=[
        "late-text-row", "second-header", "epoch-gap", "nan-value", "fractional-epoch", "extra-column",
        "header-only", "value-row-after-epochs", "missing-file",
    ],
)
def test_cli_detect_rejects_malformed_csv(tmp_path, edit, message):
    # cli.main alone turns the error into one line that starts with the path
    path = tmp_path / "series.csv"
    if edit is not None:
        path.write_text("\n".join(["epoch,value"] + edit(_demo_rows())))
    with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: {message}") as exc:
        cli.main(["detect", str(path), "--sigma", "0.2", "--t-max", "10"])
    assert "\n" not in str(exc.value)


def test_cli_sweep_without_horizons_and_report(tmp_path, capsys):
    # a config without horizons runs at its instance horizon
    cfg = small_config()
    del cfg["horizons"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", out]) == 0
    for name in ("regret_curves.csv", "summary.json", "run_meta.json", "raw/rows.json"):
        assert os.path.getsize(os.path.join(out, name)) > 0
    assert cli.main(["report", "--in", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["cells"]
    assert {c["T"] for c in summary["cells"]} == {600}
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--config", str(cfg_path), "--out", out])


@pytest.mark.parametrize("raw", ["missing-raw", "empty-raw", "empty-rows", "per-cell-raw"])
def test_report_without_raw_rows_writes_nothing(small_run, tmp_path, raw):
    # a summary with no cells would look like a run that had no policies; a
    # raw/ of one file per (policy, T) cell, as an earlier layout wrote, is
    # not read
    out = tmp_path / "run"
    out.mkdir()
    if raw != "missing-raw":
        (out / "raw").mkdir()
    if raw == "empty-rows":
        (out / "raw" / "rows.json").write_text("[]")
    if raw == "per-cell-raw":
        rows = json.loads((small_run / "raw" / "rows.json").read_text())
        for pid, T in {(r["policy"], r["T"]) for r in rows}:
            cell_rows = [r for r in rows if (r["policy"], r["T"]) == (pid, T)]
            (out / "raw" / f"{pid}_T{T}.json").write_text(json.dumps(cell_rows))
    before = sorted(out.rglob("*"))
    path = str(out / "raw" / "rows.json")
    with pytest.raises(ValueError, match=re.escape(path)):
        report_from_dir(str(out))
    with pytest.raises(SystemExit, match=re.escape(path)):
        cli.main(["report", "--in", str(out)])
    assert sorted(out.rglob("*")) == before


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run") / "run"
    monte_carlo(small_config(reps=2), out_dir=str(out))
    return out


def _edit_last_row(edit):
    """A damage that applies ``edit`` to the last row of a raw file."""
    def damage(text):
        rows = json.loads(text)
        edit(rows[-1])
        return json.dumps(rows)
    return damage


@pytest.mark.parametrize(
    "name, damage",
    [
        ("raw/rows.json", _edit_last_row(lambda row: row.pop("T"))),
        ("raw/rows.json", _edit_last_row(lambda row: row.update(final_regret=None))),
        ("raw/rows.json", _edit_last_row(lambda row: row.update(T=[400]))),
        ("raw/rows.json", _edit_last_row(lambda row: row.update(replication=None))),
        ("raw/rows.json", _edit_last_row(lambda row: row.update(policy=3))),
        ("raw/rows.json", _edit_last_row(lambda row: row.update(success="yes"))),
        ("raw/rows.json", _edit_last_row(lambda row: row["curve_regret"].pop())),
        # one point short in both curves: the row's curve_t is not its cell's
        ("raw/rows.json",
         _edit_last_row(lambda row: (row["curve_t"].pop(), row["curve_regret"].pop()))),
        ("raw/rows.json", lambda text: json.dumps({"rows": json.loads(text)})),
        ("raw/rows.json", lambda text: text[: len(text) // 2]),
        # every T=600 row relabelled T=400: the T=400 cell gets a second
        # curve_t and each replication twice
        ("raw/rows.json", lambda text: json.dumps([dict(r, T=400 if r["T"] == 600 else r["T"])
                                                   for r in json.loads(text)])),
        # every T=600 row relabelled T=500: one consistent cell at a horizon
        # its curve_t does not end at
        ("raw/rows.json", lambda text: json.dumps([dict(r, T=500 if r["T"] == 600 else r["T"])
                                                   for r in json.loads(text)])),
        ("raw/rows.json", lambda text: json.dumps(json.loads(text) + json.loads(text)[:1])),
        ("run_meta.json", lambda text: json.dumps([json.loads(text)])),
        ("run_meta.json", lambda text: text[: len(text) // 2]),
        ("run_meta.json", None),
    ],
    ids=["raw-row-without-T", "raw-final-regret-null", "raw-T-list", "raw-replication-null", "raw-policy-int",
         "raw-success-string", "raw-curve-regret-short", "raw-curve-short", "raw-object", "raw-not-json",
         "raw-T600-as-T400", "raw-T600-as-T500", "raw-duplicate-row", "meta-list", "meta-not-json", "meta-missing"],
)
def test_report_on_a_damaged_run_exits_naming_the_file(small_run, tmp_path, name, damage):
    # report reads files an earlier run left, which may be damaged: each
    # damage exits with one line naming the file, before summary.json is
    # rewritten; without run_meta.json the hash would be the hash of {}
    out = tmp_path / "run"
    shutil.copytree(small_run, out)
    path = out / name
    if damage is None:
        path.unlink()
    else:
        path.write_text(damage(path.read_text()))
    before = (out / "summary.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(out)])
    message = str(exc.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    assert (out / "summary.json").read_bytes() == before


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert {c["T"] for c in summary["cells"]} == {400, 600}


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"replications": 0}, "replications"),
        ([1, 2], "config must be a JSON object"),
        ("horizons", "config must be a JSON object"),
        (MISSING, "No such file"),
        ({"policies": [{"id": "two_stage", "params": {"n": 50, "g": 3}}]}, "policies entry 'two_stage'"),
        ({"policies": [{"id": ["two_stage"]}]}, "policies entry"),
        ({"instance": {"preset": "e1"}, "horizons": MISSING}, "preset 'e1' reads the horizon.*horizons.*T param"),
        ({"instance": {"preset": "sweep_default", "params": {"horizon": 3000.5}}, "horizons": MISSING},
         "horizon must be an integer of at least 1, got 3000.5"),
        ({"instance": {"preset": "sweep_default", "params": {"sigma": False}}}, "sigma must be a number, got False"),
        ({"instance": {"preset": "e1", "params": {"T": 5000, "T1": 4}}, "horizons": [100]},
         "preset 'e1' reads the horizon: give either horizons or a T param$"),
        ({"instance": {"preset": "sweep_default", "params": {"horizon": 5000}}, "horizons": [100]},
         "preset 'sweep_default' reads the horizon: give either horizons or a horizon param$"),
        ({"instance": {"preset": "demo", "params": {"n": 80}}, "horizons": [100]},
         "preset 'demo' reads the horizon: give either horizons or a n param$"),
        ({"instance": {"preset": "e1", "params": {"T1": 4}}, "horizons": [100]}, "e1 params has unknown key 'T1'"),
        ({"instance": {"preset": "e1", "params": {"T": 0}}, "horizons": MISSING},
         "T must be an integer of at least 1, got 0$"),
        ({"instance": {"preset": "e2", "params": {"T1": 2.5}}}, "T1 must be an integer of at least 2, got 2.5$"),
        ({"instance": {"preset": "e1", "params": {"delta_gap": "0.1"}}},
         "delta_gap must be a finite number, got '0.1'$"),
        ({"instance": {"preset": "e3", "params": {"periods": [2, 2], "perturbation": True}}},
         "perturbation must be a finite number, got True$"),
    ],
    ids=["zero-replications", "list", "string", "missing-file", "g-below-sqrt-n", "list-id", "e1-without-horizons",
         "preset-float-horizon", "preset-bool-sigma", "e1-T-and-horizons", "sweep_default-horizon-and-horizons",
         "demo-n-and-horizons", "e1-T1", "e1-T-0", "e2-T1-float",
         "e1-delta_gap-string", "e3-perturbation-bool"],
)
def test_cli_bad_config_exits_with_one_line(tmp_path, command, config, message):
    # like report, sweep turns a ValueError, or a config file it cannot read,
    # into a one-line exit message naming the config file, not a traceback;
    # a policy entry that cannot be built fails before the output directory
    # is made
    if isinstance(config, dict):
        config = {key: value for key, value in {**small_config(), **config}.items() if value is not MISSING}
    cfg_path = tmp_path / "cfg.json"
    if config is not MISSING:
        cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    with pytest.raises(SystemExit, match=re.escape(str(cfg_path)) + ".*" + message) as exc:
        cli.main([command, "--config", str(cfg_path), "--out", str(out)])
    assert "\n" not in str(exc.value.code)
    assert not out.exists()


def test_summarize_warns_once_naming_the_fits(tmp_path):
    # one arm: zero regret everywhere, so every cell's curve fit and the sweep
    # fit skip points; sweep and report each warn once and name all of them
    cfg = {"instance": {"arms": [{"period": 2, "values": [0.9, 0.1]}], "noise": {"sigma": 0.2}, "horizon": 400},
           "policies": [{"id": "stationary_ucb"}], "horizons": [100, 200, 400], "replications": 2}
    for run in (lambda: monte_carlo(cfg, out_dir=str(tmp_path)), lambda: report_from_dir(str(tmp_path))):
        with pytest.warns(UserWarning) as caught:
            run()
        assert len(caught) == 1
        message = str(caught[0].message)
        for name in ("stationary_ucb T=100", "stationary_ucb T=200", "stationary_ucb T=400", "stationary_ucb sweep"):
            assert name in message


def test_tracer_wraps_and_restores_the_names_the_benchmark_reaches(tmp_path):
    # the benchmark's tracer replaces package names by vars(owner)[attr]: a
    # renamed or moved decide, observe, estimate_periods, nested_cb_decide or
    # run_episode fails its install, and uninstall puts every one back
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(repo, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer(str(tmp_path))
    try:
        tracer.install(t)
        wrapped = [(owner, attr, original, vars(owner)[attr]) for owner, attr, original in t._saved]
    finally:
        t.uninstall()
    assert wrapped
    for owner, attr, original, wrapper in wrapped:
        assert wrapper is not original, f"{owner.__name__}.{attr} not wrapped"
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
