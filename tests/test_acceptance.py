"""Acceptance suite: one test (or parametrized group) per release criterion.

Each criterion prints a [PASS] line with its measured numbers (visible under
``pytest -s``). Tolerances are fixed here, not tuned at runtime.

Erratum: the published reference table's misidentification bound at n=50
(8.365e-2) is not reproducible from the published three-term formula, which
yields 8.374e-2 (the other three rows match to four significant figures).
``TABLE_ROWS`` keeps the published number; ``TABLE_ERRATA`` holds the corrected
one, which that cell is checked against at the same tolerance. The cell also
asserts that the program does not produce the misprint.
"""
import hashlib
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from periodic_bandits.env import (
    BanditInstance,
    MeanProfile,
    NoiseModel,
    make_demo_instance,
)
from periodic_bandits.harness import (
    monte_carlo,
    run_episode,
    write_outputs,
)
from periodic_bandits.policies import elimination_schedule, make_policy
from periodic_bandits.spectral import (
    a_sup,
    amplitude_condition_coefficients,
    compute_periodogram,
    default_H,
    estimate_periods,
    failure_probability_bound,
    frequency_grid,
    threshold_constants,
    u_constants,
)

from helpers import load_default_sweep, means_matrix

SIG4 = 5e-4  # relative half-ulp tolerance for a 4-significant-figure match


def rel_ok(got: float, ref: float) -> bool:
    return abs(got - ref) / abs(ref) < SIG4


# ---------------------------------------------------------------------------
# Criterion 1: deterministic constants table
# ---------------------------------------------------------------------------

TABLE_ROWS = {
    (50, 8): {"u1": 0.05047, "u2": 0.02054, "sig": 3.337, "bcoef": 0.2450, "fail": 8.365e-2},
    (100, 10): {"u1": 0.04077, "u2": 0.02438, "sig": 2.663, "bcoef": 0.2259, "fail": 1.679e-3},
    (200, 15): {"u1": 0.03175, "u2": 0.01970, "sig": 2.080, "bcoef": 0.1748, "fail": 1.756e-5},
    (500, 23): {"u1": 0.02439, "u2": 0.01591, "sig": 1.489, "bcoef": 0.1347, "fail": 1.533e-8},
}

# Published cells that the published formula does not reproduce, with the
# value it does give. n=50, K=5, H = sqrt(1 + ln 50) = 2.2163084...:
# 48K/n^(H^2-1) + 200K/n^(0.867H^2-1) + 200K/n^(0.694H^2-1) = 0.0837366215...
# (40-digit decimal arithmetic), i.e. 8.374e-2, while the same formula matches
# the n=100, 200, 500 cells to within 9e-5 relative. No single change to the
# formula gives 8.365e-2 and keeps those three rows (see CHANGES.md).
TABLE_ERRATA = {((50, 8), "fail"): 8.374e-2}


def _row_values(n, g):
    H = default_H(n)
    u1, u2 = u_constants(n, g)
    sig, bcoef = amplitude_condition_coefficients(threshold_constants(n, g, 1.0, H))
    return {"u1": u1, "u2": u2, "sig": sig, "bcoef": bcoef,
            "fail": failure_probability_bound(n, 5, H)}


def test_criterion1_runtime_under_1s():
    a_sup.cache_clear()
    t0 = time.time()
    for n, g in TABLE_ROWS:
        _row_values(n, g)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 1 runtime: {elapsed * 1000:.0f} ms for all four rows")


@pytest.mark.parametrize("ng", sorted(TABLE_ROWS))
@pytest.mark.parametrize("field", ["u1", "u2", "sig", "bcoef", "fail"])
def test_criterion1_table_cell(ng, field):
    got = _row_values(*ng)[field]
    published = TABLE_ROWS[ng][field]
    ref = TABLE_ERRATA.get((ng, field), published)
    assert rel_ok(got, ref), (
        f"n={ng[0]}, g={ng[1]}, {field}: computed {got:.6g} vs reference {ref:.6g} "
        f"(published {published:.6g})"
    )
    if ref != published:
        assert not rel_ok(got, published), (
            f"n={ng[0]}, g={ng[1]}, {field}: computed {got:.6g} matches the "
            f"published misprint {published:.6g}, not the formula value {ref:.6g}"
        )
    print(f"[PASS] criterion 1 cell n={ng[0]} {field}: {got:.6g} ~= {ref:.6g}")


# ---------------------------------------------------------------------------
# Criterion 2: single-arm spectral demo
# ---------------------------------------------------------------------------

def test_criterion2_demo_identification():
    t0 = time.time()
    inst = make_demo_instance(50, 0.2)
    H = default_H(50)
    target = [Fraction(1, 4), Fraction(1, 2)]

    noise_free = means_matrix(inst)[0]
    periods, ests = estimate_periods([(noise_free, range(1, 51))], 50, 8, H, 0.2, t_max=10)
    assert periods == (4,)
    assert ests[0].identified == target
    tau = ests[0].threshold
    assert abs(tau - 0.842) <= 0.01, f"noise-free threshold {tau:.4f} outside 0.842 +/- 0.01"

    hits = 0
    for rep in range(1000):
        samples = means_matrix(inst)[0] + inst.noise_stream(rep).values
        p, e = estimate_periods([(samples, range(1, 51))], 50, 8, H, 0.2, t_max=10)
        hits += p[0] == 4 and e[0].identified == target
    elapsed = time.time() - t0
    assert hits >= 980, f"only {hits}/1000 runs recovered the exact frequency set"
    assert elapsed < 30.0
    print(
        f"[PASS] criterion 2: noise-free tau={tau:.4f} (target 0.842+/-0.01), "
        f"exact recovery {hits}/1000, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 3: oracle coupling
# ---------------------------------------------------------------------------

def test_criterion3_oracle_coupling(run_recording_rewards):
    t0 = time.time()
    inst = BanditInstance(
        arms=(
            MeanProfile.from_values([1.0, 0.0]),
            MeanProfile.from_values([1.0, 0.0, 0.0]),
            MeanProfile.from_values([1.0, 0.0, 0.0, 0.0]),
        ),
        noise=NoiseModel("gaussian", 0.3),
        horizon=10000,
    )
    params = {"n": 900, "g": 30}
    qualifying, coupled = 0, 0
    for seed in range(20):
        two, two_rewards = run_recording_rewards(inst, make_policy("two_stage", params), seed)
        if tuple(two.estimated_periods) != inst.periods:
            continue
        qualifying += 1
        orc, orc_rewards = run_recording_rewards(inst, make_policy("oracle", params), seed)
        same = (
            np.array_equal(two.actions, orc.actions)
            and np.array_equal(two_rewards, orc_rewards)
            and np.array_equal(two.cumulative_regret, orc.cumulative_regret)
        )
        assert same, f"seed {seed}: correct estimate but traces diverge"
        coupled += 1
    elapsed = time.time() - t0
    assert qualifying >= 10, "too few seeds with correct estimation for a meaningful check"
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 3: {coupled}/{qualifying} qualifying seeds bit-identical "
        f"over all 10000 epochs ({elapsed:.0f}s, 20 seeds total)"
    )


# ---------------------------------------------------------------------------
# Criterion 4: regret-rate properties on the default sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_results():
    cfg = load_default_sweep()
    t0 = time.time()
    # two workers give a serial run's rows (criterion 7) in less wall time;
    # the outputs are still written under the checked-in config, whose hash
    # covers its workers
    res = monte_carlo(dict(cfg, workers=2))
    res["elapsed"] = time.time() - t0
    res["T_max"] = max(cfg["horizons"])
    res["config"] = cfg
    return res


def test_criterion4a_two_stage_slope(sweep_results):
    slope = sweep_results["sweep_slopes"]["two_stage"]
    assert slope <= 0.75, f"two-stage log-log regret slope {slope:.3f} > 0.75"
    print(f"[PASS] criterion 4a: two-stage sweep slope {slope:.3f} <= 0.75")


def test_criterion4b_dominates_baselines(sweep_results):
    T = sweep_results["T_max"]
    cells = sweep_results["cells"]
    two = cells[("two_stage", T)].mean_final_regret
    stat = cells[("stationary_ucb", T)].mean_final_regret
    lcm = cells[("lcm_ucb", T)].mean_final_regret
    assert two < stat, f"two-stage {two:.1f} not below stationary UCB {stat:.1f}"
    assert two < lcm, f"two-stage {two:.1f} not below LCM decomposition {lcm:.1f}"
    print(
        f"[PASS] criterion 4b at T={T}: two-stage {two:.1f} < lcm {lcm:.1f} "
        f"< stationary {stat:.1f}"
    )


def test_criterion4c_oracle_within_two_se(sweep_results):
    T = sweep_results["T_max"]
    cells = sweep_results["cells"]
    two = cells[("two_stage", T)]
    orc = cells[("oracle", T)]
    bound = two.mean_final_regret + 2 * two.se_final_regret
    assert orc.mean_final_regret <= bound, (
        f"oracle {orc.mean_final_regret:.1f} above two-stage + 2 SE {bound:.1f}"
    )
    print(
        f"[PASS] criterion 4c: oracle {orc.mean_final_regret:.1f} <= "
        f"two-stage {two.mean_final_regret:.1f} + 2*{two.se_final_regret:.2f}"
    )


def test_criterion4_runtime(sweep_results):
    assert sweep_results["elapsed"] < 600.0
    print(f"[PASS] criterion 4 runtime: {sweep_results['elapsed']:.0f}s < 600s")


DEFAULT_SWEEP_SHA256 = {
    "regret_curves.csv": "6c6dc7d1e0e752f4b8c1e94660684db2a9d3a550f3d394df9077f89c19d99496",
    "summary.json": "a5afb05242576d035ba46b13831a13e22c7a75eb8a85f04f433a9e8c5bde001a",
}


def test_criterion4_default_sweep_bytes(sweep_results, tmp_path):
    """The full default sweep writes the same bytes as before any speed-up.

    The digests pin every replication of every (policy, horizon) cell, so an
    optimisation of stage two that flips a tie or reorders a float operation
    changes them. The noise comes from numpy's ``Generator`` stream
    (``default_rng``), as in ``test_small_sweep_golden_bytes``: another numpy
    release may change these bytes without any change in this package.
    """
    write_outputs(sweep_results["config"], sweep_results, str(tmp_path))
    for name, digest in DEFAULT_SWEEP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    print("[PASS] criterion 4 bytes: regret_curves.csv and summary.json match their sha256")


# ---------------------------------------------------------------------------
# Criterion 5: sequential elimination
# ---------------------------------------------------------------------------

def test_criterion5_sequential_elimination():
    sigma = 0.1
    inst = BanditInstance(
        arms=(
            MeanProfile.from_values([0.9, 0.7, 0.5, 0.7]),    # cycle average 0.7
            MeanProfile.from_values([0.5, 0.3, 0.1, 0.3]),    # 0.3 (gap 4 sigma)
            MeanProfile.from_values([0.4, 0.3, 0.2, 0.3]),
            MeanProfile.from_values([0.35, 0.3, 0.25, 0.3]),
        ),
        noise=NoiseModel("gaussian", sigma),
        horizon=4000,
    )
    assert elimination_schedule(1, 2, 10000, 4) == 160  # closed-form spot value
    round1_hits = 0
    for seed in range(100):
        res = run_episode(inst, make_policy("seq_elim"), seed)
        log = [detail for _, kind, detail in res.events if kind == "elimination_round"]
        assert log, "horizon too short for a single round"
        for entry in log:
            assert set(entry["survivors"]) <= set(entry["active"])
            assert entry["survivors"]
            assert entry["n_s"] % 4 == 0
        if log[0]["survivors"] == [0]:
            round1_hits += 1
    assert round1_hits >= 95, f"dominated arms survived round 1 in {100 - round1_hits} seeds"
    print(f"[PASS] criterion 5: round-1 elimination in {round1_hits}/100 seeds, n_1 spot value 160")


# ---------------------------------------------------------------------------
# Criterion 6: spectral invariants on randomized profiles
# ---------------------------------------------------------------------------

def test_criterion6_spectral_invariants():
    rng = np.random.default_rng(2024)
    grid = None
    for trial in range(100):
        T = int(rng.integers(2, 9))
        vals = rng.uniform(0, 1, T)
        mult = int(rng.integers(2, 9))
        n = T * mult
        t = np.arange(1, n + 1)
        samples = vals[(t - 1) % T]

        # conjugate symmetry at arbitrary frequencies
        for v in rng.uniform(0, 0.5, 3):
            mags = compute_periodogram(samples, t, [v, 1 - v]).magnitudes
            assert abs(mags[0] - mags[1]) < 1e-12

        # shift invariance of magnitudes
        grid = frequency_grid(min(n, 24))
        base = compute_periodogram(samples, t, grid).magnitudes
        shifted = compute_periodogram(samples, t + int(rng.integers(1, 500)), grid).magnitudes
        assert np.max(np.abs(base - shifted)) < 1e-12

        # orthogonality: |DFT| at j/T equals |b_j|; absent harmonics vanish
        coeffs = np.exp(-2j * np.pi * np.outer(np.arange(T), np.arange(1, T + 1)) / T) @ vals / T
        js = range(1, T // 2 + 1)
        mags = compute_periodogram(samples, t, [j / T for j in js]).magnitudes
        for j, got in zip(js, mags):
            assert abs(got - abs(coeffs[j])) < 1e-9
    print("[PASS] criterion 6: symmetry, shift invariance, orthogonality on 100 random profiles")


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical outputs, also under parallel execution
# ---------------------------------------------------------------------------

def test_criterion7_deterministic_outputs(tmp_path):
    cfg = {
        "instance": {"preset": "sweep_default", "params": {"sigma": 0.04}},
        "policies": [{"id": "two_stage"}, {"id": "stationary_ucb"}],
        "horizons": [1500, 2500],
        "replications": 3,
        "base_seed": 7,
        "curve_points": 64,
        "workers": 1,
    }
    blobs = []
    for i, workers in enumerate([1, 1, 2]):
        run_cfg = dict(cfg, workers=workers)
        out = str(tmp_path / f"run{i}")
        monte_carlo(run_cfg, out_dir=out)
        with open(os.path.join(out, "regret_curves.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1], "same config, different bytes"
    assert blobs[0] == blobs[2], "parallel execution changed output bytes"
    print(f"[PASS] criterion 7: {len(blobs[0])} CSV bytes identical across reruns and workers=2")
