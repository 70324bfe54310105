import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_bandits.env import (
    BanditInstance,
    MeanProfile,
    NoiseModel,
    default_sweep_instance,
    instance_from_dict,
    make_demo_instance,
    make_lower_bound_instance,
    pseudo_regret,
    validity_report,
)
from periodic_bandits.harness import run_episode
from periodic_bandits.policies import make_policy
from periodic_bandits.spectral import ThresholdConstants, threshold_constants

from helpers import means_matrix


def mean(profile: MeanProfile, t: int) -> float:
    """The mean of ``profile`` at epoch t (1-based), read off its cycle."""
    return profile.values[(t - 1) % profile.period]


def instance_metric(a: BanditInstance, b: BanditInstance) -> float:
    """Root sum of squared per-(arm, phase) mean differences between instances.

    Arms are compared over one cycle of the longer of the two declared periods
    (profiles are extended periodically), so instances whose declared periods
    differ but whose means agree are at distance 0.
    """
    if a.n_arms != b.n_arms:
        raise ValueError("instances must have the same number of arms")
    total = 0.0
    for pa, pb in zip(a.arms, b.arms):
        span = max(pa.period, pb.period)
        for t in range(1, span + 1):
            total += (mean(pa, t) - mean(pb, t)) ** 2
    return math.sqrt(total)


def two_arm(values_a, values_b, sigma=0.0, horizon=10):
    return BanditInstance(
        arms=(MeanProfile.from_values(values_a), MeanProfile.from_values(values_b)),
        noise=NoiseModel("gaussian", sigma),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_minimal_period_enforced():
    with pytest.raises(ValueError):
        MeanProfile.from_values([0.3, 0.7, 0.3, 0.7])  # really period 2
    with pytest.raises(ValueError):
        MeanProfile.from_values([0.5, 0.5, 0.5])  # constant
    MeanProfile.from_values([0.3, 0.7])  # fine


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="index 1 must be a finite number"):
        MeanProfile.from_values([0.3, bad, 0.7])
    with pytest.raises(ValueError):
        MeanProfile.from_fourier([0.5, complex(bad, 0.0), complex(bad, 0.0)])


def test_fourier_profile_roundtrip():
    prof = MeanProfile.from_values([0.1, 0.9, 0.2])
    coeffs = prof.fourier_coefficients()
    rebuilt = MeanProfile.from_fourier(list(coeffs))
    assert rebuilt.period == 3
    assert np.allclose(rebuilt.values, prof.values, atol=1e-12)


def test_fourier_profile_rejects_nonconjugate():
    with pytest.raises(ValueError):
        MeanProfile.from_fourier([1.0, 0.5 + 0.5j, 0.5 + 0.5j, 0.5 - 0.5j])


def test_fourier_constant_coefficient_must_be_real():
    with pytest.raises(ValueError):
        MeanProfile.from_fourier([1j, 0.0, 0.0])


def test_mean_at_demo_value():
    inst = make_demo_instance(50, 0.2)
    assert means_matrix(inst)[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_mean_at_small_profile_wraps():
    inst = two_arm([0.2, 0.8], [0.5])
    assert means_matrix(inst)[0, 4] == 0.2  # epoch 5: (5-1) mod 2 = 0


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    t=st.integers(1, 500),
)
def test_mean_periodicity(vals, t):
    try:
        prof = MeanProfile.from_values(vals)
    except ValueError:
        return  # non-minimal draws are rejected by construction
    means = means_matrix(BanditInstance((prof,), NoiseModel(), horizon=t + prof.period))[0]
    assert means[t - 1] == means[t - 1 + prof.period]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_zero_noise_is_exact():
    inst = two_arm([0.2, 0.8], [0.5], sigma=0.0)
    stream = inst.noise_stream(seed=7)
    assert means_matrix(inst)[0, 1] + stream.values[1] == 0.8


@pytest.mark.parametrize("kind", ["gaussian", "uniform-bounded"])
def test_zero_sigma_stream_is_positive_zero(kind):
    # a sigma of 0 takes the same draw as any other sigma: N(0, 0) and
    # U[-0, 0] scale every variate by 0.0 and shift it by +0.0, so no -0.0
    # reaches a reward
    for seed in range(5):
        inst = BanditInstance((MeanProfile.from_values([0.5]),), NoiseModel(kind, 0.0), 40_000)
        eps = inst.noise_stream(seed).values
        assert eps.shape == (40_000,) and not eps.any() and not np.signbit(eps).any()


def test_sampling_bit_identical_across_streams():
    inst = two_arm([0.2, 0.8], [0.5], sigma=1.0, horizon=100)
    a = means_matrix(inst)[0] + inst.noise_stream(3).values
    b = means_matrix(inst)[0] + inst.noise_stream(3).values
    assert np.array_equal(a, b)


def test_noise_is_arm_independent():
    # the draw at epoch t depends on (seed, epoch) only, never on the arm
    inst = two_arm([0.2, 0.8], [0.5], sigma=1.0, horizon=50)
    s1, s2 = inst.noise_stream(3), inst.noise_stream(3)
    means = means_matrix(inst)[1]
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(means + s2.values, means + s1.values)


def test_law_of_large_numbers_at_fixed_phase():
    # 1e5 draws of arm 0 at phase 1; tolerance 5 sigma / sqrt(N) = 0.0158 < 0.02
    inst = make_demo_instance(4 * 10**5, 1.0)
    draws = (means_matrix(inst)[0] + inst.noise_stream(123).values)[::4]  # epochs 1, 5, 9, ...
    assert abs(np.mean(draws) - 3.0) < 0.02


def test_uniform_noise_bounded():
    model = NoiseModel("uniform-bounded", 0.3)
    draws = model.draw(np.random.default_rng(0), 10_000)
    assert np.all(np.abs(draws) <= 0.3)
    assert abs(draws.mean()) < 0.01


def test_unknown_noise_kind():
    with pytest.raises(ValueError):
        NoiseModel("laplace", 1.0)


@pytest.mark.parametrize(
    ("build", "named"),
    [
        (lambda: BanditInstance((MeanProfile.from_values([0.9, 0.1]),), NoiseModel(), horizon=2.5), "horizon"),
        (lambda: BanditInstance((MeanProfile.from_values([0.9, 0.1]),), NoiseModel(), horizon=True), "horizon"),
        (lambda: MeanProfile(period=2.0, values=(0.9, 0.1)), "period must be an integer"),
        (lambda: MeanProfile.from_values(["0.9", 0.1]), "index 0 must be a finite number"),
        (lambda: MeanProfile.from_values([True, 0.0]), "index 0 must be a finite number"),
        (lambda: NoiseModel("gaussian", True), "sigma must be a finite number, got True"),
        (lambda: NoiseModel("gaussian", "0.1"), "sigma must be a finite number, got '0.1'"),
        (lambda: MeanProfile(period=3, values=(0.9, 0.1)), "^values must contain exactly `period` entries$"),
        (lambda: MeanProfile.from_fourier([]), "^need at least one coefficient$"),
        (lambda: BanditInstance((), NoiseModel(), horizon=10), "^need at least one arm$"),
    ],
    ids=["horizon-float", "horizon-bool", "period-float", "value-string", "value-bool", "sigma-bool",
         "sigma-string", "values-count", "fourier-empty", "no-arms"],
)
def test_constructors_check_their_own_fields(build, named):
    # each type checks the fields it holds, however it is built: a preset or
    # an API caller gets the checks an inline config gets
    with pytest.raises(ValueError, match=named):
        build()


def test_constructors_store_floats():
    prof = MeanProfile(period=2, values=[1, 0])
    assert prof.values == (1.0, 0.0) and all(type(v) is float for v in prof.values)
    assert type(NoiseModel("gaussian", 1).sigma) is float


@pytest.mark.parametrize("kind", ["gaussian", "uniform-bounded"])
@pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
def test_noise_rejects_bad_sigma(kind, sigma):
    with pytest.raises(ValueError, match=f"sigma must be {'>= 0' if sigma < 0 else 'a finite number'}, got {sigma}"):
        NoiseModel(kind, sigma)


# ---------------------------------------------------------------------------
# pseudo-regret
# ---------------------------------------------------------------------------

def test_pseudo_regret_small_example():
    inst = two_arm([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], horizon=3)
    gaps, cum = pseudo_regret(inst, [0, 0, 0])
    assert list(gaps) == [0.0, 1.0, 0.0]
    assert cum[-1] == 1.0


def test_pseudo_regret_optimal_play_is_zero():
    inst = two_arm([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], horizon=3)
    gaps, cum = pseudo_regret(inst, [0, 1, 0])
    assert cum[-1] == 0.0


def test_pseudo_regret_matches_bruteforce():
    rng = np.random.default_rng(5)
    inst = BanditInstance(
        arms=(
            MeanProfile.from_values([0.2, 0.9]),
            MeanProfile.from_values([0.5, 0.1, 0.8]),
            MeanProfile.from_values([0.4]),
        ),
        noise=NoiseModel("gaussian", 0.0),
        horizon=20,
    )
    actions = rng.integers(0, 3, size=20)
    gaps, cum = pseudo_regret(inst, actions)
    # independent per-epoch recomputation
    expected = []
    for t in range(1, 21):
        best = max(mean(prof, t) for prof in inst.arms)
        expected.append(best - mean(inst.arms[int(actions[t - 1])], t))
    assert np.allclose(gaps, expected, atol=1e-12)
    assert np.allclose(cum, np.cumsum(expected), atol=1e-12)


def test_pseudo_regret_length_mismatch():
    inst = two_arm([1.0], [0.0], horizon=5)
    with pytest.raises(ValueError):
        pseudo_regret(inst, [0, 1])


@pytest.mark.parametrize("bad", [-1, 2])
def test_pseudo_regret_rejects_out_of_range_action(bad):
    # numpy would read arm -1 as the last arm rather than fail
    with pytest.raises(IndexError, match="action index out of range"):
        pseudo_regret(two_arm([1.0], [0.0], horizon=3), [0, bad, 1])


@pytest.mark.parametrize(("actions", "dtype"), [([0.5] * 10, "float64"), ([True] * 10, "bool")],
                         ids=["float", "bool"])
def test_pseudo_regret_rejects_non_integer_actions(actions, dtype):
    # an int cast would read 0.5 as arm 0 and True as arm 1
    with pytest.raises(ValueError, match=f"^actions must be integers, got dtype {dtype}$"):
        pseudo_regret(default_sweep_instance(horizon=10), actions)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_pseudo_regret_nonnegative_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    inst = two_arm([0.9, 0.1], [0.3, 0.6, 0.2], horizon=30)
    gaps, cum = pseudo_regret(inst, rng.integers(0, 2, 30))
    assert np.all(gaps >= 0)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] == pytest.approx(gaps.sum())


def means_matrix_regret(inst: BanditInstance, actions) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and their prefix sums from the whole (K, T) means matrix."""
    means = means_matrix(inst)
    gaps = means.max(axis=0) - means[np.asarray(actions, dtype=int), np.arange(inst.horizon)]
    return gaps, np.cumsum(gaps)


@settings(max_examples=80, deadline=None)
@given(
    profiles=st.lists(
        st.integers(1, 7).flatmap(lambda p: st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p, unique=True)),
        min_size=1,
        max_size=4,
    ),
    horizon=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
# lcm(5, 7, 3) = 105 above T, and lcm(4, 6) = 12 repeated 16 times and cut
@example(profiles=[[0.1, 0.5, 0.3, 0.7, 0.2], [0.9, 0.0, 0.4, 0.6, 0.8, 0.05, 0.3], [0.2, 0.4, 0.6]],
         horizon=100, seed=0)
@example(profiles=[[0.3, 0.9, 0.1, 0.5], [0.8, 0.2, 0.6, 0.0, 0.4, 0.7]], horizon=200, seed=1)
@example(profiles=[[0.5]], horizon=1, seed=0)
def test_pseudo_regret_reads_one_cycle_bit_for_bit(profiles, horizon, seed):
    # the gaps read off one lcm(periods) cycle, capped at T, carry the bits of
    # the gaps read off the whole means matrix, and so do their prefix sums
    inst = BanditInstance(tuple(MeanProfile.from_values(v) for v in profiles), NoiseModel("gaussian", 0.1), horizon)
    actions = np.random.default_rng(seed).integers(0, len(profiles), horizon)
    for got, want in zip(pseudo_regret(inst, actions), means_matrix_regret(inst, actions)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    res = run_episode(inst, make_policy("stationary_ucb"), seed)
    assert res.actions.dtype == np.int64 and res.actions.shape == (horizon,)
    assert res.cumulative_regret.tobytes() == means_matrix_regret(inst, res.actions)[1].tobytes()


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------

def test_demo_instance_profile_and_spectrum():
    inst = make_demo_instance(50, 0.2)
    # direct evaluation of 3 + 3 sin(pi t / 2) + 3 cos(pi t) at t = 1..4
    assert np.allclose(inst.arms[0].values, [3.0, 6.0, -3.0, 6.0], atol=1e-12)
    mags = np.abs(inst.arms[0].fourier_coefficients())
    assert mags[0] == pytest.approx(3.0, abs=1e-9)   # v = 0
    assert mags[1] == pytest.approx(1.5, abs=1e-9)   # v = 1/4
    assert mags[2] == pytest.approx(3.0, abs=1e-9)   # v = 1/2
    report = validity_report(inst)
    assert not report["all_means_in_unit_interval"]


def test_demo_instance_needs_full_cycle():
    with pytest.raises(ValueError, match="^need n >= 4 for one full cycle$"):
        make_demo_instance(3, 0.1)


def test_e1_default_gap():
    inst = make_lower_bound_instance("e1", T=10000)
    assert inst.arms[0].values[0] - 0.5 == pytest.approx(math.sqrt(1 / 20000), abs=1e-12)
    assert inst.arms[0].values[0] == pytest.approx(0.50707, abs=1e-5)


def test_e1_sign_variant():
    inst = make_lower_bound_instance("e1", T=100, delta_gap=0.1, sign=-1)
    assert inst.arms[0].values[0] == pytest.approx(0.4)


def test_e1_invalid_gap():
    with pytest.raises(ValueError):
        make_lower_bound_instance("e1", T=100, delta_gap=0.7)


@pytest.mark.parametrize(
    ("family", "params", "named"),
    [
        ("e1", {"sign": 0}, "sign must be"),
        ("e1", {"sign": 3}, "sign must be"),
        ("e3", {"periods": [0, 2]}, "e3 period must be an integer"),
        ("e3", {"periods": [-3, 2, 2]}, "e3 period must be an integer"),
        ("e1", {"T1": 4}, "^e1 params has unknown key 'T1'; expected one of T, delta_gap, sign, sigma$"),
        ("e1", {"periods": [3, 2]}, "^e1 params has unknown key 'periods'"),
        ("e1", {"perturbation": 0.1}, "^e1 params has unknown key 'perturbation'"),
        ("e2", {"periods": [3, 2]},
         "^e2 params has unknown key 'periods'; expected one of T, delta_gap, sign, sigma, T1$"),
        ("e3", {"periods": [3, 2], "T1": 4}, "^e3 params has unknown key 'T1'"),
        ("e1", {"T": 0}, "^T must be an integer of at least 1, got 0$"),
        ("e1", {"T": 2.5}, "^T must be an integer of at least 1, got 2.5$"),
        ("e2", {"T1": 2.5}, "^T1 must be an integer of at least 2, got 2.5$"),
        ("e2", {"T1": True}, "^T1 must be an integer of at least 2, got True$"),
        ("e1", {"delta_gap": "0.1"}, "^delta_gap must be a finite number, got '0.1'$"),
        ("e3", {"periods": [2, 2], "perturbation": True}, "^perturbation must be a finite number, got True$"),
        ("e3", {"periods": [2]}, "^e3 needs the full period list, of at least two arms$"),
        ("e3", {"periods": 3}, "^e3 periods must be a list, got 3$"),
        ("e3", {"periods": "23"}, "^e3 periods must be a list, got '23'$"),
        ("e3", {"periods": {"a": 2, "b": 3}}, re.escape("e3 periods must be a list, got {'a': 2, 'b': 3}") + "$"),
    ],
    ids=["sign-0", "sign-3", "e3-period-0", "e3-period-negative", "e1-T1", "e1-periods", "e1-perturbation",
         "e2-periods", "e3-T1", "T-0", "T-float", "T1-float", "T1-bool", "delta_gap-string", "perturbation-bool",
         "e3-one-period", "e3-periods-int", "e3-periods-string", "e3-periods-dict"],
)
def test_lower_bound_instance_rejects_bad_sign_or_period(family, params, named):
    # sign 0 would build two equal arms and sign 3 triple the gap; a first
    # period below 1 would quietly give arm 0 period 1; a param the family
    # does not read, or one of the wrong type, fails rather than being
    # ignored or converted
    with pytest.raises(ValueError, match=named):
        make_lower_bound_instance(family, **{"T": 1000, "delta_gap": 0.1, **params})


def test_e2_periodic_first_arm():
    inst = make_lower_bound_instance("e2", T=1000, delta_gap=0.2, T1=5)
    assert inst.periods == (5, 1)
    assert inst.arms[0].values[0] == pytest.approx(0.7)
    assert all(v == 0.5 for v in inst.arms[0].values[1:])


def test_e3_zero_perturbation_matches_seed_means():
    seed = make_lower_bound_instance("e2", T=1000, delta_gap=0.2, T1=3)
    e3 = make_lower_bound_instance(
        "e3", T=1000, delta_gap=0.2, periods=[3, 2], perturbation=0.0
    )
    assert np.array_equal(means_matrix(e3), means_matrix(seed))
    assert e3.periods[1] == 1  # flat arm collapses to period 1


def test_e3_metric_value():
    delta = 0.12
    periods = [3, 2, 4, 1]  # arms 2 and 3 perturbed (periods >= 2), arm 4 not
    base = make_lower_bound_instance("e3", T=1000, delta_gap=0.2, periods=periods, perturbation=0.0)
    pert = make_lower_bound_instance("e3", T=1000, delta_gap=0.2, periods=periods, perturbation=delta)
    m = 2
    assert instance_metric(base, pert) == pytest.approx(delta * math.sqrt(m / (2 * len(periods))), abs=1e-12)


def test_e3_perturbation_out_of_range():
    with pytest.raises(ValueError):
        make_lower_bound_instance("e3", T=100, periods=[2, 2], perturbation=2.0)


def test_unknown_family():
    with pytest.raises(ValueError):
        make_lower_bound_instance("e9", T=100)


# ---------------------------------------------------------------------------
# validity report and serialization
# ---------------------------------------------------------------------------

def test_validity_report_period_bound():
    inst = make_demo_instance(50, 0.2)
    report = validity_report(inst, threshold_constants(50, 8, 0.2))
    assert report["period_bound"] == pytest.approx(3.125)
    assert report["period_within_bound"] == [False]  # 4 > 3.125
    assert report["k_at_least_2"] is False


def test_validity_report_amplitude_condition():
    inst = make_demo_instance(50, 0.2)
    report = validity_report(inst, threshold_constants(50, 8, 0.2, math.sqrt(1 + math.log(50))))
    check = report["amplitude_condition"][0]
    # weakest 1.5, strongest 3: required = 3.337 * 0.2 + 0.2450 * 3
    assert check["weakest"] == pytest.approx(1.5, abs=1e-9)
    assert check["required"] == pytest.approx(3.337 * 0.2 + 0.2450 * 3, rel=1e-3)
    assert check["satisfied"]


def test_validity_report_is_plain_json():
    # the amplitude check's constants are numpy scalars; the report is not
    report = validity_report(default_sweep_instance(), threshold_constants(115, 11, 0.04, 2.3))
    assert json.loads(json.dumps(report)) == report
    for check in report["amplitude_condition"]:
        assert type(check["required"]) is float and type(check["satisfied"]) is bool
    assert [c["satisfied"] for c in report["amplitude_condition"]] == [True, False, False]


@pytest.mark.parametrize(
    ("T", "ngt", "within", "met"),
    [
        (2500, (28, 6, 2), [True, False, False], [False, False, False]),
        (5000, (40, 7, 2), [True, False, False], [False, False, False]),
        (10000, (57, 8, 3), [True, True, False], [False, False, False]),
        (20000, (81, 9, 4), [True, True, True], [False, False, False]),
        (40000, (115, 11, 5), [True, True, True], [True, False, False]),
    ],
)
def test_stage_one_table_of_the_default_sweep(T, ngt, within, met):
    # the stage-one table of the sweep's horizons (K=3, sigma 0.04): n, g and
    # t_max, the periods (2, 3, 4) below n/(2g), and the arms that meet the
    # amplitude condition
    detector = ThresholdConstants.for_horizon(T, 3, 0.04)
    assert (detector.n, detector.g, detector.t_max) == ngt
    report = validity_report(default_sweep_instance(T), detector)
    assert report["period_within_bound"] == within
    assert [check["satisfied"] for check in report["amplitude_condition"]] == met


def test_instance_json_roundtrip(tmp_path):
    inst = two_arm([0.2, 0.8], [0.5, 0.1, 0.9], sigma=0.25, horizon=77)
    spec = {
        "arms": [{"period": 2, "values": [0.2, 0.8]}, {"period": 3, "values": [0.5, 0.1, 0.9]}],
        "noise": {"kind": "gaussian", "sigma": 0.25},
        "horizon": 77,
    }
    again = instance_from_dict(json.loads(json.dumps(spec)))
    assert again.periods == inst.periods
    assert again.noise == inst.noise
    assert again.horizon == 77
    assert all(np.allclose(a.values, b.values) for a, b in zip(inst.arms, again.arms))


@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda spec: spec["arms"][0].update(period=2.7), "period"),
        (lambda spec: spec["arms"][0].update(period=True), "period"),
        (lambda spec: spec.update(horizon=300.7), "horizon"),
        (lambda spec: spec.update(horizon=True), "horizon"),
        (lambda spec: spec.update(horizon="300"), "horizon"),
        (lambda spec: spec["arms"][0].update(period=2.0), "period"),
    ],
    ids=["fractional-period", "bool-period", "fractional-horizon", "bool-horizon", "string-horizon", "float-period"],
)
def test_instance_from_dict_rejects_non_integer_period_or_horizon(edit, key):
    # int() would truncate 2.7 to 2 and 300.7 to 300, and read True as 1
    spec = {"arms": [{"period": 2, "values": [0.1, 0.2]}], "horizon": 300}
    assert instance_from_dict(spec).horizon == 300
    edit(spec)
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        instance_from_dict(spec)


def test_instance_from_fourier_spec():
    spec = {
        "arms": [{"period": 2, "fourier": [[0.5, 0.0], [0.25, 0.0]]}],
        "noise": {"kind": "gaussian", "sigma": 0.1},
        "horizon": 10,
    }
    inst = instance_from_dict(spec)
    assert inst.arms[0].values == pytest.approx((0.25, 0.75))
