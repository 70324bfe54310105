import math
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from periodic_bandits import harness, policies
from periodic_bandits.env import BanditInstance, MeanProfile, NoiseModel, default_sweep_instance
from periodic_bandits.harness import run_episode
from periodic_bandits.policies import (
    InstanceView,
    NestedCBState,
    elimination_schedule,
    make_policy,
    recommended_parameters,
)
from periodic_bandits.spectral import default_H

from helpers import means_matrix


def instance(profiles, sigma, horizon):
    return BanditInstance(
        arms=tuple(MeanProfile.from_values(v) for v in profiles),
        noise=NoiseModel("gaussian", sigma),
        horizon=horizon,
    )


COUPLING_INSTANCE = instance(
    [[1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], sigma=0.3, horizon=6000
)
COUPLING_PARAMS = {"n": 900, "g": 30}


def count_same_phase(actions: dict[int, int], index_set: Sequence[int], arm: int, t: int, period: int) -> int:
    """|{j in index_set : action_j = arm and j = t (mod period)}|.

    Literal counting over an explicit index set; the policies keep incremental
    counters, this form is the reference they are checked against.
    """
    if period < 1:
        raise ValueError("period must be positive")
    return sum(1 for j in index_set if actions.get(j) == arm and j % period == t % period)


def row(st: NestedCBState, s: int):
    """(widths, means) of round s, each indexed [arm][phase]: a record's cached
    width, and its mean pooled as a decision pools it. A round past S reads
    the reuse block alone, as round 1's records hold it."""
    if s in st._rounds:
        arms = st._rounds[s]  # per arm and phase: [width, c_s, sum_s, c_bar, part, bar sum]
    else:
        arms = [[[part / c if c else math.inf, 0, 0.0, c, part, total] for _, _, _, c, part, total in cells]
                for cells in st._rounds[1]]
    mean = lambda cell: (cell[5] + cell[2]) / (cell[3] + cell[1]) if cell[3] + cell[1] else math.nan
    return [[cell[0] for cell in cells] for cells in arms], [[mean(cell) for cell in cells] for cells in arms]


def cell_width(st: NestedCBState, s: int, arm: int, t: int) -> float:
    """Cached width of round s at arm's phase of epoch t."""
    return row(st, s)[0][arm][t % st.periods[arm]]


def cell_mean(st: NestedCBState, s: int, arm: int, t: int) -> float:
    """Cached pooled mean of round s at arm's phase of epoch t."""
    return row(st, s)[1][arm][t % st.periods[arm]]


def run_recording_rounds(inst: BanditInstance, pol, seed: int, decide=None):
    """One episode, with the index sets rebuilt from the tournament's rounds.

    Returns (result, {epoch: round}, reuse block, {round: index set}). The reuse
    block is every epoch that ``nested_cb_decide`` did not decide, and round
    s's index set every epoch it charged to s; an exploit epoch (round None)
    joins no set. ``decide`` replaces ``nested_cb_decide`` for the episode.
    """
    rounds = {}
    real = decide or policies.nested_cb_decide

    def recording(state, t):
        arm, s = real(state, t)
        rounds[t] = s
        return arm, s

    with mock.patch.object(policies, "nested_cb_decide", recording):
        res = run_episode(inst, pol, seed)
    psi_bar = [t for t in range(1, inst.horizon + 1) if t not in rounds]
    psi_rounds = {}
    for t, s in sorted(rounds.items()):
        if s is not None:
            psi_rounds.setdefault(s, []).append(t)
    return res, rounds, psi_bar, psi_rounds


def assert_counts_match_index_sets(st: NestedCBState, res, n_k: int, psi_bar, psi_rounds) -> None:
    """counts_at equals a literal count over the index sets in every
    (round, arm, phase) cell, and the counts of all cells sum to stage one's
    n K epochs plus the exploration epochs."""
    actions = {t: int(a) for t, a in enumerate(res.actions, start=1)}
    total = 0
    for arm, period in enumerate(st.periods):
        for phase in range(period):
            c_bar = count_same_phase(actions, psi_bar, arm, phase, period)
            for s in range(1, st.S + 1):
                c_s = count_same_phase(actions, psi_rounds.get(s, []), arm, phase, period)
                assert st.counts_at(s, arm, phase) == (c_bar, c_s)
                total += c_s
            total += c_bar
    assert total == n_k + sum(len(r) for r in psi_rounds.values())


# ---------------------------------------------------------------------------
# schedules and parameters
# ---------------------------------------------------------------------------

def test_recommended_parameters_values():
    n, g, H = recommended_parameters(10000, 4)
    assert (n, g) == (50, 8)
    assert H == pytest.approx(2.2163, abs=1e-4)
    assert recommended_parameters(40000, 4)[:2] == (100, 10)


def test_recommended_parameters_budget():
    for T, K in [(100, 2), (5000, 7), (40000, 3)]:
        n, _, _ = recommended_parameters(T, K)
        assert n * K <= math.sqrt(T * K) + 1e-9


def test_recommended_parameters_short_horizon():
    with pytest.raises(ValueError):
        recommended_parameters(16, 4)


def test_stage_one_schedule():
    # both policies with a stage one pull the arms in order, n = 50 each
    inst = instance([[0.9, 0.1], [0.1, 0.9, 0.2], [0.5], [0.3, 0.6]], sigma=0.1, horizon=400)
    for pid in ("two_stage", "lcm_ucb"):
        actions = run_episode(inst, make_policy(pid, {"n": 50}), seed=0).actions[: 50 * 4]
        assert actions.tolist() == [k for k in range(4) for _ in range(50)]


def test_count_same_phase():
    actions = {j: 0 for j in range(1, 9)}
    assert count_same_phase(actions, range(1, 9), 0, 9, 4) == 2  # epochs 1 and 5
    assert count_same_phase(actions, [], 0, 9, 4) == 0


def test_elimination_schedule_values():
    assert elimination_schedule(1, 2, 10000, 4) == 160
    for s in range(1, 9):
        assert elimination_schedule(s, 3, 5000, 6) % 6 == 0
    # geometric growth factor approaches 4 (log(K T s^2) ratio -> 1)
    for s in (5, 6, 7, 8):
        ratio = elimination_schedule(s + 1, 2, 10**6, 1) / elimination_schedule(s, 2, 10**6, 1)
        assert ratio == pytest.approx(4.0, rel=0.025)
    with pytest.raises(ValueError, match="s must be an integer of at least 1, got 0"):
        elimination_schedule(0, 2, 10000, 4)
    # a fractional T1 would give a fractional pull count
    with pytest.raises(ValueError, match="^T1 must be an integer of at least 1, got 2.5$"):
        elimination_schedule(1, 2, 100, 2.5)


# ---------------------------------------------------------------------------
# nested confidence-bound state
# ---------------------------------------------------------------------------

def make_state_with_bar(samples_per_phase=12, value=0.5):
    # two arms of period 4 -> d_hat = 8
    # all at phase 1 of arm 0
    bars = [(1 + 4 * i, 0, value) for i in range(samples_per_phase)]
    return NestedCBState([4, 4], sigma=1.0, horizon=10000, delta=8e-4, bar_samples=bars)


def test_phase_width_reference_value():
    st = make_state_with_bar()
    # C(reuse) = 12, C(round) = 0, d_hat = 8, delta = 8e-4, sigma = 1
    assert cell_width(st, 1, 0, 1) == pytest.approx(2.1428, abs=2e-4)


def test_phase_width_scales_with_sigma():
    bars = [(1 + 4 * i, 0, 0.5) for i in range(12)]
    a = NestedCBState([4, 4], sigma=1.0, horizon=10000, delta=8e-4, bar_samples=bars)
    b = NestedCBState([4, 4], sigma=2.0, horizon=10000, delta=8e-4, bar_samples=bars)
    assert cell_width(b, 1, 0, 1) == pytest.approx(2 * cell_width(a, 1, 0, 1))


def test_phase_width_zero_count_summand():
    st = make_state_with_bar()
    w_before = cell_width(st, 1, 0, 1)
    assert math.isfinite(w_before)
    # an empty round set contributes nothing; adding round samples shifts weight
    st.add_round_sample(1, 9, 0, 0.5)
    assert cell_width(st, 1, 0, 1) != w_before


def test_phase_width_infinite_when_unsampled():
    st = NestedCBState([4], sigma=1.0, horizon=100, delta=0.01, bar_samples=[])
    assert cell_width(st, 1, 0, 3) == math.inf
    assert math.isnan(cell_mean(st, 1, 0, 3))


def test_phase_mean_single_sample():
    st = NestedCBState([4], sigma=1.0, horizon=100, delta=0.01, bar_samples=[(5, 0, 0.7)])
    assert cell_mean(st, 1, 0, 9) == pytest.approx(0.7)


def test_phase_mean_weighted_combination():
    bar_vals = [0.2, 0.4, 0.9]
    rnd_vals = [0.8, 0.6]
    bars = [(1 + 2 * i, 0, v) for i, v in enumerate(bar_vals)]
    st = NestedCBState([2], sigma=1.0, horizon=100, delta=0.01, bar_samples=bars)
    for i, v in enumerate(rnd_vals):
        st.add_round_sample(2, 7 + 2 * i, 0, v)
    got = cell_mean(st, 2, 0, 9)
    nb, ns = len(bar_vals), len(rnd_vals)
    expected = (nb * np.mean(bar_vals) + ns * np.mean(rnd_vals)) / (nb + ns)
    assert got == pytest.approx(expected)


def test_phase_width_monotone_in_round_count():
    # adding round samples (from 2 up) never widens the interval
    for c_bar in (2, 5, 12):
        bars = [(1 + 4 * i, 0, 0.5) for i in range(c_bar)]
        st = NestedCBState([4, 4], sigma=1.0, horizon=10000, delta=8e-4, bar_samples=bars)
        st.add_round_sample(1, 5, 0, 0.5)
        st.add_round_sample(1, 9, 0, 0.5)
        prev = cell_width(st, 1, 0, 1)
        for i in range(40):
            st.add_round_sample(1, 13 + 4 * i, 0, 0.5)
            cur = cell_width(st, 1, 0, 1)
            assert cur <= prev + 1e-12
            prev = cur


def reference_cell(st, samples, s, arm, phase):
    """(width, mean) of one (round, arm, phase) cell recomputed from scratch.

    ``samples`` lists every (round or None for the reuse block, epoch, arm,
    reward) in the order it was given to the state. Sums accumulate in that order from 0.0,
    and the width is 0.0 + c_bar term(c_bar) + c_s term(c_s) over the total,
    a zero count contributing nothing; no samples give (inf, nan).
    """
    c_bar = c_s = 0
    sum_bar = sum_s = 0.0
    for rnd, epoch, k, y in samples:
        if k == arm and epoch % st.periods[arm] == phase:
            if rnd is None:
                c_bar += 1
                sum_bar += y
            elif rnd == s:
                c_s += 1
                sum_s += y
    total = c_bar + c_s
    if total == 0:
        return math.inf, math.nan

    def term(c):
        return math.sqrt((4.0 * st.sigma * st.sigma / c) * math.log(8.0 * st.d_hat * c / st.delta))

    w = 0.0
    if c_bar:
        w += c_bar * term(c_bar)
    if c_s:
        w += c_s * term(c_s)
    return w / total, (sum_bar + sum_s) / total


@settings(max_examples=150, deadline=None)
@given(
    periods=hst.lists(hst.integers(1, 6), min_size=1, max_size=4),
    ops=hst.lists(
        hst.tuples(
            hst.sampled_from([None, None, 1, 2, 3]),
            hst.integers(1, 400),
            hst.integers(0, 3),
            hst.floats(-2.0, 2.0, allow_nan=False),
        ),
        max_size=60,
    ),
    sigma=hst.floats(0.01, 2.0),
    horizon=hst.integers(10, 10**6),
)
@example(
    periods=[2, 3],
    ops=[(1, 5, 0, 0.3), (None, 7, 0, 0.1), (2, 9, 1, -0.4), (None, 3, 0, 0.2), (None, 4, 1, 0.7)],
    sigma=0.5,
    horizon=1000,
)
def test_cached_cells_equal_scratch_formula(periods, ops, sigma, horizon):
    # the reuse block given to the constructor, then round samples into any
    # rounds: every cached width and mean equals the from-scratch value
    samples = [(rnd, epoch, k % len(periods), y) for rnd, epoch, k, y in ops]
    samples.sort(key=lambda sample: sample[0] is not None)  # bars first, each kind in order
    bars = [(epoch, arm, y) for rnd, epoch, arm, y in samples if rnd is None]
    st = NestedCBState(periods, sigma=sigma, horizon=horizon, delta=8.0 / horizon, bar_samples=bars)
    for rnd, epoch, arm, y in samples[len(bars):]:
        st.add_round_sample(rnd, epoch, arm, y)
    for s in (1, 2, 3, 4):  # round 4 never exists: it reads the bar-only row
        widths, means = row(st, s)
        for arm, period in enumerate(periods):
            for phase in range(period):
                width, mean = reference_cell(st, samples, s, arm, phase)
                assert widths[arm][phase] == width
                assert cell_width(st, s, arm, phase) == width
                if math.isnan(mean):
                    assert math.isnan(means[arm][phase])
                else:
                    assert means[arm][phase] == mean
                    assert cell_mean(st, s, arm, phase) == mean


@pytest.mark.parametrize(
    ("field", "value", "named"),
    [
        ("periods", [2.7], "^period must be an integer of at least 1, got 2.7$"),
        ("periods", [2, 0], "^period must be an integer of at least 1, got 0$"),
        ("sigma", "0.1", "^sigma must be a finite number, got '0.1'$"),
        ("sigma", math.nan, "^sigma must be a finite number, got nan$"),
        ("sigma", -0.1, "^need sigma >= 0 and delta > 0, got sigma=-0.1, delta=0.01$"),
        ("horizon", 99.9, "^horizon must be an integer of at least 1, got 99.9$"),
        ("delta", 0.0, "^need sigma >= 0 and delta > 0, got sigma=1.0, delta=0.0$"),
        ("delta", math.inf, "^delta must be a finite number, got inf$"),
    ],
    ids=["period-float", "period-0", "sigma-string", "sigma-nan", "sigma-negative", "horizon-float", "delta-0",
         "delta-inf"],
)
def test_nested_cb_state_checks_its_values(field, value, named):
    # checked as the instance types check theirs, not converted: a period of
    # 2.7 would become 2 and a NaN sigma would make every width NaN
    args = {"periods": [2], "sigma": 1.0, "horizon": 100, "delta": 0.01, field: value}
    with pytest.raises(ValueError, match=named):
        NestedCBState(**args, bar_samples=[])


@pytest.mark.parametrize("s", [0, -1, 14])
def test_round_sample_outside_the_rounds_rejected(s):
    # the tournament reads rounds 1..S only (S = 13 at T = 10000)
    st = NestedCBState([2], sigma=1.0, horizon=10000, delta=0.01, bar_samples=[])
    with pytest.raises(ValueError, match="round"):
        st.add_round_sample(s, 5, 0, 0.5)


def test_nested_decide_exploit_branch():
    from periodic_bandits.policies import nested_cb_decide

    # flood both arms with samples so widths drop below sigma / sqrt(T)
    bars = ((1 + i, arm, value) for arm, value in ((0, 0.3), (1, 0.8)) for i in range(60000))
    st = NestedCBState([1, 1], sigma=0.5, horizon=400, delta=8 / 400, bar_samples=bars)
    assert cell_width(st, 1, 0, 1) <= 0.5 / math.sqrt(400)
    arm, pending = nested_cb_decide(st, 399)
    assert arm == 1          # strictly larger estimated mean
    assert pending is None   # exploit pulls join no index set


def test_nested_decide_wide_branch_prefers_widest():
    from periodic_bandits.policies import nested_cb_decide

    bars = [(1 + i, 0, 0.3) for i in range(40)] + [(41, 1, 0.9)]
    st = NestedCBState([1, 1], sigma=0.5, horizon=400, delta=8 / 400, bar_samples=bars)
    arm, pending = nested_cb_decide(st, 42)
    assert arm == 1 and pending == 1  # one sample: widest interval by far


def reference_tournament(st: NestedCBState, t: int):
    """The screening tournament restated over ``row``'s widths and means.

    Returns (arm, round, trace), where trace holds one {round, means,
    survivors} entry per elimination step, means keyed by the active arms.
    """
    sigma = st.sigma
    active = list(range(len(st.periods)))
    trace = []
    for s in range(1, st.S + 1):
        widths = {k: cell_width(st, s, k, t) for k in active}
        means = {k: cell_mean(st, s, k, t) for k in active}
        widest = max(widths.values())
        if widest > sigma / 2.0 ** s:
            return min(k for k in active if widths[k] == widest), s, trace
        best = max(means.values())
        if widest <= sigma / math.sqrt(st.horizon) or s == st.S:
            return min(k for k in active if means[k] == best), None, trace
        active = [k for k in active if means[k] >= best - sigma * 2.0 ** (1 - s)]
        trace.append({"round": s, "means": means, "survivors": active})
    raise AssertionError("the round cap S was passed")


def test_nested_elimination_soundness_and_termination():
    # replay tournaments against a trained state: nested_cb_decide agrees with
    # the reference tournament, every eliminated arm trailed the round maximum
    # by more than 2^(1-s) sigma at that instant, and the tournament settles
    # within S rounds
    from periodic_bandits.policies import nested_cb_decide

    pol = make_policy("two_stage", COUPLING_PARAMS)
    run_episode(COUPLING_INSTANCE, pol, seed=4)
    st = pol._state
    sigma = COUPLING_INSTANCE.noise.sigma
    eliminations = 0
    for t in range(5900, 6001):
        arm, s_charged, trace = reference_tournament(st, t)
        assert nested_cb_decide(st, t) == (arm, s_charged)
        assert len(trace) < st.S
        for entry in trace:
            s = entry["round"]
            mx = max(entry["means"].values())
            for k in entry["means"]:
                if k not in entry["survivors"]:
                    eliminations += 1
                    assert entry["means"][k] < mx - sigma * 2.0 ** (1 - s)
    assert eliminations > 0  # the replay actually exercised eliminations


def test_nested_decide_terminates_within_round_cap():
    from periodic_bandits.policies import nested_cb_decide

    # equal arms never separate: the tournament must still settle by round S
    bars = ((1 + i, arm, 0.5) for arm in (0, 1) for i in range(200000))
    st = NestedCBState([1, 1], sigma=0.5, horizon=4000, delta=8 / 4000, bar_samples=bars)
    arm, pending = nested_cb_decide(st, 3999)
    assert arm in (0, 1)


def test_count_matches_literal_definition():
    # incremental counters agree with explicit counting over the index sets
    pol = make_policy("two_stage", COUPLING_PARAMS)
    res, _, psi_bar, psi_rounds = run_recording_rounds(COUPLING_INSTANCE, pol, seed=0)
    assert psi_rounds  # stage two charged epochs to some round
    assert_counts_match_index_sets(pol._state, res, pol._end, psi_bar, psi_rounds)


def test_stage_one_phase_coverage():
    # consecutive block: every phase of a period below n/2 sampled >= 2 times
    pol = make_policy("two_stage", COUPLING_PARAMS)
    run_episode(COUPLING_INSTANCE, pol, seed=1)
    st = pol._state
    n = COUPLING_PARAMS["n"]
    for arm, period in enumerate(st.periods):
        assert period < n / 2
        counts = [st.counts_at(1, arm, t)[0] for t in range(1, period + 1)]
        assert min(counts) >= 2


def test_psi_sets_disjoint_partition():
    pol = make_policy("two_stage", COUPLING_PARAMS)
    res, _, psi_bar, psi_rounds = run_recording_rounds(COUPLING_INSTANCE, pol, seed=2)
    nK = len(psi_bar)
    all_sets = [psi_bar] + list(psi_rounds.values())
    seen = set()
    for s in all_sets:
        for epoch in s:
            assert epoch not in seen
            seen.add(epoch)
    assert set(psi_bar) == set(range(1, nK + 1))
    assert all(nK < e <= COUPLING_INSTANCE.horizon for r in psi_rounds.values() for e in r)
    assert_counts_match_index_sets(pol._state, res, pol._end, psi_bar, psi_rounds)


@settings(max_examples=25, deadline=None)
@given(
    profiles=hst.lists(
        hst.integers(1, 4).flatmap(
            lambda p: hst.lists(hst.floats(0.0, 1.0), min_size=p, max_size=p, unique=True)
        ),
        min_size=1,
        max_size=3,
    ),
    sigma=hst.floats(0.05, 1.0),
    horizon=hst.integers(100, 1200),
    policy_id=hst.sampled_from(["two_stage", "oracle"]),
    seed=hst.integers(0, 10**6),
)
def test_round_index_sets_partition_exploration(profiles, sigma, horizon, policy_id, seed):
    # the reuse block is stage one, and the state counts every epoch that a
    # tournament charged to round s in round s's cells and nowhere else
    inst = instance(profiles, sigma, horizon)
    pol = make_policy(policy_id)
    res, rounds, psi_bar, psi_rounds = run_recording_rounds(inst, pol, seed)
    nK = pol._end
    assert psi_bar == list(range(1, nK + 1))
    assert sorted(rounds) == list(range(nK + 1, horizon + 1))
    explored = [t for r in psi_rounds.values() for t in r]
    assert len(set(explored)) == len(explored)
    assert_counts_match_index_sets(pol._state, res, pol._end, psi_bar, psi_rounds)


random_profiles = hst.lists(
    hst.integers(1, 6).flatmap(
        lambda p: hst.lists(hst.floats(0.0, 1.0), min_size=p, max_size=p, unique=True)
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(
    profiles=random_profiles,
    sigma=hst.floats(0.02, 1.0),
    horizon=hst.integers(100, 1500),
    policy_id=hst.sampled_from(["two_stage", "oracle"]),
    seed=hst.integers(0, 10**6),
)
@example(profiles=[[0.9, 0.1], [0.2, 0.8, 0.5]], sigma=0.05, horizon=1500, policy_id="two_stage", seed=0)
# identical arms: their cells fill alike, so widths tie exactly, and with no
# noise so do means; each tie goes to the first arm
@example(profiles=[[0.7, 0.2, 0.4]] * 3, sigma=0.0, horizon=600, policy_id="oracle", seed=0)
@example(profiles=[[0.7, 0.2, 0.4]] * 3, sigma=0.3, horizon=1500, policy_id="oracle", seed=0)
def test_settled_rounds_give_the_full_tournament(profiles, sigma, horizon, policy_id, seed):
    # at every stage-two epoch the tournament that starts from the settled
    # rounds returns what the reference tournament from round 1 returns
    real = policies.nested_cb_decide
    checked = []

    def decide(state, t):
        got = real(state, t)
        assert got == reference_tournament(state, t)[:2], t
        checked.append(t)
        return got

    inst = instance(profiles, sigma, horizon)
    pol = make_policy(policy_id)
    run_recording_rounds(inst, pol, seed, decide)
    assert checked == list(range(pol._end + 1, horizon + 1))


def settled_state():
    """Two period-1 arms after one decision that passed round 1.

    250 bar samples per arm give width 0.454: at most sigma/2, above sigma/4.
    Arm 1 trails arm 0 by 2 > sigma, so round 1 drops it and round 2 explores
    arm 0; the state records round 2 with survivors [0] at phase key 0,
    with the phases [0, 0] of that key.
    """
    bars = [(1 + i, arm, value) for arm, value in ((0, 2.0), (1, 0.0)) for i in range(250)]
    st = NestedCBState([1, 1], sigma=1.0, horizon=10000, delta=0.01, bar_samples=bars)
    assert 0.25 < cell_width(st, 1, 0, 1) <= 0.5
    assert policies.nested_cb_decide(st, 300) == (0, 2)
    assert st._settled == {0: (2, [0], [0, 0])}
    return st


@pytest.mark.parametrize("change", ["round_sample_into_closed_cell"])
def test_settled_rounds_cleared_when_a_closed_cell_changes(change):
    # a sample that moves a closed cell reopens the rounds passed on it: here
    # arm 0 falls behind arm 1, so round 1 now drops arm 0 instead of arm 1
    st = settled_state()
    st.add_round_sample(1, 301, 0, -1000.0)
    assert cell_width(st, 1, 0, 1) <= 0.5  # the cell stays closed
    assert st._settled == {}
    assert policies.nested_cb_decide(st, 302) == reference_tournament(st, 302)[:2] == (1, 2)


def test_single_survivor_passes_the_round_its_cell_closed_in():
    # the entry keeps arm 0 alone at round 2; once round-2 samples bring its
    # width to sigma/4, the next tournament passes round 2 (the entry is not
    # cleared: no sample landed in a closed cell) and explores in round 3
    st = settled_state()
    epoch = 301
    while cell_width(st, 2, 0, epoch) > 0.25:
        st.add_round_sample(2, epoch, 0, 2.0)
        epoch += 1
    assert st._settled == {0: (2, [0], [0, 0])}
    assert policies.nested_cb_decide(st, epoch) == reference_tournament(st, epoch)[:2] == (0, 3)
    assert st._settled == {0: (3, [0], [0, 0])}


def test_no_settled_entries_when_no_phase_key_repeats():
    # lcm(3, 4) = 12 reaches the horizon: no key comes back, so none is kept
    bars = [(t, arm, value) for t in range(1, 5) for arm, value in ((0, 0.0), (1, 5.0))]
    st = NestedCBState([3, 4], sigma=1.0, horizon=12, delta=0.5, bar_samples=bars)
    assert st._settled is None
    for t in range(5, 13):
        assert policies.nested_cb_decide(st, t) == reference_tournament(st, t)[:2]
    assert st._settled is None


@settings(max_examples=30, deadline=None)
@given(
    profiles=random_profiles,
    sigma=hst.floats(0.02, 1.0),
    horizon=hst.integers(100, 1500),
    policy_id=hst.sampled_from(["two_stage", "oracle"]),
    seed=hst.integers(0, 10**6),
)
@example(profiles=[[0.55, 0.45], [0.5]], sigma=1.0, horizon=1500, policy_id="two_stage", seed=0)
@example(profiles=[[0.9, 0.1, 0.4, 0.2, 0.6], [0.3, 0.7]], sigma=0.1, horizon=800, policy_id="two_stage", seed=3)
def test_round_samples_land_only_in_open_cells(profiles, sigma, horizon, policy_id, seed):
    # the elimination structure the settled rounds rest on: a round-s sample
    # goes to a cell whose width exceeds sigma/2^s, also when stage one
    # misidentifies the periods (t_max is at most 2 at these horizons, so
    # periods 3 to 6 are never representable)
    real_add = NestedCBState.add_round_sample
    widths = []

    def add_round_sample(st, s, epoch, arm, reward):
        widths.append((cell_width(st, s, arm, epoch), st.sigma / 2.0 ** s))
        real_add(st, s, epoch, arm, reward)

    with mock.patch.object(NestedCBState, "add_round_sample", add_round_sample):
        run_episode(instance(profiles, sigma, horizon), make_policy(policy_id), seed)
    assert widths  # stage two explored
    assert all(width > bound for width, bound in widths)


# ---------------------------------------------------------------------------
# two-stage behavior
# ---------------------------------------------------------------------------

def test_noise_free_phase_means_exact():
    inst = instance([[0.9, 0.1], [0.4, 0.6]], sigma=0.0, horizon=500)
    pol = make_policy("two_stage", {"n": 64, "g": 8})
    run_episode(inst, pol, seed=0)
    st = pol._state
    for arm in range(2):
        for t in (495, 496):
            assert cell_mean(st, 1, arm, t) == pytest.approx(means_matrix(inst)[arm, t - 1], abs=1e-12)


def test_screening_suppresses_suboptimal_pulls():
    # stationary two-arm instance with a large gap: after the screening
    # settles, the suboptimal arm is essentially never pulled
    inst = instance([[0.9], [0.1]], sigma=0.4, horizon=4000)
    fracs = []
    for seed in range(50):
        res = run_episode(inst, make_policy("two_stage"), seed)
        fracs.append(np.mean(res.actions[2000:] != 0))
    assert max(fracs) < 0.05


def test_estimates_exposed():
    pol = make_policy("two_stage", COUPLING_PARAMS)
    run_episode(COUPLING_INSTANCE, pol, seed=3)
    assert pol.estimated_periods == (2, 3, 4)


def test_coupling_identical_traces(run_recording_rewards):
    for seed in (0, 1, 2):
        two, two_rewards = run_recording_rewards(COUPLING_INSTANCE, make_policy("two_stage", COUPLING_PARAMS), seed)
        orc, orc_rewards = run_recording_rewards(COUPLING_INSTANCE, make_policy("oracle", COUPLING_PARAMS), seed)
        assert two.estimated_periods == COUPLING_INSTANCE.periods
        assert np.array_equal(two.actions, orc.actions)
        assert np.array_equal(two_rewards, orc_rewards)
        assert np.array_equal(two.cumulative_regret, orc.cumulative_regret)


def test_traces_differ_on_misestimation():
    # low-amplitude arm at high noise: stage one cannot identify the periods,
    # and the two action sequences part ways
    inst = instance([[0.55, 0.45], [0.5]], sigma=1.0, horizon=3000)
    two = run_episode(inst, make_policy("two_stage", {"n": 100, "g": 10}), 0)
    orc = run_episode(inst, make_policy("oracle", {"n": 100, "g": 10}), 0)
    assert two.estimated_periods != inst.periods
    assert not np.array_equal(two.actions, orc.actions)


@settings(max_examples=40, deadline=None)
@given(
    profiles=hst.lists(
        hst.integers(1, 4).flatmap(
            lambda p: hst.lists(hst.floats(0.0, 1.0), min_size=p, max_size=p, unique=True)
        ),
        min_size=1,
        max_size=3,
    ),
    sigma=hst.floats(0.01, 0.3),
    horizon=hst.integers(400, 1500),
    seed=hst.integers(0, 10**6),
)
@example(profiles=[[0.9, 0.1], [0.2, 0.8, 0.5], [0.4, 0.6, 0.1, 0.3]], sigma=0.05, horizon=1000, seed=0)
def test_oracle_coupling_on_random_instances(run_recording_rewards, profiles, sigma, horizon, seed):
    # whenever stage one estimates every period correctly, two_stage and the
    # oracle (true periods put in) play the same actions and see the same rewards
    inst = instance(profiles, sigma, horizon)
    params = {"n": 100, "g": 10}  # t_max = 4: every period in 1..4 is representable
    two_pol, orc_pol = make_policy("two_stage", params), make_policy("oracle", params)
    two, two_rewards = run_recording_rewards(inst, two_pol, seed)
    orc, orc_rewards = run_recording_rewards(inst, orc_pol, seed)
    assert orc.estimated_periods == inst.periods
    if two.estimated_periods == inst.periods:
        assert np.array_equal(two.actions, orc.actions)
        assert np.array_equal(two_rewards, orc_rewards)
        # the same stage-two state too, not only the actions it led to
        widths = lambda st: [row(st, s)[0] for s in range(1, st.S + 1)]
        assert widths(two_pol._state) == widths(orc_pol._state)


@pytest.mark.parametrize("policy_id", ["two_stage", "oracle", "lcm_ucb"])
def test_policy_reuse_across_horizons(policy_id):
    # begin() derives n, g, H from the horizon; an object that began at a long
    # horizon must play a short one exactly like a fresh object would
    long, short = default_sweep_instance(40000), default_sweep_instance(2500)
    reused = make_policy(policy_id)
    reused.begin(InstanceView(n_arms=3, horizon=40000, sigma=0.04, true_periods=long.periods))
    assert reused._end == 3 * 115
    again = run_episode(short, reused, seed=5)
    assert reused._end == 3 * 28
    fresh = run_episode(short, make_policy(policy_id), seed=5)
    assert np.array_equal(again.actions, fresh.actions)
    assert again.estimated_periods == fresh.estimated_periods


@pytest.mark.parametrize("policy_id", ["two_stage", "oracle", "lcm_ucb"])
def test_fixed_n_derives_g_and_H_from_it(policy_id):
    # with only n fixed, g and H follow that n, not the horizon's recommended n
    pol = make_policy(policy_id, {"n": 200})
    res = run_episode(default_sweep_instance(10000), pol, seed=0)
    assert pol._end == 3 * 200
    assert (pol._detector.g, pol._detector.H) == (15, default_H(200))
    assert len(res.actions) == 10000


@pytest.mark.parametrize("n", [0, -3])
def test_nonpositive_n_rejected(n):
    with pytest.raises(ValueError, match=f"^n must be an integer of at least 2, got {n}$"):
        make_policy("two_stage", {"n": n})


@pytest.mark.parametrize("policy_id", ["two_stage", "oracle", "lcm_ucb"])
def test_g_below_sqrt_n_rejected_before_the_first_epoch(policy_id):
    # g^2 >= n is checked by the constructor when both are set, and by begin
    # once an unset n is completed, so an oracle, which never runs stage
    # one's estimate, fails before its first epoch as well
    with pytest.raises(ValueError, match=r"^g=3 violates g >= max\(2, sqrt\(n\)\) for n=50$"):
        make_policy(policy_id, {"n": 50, "g": 3})
    with pytest.raises(ValueError, match=r"^g=6 violates .* for n=37$"):
        make_policy(policy_id, {"n": 37, "g": 6})
    make_policy(policy_id, {"n": 36, "g": 6})
    pol = make_policy(policy_id, {"g": 3})
    pol.decide = mock.Mock(side_effect=AssertionError("an epoch ran"))
    with pytest.raises(ValueError, match=r"^g=3 violates .* for n=35$"):
        run_episode(instance([[1.0, 0.0], [1.0, 0.0, 0.0]], sigma=0.1, horizon=2500), pol, 0)


def test_oracle_requires_periods():
    # begin fails unless the view holds one true period per arm, so the
    # oracle fails before any of stage one's n K pulls
    pol = make_policy("oracle")
    from periodic_bandits.policies import InstanceView

    for periods in (None, (2, 3)):
        with pytest.raises(ValueError, match="one true period per arm"):
            pol.begin(InstanceView(n_arms=3, horizon=1000, sigma=0.1, true_periods=periods))


def test_zero_count_phase_forces_pull_and_logs_event():
    # force an estimated period longer than the exploration block: phase
    # coverage is impossible, so the first visit is a forced exploration pull
    from periodic_bandits.policies import OraclePolicy, InstanceView

    pol = OraclePolicy(n=6, g=3)
    pol.begin(InstanceView(n_arms=1, horizon=50, sigma=0.5, true_periods=(8,)))
    for t in range(1, 7):
        pol.observe(t, pol.decide(t), 0.0)
    # epochs 1..6 cover phases 1..6 mod 8 only; phase 7 mod 8 first comes at t=7
    a = pol.decide(7)
    assert a == 0
    assert any(ev[1] == "zero_count_forced_pull" for ev in pol.events)


@pytest.mark.parametrize(
    ("policy_id", "inst", "params", "forced"),
    [
        # period 8 above n = 6: phase 7 has no reuse-block sample
        ("oracle", instance([[0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.6, 0.4]], 0.5, 200), {"n": 6, "g": 3}, True),
        ("two_stage", COUPLING_INSTANCE, COUPLING_PARAMS, False),
    ],
    ids=["empty-bar-cell", "no-empty-bar-cell"],
)
def test_forced_pull_events_match_a_check_at_every_epoch(policy_id, inst, params, forced):
    # the policy looks for zero-count pulls only when some reuse-block cell is
    # empty; it logs exactly the pulls that a counts_at check at every
    # stage-two epoch finds
    real = policies.nested_cb_decide
    expected = []

    def decide(state, t):
        arm, s = real(state, t)
        if s is not None and state.counts_at(s, arm, t) == (0, 0):
            expected.append((t, "zero_count_forced_pull", arm))
        return arm, s

    pol = make_policy(policy_id, params)
    res, _, _, _ = run_recording_rounds(inst, pol, 0, decide)
    assert res.events == expected
    assert bool(expected) == forced == pol._may_force


# ---------------------------------------------------------------------------
# sequential elimination
# ---------------------------------------------------------------------------

def elimination_rounds(inst, seed):
    """The round records of one seq_elim episode, read from its events."""
    res = run_episode(inst, make_policy("seq_elim"), seed)
    return [detail for _, kind, detail in res.events if kind == "elimination_round"]


def test_seq_elim_requires_common_period():
    inst = instance([[0.9, 0.1], [0.5, 0.2, 0.8]], sigma=0.1, horizon=2000)
    with pytest.raises(ValueError):
        run_episode(inst, make_policy("seq_elim"), 0)
    with pytest.raises(ValueError, match="^sequential elimination needs the shared period$"):
        make_policy("seq_elim").begin(InstanceView(n_arms=2, horizon=2000, sigma=0.1))


def test_seq_elim_identical_arms_never_eliminate():
    inst = instance([[0.6, 0.4], [0.6, 0.4]], sigma=0.1, horizon=4000)
    for seed in range(20):
        assert all(len(entry["survivors"]) == 2 for entry in elimination_rounds(inst, seed))


def test_seq_elim_large_gap_first_round():
    # per-period average gap of 4 sigma: eliminated at the first cut
    inst = instance([[0.9, 0.5], [0.5, 0.1]], sigma=0.1, horizon=3000)
    hits = 0
    for seed in range(100):
        log = elimination_rounds(inst, seed)
        if log and log[0]["survivors"] == [0]:
            hits += 1
    assert hits >= 95


def test_seq_elim_round_max_survives():
    inst = instance([[0.7, 0.3], [0.6, 0.4]], sigma=0.3, horizon=6000)
    for seed in range(10):
        for entry in elimination_rounds(inst, seed):
            best = max(entry["means"], key=entry["means"].get)
            assert best in entry["survivors"]


def test_seq_elim_elimination_soundness():
    # an arm leaves in round s only if its mean trailed the max by > sigma/2^s
    inst = instance([[0.9, 0.5], [0.6, 0.2], [0.5, 0.11]], sigma=0.2, horizon=6000)
    for seed in range(10):
        for entry in elimination_rounds(inst, seed):
            cutoff = max(entry["means"].values()) - 0.2 / 2 ** entry["round"]
            for k in entry["active"]:
                if k not in entry["survivors"]:
                    assert entry["means"][k] < cutoff


def test_seq_elim_state_snapshot():
    inst = instance([[0.9, 0.5], [0.5, 0.1]], sigma=0.1, horizon=3000)
    pol = make_policy("seq_elim")
    res = run_episode(inst, pol, 0)
    assert pol.T1 == 2
    log = [detail for _, kind, detail in res.events if kind == "elimination_round"]
    assert log
    assert all(entry["n_s"] % 2 == 0 for entry in log)
    assert set(pol.active) <= {0, 1}


def test_seq_elim_active_sets_monotone():
    inst = instance([[0.9, 0.5], [0.5, 0.1], [0.45, 0.1], [0.52, 0.14]], sigma=0.1, horizon=5000)
    for seed in range(10):
        for entry in elimination_rounds(inst, seed):
            assert set(entry["survivors"]) <= set(entry["active"])
            assert entry["survivors"]


# ---------------------------------------------------------------------------
# UCB baselines
# ---------------------------------------------------------------------------

def test_per_phase_ucb_requires_common_period():
    inst = instance([[0.9, 0.1], [0.5, 0.2, 0.8]], sigma=0.1, horizon=1000)
    with pytest.raises(ValueError):
        run_episode(inst, make_policy("per_phase_ucb"), 0)
    with pytest.raises(ValueError, match="^per-phase UCB needs the shared period$"):
        make_policy("per_phase_ucb").begin(InstanceView(n_arms=2, horizon=1000, sigma=0.1))


def test_per_phase_reduces_to_stationary_when_period_one():
    inst = instance([[0.8], [0.4]], sigma=0.5, horizon=800)
    a = run_episode(inst, make_policy("per_phase_ucb"), 11)
    b = run_episode(inst, make_policy("stationary_ucb"), 11)
    assert np.array_equal(a.actions, b.actions)


def cell_counts(pol, cell: int) -> list[int]:
    """A UCB baseline's per-arm pull counts in one residue cell."""
    return pol._state[cell][0]


def test_per_phase_counts_partition():
    inst = instance([[0.8, 0.2], [0.3, 0.7]], sigma=0.3, horizon=1001)
    pol = make_policy("per_phase_ucb")
    res = run_episode(inst, pol, 5)
    for phase in range(2):
        epochs = [t for t in range(1, 1002) if t % 2 == phase]
        # the cell's visit count, the N of its UCB index, is this sum
        assert sum(cell_counts(pol, phase)) == len(epochs)
        for arm in range(2):
            assert cell_counts(pol, phase)[arm] == sum(
                1 for t in epochs if res.actions[t - 1] == arm
            )


@settings(max_examples=100, deadline=None)
@given(
    n_arms=hst.integers(1, 4),
    stream=hst.lists(hst.tuples(hst.integers(0, 3), hst.sampled_from([0.0, 0.25, 0.5, 1.0])), max_size=80),
)
@example(n_arms=3, stream=[(0, 0.5), (1, 0.5), (2, 0.0), (1, 0.5), (0, 0.5), (2, 1.0)])
def test_cell_ucb_pick_is_the_scratch_argmax(n_arms, stream):
    # few distinct rewards make equal indices common: a tie goes to the
    # smallest arm, and an unpulled arm is taken before any index is compared
    pol = make_policy("stationary_ucb")
    pol.begin(InstanceView(n_arms=n_arms, horizon=100, sigma=0.5))
    pulls = [[] for _ in range(n_arms)]
    for t, (k, y) in enumerate(stream, start=1):
        counts = [len(p) for p in pulls]
        if 0 in counts:
            want = counts.index(0)
        else:
            n = sum(counts)
            index = []
            for rewards, c in zip(pulls, counts):
                total = 0.0
                for r in rewards:
                    total += r
                index.append(total / c + math.sqrt(2.0 * math.log(n) / c))
            want = index.index(max(index))
        assert pol.decide(t) == want
        arm = k % n_arms
        pol.observe(t, arm, y)
        pulls[arm].append(y)


@pytest.mark.parametrize("policy_id", ["stationary_ucb", "per_phase_ucb", "lcm_ucb"])
def test_ucb_baseline_reused_across_episodes_plays_like_a_fresh_one(policy_id):
    # begin() starts every residue cell afresh: nothing of the first episode
    # reaches the second
    inst = instance([[0.9, 0.1], [0.2, 0.7]], sigma=0.3, horizon=3000)
    reused = make_policy(policy_id)
    run_episode(inst, reused, 1)
    again = run_episode(inst, reused, 2)
    fresh = run_episode(inst, make_policy(policy_id), 2)
    assert np.array_equal(again.actions, fresh.actions)
    assert again.estimated_periods == fresh.estimated_periods


def test_per_phase_regret_sublinear_slope():
    inst_factory = lambda T: instance(
        [[0.8, 0.2, 0.5, 0.3], [0.3, 0.7, 0.2, 0.6], [0.5, 0.5, 0.9, 0.1]],
        sigma=0.2,
        horizon=T,
    )
    horizons = [2000, 4000, 8000, 16000]
    means = []
    for T in horizons:
        finals = [
            run_episode(inst_factory(T), make_policy("per_phase_ucb"), seed).final_regret
            for seed in range(8)
        ]
        means.append(np.mean(finals))
    # the slope of log mean regret against log T over all four horizons
    assert all(m > 0 for m in means)
    assert np.polyfit(np.log(horizons), np.log(means), 1)[0] < 0.75


def test_lcm_ucb_runs_and_estimates():
    # lcm_ucb plays two_stage's stage one, then its own UCB cells, and builds
    # no stage-two state
    inst = instance([[1.0, 0.0], [1.0, 0.0, 0.0]], sigma=0.1, horizon=4000)
    pol = make_policy("lcm_ucb", {"n": 400, "g": 20})
    with mock.patch.object(policies, "NestedCBState", side_effect=AssertionError("lcm_ucb built a NestedCBState")):
        res = run_episode(inst, pol, 0)
    assert pol.estimated_periods == (2, 3)
    assert pol.lcm_period == 6
    assert res.final_regret < 1500
    two = run_episode(inst, make_policy("two_stage", {"n": 400, "g": 20}), 0)
    assert np.array_equal(res.actions[:800], two.actions[:800])
    assert two.estimated_periods == pol.estimated_periods
    assert not isinstance(pol, policies.TwoStagePolicy)


REMOVED_PARAMS = {
    "two_stage": {"H": 1.5, "t_max": 4, "delta": 0.5},
    "oracle": {"H": 1.5, "t_max": 4, "delta": 0.5},
    "lcm_ucb": {"H": 1.5, "t_max": 4, "ucb_scale": 1.0},
    "stationary_ucb": {"ucb_scale": 1.0},
    "per_phase_ucb": {"ucb_scale": 1.0},
}


@pytest.mark.parametrize(
    ("policy_id", "key", "value"),
    [pytest.param(pid, "delta", v, id=f"{pid}-delta={v}")
     for pid in ("two_stage", "oracle") for v in (math.nan, math.inf, 0.0, -1.0, 2.0, 1e6)]
    + [pytest.param(pid, "ucb_scale", v, id=f"{pid}-ucb_scale={v}")
       for pid in ("stationary_ucb", "per_phase_ucb", "lcm_ucb") for v in (math.nan, math.inf, -1.0)]
    + [pytest.param(pid, "H", v, id=f"{pid}-H={v}")
       for pid in ("two_stage", "oracle", "lcm_ucb") for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
    + [pytest.param(pid, key, v, id=f"{pid}-{key}={v}") for pid, keys in REMOVED_PARAMS.items()
       for key, v in keys.items()],
)
def test_bad_confidence_parameter_rejected(policy_id, key, value):
    # the stage-one H and t_max, the confidence level delta and the UCB scale
    # are fixed by the paper, not policy params: a config that still sets one,
    # to a NaN, infinite or out-of-range value or to one the policies once
    # took, fails naming it before any episode is played
    cfg = {
        "instance": {"preset": "sweep_default"},
        "policies": [{"id": policy_id, "params": {key: value}}],
        "horizons": [2500],
        "replications": 1,
    }
    with mock.patch.object(harness, "run_episode", side_effect=AssertionError("an episode ran")):
        with pytest.raises(ValueError, match=f"policies entry '{policy_id}'.*{key}"):
            harness.monte_carlo(cfg)


def test_make_policy_unknown_id():
    with pytest.raises(ValueError):
        make_policy("thompson")
