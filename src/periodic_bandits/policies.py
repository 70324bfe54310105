"""Learning policies for periodic bandits.

The centerpiece is the two-stage policy: a deterministic exploration block that
feeds the spectral period estimator, followed by a nested confidence-bound
tournament that learns one mean per (arm, phase) "effective arm" while reusing
the exploration samples. An oracle variant runs the identical procedure with
the true periods injected, which makes the two traces bit-identical whenever
estimation succeeds. Baselines: sequential elimination for a shared known
period, per-phase UCB, stationary UCB, and UCB over residues modulo the LCM of
the estimated periods.

Arms are 0-based; epochs are 1-based. Phases are residues t mod T_k in
{0, ..., T_k - 1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import log, sqrt
from typing import Iterable, Sequence

from .env import _checked_keys
from .spectral import ThresholdConstants, _checked_int, _checked_number, estimate_periods, u_constants


def recommended_parameters(T: int, K: int) -> tuple[int, int, float]:
    """(n, g, H) of stage one's default detector, ``ThresholdConstants.for_horizon``."""
    c = ThresholdConstants.for_horizon(T, K, 0.0)
    return c.n, c.g, c.H


@dataclass(frozen=True)
class InstanceView:
    """What a policy may know: K, T, sigma, and (only if privileged) the true periods."""

    n_arms: int
    horizon: int
    sigma: float
    true_periods: tuple[int, ...] | None = None


class Policy:
    """Sequential decision interface: begin once, then decide/observe per epoch.

    A ``horizon_free`` policy never reads ``view.horizon``, so its episode at
    a horizon T is the first T epochs of its episode at any longer horizon.
    A policy that estimates periods or records ``(epoch, kind, detail)``
    events resets ``estimated_periods`` and ``events`` in ``begin``. A sweep
    begins every policy entry on each horizon's instance before any episode,
    so ``begin`` checks what it can, stays cheap and changes nothing outside
    the object.
    """

    policy_id = "base"
    params: tuple[str, ...] = ()
    uses_true_periods = False
    horizon_free = False
    estimated_periods: tuple[int, ...] | None = None
    events: tuple | list = ()

    def begin(self, view: InstanceView) -> None:
        raise NotImplementedError

    def decide(self, t: int) -> int:
        raise NotImplementedError

    def observe(self, t: int, arm: int, reward: float) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Nested confidence-bound state (stage two)
# ---------------------------------------------------------------------------

class NestedCBState:
    """Sufficient statistics for the screening tournament, one record per cell.

    A cell is one (round s, arm k, phase) triple, the phase taken modulo the
    (estimated) period of k. Its record, a list built at construction for
    every round 1..S, holds ``[width, round count, round sum, reuse count,
    reuse part c_bar term(c_bar), reuse sum]``: the confidence width a
    decision reads, and the counts and reward sums of round s's index set
    and of the reused exploration block. No mean is stored.

    The confidence level is delta = 8/T, derived from the horizon T, and
    term(c) = sqrt((4 sigma^2 / c) log(8 d_hat c / delta)). A width is the
    count-weighted combination of the reuse block's and round s's radii,
    (c_bar term(c_bar) + c_s term(c_s)) / (c_bar + c_s), each product read
    from one table of c term(c) with 0.0 at c = 0, grown on demand; an
    unsampled cell has width inf (and pooled mean nan). The reuse block,
    given to the constructor as (epoch, arm, reward) triples and summed per
    cell in that order, is fixed for the episode, so its part of every
    record is set once, as are the round thresholds sigma/2^s, the exploit
    width sigma/sqrt(T) and the full arm list. An epoch changes one round
    count, so ``add_round_sample`` updates the one record it touches,
    computing the width exactly as a from-scratch evaluation would, and
    returns whether the sample was the cell's first: no reuse-block and no
    round-s sample before it, a zero-count pull.

    The constructor rejects an empty periods list, a bar sample whose arm is
    not an integer in 0..K-1 or whose epoch is not an integer, and a reuse
    cell whose reward sum is not finite, naming its arm and phase; a round
    sample is not checked (see ``nested_cb_decide``).

    Closed cells are frozen. The tournament charges an epoch to round s only
    at the widest active cell, and only while that cell's width exceeds
    sigma/2^s; so a round-s cell at or below sigma/2^s never receives another
    round-s sample, and its width and mean never change. A round that a
    tournament passed at some phase (every active width at most sigma/2^s, no
    exploit) therefore passes again at every later epoch with the same phases,
    with the same means and the same survivors. The state keeps, per phase
    key ``t % lcm(periods)``, the first round not yet passed there, the
    arms that survived the rounds before it and the phases at that key;
    ``nested_cb_decide`` starts from that entry. A round sample into a
    closed cell, which only a direct caller can make, clears every entry.
    No entry is kept when lcm(periods) reaches the horizon: no key repeats.
    """

    def __init__(
        self,
        periods: Sequence[int],
        sigma: float,
        horizon: int,
        bar_samples: Iterable[tuple[int, int, float]],
    ):
        self.periods = tuple(_checked_int("period", p) for p in periods)
        if not self.periods:
            raise ValueError(f"periods must name at least one arm, got {periods!r}")
        self.sigma = _checked_number("sigma", sigma)
        self.horizon = _checked_int("horizon", horizon)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        self.delta = 8.0 / self.horizon
        self.d_hat = sum(self.periods)
        self.S = max(int(math.floor(math.log2(horizon))), 1)
        counts = [[0] * p for p in self.periods]
        sums = [[0.0] * p for p in self.periods]
        arms = range(len(self.periods))
        for epoch, arm, reward in bar_samples:
            if isinstance(arm, bool) or not isinstance(arm, int) or arm not in arms:
                raise ValueError(f"bar sample arm must be an integer in 0..{arms[-1]}, got {arm!r}")
            if isinstance(epoch, bool) or not isinstance(epoch, int):
                raise ValueError(f"bar sample epoch must be an integer, got {epoch!r}")
            p = epoch % self.periods[arm]
            counts[arm][p] += 1
            sums[arm][p] += reward
        for k, ts in enumerate(sums):
            for p, total in enumerate(ts):
                if not math.isfinite(total):
                    raise ValueError(f"reuse sum of arm {k} at phase {p} is not finite: {total!r}")
        self._parts = [0.0]
        self._grow(max(map(max, counts), default=0))
        parts = self._parts
        # the records, indexed [round][arm][phase] for rounds 1..S
        self._rounds = {
            s: [[[parts[c] / c if c else math.inf, 0, 0.0, c, parts[c], total] for c, total in zip(cs, ts)]
                for cs, ts in zip(counts, sums)]
            for s in range(1, self.S + 1)
        }
        # fixed for the episode, each in the expression a decision would use;
        # thresholds are indexed by round, 1..S
        self._thresholds = [self.sigma / (2.0 ** s) for s in range(self.S + 1)]
        self._narrow = self.sigma / math.sqrt(self.horizon)
        self._arms = list(arms)
        self._lcm = math.lcm(*self.periods)
        self._settled: dict[int, tuple[int, list[int], list[int]]] | None = {} if self._lcm < self.horizon else None

    def add_round_sample(self, s: int, epoch: int, arm: int, reward: float) -> bool:
        try:
            cell = self._rounds[s][arm][epoch % self.periods[arm]]
        except KeyError:
            raise ValueError(f"round {s} outside 1..{self.S}") from None
        if self._settled and not cell[0] > self._thresholds[s]:
            # the cell was closed: a round passed on it may not pass again
            self._settled.clear()
        c_s = cell[1] = cell[1] + 1
        cell[2] += reward
        if c_s == len(self._parts):
            self._grow(c_s)
        total = cell[3] + c_s
        cell[0] = (cell[4] + self._parts[c_s]) / total
        return total == 1

    def _grow(self, c: int) -> None:
        # extend the table of c term(c) through c
        parts, scale, level = self._parts, 4.0 * self.sigma * self.sigma, 8.0 * self.d_hat
        for m in range(len(parts), c + 1):
            parts.append(m * math.sqrt((scale / m) * math.log(level * m / self.delta)))


def nested_cb_decide(state: NestedCBState, t: int) -> tuple[int, int | None]:
    """One screening tournament at epoch t; returns (arm, exploration round).

    Rounds s = 1, 2, ...: if some active arm's width at the current phase
    exceeds sigma/2^s, pull the widest such arm (ties to the smallest index)
    and charge the epoch to round s. If instead every width is at most
    sigma/sqrt(T), exploit the highest estimated mean (ties to the smallest
    index); the epoch joins no index set (round None). Otherwise drop arms
    more than 2^(1-s) sigma below the best estimate and continue. The round
    counter is capped at floor(log2 T), falling through to the exploit branch.
    The arms are the state's, one per period.

    Each round reads the cached widths of the state's round-s records at the
    phases of t, so a decision computes no confidence radius; only a round
    that explores nothing pools its active arms' means, (reuse sum + round
    sum) / total (nan for an empty cell, which a decision never reads: its
    width is inf), and raises, naming the round, arm and phase, on a pooled
    mean that is not finite, which only a non-finite reward makes. The
    tournament starts from the state's settled entry for ``t % lcm(periods)``
    instead of round 1 with every arm, and records there each round it
    passes: the next round, its survivors and t's phases. That is all it
    writes. Rounds pass only on closed cells, which no sample of
    the policy changes (see ``NestedCBState``), so the result equals a
    tournament from round 1; the records read only the samples, never the
    settled entries. An entry with one survivor first reads that arm's width
    alone: above the threshold, the round explores it whatever its mean.

    Each round walks the active arms once for the widest cell and, unless it
    explores, once more to pool their means and pick the leader. Both walks
    start from the first active arm and replace it only on a strictly larger
    value, so a tie goes to the arm first in ``active`` order (the smallest
    index, as the arm lists stay sorted): the arm that ``max`` and
    ``list.index`` pick.
    """
    thresholds, rounds = state._thresholds, state._rounds
    settled = state._settled
    entry = None
    if settled is not None:
        key = t % state._lcm
        entry = settled.get(key)
    if entry is None:
        s, active, phases = 1, state._arms, [t % p for p in state.periods]
    else:
        s, active, phases = entry
        if len(active) == 1:
            k = active[0]
            if rounds[s][k][phases[k]][0] > thresholds[s]:
                return k, s
    sigma = state.sigma
    first = active[0]
    while True:
        arms = rounds[s]
        widest_arm, widest = first, arms[first][phases[first]][0]
        for k in active:
            w = arms[k][phases[k]][0]
            if w > widest:
                widest_arm, widest = k, w
        if widest > thresholds[s]:
            return widest_arm, s
        means = []
        for k in active:
            cell = arms[k][phases[k]]
            total = cell[3] + cell[1]
            m = (cell[5] + cell[2]) / total if total else math.nan
            if not math.isfinite(m):
                raise ValueError(f"round {s}: pooled mean of arm {k} at phase {phases[k]} is not finite: {m!r}")
            if not means or m > best_m:
                leader, best_m = k, m
            means.append(m)
        if widest <= state._narrow or s >= state.S:
            return leader, None
        cutoff = best_m - sigma * 2.0 ** (1 - s)
        active = [k for k, m in zip(active, means) if m >= cutoff]
        first = active[0]
        s += 1
        if settled is not None:
            settled[key] = (s, active, phases)


class _ExploreFirst(Policy):
    """Stage one of the two-stage policy, shared with ``lcm_ucb``: n
    consecutive pulls per arm, then one period per arm.

    The constructor checks n and g (g^2 >= n too, if both are set). ``begin``
    keeps the detector ``ThresholdConstants.for_horizon`` builds from them,
    which checks g^2 >= n and n K < T before the first epoch, and fixes stage
    one's last epoch ``_end = n K`` and each arm k's block, its samples and
    its epochs n k + 1 .. n (k + 1). Up to ``_end``, a subclass's ``decide``
    pulls arm (t - 1) // n and its ``observe`` hands the sample to
    ``_record``, the one place stage one is recorded: it appends the reward
    to that arm's samples and, at epoch ``_end``, calls the subclass's
    ``_start_stage_two``, so stage two is ready before its first decision.
    ``_periods`` runs the spectral estimator on the blocks with that
    detector. What comes after stage one keeps its state in ``_state``, which
    ``begin`` clears, so a reused object never decides from an old episode.
    """

    params = ("n", "g")

    def __init__(self, n: int | None = None, g: int | None = None):
        self.n = None if n is None else _checked_int("n", n, least=2)
        self.g = None if g is None else _checked_int("g", g, least=2)
        if n is not None and g is not None:
            u_constants(n, g)  # checks g^2 >= n

    def begin(self, view: InstanceView) -> None:
        K = view.n_arms
        self._detector = ThresholdConstants.for_horizon(view.horizon, K, view.sigma, self.n, self.g)
        n = self._n = self._detector.n
        self._end = n * K
        self._view = view
        self._blocks: list[tuple[list[float], range]] = [([], range(n * k + 1, n * (k + 1) + 1)) for k in range(K)]
        self._state = None
        self.events: list = []
        self.estimated_periods: tuple[int, ...] | None = None

    def _periods(self) -> Sequence[int]:
        """The periods used after stage one: its estimates, one per arm."""
        d = self._detector
        return estimate_periods(self._blocks, d.n, d.g, d.H, d.sigma, d.t_max)[0]

    def _record(self, t: int, arm: int, reward: float) -> None:
        self._blocks[arm][0].append(reward)
        if t == self._end:
            self._start_stage_two()


class TwoStagePolicy(_ExploreFirst):
    """Explore-then-screen policy with spectral period estimation.

    Stage one pulls each arm n times consecutively; stage two runs, at every
    epoch, a screening tournament over rounds s = 1, 2, ...: explore any arm
    whose confidence width at the current phase exceeds sigma/2^s, exploit the
    best estimate once every width is below sigma/sqrt(T), and otherwise drop
    arms more than 2^(1-s) sigma below the leader and move to the next round.
    Exploration pulls in round s are counted in that round's cells only;
    exploit pulls never feed the estimators.
    """

    policy_id = "two_stage"

    def _start_stage_two(self) -> None:
        view = self._view
        self.estimated_periods = tuple(self._periods())
        bar_samples = ((t, k, y) for k, (samples, epochs) in enumerate(self._blocks)
                       for t, y in zip(epochs, samples))
        self._state = NestedCBState(self.estimated_periods, view.sigma, view.horizon, bar_samples)
        self._add_round_sample = self._state.add_round_sample

    def decide(self, t: int) -> int:
        if t <= self._end:
            return (t - 1) // self._n
        arm, self._pending_round = nested_cb_decide(self._state, t)
        return arm

    def observe(self, t: int, arm: int, reward: float) -> None:
        if t <= self._end:
            return self._record(t, arm, reward)
        if self._pending_round is not None and self._add_round_sample(self._pending_round, t, arm, reward):
            self.events.append((t, "zero_count_forced_pull", arm))


class OraclePolicy(TwoStagePolicy):
    """Two-stage policy with the true periods injected in place of estimates.

    Stage one still pulls and records its blocks, which stage two reuses, but
    the spectral step is skipped; everything else is identical.
    """

    policy_id = "oracle"
    uses_true_periods = True

    def begin(self, view: InstanceView) -> None:
        if view.true_periods is None or len(view.true_periods) != view.n_arms:
            raise ValueError(f"oracle variant needs one true period per arm, got {view.true_periods!r}")
        super().begin(view)

    def _periods(self) -> Sequence[int]:
        return self._view.true_periods


# ---------------------------------------------------------------------------
# Sequential elimination (shared known period, fixed best arm)
# ---------------------------------------------------------------------------

def _shared_period(view: InstanceView, policy: str) -> int:
    """The one true period every arm has; ``policy`` names the caller in errors."""
    if view.true_periods is None:
        raise ValueError(f"{policy} needs the shared period")
    periods = set(view.true_periods)
    if len(periods) != 1:
        raise ValueError(f"arms must share one period, got {sorted(periods)}")
    return periods.pop()


def elimination_schedule(s: int, K: int, T: int, T1: int) -> int:
    """Pulls per active arm in round s: ceil(2^(2+2s) log(K T s^2) / T1) * T1."""
    _checked_int("s", s)
    _checked_int("T1", T1)
    raw = 2.0 ** (2 + 2 * s) * math.log(K * T * s * s)
    return math.ceil(raw / T1) * T1


class SequentialEliminationPolicy(Policy):
    """Round-based elimination with whole-period averaging.

    All arms must share one period T1. In round s each active arm is pulled
    n_s times in a row (a multiple of T1, so its estimate averages complete
    cycles); one counter, the round's pulls so far, picks the arm, active
    arm number pulls // n_s. The round ends once every active arm has its n_s
    pulls, by dropping arms more than sigma/2^s below the best round average.
    Requires a fixed best arm to be meaningful.
    """

    policy_id = "seq_elim"
    uses_true_periods = True

    def begin(self, view: InstanceView) -> None:
        self.T1 = _shared_period(view, "sequential elimination")
        self._view = view
        self.round = 1
        self.active = list(range(view.n_arms))
        self._n_s = elimination_schedule(1, view.n_arms, view.horizon, self.T1)
        self._pulls = 0
        self._sums = {k: 0.0 for k in self.active}
        self.events: list = []

    def decide(self, t: int) -> int:
        return self.active[self._pulls // self._n_s]

    def observe(self, t: int, arm: int, reward: float) -> None:
        self._sums[arm] += reward
        self._pulls += 1
        if self._pulls < self._n_s * len(self.active):
            return
        # round complete: keep arms within sigma / 2^s of the best average
        means = {k: self._sums[k] / self._n_s for k in self.active}
        cutoff = max(means.values()) - self._view.sigma / (2.0 ** self.round)
        survivors = [k for k in self.active if means[k] >= cutoff]
        self.events.append((t, "elimination_round", {
            "round": self.round, "n_s": self._n_s, "active": list(self.active),
            "means": means, "survivors": list(survivors),
        }))
        self.active = survivors
        self.round += 1
        self._n_s = elimination_schedule(self.round, self._view.n_arms, self._view.horizon, self.T1)
        self._pulls = 0
        self._sums = {k: 0.0 for k in self.active}


# ---------------------------------------------------------------------------
# UCB baselines
# ---------------------------------------------------------------------------

class _ResidueUCB(Policy):
    """Independent UCB1 (Auer, Cesa-Bianchi and Fischer 2002) per residue
    cell t mod L, after stage one (epochs up to ``_end``, 0 if none, whose
    samples go to ``_ExploreFirst._record``).

    Each cell is one record ``[counts, sums, means, visits]`` over the arms,
    which ``observe`` updates in place; N is the cell's visits. ``decide``
    pulls the cell's first unpulled arm, whoever calls, and otherwise the
    largest mean + sqrt(2 log N / c), ties to the smallest arm.
    ``StationaryUCB`` and ``LcmUCB`` name ``decide`` and ``observe`` in their
    own class dicts, where ``perfbench``'s tracer wraps them.
    """

    def _start_cells(self, L: int, K: int) -> None:
        self._L = L
        self._rest = range(1, K)  # the arms after arm 0, which seeds the argmax
        self._state = [[[0] * K, [0.0] * K, [0.0] * K, 0] for _ in range(L)]

    def decide(self, t: int) -> int:
        if t <= self._end:
            return (t - 1) // self._n
        counts, _, means, visits = self._state[t % self._L]
        if 0 in counts:
            return counts.index(0)
        two_log_n = 2.0 * log(visits)
        best, best_idx = means[0] + sqrt(two_log_n / counts[0]), 0
        for k in self._rest:
            idx = means[k] + sqrt(two_log_n / counts[k])
            if idx > best:
                best, best_idx = idx, k
        return best_idx

    def observe(self, t: int, arm: int, reward: float) -> None:
        if t <= self._end:
            return self._record(t, arm, reward)
        cell = self._state[t % self._L]
        counts, sums = cell[0], cell[1]
        c = counts[arm] = counts[arm] + 1
        total = sums[arm] = sums[arm] + reward
        cell[2][arm] = total / c
        cell[3] += 1


class StationaryUCB(_ResidueUCB):
    """UCB1 that ignores periodicity altogether: one cell, L = 1."""

    policy_id = "stationary_ucb"
    horizon_free = True
    decide, observe = _ResidueUCB.decide, _ResidueUCB.observe

    def begin(self, view: InstanceView) -> None:
        self._end = 0
        self._start_cells(1, view.n_arms)


class PerPhaseUCB(_ResidueUCB):
    """One independent UCB1 per phase of a shared, known period T1: L = T1."""

    policy_id = "per_phase_ucb"
    uses_true_periods = True
    horizon_free = True

    def begin(self, view: InstanceView) -> None:
        self._end = 0
        self._start_cells(_shared_period(view, "per-phase UCB"), view.n_arms)


class LcmUCB(_ExploreFirst, _ResidueUCB):
    """Baseline that shares the two-stage policy's stage one, then decomposes
    epochs by residue modulo the LCM of the estimated periods (at most the
    horizon) and runs a fresh UCB1 in every residue class; stage-one samples
    are not reused.
    """

    policy_id = "lcm_ucb"
    decide, observe = _ResidueUCB.decide, _ResidueUCB.observe

    def _start_stage_two(self) -> None:
        self.estimated_periods = self._periods()
        self.lcm_period = min(math.lcm(*self.estimated_periods), self._view.horizon)
        self._start_cells(self.lcm_period, self._view.n_arms)


_POLICIES = {
    cls.policy_id: cls
    for cls in (TwoStagePolicy, OraclePolicy, SequentialEliminationPolicy, PerPhaseUCB, StationaryUCB, LcmUCB)
}
POLICY_IDS = tuple(_POLICIES)


def make_policy(policy_id: str, params: dict | None = None) -> Policy:
    """Instantiate a policy by its id with a namespaced parameter dict."""
    if policy_id not in _POLICIES:
        raise ValueError(f"unknown policy id {policy_id!r}; expected one of {POLICY_IDS}")
    cls = _POLICIES[policy_id]
    return cls(**_checked_keys(f"{policy_id} params", dict(params or {}), cls.params))
