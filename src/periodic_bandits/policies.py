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
from typing import Sequence

from .spectral import detector_parameters, estimate_periods


def recommended_parameters(T: int, K: int) -> tuple[int, int, float]:
    """Stage-one defaults: n = floor(sqrt(T/K)), g = ceil(sqrt(n)), H = sqrt(1 + log n)."""
    if T <= 4 * K:
        raise ValueError("horizon too short: need T > 4K")
    return detector_parameters(int(math.floor(math.sqrt(T / K))))


def stage_one_schedule(t: int, n: int, n_arms: int) -> int:
    """Arm pulled at epoch t of the exploration block: arms in order, n pulls each."""
    if not 1 <= t <= n * n_arms:
        raise ValueError(f"epoch {t} outside stage one (1..{n * n_arms})")
    return (t - 1) // n


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
    """

    policy_id = "base"
    uses_true_periods = False
    horizon_free = False

    def begin(self, view: InstanceView) -> None:
        raise NotImplementedError

    def decide(self, t: int) -> int:
        raise NotImplementedError

    def observe(self, t: int, arm: int, reward: float) -> None:
        raise NotImplementedError

    @property
    def estimated_periods(self) -> tuple[int, ...] | None:
        return None

    @property
    def events(self) -> list:
        return []


# ---------------------------------------------------------------------------
# Nested confidence-bound state (stage two)
# ---------------------------------------------------------------------------

class NestedCBState:
    """Sufficient statistics for the screening tournament, kept per cell.

    A cell is one (round s, arm k, phase) triple, the phase taken modulo the
    (estimated) period of k. Each cell holds the count and reward sum of the
    reused exploration block and of round s's index set, and caches the two
    numbers a decision reads: the confidence width and the pooled mean. A
    bar-only row, built from the exploration block alone, stands in for every
    round that has no sample yet.

    A width is the count-weighted combination of the reuse block's and round
    s's Hoeffding radii, a zero count contributing nothing; an unsampled cell
    has width inf and mean nan. An epoch changes one count, so updates are
    local: ``add_round_sample`` refreshes the one cell it touches, and
    ``add_bar_sample`` refreshes that cell in the bar-only row and in every
    existing round. The cached values are computed exactly as a from-scratch
    evaluation would compute them.

    What a decision needs that is fixed for the episode is computed once: the
    round thresholds sigma/2^s, the exploit width sigma/sqrt(T), the full arm
    list, and each cell's reuse-block part c_bar term(c_bar) of its width
    (stage two adds no reuse-block sample, so this part is fixed there).

    Closed cells are frozen. The tournament charges an epoch to round s only
    at the widest active cell, and only while that cell's width exceeds
    sigma/2^s; so a round-s cell at or below sigma/2^s never receives another
    round-s sample, and its width and mean never change. A round that a
    tournament passed at some phase (every active width at most sigma/2^s, no
    exploit) therefore passes again at every later epoch with the same phases,
    with the same means and the same survivors. The state keeps, per phase
    key ``t % lcm(periods)``, the first round not yet passed there and the
    arms that survived the rounds before it; ``nested_cb_decide`` starts from
    that entry. A bar sample, or a round sample into a closed cell (which the
    policy never makes, but a direct caller may), clears every entry. No entry
    is kept when lcm(periods) reaches the horizon, since no key could repeat.
    """

    def __init__(self, periods: Sequence[int], sigma: float, horizon: int, delta: float):
        self.periods = tuple(int(p) for p in periods)
        if any(p < 1 for p in self.periods):
            raise ValueError("periods must be positive")
        self.sigma = float(sigma)
        self.horizon = int(horizon)
        self.delta = float(delta)
        self.d_hat = sum(self.periods)
        self.S = max(int(math.floor(math.log2(horizon))), 1)
        self._bar_counts = [[0] * p for p in self.periods]
        self._bar_sums = [[0.0] * p for p in self.periods]
        # c_bar term(c_bar) per cell, 0.0 while empty: the reuse block's part
        # of every width of the cell
        self._bar_parts = [[0.0] * p for p in self.periods]
        # (widths, means) indexed [arm][phase], one row per round with
        # samples and the bar-only row for the others; a decision never reads
        # the mean of an empty cell
        self._bar_row = ([[math.inf] * p for p in self.periods], [[math.nan] * p for p in self.periods])
        self._round_counts: dict[int, list[list[int]]] = {}
        self._round_sums: dict[int, list[list[float]]] = {}
        self._rows: dict[int, tuple[list[list[float]], list[list[float]]]] = {}
        self._term_cache: dict[int, float] = {}
        # fixed for the episode, each in the expression a decision would use;
        # thresholds are indexed by round, 1..S
        self._thresholds = [self.sigma / (2.0 ** s) for s in range(self.S + 1)]
        self._narrow = self.sigma / math.sqrt(self.horizon)
        self._arms = list(range(len(self.periods)))
        self._lcm = math.lcm(*self.periods)
        self._settled: dict[int, tuple[int, list[int]]] | None = {} if self._lcm < self.horizon else None

    def _refresh(
        self, row: tuple[list[list[float]], list[list[float]]], arm: int, p: int, c_s: int, sum_s: float
    ) -> None:
        # width (c_bar term(c_bar) + c_s term(c_s)) / total, a zero count
        # contributing 0.0; mean (bar sum + round sum) / total
        total = self._bar_counts[arm][p] + c_s
        row[0][arm][p] = (self._bar_parts[arm][p] + (c_s * self._term(c_s) if c_s else 0.0)) / total
        row[1][arm][p] = (self._bar_sums[arm][p] + sum_s) / total

    def add_bar_sample(self, epoch: int, arm: int, reward: float) -> None:
        p = epoch % self.periods[arm]
        c_bar = self._bar_counts[arm][p] + 1
        self._bar_counts[arm][p] = c_bar
        self._bar_sums[arm][p] += reward
        self._bar_parts[arm][p] = c_bar * self._term(c_bar)
        self._refresh(self._bar_row, arm, p, 0, 0.0)
        for s, row in self._rows.items():
            self._refresh(row, arm, p, self._round_counts[s][arm][p], self._round_sums[s][arm][p])
        if self._settled:
            self._settled.clear()

    def add_round_sample(self, s: int, epoch: int, arm: int, reward: float) -> None:
        row = self._rows.get(s)
        if row is None:
            if not 1 <= s <= self.S:
                raise ValueError(f"round {s} outside 1..{self.S}")
            widths, means = self._bar_row
            self._round_counts[s] = [[0] * p for p in self.periods]
            self._round_sums[s] = [[0.0] * p for p in self.periods]
            row = self._rows[s] = ([w[:] for w in widths], [m[:] for m in means])
        p = epoch % self.periods[arm]
        widths = row[0][arm]
        if self._settled and not widths[p] > self._thresholds[s]:
            # the cell was closed: a round passed on it may not pass again
            self._settled.clear()
        # the one cell this sample lands in, refreshed as _refresh would
        counts, sums = self._round_counts[s][arm], self._round_sums[s][arm]
        c_s = counts[p] = counts[p] + 1
        sum_s = sums[p] = sums[p] + reward
        total = self._bar_counts[arm][p] + c_s
        term = self._term_cache.get(c_s)
        if term is None:
            term = self._term(c_s)
        widths[p] = (self._bar_parts[arm][p] + c_s * term) / total
        row[1][arm][p] = (self._bar_sums[arm][p] + sum_s) / total

    def counts_at(self, s: int, arm: int, t: int) -> tuple[int, int]:
        """(reuse-block count, round-s count) at arm's phase of epoch t."""
        p = t % self.periods[arm]
        c_bar = self._bar_counts[arm][p]
        c_s = self._round_counts[s][arm][p] if s in self._round_counts else 0
        return c_bar, c_s

    def _term(self, c: int) -> float:
        # sqrt((4 sigma^2 / c) * log(8 d_hat c / delta)), memoized on c
        cached = self._term_cache.get(c)
        if cached is None:
            cached = math.sqrt(
                (4.0 * self.sigma * self.sigma / c)
                * math.log(8.0 * self.d_hat * c / self.delta)
            )
            self._term_cache[c] = cached
        return cached


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

    Each round reads the widths and means of the state's cached round-s row
    at the phases of t, so a decision computes no confidence radius. The
    tournament starts from the state's settled entry for ``t % lcm(periods)``
    instead of round 1 with every arm, and records there each round it
    passes: the next round and its survivors. That record is all it writes.
    Rounds pass only on closed cells, which no sample of the policy changes
    (see ``NestedCBState``), so the result equals a tournament from round 1;
    the cached rows and ``counts_at`` read only the samples, never the record.
    An entry with one survivor first reads that arm's width alone: above the
    threshold, the round explores it whatever its mean.
    """
    thresholds, rows, bar_row = state._thresholds, state._rows, state._bar_row
    settled = state._settled
    entry = None
    if settled is not None:
        key = t % state._lcm
        entry = settled.get(key)
    if entry is None:
        s, active = 1, state._arms
    else:
        s, active = entry
        if len(active) == 1:
            k = active[0]
            if rows.get(s, bar_row)[0][k][t % state.periods[k]] > thresholds[s]:
                return k, s
    sigma = state.sigma
    phases = [t % p for p in state.periods]
    while True:
        width_row, mean_row = rows.get(s, bar_row)
        widths = [width_row[k][phases[k]] for k in active]
        widest = max(widths)
        if widest > thresholds[s]:
            return active[widths.index(widest)], s
        means = [mean_row[k][phases[k]] for k in active]
        best_m = max(means)
        if widest <= state._narrow or s >= state.S:
            return active[means.index(best_m)], None
        cutoff = best_m - sigma * 2.0 ** (1 - s)
        active = [k for k, m in zip(active, means) if m >= cutoff]
        s += 1
        if settled is not None:
            settled[key] = (s, active)


def _checked_H(H: float | None) -> float | None:
    """A policy's stage-one H, if set, checked to be finite and positive."""
    if H is not None and not (math.isfinite(H) and H > 0):
        raise ValueError(f"H must be finite and positive, got {H}")
    return H


class _StageOne:
    """Stage one of an episode: n consecutive pulls per arm, then one period per arm.

    Built by ``begin`` for one episode. It completes the constructor's n, g, H
    for the horizon (an unset n is the recommended one, an unset g or H
    follows the n actually used), fixes the last epoch ``end = n K``, collects
    each arm's block and runs the spectral estimator on the blocks.
    """

    def __init__(self, view: InstanceView, n: int | None, g: int | None, H: float | None, t_max: int | None):
        K, T = view.n_arms, view.horizon
        if n is None:
            n = recommended_parameters(T, K)[0]
        self.n, self.g, self.H = detector_parameters(n, g, H)
        self.end = self.n * K
        if self.end >= T:
            raise ValueError("stage one would consume the whole horizon")
        self.t_max = t_max
        self.sigma = view.sigma
        self.blocks: list[list[float]] = [[] for _ in range(K)]

    def arm(self, t: int) -> int:
        return stage_one_schedule(t, self.n, len(self.blocks))

    def estimate(self) -> tuple[int, ...]:
        n = self.n
        blocks = [(block, range(n * k + 1, n * (k + 1) + 1)) for k, block in enumerate(self.blocks)]
        return estimate_periods(blocks, n, self.g, self.H, self.sigma, t_max=self.t_max)[0]


class TwoStagePolicy(Policy):
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

    def __init__(
        self,
        n: int | None = None,
        g: int | None = None,
        H: float | None = None,
        t_max: int | None = None,
        delta: float | None = None,
    ):
        if delta is not None and not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        self.n, self.g, self.H, self.t_max, self.delta = n, g, _checked_H(H), t_max, delta

    def begin(self, view: InstanceView) -> None:
        self._stage_one = _StageOne(view, self.n, self.g, self.H, self.t_max)
        self._view = view
        self._state: NestedCBState | None = None
        self._pending_round: int | None = None
        self._events: list = []
        self._estimated: tuple[int, ...] | None = None

    def _periods(self) -> Sequence[int]:
        """The periods stage two learns under: stage one's estimates."""
        return self._stage_one.estimate()

    def _start_stage_two(self) -> None:
        view, stage_one = self._view, self._stage_one
        self._estimated = tuple(self._periods())
        delta = self.delta if self.delta is not None else 8.0 / view.horizon
        state = NestedCBState(self._estimated, view.sigma, view.horizon, delta)
        for k, block in enumerate(stage_one.blocks):
            for t, y in enumerate(block, start=stage_one.n * k + 1):
                state.add_bar_sample(t, k, y)
        self._state = state
        # a (0, 0) cell needs an empty reuse-block cell, and stage two adds no
        # reuse-block sample: without one, no pull can be a zero-count pull
        self._may_force = any(0 in counts for counts in state._bar_counts)

    def decide(self, t: int) -> int:
        if t <= self._stage_one.end:
            return self._stage_one.arm(t)
        if self._state is None:
            self._start_stage_two()
        arm, pending = nested_cb_decide(self._state, t)
        if pending is not None and self._may_force and self._state.counts_at(pending, arm, t) == (0, 0):
            self._events.append((t, "zero_count_forced_pull", arm))
        self._pending_round = pending
        return arm

    def observe(self, t: int, arm: int, reward: float) -> None:
        if t <= self._stage_one.end:
            self._stage_one.blocks[arm].append(reward)
            return
        if self._pending_round is not None:
            self._state.add_round_sample(self._pending_round, t, arm, reward)

    @property
    def estimated_periods(self) -> tuple[int, ...] | None:
        return self._estimated

    @property
    def events(self) -> list:
        return self._events


class OraclePolicy(TwoStagePolicy):
    """Two-stage policy with the true periods injected in place of estimates.

    Stage one still pulls and records its blocks, which stage two reuses, but
    the spectral step is skipped; everything else is identical.
    """

    policy_id = "oracle"
    uses_true_periods = True

    def _periods(self) -> Sequence[int]:
        if self._view.true_periods is None:
            raise ValueError("oracle variant needs the true periods")
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
    if s < 1 or T1 < 1:
        raise ValueError("need s >= 1 and T1 >= 1")
    raw = 2.0 ** (2 + 2 * s) * math.log(K * T * s * s)
    return math.ceil(raw / T1) * T1


class SequentialEliminationPolicy(Policy):
    """Round-based elimination with whole-period averaging.

    All arms must share one period T1. In round s each active arm is pulled
    n_s times (a multiple of T1, so its estimate averages complete cycles);
    the round ends by dropping arms more than sigma/2^s below the best round
    average. Requires a fixed best arm to be meaningful.
    """

    policy_id = "seq_elim"
    uses_true_periods = True

    def begin(self, view: InstanceView) -> None:
        self.T1 = _shared_period(view, "sequential elimination")
        self._view = view
        self.round = 1
        self.active = list(range(view.n_arms))
        self._n_s = elimination_schedule(1, view.n_arms, view.horizon, self.T1)
        self._cursor = 0      # position within the active list
        self._done_for_arm = 0
        self._sums = {k: 0.0 for k in self.active}
        self.rounds_log: list[dict] = []

    def decide(self, t: int) -> int:
        return self.active[self._cursor]

    def observe(self, t: int, arm: int, reward: float) -> None:
        self._sums[arm] += reward
        self._done_for_arm += 1
        if self._done_for_arm < self._n_s:
            return
        self._done_for_arm = 0
        self._cursor += 1
        if self._cursor < len(self.active):
            return
        # round complete: keep arms within sigma / 2^s of the best average
        means = {k: self._sums[k] / self._n_s for k in self.active}
        cutoff = max(means.values()) - self._view.sigma / (2.0 ** self.round)
        survivors = [k for k in self.active if means[k] >= cutoff]
        self.rounds_log.append(
            {"round": self.round, "n_s": self._n_s, "active": list(self.active),
             "means": means, "survivors": list(survivors)}
        )
        self.active = survivors
        self.round += 1
        self._n_s = elimination_schedule(self.round, self._view.n_arms, self._view.horizon, self.T1)
        self._cursor = 0
        self._sums = {k: 0.0 for k in self.active}


# ---------------------------------------------------------------------------
# UCB baselines
# ---------------------------------------------------------------------------

def _ucb_scale(scale: float) -> float:
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"ucb_scale must be finite and nonnegative, got {scale}")
    return scale


class _CellUCB:
    """Independent UCB1 cells: one (count, sum, mean) table per cell of a partition."""

    def __init__(self, n_cells: int, n_arms: int, scale: float):
        self.counts = [[0] * n_arms for _ in range(n_cells)]
        self.sums = [[0.0] * n_arms for _ in range(n_cells)]
        # sums[cell][k] / counts[cell][k], refreshed on each sample of k
        self.means = [[0.0] * n_arms for _ in range(n_cells)]
        self.visits = [0] * n_cells
        self.scale = scale

    def pick(self, cell: int) -> int:
        counts = self.counts[cell]
        if 0 in counts:
            return counts.index(0)
        two_log_n = 2.0 * math.log(self.visits[cell])
        means, scale = self.means[cell], self.scale
        best, best_idx = -math.inf, 0
        for k, c in enumerate(counts):
            idx = means[k] + scale * math.sqrt(two_log_n / c)
            if idx > best:
                best, best_idx = idx, k
        return best_idx

    def update(self, cell: int, arm: int, reward: float) -> None:
        counts, sums = self.counts[cell], self.sums[cell]
        counts[arm] += 1
        sums[arm] += reward
        self.means[cell][arm] = sums[arm] / counts[arm]
        self.visits[cell] += 1


class StationaryUCB(Policy):
    """UCB1 that ignores periodicity altogether."""

    policy_id = "stationary_ucb"
    horizon_free = True

    def __init__(self, ucb_scale: float = 1.0):
        self.scale = _ucb_scale(ucb_scale)

    def begin(self, view: InstanceView) -> None:
        self._cells = _CellUCB(1, view.n_arms, self.scale)

    def decide(self, t: int) -> int:
        return self._cells.pick(0)

    def observe(self, t: int, arm: int, reward: float) -> None:
        self._cells.update(0, arm, reward)


class PerPhaseUCB(Policy):
    """One independent UCB1 per phase of a shared, known period."""

    policy_id = "per_phase_ucb"
    uses_true_periods = True
    horizon_free = True

    def __init__(self, ucb_scale: float = 1.0):
        self.scale = _ucb_scale(ucb_scale)

    def begin(self, view: InstanceView) -> None:
        self.T1 = _shared_period(view, "per-phase UCB")
        self._cells = _CellUCB(self.T1, view.n_arms, self.scale)

    def decide(self, t: int) -> int:
        return self._cells.pick(t % self.T1)

    def observe(self, t: int, arm: int, reward: float) -> None:
        self._cells.update(t % self.T1, arm, reward)


class LcmUCB(Policy):
    """Baseline that shares the two-stage policy's stage one, then decomposes
    epochs by residue modulo the LCM of the estimated periods (at most the
    horizon) and runs a fresh UCB1 in every residue class; stage-one samples
    are not reused.
    """

    policy_id = "lcm_ucb"

    def __init__(
        self,
        n: int | None = None,
        g: int | None = None,
        H: float | None = None,
        t_max: int | None = None,
        ucb_scale: float = 1.0,
    ):
        self.n, self.g, self.H, self.t_max = n, g, _checked_H(H), t_max
        self.scale = _ucb_scale(ucb_scale)

    def begin(self, view: InstanceView) -> None:
        self._stage_one = _StageOne(view, self.n, self.g, self.H, self.t_max)
        self._view = view
        self._cells: _CellUCB | None = None
        self._estimated: tuple[int, ...] | None = None

    def decide(self, t: int) -> int:
        if t <= self._stage_one.end:
            return self._stage_one.arm(t)
        if self._cells is None:
            self._estimated = self._stage_one.estimate()
            self.lcm_period = min(math.lcm(*self._estimated), self._view.horizon)
            self._cells = _CellUCB(self.lcm_period, self._view.n_arms, self.scale)
        return self._cells.pick(t % self.lcm_period)

    def observe(self, t: int, arm: int, reward: float) -> None:
        if t <= self._stage_one.end:
            self._stage_one.blocks[arm].append(reward)
            return
        self._cells.update(t % self.lcm_period, arm, reward)

    @property
    def estimated_periods(self) -> tuple[int, ...] | None:
        return self._estimated


_POLICIES = {
    cls.policy_id: cls
    for cls in (TwoStagePolicy, OraclePolicy, SequentialEliminationPolicy, PerPhaseUCB, StationaryUCB, LcmUCB)
}
POLICY_IDS = tuple(_POLICIES)


def make_policy(policy_id: str, params: dict | None = None) -> Policy:
    """Instantiate a policy by its id with a namespaced parameter dict."""
    if policy_id not in _POLICIES:
        raise ValueError(f"unknown policy id {policy_id!r}; expected one of {POLICY_IDS}")
    return _POLICIES[policy_id](**dict(params or {}))
