"""Periodogram-based period estimation for noisy periodic sequences.

Pipeline per arm: evaluate the normalized DFT of an n-sample block on a dense
frequency grid over [0, 1/2], form a data-driven threshold from deterministic
leakage/noise constants, then repeatedly pick the global maximum above the
threshold, snap it to the nearest candidate rational frequency, and excise a
g/n-neighborhood around the match. The period estimate is the LCM of the
denominators of the matched frequencies.

Stage one thresholds periodogram magnitudes, which do not depend on the
block's start epoch, so the DFT is taken with offsets s = 0..n-1 from the
first sample. The grid's 12n-point mesh lies on the odd bins k = 48j + r of a
48n-point DFT. For odd r < 24 the bins with residue r are one length-n FFT of
the block times exp(-2 pi i r s/(48n)); since the block is real, a residue
r > 24 has the magnitude of residue 48 - r, read backwards. Twelve length-n
FFTs thus give the whole mesh in O(n log n), with no zero padding; only the
candidate rationals off the odd bins (at most t_max^2 points) are direct
sums. ``estimate_periods`` builds a detection plan once per (n, t_max): the
read-only grid, the twelve twiddle rows, the direct-sum basis, one gather
index over the magnitudes of the FFT rows and direct sums, and each grid
point's matching candidate. A block then costs one batched FFT, one small
matrix-vector product and one gather, and each peak one table read, with the
same bits as building the plan afresh.

All constants are deterministic functions of (n, g, sigma, H); "log" is the
natural logarithm throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

import numpy as np

_LATTICE_TOL = 1e-9  # |48 n v - k| below this puts v on DFT bin k


def _checked_int(key: str, value, least: int = 1) -> int:
    """``value`` checked to be an integer (not a bool) of at least ``least``; ``key`` names it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{key} must be an integer of at least {least}, got {value!r}")
    return value


def _checked_number(key: str, value) -> float:
    """``value`` checked to be a finite int or float (not a bool); ``key`` names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Deterministic constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 must not be served the entry of 1 unchecked
def a_sup(j: int) -> float:
    """Supremum of |sin(pi v)| / (pi v) over [j, j+1].

    In x = pi v it is the root of tan x = x in (pi j, pi (j + 1/2)), the fixed
    point of x <- pi j + atan(x) (contraction 1 / (1 + x^2)). |sin x| / x is
    flat there, so it is evaluated rather than the equal 1 / sqrt(1 + x^2).
    """
    _checked_int("j", j)
    x = math.pi * (j + 0.5)
    for _ in range(64):
        x, prev = math.pi * j + math.atan(x), x
        if x == prev:
            break
    return abs(math.sin(x)) / x


def u_constants(n: int, g: int) -> tuple[float, float]:
    """Leakage sums U1 = sum A_{(2j+1)g} and U2 = sum A_{2jg-1}.

    The first runs j = 0 .. floor((n - 2g - 1) / (4g)), the second
    j = 1 .. floor((n - 1) / (4g)). Requires g >= max(2, sqrt(n)).
    """
    _checked_int("n", n, least=2)
    _checked_int("g", g, least=2)
    if g * g < n:
        raise ValueError(f"g={g} violates g >= max(2, sqrt(n)) for n={n}")
    u1 = sum((a_sup((2 * j + 1) * g) for j in range(0, (n - 2 * g - 1) // (4 * g) + 1)), 0.0)
    u2 = sum((a_sup(2 * j * g - 1) for j in range(1, (n - 1) // (4 * g) + 1)), 0.0)
    return u1, u2


def noise_bound(n: int, sigma: float, H: float) -> float:
    """High-probability envelope for the noise DFT: 2 sigma H / (1 - pi/24) * sqrt(log(n)/n)."""
    _checked_int("n", n, least=2)
    if _checked_number("sigma", sigma) < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if _checked_number("H", H) <= 0:
        raise ValueError(f"H must be > 0, got {H}")
    return 2.0 * sigma * H / (1.0 - math.pi / 24.0) * math.sqrt(math.log(n) / n)


def default_H(n: int) -> float:
    """Stage one's default H = sqrt(1 + log n), for an integer n of at least 1."""
    return math.sqrt(1.0 + math.log(_checked_int("n", n)))


@dataclass(frozen=True)
class ThresholdConstants:
    """Stage one's detector: n, g, sigma, H, the largest candidate denominator
    t_max, and everything deterministic in them that the threshold needs.

    The one place the defaults are filled: an unset g is ceil(sqrt(n)), H is
    sqrt(1 + log n) and t_max is ceil(n / (2g)) - 1, so periods must be below
    n/(2g). Checks that n is an integer of at least 2 before g's default is
    taken from it, g as ``u_constants`` does, sigma and H as ``noise_bound``
    does, and that t_max is an integer (not a bool) of at least 0, then
    derives U1, U2, the noise envelope ``eps_bar`` and
    ``leakage_ratio`` = pi U1 / (1 - pi U2), the threshold's slope in the
    observed sup. No valid (n, g) makes that ratio degenerate: A_m <= 1/(pi m)
    and g^2 >= n give pi U2 <= (1 + log(g/4)) / (2g - 1) <= 0.136.
    """

    n: int
    g: int | None
    sigma: float
    H: float | None
    t_max: int | None
    u1: float = field(init=False)
    u2: float = field(init=False)
    eps_bar: float = field(init=False)
    leakage_ratio: float = field(init=False)

    def __post_init__(self) -> None:
        n = _checked_int("n", self.n, least=2)
        g = math.ceil(math.sqrt(n)) if self.g is None else self.g
        u1, u2 = u_constants(n, g)  # checks g >= max(2, sqrt(n))
        H = default_H(n) if self.H is None else self.H
        eps_bar = noise_bound(n, self.sigma, H)
        t_max = _checked_int("t_max", math.ceil(n / (2 * g)) - 1 if self.t_max is None else self.t_max, least=0)
        filled = dict(g=g, H=H, t_max=t_max, u1=u1, u2=u2, eps_bar=eps_bar,
                      leakage_ratio=math.pi * u1 / (1.0 - math.pi * u2))
        for name, value in filled.items():
            object.__setattr__(self, name, value)

    @classmethod
    def for_horizon(
        cls, T: int, K: int, sigma: float, n: int | None = None, g: int | None = None
    ) -> ThresholdConstants:
        """The detector of stage one at horizon T with K arms: an unset n is
        floor(sqrt(T/K)), which needs T > 4K, and n K must be below T."""
        _checked_int("T", T)
        _checked_int("K", K)
        if n is None:
            if T <= 4 * K:
                raise ValueError("horizon too short: need T > 4K")
            n = int(math.floor(math.sqrt(T / K)))
        else:
            _checked_int("n", n, least=2)
        if n * K >= T:
            raise ValueError(f"stage one's n K = {n} * {K} pulls would consume the whole horizon T={T}")
        return threshold_constants(n, g, sigma)


@lru_cache(maxsize=64, typed=True)  # typed: True and 50.0 must not be served the entries of 1 and 50 unchecked
def threshold_constants(
    n: int, g: int | None, sigma: float, H: float | None = None, t_max: int | None = None
) -> ThresholdConstants:
    """The detector ``ThresholdConstants(n, g, sigma, H, t_max)`` for an
    n-sample block.

    Equal arguments of equal types return one shared (frozen) value; a call
    that raises caches nothing."""
    return ThresholdConstants(n, g, sigma, H, t_max)


def threshold(constants: ThresholdConstants, sup_mag: float) -> float:
    """Data-driven cutoff: eps_bar + ratio * (eps_bar + sup_mag).

    ``sup_mag`` must be the periodogram supremum over the full grid on
    [0, 1/2], including the near-zero region, and finite.
    """
    if isinstance(sup_mag, bool) or not 0 <= sup_mag < math.inf:
        raise ValueError(f"sup_mag must be finite and >= 0, got {sup_mag}")
    return constants.eps_bar + constants.leakage_ratio * (constants.eps_bar + sup_mag)


def failure_probability_bound(n: int, K: int, H: float) -> float:
    """Upper bound on the probability that any arm's period is misestimated.

    Three-term sum 48K/n^(H^2-1) + 200K/n^(0.867 H^2-1) + 200K/n^(0.694 H^2-1);
    meaningful (and decreasing in n) only for H > 1.
    """
    _checked_int("n", n, least=2)
    _checked_int("K", K)
    if _checked_number("H", H) <= 0:
        raise ValueError(f"H must be > 0, got {H}")
    h2 = H * H
    return (
        48.0 * K / n ** (h2 - 1.0)
        + 200.0 * K / n ** (0.867 * h2 - 1.0)
        + 200.0 * K / n ** (0.694 * h2 - 1.0)
    )


def amplitude_condition_coefficients(detector: ThresholdConstants) -> tuple[float, float]:
    """(c_sigma, c_B) such that detection is reliable when the weakest present
    coefficient satisfies b >= c_sigma * sigma + c_B * B (B the strongest).

    c_sigma multiplies sigma via the noise envelope, so it takes the
    detector's envelope at unit sigma and does not read its sigma; c_B
    collects the worst of the two leakage routes.
    """
    ratio = detector.leakage_ratio
    sigma_coeff = (2.0 * ratio + 2.0) * noise_bound(detector.n, 1.0, detector.H)
    b_coeff = max(
        (8.0 * math.pi / 3.0) * detector.u2,
        ratio * max(math.pi * detector.u1, math.pi * detector.u2 + 1.0) + math.pi * detector.u2,
    )
    return sigma_coeff, b_coeff


# ---------------------------------------------------------------------------
# DFT and periodogram
# ---------------------------------------------------------------------------

def _as_block(samples: Sequence[float], epochs: Sequence[int]) -> np.ndarray:
    """The float samples of one nonempty, finite block of consecutive epochs."""
    y = np.asarray(samples, dtype=float)
    consecutive = isinstance(epochs, range) and epochs.step == 1  # what stage one passes
    t = None if consecutive else np.asarray(epochs, dtype=float)
    if y.size == 0:
        raise ValueError("empty sample block")
    if y.shape != ((len(epochs),) if consecutive else t.shape):
        raise ValueError("samples and epochs must align")
    if not np.isfinite(y).all():
        i = np.flatnonzero(~np.isfinite(y))[0]
        raise ValueError(f"non-finite sample {y[i]} at index {i}")
    if not consecutive:
        gaps = np.flatnonzero(np.diff(t) != 1)
        if gaps.size:
            i = gaps[0]
            raise ValueError(f"epochs must be consecutive: epoch {t[i + 1]:g} follows {t[i]:g}")
    return y


@lru_cache(maxsize=None)
def _candidates(t_max: int) -> tuple[tuple[Fraction, ...], np.ndarray, np.ndarray]:
    """Sorted, reduced, deduplicated rationals j1/j2 with 1 <= j1 < j2 <= t_max,
    their float values, and each one's place in (denominator, numerator)
    order, the matching tie-break; all empty for t_max < 2, the arrays
    read-only."""
    cands = tuple(sorted({Fraction(j1, j2) for j2 in range(2, t_max + 1) for j1 in range(1, j2)}))
    vals = np.array([float(c) for c in cands])
    by_key = sorted(range(len(cands)), key=lambda i: (cands[i].denominator, cands[i].numerator))
    rank = np.argsort(np.array(by_key, dtype=np.intp))  # the inverse permutation
    return cands, _read_only(vals), _read_only(rank)


def _nearest_candidates(values: np.ndarray, t_max: int) -> np.ndarray:
    """Index in ``_candidates(t_max)`` (t_max >= 2) of each value's nearest
    candidate by float distance, ties to the smaller (denominator, numerator).

    The candidates are sorted and at least 1/t_max^2 apart, so for |v| < 2
    the nearest is one of the two that bracket v and no candidate further out
    ties with them. Past that, rounding can tie many (v = inf ties all), so
    those values, none of them on a frequency grid, compare every candidate;
    memory is otherwise O(values).
    """
    _, vals, rank = _candidates(t_max)
    hi = np.minimum(np.searchsorted(vals, values), vals.size - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo, d_hi = np.abs(vals[lo] - values), np.abs(vals[hi] - values)
    pick = np.where((d_lo < d_hi) | (d_lo == d_hi) & (rank[lo] < rank[hi]), lo, hi)
    far = np.flatnonzero(~(np.abs(values) < 2))
    if far.size:
        d = np.abs(vals - values[far, None])
        pick[far] = np.argmin(np.where(d == d.min(axis=1, keepdims=True), rank, rank.size), axis=1)
    return pick


def frequency_grid(n: int, candidates: Sequence[float] = ()) -> np.ndarray:
    """Evaluation grid over [0, 1/2]: 12n interval midpoints of step 1/(24n),
    i.e. (2l - 1)/(48n) for l = 1..12n, plus every candidate in (0, 1/2].

    Midpoints sample each width-2/n main lobe at ~48 points; candidates
    (rationals or their float values, compared as floats) are evaluated
    exactly. Raises ``ValueError`` unless n is an integer (not a bool) of at
    least 1.
    """
    _checked_int("n", n)
    mesh = (2.0 * np.arange(1, 12 * n + 1) - 1.0) / (48.0 * n)
    extra = np.asarray(candidates, dtype=float)
    grid = np.sort(np.concatenate([mesh, extra[(extra > 0) & (extra <= 0.5)]]))
    # sorted, so a repeat is adjacent (numpy's unique() would import numpy.ma)
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


@dataclass
class Periodogram:
    """DFT magnitudes of one sample block on a frequency grid: ``grid`` and
    ``magnitudes`` are 1-D, of one length of at least 1."""

    n: int
    grid: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        shape, mag_shape = np.shape(self.grid), np.shape(self.magnitudes)
        if shape != mag_shape or len(shape) != 1:
            raise ValueError(f"grid of shape {shape} and magnitudes of shape {mag_shape} must be 1-D of one length")
        if shape == (0,):
            raise ValueError("empty periodogram")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _DetectionPlan:
    """What ``compute_periodogram`` needs from (n, grid) alone.

    A grid point on an odd bin k = 48j + r of the 48n-point DFT (0 < k < 48n)
    reads the length-n FFT of y * ``pre[(r - 1) // 2]`` at j for r < 24, and
    row (47 - r) // 2 at n - 1 - j for r > 24: y is real, so that bin is the
    conjugate of this one and has its magnitude. ``pre`` holds
    exp(-2 pi i r s / (48n)) for r = 1, 3, .., 23 at offsets s = 0..n-1.
    ``basis`` holds exp(-2 pi i v s) for the remaining points (even bins and
    off the lattice), and ``gather`` picks each grid point's magnitude from
    the FFT rows and the direct sums laid end to end. ``match`` holds each
    grid point's ``_nearest_candidates`` index for a detector of t_max, so a
    peak costs one table read; it is None for a t_max below 2, which has no
    candidates (the one-call plans of ``compute_periodogram`` pass 1).
    """

    def __init__(self, n: int, grid: np.ndarray, t_max: int):
        scaled = 48.0 * n * grid
        bins = np.rint(scaled)
        on = (np.abs(scaled - bins) <= _LATTICE_TOL) & (bins > 0) & (bins < 48 * n) & (bins % 2 == 1)
        j, r = np.divmod(bins[on].astype(np.intp), 48)
        off = np.flatnonzero(~on)
        self.n, self.grid = n, grid
        self.gather = np.empty(grid.size, dtype=np.intp)
        self.gather[on] = np.where(r > 24, (47 - r) // 2 * n + n - 1 - j, (r - 1) // 2 * n + j)
        self.gather[off] = 12 * n + np.arange(off.size)
        s = np.arange(n)
        self.pre = np.exp(-2j * np.pi / (48 * n) * np.outer(np.arange(1, 24, 2), s))
        self.basis = np.exp(-2j * np.pi * np.outer(grid[off], s.astype(float)))
        self.match = _read_only(_nearest_candidates(grid, t_max)) if t_max >= 2 else None
        for a in (self.gather, self.pre, self.basis):
            _read_only(a)


# Bounded cache, oldest entry evicted first: any (n, t_max) a caller passes
# fits. A sweep needs one plan per horizon.
_PLAN_SLOTS = 16
_plans: dict[tuple[int, int], _DetectionPlan] = {}


def _detection_plan(n: int, t_max: int) -> _DetectionPlan:
    """The cached plan of ``frequency_grid(n, _candidates(t_max)[1])`` for a
    detector of t_max, whose grid is read-only."""
    key = (n, t_max)
    plan = _plans.get(key)
    if plan is None:
        if len(_plans) >= _PLAN_SLOTS:
            del _plans[next(iter(_plans))]
        grid = _read_only(frequency_grid(n, _candidates(t_max)[1]))
        plan = _plans[key] = _DetectionPlan(n, grid, t_max)
    return plan


def compute_periodogram(samples: Sequence[float], epochs: Sequence[int], grid: np.ndarray) -> Periodogram:
    """Normalized DFT magnitude of one block of consecutive epochs at every
    grid frequency.

    Grid points on the odd bins k/(48n), 0 < k < 48n, which hold the whole
    mesh of ``frequency_grid(n)``, come from twelve length-n FFTs of the
    twiddled block; the remaining points (candidate rationals on even bins or
    off the lattice, or a grid built for another n) are direct sums. A
    magnitude does not depend on the start epoch, so the epochs are only
    checked. A cached detection grid (the one ``estimate_periods`` passes)
    reuses its plan; any other grid gets a plan built for this call. Raises
    ``ValueError`` on a non-finite sample, on epochs that are not consecutive
    or on a grid that is not 1-D.
    """
    y = _as_block(samples, epochs)
    n = y.size
    grid = np.asarray(grid, dtype=float)
    plan = next((p for p in _plans.values() if p.grid is grid), None)
    if plan is None or plan.n != n:
        if grid.ndim != 1:
            raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
        plan = _DetectionPlan(n, grid, 1)
    y = y / n  # n real divisions: dividing the complex values instead is ~10x slower
    rows = np.fft.fft(plan.pre * y)
    mags = np.concatenate((np.abs(rows).ravel(), np.abs(plan.basis @ y)))[plan.gather]
    return Periodogram(n=n, grid=grid, magnitudes=mags)


# ---------------------------------------------------------------------------
# Frequency identification
# ---------------------------------------------------------------------------

@dataclass
class FrequencyEstimate:
    """Outcome of thresholded identification for one arm."""

    identified: list[Fraction]
    threshold: float
    trace: list[dict]

    @property
    def period_estimate(self) -> int:
        """The LCM of the identified frequencies' denominators, 1 if none."""
        return math.lcm(*(f.denominator for f in self.identified))


def identify_frequencies(periodogram: Periodogram, detector: ThresholdConstants) -> FrequencyEstimate:
    """Threshold-and-excise search over the periodogram with the detector's
    candidates, the rationals of denominator at most ``detector.t_max``.

    Grid points below g/n are excluded from the search (the constant term's
    main lobe lives there) but still count toward the supremum that sets the
    threshold. After one pass over the grid, the search reads only the
    points above the threshold at or past g/n. Ties at the maximum go to the
    first point in grid order, which on ``frequency_grid``'s sorted grid is
    the lowest frequency; candidate-matching ties resolve to the smaller
    denominator, then smaller numerator. On the grid of the cached plan for
    (n, t_max) each point's match is read from the plan; on any other grid
    the points above the threshold are matched by the same rule. Raises
    ``ValueError`` on a periodogram of a block whose length is not the
    detector's n.

    A t_max below 2 leaves no representable period at this sample size; the
    candidate set is then empty and the estimate degrades to period 1.
    """
    n, g, t_max = detector.n, detector.g, detector.t_max
    if periodogram.n != n:
        raise ValueError(f"periodogram of {periodogram.n} samples given to a detector for n={n}")
    tau = threshold(detector, float(periodogram.magnitudes.max()))
    if t_max < 2:
        return FrequencyEstimate(identified=[], threshold=tau, trace=[])
    cands = _candidates(t_max)[0]
    grid = periodogram.grid
    mags = periodogram.magnitudes
    width = g / n
    above = np.flatnonzero(mags > tau)
    above = above[grid[above] >= width]
    freqs = grid[above]
    plan = _plans.get((n, t_max))
    match = plan.match[above] if plan is not None and plan.grid is grid else _nearest_candidates(freqs, t_max)
    # (index, frequency, magnitude, match) in grid order; max() keeps the first of equals
    points = list(zip(above.tolist(), freqs.tolist(), mags[above].tolist(), match.tolist()))

    identified: list[Fraction] = []
    trace: list[dict] = []
    while points:
        idx, v_star, magnitude, m = max(points, key=itemgetter(2))
        v_hat = cands[m]
        lo, hi = float(v_hat) - width, float(v_hat) + width
        # the pick goes by index, so progress holds even if the match is far away
        points = [p for p in points if not lo < p[1] < hi and p[0] != idx]
        if v_hat not in identified:
            identified.append(v_hat)
        trace.append({"v_star": v_star, "matched": v_hat, "magnitude": magnitude})
    identified.sort()
    return FrequencyEstimate(identified=identified, threshold=tau, trace=trace)


def estimate_periods(
    blocks: Sequence[tuple[Sequence[float], Sequence[int]]],
    n: int,
    g: int,
    H: float,
    sigma: float,
    t_max: int | None = None,
) -> tuple[tuple[int, ...], list[FrequencyEstimate]]:
    """Run the full periodogram -> threshold -> identification pipeline per arm.

    ``blocks`` holds one (samples, absolute epochs) pair per arm, each of
    exactly n consecutive samples. Arms are processed independently.
    """
    consts = threshold_constants(n, g, sigma, H, t_max)
    grid = _detection_plan(n, consts.t_max).grid
    estimates = []
    for samples, epochs in blocks:
        if len(samples) != n:
            raise ValueError(f"each block must have exactly n={n} samples, got {len(samples)}")
        pg = compute_periodogram(samples, epochs, grid)
        estimates.append(identify_frequencies(pg, consts))
    return tuple(e.period_estimate for e in estimates), estimates
