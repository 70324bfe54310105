import dataclasses
import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_bandits import spectral
from periodic_bandits.env import MeanProfile, default_sweep_instance, make_demo_instance
from periodic_bandits.spectral import (
    FrequencyEstimate,
    ThresholdConstants,
    _candidates,
    _detection_plan,
    a_sup,
    amplitude_condition_coefficients,
    compute_periodogram,
    default_H,
    estimate_periods,
    failure_probability_bound,
    frequency_grid,
    identify_frequencies,
    noise_bound,
    threshold,
    threshold_constants,
    u_constants,
)

from helpers import dense_identify_frequencies, means_matrix, nearest_candidate

H50 = default_H(50)

# Reference constants: (n, g) -> U1, U2, sigma coeff, amplitude coeff,
# misidentification bound at K=5. All to four significant figures.
CONSTANTS_TABLE = {
    (50, 8): (0.05047, 0.02054, 3.337, 0.2450),
    (100, 10): (0.04077, 0.02438, 2.663, 0.2259),
    (200, 15): (0.03175, 0.01970, 2.080, 0.1748),
    (500, 23): (0.02439, 0.01591, 1.489, 0.1347),
}


def brute_dft(samples, epochs, v):
    # the phase v * t mod 1 is reduced in exact rational arithmetic, so the
    # reference carries no round-off from large epochs
    fv = Fraction(v)
    acc = 0j
    for y, t in zip(samples, epochs):
        phase = -2 * math.pi * float(fv * int(t) % 1)
        acc += y * complex(math.cos(phase), math.sin(phase))
    return acc / len(samples)


# ---------------------------------------------------------------------------
# side-lobe suprema
# ---------------------------------------------------------------------------

def test_a_sup_anchor_values():
    # frozen from a 2e6-point scan refined by bisection on the derivative
    assert a_sup(1) == pytest.approx(0.21723363, abs=1e-7)
    assert a_sup(8) == pytest.approx(0.03747452, abs=1e-7)


def test_a_sup_envelope_and_monotonicity():
    prev = math.inf
    for j in range(1, 2001):
        aj = a_sup(j)
        assert 1 / (math.pi * (j + 0.5)) <= aj <= 1 / (math.pi * j)
        assert aj < prev
        prev = aj


def test_a_sup_matches_dense_grid_oracle():
    # a large j as well: at T = 10^6 (n = 577, g = 25) U1 already reads A_275
    for j in (1, 3, 17, 1999):
        grid = np.linspace(j, j + 1, 2_000_001)
        oracle = np.max(np.abs(np.sin(np.pi * grid)) / (np.pi * grid))
        assert a_sup(j) == pytest.approx(oracle, abs=1e-10)


def test_a_sup_rejects_nonpositive():
    with pytest.raises(ValueError):
        a_sup(0)


# ---------------------------------------------------------------------------
# threshold constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ng,expected", CONSTANTS_TABLE.items())
def test_u_constants_reference_rows(ng, expected):
    u1, u2 = u_constants(*ng)
    assert u1 == pytest.approx(expected[0], rel=5e-4)
    assert u2 == pytest.approx(expected[1], rel=5e-4)


def test_u1_dominates_u2():
    # every term of U2 is dominated by a distinct term of U1
    for n, g in [(50, 8), (64, 8), (100, 10), (121, 11), (200, 15), (500, 23), (900, 30)]:
        u1, u2 = u_constants(n, g)
        assert u1 >= u2


def test_threshold_constants_a_table():
    consts = threshold_constants(50, 8, sigma=0.2)
    # U1 uses A_8, A_24; U2 uses A_15
    assert consts.u1 == a_sup(8) + a_sup(24)
    assert consts.u2 == a_sup(15)


def test_u_constants_invalid_g():
    with pytest.raises(ValueError):
        u_constants(50, 5)  # 5 < sqrt(50)


def test_noise_bound_value():
    assert noise_bound(50, 0.2, H50) == pytest.approx(0.28532, abs=5e-6)


@pytest.mark.parametrize(
    ("sigma", "H", "named"),
    [pytest.param(v, H50, f"sigma must be {'>= 0' if v < 0 else 'a finite number'}, got {v}", id=f"sigma={v}")
     for v in (math.nan, math.inf, -0.1)]
    + [pytest.param(0.2, v, f"H must be {'> 0' if v <= 0 else 'a finite number'}, got {v}", id=f"H={v}")
       for v in (math.nan, math.inf, 0.0, -1.0)],
)
def test_noise_bound_rejects_bad_sigma_or_H(sigma, H, named):
    # a NaN sigma or H would make the threshold NaN, and every peak would
    # then fall below it
    with pytest.raises(ValueError, match=named):
        noise_bound(50, sigma, H)


@pytest.mark.parametrize("H", [math.nan, math.inf, 0.0, -1.0])
def test_failure_bound_rejects_bad_H(H):
    named = f"H must be {'> 0' if H <= 0 else 'a finite number'}, got {H}"
    with pytest.raises(ValueError, match=named):
        failure_probability_bound(50, 5, H)
    with pytest.raises(ValueError, match=named):
        amplitude_condition_coefficients(threshold_constants(50, 8, 1.0, H))


@pytest.mark.parametrize(
    ("call", "named"),
    [
        (lambda: noise_bound(1, 0.2, H50), "^n must be an integer of at least 2, got 1$"),
        (lambda: compute_periodogram([1.0, 0.0], range(1, 4), [0.25]), "^samples and epochs must align$"),
        (lambda: compute_periodogram([1.0, 0.0], [1, 2, 3], [0.25]), "^samples and epochs must align$"),
        (lambda: compute_periodogram([[1.0], [0.0]], range(1, 3), [0.25]), "^samples and epochs must align$"),
        (lambda: compute_periodogram([1.0, None], range(1, 3), [0.25]), "^non-finite sample nan at index 1$"),
        (lambda: identify_frequencies(spectral.Periodogram(50, np.array([]), np.array([])),
                                      threshold_constants(50, 8, 0.5)), "^empty periodogram$"),
        (lambda: spectral.Periodogram(50, frequency_grid(50), np.ones(300)),
         r"^grid of shape \(600,\) and magnitudes of shape \(300,\) must be 1-D of one length$"),
        (lambda: spectral.Periodogram(50, frequency_grid(50)[:300], np.ones(600)),
         r"^grid of shape \(300,\) and magnitudes of shape \(600,\) must be 1-D of one length$"),
        (lambda: frequency_grid(0), "^n must be an integer of at least 1, got 0$"),
        (lambda: frequency_grid(True), "^n must be an integer of at least 1, got True$"),
        (lambda: compute_periodogram([1.0] * 50, range(1, 51), frequency_grid(50)[:, None]),
         r"^grid must be 1-D, got shape \(600, 1\)$"),
        (lambda: threshold_constants(50, 8.0, 0.2), "^g must be an integer of at least 2, got 8.0$"),
        (lambda: threshold_constants(50.0, 8, 0.2), "^n must be an integer of at least 2, got 50.0$"),
        (lambda: threshold_constants("50", None, 0.1), "^n must be an integer of at least 2, got '50'$"),
        (lambda: threshold_constants(50, 8, True), "^sigma must be a finite number, got True$"),
        (lambda: threshold_constants(50, 8, 0.2, True), "^H must be a finite number, got True$"),
        # typed cache: True equals 1, and must not be served the entry of 1
        (lambda: (threshold_constants(50, 8, 1), threshold_constants(50, 8, True)),
         "^sigma must be a finite number, got True$"),
        (lambda: ThresholdConstants.for_horizon(1000, 0, 0.1), "^K must be an integer of at least 1, got 0$"),
        (lambda: ThresholdConstants.for_horizon(1000.5, 3, 0.1), "^T must be an integer of at least 1, got 1000.5$"),
        (lambda: ThresholdConstants.for_horizon(1000, 3, 0.1, "50"), "^n must be an integer of at least 2, got '50'$"),
        (lambda: default_H(True), "^n must be an integer of at least 1, got True$"),
        (lambda: default_H(0), "^n must be an integer of at least 1, got 0$"),
        (lambda: failure_probability_bound(50.5, 2, 1.5), "^n must be an integer of at least 2, got 50.5$"),
        (lambda: failure_probability_bound(50, True, 1.5), "^K must be an integer of at least 1, got True$"),
        (lambda: noise_bound(50, True, 1.0), "^sigma must be a finite number, got True$"),
        (lambda: u_constants(50.0, 8), "^n must be an integer of at least 2, got 50.0$"),
        (lambda: a_sup(1.5), "^j must be an integer of at least 1, got 1.5$"),
        # typed cache: True equals 1, and must not be served the entry of 1
        (lambda: (a_sup(1), a_sup(True)), "^j must be an integer of at least 1, got True$"),
    ],
    ids=["noise-bound-n-1", "periodogram-range-misaligned", "periodogram-list-misaligned",
         "periodogram-nested-list", "periodogram-none-sample", "empty-periodogram",
         "periodogram-short-magnitudes", "periodogram-short-grid", "frequency-grid-n-0",
         "frequency-grid-n-bool", "periodogram-2d-grid", "detector-g-float", "detector-n-float",
         "detector-n-string", "detector-sigma-bool", "detector-H-bool", "detector-sigma-bool-after-1",
         "for-horizon-K-0", "for-horizon-T-float", "for-horizon-n-string", "default-H-n-bool", "default-H-n-0",
         "failure-bound-n-float", "failure-bound-K-bool",
         "noise-bound-sigma-bool", "u-constants-n-float", "a-sup-j-float", "a-sup-j-bool-after-1"],
)
def test_malformed_spectral_input_rejected(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_noise_bound_homogeneous_in_sigma():
    assert noise_bound(50, 0.0, H50) == 0.0
    assert noise_bound(50, 0.8, H50) == pytest.approx(2 * noise_bound(50, 0.4, H50))


@pytest.mark.parametrize("ng,expected", CONSTANTS_TABLE.items())
def test_amplitude_condition_rows(ng, expected):
    sig_c, b_c = amplitude_condition_coefficients(threshold_constants(*ng, 1.0))
    assert sig_c == pytest.approx(expected[2], rel=5e-4)
    assert b_c == pytest.approx(expected[3], rel=5e-4)


def test_threshold_affine_in_sup():
    consts = threshold_constants(50, 8, sigma=0.2)
    ratio = consts.leakage_ratio
    t0 = threshold(consts, 1.0)
    t1 = threshold(consts, 2.0)
    assert t1 - t0 == pytest.approx(ratio)
    for bad in (-1.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match=f"^sup_mag must be finite and >= 0, got {bad}$"):
            threshold(consts, bad)


def test_threshold_zero_noise_zero_sup():
    consts = threshold_constants(50, 8, sigma=0.0)
    assert threshold(consts, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10**6), extra=st.integers(0, 1000))
@example(n=25, extra=0)  # g = 5, the smallest g with a U2 term: the largest pi U2 over n <= 5000
@example(n=2, extra=0)  # U1 = 0
def test_leakage_ratio_finite_for_every_valid_n_g(n, extra):
    # A_m <= 1/(pi m) and g^2 >= n give pi U2 <= (1 + log(g/4)) / (2g - 1) <=
    # 0.136, so 1 - pi U2 never reaches 0; U1 is 0 exactly when n <= 2g
    g = max(2, math.isqrt(n - 1) + 1) + extra
    c = ThresholdConstants(n, g, 0.1, None, None)
    assert math.pi * c.u2 <= 0.136
    assert 0 <= c.leakage_ratio < math.inf
    assert (c.leakage_ratio > 0) == (n > 2 * g)


def test_failure_probability_reference():
    # rows n = 100, 200, 500 of the reference table (K = 5)
    assert failure_probability_bound(100, 5, default_H(100)) == pytest.approx(1.679e-3, rel=5e-4)
    assert failure_probability_bound(200, 5, default_H(200)) == pytest.approx(1.756e-5, rel=5e-4)
    assert failure_probability_bound(500, 5, default_H(500)) == pytest.approx(1.533e-8, rel=5e-4)


def test_failure_probability_matches_decimal_formula():
    # the docstring's three-term sum evaluated in 40-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 40
        for n in (50, 100, 200, 500):
            dn, k = Decimal(n), Decimal(5)
            h2 = 1 + dn.ln()
            exact = (
                48 * k / dn ** (h2 - 1)
                + 200 * k / dn ** (Decimal("0.867") * h2 - 1)
                + 200 * k / dn ** (Decimal("0.694") * h2 - 1)
            )
            got = failure_probability_bound(n, 5, default_H(n))
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0), n


def test_failure_probability_single_arm_demo():
    # n=50, K=1: bound ~ 0.0167, i.e. success probability at least 0.983
    p = failure_probability_bound(50, 1, H50)
    assert p == pytest.approx(0.0167, abs=5e-4)
    assert 1 - p >= 0.983


def test_failure_probability_linear_in_k():
    assert failure_probability_bound(50, 5, H50) == pytest.approx(
        5 * failure_probability_bound(50, 1, H50)
    )


# ---------------------------------------------------------------------------
# DFT / periodogram
# ---------------------------------------------------------------------------

def test_dft_constant_at_zero():
    assert compute_periodogram([2.5] * 10, range(1, 11), [0.0]).magnitudes[0] == pytest.approx(2.5)


def test_dft_empty_errors():
    with pytest.raises(ValueError):
        compute_periodogram([], [], [0.1])


def test_dft_pure_tone_orthogonality():
    # tone b exp(2 pi i j t / T) sampled over full periods has |DFT| = |b| at j/T
    b, T, j, n = 1.7, 5, 2, 40
    t = np.arange(1, n + 1)
    tone = np.real(b * np.exp(2j * np.pi * j * t / T))  # real part: b/2 at j/T and (T-j)/T
    pg = compute_periodogram(tone, t, [j / T, 1 / T])
    assert pg.magnitudes[0] == pytest.approx(b / 2, abs=1e-9)
    assert pg.magnitudes[1] == pytest.approx(0.0, abs=1e-9)
    # cross-check against the explicit sum
    assert pg.magnitudes[0] == pytest.approx(abs(brute_dft(tone, t, j / T)), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    v=st.floats(0.0, 0.5),
)
def test_dft_conjugate_symmetry(seed, v):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=16)
    t = np.arange(1, 17)
    mags = compute_periodogram(y, t, [v, 1 - v]).magnitudes
    assert mags[0] == pytest.approx(mags[1], abs=1e-12)


def test_dft_shift_changes_phase_only():
    # a shift of the epochs multiplies every DFT value by a unit phase, so
    # the magnitudes are the same bits, on a grid with its own plan for the
    # call and on the cached detection grid
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    t = np.arange(1, 31)
    for grid in (frequency_grid(30), _detection_plan(30, 3).grid):
        base = compute_periodogram(y, t, grid)
        shifted = compute_periodogram(y, t + 137, grid)
        assert np.array_equal(base.magnitudes, shifted.magnitudes)


def test_estimate_periods_ignores_the_start_epoch():
    # the same n=500 samples of a period-4 profile read at epochs 1.. and at
    # epochs 12001.. give the same trace and threshold
    c = threshold_constants(500, None, 0.1)
    n, g, H = c.n, c.g, c.H
    t = np.arange(1, n + 1)
    y = np.array([0.9, 0.1, 0.5, 0.3])[t % 4] + np.random.default_rng(7).normal(0, 0.1, n)
    (a,), (b,) = (estimate_periods([(y, range(t0, t0 + n))], n, g, H, 0.1)[1] for t0 in (1, 12001))
    assert repr(a.trace) == repr(b.trace)
    assert a.threshold == b.threshold
    assert a.period_estimate == 4


def test_periodogram_rejects_non_finite_sample():
    samples = [0.5] * 40
    samples[17] = math.nan
    with pytest.raises(ValueError, match="non-finite sample nan at index 17"):
        compute_periodogram(samples, range(1, 41), frequency_grid(40))
    with pytest.raises(ValueError, match="index 17"):
        estimate_periods([(samples, range(1, 41))], 40, 7, default_H(40), 0.1)
    samples[17] = math.inf
    with pytest.raises(ValueError, match="non-finite sample inf at index 17"):
        compute_periodogram(samples, range(1, 41), [0.25])


def test_periodogram_of_any_sample_sequence_is_the_same():
    ints = [int(v) for v in np.random.default_rng(3).integers(-5, 6, 60)]
    grid = _detection_plan(60, 3).grid
    want = compute_periodogram(np.array(ints, dtype=float), range(1, 61), grid).magnitudes
    for samples in (ints, [float(v) for v in ints], tuple(float(v) for v in ints)):
        assert np.array_equal(compute_periodogram(samples, range(1, 61), grid).magnitudes, want)


def test_periodogram_rejects_gapped_epochs():
    epochs = list(range(1, 26)) + list(range(40, 65))
    samples = [1.0, 0.0] * 25
    with pytest.raises(ValueError, match="epoch 40 follows 25"):
        compute_periodogram(samples, epochs, frequency_grid(50))
    with pytest.raises(ValueError, match="consecutive"):
        estimate_periods([(samples, epochs)], 50, 8, H50, 0.2)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 300),
    start=st.integers(1, 10**5),
    t_max=st.integers(2, 10),
    other_n=st.integers(2, 300),
    seed=st.integers(0, 2**31),
)
def test_periodogram_matches_direct_sum(n, start, t_max, other_n, seed):
    # FFT bins (the mesh) and direct sums (candidates off the FFT lattice, or
    # a grid built for another n) both agree with the brute-force sum
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    t = np.arange(start, start + n)
    cands = _candidates(t_max)[0]
    own = frequency_grid(n, cands)
    foreign = frequency_grid(other_n + (other_n == n), cands)
    for grid in (own, foreign):
        pg = compute_periodogram(y, t, grid)
        cand_idx = np.flatnonzero(np.isin(grid, [float(c) for c in cands]))
        idx = np.union1d(cand_idx, rng.choice(grid.size, size=min(12, grid.size), replace=False))
        for i in idx:
            assert pg.magnitudes[i] == pytest.approx(abs(brute_dft(y, t, grid[i])), abs=1e-12)


def exact_mesh_dft(y, start):
    # the DFT at every mesh point k/(48n), k = 1, 3, .., 24n - 1, with each
    # phase k t mod 48n reduced in integers, so no round-off from the epochs
    n = y.size
    k = np.arange(1, 24 * n, 2, dtype=np.int64)
    t = np.arange(start, start + n, dtype=np.int64)
    return k, np.concatenate([
        np.exp(-2j * np.pi / (48 * n) * (ks[:, None] * t % (48 * n))) @ y / n
        for ks in np.array_split(k, max(1, k.size // 1024))
    ])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 700),
    start=st.integers(1, 10**5),
    t_max=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
@example(n=2, start=1, t_max=1, seed=0)
@example(n=3, start=99_999, t_max=2, seed=1)
@example(n=577, start=20_001, t_max=12, seed=2)
@example(n=81, start=3, t_max=3, seed=3)
@example(n=115, start=12_345, t_max=4, seed=4)
@example(n=499, start=501, t_max=10, seed=5)
def test_mesh_from_decimated_fft(n, start, t_max, seed):
    # the magnitude at every mesh point k = 48j + r, from the FFT rows
    # (r < 24) and from those rows read backwards (r > 24), against the exact
    # direct sum and against the zero-padded 48n-point real FFT, whose odd
    # bins are the mesh
    y = np.random.default_rng(seed).normal(size=n)
    grid = _detection_plan(n, t_max).grid
    epochs = range(start, start + n)
    pg = compute_periodogram(y, epochs, grid)
    assert np.array_equal(compute_periodogram(y, np.arange(start, start + n), grid).magnitudes, pg.magnitudes)
    k, exact = exact_mesh_dft(y, start)
    mesh = k / (48.0 * n)
    idx = np.searchsorted(grid, mesh)
    assert np.array_equal(grid[idx], mesh)
    assert np.max(np.abs(pg.magnitudes[idx] - np.abs(exact))) <= 1e-12
    padded = np.fft.rfft(y, 48 * n)[1:24 * n:2] / n
    assert np.max(np.abs(pg.magnitudes[idx] - np.abs(padded))) <= 1e-13


def test_frequency_grid_layout():
    cands = _candidates(4)[0]
    grid = frequency_grid(10, cands)
    mesh = (2 * np.arange(1, 121) - 1) / 480
    assert np.all(np.isin(mesh, grid))
    for c in cands:
        if c <= Fraction(1, 2):
            assert float(c) in grid
    assert grid[0] > 0 and grid[-1] <= 0.5
    assert np.all(np.diff(grid) > 0)
    # the float filter over the cached candidate values builds, bit for bit,
    # the grid that filtering the rationals with exact comparisons built
    for n in (1, 10, 50, 500):
        for t_max in (2, 4, 10, 30):
            cands = _candidates(t_max)[0]
            old = np.unique(np.concatenate([
                (2.0 * np.arange(1, 12 * n + 1) - 1.0) / (48.0 * n),
                np.asarray([float(c) for c in cands if 0 < c <= Fraction(1, 2)], dtype=float),
            ]))
            assert np.array_equal(frequency_grid(n, _candidates(t_max)[1]), old)
            assert np.array_equal(frequency_grid(n, cands), old)


@pytest.mark.parametrize("t_max", [0, 1, 2, 3, 5, 12, 30])
def test_frequency_grid_equals_sorted_unique(t_max):
    # the grid drops repeats with an adjacent-difference mask after a sort; it
    # is numpy's unique() of the same points, value for value and in dtype
    for n in (1, 2, 3, 7, 24, 28, 57, 115, 500, 577):
        points = np.concatenate([(2.0 * np.arange(1, 12 * n + 1) - 1.0) / (48.0 * n), _candidates(t_max)[1]])
        want = np.unique(points[(points > 0) & (points <= 0.5)])
        got = frequency_grid(n, _candidates(t_max)[1])
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_matches_fresh_plan(y, epochs, n, t_max):
    # estimate_periods (the cached plan) against a fresh grid and plan built
    # for this call alone
    c = threshold_constants(n, None, 0.3)
    g, H = c.g, c.H
    grid = frequency_grid(n, _candidates(t_max)[1])
    fresh = compute_periodogram(y, epochs, grid)
    ref = identify_frequencies(fresh, threshold_constants(n, g, 0.3, H, t_max))
    for _ in range(2):  # the second call reads the cached plan
        cached = compute_periodogram(y, epochs, _detection_plan(n, t_max).grid)
        assert np.array_equal(cached.grid, grid)
        assert np.array_equal(cached.magnitudes, fresh.magnitudes)
        periods, (est,) = estimate_periods([(y, epochs)], n, g, H, 0.3, t_max=t_max)
        assert periods == (ref.period_estimate,)
        assert est.threshold == ref.threshold
        assert repr(est.trace) == repr(ref.trace)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 600),
    t_max=st.integers(1, 12),
    start=st.integers(1, 10**5),
    period=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_cached_detection_plan_matches_fresh(n, t_max, start, period, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(start, start + n)
    y = rng.uniform(0, 1, period)[(t - 1) % period] + rng.normal(0, 0.3, n)
    _assert_matches_fresh_plan(y, t, n, t_max)


def test_detection_plan_is_per_n_and_t_max():
    # one n, one set of start epochs, t_max back and forth: a plan kept for
    # another t_max would give the wrong grid
    n = 200
    t = np.arange(1, 3 * n + 1)
    y = (t % 5 == 0) + np.random.default_rng(5).normal(0, 0.2, t.size)
    for t_max in (2, 6, 3, 6, 2):
        for k in range(3):
            _assert_matches_fresh_plan(y[k * n:(k + 1) * n], t[k * n:(k + 1) * n], n, t_max)


def test_detection_plan_arrays_are_read_only_and_bounded():
    plan = _detection_plan(50, 3)
    for a in (plan.grid, plan.gather, plan.pre, plan.basis, plan.match):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # any (n, t_max) may come in; the cache stays at its size
    y = np.random.default_rng(0).normal(size=50)
    for t_max in range(2, 2 * spectral._PLAN_SLOTS + 2):
        _detection_plan(30, t_max)
    assert len(spectral._plans) == spectral._PLAN_SLOTS
    # an evicted plan's grid, and a cached grid with a block of another n,
    # both get a plan for the call
    assert all(p is not plan for p in spectral._plans.values())
    for block, grid in ((y, plan.grid), (y[:40], _detection_plan(50, 3).grid)):
        epochs = range(7, 7 + block.size)
        got = compute_periodogram(block, epochs, grid).magnitudes
        assert np.array_equal(got, compute_periodogram(block, epochs, np.array(grid)).magnitudes)


def test_stage_one_detection_golden():
    # v_star, magnitude and threshold, bit for bit, over fixed stage-one
    # blocks: n=500 with the detect_n500 profiles, and the sweep's arms at
    # n=81 and n=115, plus blocks that start off the n k + 1 epochs
    detect_arms = tuple(MeanProfile.from_values([1.0] + [0.0] * (p - 1)) for p in (2, 3, 4))
    sweep_arms = default_sweep_instance().arms
    lines = []
    for n, g, t_max, arms, sigma, start in (
        (500, 23, 10, detect_arms, 0.3, None),
        (81, None, None, sweep_arms, 0.04, None),
        (115, None, None, sweep_arms, 0.04, None),
        (115, None, None, sweep_arms[2:], 0.04, 12345),
    ):
        c = threshold_constants(n, g, sigma, t_max=t_max)
        g, H, t_max = c.g, c.H, c.t_max
        for seed in (0, 1):
            eps = np.random.default_rng(seed).normal(0.0, sigma, n * len(arms))
            blocks = []
            for k, arm in enumerate(arms):
                t0 = n * k + 1 if start is None else start
                epochs = range(t0, t0 + n)
                samples = [arm.values[(t - 1) % arm.period] + float(eps[n * k + s]) for s, t in enumerate(epochs)]
                blocks.append((samples, epochs))
            for est in estimate_periods(blocks, n, g, H, sigma, t_max=t_max)[1]:
                lines.append(repr(est.threshold))
                lines += [f"{e['v_star']!r} {e['magnitude']!r}" for e in est.trace]
    assert len(lines) == 42
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bbc0fda3a0d7e677be690fdd48ce3cd6718403fa4072b931202890a04505ddbe"


# ---------------------------------------------------------------------------
# candidates & LCM
# ---------------------------------------------------------------------------

def test_candidate_frequencies_reduced_and_unique():
    cands, vals, rank = _candidates(6)
    assert len(cands) == len(set(cands))
    assert all(1 <= c.numerator < c.denominator <= 6 for c in cands)
    assert Fraction(1, 2) in cands and Fraction(5, 6) in cands
    assert sorted(cands) == list(cands)
    assert vals.tolist() == [float(c) for c in cands]
    # rank orders the candidates by (denominator, numerator), the matching tie-break
    assert sorted(cands, key=lambda c: (c.denominator, c.numerator)) == [cands[i] for i in np.argsort(rank)]


def test_threshold_constants_shared_per_argument_tuple():
    # one frozen detector per argument tuple; the cache keys on types, and
    # a call that raises leaves nothing behind
    c = threshold_constants(50, 8, 0.2)
    assert threshold_constants(50, 8, 0.2) is c
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.sigma = 0.3
    with pytest.raises(ValueError, match="n must be an integer of at least 2, got 50.0"):
        threshold_constants(50.0, 8, 0.2)
    for _ in range(2):
        with pytest.raises(ValueError, match="sigma must be a finite number, got nan"):
            threshold_constants(50, 8, math.nan)


def test_default_t_max():
    assert threshold_constants(50, 8, 0.1).t_max == 3
    assert threshold_constants(64, 8, 0.1).t_max == 3  # integral n/(2g) -> strictly below


@pytest.mark.parametrize("n", [2, 50, 500])
def test_detector_type_fills_its_own_defaults(n):
    assert ThresholdConstants(n, None, 0.2, None, None) == threshold_constants(n, None, 0.2)
    # fields in the order of threshold_constants' arguments: n, g, sigma, H, t_max
    assert ThresholdConstants(n, None, 0.2, 1.5, None) == threshold_constants(n, None, 0.2, 1.5)


@pytest.mark.parametrize("t_max", [2.5, True, -1])
def test_detector_rejects_t_max_that_is_not_a_count(t_max):
    # a t_max that is not a count would otherwise fail later, in range(), far from its cause
    with pytest.raises(ValueError, match=f"^t_max must be an integer of at least 0, got {t_max}$"):
        threshold_constants(50, 8, 0.1, None, t_max)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 8), data=st.data())
def test_for_horizon_resolution_rules(K, data):
    # the defaults stage one fills at a horizon, in exact integer arithmetic
    T = data.draw(st.integers(4 * K + 1, 10**6), label="T")
    d = spectral.ThresholdConstants.for_horizon(T, K, 0.1)
    n = math.isqrt(T // K)  # floor(sqrt(T/K))
    g = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    assert (d.n, d.g, d.t_max, d.sigma) == (n, g, -(-n // (2 * g)) - 1, 0.1)
    assert d.H == math.sqrt(1 + math.log(n))
    assert n * K < T
    # an explicit (n, g) fails exactly when g < 2 or g^2 < n, and an n that
    # fills the horizon fails too
    n = data.draw(st.integers(2, 400), label="n")
    g = data.draw(st.integers(-1, 25), label="g")
    T = n * K + data.draw(st.integers(1, 1000), label="T - nK")
    if g < 2:
        with pytest.raises(ValueError, match=f"^g must be an integer of at least 2, got {g}$"):
            spectral.ThresholdConstants.for_horizon(T, K, 0.1, n, g)
    elif g * g < n:
        with pytest.raises(ValueError, match=rf"^g={g} violates g >= max\(2, sqrt\(n\)\) for n={n}$"):
            spectral.ThresholdConstants.for_horizon(T, K, 0.1, n, g)
    else:
        d = spectral.ThresholdConstants.for_horizon(T, K, 0.1, n, g)
        assert (d.n, d.g) == (n, g)
    fills = rf"^stage one's n K = {n} \* {K} pulls would consume the whole horizon T={n * K}$"
    with pytest.raises(ValueError, match=fills):
        spectral.ThresholdConstants.for_horizon(n * K, K, 0.1, n)


def test_lcm_of_denominators():
    # a noise-free periodogram peaked at exactly the given rationals: the
    # period estimate is the LCM of their reduced denominators, 1 if none
    n, g, t_max = 400, 20, 9
    grid = frequency_grid(n, _candidates(t_max)[1])
    consts = threshold_constants(n, g, 0.0)

    def period(peaks):
        mags = np.zeros(grid.size)
        mags[[int(np.argmin(np.abs(grid - float(f)))) for f in peaks]] = 1.0
        est = identify_frequencies(spectral.Periodogram(n=n, grid=grid, magnitudes=mags), consts)
        assert est.identified == sorted(peaks)
        return est.period_estimate

    assert period([Fraction(1, 2), Fraction(1, 4)]) == 4
    assert period([]) == 1
    assert period([Fraction(2, 5), Fraction(1, 2)]) == 10


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def demo_noise_free_estimate(t_max=10):
    inst = make_demo_instance(50, 0.2)
    samples = means_matrix(inst)[0]
    periods, ests = estimate_periods([(samples, range(1, 51))], 50, 8, H50, 0.2, t_max=t_max)
    return periods, ests[0]


def test_demo_noise_free_identification():
    periods, est = demo_noise_free_estimate()
    assert periods == (4,)
    assert est.identified == [Fraction(1, 4), Fraction(1, 2)]
    assert est.threshold == pytest.approx(0.851925, abs=1e-5)


def test_constants_are_plain_floats():
    # numpy scalars would leak into every JSON writer and repr
    _, est = demo_noise_free_estimate()
    assert type(est.threshold) is float
    assert all(type(a_sup(j)) is float for j in range(1, 41))
    assert all(type(v) is float for v in (
        *u_constants(500, 23), *amplitude_condition_coefficients(threshold_constants(500, 23, 1.0))))


def test_identify_frequencies_rejects_periodogram_of_another_n():
    # the detector carries n, g and t_max: a block of another length would be
    # thresholded with another length's noise envelope
    pg = compute_periodogram([1.0] * 60, range(1, 61), frequency_grid(60, _candidates(3)[1]))
    with pytest.raises(ValueError, match="periodogram of 60 samples given to a detector for n=50"):
        identify_frequencies(pg, threshold_constants(50, 8, 0.5))


def test_constant_signal_identifies_nothing():
    consts = threshold_constants(50, 8, sigma=0.5)
    grid = frequency_grid(50, _candidates(3)[0])
    pg = compute_periodogram([1.0] * 50, range(1, 51), grid)
    est = identify_frequencies(pg, consts)
    assert est.identified == []
    assert est.period_estimate == 1


def test_period_estimate_is_lcm_of_identified_denominators():
    def estimate(*freqs):
        return FrequencyEstimate(identified=list(freqs), threshold=0.0, trace=[])

    assert estimate().period_estimate == 1
    assert estimate(Fraction(1, 2)).period_estimate == 2
    assert estimate(Fraction(1, 6), Fraction(1, 4), Fraction(1, 2)).period_estimate == 12


def test_two_tone_arms_noise_free():
    t3 = np.arange(1, 401)
    arm_a = 0.5 + 0.4 * np.cos(2 * np.pi * t3 / 3)
    arm_b = 0.5 + 0.4 * np.cos(2 * np.pi * t3 / 5)
    periods, _ = estimate_periods(
        [(arm_a, t3), (arm_b, t3 + 400)], 400, 20, default_H(400), 0.0
    )
    assert periods == (3, 5)


def test_all_zero_signals():
    periods, _ = estimate_periods(
        [([0.0] * 100, range(1, 101)), ([0.0] * 100, range(101, 201))],
        100, 10, default_H(100), 0.3,
    )
    assert periods == (1, 1)


def test_block_length_mismatch():
    with pytest.raises(ValueError):
        estimate_periods([([0.0] * 9, range(1, 10))], 10, 4, 2.0, 0.1)


def test_identified_frequencies_in_half_open_interval():
    _, est = demo_noise_free_estimate()
    for f in est.identified:
        assert Fraction(0) < f <= Fraction(1, 2)


def test_trace_exclusions_separate_identified():
    # later identified frequencies never fall in an earlier excluded interval
    _, est = demo_noise_free_estimate()
    g_over_n = 8 / 50
    seen = []
    for entry in est.trace:
        v = float(entry["matched"])
        for lo, hi in seen:
            assert not (lo < v < hi)
        seen.append((v - g_over_n, v + g_over_n))
    vals = [float(f) for f in est.identified]
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            assert abs(a - b) >= g_over_n - 1e-12


def test_noisy_demo_success_rate_small():
    # 100 replications at sigma = 0.2: period 4 recovered essentially always
    inst = make_demo_instance(50, 0.2)
    hits = 0
    for rep in range(100):
        samples = means_matrix(inst)[0] + inst.noise_stream(rep).values
        periods, _ = estimate_periods([(samples, range(1, 51))], 50, 8, H50, 0.2, t_max=10)
        hits += periods[0] == 4
    assert hits >= 98


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), mult=st.integers(2, 8))
def test_noise_free_orthogonality(seed, mult):
    # full-period sampling: |DFT| equals the coefficient magnitude at every
    # harmonic and vanishes at absent multiples of 1/T (except v = 0)
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 8))
    vals = rng.uniform(0, 1, T)
    n = T * mult
    t = np.arange(1, n + 1)
    samples = vals[(t - 1) % T]
    coeffs = np.exp(-2j * np.pi * np.outer(np.arange(T), np.arange(1, T + 1)) / T) @ vals / T
    js = range(1, T // 2 + 1)
    mags = compute_periodogram(samples, t, [j / T for j in js]).magnitudes
    for j, got in zip(js, mags):
        assert got == pytest.approx(abs(coeffs[j]), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 400),
    sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    det_sigma=st.sampled_from([0.0, 0.02, 0.2]),
    period=st.integers(1, 12),
    ties=st.booleans(),
    reorder=st.booleans(),
    seed=st.integers(0, 2**31),
)
@example(n=400, sigma=0.0, det_sigma=0.0, period=10, ties=True, reorder=True, seed=0)
def test_peak_search_equals_dense_reference(n, sigma, det_sigma, period, ties, reorder, seed):
    # the search over the points above the threshold picks, matches and
    # excises as a mask-and-argmax pass over the whole grid does: with ties
    # (rounded samples and magnitudes) and on an unsorted grid with repeats
    rng = np.random.default_rng(seed)
    det = threshold_constants(n, None, det_sigma)
    t = np.arange(1, n + 1)
    y = rng.uniform(0, 1, period)[(t - 1) % period] + rng.normal(0, sigma, n)
    if ties:
        y = np.round(y, 1)
    pg = compute_periodogram(y, range(1, n + 1), _detection_plan(n, det.t_max).grid)
    grid, mags = pg.grid, pg.magnitudes
    if ties:
        mags = np.round(mags, 3)
    if reorder:
        take = rng.permutation(np.concatenate([np.arange(grid.size), rng.integers(0, grid.size, grid.size // 4)]))
        grid, mags = grid[take], mags[take]
    pg = spectral.Periodogram(n=n, grid=grid, magnitudes=mags)
    got, want = identify_frequencies(pg, det), dense_identify_frequencies(pg, det)
    assert got.identified == want.identified
    assert got.period_estimate == want.period_estimate
    assert got.threshold == want.threshold
    assert repr(got.trace) == repr(want.trace)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 600), t_max=st.integers(2, 12))
def test_detection_plan_match_table_equals_per_point_rule(n, t_max):
    cands = _candidates(t_max)[0]
    plan = _detection_plan(n, t_max)
    assert [cands[i] for i in plan.match.tolist()] == [nearest_candidate(v, t_max) for v in plan.grid.tolist()]


@settings(max_examples=100, deadline=None)
@given(v=st.floats(allow_nan=False), t_max=st.integers(2, 12))
@example(v=math.inf, t_max=10)
@example(v=1e300, t_max=10)
@example(v=-2.0**60, t_max=3)
def test_nearest_candidates_equals_per_point_rule(v, t_max):
    # past the candidates' span rounding ties many candidates; the rule still
    # takes the smallest (denominator, numerator) of all of them
    assert _candidates(t_max)[0][spectral._nearest_candidates(np.array([v]), t_max)[0]] == nearest_candidate(v, t_max)


def _assert_matched_by_fallback(pg, det):
    # identify_frequencies matches this grid's peaks by the per-point rule, and
    # not from a plan's table
    with mock.patch.object(spectral, "_nearest_candidates", wraps=spectral._nearest_candidates) as fallback:
        got = identify_frequencies(pg, det)
    assert fallback.call_count == 1
    assert got.trace and all(e["matched"] == nearest_candidate(e["v_star"], det.t_max) for e in got.trace)
    want = dense_identify_frequencies(pg, det)
    assert (got.identified, got.period_estimate, repr(got.trace)) == (
        want.identified, want.period_estimate, repr(want.trace))
    return got


def test_foreign_grid_with_exact_midpoints_is_matched_by_the_rule():
    # every midpoint between adjacent candidates is a peak (g/n is below half
    # their spacing); four of them are float ties, which go to the smaller
    # (denominator, numerator), and inf ties every candidate
    n, t_max = 10_000, 6
    vals = _candidates(t_max)[1]
    mids = (vals[1:] + vals[:-1]) / 2
    ties = np.abs(vals[1:] - mids) == np.abs(vals[:-1] - mids)
    assert ties.sum() == 4
    grid = np.random.default_rng(1).permutation(np.concatenate([mids, [0.3, 0.7, math.inf, 1e300]]))
    mags = np.linspace(1.0, 0.5, grid.size)
    det = threshold_constants(n, None, 0.0, None, t_max)
    got = _assert_matched_by_fallback(spectral.Periodogram(n, grid, mags), det)
    assert len(got.trace) == grid.size
    assert Fraction(1, 4) in [e["matched"] for e in got.trace if e["v_star"] == (0.2 + 0.25) / 2]


def test_cached_grid_with_a_detector_of_another_t_max_is_matched_by_the_rule():
    n = 120
    t = np.arange(1, n + 1)
    y = (t % 5 == 0) + (t % 3 == 0) + np.random.default_rng(2).normal(0, 0.05, n)
    grid = _detection_plan(n, 6).grid
    pg = compute_periodogram(y, range(1, n + 1), grid)
    _detection_plan(n, 4)  # cached, so only its grid's identity sends it to the table
    _assert_matched_by_fallback(pg, threshold_constants(n, None, 0.05, None, 4))
    # the plan's own t_max reads the table
    with mock.patch.object(spectral, "_nearest_candidates", side_effect=AssertionError("matched per point")):
        got = identify_frequencies(pg, threshold_constants(n, None, 0.05, None, 6))
    want = dense_identify_frequencies(pg, threshold_constants(n, None, 0.05, None, 6))
    assert repr(got.trace) == repr(want.trace) and got.trace


def test_tiny_sample_size_degrades_to_stationary():
    # n too small for any representable period: empty candidate set, period 1
    periods, ests = estimate_periods(
        [([0.9, 0.1] * 9, range(1, 19))], 18, 5, default_H(18), 0.1
    )
    assert periods == (1,)
    assert ests[0].identified == []
