"""Helpers shared by the test modules.

``means_matrix`` is the direct reference for the mean rewards that the package
reads one cycle at a time; ``nearest_candidate`` is the direct reference for
the match that the package reads from its detection plan's table;
``dense_identify_frequencies`` is the direct reference for the peak search
that the package runs over the points above the threshold only;
``counts_at`` reads a stage-two cell's counts from its record;
``load_default_sweep`` reads the checked-in default sweep
config, a fresh dict on every call, so a test may ``update`` it.
"""
import json
import os
from fractions import Fraction

import numpy as np

from periodic_bandits.spectral import FrequencyEstimate, _candidates, threshold

DEFAULT_SWEEP_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                  "experiments", "default_sweep.json")


def means_matrix(inst) -> np.ndarray:
    """(K, T) matrix of ``inst``'s mean rewards over epochs 1..T."""
    T = inst.horizon
    out = np.empty((inst.n_arms, T))
    t = np.arange(1, T + 1)
    for k, prof in enumerate(inst.arms):
        out[k] = np.asarray(prof.values)[(t - 1) % prof.period]
    return out


def counts_at(state, s: int, arm: int, t: int) -> tuple[int, int]:
    """(reuse-block count, round-s count) of a ``NestedCBState`` at arm's
    phase of epoch t."""
    cell = state._rounds[s][arm][t % state.periods[arm]]
    return cell[3], cell[1]


def load_default_sweep() -> dict:
    """The criterion-4 default sweep config, read from experiments/."""
    with open(DEFAULT_SWEEP_PATH) as fh:
        return json.load(fh)


def nearest_candidate(v: float, t_max: int) -> Fraction:
    """The candidate of ``t_max`` nearest ``v`` by float distance, over every
    candidate; ties go to the smaller (denominator, numerator)."""
    cands, cand_vals, _ = _candidates(t_max)
    dists = np.abs(cand_vals - v)
    tied = [cands[i] for i in np.flatnonzero(dists == np.min(dists))]
    return min(tied, key=lambda c: (c.denominator, c.numerator))


def dense_identify_frequencies(periodogram, detector) -> FrequencyEstimate:
    """``identify_frequencies`` as a mask over the whole grid: each peak is
    ``np.argmax`` over the active points, and each excision clears the mask."""
    n, g, t_max = detector.n, detector.g, detector.t_max
    tau = threshold(detector, float(periodogram.magnitudes.max()))
    if t_max < 2:
        return FrequencyEstimate(identified=[], threshold=tau, trace=[])
    grid = periodogram.grid
    mags = periodogram.magnitudes
    active = (grid >= g / n) & (mags > tau)

    identified: list[Fraction] = []
    trace: list[dict] = []
    width = g / n
    while active.any():
        idx = int(np.argmax(np.where(active, mags, -np.inf)))
        v_star = float(grid[idx])
        v_hat = nearest_candidate(v_star, t_max)
        lo, hi = float(v_hat) - width, float(v_hat) + width
        active &= ~((grid > lo) & (grid < hi))
        active[idx] = False  # ensure progress even if the match is far away
        if v_hat not in identified:
            identified.append(v_hat)
        trace.append({"v_star": v_star, "matched": v_hat, "magnitude": float(mags[idx])})
    identified.sort()
    return FrequencyEstimate(identified=identified, threshold=tau, trace=trace)
