"""Helpers shared by the test modules.

``means_matrix`` is the direct reference for the mean rewards that the package
reads one cycle at a time; ``load_default_sweep`` reads the checked-in default
sweep config, a fresh dict on every call, so a test may ``update`` it.
"""
import json
import os

import numpy as np

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


def load_default_sweep() -> dict:
    """The criterion-4 default sweep config, read from experiments/."""
    with open(DEFAULT_SWEEP_PATH) as fh:
        return json.load(fh)
