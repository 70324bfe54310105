"""Periodic bandit environments: mean profiles, noise, sampling, pseudo-regret.

An instance holds K arms, each with a mean-reward profile that repeats with an
integer period, plus a zero-mean sub-Gaussian noise model. The mean of arm k at
epoch t (1-based) is ``arms[k].values[(t - 1) % period]``. Noise draws are
keyed by (seed, epoch) only, never by the arm pulled, so two policies facing
the same instance and seed observe identical noise at every epoch regardless
of which arms they choose. ``resolve_instance`` builds every config instance
spec, a named one through its ``PRESETS`` entry.
"""
from __future__ import annotations

import cmath
import functools
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .spectral import ThresholdConstants, _checked_int, _checked_number, amplitude_condition_coefficients

IMAG_TOL = 1e-9   # max imaginary residue tolerated when evaluating Fourier profiles
COEF_TOL = 1e-12  # below this a Fourier coefficient counts as absent


def _checked_list(key: str, value) -> list | tuple:
    """``value`` checked to be a list or tuple, not a number, string or dict; ``key`` names it."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _check_minimal_period(values: Sequence[float]) -> None:
    period = len(values)
    for d in range(1, period):
        if period % d != 0:
            continue
        if all(values[p] == values[p % d] for p in range(period)):
            raise ValueError(
                f"profile of declared period {period} repeats with proper divisor {d}"
            )


@dataclass(frozen=True)
class MeanProfile:
    """One arm's periodic mean-reward sequence.

    ``values`` holds one full cycle of finite numbers, kept as floats; the
    mean at epoch t (1-based) is ``values[(t - 1) % period]``. The declared
    period must be an integer of at least 1 and minimal: no proper divisor of
    it may also tile the cycle.
    """

    period: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _checked_int("period", self.period)
        if len(self.values) != self.period:
            raise ValueError("values must contain exactly `period` entries")
        values = tuple(_checked_number(f"profile value at index {i}", v) for i, v in enumerate(self.values))
        object.__setattr__(self, "values", values)
        _check_minimal_period(self.values)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "MeanProfile":
        vals = tuple(values)
        return cls(period=len(vals), values=vals)

    @classmethod
    def from_fourier(cls, coefficients: Sequence[complex]) -> "MeanProfile":
        """Build a tabular profile from complex harmonic coefficients.

        ``coefficients[j]`` multiplies exp(2*pi*i*j*t/T). Coefficient 0 must be
        real and coefficient j must equal the conjugate of coefficient T-j, so
        the evaluated means are real; an imaginary residue above 1e-9 is an
        error.
        """
        coeffs = [complex(c) for c in coefficients]
        T = len(coeffs)
        if T < 1:
            raise ValueError("need at least one coefficient")
        if abs(coeffs[0].imag) > IMAG_TOL:
            raise ValueError("constant coefficient must be real")
        for j in range(1, T):
            if abs(coeffs[j] - coeffs[T - j].conjugate()) > IMAG_TOL:
                raise ValueError(
                    f"coefficients {j} and {T - j} are not complex conjugates"
                )
        vals = []
        for t in range(1, T + 1):
            z = sum(c * cmath.exp(2j * math.pi * j * t / T) for j, c in enumerate(coeffs))
            if abs(z.imag) > IMAG_TOL:
                raise ValueError(f"imaginary residue {z.imag:.3g} above tolerance at t={t}")
            vals.append(z.real)
        return cls(period=T, values=tuple(vals))

    def fourier_coefficients(self) -> np.ndarray:
        """Harmonic coefficients b_j with values[t - 1] = sum_j b_j exp(2*pi*i*j*t/T)."""
        T = self.period
        t = np.arange(1, T + 1)
        j = np.arange(T)
        basis = np.exp(-2j * np.pi * np.outer(j, t) / T)
        return basis @ np.asarray(self.values) / T


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean noise with a declared sub-Gaussian parameter sigma.

    ``gaussian`` draws N(0, sigma^2); ``uniform-bounded`` draws U[-sigma, sigma],
    for which sigma itself is a valid sub-Gaussian parameter.
    """

    kind: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform-bounded"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "sigma", _checked_number("sigma", self.sigma))
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size)
        return rng.uniform(-self.sigma, self.sigma, size)


@dataclass(frozen=True)
class BanditInstance:
    """Immutable K-armed instance: per-arm profiles, one noise model, a horizon."""

    arms: tuple[MeanProfile, ...]
    noise: NoiseModel
    horizon: int

    def __post_init__(self) -> None:
        if len(self.arms) < 1:
            raise ValueError("need at least one arm")
        _checked_int("horizon", self.horizon)

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(p.period for p in self.arms)

    def noise_stream(self, seed: int) -> "NoiseStream":
        return NoiseStream(self.noise, seed, self.horizon)


class NoiseStream:
    """Deterministic per-replication noise over the instance's horizon.

    The whole horizon is drawn up front from the seed, so ``values[t - 1]``,
    the draw at epoch t, is a pure function of (seed, epoch), and two streams
    of one seed are bit-identical.
    """

    def __init__(self, model: NoiseModel, seed: int, horizon: int):
        self.values: np.ndarray = model.draw(np.random.default_rng(seed), horizon)


@dataclass
class RunResult:
    """One episode's actions and its cumulative pseudo-regret."""

    actions: np.ndarray
    cumulative_regret: np.ndarray
    estimated_periods: tuple[int, ...] | None = None
    events: list = field(default_factory=list)

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])


def pseudo_regret(instance: BanditInstance, actions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch gaps and their prefix sums for an action sequence of length T.

    gap_t = max_k mu_{k,t} - mu_{actions[t],t}; gaps are nonnegative and the
    cumulative series is nondecreasing. The gaps repeat every lcm(periods)
    epochs, so one cycle of them, capped at T, is read at t mod that length.
    """
    T = instance.horizon
    acts = np.asarray(actions)
    if acts.dtype.kind not in "iu":
        raise ValueError(f"actions must be integers, got dtype {acts.dtype}")
    if acts.shape != (T,):
        raise ValueError(f"actions must have length {T}, got {acts.shape}")
    if acts.min() < 0 or acts.max() >= instance.n_arms:
        raise IndexError("action index out of range")
    L = min(math.lcm(*instance.periods), T)
    cycle = np.arange(L)
    means = np.array([np.asarray(p.values)[cycle % p.period] for p in instance.arms], dtype=float)
    gaps = (means.max(axis=0) - means)[acts, np.arange(T) % L]
    return gaps, np.cumsum(gaps)


# ---------------------------------------------------------------------------
# Named instance constructors
# ---------------------------------------------------------------------------

def make_demo_instance(n: int = 50, sigma: float = 0.2) -> BanditInstance:
    """Single-arm period-4 demo: mu_t = 3 + 3 sin(pi t / 2) + 3 cos(pi t).

    Spectral content: magnitude 3 at frequency 0, 1.5 at 1/4, 3 at 1/2. The
    means intentionally leave [0, 1]; the validity report flags that rather
    than rejecting the instance.
    """
    if _checked_int("n", n) < 4:
        raise ValueError("need n >= 4 for one full cycle")
    vals = tuple(3 + 3 * math.sin(0.5 * math.pi * t) + 3 * math.cos(math.pi * t) for t in (1, 2, 3, 4))
    profile = MeanProfile(period=4, values=vals)
    return BanditInstance(arms=(profile,), noise=NoiseModel("gaussian", sigma), horizon=n)


# each family's params besides T, delta_gap, sign and sigma; any other is rejected
LOWER_BOUND_PARAMS = {"e1": (), "e2": ("T1",), "e3": ("periods", "perturbation")}


def make_lower_bound_instance(
    family: str, T: int, delta_gap: float | None = None, sign: int = +1, sigma: float = 1.0, **params
) -> BanditInstance:
    """Hard instances used in lower-bound style experiments.

    Each is a first arm with periods[0] phases, the gap on phase 1 only
    (0.5 + sign * gap, sign +1 or -1, then 0.5), and one arm per later period:
    e1: periods (1, 1), two stationary arms; ``delta_gap`` defaults to
        sqrt(1/(2T)).
    e2: periods (T1, 1), ``T1`` an integer of at least 2 (default 2).
    e3: ``periods`` as given, K >= 2 integers of at least 1; each arm k >= 2
        whose period is at least 2 gets +perturbation/sqrt(2K) added to its
        phase-1 mean, and is stationary at 0.5 otherwise.
    """
    _checked_int("T", T)
    if family not in LOWER_BOUND_PARAMS:
        raise ValueError(f"unknown family {family!r}; expected e1, e2 or e3")
    _checked_keys(f"{family} params", params, ("T", "delta_gap", "sign", "sigma") + LOWER_BOUND_PARAMS[family])
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    gap = math.sqrt(1.0 / (2.0 * T)) if delta_gap is None else _checked_number("delta_gap", delta_gap)
    if family == "e1":
        periods = [1, 1]
    elif family == "e2":
        periods = [_checked_int("T1", params.get("T1", 2), least=2), 1]
    else:
        periods = [_checked_int("e3 period", Tk) for Tk in _checked_list("e3 periods", params.get("periods", ()))]
        if len(periods) < 2:
            raise ValueError("e3 needs the full period list, of at least two arms")
    bump = _checked_number("perturbation", params.get("perturbation", 0.0)) / math.sqrt(2 * len(periods))
    if not 0 < gap < 0.5:
        raise ValueError("gap must lie in (0, 0.5)")
    if not 0 <= 0.5 + bump <= 1:
        raise ValueError("perturbation pushes means outside [0, 1]")
    arms = [MeanProfile.from_values([0.5 + sign * gap] + [0.5] * (periods[0] - 1))]
    for Tk in periods[1:]:
        # a zero perturbation leaves the arm stationary, as in e1 and e2
        arms.append(MeanProfile.from_values([0.5 + bump] + [0.5] * (Tk - 1) if Tk >= 2 and bump else [0.5]))
    return BanditInstance(tuple(arms), NoiseModel("gaussian", sigma), T)


def default_sweep_instance(horizon: int = 40000, sigma: float = 0.04) -> BanditInstance:
    """Three arms with periods (2, 3, 4) and a phase-dependent best arm.

    Every arm carries a strong fundamental, detectable at the recommended
    stage-one sample sizes of the larger horizons, and cross-arm margins a few
    multiples of sigma at most phases.
    """
    arms = (
        MeanProfile.from_values([0.36, 0.04]),
        MeanProfile.from_values([0.04, 0.36, 0.08]),
        MeanProfile.from_values([0.40, 0.24, 0.0, 0.16]),
    )
    return BanditInstance(arms=arms, noise=NoiseModel("gaussian", sigma), horizon=horizon)


# each preset's constructor, taking the preset's params, and the param that sets its horizon
PRESETS = {
    "demo": (make_demo_instance, "n"),
    "sweep_default": (default_sweep_instance, "horizon"),
    **{family: (functools.partial(make_lower_bound_instance, family), "T") for family in LOWER_BOUND_PARAMS},
}


def validity_report(instance: BanditInstance, detector: ThresholdConstants | None = None) -> dict:
    """Non-fatal checks against the modeling assumptions.

    Always reports the [0, 1] mean-range check, K >= 2 and T >= 4K. Given
    stage one's detector, also reports which periods violate T_k < n / (2 g)
    and evaluates, at the detector's sigma, the minimum-amplitude condition
    for reliable frequency detection per arm. Every value is a plain Python
    bool, int or float, so the report serialises with ``json.dumps``.
    """
    report: dict = {
        "means_in_unit_interval": [
            all(0.0 <= v <= 1.0 for v in prof.values) for prof in instance.arms
        ],
        "k_at_least_2": instance.n_arms >= 2,
        "horizon_at_least_4k": instance.horizon >= 4 * instance.n_arms,
        "periods": list(instance.periods),
    }
    report["all_means_in_unit_interval"] = all(report["means_in_unit_interval"])
    if detector is not None:
        bound = report["period_bound"] = detector.n / (2 * detector.g)
        report["period_within_bound"] = [p.period < bound for p in instance.arms]
        sig_c, b_c = amplitude_condition_coefficients(detector)
        checks = []
        for prof in instance.arms:
            # the weakest and strongest nonzero coefficient magnitudes, 0s if flat
            mags = np.abs(prof.fourier_coefficients())
            nonzero = mags[mags > COEF_TOL]
            weakest, strongest = (float(nonzero.min()), float(nonzero.max())) if nonzero.size else (0.0, 0.0)
            required = sig_c * detector.sigma + b_c * strongest
            checks.append(
                {
                    "weakest": weakest,
                    "strongest": strongest,
                    "required": required,
                    "satisfied": weakest >= required if strongest > 0 else True,
                }
            )
        report["amplitude_condition"] = checks
    return report


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------

def _checked_keys(what: str, spec, keys: tuple[str, ...]) -> dict:
    """A config dict ``spec`` checked to hold no key outside ``keys``, so a
    misspelt key fails rather than being ignored; ``what`` names it in errors."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a dict, got {spec!r}")
    unknown = [k for k in spec if k not in keys]
    if unknown:
        expected = f"one of {', '.join(keys)}" if keys else "none"
        raise ValueError(f"{what} has unknown key {unknown[0]!r}; expected {expected}")
    return spec


def instance_from_dict(spec: dict) -> BanditInstance:
    """Instance from {arms: [{period, values}|{period, fourier}], noise, horizon}."""
    arms = []
    _checked_keys("instance", spec, ("arms", "noise", "horizon"))
    for a, arm in enumerate(_checked_list("arms", spec["arms"])):
        period = _checked_keys("arm", arm, ("period", "values", "fourier"))["period"]
        if "values" in arm:
            values = _checked_list(f"arm {a}: values", arm["values"])
        elif "fourier" in arm:
            coeffs = []
            for i, pair in enumerate(_checked_list(f"arm {a}: fourier", arm["fourier"])):
                key = f"arm {a}: fourier coefficient {pair!r} at index {i}"
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(f"{key} is not a number pair")
                coeffs.append(complex(*(_checked_number(key, x) for x in pair)))
            if len(coeffs) != period:
                raise ValueError(f"arm {a}: fourier coefficient count must equal period")
            values = MeanProfile.from_fourier(coeffs).values
        else:
            raise ValueError(f"arm {a} needs either 'values' or 'fourier'")
        arms.append(MeanProfile(period=period, values=values))
    noise = _checked_keys("noise", spec.get("noise", {}), ("kind", "sigma"))
    return BanditInstance(arms=tuple(arms), noise=NoiseModel(**noise), horizon=spec["horizon"])


def load_instance(path: str) -> BanditInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def resolve_instance(spec: dict | BanditInstance, horizon: int | None = None) -> BanditInstance:
    """A config's instance spec, {"file"}, {"preset", "params"} or an inline
    definition, or a built instance, at ``horizon`` if given; a key outside
    its form is an error. A preset's horizon param (``PRESETS``) is filled
    from ``horizon`` if given, and must then be absent from its params;
    otherwise the param or the constructor's default applies."""
    if isinstance(spec, BanditInstance):
        inst = spec
    elif isinstance(spec, dict) and "file" in spec:
        inst = load_instance(_checked_keys("instance", spec, ("file",))["file"])
    elif isinstance(spec, dict) and "preset" in spec:
        name = _checked_keys("instance", spec, ("preset", "params"))["preset"]
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}")
        make, key = PRESETS[name]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"preset {name!r} params must be a dict, got {params!r}")
        params = dict(params)
        given = (key in params) + (horizon is not None)  # how many of the two set the horizon
        if given == 2 or given == 0 and inspect.signature(make).parameters[key].default is inspect.Parameter.empty:
            raise ValueError(f"preset {name!r} reads the horizon: give either horizons or a {key} param")
        inst = make(**params, **({} if horizon is None else {key: horizon}))
    else:
        inst = instance_from_dict(spec)
    if horizon is not None and inst.horizon != horizon:
        inst = BanditInstance(arms=inst.arms, noise=inst.noise, horizon=horizon)
    return inst
