"""Bandits with unknown periodic mean rewards.

Spectral period estimation from a short exploration block, then nested
confidence-bound learning over (arm, phase) effective arms, plus baselines and
a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .env import (
    BanditInstance,
    MeanProfile,
    NoiseModel,
    NoiseStream,
    RunResult,
    default_sweep_instance,
    instance_from_dict,
    load_instance,
    make_demo_instance,
    make_lower_bound_instance,
    pseudo_regret,
    resolve_instance,
    validity_report,
)
from .spectral import (
    FrequencyEstimate,
    Periodogram,
    ThresholdConstants,
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
from .policies import (
    InstanceView,
    LcmUCB,
    NestedCBState,
    OraclePolicy,
    PerPhaseUCB,
    Policy,
    SequentialEliminationPolicy,
    StationaryUCB,
    TwoStagePolicy,
    elimination_schedule,
    make_policy,
    nested_cb_decide,
    recommended_parameters,
)
from .harness import (
    AggregateStats,
    loglog_slope,
    monte_carlo,
    report_from_dir,
    run_episode,
)
