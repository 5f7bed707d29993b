"""Millimeter-wave MIMO channel tracking with adaptive sounding beams.

A sparse multipath channel is tracked through a handful of noisy beamformed
soundings per coherence period.  The state (complex path gains plus virtual
angular positions and velocities at both ends) evolves under a
Gauss-Markov / near-constant-velocity model; an unscented Kalman filter
consumes each sounding, and the next sounding's transmit/receive beams are
designed from the filter's own predictive statistics so that observation
effort lands where the posterior is least certain.

Layers, bottom up:

* :mod:`beamtrack.numerics` — PSD square roots, symmetric-definite
  generalized eigenproblems, Kronecker rearrangement/factorization.
* :mod:`beamtrack.channel` — array geometry, the state layout, steering
  vectors, channel matrices and their stacked-real form.
* :mod:`beamtrack.dynamics` — state-transition/process-noise pairs at any
  time step, truth advancement, mean/covariance propagation.
* :mod:`beamtrack.sounding` — beam-pair sounding plans, the observation
  map on the channel's steering factors, noisy observation synthesis.
* :mod:`beamtrack.tracker` — sigma points, unscented statistics, the
  predict/update cycle.
* :mod:`beamtrack.beams` — posterior-statistics-driven sounding-beam design
  with Kronecker factor recovery, plus non-adaptive baselines.
* :mod:`beamtrack.simulate` — Monte Carlo frames, metric arms, and the
  pooled per-arm summary of a batch.
* :mod:`beamtrack.cli` — `beamtrack simulate` / `beamtrack selftest`.
"""

from .beams import (
    BeamDesignOutput,
    baseline_beams,
    design_beams,
    kronecker_beams,
)
from .channel import (
    ArrayGeometry,
    ChannelState,
    angle_to_virtual,
    channel_matrix,
    real_channel_vector,
    steering_vector,
    virtual_to_spatial,
)
from .dynamics import (
    DynamicsModel,
    TransitionPair,
    advance_covariance,
    advance_truth,
    build_transition,
)
from .errors import BadConfig, BeamtrackError
from .numerics import (
    KroneckerFactorDims,
    generalized_eig_sym,
    kron_rearrange,
    matrix_sqrt_psd,
)
from .simulate import (
    RunRecord,
    ScenarioConfig,
    aggregate_runs,
    generate_scenario,
    run_frame,
    run_many,
    snr_loss_ratio,
    sound,
)
from .sounding import (
    Observation,
    SoundingPlan,
    build_plan,
    noiseless_measurement,
    observation_map,
    observe,
)
from .tracker import (
    ChannelStats,
    SigmaSet,
    TrackerState,
    UkfParams,
    channel_statistics,
    make_channel_fn,
    predict,
    sigma_points,
    update,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BadConfig",
    "BeamDesignOutput",
    "BeamtrackError",
    "ChannelState",
    "ChannelStats",
    "DynamicsModel",
    "KroneckerFactorDims",
    "Observation",
    "RunRecord",
    "ScenarioConfig",
    "SigmaSet",
    "SoundingPlan",
    "TrackerState",
    "TransitionPair",
    "UkfParams",
    "advance_covariance",
    "advance_truth",
    "aggregate_runs",
    "angle_to_virtual",
    "baseline_beams",
    "build_plan",
    "build_transition",
    "channel_matrix",
    "channel_statistics",
    "design_beams",
    "generalized_eig_sym",
    "generate_scenario",
    "kron_rearrange",
    "kronecker_beams",
    "make_channel_fn",
    "matrix_sqrt_psd",
    "noiseless_measurement",
    "observation_map",
    "observe",
    "predict",
    "real_channel_vector",
    "run_frame",
    "run_many",
    "sigma_points",
    "snr_loss_ratio",
    "sound",
    "steering_vector",
    "update",
    "virtual_to_spatial",
    "__version__",
]
