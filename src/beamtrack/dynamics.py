"""State evolution: first-order Gauss-Markov gains plus constant-velocity angles.

The transition for a step of ``dt`` seconds acts on the fields of
``channel.StateLayout``.  Gains decay by ``beta_dt = beta ** (dt / T_S)`` and
receive fresh Gaussian innovation with variance ``(1 - beta_dt**2) / 2`` per
real component, which keeps every complex gain at unit mean power in steady
state.  Each position moves by dt times its velocity, and (position,
velocity) receive process noise ``(dt / T_S) * q_upsilon``, a random-walk
scaling that preserves the per-reference-step statistics no matter how
finely a step is subdivided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelState, StateLayout
from .errors import BadConfig, DimensionMismatch, NonpositiveStep


@dataclass(frozen=True)
class DynamicsModel:
    """Parameters of the state-evolution model.

    Attributes:
        L: Number of propagation paths.
        beta: Gain correlation over one reference step, in (0, 1].
        T_S: Reference step length in seconds.
        q_upsilon: Diagonal entries (position, velocity) of the per-pair
            process-noise covariance accumulated over one reference step.
    """

    L: int
    beta: float
    T_S: float
    q_upsilon: np.ndarray = field(
        default_factory=lambda: np.array([1e-4, 1e2])
    )

    def __post_init__(self):
        if self.L < 1:
            raise BadConfig(f"need at least one path, got L={self.L}")
        if not 0.0 < self.beta <= 1.0:
            raise BadConfig(f"beta must lie in (0, 1], got {self.beta}")
        if self.T_S <= 0.0:
            raise BadConfig(f"reference step must be positive, got {self.T_S}")
        q = np.asarray(self.q_upsilon, dtype=float)
        if q.shape != (2,):
            raise BadConfig(f"q_upsilon must have two entries, got shape {q.shape}")
        if np.any(q < 0.0):
            raise BadConfig("q_upsilon entries must be nonnegative")
        object.__setattr__(self, "q_upsilon", q)


@dataclass(frozen=True)
class TransitionPair:
    """Transition matrix and diagonal process-noise covariance for one step of dt seconds."""

    A: np.ndarray
    Q: np.ndarray


def build_transition(model: DynamicsModel, dt: float) -> TransitionPair:
    """Builds the (A, Q) pair for a step of ``dt`` seconds.

    Args:
        model: Dynamics parameters.
        dt: Step length in seconds, must be positive.

    Returns:
        TransitionPair whose A is block-diagonal over the gain block and the
        position/velocity pairs, and whose Q is diagonal.
    """
    if dt <= 0.0:
        raise NonpositiveStep(f"step must be positive, got {dt}")
    lay = StateLayout.of(model.L)
    ratio = dt / model.T_S
    beta_dt = model.beta ** ratio

    A = np.eye(lay.size)
    A[lay.gain, lay.gain] *= beta_dt
    np.fill_diagonal(A[lay.positions, lay.velocities], dt)

    q_diag = np.empty(lay.size)
    q_diag[lay.gain] = (1.0 - beta_dt**2) / 2.0
    q_diag[lay.positions] = ratio * model.q_upsilon[0]
    q_diag[lay.velocities] = ratio * model.q_upsilon[1]
    return TransitionPair(A=A, Q=np.diag(q_diag))


def advance_truth(
    x: ChannelState, tp: TransitionPair, rng: np.random.Generator
) -> ChannelState:
    """Advances a true state one step, adding process noise drawn from rng."""
    if x.x.shape[0] != tp.A.shape[0]:
        raise DimensionMismatch(
            f"state has length {x.x.shape[0]} but transition is {tp.A.shape[0]}-dimensional"
        )
    z = rng.standard_normal(tp.Q.shape[0])
    return ChannelState(x.L, tp.A @ x.x + np.sqrt(np.diagonal(tp.Q)) * z)


def predicted_mean(model: DynamicsModel, x: np.ndarray, horizon) -> np.ndarray:
    """Noise-free state ``horizon`` seconds after x, in closed form.

    Equals ``build_transition(model, h).A @ x`` for each horizon h: gains
    scaled by ``beta ** (h / T_S)``, each position moved by h times its
    velocity.  ``horizon`` may be a scalar or a 1-D array of nonnegative
    horizons (zero returns x itself); the result has shape
    ``horizon.shape + x.shape``.
    """
    h = np.asarray(horizon, dtype=float)
    if np.any(h < 0.0):
        raise NonpositiveStep(f"horizon must be nonnegative, got {horizon}")
    lay = StateLayout.of(model.L)
    h = h[..., None]
    out = np.array(np.broadcast_to(np.asarray(x, dtype=float), h.shape[:-1] + (lay.size,)))
    out[..., lay.gain] *= model.beta ** (h / model.T_S)
    out[..., lay.positions] += h * out[..., lay.velocities]
    return out


def advance_covariance(R: np.ndarray, tp: TransitionPair) -> np.ndarray:
    """Propagates a state covariance: A R A^T + Q, symmetrized."""
    R = np.asarray(R, dtype=float)
    if R.shape != tp.A.shape:
        raise DimensionMismatch(
            f"covariance shape {R.shape} does not match transition shape {tp.A.shape}"
        )
    out = tp.A @ R @ tp.A.T + tp.Q
    return (out + out.T) / 2.0
