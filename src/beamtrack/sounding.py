"""Observation maps built from sounding beams, and noisy measurements.

Sounding a channel ``H`` with transmit beams ``F`` (columns) and receive
beams ``Z`` yields the matrix ``Z^H H F``; vectorizing turns that into the
linear operator ``G = F^T kron Z^H`` acting on ``vec(H)``.  Everything
downstream works with the stacked-real form, where receiver noise is i.i.d.
Gaussian with variance ``1 / (2 rho)`` per real component.

The run path never forms ``G``.  There are two measurement maps, one per
consumer.  The truth is measured densely as ``Z^H H F`` by
``noiseless_measurement``, to which ``observe`` adds the noise.  The filter's
map from states to measurements works on the rank-L steering factors of
``H = a_R diag(g) a_T^H``: ``(Z^H a_R) diag(g) (F^H a_T)^H``, an N_R x L by
L x N_T product per state, formed state by state so that a state's row does
not depend on the batch around it (see ``observation_map``).  ``G`` and its
stacked-real form are built on demand for cross-checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, steering_factors
from .errors import (
    DimensionMismatch,
    EmptyBeamSet,
    NonpositiveSnr,
    NotUnitNorm,
)
from .numerics import complex_to_real_stacked, unvec, vec


@dataclass(frozen=True)
class SoundingPlan:
    """Validated beam sets of one sounding.

    Attributes:
        F: Transmit beams, one unit-norm column per sounding direction.
        Z: Receive beams, one unit-norm column per sounding direction.
    """

    F: np.ndarray
    Z: np.ndarray

    @property
    def G(self) -> np.ndarray:
        """Complex observation operator F.T kron Z.conj().T, formed densely."""
        return np.kron(self.F.T, self.Z.conj().T)

    @property
    def G_real(self) -> np.ndarray:
        """Stacked-real form of G, acting on [Re vec H; Im vec H]."""
        return complex_to_real_stacked(self.G)


@dataclass(frozen=True)
class Observation:
    """One stacked-real measurement and the linear SNR it was taken at."""

    y_real: np.ndarray
    snr_rho: float


def _checked_beams(B: np.ndarray, name: str) -> np.ndarray:
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d beam matrix, got ndim={B.ndim}")
    if B.shape[1] == 0:
        raise EmptyBeamSet(f"{name} has no beams")
    norms = np.linalg.norm(B, axis=0)
    err = np.max(np.abs(norms - 1.0))
    if err <= 1e-6:
        return B
    if err <= 1e-3:
        warnings.warn(
            f"renormalizing {name}: worst column norm off by {err:.2e}",
            stacklevel=3,
        )
        return B / norms
    raise NotUnitNorm(f"{name} columns must be unit norm; worst deviation {err:.2e}")


def build_plan(F: np.ndarray, Z: np.ndarray) -> SoundingPlan:
    """Validates the beam sets of a sounding.

    Args:
        F: M_T x N_T transmit beams.
        Z: M_R x N_R receive beams.

    Returns:
        SoundingPlan holding unit-norm F and Z.
    """
    return SoundingPlan(F=_checked_beams(F, "F"), Z=_checked_beams(Z, "Z"))


def observation_map(plan: SoundingPlan, L: int, tx: ArrayGeometry, rx: ArrayGeometry):
    """Batched map from (P, 6L) states to their noiseless stacked-real measurements.

    Row p of the result is ``G h_p`` for the stacked-real channel ``h_p`` of
    state p, computed from the steering factors as
    ``vec((Z^H a_R) diag(g) (F^H a_T)^H)``; neither the channel nor G is formed.
    """
    if (tx.num_antennas, rx.num_antennas) != (plan.F.shape[0], plan.Z.shape[0]):
        raise DimensionMismatch(
            f"arrays of {tx.num_antennas} x {rx.num_antennas} antennas do not fit "
            f"beams of length {plan.F.shape[0]} x {plan.Z.shape[0]}"
        )
    F_h, Z_h = plan.F.conj().T, plan.Z.conj().T

    def measure(X: np.ndarray) -> np.ndarray:
        gains, a_t, a_r = steering_factors(X, L, tx, rx)
        # Y_p^T = conj(F^H a_T) diag(g) (Z^H a_R)^T is N_T x N_R, so its
        # row-major flattening is the column-major vec of Y_p.  Conjugating
        # the N_T x L product touches fewer entries than the M_T x L factor.
        tx_side = (F_h @ a_t).conj() * gains[:, None, :]
        Y_t = tx_side @ np.swapaxes(Z_h @ a_r, 1, 2)
        y = Y_t.reshape(Y_t.shape[0], -1)
        return np.concatenate([y.real, y.imag], axis=1)

    return measure


def observe(
    plan: SoundingPlan,
    h_real: np.ndarray,
    rho: float,
    rng: np.random.Generator,
) -> Observation:
    """Measures a stacked-real channel vector through the plan's beams.

    Args:
        plan: Sounding plan whose beams take the measurement vec(Z^H H F).
        h_real: Stacked-real channel vector [Re vec H; Im vec H].
        rho: Linear SNR; each real noise component has variance 1/(2 rho).
        rng: Noise source.

    Returns:
        Observation with y = vec(Z^H H F), stacked real, plus noise.
    """
    if rho <= 0.0:
        raise NonpositiveSnr(f"snr must be positive, got {rho}")
    y = noiseless_measurement(plan, h_real)
    y = y + rng.standard_normal(y.shape[0]) / np.sqrt(2.0 * rho)
    return Observation(y_real=y, snr_rho=rho)


def noiseless_measurement(plan: SoundingPlan, h_real: np.ndarray) -> np.ndarray:
    """The stacked-real measurement ``G h`` of a stacked-real channel, without noise.

    Computed densely as ``vec(Z^H H F)``, stacked real, from the channel
    matrix H that ``h_real`` = [Re vec H; Im vec H] holds.
    """
    h_real = np.asarray(h_real, dtype=float)
    M_R, M_T = plan.Z.shape[0], plan.F.shape[0]
    n = M_R * M_T
    if h_real.shape != (2 * n,):
        raise DimensionMismatch(
            f"channel vector has shape {h_real.shape}, expected ({2 * n},)"
        )
    H = unvec(h_real[:n] + 1j * h_real[n:], M_R, M_T)
    y = vec(plan.Z.conj().T @ H @ plan.F)
    return np.concatenate([y.real, y.imag])
