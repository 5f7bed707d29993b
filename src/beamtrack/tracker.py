"""Unscented Kalman filter over the interleaved gain/angle state.

The filter alternates a linear predict step (the dynamics are exactly linear)
with an unscented measurement update: sigma points drawn from the prior are
pushed through the nonlinear state-to-measurement map, and the resulting
sample statistics stand in for the Jacobians an extended filter would need.
Both process and measurement noise enter additively, so no state augmentation
is required.

One period of the loop calls ``predict``, then ``sigma_points`` and
``channel_statistics`` on the prior (beam design consumes the prior's channel
moments before the beams, and so the measurement map, exist), and finally
``update`` with the same prior sigma points, so the covariance root is
computed once per period.  The measurement noise comes from the observation's
own SNR.

The channel covariance is kept factored.  With 2n+1 sigma points and their
deviations ``D`` from the mean channel (one row per point), the covariance is
``Pi = D^T diag(w_cov) D``: rank at most 2n+1 in a channel space of
2*M_R*M_T real dimensions.  Beam design solves its pencil in the span of
``D^T`` (see ``beams``), so the dense covariance is never formed on the run
path; ``ChannelStats.Pi`` builds it on demand for other callers.
The update never sees the channel at all: it takes a batched state-to-
measurement map (``sounding.observation_map`` on the run path) and works
with the sigma points' differences from the centre point.  Each partial step
solves one (2n+1)-square system; the 2*N_T*N_R-square innovation covariance
is never formed, and no negative weight multiplies a deviation.
All linear algebra here is numpy's, so one BLAS library serves the loop.
Each partial step of the update factors its posterior once: the Cholesky
factor of ``(n + lambda) R`` checks it and roots the next step's sigma points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, ChannelState, real_channel_vectors
from .dynamics import TransitionPair, advance_covariance
from .errors import (
    BadScaling,
    DimensionMismatch,
    IndefiniteCovariance,
    IndefiniteMatrix,
    SingularInnovation,
)
from .numerics import matrix_sqrt_psd
from .sounding import Observation

# Fixed constants of the scaled unscented transform: the secondary scaling
# kappa, which enters lambda = eta^2 (n + kappa) - n, and the prior-
# distribution parameter mu, which enters only the zeroth covariance weight
# (2 is optimal for a Gaussian prior).
KAPPA = 0.0
MU = 2.0


@dataclass(frozen=True)
class UkfParams:
    """Sigma-point scaling parameters.

    Attributes:
        eta: Spread of the sigma points around the mean.
    """

    eta: float = 1e-3

    def lam(self, dim: int) -> float:
        return self.eta**2 * (dim + KAPPA) - dim


@dataclass(frozen=True)
class TrackerState:
    """Filter mean and covariance."""

    x_hat: ChannelState
    R: np.ndarray


@dataclass(frozen=True)
class SigmaSet:
    """Symmetric sigma points (rows) with their mean and covariance weights."""

    points: np.ndarray
    w_mean: np.ndarray
    w_cov: np.ndarray


@dataclass(frozen=True)
class ChannelStats:
    """Sigma-transform moments of the stacked-real channel, for beam design.

    Attributes:
        h_hat: Weighted mean of the transformed points.
        D: Deviations of the transformed points from h_hat, one row per
            sigma point; the covariance is ``D^T diag(w_cov) D``.
        w_cov: Covariance weights of the sigma points.
        R_xh: Cross-covariance between state and transformed points.
    """

    h_hat: np.ndarray
    D: np.ndarray
    w_cov: np.ndarray
    R_xh: np.ndarray

    @property
    def Pi(self) -> np.ndarray:
        """Weighted covariance of the transformed points, formed densely."""
        Pi = (self.D * self.w_cov[:, None]).T @ self.D
        return (Pi + Pi.T) / 2.0


def sigma_points(x_hat: np.ndarray, R: np.ndarray, params: UkfParams) -> SigmaSet:
    """Builds the symmetric sigma-point set for a Gaussian (x_hat, R).

    Args:
        x_hat: Mean vector, length n.
        R: Covariance, n x n symmetric PSD.
        params: Scaling parameters; requires n + lambda > 0.

    Returns:
        SigmaSet of 2n+1 points whose weighted moments reproduce (x_hat, R).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    scale = _sigma_scale(x_hat.shape[0], params)
    try:
        root = matrix_sqrt_psd(scale * np.asarray(R, dtype=float))
    except IndefiniteMatrix as exc:
        raise IndefiniteCovariance(str(exc)) from exc
    w_mean, w_cov = _sigma_weights(x_hat.shape[0], params)
    return SigmaSet(points=_sigma_points(x_hat, root), w_mean=w_mean, w_cov=w_cov)


def _sigma_scale(n: int, params: UkfParams) -> float:
    """The factor n + lambda by which the sigma root scales the covariance."""
    scale = n + params.lam(n)
    if scale <= 0.0:
        raise BadScaling(f"need dim + lambda > 0, got {scale}")
    return scale


def _sigma_weights(n: int, params: UkfParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance weights of the 2n+1 symmetric sigma points."""
    lam = params.lam(n)
    scale = n + lam
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    w_mean[0] = lam / scale
    w_cov = w_mean.copy()
    w_cov[0] += 1.0 - params.eta**2 + MU
    return w_mean, w_cov


def _sigma_points(x_hat: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Sigma points ``x_hat`` +/- the columns of ``root``, a root of (n + lambda) R."""
    n = x_hat.shape[0]
    points = np.empty((2 * n + 1, n))
    points[0] = x_hat
    points[1 : n + 1] = x_hat + root.T
    points[n + 1 :] = x_hat - root.T
    return points


def make_channel_fn(L: int, tx: ArrayGeometry, rx: ArrayGeometry):
    """Returns a batched state->stacked-real-channel map for the given arrays."""

    def channel_fn(X: np.ndarray) -> np.ndarray:
        return real_channel_vectors(X, L, tx, rx)

    return channel_fn


def channel_statistics(sigma: SigmaSet, channel_fn) -> ChannelStats:
    """Pushes sigma points through a batched channel map and collects moments.

    ``channel_fn`` maps the (2n+1, n) points to their stacked-real channels,
    one row each (``make_channel_fn``).  Beam design consumes the result;
    ``update`` does not call this.
    """
    zeta = np.asarray(channel_fn(sigma.points), dtype=float)
    if zeta.shape[0] != sigma.points.shape[0]:
        raise DimensionMismatch(
            f"channel map returned {zeta.shape[0]} rows for "
            f"{sigma.points.shape[0]} sigma points"
        )
    h_hat = sigma.w_mean @ zeta
    dz = zeta - h_hat
    dx = sigma.points - sigma.points[0]
    R_xh = (dx * sigma.w_cov[:, None]).T @ dz
    return ChannelStats(h_hat=h_hat, D=dz, w_cov=sigma.w_cov, R_xh=R_xh)


def _condition_covariance(R: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized posterior and a root of ``scale * R``; errors if indefinite.

    One Cholesky factorization is both the check and the root; a merely
    semidefinite R is clamped and rooted as ``sigma_points`` would root it.
    """
    R = (R + R.T) / 2.0
    try:
        return R, np.linalg.cholesky(scale * R)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(R)
    tol = 1e-9 * max(1.0, np.linalg.norm(R))
    if w[0] < -tol:
        raise IndefiniteCovariance(
            f"posterior covariance has eigenvalue {w[0]:.3e} below -{tol:.1e}"
        )
    w = np.where(w < 0.0, 1e-12, w)
    R = (V * w) @ V.T
    return R, matrix_sqrt_psd(scale * R)


def predict(ts: TrackerState, tp: TransitionPair) -> TrackerState:
    """Propagates the estimate one step forward, producing the next prior."""
    if ts.x_hat.x.shape[0] != tp.A.shape[0]:
        raise DimensionMismatch(
            f"state length {ts.x_hat.x.shape[0]} does not match "
            f"transition dimension {tp.A.shape[0]}"
        )
    x_new = tp.A @ ts.x_hat.x
    R_new = advance_covariance(ts.R, tp)
    return TrackerState(x_hat=ChannelState(ts.x_hat.L, x_new), R=R_new)


def update(
    prior: TrackerState,
    measure,
    y: Observation,
    params: UkfParams,
    sigma: SigmaSet | None = None,
    steps: int = 1,
) -> TrackerState:
    """Applies one unscented measurement update, optionally in partial steps.

    With ``steps = N > 1`` this is a recursive update (after Zanetti,
    "Recursive Update Filtering for Nonlinear Estimation", IEEE TAC 2012, in
    its measurement-splitting form).  The same measurement is applied N
    times.  Step i (counting from 0) carries the fraction
    ``2**i / (2**N - 1)`` of its information, i.e. noise variance
    ``1 / (2 rho fraction)`` at the observation's SNR rho.  The sigma
    statistics are recomputed at every partial posterior.  The fractions sum
    to one, so on a linear map the result equals the Kalman update exactly.
    On the nonlinear map the first steps add far less information than the
    prior holds, so the estimate moves while the sigma points still span the
    prior, and each later step doubles the information and relinearizes
    closer in.  Equal fractions do not do this: 1/N of one sounding already
    shrinks a prior position spread of several beamwidths to a fraction of
    one, and the remaining steps can no longer move the estimate.

    Every step pushes its sigma points through ``measure`` and solves one
    (2n+1)-square system (see ``_partial_step``); the innovation covariance
    in the observation space is never formed.  The posterior is factored
    once per step; that factor roots the next step's sigma points.

    Args:
        prior: Predicted state before seeing the measurement.
        measure: Batched map from (P, n) states to their (P, len(y))
            noiseless stacked-real measurements.
        y: Stacked-real measurement and its linear SNR.
        params: Sigma-point scaling parameters.
        sigma: Sigma points of the prior, if already drawn for beam design;
            they serve the first step.  Their weights must be those
            ``sigma_points`` gives for ``params``.
        steps: Number of partial updates; 1 is the single-pass update.

    Returns:
        Posterior TrackerState with conditioned covariance.

    Raises:
        SingularInnovation: ``sigma`` has a negative outer weight, or the
            innovation covariance of a step is not positive definite.
        BadScaling: ``steps < 1``, or ``sigma``'s weights are not those of
            ``params``.
    """
    if steps < 1:
        raise BadScaling(f"need at least one update step, got {steps}")
    x, R = prior.x_hat.x, prior.R
    n = x.shape[0]
    scale = _sigma_scale(n, params)
    w_mean, w_cov = _sigma_weights(n, params)
    if sigma is None:
        sigma = sigma_points(x, R, params)
    elif np.any(sigma.w_cov[1:] < 0.0):
        raise SingularInnovation("sigma set has negative outer covariance weights")
    elif not (
        np.array_equal(sigma.w_mean, w_mean) and np.array_equal(sigma.w_cov, w_cov)
    ):
        raise BadScaling("sigma weights are not those of the filter's parameters")
    points = sigma.points
    w = w_cov[1:]
    beta = float(np.sum(w_cov)) - 2.0
    fractions = 2.0 ** np.arange(steps) / (2.0**steps - 1.0)
    for step, fraction in enumerate(fractions):
        if step > 0:
            points = _sigma_points(x, root)
        c = 1.0 / (2.0 * y.snr_rho * fraction)
        dx, dR = _partial_step(points, measure, y, w, beta, c)
        x = x + dx
        R, root = _condition_covariance(R - dR, scale)
    return TrackerState(x_hat=ChannelState(prior.x_hat.L, x), R=R)


def _partial_step(points, measure, y: Observation, w, beta: float, c: float):
    """Mean and covariance increments of one unscented update at noise variance c.

    With measurements ``zeta`` of the points, ``Z = zeta[1:] - zeta[0]`` and
    ``dX = points[1:] - points[0]``, the outer weights ``w`` and
    ``m = w Z``, the predicted measurement is ``zeta[0] + m`` and the sigma
    covariance is exactly ``Z^T diag(w) Z + beta m m^T`` (``beta`` is the sum
    of the covariance weights less two).  No negative weight multiplies a
    deviation, so a large negative centre weight costs no digits.  Stacking
    ``E = [sqrt(w) Z; sqrt|beta| m^T]`` and ``J = diag(1, ..., sign beta)``
    gives ``S = c I + E^T J E``, and the symmetric set (``sum w dX = 0``)
    gives the cross-covariance ``T = E^T v`` with ``v = [sqrt(w) dX; 0]``,
    so ``E T = G v`` with ``G = E E^T``.  The push-through identity
    ``E S^-1 = K^-1 E``, with ``K = c I + G J`` of order 2n+1, turns the
    gain into one solve: ``dx = v^T K^-1 E nu`` and ``dR = v^T K^-1 G v``.

    For ``beta >= 0`` S is at least ``c I``.  Otherwise S is positive
    definite less a rank-one term, so it is positive definite exactly when
    ``det K > 0``, which is checked.  With the filter's own weights the 2n
    outer weights sum to ``1 / eta^2`` and ``beta = 2 - eta^2``, so by
    Cauchy-Schwarz the rank-one term is at most ``1 - 2 / eta^2`` of the
    rest and S is at least ``c I`` there too; the check holds the step to
    its contract for any ``beta``.
    """
    zeta = np.asarray(measure(points), dtype=float)
    if zeta.shape[0] != points.shape[0]:
        raise DimensionMismatch(
            f"measurement map returned {zeta.shape[0]} rows for "
            f"{points.shape[0]} sigma points"
        )
    if zeta.shape[1:] != y.y_real.shape:
        raise DimensionMismatch(
            f"measurement map produced length {zeta.shape[1]}, "
            f"observation has {y.y_real.shape[0]}"
        )
    root_w = np.sqrt(w)[:, None]
    Z = zeta[1:] - zeta[0]
    m = w @ Z
    E = np.vstack([root_w * Z, np.sqrt(abs(beta)) * m])
    V = root_w * (points[1:] - points[0])
    G = E @ E.T
    K = G.copy()
    if beta < 0.0:
        K[:, -1] = -K[:, -1]
    K[np.diag_indices_from(K)] += c
    if beta < 0.0 and np.linalg.slogdet(K)[0] <= 0.0:
        raise SingularInnovation("innovation covariance is not positive definite")
    rhs = np.column_stack([E @ (y.y_real - zeta[0] - m), G[:, :-1] @ V])
    Y = np.linalg.solve(K, rhs)[:-1]
    return V.T @ Y[:, 0], V.T @ Y[:, 1:]
