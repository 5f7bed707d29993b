"""Unscented Kalman filter over the interleaved gain/angle state.

The filter alternates a linear predict step (the dynamics are exactly linear)
with an unscented measurement update: sigma points drawn from the prior are
pushed through the nonlinear state-to-measurement map, and the resulting
sample statistics stand in for the Jacobians an extended filter would need.
Both process and measurement noise enter additively, so no state augmentation
is required.

One period of the loop calls ``predict``, then ``simulate.sound``, the one
sounding step.  That calls ``sigma_points`` and ``channel_statistics`` on the
prior (beam design consumes the prior's channel moments before the beams,
and so the measurement map, exist), and finally ``update`` with the same
prior sigma points, so the covariance root is computed once per period.  The
measurement noise comes from the observation's own SNR.

The sigma moments are kept factored (``ChannelStats``), and both consumers
of the prior's sigma points solve against them with one kernel,
``push_through_solve``: beam design (``beams``) for its pencil, on the
moments of ``channel_statistics``, and each partial step of the update for
its gain, on the same moments of a batched state-to-measurement map
(``sounding.observation_map`` on the run path).  Neither forms a matrix of
the channel's or the measurement's dimension.

The transform is the scaled one, at a spread eta up to about sqrt(2), where
the weight of its mean-shift term (``_beta``) is still nonnegative; a larger
eta, or a sigma set drawn at parameters other than the update's, is refused
(``BadScaling``).  All linear algebra here is numpy's, so one BLAS library
serves the loop.  Each partial step of the update factors its posterior
once: the Cholesky factor of ``(n + lambda) R`` checks it and roots the
next step's sigma points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, ChannelState, real_channel_vectors
from .dynamics import TransitionPair, advance_covariance
from .errors import BadScaling, DimensionMismatch, IndefiniteCovariance, IndefiniteMatrix
from .numerics import matrix_sqrt_psd
from .sounding import Observation

# The prior-distribution parameter of the scaled unscented transform, which
# enters only the zeroth covariance weight (2 is optimal for a Gaussian prior).
MU = 2.0


@dataclass(frozen=True)
class UkfParams:
    """Sigma-point scaling parameters.

    Attributes:
        eta: Spread of the sigma points around the mean, at most about
            sqrt(2): ``sigma_points`` and ``update`` refuse one whose
            mean-shift weight beta is negative (``_sigma_scale``).
    """

    eta: float = 1e-3

    def lam(self, dim: int) -> float:
        return self.eta**2 * dim - dim


@dataclass(frozen=True)
class TrackerState:
    """Filter mean and covariance."""

    x_hat: ChannelState
    R: np.ndarray


@dataclass(frozen=True)
class SigmaSet:
    """Symmetric sigma points (rows) and the parameters they were drawn at."""

    points: np.ndarray
    params: UkfParams

    @property
    def w_mean(self) -> np.ndarray:
        return _sigma_weights(self.points.shape[1], self.params)[0]

    @property
    def w_cov(self) -> np.ndarray:
        return _sigma_weights(self.points.shape[1], self.params)[1]


@dataclass(frozen=True)
class ChannelStats:
    """Sigma moments of a channel or a measurement, kept factored.

    The moments are the mean ``h_hat``, the covariance ``Pi = E^T E`` and
    the state cross-covariance ``R_xh = T^T E``, for ``E`` of shape k x m
    and ``T`` of shape k x n: the moments of a joint Gaussian, whose
    cross-covariance lies in the range of Pi.  Both solves take their
    moments in this form (``push_through_solve``).  Dense moments enter
    through a root, ``E`` with ``E^T E = Pi`` and ``T`` solving
    ``E^T T = R_xh^T``; a state weighting W, as in A = R_xh^T W^-1 R_xh, is
    the column scaling ``T / sqrt(W)``.

    From the images ``zeta`` of 2n+1 sigma points, with ``Z = zeta[1:] -
    zeta[0]``, the points' differences ``dX`` from the centre point, the
    outer weights ``w``, ``m = w Z`` and ``s = w dX``, the factors are

        ``E = [sqrt(w) Z; sqrt(beta) m]``, ``T = [sqrt(w) (dX - s); 0]``,

    where ``beta >= 0`` is the weight of the mean-shift term (``_beta``).
    These are exactly the sigma-weighted moments, ``h_hat = zeta[0] + m``
    and the deviations of the state taken from the centre point (``s`` is
    zero for a symmetric set, up to the rounding of its points).  No
    negative weight multiplies a deviation, so the large negative centre
    weight of a small eta costs no digits.

    Attributes:
        h_hat: Predicted (weighted mean) channel or measurement.
        E: Weighted image factor, k x m; (2n+1) x m from sigma points.
        T: Weighted state factor, k x n; its last row is zero from sigma
            points.
    """

    h_hat: np.ndarray
    E: np.ndarray
    T: np.ndarray

    @property
    def Pi(self) -> np.ndarray:
        """Sigma covariance of the channel, formed densely."""
        return self.E.T @ self.E

    @property
    def R_xh(self) -> np.ndarray:
        """State-to-channel cross-covariance, formed densely."""
        return self.T.T @ self.E


def sigma_points(x_hat: np.ndarray, R: np.ndarray, params: UkfParams) -> SigmaSet:
    """Builds the symmetric sigma-point set for a Gaussian (x_hat, R).

    Args:
        x_hat: Mean vector, length n.
        R: Covariance, n x n symmetric PSD.
        params: Scaling parameters (``_sigma_scale``).

    Returns:
        SigmaSet of 2n+1 points whose weighted moments reproduce (x_hat, R).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    scale = _sigma_scale(x_hat.shape[0], params)
    try:
        root = matrix_sqrt_psd(scale * np.asarray(R, dtype=float))
    except IndefiniteMatrix as exc:
        raise IndefiniteCovariance(str(exc)) from exc
    return SigmaSet(points=_sigma_points(x_hat, root), params=params)


def _sigma_scale(n: int, params: UkfParams) -> float:
    """The factor n + lambda by which the sigma root scales the covariance.

    Raises:
        BadScaling: ``n + lambda <= 0``, or ``params`` give the mean-shift
            term a negative weight, as ``_beta`` sums it (eta above about
            sqrt(2)).
    """
    scale = n + params.lam(n)
    if scale <= 0.0:
        raise BadScaling(f"need dim + lambda > 0, got {scale}")
    beta = _beta(_sigma_weights(n, params)[1])
    if beta < 0.0:
        raise BadScaling(f"need beta >= 0, got {beta} at eta {params.eta}")
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
    """Pushes sigma points through a batched channel map and factors the moments.

    ``channel_fn`` maps the (2n+1, n) points to their stacked-real channels,
    one row each (``make_channel_fn``).  Beam design consumes the result;
    ``update`` builds the same factors from its measurement map.
    """
    w_cov = sigma.w_cov
    zeta = np.asarray(channel_fn(sigma.points), dtype=float)
    return _sigma_moments(zeta, sigma.points, w_cov[1:], _beta(w_cov))


def _sigma_moments(zeta, points, w, beta: float) -> ChannelStats:
    """The factored moments of the images ``zeta`` of the sigma ``points``.

    ``zeta`` holds one image per point, ``w`` the outer weights, equal for
    mean and covariance, and ``beta`` the weight of the mean-shift term
    (``_beta``), nonnegative.
    """
    if zeta.shape[0] != points.shape[0]:
        raise DimensionMismatch(
            f"map returned {zeta.shape[0]} rows for {points.shape[0]} sigma points"
        )
    Z = zeta[1:] - zeta[0]
    m = w @ Z
    root_w = np.sqrt(w)[:, None]
    E = np.empty((points.shape[0], zeta.shape[1]))
    np.multiply(root_w, Z, out=E[:-1])
    np.multiply(math.sqrt(beta), m, out=E[-1])
    dX = points[1:] - points[0]
    T = np.zeros(points.shape)
    np.multiply(root_w, dX - w @ dX, out=T[:-1])
    return ChannelStats(h_hat=zeta[0] + m, E=E, T=T)


def _beta(w_cov) -> float:
    """Sum of the covariance weights less two, the weight of the mean-shift term.

    Summed exactly: at small eta the centre weight is about -1/eta^2, so a
    rounded sum would be off by about 1/eta^2 ulps, and the mean-shift term
    carries most of the covariance there.
    """
    return math.fsum(w_cov) - 2.0


def push_through_solve(stats: ChannelStats, c: float, error=None):
    """Solves the moments' covariance plus noise in the factors' subspace.

    For the moments' covariance ``E^T E`` (``E`` of shape k x p) and the
    noise level ``c``, ``B = c I + E^T E`` is p-square, but the
    push-through identity ``B E^T = E^T K`` with ``K = c I + G`` and
    ``G = E E^T`` gives ``B^-1 E^T = E^T K^-1``.  So for the
    cross-covariance ``T^T E`` (``T`` of shape k x r)

        ``B^-1 E^T T = E^T Y`` and ``T^T E B^-1 E^T T = T^T G Y``,

    with ``Y = K^-1 T``: one k-square solve.  The second is the reduction of
    the state covariance by a measurement of the whole factored vector at
    noise variance ``c``, and the Gram matrix of the beam pencil.  ``h_hat``
    does not enter.

    K is positive definite for any ``c > 0`` in exact arithmetic; at c zero,
    or tiny beside G, it can be singular to working precision, and with
    ``error`` given ``det K > 0`` is required.

    Returns:
        ``(Y, T^T G Y)``.

    Raises:
        error: ``error`` is given and ``det K <= 0``.
    """
    E, T = stats.E, stats.T
    K = E @ E.T  # G, until c joins its diagonal
    GT = K @ T
    K.flat[:: K.shape[0] + 1] += c
    if error is not None and np.linalg.slogdet(K)[0] <= 0.0:
        raise error("noise plus factored covariance is not positive definite")
    Y = np.linalg.solve(K, T)
    return Y, GT.T @ Y


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


def partial_noise_variances(rho: float, steps: int) -> np.ndarray:
    """Noise variance of each of ``update``'s partial steps at SNR rho; step 0's is largest.

    Raises:
        BadScaling: ``steps < 1``, or a variance is not finite: rho is too
            low for step 0's share of the information, or ``2**steps``
            overflows (from 1024 steps).
    """
    if steps < 1:
        raise BadScaling(f"need at least one update step, got {steps}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fractions = 2.0 ** np.arange(steps) / (np.float64(2.0) ** steps - 1.0)
        variances = 1.0 / (2.0 * rho * fractions)
    if not np.all(np.isfinite(variances)):
        raise BadScaling(
            f"{steps} update steps at SNR {rho} give a noise variance that is not finite"
        )
    return variances


def information_ratio(R: np.ndarray, reduction: np.ndarray) -> float:
    """The most a measurement adds to a prior's information, as a multiple of it.

    For the prior covariance R and a measurement that reduces it by C
    (posterior R - C), this is ``lambda_max(R, R - C) - 1``: along the
    direction the measurement informs most, the information it adds over
    the prior's own.  With ``R = L L^T`` and mu the largest eigenvalue of
    ``L^-1 C L^-T`` it is ``mu / (1 - mu)``, and infinite where mu reaches
    one or R has no Cholesky factor.
    """
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return math.inf
    W = np.linalg.solve(L, np.linalg.solve(L, reduction).T)
    mu = float(np.linalg.eigvalsh((W + W.T) / 2.0)[-1])
    return mu / (1.0 - mu) if mu < 1.0 else math.inf


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
    one, and the remaining steps can no longer move the estimate.  The
    closed loop sets N per sounding (``simulate.update_steps``): as many
    steps as keep the first one's information a small share of the prior's
    along the positions, so a long ladder for a wide prior and a short one
    once the paths are held.

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
            they serve the first step.  They must be drawn at ``params``.
        steps: Number of partial updates; 1 is the single-pass update.

    Returns:
        Posterior TrackerState with conditioned covariance.

    Raises:
        BadScaling: ``partial_noise_variances`` refuses ``steps`` at the
            observation's SNR, ``params`` are out of range
            (``_sigma_scale``), or ``sigma`` was drawn at other parameters.
    """
    variances = partial_noise_variances(y.snr_rho, steps)
    x, R = prior.x_hat.x, prior.R
    n = x.shape[0]
    scale = _sigma_scale(n, params)
    w_cov = _sigma_weights(n, params)[1]
    if sigma is None:
        sigma = sigma_points(x, R, params)
    elif sigma.params != params:
        raise BadScaling(f"sigma set drawn at {sigma.params}, update at {params}")
    points = sigma.points
    w = w_cov[1:]
    beta = _beta(w_cov)
    for step, c in enumerate(variances):
        if step > 0:
            points = _sigma_points(x, root)
        dx, dR = _partial_step(points, measure, y, w, beta, c)
        x = x + dx
        R, root = _condition_covariance(R - dR, scale)
    return TrackerState(x_hat=ChannelState(prior.x_hat.L, x), R=R)


def _partial_step(points, measure, y: Observation, w, beta: float, c: float):
    """Mean and covariance increments of one unscented update at noise variance c.

    The images ``zeta`` of the points give their moments as a
    ``ChannelStats`` in measurement space, built as ``channel_statistics``
    builds them: the predicted measurement ``h_hat = zeta[0] + m``, the
    innovation covariance ``S = c I + E^T E``, at least ``c I``, and the
    cross-covariance ``T^T E``.  With ``Y = K^-1 T`` from
    ``push_through_solve``, the gain gives ``dx = T^T E S^-1 nu = Y^T E nu``
    and ``dR = T^T G Y``; S itself, 2*N_T*N_R square, is never formed.
    """
    zeta = np.asarray(measure(points), dtype=float)
    if zeta.shape[1:] != y.y_real.shape:
        raise DimensionMismatch(
            f"measurement map produced length {zeta.shape[1]}, "
            f"observation has {y.y_real.shape[0]}"
        )
    stats = _sigma_moments(zeta, points, w, beta)
    Y, dR = push_through_solve(stats, c)
    return Y.T @ (stats.E @ (y.y_real - stats.h_hat)), dR
