"""Tests for the unscented filter recursion."""

import math
import warnings

import numpy as np
import pytest

from beamtrack.channel import ArrayGeometry, ChannelState, channel_matrix
from beamtrack.dynamics import DynamicsModel, TransitionPair, build_transition
from beamtrack.beams import design_beams
from beamtrack.errors import (
    BadScaling,
    DimensionMismatch,
    IndefiniteCovariance,
)
from beamtrack.simulate import FILTER_PARAMS
from beamtrack.sounding import (
    Observation,
    build_plan,
    noiseless_measurement,
    observation_map,
    observe,
)
from beamtrack.tracker import (
    TrackerState,
    UkfParams,
    _sigma_weights,
    channel_statistics,
    make_channel_fn,
    partial_noise_variances,
    predict,
    sigma_points,
    update,
)

DFT2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_psd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T) / n


def kalman_update(x, R, H, y, noise_var):
    """Closed-form linear-Gaussian measurement update."""
    S = H @ R @ H.T + noise_var * np.eye(H.shape[0])
    K = np.linalg.solve(S.T, H @ R.T).T
    x_new = x + K @ (y - H @ x)
    R_new = R - K @ H @ R
    return x_new, (R_new + R_new.T) / 2.0


class TestSigmaPoints:
    def test_unit_eta_weights(self):
        s = sigma_points(np.zeros(6), np.eye(6), UkfParams(eta=1.0))
        assert s.w_mean[0] == 0.0
        np.testing.assert_allclose(s.w_mean[1:], 1.0 / 12.0)
        assert abs(np.sum(s.w_mean) - 1.0) < 1e-12

    def test_zero_covariance_collapses(self):
        x = np.arange(6.0)
        s = sigma_points(x, np.zeros((6, 6)), UkfParams())
        np.testing.assert_array_equal(s.points, np.tile(x, (13, 1)))

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(30)
        for eta in (1e-3, 0.5, 1.0):
            x = rng.standard_normal(12)
            R = random_psd(rng, 12)
            s = sigma_points(x, R, UkfParams(eta=eta))
            np.testing.assert_allclose(s.w_mean @ s.points, x, atol=1e-9)
            d = s.points - x
            cov = (d * s.w_cov[:, None]).T @ d
            np.testing.assert_allclose(cov, R, atol=1e-9)

    def test_symmetric_pairs(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(6)
        s = sigma_points(x, random_psd(rng, 6), UkfParams())
        np.testing.assert_allclose(
            s.points[1:7] + s.points[7:], np.tile(2.0 * x, (6, 1)), atol=1e-12
        )

    def test_rejects_bad_scaling(self):
        with pytest.raises(BadScaling):
            sigma_points(np.zeros(6), np.eye(6), UkfParams(eta=0.0))

    @pytest.mark.parametrize("n", [6, 24, 49])
    def test_eta_range_ends_where_the_summed_beta_turns_negative(self, n):
        # beta = MU - eta^2 vanishes at sqrt(2).  Over the floats about it,
        # sigma_points refuses exactly the etas whose summed weights give a
        # negative beta, and those are the upper ones; every set it draws
        # has finite factors and a finite covariance E^T E.
        A = np.random.default_rng(32).standard_normal((n, 3))
        eta = math.sqrt(2.0)
        for _ in range(8):
            eta = math.nextafter(eta, 0.0)
        accepted, refused = [], []
        for _ in range(16):
            params = UkfParams(eta=eta)
            beta = math.fsum(_sigma_weights(n, params)[1]) - 2.0
            try:
                sigma = sigma_points(np.zeros(n), np.eye(n), params)
            except BadScaling:
                assert beta < 0.0
                refused.append(eta)
            else:
                assert beta >= 0.0
                stats = channel_statistics(sigma, lambda X: np.sin(X @ A))
                assert np.all(np.isfinite(stats.E))
                assert np.all(np.isfinite(stats.Pi))
                accepted.append(eta)
            eta = math.nextafter(eta, 2.0)
        assert accepted and refused
        assert max(accepted) < min(refused)

    def test_rejects_indefinite_covariance(self):
        R = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        with pytest.raises(IndefiniteCovariance):
            sigma_points(np.zeros(6), R, UkfParams())


class TestPredict:
    def test_identity_noop(self):
        tp = TransitionPair(A=np.eye(6), Q=np.zeros((6, 6)))
        ts = TrackerState(ChannelState(1, np.arange(6.0)), np.eye(6))
        out = predict(ts, tp)
        np.testing.assert_array_equal(out.x_hat.x, ts.x_hat.x)
        np.testing.assert_array_equal(out.R, ts.R)

    def test_matches_transition_algebra(self):
        rng = np.random.default_rng(40)
        model = DynamicsModel(L=1, beta=0.9, T_S=1e-4)
        tp = build_transition(model, 1e-4)
        x = rng.standard_normal(6)
        R = random_psd(rng, 6)
        out = predict(TrackerState(ChannelState(1, x), R), tp)
        np.testing.assert_allclose(out.x_hat.x, tp.A @ x, atol=1e-14)
        np.testing.assert_allclose(out.R, tp.A @ R @ tp.A.T + tp.Q, atol=1e-14)

    def test_trace_grows_without_updates(self):
        model = DynamicsModel(L=1, beta=0.9, T_S=1e-4)
        tp = build_transition(model, 1e-4)
        ts = TrackerState(ChannelState(1, np.zeros(6)), np.zeros((6, 6)))
        traces = []
        for _ in range(5):
            ts = predict(ts, tp)
            traces.append(np.trace(ts.R))
        assert np.all(np.diff(traces) >= -1e-15)

    def test_dimension_check(self):
        tp = TransitionPair(A=np.eye(12), Q=np.zeros((12, 12)))
        with pytest.raises(DimensionMismatch):
            predict(TrackerState(ChannelState(1, np.zeros(6)), np.eye(6)), tp)


class TestUpdateLinearOracle:
    """With a linear state-to-channel map the UKF must equal the exact KF."""

    def setup_method(self):
        rng = np.random.default_rng(50)
        self.plan = build_plan(DFT2, DFT2)  # 8 stacked-real observations
        # Linear surrogate for the channel map, composed with the sounding.
        self.H = self.plan.G_real @ rng.standard_normal((8, 6))
        self.measure = lambda X: X @ self.H.T
        self.rho = 10.0

    def test_single_update_matches_kf(self):
        rng = np.random.default_rng(51)
        for eta in (1e-3, 1.0):
            x = rng.standard_normal(6)
            R = random_psd(rng, 6)
            y_vec = rng.standard_normal(8)
            obs = Observation(y_real=y_vec, snr_rho=self.rho)
            prior = TrackerState(ChannelState(1, x), R)
            post = update(prior, self.measure, obs, UkfParams(eta=eta))
            x_kf, R_kf = kalman_update(x, R, self.H, y_vec, 1.0 / (2.0 * self.rho))
            np.testing.assert_allclose(post.x_hat.x, x_kf, atol=1e-8)
            np.testing.assert_allclose(post.R, R_kf, atol=1e-8)

    def test_hundred_step_trajectory_matches_kf(self):
        rng = np.random.default_rng(52)
        model = DynamicsModel(L=1, beta=0.905, T_S=1e-4)
        tp = build_transition(model, 1e-4)
        H = self.H
        noise_var = 1.0 / (2.0 * self.rho)

        ts = TrackerState(ChannelState(1, np.zeros(6)), np.eye(6))
        x_kf, R_kf = np.zeros(6), np.eye(6)
        for _ in range(100):
            ts = predict(ts, tp)
            x_kf, R_kf = tp.A @ x_kf, tp.A @ R_kf @ tp.A.T + tp.Q
            y_vec = rng.standard_normal(8)
            obs = Observation(y_real=y_vec, snr_rho=self.rho)
            ts = update(ts, self.measure, obs, UkfParams())
            x_kf, R_kf = kalman_update(x_kf, R_kf, H, y_vec, noise_var)
            np.testing.assert_allclose(ts.x_hat.x, x_kf, atol=1e-8)
            np.testing.assert_allclose(ts.R, R_kf, atol=1e-8)


class TestRecursiveUpdate:
    """Partial-step updates: exact on linear maps, able to move on nonlinear ones."""

    def test_matches_kf_on_linear_map(self):
        rng = np.random.default_rng(53)
        plan = build_plan(DFT2, DFT2)
        M = rng.standard_normal((8, 6))
        H = plan.G_real @ M
        rho = 10.0
        for eta in (1e-3, 0.3):
            x = rng.standard_normal(6)
            R = random_psd(rng, 6)
            y_vec = rng.standard_normal(8)
            obs = Observation(y_real=y_vec, snr_rho=rho)
            post = update(TrackerState(ChannelState(1, x), R), lambda X: X @ H.T, obs,
                          UkfParams(eta=eta), steps=20)
            x_kf, R_kf = kalman_update(x, R, H, y_vec, 1.0 / (2.0 * rho))
            np.testing.assert_allclose(post.x_hat.x, x_kf, atol=1e-8)
            np.testing.assert_allclose(post.R, R_kf, atol=1e-8)

    def test_recovers_offset_prior_where_single_pass_locks(self):
        # One path at broadside; the transmit-side prior mean is 0.1 off in
        # virtual position (0.8 beamwidth of a 16-element array) with the
        # prior spread of the reference scenario and the simulator's sigma
        # spread.  The single pass ends many posterior sd from the truth;
        # the recursive update ends within a few sd, and close in absolute
        # terms.
        geom = ArrayGeometry(16)
        fn = make_channel_fn(1, geom, geom)
        params = FILTER_PARAMS
        rho = 10.0
        truth = ChannelState.from_parts([1.0], [0.0], [0.0], [0.0], [0.0])
        x0 = truth.x.copy()
        x0[2] -= 0.1
        R0 = np.diag([0.005, 0.005, 0.1, 1e-6, 0.1, 1e-6])
        prior = TrackerState(ChannelState(1, x0), R0)
        sigma = sigma_points(x0, R0, params)
        stats = channel_statistics(sigma, fn)
        design = design_beams(stats, geom, geom, rho, 6, 6)
        plan = build_plan(design.F, design.Z)
        measure = observation_map(plan, 1, geom, geom)
        h_true = fn(truth.x[None, :])[0]
        for seed in range(8):
            obs = observe(plan, h_true, rho, np.random.default_rng(seed))
            err, z = {}, {}
            for steps in (1, 20):
                post = update(prior, measure, obs, params, sigma=sigma, steps=steps)
                err[steps] = abs(post.x_hat.x[2] - truth.x[2])
                z[steps] = err[steps] / np.sqrt(post.R[2, 2])
            assert z[1] > 10.0
            assert z[20] < 4.0
            assert err[20] < 0.01

    def test_rejects_mismatched_map_and_bad_step_count(self):
        measure = observation_map(build_plan(DFT2, DFT2), 1, ArrayGeometry(2), ArrayGeometry(2))
        prior = TrackerState(ChannelState(1, np.zeros(6)), np.eye(6))
        with pytest.raises(DimensionMismatch):
            short = Observation(y_real=np.ones(6), snr_rho=10.0)
            update(prior, measure, short, UkfParams(), steps=2)
        obs = Observation(y_real=np.ones(8), snr_rho=10.0)
        # 2**steps overflows from 1024 steps, leaving step 0 no finite noise
        # variance; the update refuses such counts before any overflow or warning.
        assert np.all(np.isfinite(partial_noise_variances(10.0, 1023)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for steps in (0, 1024, 1100):
                with pytest.raises(BadScaling):
                    update(prior, measure, obs, UkfParams(), steps=steps)


def stepwise_update(prior, measure, obs, params, steps):
    """The recursive update, each partial step drawing sigma points from R.

    Each step writes out the (2n+1)-square system that ``update`` solves:
    with ``Z`` and ``dX`` the measurement and state differences from the
    centre point, ``E = [sqrt(w) Z; sqrt(beta) m]``,
    ``T = [sqrt(w) (dX - w dX); 0]``, ``G = E E^T`` and ``K = c I + G``,
    the increments are ``Y^T E nu`` and ``T^T G Y`` with ``Y = K^-1 T``.
    """
    x, R = prior.x_hat.x, prior.R
    for i in range(steps):
        sigma = sigma_points(x, R, params)
        w = sigma.w_cov[1:]
        beta = math.fsum(sigma.w_cov) - 2.0
        fraction = 2.0**i / (2.0**steps - 1.0)
        c = 1.0 / (2.0 * obs.snr_rho * fraction)
        zeta = measure(sigma.points)
        Z = zeta[1:] - zeta[0]
        m = w @ Z
        E = np.vstack([np.sqrt(w)[:, None] * Z, np.sqrt(beta) * m])
        dX = sigma.points[1:] - sigma.points[0]
        T = np.vstack([np.sqrt(w)[:, None] * (dX - w @ dX), np.zeros(x.size)])
        G = E @ E.T
        K = G + c * np.eye(w.size + 1)
        Y = np.linalg.solve(K, T)
        x = x + Y.T @ (E @ (obs.y_real - (zeta[0] + m)))
        R = R - (G @ T).T @ Y
        R = (R + R.T) / 2.0
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError:  # semidefinite: clamp round-off negatives
            w, V = np.linalg.eigh(R)
            R = (V * np.where(w < 0.0, 1e-12, w)) @ V.T
    return x, R


class TestCarriedSigmaRoot:
    """update carries each partial posterior's root instead of refactoring R."""

    plan = build_plan(DFT2, DFT2)
    params = UkfParams(eta=0.2)

    def check_matches_stepwise(self, R):
        measure = observation_map(self.plan, 1, ArrayGeometry(2), ArrayGeometry(2))
        y = np.random.default_rng(64).standard_normal(8)
        obs = Observation(y_real=y, snr_rho=10.0)
        prior = TrackerState(ChannelState(1, np.linspace(-0.3, 1.0, 6)), R)
        post = update(prior, measure, obs, self.params, steps=3)
        x_ref, R_ref = stepwise_update(prior, measure, obs, self.params, 3)
        np.testing.assert_array_equal(post.x_hat.x, x_ref)
        np.testing.assert_array_equal(post.R, R_ref)

    def test_definite_prior_matches_stepwise_sigma_points(self):
        self.check_matches_stepwise(random_psd(np.random.default_rng(65), 6, 0.1))

    def test_zero_variance_block_matches_stepwise_sigma_points(self):
        R = np.zeros((6, 6))
        R[:3, :3] = random_psd(np.random.default_rng(66), 3, 0.1)
        self.check_matches_stepwise(R)

    def test_indefinite_partial_posterior_raises(self):
        # Sigma points of a far wider prior: the first step removes more
        # than R holds.
        M = np.random.default_rng(67).standard_normal((8, 6))
        wide = sigma_points(np.zeros(6), np.eye(6), self.params)
        prior = TrackerState(ChannelState(1, np.zeros(6)), 1e-3 * np.eye(6))
        obs = Observation(y_real=np.ones(8), snr_rho=10.0)
        with pytest.raises(IndefiniteCovariance):
            update(prior, lambda X: X @ M.T, obs, self.params, sigma=wide, steps=2)


class TestUpdateProperties:
    def test_confident_prior_is_untouched(self):
        plan = build_plan(DFT2, DFT2)
        measure = observation_map(plan, 1, ArrayGeometry(2), ArrayGeometry(2))
        x = np.array([1.0, 0.5, 0.2, 0.0, -0.3, 0.0])
        prior = TrackerState(ChannelState(1, x), np.zeros((6, 6)))
        obs = Observation(y_real=np.ones(8), snr_rho=10.0)
        post = update(prior, measure, obs, UkfParams())
        np.testing.assert_array_equal(post.x_hat.x, x)
        np.testing.assert_array_equal(post.R, np.zeros((6, 6)))

    def test_posterior_never_exceeds_prior(self):
        rng = np.random.default_rng(60)
        plan = build_plan(DFT2, DFT2)
        measure = observation_map(plan, 1, ArrayGeometry(2), ArrayGeometry(2))
        for _ in range(5):
            x = rng.standard_normal(6) * 0.3
            R = random_psd(rng, 6)
            obs = Observation(y_real=rng.standard_normal(8), snr_rho=10.0)
            post = update(TrackerState(ChannelState(1, x), R), measure, obs,
                          UkfParams())
            gap = np.max(np.linalg.eigvalsh(post.R - R))
            assert gap <= 1e-9

    def test_static_channel_error_shrinks(self):
        rng = np.random.default_rng(61)
        tx = rx = ArrayGeometry(4)
        beams, _ = np.linalg.qr(
            rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        )
        plan = build_plan(beams, beams)
        measure = observation_map(plan, 1, tx, rx)

        truth = ChannelState.from_parts([1.0 + 0.5j], [0.4], [0.0], [-0.2], [0.0])
        h_true = np.concatenate(
            [
                channel_matrix(truth, tx, rx).reshape(-1, order="F").real,
                channel_matrix(truth, tx, rx).reshape(-1, order="F").imag,
            ]
        )
        x0 = truth.x + rng.normal(scale=0.05, size=6) * np.array([1, 1, 1, 0, 1, 0])
        R0 = np.diag([0.01, 0.01, 0.01, 1e-12, 0.01, 1e-12])
        ts = TrackerState(ChannelState(1, x0), R0)

        rho = 1e6
        errs = [np.linalg.norm(ts.x_hat.x - truth.x)]
        for _ in range(10):
            obs = Observation(noiseless_measurement(plan, h_true), rho)
            ts = update(ts, measure, obs, UkfParams())
            errs.append(np.linalg.norm(ts.x_hat.x - truth.x))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.1 * errs[0]

    def test_precomputed_sigma_matches_inline_path(self):
        rng = np.random.default_rng(62)
        plan = build_plan(DFT2, DFT2)
        measure = observation_map(plan, 1, ArrayGeometry(2), ArrayGeometry(2))
        x = rng.standard_normal(6) * 0.2
        R = random_psd(rng, 6)
        obs = Observation(y_real=rng.standard_normal(8), snr_rho=5.0)
        prior = TrackerState(ChannelState(1, x), R)
        sigma = sigma_points(x, R, UkfParams())
        a = update(prior, measure, obs, UkfParams())
        b = update(prior, measure, obs, UkfParams(), sigma=sigma)
        np.testing.assert_array_equal(a.x_hat.x, b.x_hat.x)
        np.testing.assert_array_equal(a.R, b.R)

    def test_deterministic(self):
        rng_a = np.random.default_rng(63)
        plan = build_plan(DFT2, DFT2)
        measure = observation_map(plan, 1, ArrayGeometry(2), ArrayGeometry(2))
        x = rng_a.standard_normal(6)
        R = random_psd(rng_a, 6)
        obs = Observation(y_real=rng_a.standard_normal(8), snr_rho=2.0)
        prior = TrackerState(ChannelState(1, x), R)
        a = update(prior, measure, obs, UkfParams())
        b = update(prior, measure, obs, UkfParams())
        np.testing.assert_array_equal(a.x_hat.x, b.x_hat.x)
        np.testing.assert_array_equal(a.R, b.R)

