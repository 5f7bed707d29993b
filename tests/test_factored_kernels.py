"""Factored sigma-subspace kernels against the dense channel-space maths.

Beam design solves its pencil through the factored moments Pi = E^T J E
and R_xh = T^T E of ``ChannelStats``, and the update pushes sigma points
through the factored observation map; both solve the same (2n+1)-square
push-through system.
Each test here writes the dense reference (a Cholesky factorization of the
m x m matrix Pi + I/(2 rho), or G Pi G^T and an explicit inverse) and
requires the factored kernels to agree with it.
"""

from dataclasses import replace

import numpy as np
import pytest

from beamtrack import simulate
from beamtrack.beams import (
    design_beams,
    signal_rank,
    unconstrained_optimal_directions,
)
from beamtrack.channel import ArrayGeometry, ChannelState, StateLayout
from beamtrack.errors import BadScaling, SingularB, SingularInnovation
from beamtrack import simulate
from beamtrack.simulate import FILTER_PARAMS, ScenarioConfig, generate_scenario, run_frame
from beamtrack.sounding import Observation, build_plan, observation_map, observe
from beamtrack.tracker import (
    ChannelStats,
    SigmaSet,
    TrackerState,
    UkfParams,
    _partial_step,
    channel_statistics,
    make_channel_fn,
    sigma_points,
    update,
)


def dense_directions(R_xh, Pi, W, rho, n_dirs):
    """Top pencil directions from a Cholesky factorization of the dense B."""
    U = R_xh.T / np.sqrt(W)
    B = Pi + np.eye(Pi.shape[0]) / (2.0 * rho)
    L = np.linalg.cholesky(B)
    BiU = np.linalg.solve(L.T, np.linalg.solve(L, U))
    w, Q = np.linalg.eigh(U.T @ BiU)
    order = np.argsort(w)[::-1][:n_dirs]
    V = BiU @ Q[:, order]
    norms = np.linalg.norm(V, axis=0)  # zero for a state component the channel misses
    V = V / np.where(norms > 0.0, norms, 1.0)
    peak = np.abs(V).argmax(axis=0)
    return V * np.where(V[peak, np.arange(V.shape[1])] < 0.0, -1.0, 1.0), w[order]


def reference_stats(run_index):
    """Prior sigma statistics of the reference scenario's first sounding."""
    cfg = ScenarioConfig()
    tx, rx = ArrayGeometry(cfg.M_T), ArrayGeometry(cfg.M_R)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, run_index]).spawn(4)[0])
    _, prior = generate_scenario(cfg, rng)
    sigma = sigma_points(prior.x_hat.x, prior.R, FILTER_PARAMS)
    return cfg, channel_statistics(sigma, make_channel_fn(cfg.L, tx, rx))


def assert_directions_match(stats, Pi, rho, n_dirs, W=None):
    """The factored directions of ``stats`` weighted by W against the dense solve.

    The weighting enters the factors as the column scaling T / sqrt(W), and
    the dense reference as U = R_xh^T / sqrt(W).
    """
    W = np.ones(stats.T.shape[1]) if W is None else W
    V, eigvals = unconstrained_optimal_directions(
        replace(stats, T=stats.T / np.sqrt(W)), rho, n_dirs
    )
    R_xh = (stats.E.T @ stats.T).T
    V_ref, w_ref = dense_directions(R_xh, Pi, W, rho, n_dirs)
    k = w_ref.size
    np.testing.assert_allclose(eigvals[:k], w_ref, rtol=0.0, atol=1e-9 * w_ref[0])
    # Only the signal directions are fixed by the model; the rest are
    # round-off (see signal_rank).
    rank = signal_rank(w_ref)
    assert rank >= 2
    np.testing.assert_allclose(V[:, :rank], V_ref[:, :rank], rtol=0.0, atol=1e-8)


def dense_moments(Pi, R_xh):
    """Dense moments as factors: E = I, J = Pi, T = R_xh^T."""
    m = Pi.shape[0]
    return ChannelStats(h_hat=np.zeros(m), E=np.eye(m), J=Pi, T=R_xh.T)


class TestFactoredPencil:
    @pytest.mark.parametrize("run_index", [0, 1, 2])
    def test_matches_dense_solve_on_sigma_statistics(self, run_index):
        cfg, stats = reference_stats(run_index)
        assert stats.E.shape == (2 * 6 * cfg.L + 1, 512)
        assert_directions_match(stats, stats.Pi, cfg.rho, cfg.N_T * cfg.N_R)

    def test_matches_dense_solve_outside_the_sigma_span(self):
        # A generic cross-covariance lies outside the span of the sigma
        # differences, so it needs dense moments, T = R_xh^T.
        cfg, stats = reference_stats(0)
        rng = np.random.default_rng(100)
        R_xh = rng.standard_normal(stats.R_xh.shape)
        Q, _ = np.linalg.qr(stats.E.T)
        U = R_xh.T
        assert np.linalg.norm(U - Q @ (Q.T @ U)) > 0.9 * np.linalg.norm(U)
        W = rng.uniform(0.5, 2.0, R_xh.shape[0])
        assert_directions_match(
            dense_moments(stats.Pi, R_xh), stats.Pi, cfg.rho, cfg.N_T * cfg.N_R, W
        )

    def test_matches_dense_solve_on_a_generic_factor_coordinate(self):
        # T need not be the sigma state factor: a generic T, last row
        # included, and generic weights.
        cfg, stats = reference_stats(0)
        rng = np.random.default_rng(104)
        T = rng.standard_normal(stats.T.shape)
        W = rng.uniform(0.5, 2.0, T.shape[1])
        assert_directions_match(
            replace(stats, T=T), stats.Pi, cfg.rho, cfg.N_T * cfg.N_R, W
        )

    def test_dense_input_is_the_identity_factor(self):
        cfg, stats = reference_stats(0)
        dense = dense_moments(stats.Pi, stats.R_xh)
        np.testing.assert_array_equal(dense.E, np.eye(512))
        _, w_d = unconstrained_optimal_directions(dense, cfg.rho, cfg.N_T * cfg.N_R)
        _, w_f = unconstrained_optimal_directions(stats, cfg.rho, cfg.N_T * cfg.N_R)
        np.testing.assert_allclose(w_f, w_d, rtol=1e-9, atol=1e-9 * w_d[0])

    def test_indefinite_core_raises_singular_b(self):
        rng = np.random.default_rng(101)
        m, k = 64, 9
        F = rng.standard_normal((m, k))
        Omega = np.diag(np.r_[-10.0, np.ones(k - 1)])
        stats = ChannelStats(
            h_hat=np.zeros(m), E=F.T, J=Omega, T=rng.standard_normal((k, 6))
        )
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(F @ Omega @ F.T + np.eye(m) / 20.0)
        with pytest.raises(SingularB):
            unconstrained_optimal_directions(stats, 10.0, 4)


def small_problem(seed):
    """A two-path 8x8 prior, its sigma points and channel statistics, the
    measurement map of a designed plan, the plan and a measurement."""
    rng = np.random.default_rng(seed)
    cfg = ScenarioConfig(L=2, M_T=8, M_R=8, N_T=3, N_R=3)
    tx, rx = ArrayGeometry(cfg.M_T), ArrayGeometry(cfg.M_R)
    truth, prior = generate_scenario(cfg, rng)
    fn = make_channel_fn(cfg.L, tx, rx)
    params = UkfParams(eta=1.0)  # nonnegative weights: a PSD joint covariance
    sigma = sigma_points(prior.x_hat.x, prior.R, params)
    stats = channel_statistics(sigma, fn)
    design = design_beams(stats, tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
    plan = build_plan(design.F, design.Z)
    obs = observe(plan, fn(truth.x[None, :])[0], cfg.rho, rng)
    measure = observation_map(plan, cfg.L, tx, rx)
    return prior, sigma, stats, measure, plan, obs, params, cfg.rho


def reference_first_sounding(run_index):
    """The reference scenario's first sounding, as run_frame takes it."""
    cfg = ScenarioConfig()
    tx, rx = ArrayGeometry(cfg.M_T), ArrayGeometry(cfg.M_R)
    rng_scenario, _, rng_obs, _ = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence([cfg.seed, run_index]).spawn(4)
    )
    truth, prior = generate_scenario(cfg, rng_scenario)
    fn = make_channel_fn(cfg.L, tx, rx)
    sigma = sigma_points(prior.x_hat.x, prior.R, FILTER_PARAMS)
    design = design_beams(channel_statistics(sigma, fn), tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
    plan = build_plan(design.F, design.Z)
    obs = observe(plan, fn(truth.x[None, :])[0], cfg.rho, rng_obs)
    measure = observation_map(plan, cfg.L, tx, rx)
    return prior, sigma, measure, obs


def solve_longdouble(A, B):
    """Gaussian elimination with partial pivoting, in the dtype of A and B."""
    A, B = A.copy(), B.copy()
    n = A.shape[0]
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        A[[k, p]], B[[k, p]] = A[[p, k]], B[[p, k]]
        f = A[k + 1 :, k] / A[k, k]
        A[k + 1 :] -= f[:, None] * A[k]
        B[k + 1 :] -= f[:, None] * B[k]
    X = np.zeros_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (B[k] - A[k, k + 1 :] @ X[k + 1 :]) / A[k, k]
    return X


def dense_increments(sigma, measure, y, rho, dtype=float):
    """Mean and covariance increments of the UKF formula with the dense S.

    The weighted moments use all 2n+1 weights; S = Pi + I/(2 rho) is
    formed and solved, in ``dtype``.
    """
    P = sigma.points.astype(dtype)
    zeta = np.asarray(measure(sigma.points)).astype(dtype)
    w_mean, w_cov = sigma.w_mean.astype(dtype), sigma.w_cov.astype(dtype)
    dz = zeta - w_mean @ zeta
    Pi = (dz * w_cov[:, None]).T @ dz
    T = (dz * w_cov[:, None]).T @ (P - P[0])
    S = Pi + np.eye(Pi.shape[0], dtype=dtype) / (2 * dtype(rho))
    rhs = np.column_stack([y.astype(dtype) - w_mean @ zeta, T])
    if dtype is float:
        X = np.linalg.solve(S, rhs)
    else:
        X = solve_longdouble(S, rhs)
    dR = T.T @ X[:, 1:]
    return T.T @ X[:, 0], (dR + dR.T) / 2


def increment_errors(prior, post, dx, dR):
    """Relative errors of an update's mean and covariance increments."""
    err_x = np.linalg.norm(post.x_hat.x - prior.x_hat.x - dx) / np.linalg.norm(dx)
    err_R = np.linalg.norm(prior.R - post.R - dR) / np.linalg.norm(dR)
    return float(err_x), float(err_R)


def assert_velocities_unmoved(prior, post):
    """The update moved the mean, but no velocity component of it.

    A diagonal prior's velocity sigma points have the centre's channel.  The
    observation map gives a state the same row wherever it sits in the
    batch, so their measurements equal the centre's bit for bit and they add
    nothing to the gain.
    """
    dx = post.x_hat.x - prior.x_hat.x
    assert np.any(dx != 0.0)
    assert np.all(dx[StateLayout.of(prior.x_hat.L).velocities] == 0.0)


def quadratic_map(rng, n, p):
    """A batched map X -> (x^T Q_k x)_k with p random PSD matrices Q_k."""
    A = rng.standard_normal((p, n, n))
    Q = A @ A.transpose(0, 2, 1)
    return lambda X: np.einsum("ki,pij,kj->kp", X, Q, X)


class TestFactoredUpdate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_step_covariance_equals_dense_product(self, seed):
        _, sigma, stats, measure, plan, _, _, _ = small_problem(seed)
        G = plan.G_real
        obs_stats = channel_statistics(sigma, measure)
        S0 = G @ stats.Pi @ G.T
        assert np.linalg.norm(obs_stats.Pi - S0) <= 1e-12 * np.linalg.norm(S0)
        for got, want in ((obs_stats.h_hat, G @ stats.h_hat),
                          (obs_stats.R_xh, stats.R_xh @ G.T)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_equals_explicit_gain(self, seed):
        prior, sigma, stats, measure, plan, obs, params, rho = small_problem(seed)
        G = plan.G_real
        T = G @ stats.R_xh.T
        S = G @ stats.Pi @ G.T + np.eye(G.shape[0]) / (2.0 * rho)
        S_inv = np.linalg.inv((S + S.T) / 2.0)
        dx = T.T @ S_inv @ (obs.y_real - G @ stats.h_hat)
        dR = T.T @ S_inv @ T
        post = update(prior, measure, obs, params, sigma=sigma)
        # The increments themselves agree, not only the posterior moments.
        got_dx = post.x_hat.x - prior.x_hat.x
        got_dR = prior.R - post.R
        assert np.linalg.norm(got_dx - dx) <= 1e-12 * np.linalg.norm(dx)
        assert np.linalg.norm(got_dR - (dR + dR.T) / 2.0) <= 1e-12 * np.linalg.norm(dR)

    @pytest.mark.parametrize("seed", range(4))
    def test_update_leaves_velocities_of_a_diagonal_prior(self, seed):
        prior, sigma, _, measure, _, obs, params, _ = small_problem(seed)
        assert_velocities_unmoved(prior, update(prior, measure, obs, params, sigma=sigma))

    @pytest.mark.parametrize("run_index", range(3))
    def test_first_reference_update_leaves_velocities(self, run_index):
        prior, sigma, measure, obs = reference_first_sounding(run_index)
        assert_velocities_unmoved(prior, update(prior, measure, obs, FILTER_PARAMS, sigma=sigma))

    def test_sound_is_the_first_sounding_written_out(self):
        # first_N_T/first_N_R set the beam counts at period 0 and nowhere else
        prior, sigma, measure, obs = reference_first_sounding(0)
        want = update(prior, measure, obs, FILTER_PARAMS, sigma, steps=simulate.UPDATE_STEPS)
        wide = ScenarioConfig(first_N_T=8, first_N_R=8)
        for cfg, period, same in ((ScenarioConfig(), 0, True), (wide, 1, True), (wide, 0, False)):
            rng_scenario, _, rng_obs, _ = (
                np.random.default_rng(s) for s in np.random.SeedSequence([0, 0]).spawn(4)
            )
            truth, _ = generate_scenario(cfg, rng_scenario)
            post, _ = simulate.sound(prior, truth.x, cfg, period, rng_obs)
            assert np.array_equal(post.x_hat.x, want.x_hat.x) == same
            assert np.array_equal(post.R, want.R) == same

    def test_indefinite_innovation_raises(self):
        # Negative weights make G Pi G^T strongly indefinite, and the noise
        # on the diagonal of S cannot make up for it.
        prior, sigma, _, measure, _, obs, params, _ = small_problem(0)
        bad = SigmaSet(sigma.points, sigma.w_mean, -np.abs(sigma.w_cov))
        with pytest.raises(SingularInnovation):
            update(prior, measure, obs, params, sigma=bad)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_small_eta_matches_longdouble_formula(self, seed):
        # At the UkfParams default eta = 1e-3 the centre mean weight is
        # 1 - 1/eta^2, about -1e6.  Measured on these two problems: the dense route in
        # float64 (weighted deviations from the mean, one 18 x 18 solve)
        # is off by 4.4e-7 and 7.5e-6 in dx and 2.6e-8 and 5.9e-7 in dR;
        # the differences from the centre point are off by 3.0e-10 and
        # 2.6e-9 in dx and 9.1e-12 and 3.1e-10 in dR.
        prior, _, _, measure, _, obs, _, rho = small_problem(seed)
        params = UkfParams(eta=1e-3)
        sigma = sigma_points(prior.x_hat.x, prior.R, params)
        dx, dR = dense_increments(sigma, measure, obs.y_real, rho, np.longdouble)
        post = update(prior, measure, obs, params, sigma=sigma)
        err_x, err_R = increment_errors(prior, post, dx.astype(float), dR.astype(float))
        assert err_x <= 3e-8
        assert err_R <= 3e-9

    @pytest.mark.parametrize("eta", [0.2, 1.5, 2.0])
    def test_matches_dense_formula_on_both_signs_of_beta(self, eta):
        # beta = 2 - eta^2 is negative at eta = 1.5 and 2.
        prior, _, _, measure, _, obs, _, rho = small_problem(0)
        params = UkfParams(eta=eta)
        sigma = sigma_points(prior.x_hat.x, prior.R, params)
        dx, dR = dense_increments(sigma, measure, obs.y_real, rho)
        post = update(prior, measure, obs, params, sigma=sigma)
        err_x, err_R = increment_errors(prior, post, dx, dR)
        assert err_x <= 1e-10
        assert err_R <= 1e-10

    def test_filter_weights_keep_innovation_above_noise_at_negative_beta(self):
        # The 2n outer weights sum to 1/eta^2, so by Cauchy-Schwarz
        # |beta| (m.u)^2 <= (1 - 2/eta^2) u^T Z^T diag(w) Z u: the
        # rank-one term never outweighs the rest and S >= c I.
        rng = np.random.default_rng(102)
        params = UkfParams(eta=3.0)
        measure = quadratic_map(rng, 6, 4)
        sigma = sigma_points(rng.standard_normal(6), np.eye(6), params)
        c = 1e-3
        zeta = measure(sigma.points)
        dz = zeta - sigma.w_mean @ zeta
        S = (dz * sigma.w_cov[:, None]).T @ dz + c * np.eye(4)
        assert np.sum(sigma.w_cov) - 2.0 == pytest.approx(-7.0)
        assert np.linalg.eigvalsh((S + S.T) / 2)[0] >= c * (1.0 - 1e-9)
        y = Observation(y_real=zeta[0] + 1.0, snr_rho=1.0 / (2.0 * c))
        prior = TrackerState(ChannelState(1, sigma.points[0]), np.eye(6))
        post = update(prior, measure, y, params, sigma=sigma)
        assert np.all(np.isfinite(post.x_hat.x))

    def test_indefinite_innovation_at_negative_beta_raises(self):
        # A centre weight below the filter's range (beta < -eta^2) makes
        # the rank-one term win: the dense S has a negative eigenvalue, and
        # the (2n+1)-square step must see it from det K alone.
        rng = np.random.default_rng(103)
        params = UkfParams(eta=3.0)
        measure = quadratic_map(rng, 6, 4)
        sigma = sigma_points(np.zeros(6), np.eye(6), params)
        w, beta, c = sigma.w_cov[1:], -4.0 * params.eta**2, 1e-3
        Z = measure(sigma.points[1:]) - measure(sigma.points[:1])
        m = w @ Z
        S = (Z * w[:, None]).T @ Z + beta * np.outer(m, m) + c * np.eye(4)
        assert np.linalg.eigvalsh(S)[0] < 0.0
        y = Observation(y_real=np.zeros(4), snr_rho=1.0 / (2.0 * c))
        with pytest.raises(SingularInnovation):
            _partial_step(sigma.points, measure, y, w, beta, c)

    def test_foreign_sigma_weights_raise_bad_scaling(self):
        prior, sigma, _, measure, _, obs, params, _ = small_problem(0)
        bump = np.r_[1e-3, np.zeros(sigma.w_mean.size - 1)]
        faulted = SigmaSet(sigma.points, sigma.w_mean + bump, sigma.w_cov + bump)
        with pytest.raises(BadScaling):
            update(prior, measure, obs, params, sigma=faulted)

    def test_statistics_reject_unequal_outer_weights(self):
        # The factors take one outer weight for the mean and the covariance.
        prior, sigma, *_ = small_problem(0)
        fn = make_channel_fn(2, ArrayGeometry(8), ArrayGeometry(8))
        skewed = SigmaSet(sigma.points, sigma.w_mean, sigma.w_cov * 1.001)
        with pytest.raises(BadScaling):
            channel_statistics(skewed, fn)

    @pytest.mark.parametrize("eta", [1.5, 2.0])
    def test_run_frame_completes_at_negative_beta(self, eta, monkeypatch):
        monkeypatch.setattr(simulate, "FILTER_PARAMS", UkfParams(eta=eta))
        rec = run_frame(ScenarioConfig(frame_length=5e-4), 0)
        assert not rec.diverged
        assert np.all(np.isfinite(rec.trace_wr))


class TestSharedSubspaceSolve:
    """Beam design and the update solve one push-through system."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pencil_eigenvalues_equal_whole_channel_update_reduction(self, seed):
        # Sounding the whole channel (F = I, Z = I) at the design SNR, one
        # update step removes exactly U^T B^-1 U from the covariance.
        prior, sigma, stats, _, _, _, params, rho = small_problem(seed)
        n, M = prior.R.shape[0], 8
        _, eigvals = unconstrained_optimal_directions(stats, rho, 16)
        geom = ArrayGeometry(M)
        measure = observation_map(build_plan(np.eye(M), np.eye(M)), 2, geom, geom)
        obs = Observation(y_real=np.zeros(2 * M * M), snr_rho=rho)
        post = update(prior, measure, obs, params, sigma=sigma)
        want = np.linalg.eigvalsh(prior.R - post.R)[::-1]
        np.testing.assert_allclose(eigvals[:n], want, rtol=0.0, atol=1e-10 * want[0])

    @pytest.mark.parametrize("eta", [0.2, 1e-3])
    def test_factors_reproduce_sigma_weighted_moments(self, eta):
        # At eta = 1e-3 the centre weight is about -1e6, so the reference
        # weighted moments are summed in long double.
        prior = small_problem(0)[0]
        geom = ArrayGeometry(8)
        fn = make_channel_fn(2, geom, geom)
        sigma = sigma_points(prior.x_hat.x, prior.R, UkfParams(eta=eta))
        stats = channel_statistics(sigma, fn)
        P = sigma.points.astype(np.longdouble)
        zeta = fn(sigma.points).astype(np.longdouble)
        w_mean = sigma.w_mean.astype(np.longdouble)
        w_cov = sigma.w_cov.astype(np.longdouble)
        h_hat = w_mean @ zeta
        dz_w = (zeta - h_hat) * w_cov[:, None]
        Pi = dz_w.T @ (zeta - h_hat)
        R_hx = dz_w.T @ (P - P[0])
        for got, want in ((stats.E.T @ stats.J @ stats.E, Pi),
                          (stats.E.T @ stats.T, R_hx),
                          (stats.h_hat, h_hat)):
            want = want.astype(float)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


LINALG_KERNELS = ("qr", "cholesky", "eigh", "eigvalsh", "solve", "svd", "slogdet")


def test_run_path_factors_nothing_of_channel_dimension(monkeypatch):
    """No decomposition or solve on the run path acts on a channel-sized matrix.

    Every ``np.linalg`` kernel call of a two-period default run is recorded;
    each operand's matrix dimensions must stay below 2*M_R*M_T.
    """
    cfg = ScenarioConfig(frame_length=2 * ScenarioConfig().T_S)
    calls = []
    for name in LINALG_KERNELS:
        def recorded(*args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, [a.shape[-2:] for a in args if isinstance(a, np.ndarray)]))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert not run_frame(cfg, 0).diverged
    limit = 2 * cfg.M_R * cfg.M_T
    too_big = [(name, shapes) for name, shapes in calls
               if any(dim >= limit for shape in shapes for dim in shape)]
    assert calls
    assert not too_big, too_big[:3]
