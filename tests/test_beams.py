"""Tests for adaptive beam design and baselines."""

import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import beamtrack
from beamtrack.beams import (
    _slot_order,
    baseline_beams,
    beams_from_directions,
    design_beams,
    kronecker_beams,
    real_directions_to_complex,
    signal_rank,
    unconstrained_optimal_directions,
)
from beamtrack.channel import (
    ArrayGeometry,
    ChannelState,
    steering_vector,
    virtual_to_spatial,
)
from beamtrack.errors import (
    BadBeamCount,
    BadConfig,
    DimensionMismatch,
    NonpositiveSnr,
    ZeroMatrix,
)
from beamtrack.numerics import (
    KroneckerFactorDims,
    complex_to_real_stacked,
    generalized_eig_sym,
    kron_rearrange,
)
from beamtrack.sounding import build_plan, observation_map, observe
from beamtrack.tracker import (
    ChannelStats,
    TrackerState,
    UkfParams,
    channel_statistics,
    make_channel_fn,
    sigma_points,
    update,
)


def unit_columns(rng, m, n):
    B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return B / np.linalg.norm(B, axis=0)


RHO = 10.0


def design_input(rng, n=6, m=8, Pi=None, R_xh=None):
    """Dense moments with a positive definite channel covariance Pi (I by default).

    They enter through the Cholesky root of Pi: E = L^T, with E^T E = Pi,
    and T solving E^T T = R_xh^T.
    """
    if Pi is None:
        Pi = np.eye(2 * m)
    drawn = rng.standard_normal((n, 2 * m))
    if R_xh is None:
        R_xh = drawn
    E = np.linalg.cholesky(Pi).T
    return ChannelStats(h_hat=np.zeros(2 * m), E=E, T=np.linalg.solve(E.T, R_xh.T))


class TestUnconstrainedOptimalDirections:
    def test_zero_cross_covariance_means_zero_eigenvalues(self):
        rng = np.random.default_rng(70)
        stats = design_input(rng, R_xh=np.zeros((6, 16)))
        _, eigvals, _ = unconstrained_optimal_directions(stats, RHO, 4)
        np.testing.assert_allclose(eigvals, 0.0, atol=1e-12)

    def test_single_row_gives_matched_direction(self):
        rng = np.random.default_rng(71)
        r = rng.standard_normal(16)
        R_xh = np.zeros((6, 16))
        R_xh[2] = r
        stats = design_input(rng, R_xh=R_xh)
        V, eigvals, _ = unconstrained_optimal_directions(stats, RHO, 4)
        cos = abs(V[:, 0] @ r) / (np.linalg.norm(V[:, 0]) * np.linalg.norm(r))
        assert cos > 1.0 - 1e-10
        np.testing.assert_allclose(eigvals[0], (r @ r) / (1.0 + 1.0 / (2.0 * RHO)), rtol=1e-10)
        np.testing.assert_allclose(eigvals[1:], 0.0, atol=1e-8)

    def test_directions_do_not_underflow_at_a_tiny_snr(self):
        # With Pi = I, B = (1 + 1/(2 rho)) I: the directions are A's top
        # eigenvectors at every SNR, and the eigenvalues scale with
        # 1 / (1 + 1/(2 rho)).
        rng = np.random.default_rng(73)
        stats = design_input(rng)
        V1, w1, _ = unconstrained_optimal_directions(stats, 1.0, 4)
        V, w, _ = unconstrained_optimal_directions(stats, 1e-300, 4)
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, rtol=1e-14)
        np.testing.assert_allclose(V, V1, atol=1e-12)
        np.testing.assert_allclose(w * (1.0 + 1.0 / 2e-300), w1 * 1.5, rtol=1e-12)

    def test_residual_on_random_pencils(self):
        rng = np.random.default_rng(72)
        M = rng.standard_normal((16, 16))
        Pi = M @ M.T / 16.0
        stats = design_input(rng, Pi=Pi)
        V, eigvals, _ = unconstrained_optimal_directions(stats, RHO, 4)
        A = stats.R_xh.T @ stats.R_xh
        B = Pi + np.eye(16) / (2.0 * RHO)
        resid = np.linalg.norm(A @ V - B @ V @ np.diag(eigvals))
        assert resid < 1e-8


class TestDesignChecks:
    """The pencil and design_beams reject bad SNRs, beam counts and factors."""

    GEOM = ArrayGeometry(4)

    def stats(self):
        return design_input(np.random.default_rng(75), m=16)

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_nonpositive_snr(self, rho):
        with pytest.raises(NonpositiveSnr):
            unconstrained_optimal_directions(self.stats(), rho, 4)
        with pytest.raises(NonpositiveSnr):
            design_beams(self.stats(), self.GEOM, self.GEOM, rho, 2, 2)

    @pytest.mark.parametrize("n_t, n_r", [(0, 2), (2, 0), (0, 0)])
    def test_zero_beams(self, n_t, n_r):
        with pytest.raises(BadBeamCount):
            unconstrained_optimal_directions(self.stats(), RHO, n_t * n_r)
        with pytest.raises(BadBeamCount):
            design_beams(self.stats(), self.GEOM, self.GEOM, RHO, n_t, n_r)

    @pytest.mark.parametrize("factor", ["E", "T"])
    def test_factors_disagreeing_in_k(self, factor):
        stats = self.stats()
        short = replace(stats, **{factor: getattr(stats, factor)[:-1]})
        with pytest.raises(DimensionMismatch):
            unconstrained_optimal_directions(short, RHO, 4)
        with pytest.raises(DimensionMismatch):
            design_beams(short, self.GEOM, self.GEOM, RHO, 2, 2)


class TestSignalSubspace:
    """Directions beyond the signal rank must not shape the beams."""

    def rank_two_input(self, rng):
        R_xh = np.zeros((6, 32))
        R_xh[:2] = rng.standard_normal((2, 32))
        M = rng.standard_normal((32, 32))
        return design_input(rng, R_xh=R_xh, Pi=M @ M.T / 32.0, m=16)

    def test_signal_rank_counts_nonround_off_eigenvalues(self):
        rng = np.random.default_rng(90)
        _, eigvals, _ = unconstrained_optimal_directions(self.rank_two_input(rng), RHO, 4)
        assert signal_rank(eigvals) == 2
        assert signal_rank(np.zeros(3)) == 0

    def test_rotating_null_directions_leaves_beams_unchanged(self):
        rng = np.random.default_rng(91)
        V, eigvals, _ = unconstrained_optimal_directions(self.rank_two_input(rng), RHO, 4)
        dims = KroneckerFactorDims(4, 2, 4, 2)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = V.copy()
        rotated[:, 2:] = V[:, 2:] @ Q + 1e-3 * rng.standard_normal((32, 2))
        a = beams_from_directions(V, eigvals, dims)
        b = beams_from_directions(rotated, eigvals, dims)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.Z, b.Z)

    def test_slots_beyond_signal_rank_take_dft_columns(self):
        # Two signal directions reach transmit beams 0 and 1; beam 2 takes
        # the grid column.
        rng = np.random.default_rng(92)
        V, eigvals, _ = unconstrained_optimal_directions(self.rank_two_input(rng), RHO, 6)
        out = beams_from_directions(V, eigvals, KroneckerFactorDims(4, 3, 4, 2))
        grid = baseline_beams("dft_grid", 4, 3)
        np.testing.assert_allclose(out.F[:, 2], grid[:, 2], atol=1e-15)
        for j in range(2):
            assert abs(out.F[:, j].conj() @ grid[:, j]) < 1.0 - 1e-6

    def test_disconnected_beam_groups_each_fit_their_own_direction(self):
        # Two exact Kronecker directions land on slots (0, 0) and (1, 1),
        # which share no beam; each beam pair must recover its own factors,
        # not only the stronger pair.
        rng = np.random.default_rng(94)
        dims = KroneckerFactorDims(4, 2, 4, 2)
        f = unit_columns(rng, 4, 2)
        z = unit_columns(rng, 4, 2)
        dirs = [np.kron(f[:, k].conj(), z[:, k]) for k in range(2)]
        V_real = np.zeros((32, 4))
        for k, d in enumerate(dirs):
            V_real[:, k] = np.concatenate([d.real, d.imag])
        out = beams_from_directions(V_real, np.array([2.0, 1.0, 0.0, 0.0]), dims)
        for k in range(2):
            assert abs(out.F[:, k].conj() @ f[:, k]) > 1.0 - 1e-12
            assert abs(out.Z[:, k].conj() @ z[:, k]) > 1.0 - 1e-12
        assert out.rank_one_residual < 1e-12

    @pytest.mark.parametrize("n1, n2", [(6, 6), (3, 2), (2, 5), (4, 1), (1, 3)])
    def test_slot_order_reaches_every_beam_first(self, n1, n2):
        order = _slot_order(n1, n2)
        np.testing.assert_array_equal(np.sort(order), np.arange(n1 * n2))
        first = order[: max(n1, n2)]
        assert set(first // n2) == set(range(n1))
        assert set(first % n2) == set(range(n2))

    def test_matches_dense_generalized_eigensolver(self):
        rng = np.random.default_rng(93)
        stats = self.rank_two_input(rng)
        V, eigvals, _ = unconstrained_optimal_directions(stats, RHO, 4)
        A = stats.R_xh.T @ stats.R_xh
        B = stats.Pi + np.eye(32) / (2.0 * RHO)
        w, U = generalized_eig_sym(A, B, 2)
        np.testing.assert_allclose(eigvals[:2], w, rtol=1e-10)
        for j in range(2):
            assert abs(abs(U[:, j] @ V[:, j]) - 1.0) < 1e-10


_DESIGN_SCRIPT = """
import sys
import numpy as np
from beamtrack.beams import design_beams
from beamtrack.channel import ArrayGeometry
from beamtrack.simulate import FILTER_PARAMS, ScenarioConfig, generate_scenario
from beamtrack.tracker import channel_statistics, make_channel_fn, sigma_points

cfg = ScenarioConfig()
tx, rx = ArrayGeometry(cfg.M_T), ArrayGeometry(cfg.M_R)
fn = make_channel_fn(cfg.L, tx, rx)
parts = []
for i in range(4):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]).spawn(4)[0])
    _, prior = generate_scenario(cfg, rng)
    stats = channel_statistics(sigma_points(prior.x_hat.x, prior.R, FILTER_PARAMS), fn)
    out = design_beams(stats, tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
    parts += [out.F.ravel(), out.Z.ravel()]
np.save(sys.stdout.buffer, np.concatenate(parts))
"""

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _designed_beams_in_subprocess(threads):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if threads is not None:
        env.update({name: str(threads) for name in _BLAS_THREAD_VARS})
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DESIGN_SCRIPT], env=env, capture_output=True,
        check=True,
    )
    return np.load(io.BytesIO(proc.stdout))


def test_reference_beams_independent_of_blas_thread_count():
    """Beams for the reference priors agree with one BLAS thread and the default."""
    single = _designed_beams_in_subprocess(1)
    default = _designed_beams_in_subprocess(None)
    np.testing.assert_allclose(single, default, rtol=0.0, atol=1e-8)


class TestRealDirectionsToComplex:
    def test_real_basis_column(self):
        col = np.zeros((8, 1))
        col[0, 0] = 1.0
        np.testing.assert_array_equal(
            real_directions_to_complex(col)[:, 0], [1, 0, 0, 0]
        )

    def test_imaginary_basis_column(self):
        col = np.zeros((8, 1))
        col[4, 0] = 1.0
        np.testing.assert_array_equal(
            real_directions_to_complex(col)[:, 0], [1j, 0, 0, 0]
        )

    def test_consistent_with_real_stacking(self):
        # complexified columns of the transposed stacked operator are the
        # columns of the conjugate transpose of the complex operator
        rng = np.random.default_rng(74)
        G = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        G_real = complex_to_real_stacked(G)
        got = real_directions_to_complex(G_real.T[:, :3])
        want = G.conj().T
        want = want / np.linalg.norm(want, axis=0)
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestKroneckerBeams:
    DIMS = KroneckerFactorDims(4, 2, 3, 2)

    def test_exact_kronecker_recovery(self):
        rng = np.random.default_rng(75)
        F0 = unit_columns(rng, 4, 2)
        Z0 = unit_columns(rng, 3, 2)
        out = kronecker_beams(np.kron(F0.conj(), Z0), self.DIMS)
        assert out.rank_one_residual < 1e-10
        for j in range(2):
            assert abs(out.F[:, j].conj() @ F0[:, j]) > 1.0 - 1e-9
            assert abs(out.Z[:, j].conj() @ Z0[:, j]) > 1.0 - 1e-9

    def test_single_beam_outer_product(self):
        f = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        z = np.array([1.0, -1.0]) / np.sqrt(2.0)
        out = kronecker_beams(
            np.kron(f.conj(), z).reshape(-1, 1), KroneckerFactorDims(2, 1, 2, 1)
        )
        assert abs(out.F[:, 0].conj() @ f) > 1.0 - 1e-12
        assert abs(out.Z[:, 0].conj() @ z) > 1.0 - 1e-12

    def test_residual_matches_energy_identity(self):
        rng = np.random.default_rng(76)
        V = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        out = kronecker_beams(V, self.DIMS)
        U = kron_rearrange(V, self.DIMS)
        sigma1 = np.linalg.svd(U, compute_uv=False)[0]
        expected = np.sqrt(np.linalg.norm(U) ** 2 - sigma1**2) / np.linalg.norm(U)
        np.testing.assert_allclose(out.rank_one_residual, expected, atol=1e-10)

    def test_emits_unit_norm_columns(self):
        rng = np.random.default_rng(77)
        V = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        out = kronecker_beams(V, self.DIMS)
        np.testing.assert_allclose(np.linalg.norm(out.F, axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(out.Z, axis=0), 1.0, atol=1e-9)

    def test_rejects_zero_directions(self):
        with pytest.raises(ZeroMatrix):
            kronecker_beams(np.zeros((12, 4), dtype=complex), self.DIMS)


def confident_prior(rng, ups_t=0.5, ups_r=-0.3, angle_var=0.01):
    x = ChannelState.from_parts(
        [1.0 + 0.3j], [ups_t], [0.0], [ups_r], [0.0]
    )
    R = np.diag([0.5, 0.5, angle_var, 1e-6, angle_var, 1e-6])
    return TrackerState(x_hat=x, R=R)


def prior_statistics(prior, geom):
    """Sigma statistics of a one-path prior, as the loop hands them to design."""
    sigma = sigma_points(prior.x_hat.x, prior.R, UkfParams())
    return channel_statistics(sigma, make_channel_fn(1, geom, geom))


class TestDesignBeams:
    GEOM = ArrayGeometry(8)

    def design(self, prior, n_t, n_r):
        return design_beams(prior_statistics(prior, self.GEOM), self.GEOM, self.GEOM,
                            10.0, n_t, n_r)

    def test_certain_prior_falls_back(self):
        # No signal direction: every beam on both sides is its DFT grid column,
        # on a square and on a non-square beam grid.
        prior = TrackerState(ChannelState(1, np.zeros(6)), np.zeros((6, 6)))
        for n_t, n_r in ((2, 2), (3, 2)):
            out = self.design(prior, n_t, n_r)
            assert out.used_fallback
            assert out.rank_one_residual == 0.0
            np.testing.assert_allclose(
                out.F, baseline_beams("dft_grid", 8, n_t), atol=1e-15
            )
            np.testing.assert_allclose(
                out.Z, baseline_beams("dft_grid", 8, n_r), atol=1e-15
            )

    def test_beams_point_at_confident_path(self):
        rng = np.random.default_rng(80)
        prior = confident_prior(rng, angle_var=1e-4)
        out = self.design(prior, 1, 1)
        assert not out.used_fallback
        nu_t = virtual_to_spatial(0.5, self.GEOM)
        nu_r = virtual_to_spatial(-0.3, self.GEOM)
        corr_f = abs(out.F[:, 0].conj() @ steering_vector(nu_t, 8)) / np.sqrt(8.0)
        corr_z = abs(out.Z[:, 0].conj() @ steering_vector(nu_r, 8)) / np.sqrt(8.0)
        assert corr_f >= 0.9
        assert corr_z >= 0.9

    def test_multi_beam_set_still_covers_path(self):
        # with more beams than informative directions, the extra columns are
        # noise-dominated, but the best column should still point at the path
        rng = np.random.default_rng(84)
        prior = confident_prior(rng, angle_var=1e-4)
        out = self.design(prior, 2, 2)
        nu_t = virtual_to_spatial(0.5, self.GEOM)
        corr_f = max(
            abs(out.F[:, j].conj() @ steering_vector(nu_t, 8)) / np.sqrt(8.0)
            for j in range(2)
        )
        assert corr_f >= 0.85

    def test_weight_scaling_leaves_beams_unchanged(self):
        rng = np.random.default_rng(81)
        stats = prior_statistics(confident_prior(rng), self.GEOM)
        dims = KroneckerFactorDims(8, 2, 8, 2)

        def weighted(W):
            scaled = replace(stats, T=stats.T / np.sqrt(W))
            V, eigvals, _ = unconstrained_optimal_directions(scaled, RHO, 4)
            return beams_from_directions(V, eigvals, dims)

        a = weighted(np.ones(6))
        b = weighted(5.0 * np.ones(6))
        for j in range(2):
            assert abs(a.F[:, j].conj() @ b.F[:, j]) > 1.0 - 1e-8
            assert abs(a.Z[:, j].conj() @ b.Z[:, j]) > 1.0 - 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(82)
        prior = confident_prior(rng)
        a = self.design(prior, 2, 2)
        b = self.design(prior, 2, 2)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.Z, b.Z)

    def test_reduces_weighted_uncertainty_vs_random_beams(self):
        rng = np.random.default_rng(83)
        fn = make_channel_fn(1, self.GEOM, self.GEOM)
        wins = 0
        trials = 25
        for _ in range(trials):
            prior = confident_prior(
                rng, ups_t=rng.uniform(-1.0, 1.0), ups_r=rng.uniform(-1.0, 1.0)
            )
            truth = ChannelState(1, rng.multivariate_normal(prior.x_hat.x, prior.R))
            h_true = fn(truth.x[None, :])[0]

            designed = self.design(prior, 2, 2)
            random_F = unit_columns(rng, 8, 2)
            random_Z = unit_columns(rng, 8, 2)

            traces = []
            for F, Z in ((designed.F, designed.Z), (random_F, random_Z)):
                plan = build_plan(F, Z)
                obs = observe(plan, h_true, 10.0, rng)
                measure = observation_map(plan, 1, self.GEOM, self.GEOM)
                post = update(prior_state(prior), measure, obs, UkfParams())
                traces.append(np.trace(post.R))
            if traces[0] <= traces[1]:
                wins += 1
        assert wins >= int(0.6 * trials)


def prior_state(ts):
    return TrackerState(x_hat=ts.x_hat, R=ts.R.copy())


class TestBaselineBeams:
    def test_two_point_grid(self):
        np.testing.assert_allclose(
            baseline_beams("dft_grid", 2, 2),
            np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
            atol=1e-15,
        )

    def test_grid_columns_orthonormal(self):
        B = baseline_beams("dft_grid", 16, 6)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(6), atol=1e-12)

    def test_random_unit_norms(self):
        B = baseline_beams("random_unit", 16, 6, np.random.default_rng(8))
        np.testing.assert_allclose(np.linalg.norm(B, axis=0), 1.0, atol=1e-12)

    def test_rejects_too_many_grid_beams(self):
        with pytest.raises(BadBeamCount):
            baseline_beams("dft_grid", 4, 5)

    def test_random_unit_requires_rng(self):
        with pytest.raises(BadConfig):
            baseline_beams("random_unit", 4, 2)

    def test_unknown_kind(self):
        with pytest.raises(BadConfig):
            baseline_beams("steered", 4, 2)
