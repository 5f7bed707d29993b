"""Tests for the dense linear-algebra kernels."""

import warnings

import numpy as np
import pytest

from beamtrack import beams, numerics
from beamtrack.channel import ArrayGeometry
from beamtrack.errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NotSymmetric,
    SingularB,
    ZeroMatrix,
)
from beamtrack.numerics import (
    KroneckerFactorDims,
    complex_to_real_stacked,
    generalized_eig_sym,
    kron_rearrange,
    matrix_sqrt_psd,
    rank_one_factor,
    vec,
)
from beamtrack.simulate import FILTER_PARAMS, ScenarioConfig, generate_scenario
from beamtrack.tracker import channel_statistics, make_channel_fn, sigma_points


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestVec:
    def test_column_major(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(A), [1.0, 3.0, 2.0, 4.0])

    def test_kron_identity(self):
        # vec(A X B) = (B^T kron A) vec(X), the convention everything relies on
        rng = np.random.default_rng(3)
        A = random_complex(rng, (3, 2))
        X = random_complex(rng, (2, 4))
        B = random_complex(rng, (4, 5))
        lhs = vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ vec(X)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMatrixSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        S = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(S @ S.T, np.diag([4.0, 9.0]), atol=1e-14)
        np.testing.assert_allclose(np.abs(S), np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_pd_reconstruction(self):
        rng = np.random.default_rng(42)
        M = rng.standard_normal((6, 6))
        R = M @ M.T
        S = matrix_sqrt_psd(R)
        assert np.linalg.norm(S @ S.T - R) / np.linalg.norm(R) < 1e-10

    def test_singular_psd_uses_eigh_fallback(self):
        # rank-deficient: Cholesky fails, eigendecomposition path must take over
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 3))
        R = M @ M.T
        S = matrix_sqrt_psd(R)
        assert np.linalg.norm(S @ S.T - R) <= 1e-8 * max(1.0, np.linalg.norm(R))

    def test_reconstruction_tolerance_sweep(self):
        rng = np.random.default_rng(11)
        for k in range(20):
            n = rng.integers(2, 12)
            M = rng.standard_normal((n, n))
            R = M @ M.T
            S = matrix_sqrt_psd(R)
            assert np.linalg.norm(S @ S.T - R) <= 1e-8 * max(1.0, np.linalg.norm(R))

    def test_rejects_asymmetric(self):
        R = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            matrix_sqrt_psd(R)

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrix):
            matrix_sqrt_psd(np.diag([1.0, -1e-6]))


class TestGeneralizedEigSym:
    @staticmethod
    def residual_ok(A, B, w, V):
        for lam, v in zip(w, V.T):
            res = np.linalg.norm(A @ v - lam * B @ v)
            bound = 1e-8 * (np.linalg.norm(A) + abs(lam) * np.linalg.norm(B))
            assert res <= bound, (lam, res, bound)

    def test_identity_b_reduces_to_standard(self):
        w, V = generalized_eig_sym(np.diag([3.0, 1.0]), np.eye(2), 1)
        np.testing.assert_allclose(w, [3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(V[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_degenerate_pair(self):
        # diag pencil: eigenvalues a_ii / b_ii = (2, 2); only residuals checked
        A = np.diag([2.0, 8.0])
        B = np.diag([1.0, 4.0])
        w, V = generalized_eig_sym(A, B, 2)
        np.testing.assert_allclose(w, [2.0, 2.0], atol=1e-12)
        self.residual_ok(A, B, w, V)

    def test_seeded_random_residuals(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((12, 12))
        A = M @ M.T
        N = rng.standard_normal((12, 12))
        B = N @ N.T + 12 * np.eye(12)
        w, V = generalized_eig_sym(A, B, 12)
        assert np.all(np.diff(w) <= 1e-12)  # non-increasing
        self.residual_ok(A, B, w, V)
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)

    def test_rejects_singular_b(self):
        with pytest.raises(SingularB):
            generalized_eig_sym(np.eye(3), np.diag([1.0, 1.0, 0.0]), 1)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            generalized_eig_sym(np.eye(3), np.eye(4), 1)


class TestKronRearrange:
    def test_exact_kronecker_becomes_outer_product(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        R = kron_rearrange(np.kron(B, C), KroneckerFactorDims(2, 2, 2, 2))
        np.testing.assert_array_equal(R, np.outer(vec(B), vec(C)))

    def test_scalar_left_factor_passthrough(self):
        rng = np.random.default_rng(5)
        V = random_complex(rng, (3, 4))
        R = kron_rearrange(V, (1, 1, 3, 4))
        np.testing.assert_array_equal(R, vec(V)[None, :])

    def test_frobenius_identity_random_pairs(self):
        rng = np.random.default_rng(77)
        V = random_complex(rng, (4, 4))
        dims = KroneckerFactorDims(2, 2, 2, 2)
        R = kron_rearrange(V, dims)
        for _ in range(10):
            B = random_complex(rng, (2, 2))
            C = random_complex(rng, (2, 2))
            lhs = np.linalg.norm(V - np.kron(B, C))
            rhs = np.linalg.norm(R - np.outer(vec(B), vec(C)))
            assert abs(lhs - rhs) < 1e-12

    def test_bijection_roundtrip(self):
        # un-rearranging = rearranging the transpose with swapped factor roles
        rng = np.random.default_rng(9)
        m1, n1, m2, n2 = 2, 3, 4, 5
        V = random_complex(rng, (m1 * m2, n1 * n2))
        R = kron_rearrange(V, (m1, n1, m2, n2))
        V_back = kron_rearrange(R.T, (n2, n1, m2, m1)).T
        np.testing.assert_array_equal(V_back, V)

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            kron_rearrange(np.zeros((4, 4)), (2, 2, 2, 3))


class TestRankOneFactor:
    def test_exact_rank_one_input(self):
        rng = np.random.default_rng(21)
        x = random_complex(rng, 4)
        x /= np.linalg.norm(x)
        y = random_complex(rng, 3)
        y /= np.linalg.norm(y)
        R = np.outer(x, y.conj())
        u, s, v = rank_one_factor(R)
        assert np.linalg.norm(R - s * np.outer(u, v.conj())) < 1e-12
        # equal to the inputs up to a common phase
        assert abs(abs(np.vdot(u, x)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(v, y)) - 1.0) < 1e-12
        assert abs(s - 1.0) < 1e-12

    def test_diagonal(self):
        u, s, v = rank_one_factor(np.diag([5.0, 1.0]))
        assert abs(s - 5.0) < 1e-14
        np.testing.assert_allclose(np.abs(u), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-14)

    def test_energy_identity_vs_full_svd(self):
        rng = np.random.default_rng(33)
        R = random_complex(rng, (6, 6))
        u, s, v = rank_one_factor(R)
        resid_sq = np.linalg.norm(R - s * np.outer(u, v.conj())) ** 2
        sigmas = np.linalg.svd(R, compute_uv=False)
        assert abs(resid_sq - np.sum(sigmas[1:] ** 2)) < 1e-10

    def test_optimality_vs_random_pairs(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            R = random_complex(rng, (5, 4))
            u, s, v = rank_one_factor(R)
            best = np.linalg.norm(R - s * np.outer(u, v.conj()))
            up = random_complex(rng, 5)
            up /= np.linalg.norm(up)
            vp = random_complex(rng, 4)
            vp /= np.linalg.norm(vp)
            c = np.vdot(up, R @ vp)  # optimal complex scale for this pair
            assert np.linalg.norm(R - c * np.outer(up, vp.conj())) >= best - 1e-12

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_matches_eigh_pair(self, shape):
        # The reference takes the top eigenvector of the same Gram matrix
        # from a full eigh.
        rng = np.random.default_rng(35)
        for _ in range(3):
            R = random_complex(rng, shape)
            u, s, v = rank_one_factor(R)
            if shape[0] <= shape[1]:
                u_ref = np.linalg.eigh(R @ R.conj().T)[1][:, -1]
                v_ref = R.conj().T @ u_ref
                s_ref = np.linalg.norm(v_ref)
            else:
                v_ref = np.linalg.eigh(R.conj().T @ R)[1][:, -1]
                u_ref = R @ v_ref
                s_ref = np.linalg.norm(u_ref)
            u_ref, v_ref = u_ref / np.linalg.norm(u_ref), v_ref / np.linalg.norm(v_ref)
            phase = np.vdot(u_ref, u) / abs(np.vdot(u_ref, u))
            np.testing.assert_allclose(u, phase * u_ref, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(v, phase * v_ref, rtol=0.0, atol=1e-10)
            assert abs(s - s_ref) <= 1e-12 * s_ref

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_exact_rank_one_residual(self, shape):
        rng = np.random.default_rng(36)
        x, y = random_complex(rng, shape[0]), random_complex(rng, shape[1])
        R = np.outer(x / np.linalg.norm(x), y.conj() / np.linalg.norm(y))
        u, s, v = rank_one_factor(R)
        assert np.linalg.norm(R - s * np.outer(u, v.conj())) <= 1e-12

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_near_degenerate_residual_matches_svd(self, shape):
        # sigma_1 / sigma_2 = 1 + 1e-6: the Gram matrix cannot separate the
        # top two vectors, so only the fit's residual is compared.
        rng = np.random.default_rng(34)
        k = min(shape)
        U, _ = np.linalg.qr(random_complex(rng, (shape[0], k)))
        V, _ = np.linalg.qr(random_complex(rng, (shape[1], k)))
        sigmas = np.r_[1.0 + 1e-6, 1.0, np.linspace(0.5, 0.01, k - 2)]
        R = (U * sigmas) @ V.conj().T
        u, s, v = rank_one_factor(R)
        resid = np.linalg.norm(R - s * np.outer(u, v.conj()))
        exact = np.sqrt(np.sum(np.linalg.svd(R, compute_uv=False)[1:] ** 2))
        assert abs(resid - exact) <= 1e-6 * exact
        assert abs(np.linalg.norm(u) - 1.0) < 1e-14
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14

    def test_rejects_zero(self):
        with pytest.raises(ZeroMatrix):
            rank_one_factor(np.zeros((3, 3)))


@pytest.fixture(scope="module")
def beam_design_inputs():
    """Kronecker-fit inputs of the first beam design of runs 0-3, default scenario."""
    cfg = ScenarioConfig()
    tx, rx = ArrayGeometry(cfg.M_T), ArrayGeometry(cfg.M_R)
    fn = make_channel_fn(cfg.L, tx, rx)
    inputs = []

    def recorded(R):
        inputs.append(np.array(R))
        return rank_one_factor(R)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beams, "rank_one_factor", recorded)
        for i in range(4):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]).spawn(4)[0])
            _, prior = generate_scenario(cfg, rng)
            stats = channel_statistics(sigma_points(prior.x_hat.x, prior.R, FILTER_PARAMS), fn)
            beams.design_beams(stats, tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
    return inputs


def _eigh_triplet(R):
    """Top singular triplet from a dense ``eigh`` of the smaller Gram matrix."""
    if R.shape[0] <= R.shape[1]:
        u = np.linalg.eigh(R @ R.conj().T)[1][:, -1]
        v = R.conj().T @ u
        s = np.linalg.norm(v)
        return u, s, v / s
    v = np.linalg.eigh(R.conj().T @ R)[1][:, -1]
    u = R @ v
    s = np.linalg.norm(u)
    return u / s, s, v


def _breakdown_factor(R):
    """``rank_one_factor`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return rank_one_factor(R)


class TestLanczosFit:
    def test_beam_design_inputs_match_dense_eigh(self, beam_design_inputs):
        assert len(beam_design_inputs) == 4
        for R in beam_design_inputs:
            sigmas = np.linalg.svd(R, compute_uv=False)
            # the top pair is well separated but not by much
            assert 0.8 < sigmas[1] / sigmas[0] < 0.99
            u, s, v = rank_one_factor(R)
            u_ref, s_ref, v_ref = _eigh_triplet(R)
            assert abs(s - s_ref) <= 1e-12 * s_ref
            phase = np.vdot(u_ref, u) / abs(np.vdot(u_ref, u))
            np.testing.assert_allclose(u, phase * u_ref, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(v, phase * v_ref, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("hard", [False, True])
    def test_no_linalg_call_on_a_gram_sized_matrix(self, beam_design_inputs, hard,
                                                   monkeypatch):
        # Only the k x k Lanczos tridiagonal is decomposed, never the Gram,
        # and k stays below 26, from which eigh wakes a second OpenBLAS
        # thread.  Random 96-square inputs need restarts.
        shapes = []
        for name in ("eigh", "eigvalsh", "eig", "svd", "solve", "cholesky", "qr", "inv"):
            def recorded(*args, _kernel=getattr(np.linalg, name), **kwargs):
                shapes.extend(a.shape for a in args if isinstance(a, np.ndarray))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        inputs = beam_design_inputs
        if hard:
            rng = np.random.default_rng(39)
            inputs = [random_complex(rng, (96, 96)) for _ in range(2)]
        for R in inputs:
            rank_one_factor(R)
        assert shapes
        assert max(max(shape) for shape in shapes) <= 25

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_exact_rank_one_triplet(self, shape):
        rng = np.random.default_rng(37)
        x, y = random_complex(rng, shape[0]), random_complex(rng, shape[1])
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        u, s, v = _breakdown_factor(3.0 * np.outer(x, y.conj()))
        assert abs(s - 3.0) <= 1e-12 * 3.0
        phase = np.vdot(x, u)
        assert abs(abs(phase) - 1.0) <= 1e-12
        np.testing.assert_allclose(u, phase * x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(v, phase * y, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_repeated_top_singular_value(self, shape):
        # Any unit vector of the top two-dimensional singular subspace is a
        # dominant pair; the fit must lie in it and carry sigma_1 exactly.
        rng = np.random.default_rng(38)
        k = min(shape)
        U, _ = np.linalg.qr(random_complex(rng, (shape[0], k)))
        V, _ = np.linalg.qr(random_complex(rng, (shape[1], k)))
        sigmas = np.r_[2.0, 2.0, np.linspace(1.0, 0.01, k - 2)]
        R = (U * sigmas) @ V.conj().T
        u, s, v = _breakdown_factor(R)
        assert abs(s - 2.0) <= 1e-12 * 2.0
        assert abs(np.linalg.norm(U[:, :2].conj().T @ u) - 1.0) <= 1e-12
        np.testing.assert_allclose(R.conj().T @ u, s * v, rtol=0.0, atol=1e-12)
        resid = np.linalg.norm(R - s * np.outer(u, v.conj()))
        assert abs(resid - np.sqrt(np.sum(sigmas[1:] ** 2))) <= 1e-12

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_single_nonzero_entry(self, shape):
        R = np.zeros(shape, dtype=complex)
        R[7, 29] = 2.0 - 1.5j
        u, s, v = _breakdown_factor(R)
        assert s == pytest.approx(2.5, rel=1e-15)
        np.testing.assert_allclose(s * np.outer(u, v.conj()), R, rtol=0.0, atol=1e-15)
        assert abs(u[7]) == pytest.approx(1.0, rel=1e-15)
        assert abs(v[29]) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("shape", [(96, 96), (40, 96), (96, 40)])
    def test_top_pair_outside_the_start(self, shape):
        # The longest row (norm^2 2.25) starts the iteration in an invariant
        # block whose sigma is 1.5; the top pair (sigma 2) lies outside it.
        R = np.zeros(shape)
        R[:2, :2] = 1.0
        R[2, 2] = 1.5
        u, s, v = _breakdown_factor(R)
        assert abs(s - 2.0) <= 1e-14
        np.testing.assert_allclose(np.abs(u[:3]), [0.5**0.5, 0.5**0.5, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:3]), [0.5**0.5, 0.5**0.5, 0.0], atol=1e-14)


class TestComplexToRealStacked:
    def test_imaginary_unit(self):
        np.testing.assert_array_equal(
            complex_to_real_stacked(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]]
        )

    def test_complex_identity(self):
        np.testing.assert_array_equal(
            complex_to_real_stacked(np.eye(2, dtype=complex)), np.eye(4)
        )

    def test_action_matches_complex_product(self):
        rng = np.random.default_rng(8)
        G = random_complex(rng, (2, 3))
        h = random_complex(rng, 3)
        stacked_h = np.concatenate([h.real, h.imag])
        out = complex_to_real_stacked(G) @ stacked_h
        ref = G @ h
        np.testing.assert_allclose(out, np.concatenate([ref.real, ref.imag]), atol=1e-14)

    def test_ring_homomorphism_on_square(self):
        rng = np.random.default_rng(13)
        G1 = random_complex(rng, (4, 4))
        G2 = random_complex(rng, (4, 4))
        lhs = complex_to_real_stacked(G1 @ G2)
        rhs = complex_to_real_stacked(G1) @ complex_to_real_stacked(G2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
