"""Tests for sounding operators and noisy observation generation."""

import numpy as np
import pytest

from beamtrack.channel import ArrayGeometry, real_channel_vectors, steering_vector
from beamtrack.errors import (
    DimensionMismatch,
    EmptyBeamSet,
    NonpositiveSnr,
    NotUnitNorm,
)
from beamtrack.sounding import (
    build_plan,
    noiseless_measurement,
    observation_map,
    observe,
)


def random_channel(rng, m_r, m_t):
    return rng.standard_normal((m_r, m_t)) + 1j * rng.standard_normal((m_r, m_t))


def stacked(H):
    v = H.reshape(-1, order="F")
    return np.concatenate([v.real, v.imag])


class TestBuildPlan:
    def test_scalar_plan(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(plan.G, [[1.0]])
        np.testing.assert_array_equal(plan.G_real, np.eye(2))

    def test_basis_beams_select_entry(self):
        F = np.array([[1.0], [0.0], [0.0]])  # transmit along antenna 1
        Z = np.array([[0.0], [1.0]])  # listen on antenna 2
        plan = build_plan(F, Z)
        rng = np.random.default_rng(0)
        H = random_channel(rng, 2, 3)
        out = plan.G @ H.reshape(-1, order="F")
        np.testing.assert_allclose(out, [H[1, 0]], atol=1e-15)

    def test_orthonormal_beams_give_unitary_operator(self):
        dft = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        plan = build_plan(dft, dft)
        np.testing.assert_allclose(plan.G @ plan.G.conj().T, np.eye(4), atol=1e-14)

    def test_renormalizes_slightly_off_beams(self):
        F = np.array([[1.0 + 5e-4]])
        with pytest.warns(UserWarning, match="renormalizing"):
            plan = build_plan(F, np.array([[1.0]]))
        np.testing.assert_allclose(np.linalg.norm(plan.F, axis=0), 1.0, atol=1e-12)

    def test_rejects_badly_scaled_beams(self):
        with pytest.raises(NotUnitNorm):
            build_plan(np.array([[2.0]]), np.array([[1.0]]))

    def test_rejects_empty_beam_set(self):
        with pytest.raises(EmptyBeamSet):
            build_plan(np.zeros((4, 0)), np.array([[1.0]]))


class TestObserve:
    def test_scalar_noiseless(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        y = noiseless_measurement(plan, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(y, [2.0, 0.0])

    def test_noiseless_matches_operator(self):
        rng = np.random.default_rng(5)
        # (M_T, N_T, M_R, N_R); the second shape tells the two vec axes apart
        for m_t, n_t, m_r, n_r in ((8, 3, 8, 3), (7, 2, 5, 3)):
            F, _ = np.linalg.qr(random_channel(rng, m_t, n_t))
            Z, _ = np.linalg.qr(random_channel(rng, m_r, n_r))
            plan = build_plan(F, Z)
            h = rng.standard_normal(2 * m_t * m_r)
            y = noiseless_measurement(plan, h)
            np.testing.assert_allclose(y, plan.G_real @ h, atol=1e-14)

    def test_noise_variance_calibration(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        rng = np.random.default_rng(9)
        rho = 10.0
        draws = np.array(
            [observe(plan, np.zeros(2), rho, rng).y_real for _ in range(50_000)]
        )
        emp = np.var(draws.ravel())  # 1e5 scalar noise samples
        np.testing.assert_allclose(emp, 1.0 / (2.0 * rho), rtol=0.05)

    def test_rejects_nonpositive_snr(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(NonpositiveSnr):
            observe(plan, np.zeros(2), 0.0, np.random.default_rng(0))

    def test_rejects_wrong_channel_length(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(DimensionMismatch):
            observe(plan, np.zeros(3), 1.0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        plan = build_plan(np.array([[1.0]]), np.array([[1.0]]))
        a = observe(plan, np.ones(2), 5.0, np.random.default_rng(3)).y_real
        b = observe(plan, np.ones(2), 5.0, np.random.default_rng(3)).y_real
        np.testing.assert_array_equal(a, b)


class TestNoiselessResponse:
    """The beam-space response Z^H H F, which noiseless_measurement stacks."""

    def test_identity_beams_pass_channel_through(self):
        rng = np.random.default_rng(2)
        H = random_channel(rng, 3, 3)
        plan = build_plan(np.eye(3), np.eye(3))
        np.testing.assert_allclose(
            noiseless_measurement(plan, stacked(H)), stacked(H), atol=1e-15
        )

    def test_matched_beams_capture_full_gain(self):
        m_t, m_r = 8, 4
        a_t = steering_vector(0.17, m_t)
        a_r = steering_vector(-0.31, m_r)
        H = np.outer(a_r, a_t.conj())
        plan = build_plan(
            (a_t / np.sqrt(m_t)).reshape(-1, 1), (a_r / np.sqrt(m_r)).reshape(-1, 1)
        )
        resp = noiseless_measurement(plan, stacked(H))
        np.testing.assert_allclose(resp, [np.sqrt(m_r * m_t), 0.0], atol=1e-12)

    def test_rejects_wrong_shape(self):
        plan = build_plan(np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatch):
            noiseless_measurement(plan, stacked(np.zeros((3, 3), dtype=complex)))


class TestOperatorIdentities:
    def test_vectorization_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            F, _ = np.linalg.qr(random_channel(rng, 6, 4))
            Z, _ = np.linalg.qr(random_channel(rng, 5, 3))
            plan = build_plan(F, Z)
            H = random_channel(rng, 5, 6)
            y = noiseless_measurement(plan, stacked(H))
            lhs = y[: y.shape[0] // 2] + 1j * y[y.shape[0] // 2 :]
            rhs = plan.G @ H.reshape(-1, order="F")
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_real_stacking_fidelity(self):
        rng = np.random.default_rng(22)
        F, _ = np.linalg.qr(random_channel(rng, 7, 2))
        Z, _ = np.linalg.qr(random_channel(rng, 6, 3))
        plan = build_plan(F, Z)
        H = random_channel(rng, 6, 7)
        np.testing.assert_allclose(
            noiseless_measurement(plan, stacked(H)), plan.G_real @ stacked(H), atol=1e-12
        )


class TestObservationMap:
    """The factored state-to-measurement map against the dense operator."""

    @pytest.mark.parametrize("L", [1, 4])
    def test_matches_dense_operator_on_channel_vectors(self, L):
        # Unequal antenna and beam counts on the two sides, so a transposed
        # or mis-ordered vec shows.
        rng = np.random.default_rng(40 + L)
        tx, rx = ArrayGeometry(7), ArrayGeometry(5)
        F, _ = np.linalg.qr(random_channel(rng, 7, 2))
        Z, _ = np.linalg.qr(random_channel(rng, 5, 3))
        plan = build_plan(F, Z)
        X = rng.standard_normal((9, 6 * L))
        dense = real_channel_vectors(X, L, tx, rx) @ plan.G_real.T
        got = observation_map(plan, L, tx, rx)(X)
        assert got.shape == (9, 2 * plan.num_soundings)
        assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)

    @pytest.mark.parametrize(
        "L, M, N, P",
        [(2, 8, 3, 25), (4, 16, 6, 49), (1, 16, 6, 13), (3, 7, 2, 37)],
        ids=["small-problem", "default", "one-path", "odd"],
    )
    def test_rows_do_not_depend_on_batch_position(self, L, M, N, P):
        # A state's measurement is the same bit for bit wherever it sits in
        # the batch and when it is measured alone.  Sigma points that share
        # the centre's channel then measure exactly the centre's value, and
        # add nothing to the update (test_factored_kernels pins that).
        rng = np.random.default_rng(60 + L)
        for _ in range(4):
            F, _ = np.linalg.qr(random_channel(rng, M, N))
            Z, _ = np.linalg.qr(random_channel(rng, M, N))
            measure = observation_map(build_plan(F, Z), L, ArrayGeometry(M), ArrayGeometry(M))
            X = rng.standard_normal((P, 6 * L))
            full = measure(X)
            perm = rng.permutation(P)
            np.testing.assert_array_equal(measure(X[perm]), full[perm])
            for p in range(P):
                np.testing.assert_array_equal(measure(X[p : p + 1])[0], full[p])

    def test_rejects_arrays_that_do_not_fit_the_beams(self):
        plan = build_plan(np.eye(3)[:, :2], np.eye(2))
        with pytest.raises(DimensionMismatch):
            observation_map(plan, 1, ArrayGeometry(2), ArrayGeometry(3))
