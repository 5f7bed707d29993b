"""Tests for the state-evolution model."""

import numpy as np
import pytest

from beamtrack.channel import ChannelState
from beamtrack.dynamics import (
    DynamicsModel,
    TransitionPair,
    advance_covariance,
    advance_truth,
    advance_truth_steps,
    build_transition,
    predicted_mean,
)
from beamtrack.errors import BadConfig, DimensionMismatch, NonpositiveStep

TS = 1e-4


def reference_model(L=1, beta=0.905, q=(1e-4, 1e2)):
    return DynamicsModel(L=L, beta=beta, T_S=TS, q_upsilon=np.array(q))


class TestBuildTransition:
    def test_position_block_at_reference_step(self):
        tp = build_transition(reference_model(), TS)
        np.testing.assert_allclose(tp.A[2:4, 2:4], [[1.0, TS], [0.0, 1.0]])
        np.testing.assert_allclose(tp.A[4:6, 4:6], [[1.0, TS], [0.0, 1.0]])

    def test_gain_noise_at_reference_step(self):
        tp = build_transition(reference_model(beta=0.905), TS)
        np.testing.assert_allclose(np.diagonal(tp.Q)[:2], 0.0904875, atol=1e-12)
        np.testing.assert_allclose(tp.A[:2, :2], 0.905 * np.eye(2))

    def test_no_fading_degenerates(self):
        tp = build_transition(reference_model(beta=1.0), TS)
        np.testing.assert_array_equal(tp.A[:2, :2], np.eye(2))
        np.testing.assert_array_equal(tp.Q[:2, :2], np.zeros((2, 2)))

    def test_position_noise_scales_with_step(self):
        tp = build_transition(reference_model(q=(1e-4, 1e2)), TS / 100.0)
        np.testing.assert_allclose(np.diagonal(tp.Q)[2:], [1e-6, 1.0, 1e-6, 1.0])

    def test_block_structure(self):
        tp = build_transition(reference_model(L=2), TS)
        assert tp.A.shape == (12, 12)
        # gain block never couples into the angle blocks
        np.testing.assert_array_equal(tp.A[:4, 4:], 0.0)
        np.testing.assert_array_equal(tp.A[4:, :4], 0.0)
        # Q is diagonal
        np.testing.assert_array_equal(tp.Q, np.diag(np.diagonal(tp.Q)))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(NonpositiveStep):
            build_transition(reference_model(), 0.0)
        with pytest.raises(NonpositiveStep):
            build_transition(reference_model(), -1e-4)

    def test_model_validation(self):
        with pytest.raises(BadConfig):
            DynamicsModel(L=0, beta=0.9, T_S=TS)
        with pytest.raises(BadConfig):
            DynamicsModel(L=1, beta=1.5, T_S=TS)
        with pytest.raises(BadConfig):
            DynamicsModel(L=1, beta=0.9, T_S=-1.0)
        with pytest.raises(BadConfig):
            DynamicsModel(L=1, beta=0.9, T_S=TS, q_upsilon=np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("L", [1, 4])
    @pytest.mark.parametrize("dt", [TS / 100.0, 2.5 * TS])
    def test_matches_entrywise_reference(self, L, dt):
        model = reference_model(L=L, beta=0.905, q=(3e-4, 7e1))
        beta_dt = 0.905 ** (dt / TS)
        A, Q = np.zeros((6 * L, 6 * L)), np.zeros((6 * L, 6 * L))
        for l in range(L):
            for i in (2 * l, 2 * l + 1):  # Re and Im of gain l
                A[i, i] = beta_dt
                Q[i, i] = (1.0 - beta_dt**2) / 2.0
            for side in (2 * L, 4 * L):  # position then velocity of path l
                pos, vel = side + 2 * l, side + 2 * l + 1
                A[pos, pos] = A[vel, vel] = 1.0
                A[pos, vel] = dt
                Q[pos, pos] = dt / TS * 3e-4
                Q[vel, vel] = dt / TS * 7e1
        tp = build_transition(model, dt)
        np.testing.assert_array_equal(tp.A, A)
        np.testing.assert_array_equal(tp.Q, Q)

    def test_two_half_steps_compose(self):
        model = reference_model(L=2, beta=0.905)
        half = build_transition(model, TS / 2.0)
        full = build_transition(model, TS)
        np.testing.assert_allclose(half.A @ half.A, full.A, rtol=1e-13)


class TestAdvanceTruth:
    def test_noiseless_velocity_integration(self):
        model = reference_model(beta=1.0, q=(0.0, 0.0))
        tp = build_transition(model, TS)
        st = ChannelState.from_parts([1.0], [0.0], [10.0], [0.0], [0.0])
        out = advance_truth(st, tp, np.random.default_rng(0))
        assert abs(out.tx_positions[0] - 1e-3) < 1e-15
        assert out.tx_velocities[0] == 10.0

    def test_frozen_angles_scaled_gains(self):
        # manually zeroed Q isolates the deterministic part
        tp_full = build_transition(reference_model(beta=0.5), TS)
        tp = TransitionPair(A=tp_full.A, Q=np.zeros_like(tp_full.Q))
        st = ChannelState.from_parts([2.0 + 2.0j], [0.3], [0.0], [-0.7], [0.0])
        out = advance_truth(st, tp, np.random.default_rng(1))
        np.testing.assert_allclose(out.gains, [1.0 + 1.0j], atol=1e-15)
        np.testing.assert_allclose(out.tx_positions, [0.3])
        np.testing.assert_allclose(out.rx_positions, [-0.7])

    def test_noise_covariance_matches_q(self):
        q_diag = np.array([0.09, 0.09, 1e-4, 1e2, 1e-4, 1e2])
        tp = TransitionPair(A=np.eye(6), Q=np.diag(q_diag))
        st = ChannelState(1, np.zeros(6))
        rng = np.random.default_rng(42)
        samples = np.array([advance_truth(st, tp, rng).x for _ in range(100_000)])
        emp = np.var(samples, axis=0)
        np.testing.assert_allclose(emp, q_diag, rtol=0.05)

    def test_gain_stationarity(self):
        model = reference_model(beta=0.905, q=(0.0, 0.0))
        tp = build_transition(model, TS)
        rng = np.random.default_rng(7)
        st = ChannelState.from_parts(
            [(rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)],
            [0.0], [0.0], [0.0], [0.0],
        )
        trace = np.empty((100_000, 2))
        for i in range(trace.shape[0]):
            st = advance_truth(st, tp, rng)
            trace[i] = st.x[:2]
        # each real component settles at variance 1/2, so |gain|^2 has unit mean
        np.testing.assert_allclose(np.var(trace, axis=0), 0.5, rtol=0.10)
        power = np.mean(np.sum(trace**2, axis=1))
        assert 0.9 < power < 1.1

    def test_dimension_check(self):
        tp = build_transition(reference_model(L=2), TS)
        with pytest.raises(DimensionMismatch):
            advance_truth(ChannelState(1, np.zeros(6)), tp, np.random.default_rng(0))

    def test_matches_noiseless_transition(self):
        model = reference_model(beta=0.8, q=(0.0, 0.0))
        full = build_transition(model, TS)
        tp = TransitionPair(A=full.A, Q=np.zeros_like(full.Q))
        st = ChannelState.from_parts([1.0 - 0.5j], [0.2], [3.0], [-0.1], [-4.0])
        truth = advance_truth(st, tp, np.random.default_rng(3))
        np.testing.assert_allclose(truth.x, tp.A @ st.x, atol=1e-15)


class TestAdvanceTruthSteps:
    @pytest.mark.parametrize("L", [1, 4])
    @pytest.mark.parametrize("steps", [1, 2, 100])
    def test_rows_equal_successive_one_step_calls(self, L, steps):
        tp = build_transition(reference_model(L=L), 1e-6)
        x0 = np.random.default_rng(20 + L).standard_normal(6 * L) * 100.0
        rng_block, rng_calls, rng_draws = (np.random.default_rng(9) for _ in range(3))
        rows = advance_truth_steps(x0, tp, rng_block, steps)
        assert rows.shape == (steps, 6 * L)
        state, x = ChannelState(L, x0), x0
        for row in rows:
            state = advance_truth(state, tp, rng_calls)
            # the recurrence spelled out with one noise draw per step
            x = tp.A @ x + np.sqrt(np.diagonal(tp.Q)) * rng_draws.standard_normal(6 * L)
            np.testing.assert_array_equal(row, state.x)
            np.testing.assert_array_equal(row, x)
        # the generator is left where the one-step calls leave it
        after = [rng.standard_normal() for rng in (rng_block, rng_calls, rng_draws)]
        assert after[0] == after[1] == after[2]

    def test_dimension_check(self):
        tp = build_transition(reference_model(L=2), TS)
        with pytest.raises(DimensionMismatch):
            advance_truth_steps(np.zeros(6), tp, np.random.default_rng(0), 3)


class TestPredictedMean:
    def test_matches_transition_matrix(self):
        model = reference_model(L=3, beta=0.905)
        x = np.random.default_rng(12).standard_normal(18) * np.tile([1.0, 1e3], 9)
        horizons = np.array([1e-7, 3.3e-5, TS, 2.5 * TS])
        out = predicted_mean(model, x, horizons)
        assert out.shape == (4, 18)
        for row, h in zip(out, horizons):
            np.testing.assert_allclose(row, build_transition(model, h).A @ x, rtol=1e-14)
        np.testing.assert_array_equal(predicted_mean(model, x, horizons[2]), out[2])

    def test_zero_horizon_is_identity(self):
        x = np.arange(12.0)
        np.testing.assert_array_equal(predicted_mean(reference_model(L=2), x, 0.0), x)

    def test_rejects_negative_horizon(self):
        with pytest.raises(NonpositiveStep):
            predicted_mean(reference_model(), np.zeros(6), [1e-4, -1e-4])


class TestAdvanceCovariance:
    def test_zero_covariance_returns_q(self):
        tp = build_transition(reference_model(), TS)
        np.testing.assert_array_equal(advance_covariance(np.zeros((6, 6)), tp), tp.Q)

    def test_identity_transition_adds_q(self):
        q = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        tp = TransitionPair(A=np.eye(6), Q=q)
        R = np.diag([0.5] * 6)
        np.testing.assert_allclose(advance_covariance(R, tp), R + q)

    def test_propagation_identity(self):
        rng = np.random.default_rng(11)
        tp = build_transition(reference_model(L=2), TS)
        M = rng.standard_normal((12, 12))
        R = M @ M.T
        out = advance_covariance(R, tp)
        np.testing.assert_allclose(out - tp.A @ R @ tp.A.T, tp.Q, atol=1e-12)
        np.testing.assert_array_equal(out, out.T)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_dimension_check(self):
        tp = build_transition(reference_model(), TS)
        with pytest.raises(DimensionMismatch):
            advance_covariance(np.zeros((4, 4)), tp)
