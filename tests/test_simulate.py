"""Tests for scenario generation, the frame loop, and metric aggregation."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamtrack.sounding
from beamtrack.channel import (
    ArrayGeometry,
    ChannelState,
    channel_matrix,
    steering_factors,
    steering_vector,
)
from beamtrack.dynamics import advance_truth, build_transition
from beamtrack.errors import BadConfig, EmptyInput, ZeroChannel
from beamtrack.simulate import (
    DIVERGENCE_NORM,
    MIN_BETA,
    RunRecord,
    ScenarioConfig,
    _BLAS_THREAD_VARS,
    _beam_gains,
    _dominant_beams,
    _empty_record,
    _initial_covariance,
    _noisy_estimate,
    _spectral_gains,
    aggregate_runs,
    generate_scenario,
    median_and_quantiles,
    run_frame,
    run_many,
    snr_loss_ratio,
    sound,
)
from beamtrack.sounding import build_plan
from beamtrack.tracker import predict


def small_config(**overrides):
    fields = dict(
        L=1,
        M_T=4,
        M_R=4,
        N_T=2,
        N_R=2,
        frame_length=5e-4,
        fine_step=1e-5,
        sigma_vdot=100.0,
        num_runs=2,
        seed=7,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def per_step_reference(cfg, run_index=0) -> RunRecord:
    """run_frame as one scalar step per fine-grid instant.

    Advances the truth with advance_truth, forms every channel matrix, takes
    spectral norms and dominant singular vectors from dense SVDs, and
    predicts the held estimate with build_transition over each horizon.  It
    shares run_frame's seed streams, starting state and sounding step,
    ``sound``.
    """
    tx, rx = cfg.arrays()
    model = cfg.dynamics()
    tp_fine = build_transition(model, cfg.fine_step)
    tp_obs = build_transition(model, cfg.T_S)
    seq = np.random.SeedSequence([cfg.seed, run_index])
    rng_scenario, rng_truth, rng_obs, rng_oneshot = (
        np.random.default_rng(s) for s in seq.spawn(4)
    )
    truth, ts = generate_scenario(cfg, rng_scenario)
    rec = _empty_record(cfg)
    n_fine, per_obs = cfg.num_fine_steps, cfg.steps_per_period

    def healthy(x):
        return np.all(np.isfinite(x)) and np.linalg.norm(x) < DIVERGENCE_NORM

    def beams(state):
        u, _, vh = np.linalg.svd(channel_matrix(state, tx, rx))
        return vh[0].conj(), u[:, 0]

    def loss(H, gain, f, z):
        return np.abs(z.conj() @ H @ f) ** 2 / gain

    for i in range(n_fine):
        t = i * cfg.fine_step
        if i > 0:
            truth = advance_truth(truth, tp_fine, rng_truth)
        if not healthy(truth.x):
            rec.diverged = True
            break
        if i % per_obs == 0:
            k = i // per_obs
            if k > 0:
                ts = predict(ts, tp_obs)
            ts, rec.innovation_norms[k] = sound(ts, truth.x, cfg, k, rng_obs)
            if not healthy(ts.x_hat.x):
                rec.diverged = True
                break
            rec.trace_wr[k] = np.trace(ts.R)
            period_start = t
            held = beams(ts.x_hat)
            oneshot = beams(_noisy_estimate(truth, cfg, rng_oneshot))

        H = channel_matrix(truth, tx, rx)
        gain = np.linalg.norm(H, 2) ** 2
        rec.tracked_loss[i] = loss(H, gain, *held)
        rec.oneshot_loss[i] = loss(H, gain, *oneshot)
        horizon = t - period_start
        if horizon > 0.0:
            A = build_transition(model, horizon).A
            predicted = beams(ChannelState(cfg.L, A @ ts.x_hat.x))
            rec.prediction_gain[i] = loss(H, gain, *predicted) / max(
                rec.tracked_loss[i], 1e-300
            )
        else:
            rec.prediction_gain[i] = 1.0
        rec.true_tx[i] = truth.tx_positions
        rec.est_tx[i] = ts.x_hat.tx_positions
        rec.true_rx[i] = truth.rx_positions
        rec.est_rx[i] = ts.x_hat.rx_positions
    return rec


TRAJECTORIES = ("true_tx", "est_tx", "true_rx", "est_rx", "trace_wr", "innovation_norms")
METRICS = ("tracked_loss", "oneshot_loss", "prediction_gain")


class TestScenarioConfig:
    def test_reference_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.L, cfg.M_T, cfg.N_T) == (4, 16, 6)
        assert cfg.num_fine_steps == 5000
        assert cfg.num_observations == 50
        assert cfg.steps_per_period == 100
        np.testing.assert_allclose(cfg.rho, 10.0)
        np.testing.assert_allclose(cfg.sigma_vdot, 79.78845608, rtol=1e-8)

    def test_rejects_nondividing_fine_step(self):
        with pytest.raises(BadConfig):
            ScenarioConfig(fine_step=3e-5)

    def test_rejects_partial_period(self):
        with pytest.raises(BadConfig):
            ScenarioConfig(frame_length=2.5e-4)

    def test_rejects_beam_overflow(self):
        with pytest.raises(BadConfig):
            ScenarioConfig(N_T=17)

    def test_beta_floor(self):
        assert ScenarioConfig(beta=MIN_BETA).beta == MIN_BETA
        with pytest.raises(BadConfig, match="underflow"):
            ScenarioConfig(beta=MIN_BETA / 10.0)

    def test_rejects_bad_first_period_count(self):
        with pytest.raises(BadConfig):
            ScenarioConfig(first_N_T=17)
        with pytest.raises(BadConfig):
            ScenarioConfig(first_N_R=0)


class TestGenerateScenario:
    def test_perfect_initializer(self):
        cfg = small_config(
            init_pos_var=0.0, init_vel_var=0.0, init_gain_var=0.0, sigma_vdot=0.0
        )
        truth, prior = generate_scenario(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(prior.x_hat.x, truth.x)
        np.testing.assert_array_equal(prior.R, np.zeros((6, 6)))

    @pytest.mark.parametrize("L", [1, 4])
    def test_initial_covariance_matches_entrywise_reference(self, L):
        cfg = small_config(L=L, init_pos_var=0.3, init_vel_var=2e5, init_gain_var=0.02)
        expected = np.zeros((6 * L, 6 * L))
        for l in range(L):
            expected[2 * l, 2 * l] = expected[2 * l + 1, 2 * l + 1] = 0.02 / 2.0
            for side in (2 * L, 4 * L):
                expected[side + 2 * l, side + 2 * l] = 0.3
                expected[side + 2 * l + 1, side + 2 * l + 1] = 2e5
        np.testing.assert_array_equal(_initial_covariance(cfg), expected)

    def test_initial_covariance_layout(self):
        cfg = small_config(init_pos_var=0.1, init_vel_var=1e6, init_gain_var=0.01)
        _, prior = generate_scenario(cfg, np.random.default_rng(1))
        np.testing.assert_allclose(
            np.diagonal(prior.R), [0.005, 0.005, 0.1, 1e6, 0.1, 1e6]
        )

    def test_rayleigh_speed_magnitude(self):
        cfg = small_config(L=100, sigma_vdot=100.0 * np.sqrt(2.0 / np.pi))
        rng = np.random.default_rng(2)
        speeds = np.concatenate(
            [
                generate_scenario(cfg, rng)[0].tx_velocities
                for _ in range(1000)
            ]
        )
        assert 95.0 < np.mean(np.abs(speeds)) < 105.0
        # signs are balanced
        assert abs(np.mean(np.sign(speeds))) < 0.05

    def test_unit_mean_gain_power(self):
        cfg = small_config(L=100)
        rng = np.random.default_rng(3)
        gains = np.concatenate(
            [generate_scenario(cfg, rng)[0].gains for _ in range(1000)]
        )
        assert 0.95 < np.mean(np.abs(gains) ** 2) < 1.05

    def test_position_estimate_statistics(self):
        cfg = small_config(L=100, init_pos_var=0.1)
        rng = np.random.default_rng(4)
        errs = []
        for _ in range(200):
            truth, prior = generate_scenario(cfg, rng)
            errs.append(prior.x_hat.tx_positions - truth.tx_positions)
        errs = np.concatenate(errs)
        np.testing.assert_allclose(np.var(errs), 0.1, rtol=0.1)
        assert abs(np.mean(errs)) < 0.01


class TestSnrLossRatio:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(10)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(snr_loss_ratio(H, H) - 1.0) < 1e-12

    def test_orthogonal_estimate(self):
        M = 8
        a_t, a_r = steering_vector(0.1, M), steering_vector(-0.2, M)
        H_true = np.outer(a_r, a_t.conj())
        # steering vectors 1/M apart in spatial angle are exactly orthogonal
        H_est = np.outer(
            steering_vector(-0.2 + 1.0 / M, M), steering_vector(0.1 + 1.0 / M, M).conj()
        )
        assert snr_loss_ratio(H_true, H_est) < 1e-20

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            H_true = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            H_est = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            r = snr_loss_ratio(H_true, H_est)
            assert 0.0 <= r <= 1.0 + 1e-12

    def test_rejects_zero_channels(self):
        H = np.eye(4, dtype=complex)
        with pytest.raises(ZeroChannel):
            snr_loss_ratio(np.zeros((4, 4)), H)
        with pytest.raises(ZeroChannel):
            snr_loss_ratio(H, np.zeros((4, 4)))


def path_factors(nu_t, nu_r, gains, M_T, M_R):
    """A one-channel stack of factors for paths at the given spatial angles."""
    a_t = np.stack([steering_vector(nu, M_T) for nu in nu_t], axis=-1)
    a_r = np.stack([steering_vector(nu, M_R) for nu in nu_r], axis=-1)
    return np.asarray(gains, dtype=complex)[None], a_t[None], a_r[None]


def _random_gains(rng, L):
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


_G = _random_gains(np.random.default_rng(20), 2)
_R = np.random.default_rng(21)
CORE_STACKS = {
    # a_t has rank one: its QR has a zero on the diagonal of r_t
    "one-tx-angle": path_factors([0.1, 0.1], [0.2, -0.3], _G, 8, 8),
    # nu = +1/2 and -1/2 give the same steering vector on both sides
    "nu-plus-minus-half": path_factors(
        [0.5, -0.5, 0.2], [-0.5, 0.5, 0.1], np.r_[_G, 0.3j], 8, 8
    ),
    # g and -g on paths 1e-9 apart: the channel is 1e-7 of its path sum
    "cancelling-gains": path_factors(
        [0.1, 0.1 + 1e-9], [0.2, 0.2 + 1e-9], [_G[0], -_G[0]], 8, 8
    ),
    "L-above-M": path_factors(
        _R.uniform(-0.5, 0.5, 6), _R.uniform(-0.5, 0.5, 6), _random_gains(_R, 6), 4, 4
    ),
    "L-one": path_factors([0.3], [-0.1], [0.5 - 1.0j], 8, 6),
}


class TestChannelCore:
    """The factored kernels against a dense SVD of the formed channel."""

    @pytest.mark.parametrize("name", list(CORE_STACKS))
    def test_matches_dense_svd(self, name):
        gains, a_t, a_r = CORE_STACKS[name]
        H = a_r[0] @ np.diag(gains[0]) @ a_t[0].conj().T
        u, s, vh = np.linalg.svd(H)
        # Rounding in the factors is relative to the path sum, which bounds
        # the spectral norm; where paths cancel, the channel is defined only
        # to that scale.  Elsewhere the path sum is within a small factor of
        # s[0].
        path_norms = np.linalg.norm(a_t[0], axis=0) * np.linalg.norm(a_r[0], axis=0)
        scale = np.sum(np.abs(gains[0]) * path_norms)
        tol = 1e-12 * scale
        spectral = _spectral_gains(gains, a_t, a_r)
        assert spectral.shape == (1,)
        assert abs(np.sqrt(spectral[0]) - s[0]) <= tol
        if name != "cancelling-gains":
            assert abs(spectral[0] / s[0] ** 2 - 1.0) <= 1e-12
        f, z = (beam[0] for beam in _dominant_beams(gains, a_t, a_r))
        np.testing.assert_allclose([np.linalg.norm(f), np.linalg.norm(z)], 1.0, rtol=1e-12)
        # (s[0], z, f) is a singular triplet of H to within rounding.
        assert np.linalg.norm(H @ f - s[0] * z) <= tol
        assert np.linalg.norm(H.conj().T @ z - s[0] * f) <= tol
        achieved = np.sqrt(_beam_gains(gains, a_t, a_r, f, z)[0])
        assert abs(achieved - abs(z.conj() @ H @ f)) <= tol
        assert abs(achieved - s[0]) <= tol

    def test_random_channels_lose_no_gain(self):
        # The "loss <= 0 dB" property: no beam pair captures more than the
        # spectral gain, including the channel's own dominant pair.
        rng = np.random.default_rng(22)
        L, geom = 4, ArrayGeometry(16)
        X = rng.standard_normal((10_000, 6 * L))
        true = steering_factors(X, L, geom, geom)
        spectral = _spectral_gains(*true)
        X_est = X + 0.05 * rng.standard_normal(X.shape)
        for f, z in (
            _dominant_beams(*true),
            _dominant_beams(*steering_factors(X_est, L, geom, geom)),
        ):
            ratio = _beam_gains(*true, f, z) / spectral
            assert np.all(ratio <= 1.0 + 1e-12)
            assert np.all(ratio >= 0.0)
        own = _beam_gains(*true, *_dominant_beams(*true)) / spectral
        np.testing.assert_allclose(own, 1.0, rtol=0.0, atol=1e-12)


class TestRunFrame:
    def test_timeline_shape(self):
        rec = run_frame(small_config(), 0)
        assert rec.times.shape == (50,)
        assert rec.obs_times.shape == (5,)
        assert not rec.diverged
        assert np.all(np.isfinite(rec.tracked_loss))

    def test_loss_ratios_bounded(self):
        rec = run_frame(small_config(), 0)
        for arr in (rec.tracked_loss, rec.oneshot_loss):
            assert np.all(arr >= 0.0)
            assert np.all(arr <= 1.0 + 1e-9)

    def test_prediction_gain_is_one_at_soundings(self):
        rec = run_frame(small_config(), 0)
        np.testing.assert_allclose(rec.prediction_gain[::10], 1.0, atol=1e-12)

    def test_deterministic(self):
        cfg = small_config()
        a, b = run_frame(cfg, 1), run_frame(cfg, 1)
        np.testing.assert_array_equal(a.tracked_loss, b.tracked_loss)
        np.testing.assert_array_equal(a.est_tx, b.est_tx)
        np.testing.assert_array_equal(a.innovation_norms, b.innovation_norms)

    def test_runs_differ_by_index(self):
        cfg = small_config()
        a, b = run_frame(cfg, 0), run_frame(cfg, 1)
        assert not np.array_equal(a.tracked_loss, b.tracked_loss)

    def test_static_perfect_tracking(self):
        cfg = small_config(
            beta=1.0,
            q_upsilon=(0.0, 0.0),
            sigma_vdot=0.0,
            init_pos_var=0.0,
            init_vel_var=0.0,
            init_gain_var=0.0,
        )
        rec = run_frame(cfg, 0)
        np.testing.assert_allclose(rec.tracked_loss, 1.0, atol=1e-9)
        np.testing.assert_allclose(rec.prediction_gain, 1.0, atol=1e-9)
        np.testing.assert_allclose(rec.oneshot_loss, 1.0, atol=1e-9)

    def test_first_period_beam_count_changes_trajectory(self):
        base = run_frame(small_config(), 0)
        wide = run_frame(small_config(first_N_T=4, first_N_R=4), 0)
        assert not wide.diverged
        assert not np.array_equal(base.est_tx, wide.est_tx)

    def test_first_period_count_equal_to_steady_state_is_identity(self):
        base = run_frame(small_config(), 0)
        same = run_frame(small_config(first_N_T=2, first_N_R=2), 0)
        np.testing.assert_array_equal(base.tracked_loss, same.tracked_loss)
        np.testing.assert_array_equal(base.est_tx, same.est_tx)

    def test_divergent_run_is_flagged_not_raised(self):
        cfg = small_config(q_upsilon=(1e30, 1e30))
        rec = run_frame(cfg, 0)
        assert rec.diverged
        assert np.any(np.isnan(rec.tracked_loss))


class TestRunFrameMatchesPerStepLoop:
    """run_frame's per-period array work against the scalar per-step loop."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # 400 fine steps per period: several metric blocks per period
            {"fine_step": 2.5e-7, "frame_length": 2e-4},
            # more paths than antennas: the channel core has rank min(M, L)
            {"L": 4, "M_T": 2, "M_R": 2, "frame_length": 3e-4},
        ],
        ids=["small", "long-period", "L-above-M"],
    )
    def test_metrics_and_trajectories(self, overrides):
        cfg = small_config(**overrides)
        batched, scalar = run_frame(cfg, 0), per_step_reference(cfg, 0)
        assert not batched.diverged and not scalar.diverged
        for name in TRAJECTORIES:
            np.testing.assert_array_equal(getattr(batched, name), getattr(scalar, name))
        for name in METRICS:
            np.testing.assert_allclose(
                getattr(batched, name), getattr(scalar, name), rtol=1e-12, atol=0.0
            )

    def test_divergence_mid_period_stops_at_same_step(self):
        # velocity noise walks the truth past DIVERGENCE_NORM at fine step 15,
        # the sixth of the second period
        cfg = small_config(q_upsilon=(0.0, 2e17), frame_length=3e-4)
        batched, scalar = run_frame(cfg, 0), per_step_reference(cfg, 0)
        assert batched.diverged and scalar.diverged
        stop = int(np.argmax(np.isnan(scalar.true_tx[:, 0])))
        assert stop == 15
        for name in TRAJECTORIES + METRICS:
            a, b = getattr(batched, name), getattr(scalar, name)
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        for name in TRAJECTORIES:
            np.testing.assert_array_equal(getattr(batched, name), getattr(scalar, name))
        for name in METRICS:
            np.testing.assert_allclose(
                getattr(batched, name), getattr(scalar, name), rtol=1e-12, atol=0.0
            )


class _NumpyWithoutKron:
    """numpy as seen from a module whose np.kron must not be called."""

    def __getattr__(self, name):
        if name == "kron":
            raise AssertionError("np.kron called on the run path")
        return getattr(np, name)


class TestFactoredSounding:
    def test_run_path_forms_no_sounding_operator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("complex_to_real_stacked called on the run path")

        monkeypatch.setattr(beamtrack.sounding, "np", _NumpyWithoutKron())
        monkeypatch.setattr(beamtrack.sounding, "complex_to_real_stacked", forbidden)
        with pytest.raises(AssertionError):
            build_plan(np.eye(2), np.eye(2)).G_real
        rec = run_frame(small_config(L=2, frame_length=3e-4), 0)
        assert not rec.diverged
        assert np.all(np.isfinite(rec.innovation_norms))


# Runs a short default frame and writes every array of its RunRecord.
_RUN_SCRIPT = """
import dataclasses, sys
import numpy as np
from beamtrack.simulate import ScenarioConfig, run_frame
rec = run_frame(ScenarioConfig(frame_length=5e-4), 0)
arrays = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
np.savez(sys.stdout.buffer, **arrays)
"""


def _run_record_in_subprocess(threads):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update({name: str(threads) for name in _BLAS_THREAD_VARS})
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_SCRIPT], env=env, capture_output=True, check=True
    )
    with np.load(io.BytesIO(proc.stdout)) as data:
        return {name: data[name] for name in data.files}


def test_run_is_bit_identical_at_one_and_two_blas_threads():
    one, two = _run_record_in_subprocess(1), _run_record_in_subprocess(2)
    assert one.keys() == two.keys()
    assert not one["diverged"]
    for name in one:
        np.testing.assert_array_equal(one[name], two[name], err_msg=name)
        assert one[name].tobytes() == two[name].tobytes(), name



# Runs a five-period default frame, then Kronecker fits of random 96-square
# matrices, which take restarts, and reports each thread's CPU time in ns,
# read from schedstat, first for the main thread.  Before reading, it waits
# until the BLAS threads, which spin for a while after they start, are idle.
_THREAD_CPU_SCRIPT = """
import json, os, threading, time
import numpy as np
from beamtrack.numerics import rank_one_factor
from beamtrack.simulate import ScenarioConfig, run_frame

def cpu_ns():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/schedstat") as f:
            out[int(tid)] = int(f.read().split()[0])
    return out

main = threading.get_native_id()
before = cpu_ns()
for _ in range(40):
    time.sleep(0.05)
    now = cpu_ns()
    settled = all(now[t] == before.get(t) for t in now if t != main)
    before = now
    if settled:
        break
run_frame(ScenarioConfig(frame_length=5e-4), 0)
rng = np.random.default_rng(40)
for _ in range(3):
    rank_one_factor(rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96)))
after = cpu_ns()
print(json.dumps([after[main] - before[main]]
                 + [after[t] - before.get(t, 0) for t in after if t != main]))
"""


def _numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no per-thread schedstat")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) < 2,
    reason="fewer than 2 CPUs",
)
def test_default_run_wakes_no_second_blas_thread():
    """At two OpenBLAS threads, a default run and Kronecker fits leave other threads idle.

    The other threads must use under 5 % of the main thread's CPU.

    A BLAS call above OpenBLAS's threading threshold wakes a worker, which
    then spins until its next job or a timeout, so even rare calls show.
    """
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = "2"
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_CPU_SCRIPT], env=env, capture_output=True,
        check=True, text=True,
    )
    main, *others = json.loads(proc.stdout)
    if not others:
        pytest.skip("OpenBLAS started no worker thread")
    assert main > 0
    assert sum(others) < 0.05 * main, (main, others)


class TestRunMany:
    def test_parallel_matches_serial(self):
        cfg = small_config(num_runs=3)
        serial = run_many(cfg, max_workers=1)
        parallel = run_many(cfg, max_workers=3)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.tracked_loss, b.tracked_loss)
            np.testing.assert_array_equal(a.trace_wr, b.trace_wr)


class TestAggregateRuns:
    LEVELS = (0.1, 0.25, 0.75)
    ARMS = ("tracked_loss", "oneshot_loss", "prediction_gain")

    def test_permutation_invariant(self):
        recs = run_many(small_config(num_runs=4), max_workers=1)
        assert aggregate_runs(recs, self.LEVELS) == aggregate_runs(recs[::-1], self.LEVELS)

    def test_diverged_runs_excluded(self):
        good = run_frame(small_config(), 0)
        bad = run_frame(small_config(q_upsilon=(1e30, 1e30)), 0)
        assert bad.diverged
        summary = aggregate_runs([good, bad], self.LEVELS)
        assert (summary["num_runs"], summary["num_diverged"]) == (2, 1)
        alone = aggregate_runs([good], self.LEVELS)
        for arm in self.ARMS:
            assert summary[arm] == alone[arm], arm

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate_runs([], self.LEVELS)
        bad = run_frame(small_config(q_upsilon=(1e30, 1e30)), 0)
        with pytest.raises(EmptyInput, match="all 2 runs diverged"):
            aggregate_runs([bad, bad], self.LEVELS)

    def test_quantiles_equal_nan_reductions_bit_for_bit(self):
        recs = run_many(small_config(num_runs=4), max_workers=1)
        recs[2].tracked_loss[3] = np.nan  # a NaN is dropped from its arm's pool
        summary = aggregate_runs(recs, self.LEVELS)
        assert (summary["num_runs"], summary["num_diverged"]) == (4, 0)
        for arm in self.ARMS:
            pool = np.concatenate([getattr(r, arm) for r in recs])
            got = summary[arm]
            assert np.float64(got["median"]).tobytes() == np.nanmedian(pool).tobytes(), arm
            for q, value in zip(self.LEVELS, got["quantiles"], strict=True):
                expected = np.nanquantile(pool, q)
                assert np.float64(value).tobytes() == expected.tobytes(), (arm, q)


class TestMedianAndQuantiles:
    LEVELS = (0.01, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1 - 2**-53)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 600, 601])
    def test_equal_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        distinct = rng.standard_normal(n)
        ties = np.round(rng.standard_normal((n, 5)), 1) + 0.0  # + 0.0: no -0.0
        for values in (distinct, ties):
            median, quantiles = median_and_quantiles(values, self.LEVELS)
            assert median.tobytes() == np.median(values, axis=0).tobytes()
            for q, got in zip(self.LEVELS, quantiles):
                expected = np.quantile(values, q, axis=0)
                assert np.asarray(got).tobytes() == expected.tobytes(), q

    def test_single_negative_zero_keeps_numpys_sign(self):
        values = np.array([-0.0])
        median, quantiles = median_and_quantiles(values, self.LEVELS)
        got = np.signbit([median, *quantiles])
        expected = np.signbit([np.median(values), *np.quantile(values, self.LEVELS)])
        np.testing.assert_array_equal(got, expected)
