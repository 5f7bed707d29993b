"""Acceptance suite: end-to-end numeric gates for the whole package.

Each test prints one ``acceptance N: ... -> PASS/FAIL`` line (visible with
``pytest -s``, or in the captured output of any failing test) and asserts the
same condition, so the suite doubles as a release checklist.  Criteria 6-8
share one cached batch of twenty full-scale reference runs.
"""

import time

import numpy as np
import pytest

from beamtrack.beams import baseline_beams, design_beams
from beamtrack.channel import ArrayGeometry, ChannelState
from beamtrack.cli import (
    check_kronecker_recovery,
    check_sigma_moments,
    check_ukf_matches_kf,
    cmd_simulate,
)
from beamtrack.dynamics import DynamicsModel, advance_truth, build_transition
from beamtrack.numerics import generalized_eig_sym
from beamtrack.simulate import ScenarioConfig, generate_scenario, run_many
from beamtrack.sounding import build_plan, observation_map, observe
from beamtrack.tracker import (
    TrackerState,
    UkfParams,
    channel_statistics,
    make_channel_fn,
    sigma_points,
    update,
)


# One verdict line per criterion, echoed inline and replayed after the run
# by the terminal-summary hook in conftest.py (plain ``pytest`` output only
# shows inline prints for failing tests).
VERDICTS: list[str] = []


def _report(num: int, description: str, detail: str, ok: bool) -> None:
    line = f"acceptance {num:2d}: {description}: {detail} -> {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line, flush=True)


def _random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A @ A.T / n


@pytest.fixture(scope="module")
def reference_batch():
    """Twenty seeded runs of the reference experiment, shared by tests 6-8."""
    cfg = ScenarioConfig()
    start = time.perf_counter()
    records = run_many(cfg)
    elapsed = time.perf_counter() - start
    clean = [r for r in records if not r.diverged]
    assert clean, "every reference run diverged"
    return cfg, clean, elapsed


class TestAcceptance:
    def test_01_unscented_update_matches_kalman_on_linear_map(self):
        start = time.perf_counter()
        worst = check_ukf_matches_kf()
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 5.0
        _report(
            1,
            "unscented filter equals Kalman filter on a linear map over 100 steps",
            f"max-abs deviation {worst:.2e} (tol 1e-8), {elapsed:.2f}s (limit 5s)",
            ok,
        )
        assert ok

    def test_02_sigma_points_reconstruct_moments(self):
        worst = check_sigma_moments()
        ok = worst <= 1e-9
        _report(
            2,
            "sigma points reconstruct mean/covariance for 50 seeded dim-24 inputs",
            f"max-abs error {worst:.2e} (tol 1e-9)",
            ok,
        )
        assert ok

    def test_03_generalized_eigensolver_residuals(self):
        sizes = [4, 8, 12, 16, 24, 32, 48, 64, 96, 128] * 4 + [256, 384, 512] * 3 + [512]
        assert len(sizes) == 50
        start = time.perf_counter()
        worst_rel = 0.0
        for seed, n in enumerate(sizes):
            rng = np.random.default_rng(300 + seed)
            A = _random_psd(rng, n)
            B = _random_psd(rng, n) + np.eye(n)
            vals, vecs = generalized_eig_sym(A, B, n_top=min(n, 16))
            norm_A, norm_B = np.linalg.norm(A), np.linalg.norm(B)
            for lam, v in zip(vals, vecs.T):
                residual = np.linalg.norm(A @ v - lam * B @ v)
                bound = 1e-8 * (norm_A + abs(lam) * norm_B)
                worst_rel = max(worst_rel, residual / bound)
        elapsed = time.perf_counter() - start
        ok = worst_rel <= 1.0 and elapsed < 60.0
        _report(
            3,
            "generalized eigenpairs on 50 seeded pencils up to dim 512",
            f"worst residual {worst_rel:.2e} of the bound, {elapsed:.1f}s (limit 60s)",
            ok,
        )
        assert ok

    def test_04_kronecker_factor_recovery(self):
        worst = check_kronecker_recovery()
        ok = worst <= 1e-9
        _report(
            4,
            "beam factors recovered from exact Kronecker products",
            f"worst per-column correlation shortfall {worst:.2e} (tol 1e-9)",
            ok,
        )
        assert ok

    def test_05_noise_and_fading_calibration(self):
        rng = np.random.default_rng(500)
        rho = 10.0
        F = baseline_beams("dft_grid", 16, 6)
        Z = baseline_beams("dft_grid", 16, 6)
        plan = build_plan(F, Z)
        h = rng.standard_normal(plan.G_real.shape[1])
        clean = plan.G_real @ h
        samples_per_call = clean.shape[0]
        calls = int(np.ceil(1e5 / samples_per_call))
        residuals = np.concatenate(
            [observe(plan, h, rho, rng).y_real - clean for _ in range(calls)]
        )
        noise_var = float(np.var(residuals))
        var_ok = abs(noise_var - 1.0 / (2.0 * rho)) <= 0.05 / (2.0 * rho)

        L = 100
        gains0 = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
        state = ChannelState.from_parts(
            gains0, np.zeros(L), np.zeros(L), np.zeros(L), np.zeros(L)
        )
        tp = build_transition(DynamicsModel(L=L, beta=0.905, T_S=1e-4), 1e-4)
        powers = []
        for _ in range(1000):
            state = advance_truth(state, tp, rng)
            powers.append(np.abs(state.gains) ** 2)
        gain_power = float(np.mean(powers))
        power_ok = abs(gain_power - 1.0) <= 0.1

        ok = var_ok and power_ok
        _report(
            5,
            "observation noise and stationary fading power over 1e5 samples",
            f"noise var {noise_var:.5f} vs 0.05 +/-5%, gain power {gain_power:.4f} vs 1 +/-10%",
            ok,
        )
        assert ok

    def test_06_tracked_position_error_settles_below_initial_spread(
        self, reference_batch
    ):
        cfg, clean, elapsed = reference_batch
        pooled = np.concatenate(
            [
                np.abs(rec.est_tx[rec.times >= 1e-3] - rec.true_tx[rec.times >= 1e-3]).ravel()
                for rec in clean
            ]
        )
        median = float(np.nanmedian(pooled))
        target = float(np.sqrt(0.1))
        ok = median < target and elapsed < 600.0
        _report(
            6,
            "median transmit-side position error in [1ms, 5ms] under initial spread",
            f"median {median:.4f} vs target < {target:.4f}, batch {elapsed:.0f}s (limit 600s)",
            ok,
        )
        assert ok

    def test_07_tracked_csi_beats_one_shot_estimation(self, reference_batch):
        cfg, clean, _ = reference_batch
        tracked = np.concatenate([r.tracked_loss[r.times > 5e-4] for r in clean])
        oneshot = np.concatenate([r.oneshot_loss[r.times > 5e-4] for r in clean])
        tracked_db = 10.0 * np.log10(np.nanmedian(tracked))
        oneshot_db = 10.0 * np.log10(np.nanmedian(oneshot))
        ok = tracked_db > oneshot_db
        _report(
            7,
            "median tracked-CSI loss after 0.5ms strictly better than one-shot",
            f"tracked {tracked_db:.2f} dB vs one-shot {oneshot_db:.2f} dB",
            ok,
        )
        assert ok

    def test_08_state_prediction_does_not_hurt_between_soundings(
        self, reference_batch
    ):
        cfg, clean, _ = reference_batch
        per = cfg.steps_per_period
        pooled = np.concatenate(
            [
                rec.prediction_gain[np.arange(rec.times.shape[0]) % per != 0]
                for rec in clean
            ]
        )
        median = float(np.nanmedian(pooled))
        ok = median >= 1.0
        _report(
            8,
            "median prediction-gain ratio between soundings at least one",
            f"median ratio {median:.6f} vs >= 1",
            ok,
        )
        assert ok

    def test_09_adaptive_beams_beat_random_on_posterior_trace(self):
        cfg = ScenarioConfig()
        tx = ArrayGeometry(cfg.M_T, cfg.d_over_lambda)
        rx = ArrayGeometry(cfg.M_R, cfg.d_over_lambda)
        channel_fn = make_channel_fn(cfg.L, tx, rx)
        params = UkfParams()

        wins = 0
        trials = 100
        for i in range(trials):
            seq = np.random.SeedSequence([901, i])
            rng_s, rng_beam, rng_noise = (
                np.random.default_rng(s) for s in seq.spawn(3)
            )
            truth, estimate, R0 = generate_scenario(cfg, rng_s)
            prior = TrackerState(estimate, R0)
            sigma = sigma_points(prior.x_hat.x, prior.R, params)
            stats = channel_statistics(sigma, channel_fn)
            h_true = channel_fn(truth.x[None])[0]
            traces = {}
            for arm in ("adaptive", "random"):
                if arm == "adaptive":
                    design = design_beams(stats, tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
                    F, Z = design.F, design.Z
                else:
                    F = baseline_beams("random_unit", cfg.M_T, cfg.N_T, rng=rng_beam)
                    Z = baseline_beams("random_unit", cfg.M_R, cfg.N_R, rng=rng_beam)
                plan = build_plan(F, Z)
                obs = observe(plan, h_true, cfg.rho, rng_noise)
                measure = observation_map(plan, cfg.L, tx, rx)
                post = update(prior, measure, obs, params, sigma=sigma)
                traces[arm] = float(np.trace(post.R))
            wins += traces["adaptive"] <= traces["random"]
        ok = wins >= 80
        _report(
            9,
            "adaptive beams reduce posterior trace at least as well as random",
            f"{wins}/{trials} trials (need >= 80)",
            ok,
        )
        assert ok

    def test_10_simulate_command_is_byte_deterministic(self, tmp_path):
        overrides = [
            "L=2",
            "M_T=8",
            "M_R=8",
            "N_T=3",
            "N_R=3",
            "frame_length=1e-3",
            "fine_step=1e-5",
            "num_runs=2",
            "seed=11",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cmd_simulate(None, overrides + [f"output_dir={out_a}"])
        code_b = cmd_simulate(None, overrides + [f"output_dir={out_b}"])
        identical = all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("paths.csv", "esnr.csv")
        )
        ok = code_a == 0 and code_b == 0 and identical
        _report(
            10,
            "repeated simulate runs with one config and seed match byte-for-byte",
            f"exit codes ({code_a}, {code_b}), CSVs identical: {identical}",
            ok,
        )
        assert ok
