"""Monte Carlo experiment harness: scenario synthesis, frame loop, metrics.

One simulated frame interleaves two time scales.  The true channel state
advances every ``fine_step`` seconds; once per coherence period ``T_S`` the
tracker predicts, and ``sound`` designs sounding beams from its prior
statistics, observes the channel through them, and updates.  Between
soundings, metrics are evaluated on the fine grid for three arms sharing the
same truth: the tracked estimate held fixed, the tracked estimate
forward-predicted to the current instant, and an unfiltered one-shot
estimate redrawn each period with the same statistics as the initializer.

Each coherence period is simulated as array work over its fine steps.  The
period's truth comes from ``dynamics.advance_truth_steps``, the recurrence
``advance_truth`` runs, so the two agree bit for bit by construction.  The
period ends early at the first state whose norm reaches ``DIVERGENCE_NORM``,
the test that also stops a run whose estimate diverges.  No metric forms a
channel matrix.  Each channel is kept in its rank-L factored form
``a_R diag(g) a_T^H``: spectral gains and dominant beams come from one reduced
QR of the transmit steering factor and the eigenproblem of a Hermitian core
at most L x L (see ``_channel_core``), beam gains are sums over paths, and the
held estimate's predicted mean is in closed form.  Steps are processed
``BLOCK_ROWS`` at a time, which caps memory whatever the period length.  State
fields are read through ``channel.StateLayout``.

Runs are reproducible and order-independent: run ``i`` of a config seeds all
of its randomness from ``SeedSequence([seed, i])``, with separate child
streams for the scenario draw, the process noise, the observation noise, and
the one-shot arm, so no arm perturbs another.

A batch's records have one reduction, ``aggregate_runs``: each arm's median
and quantiles pooled over the fine steps of the runs that did not diverge.
``summary.json`` writes it in dB.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .beams import design_beams
from .channel import ArrayGeometry, ChannelState, StateLayout, steering_factors
from .dynamics import DynamicsModel, advance_truth_steps, build_transition, predicted_mean
from .errors import BadConfig, EmptyInput, ZeroChannel
from .sounding import build_plan, noiseless_measurement, observation_map, observe
from .tracker import (
    TrackerState,
    UkfParams,
    channel_statistics,
    make_channel_fn,
    predict,
    sigma_points,
    update,
)

DIVERGENCE_NORM = 1e9

# Highest SNR the config accepts.  Beam design factors Pi + I/(2 rho), where
# the sigma covariance Pi is rank deficient; at a high SNR the noise term no
# longer lifts it above round-off and the run stops on SingularB.  Five-period
# runs at M_T = M_R = 64, L = 8 factor at 80 dB (seeds 0-7) but not at 100 dB
# (seed 2); the default scenario first fails at 140 dB.
MAX_RHO_DB = 80.0

# Lowest gain correlation the config accepts.  The predicted arm scales gains
# by up to beta and squares them to pick beams, and below beta ~ 1.5e-154 the
# square is no longer a normal double.  Default runs (frame_length 5e-4, L = 1
# and 4, seeds 0-4) pass at 1e-160; 1 of 10 stops on ZeroChannel at 1e-162.
MIN_BETA = 1e-150

# The filter's settings; ``sound`` runs at them, and they live only here.
# The sigma points sit about one prior standard deviation from the mean
# (eta = 0.2; see UkfParams).  At the UkfParams default of eta = 1e-3 they
# sit 0.005 sd out, where the sigma transform reduces to a second-order
# Taylor expansion of the steering phase and the channel covariance exceeds
# any physically possible one 140-fold or more at the reference prior.  Each
# measurement update runs in UPDATE_STEPS partial steps (see tracker.update).
FILTER_PARAMS = UkfParams(eta=0.2)
UPDATE_STEPS = 20

# Fine steps whose metrics are computed together.  It bounds the stacked
# steering factors and their QR and eigensolver work arrays, so a long
# coherence period needs no more memory than a short one.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class ScenarioConfig:
    """Experiment configuration; defaults reproduce the reference setup.

    Attributes:
        L: Path count.
        M_T, M_R: Transmit/receive antenna counts.
        N_T, N_R: Sounding beam counts per period.
        first_N_T, first_N_R: Optional beam counts for the first period only,
            letting a run start with a denser sweep before settling on
            N_T/N_R; ``None`` uses N_T/N_R throughout.
        rho_db: SNR in dB, at most MAX_RHO_DB.
        beta: Gain correlation per reference step.
        T_S: Coherence period (seconds) — one sounding per period.
        frame_length: Total simulated time (seconds).
        fine_step: Truth-evolution and metric grid step (seconds).
        sigma_vdot: Rayleigh scale of the initial path speed |d upsilon/dt|.
        init_pos_var: Variance of the initial virtual-position estimate error.
        init_vel_var: Variance of the (zero-mean) initial velocity estimate.
        init_gain_var: Variance of the complex initial gain estimate error.
        q_upsilon: Per-pair (position, velocity) process noise per T_S.
        d_over_lambda: Antenna spacing in wavelengths.
        seed: Nonnegative master seed; run i derives from
            SeedSequence([seed, i]).
        num_runs: Monte Carlo run count.
    """

    L: int = 4
    M_T: int = 16
    M_R: int = 16
    N_T: int = 6
    N_R: int = 6
    first_N_T: int | None = None
    first_N_R: int | None = None
    rho_db: float = 10.0
    beta: float = 0.905
    T_S: float = 1e-4
    frame_length: float = 5e-3
    fine_step: float = 1e-6
    sigma_vdot: float = 100.0 * np.sqrt(2.0 / np.pi)
    init_pos_var: float = 0.1
    init_vel_var: float = 1e6
    init_gain_var: float = 0.01
    q_upsilon: tuple = (1e-4, 1e2)
    d_over_lambda: float = 0.5
    seed: int = 0
    num_runs: int = 20

    def __post_init__(self):
        object.__setattr__(self, "q_upsilon", tuple(float(q) for q in self.q_upsilon))
        for name in (f.name for f in fields(self) if f.type == "float"):
            if not math.isfinite(getattr(self, name)):
                raise BadConfig(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(q) for q in self.q_upsilon):
            raise BadConfig(f"q_upsilon entries must be finite, got {self.q_upsilon}")
        try:
            rho = self.rho
        except OverflowError:
            rho = math.inf
        if not 0.0 < rho < math.inf:
            raise BadConfig(f"rho_db={self.rho_db} gives no positive finite SNR")
        if self.beta < MIN_BETA:
            raise BadConfig(f"beta={self.beta} is below {MIN_BETA}; predicted gains underflow")
        if self.rho_db > MAX_RHO_DB:
            raise BadConfig(
                f"rho_db={self.rho_db} is above {MAX_RHO_DB} dB, where beam design "
                "cannot factor its pencil"
            )
        for name in ("L", "M_T", "M_R", "N_T", "N_R", "num_runs"):
            if getattr(self, name) < 1:
                raise BadConfig(f"{name} must be at least 1")
        if self.seed < 0:
            raise BadConfig(f"seed must be nonnegative, got {self.seed}")
        if self.N_T > self.M_T or self.N_R > self.M_R:
            raise BadConfig("beam counts cannot exceed antenna counts")
        for name, cap in (("first_N_T", self.M_T), ("first_N_R", self.M_R)):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= cap:
                raise BadConfig(f"{name} must lie in [1, {cap}]")
        for name in ("T_S", "frame_length", "fine_step"):
            if getattr(self, name) <= 0.0:
                raise BadConfig(f"{name} must be positive")
        if not _divides(self.fine_step, self.T_S):
            raise BadConfig("fine_step must divide T_S")
        if not _divides(self.T_S, self.frame_length):
            raise BadConfig("T_S must divide frame_length")
        for name in ("init_pos_var", "init_vel_var", "init_gain_var", "sigma_vdot"):
            if getattr(self, name) < 0.0:
                raise BadConfig(f"{name} must be nonnegative")
        self.dynamics()
        self.arrays()

    def dynamics(self) -> DynamicsModel:
        """The state-evolution model; building it checks beta and q_upsilon."""
        return DynamicsModel(
            L=self.L, beta=self.beta, T_S=self.T_S, q_upsilon=np.array(self.q_upsilon)
        )

    def arrays(self) -> tuple[ArrayGeometry, ArrayGeometry]:
        """The transmit and receive arrays; building them checks d_over_lambda."""
        return (
            ArrayGeometry(self.M_T, self.d_over_lambda),
            ArrayGeometry(self.M_R, self.d_over_lambda),
        )

    @property
    def rho(self) -> float:
        return 10.0 ** (self.rho_db / 10.0)

    @property
    def steps_per_period(self) -> int:
        return round(self.T_S / self.fine_step)

    @property
    def num_fine_steps(self) -> int:
        return round(self.frame_length / self.fine_step)

    @property
    def num_observations(self) -> int:
        return round(self.frame_length / self.T_S)


def _divides(small: float, big: float) -> bool:
    ratio = big / small
    return abs(ratio - round(ratio)) < 1e-9 * ratio and round(ratio) >= 1


@dataclass
class RunRecord:
    """Per-run metric trajectories on the fine time grid."""

    times: np.ndarray
    true_tx: np.ndarray
    est_tx: np.ndarray
    true_rx: np.ndarray
    est_rx: np.ndarray
    tracked_loss: np.ndarray
    oneshot_loss: np.ndarray
    prediction_gain: np.ndarray
    obs_times: np.ndarray
    trace_wr: np.ndarray
    innovation_norms: np.ndarray
    diverged: bool = False


def _empty_record(cfg: ScenarioConfig) -> RunRecord:
    """A record for one run of cfg, its trajectories and metrics all NaN."""
    n_fine, n_obs = cfg.num_fine_steps, cfg.num_observations
    return RunRecord(
        times=np.arange(n_fine) * cfg.fine_step,
        true_tx=np.full((n_fine, cfg.L), np.nan),
        est_tx=np.full((n_fine, cfg.L), np.nan),
        true_rx=np.full((n_fine, cfg.L), np.nan),
        est_rx=np.full((n_fine, cfg.L), np.nan),
        tracked_loss=np.full(n_fine, np.nan),
        oneshot_loss=np.full(n_fine, np.nan),
        prediction_gain=np.full(n_fine, np.nan),
        obs_times=np.arange(n_obs) * cfg.T_S,
        trace_wr=np.full(n_obs, np.nan),
        innovation_norms=np.full(n_obs, np.nan),
    )


def generate_scenario(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[ChannelState, TrackerState]:
    """The true initial state, and the filter's start: a noisy estimate and its covariance."""
    truth = _draw_truth(cfg, rng)
    return truth, TrackerState(_noisy_estimate(truth, cfg, rng), _initial_covariance(cfg))


def _draw_truth(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelState:
    gains = (
        rng.standard_normal(cfg.L) + 1j * rng.standard_normal(cfg.L)
    ) / np.sqrt(2.0)
    theta_t = rng.uniform(-np.pi / 2.0, np.pi / 2.0, cfg.L)
    theta_r = rng.uniform(-np.pi / 2.0, np.pi / 2.0, cfg.L)
    speed_t = rng.rayleigh(cfg.sigma_vdot, cfg.L) * rng.choice([-1.0, 1.0], cfg.L)
    speed_r = rng.rayleigh(cfg.sigma_vdot, cfg.L) * rng.choice([-1.0, 1.0], cfg.L)
    return ChannelState.from_parts(
        gains, np.tan(theta_t), speed_t, np.tan(theta_r), speed_r
    )


def _noisy_estimate(
    truth: ChannelState, cfg: ScenarioConfig, rng: np.random.Generator
) -> ChannelState:
    """Perturbs a true state with the initializer's error statistics."""
    L = cfg.L
    gains = truth.gains + np.sqrt(cfg.init_gain_var / 2.0) * (
        rng.standard_normal(L) + 1j * rng.standard_normal(L)
    )
    pos_sd = np.sqrt(cfg.init_pos_var)
    vel_sd = np.sqrt(cfg.init_vel_var)
    return ChannelState.from_parts(
        gains,
        truth.tx_positions + pos_sd * rng.standard_normal(L),
        vel_sd * rng.standard_normal(L),
        truth.rx_positions + pos_sd * rng.standard_normal(L),
        vel_sd * rng.standard_normal(L),
    )


def _initial_covariance(cfg: ScenarioConfig) -> np.ndarray:
    lay = StateLayout.of(cfg.L)
    diag = np.empty(lay.size)
    diag[lay.gain] = cfg.init_gain_var / 2.0
    diag[lay.positions] = cfg.init_pos_var
    diag[lay.velocities] = cfg.init_vel_var
    return np.diag(diag)


def _dense_factors(H: np.ndarray):
    """A dense channel as the factored form: unit gains, identity a_t."""
    H = np.asarray(H, dtype=complex)
    return np.ones(H.shape[1]), np.eye(H.shape[1]), H


def _channel_core(gains, r_t, a_r) -> tuple[np.ndarray, np.ndarray]:
    """``C = H q_t`` and the Hermitian core ``C^H C`` of factored channels.

    Works on stacks (leading axes) of factors.  With the reduced QR
    ``a_t = q_t r_t`` of the transmit factor, the channel
    ``H = a_r diag(gains) a_t^H`` is ``C q_t^H`` with
    ``C = a_r diag(gains) r_t^H``, so ``H^H H = q_t (C^H C) q_t^H`` exactly.
    The core ``C^H C = r_t diag(conj(gains)) (a_r^H a_r) diag(gains) r_t^H``
    is min(M_T, L) square; its eigenvalues are the channel's squared
    singular values, and q_t maps its eigenvectors to the channel's right
    singular vectors, whatever the rank of a_t or a_r.  No steering Gram
    matrix is factored, so coincident paths, which make one singular, are
    no special case.
    """
    c = a_r @ (gains[..., :, None] * np.swapaxes(r_t, -1, -2).conj())
    return c, np.swapaxes(c, -1, -2).conj() @ c


def _spectral_gains(gains, a_t, a_r) -> np.ndarray:
    """Squared spectral norm of each factored channel: its core's top eigenvalue."""
    _, core = _channel_core(gains, np.linalg.qr(a_t, mode="r"), a_r)
    return np.linalg.eigvalsh(core)[..., -1]


def _dominant_beams(gains, a_t, a_r) -> tuple[np.ndarray, np.ndarray]:
    """Dominant right/left singular vectors (f, z) of each factored channel.

    With v the core's top eigenvector, ``f = q_t v`` and ``z = H f / |H f|``,
    where ``H f = a_r (gains * a_t^H f) = C v``.
    """
    q_t, r_t = np.linalg.qr(a_t)
    c, core = _channel_core(gains, r_t, a_r)
    w, v = np.linalg.eigh(core)
    if np.any(w[..., -1] <= 0.0):
        raise ZeroChannel("cannot pick beams for an all-zero channel estimate")
    top = v[..., -1:]
    f = (q_t @ top)[..., 0]
    hf = (c @ top)[..., 0]
    return f, hf / np.linalg.norm(hf, axis=-1, keepdims=True)


def _row_product(v, a) -> np.ndarray:
    """``v^T a`` for each matrix of a stack; v is shared or given per matrix."""
    return (v[..., None, :] @ a)[..., 0, :]


def _beam_gains(gains, a_t, a_r, f, z) -> np.ndarray:
    """``|z^H H f|^2`` of each factored channel, as a sum over its paths.

    ``z^H H f = sum_l (z^H a_r[:, l]) gains[l] conj(f^H a_t[:, l])``; the
    beams f and z may be shared by the whole stack or given per channel.
    """
    z_r = _row_product(z.conj(), a_r)
    f_t = _row_product(f.conj(), a_t)
    return np.abs(np.sum(z_r * gains * f_t.conj(), axis=-1)) ** 2


def beamformers_from_estimate(H_est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant right/left singular vectors of an estimated channel matrix."""
    return _dominant_beams(*_dense_factors(H_est))


def snr_loss_ratio(H_true: np.ndarray, H_est: np.ndarray) -> float:
    """Beamforming gain achieved with estimated CSI relative to perfect CSI.

    Points the transmit/receive pair at the dominant singular vectors of the
    estimate and measures the captured fraction of the true channel's
    spectral gain, a number in [0, 1].
    """
    f, z = beamformers_from_estimate(H_est)
    true = _dense_factors(H_true)
    denom = _spectral_gains(*true)
    if denom <= 0.0:
        raise ZeroChannel("true channel is zero; loss ratio undefined")
    return float(_beam_gains(*true, f, z) / denom)


def _diverged(x: np.ndarray) -> np.ndarray:
    """Whether each state (last axis) has a norm of DIVERGENCE_NORM or more, or NaN."""
    return ~(np.sqrt(np.einsum("...i,...i->...", x, x)) < DIVERGENCE_NORM)


def _truth_rows(x, tp, rng, steps: int, advance_first: bool) -> np.ndarray:
    """A period's true states on the fine grid, cut before the first diverged one.

    Row 0 is x, advanced one step first if ``advance_first``; each later row
    advances the row before, through ``advance_truth_steps``.
    """
    rows = advance_truth_steps(x, tp, rng, steps if advance_first else steps - 1)
    if not advance_first:
        rows = np.concatenate([x[None], rows])
    return rows[: np.argmax(np.append(_diverged(rows), True))]


def _period_metrics(rec, start, X, x_held, x_oneshot, model, tx, rx) -> None:
    """Fills the three arms' metrics for the fine steps of one period.

    X holds the true states from the sounding instant ``start`` on.  The held
    and one-shot beams are fixed for the period; the predicted beams follow
    the held estimate's closed-form mean to each later step.  At the sounding
    instant the prediction is the held estimate itself, so its gain is 1.
    """
    L = model.L
    f, z = _dominant_beams(*steering_factors(np.stack([x_held, x_oneshot]), L, tx, rx))
    rec.prediction_gain[start] = 1.0
    for b in range(0, X.shape[0], BLOCK_ROWS):
        true = steering_factors(X[b : b + BLOCK_ROWS], L, tx, rx)
        spectral = _spectral_gains(*true)
        held = _beam_gains(*true, f[0], z[0]) / spectral
        out = slice(start + b, start + b + held.shape[0])
        rec.tracked_loss[out] = held
        rec.oneshot_loss[out] = _beam_gains(*true, f[1], z[1]) / spectral
        p = int(b == 0)  # first row after the sounding instant
        if p < held.shape[0]:
            predicted = predicted_mean(model, x_held, rec.times[out][p:] - rec.times[start])
            f_pred, z_pred = _dominant_beams(*steering_factors(predicted, L, tx, rx))
            gain = _beam_gains(*(t[p:] for t in true), f_pred, z_pred) / spectral[p:]
            rec.prediction_gain[out][p:] = gain / np.maximum(held[p:], 1e-300)


def sound(ts, x_true, cfg, period, rng) -> tuple[TrackerState, float]:
    """One sounding of the closed loop: design beams from the prior, observe, update.

    The beams come from the sigma statistics of the prior ``ts``: N_T x N_R,
    or first_N_T x first_N_R at period 0 when those are set.  ``x_true`` is
    observed through them with noise from ``rng``, and the update, at
    FILTER_PARAMS in UPDATE_STEPS partial steps, reuses the sigma points.
    Returns the posterior and the norm of the innovation against the
    noiseless measurement of the prior's mean channel.
    """
    tx, rx = cfg.arrays()
    channel_fn = make_channel_fn(cfg.L, tx, rx)
    sigma = sigma_points(ts.x_hat.x, ts.R, FILTER_PARAMS)
    stats = channel_statistics(sigma, channel_fn)
    n_t = cfg.first_N_T if period == 0 and cfg.first_N_T else cfg.N_T
    n_r = cfg.first_N_R if period == 0 and cfg.first_N_R else cfg.N_R
    design = design_beams(stats, tx, rx, cfg.rho, n_t, n_r)
    plan = build_plan(design.F, design.Z)
    obs = observe(plan, channel_fn(x_true[None])[0], cfg.rho, rng)
    innovation = float(np.linalg.norm(obs.y_real - noiseless_measurement(plan, stats.h_hat)))
    measure = observation_map(plan, cfg.L, tx, rx)
    return update(ts, measure, obs, FILTER_PARAMS, sigma, steps=UPDATE_STEPS), innovation


def run_frame(cfg: ScenarioConfig, run_index: int = 0) -> RunRecord:
    """Simulates one frame: truth evolution, periodic sounding, tracking, metrics."""
    tx, rx = cfg.arrays()
    model = cfg.dynamics()
    tp_fine = build_transition(model, cfg.fine_step)
    tp_obs = build_transition(model, cfg.T_S)

    seq = np.random.SeedSequence([cfg.seed, run_index])
    rng_scenario, rng_truth, rng_obs, rng_oneshot = (
        np.random.default_rng(s) for s in seq.spawn(4)
    )

    truth, ts = generate_scenario(cfg, rng_scenario)

    per_obs = cfg.steps_per_period
    rec = _empty_record(cfg)

    x_true = truth.x
    for k in range(cfg.num_observations):
        X = _truth_rows(x_true, tp_fine, rng_truth, per_obs, advance_first=k > 0)
        if X.shape[0] == 0:
            rec.diverged = True
            break

        if k > 0:
            ts = predict(ts, tp_obs)
        ts, rec.innovation_norms[k] = sound(ts, X[0], cfg, k, rng_obs)
        if _diverged(ts.x_hat.x):
            rec.diverged = True
            break
        rec.trace_wr[k] = np.trace(ts.R)

        oneshot = _noisy_estimate(ChannelState(cfg.L, X[0]), cfg, rng_oneshot)
        start = k * per_obs
        _period_metrics(rec, start, X, ts.x_hat.x, oneshot.x, model, tx, rx)
        done = slice(start, start + X.shape[0])
        rec.true_tx[done] = X[:, StateLayout.of(cfg.L).tx_pos]
        rec.est_tx[done] = ts.x_hat.tx_positions
        rec.true_rx[done] = X[:, StateLayout.of(cfg.L).rx_pos]
        rec.est_rx[done] = ts.x_hat.rx_positions
        if X.shape[0] < per_obs:
            rec.diverged = True
            break
        x_true = X[-1]

    return rec


def _worker_count(cfg: ScenarioConfig, max_workers: int | None) -> int:
    if max_workers is None:
        env = os.environ.get("BEAMTRACK_THREADS", "")
        try:
            max_workers = int(env) if env.strip() else (os.cpu_count() or 1)
        except ValueError:
            raise BadConfig(f"BEAMTRACK_THREADS={env!r} is not an integer") from None
    return max(1, min(max_workers, cfg.num_runs))


# Thread-count variables of the common BLAS builds, pinned to one inside
# batch workers.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _single_threaded_blas_env():
    """Sets the BLAS thread-count variables to 1, restoring them on exit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update({name: "1" for name in _BLAS_THREAD_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_many(cfg: ScenarioConfig, max_workers: int | None = None) -> list[RunRecord]:
    """Executes cfg.num_runs independent frames, in parallel when possible.

    Results are identical whatever the worker count: each run's randomness
    depends only on (cfg.seed, run_index).

    Workers are fresh interpreters whose BLAS runs on one thread.  One worker
    per CPU already fills the machine, and a BLAS thread pool per worker on
    top of that would oversubscribe it whenever a call is large enough to
    be split.  No run-path call is, since the Kronecker fit's products went
    BLAS-free: four default runs on two workers (2 CPUs, OpenBLAS 0.3.31)
    took 2.4-2.7 s wall pinned and 1.9-2.7 s with the default two BLAS
    threads per worker.  While the fit still woke a second thread they took
    2.0-2.6 s pinned against 5.4-5.9 s unpinned, so the pinning stays for
    BLAS builds that split smaller calls.  BLAS reads its thread count
    when numpy loads, hence spawned rather than forked workers.  Scripts
    that call this with more than one worker therefore need the usual
    ``if __name__ == "__main__":`` guard.
    """
    workers = _worker_count(cfg, max_workers)
    indices = range(cfg.num_runs)
    if workers == 1:
        return [run_frame(cfg, i) for i in indices]
    # Imported here so that in-process runs never load the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _single_threaded_blas_env(), ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(partial(run_frame, cfg), indices))


def median_and_quantiles(values: np.ndarray, levels) -> tuple[np.ndarray, list]:
    """``np.median`` and ``np.quantile`` at each level, along axis 0 of NaN-free values.

    Both come from one sort, with numpy's own formulas: the median is the
    mean of the middle one or two order statistics, and a quantile is the
    default linear method's interpolation at the virtual index (n - 1) q.
    So the bits are numpy's, up to the sign of a zero that ties with zeros
    of the other sign (sort and partition may order those differently).
    numpy's ``median`` and ``quantile`` themselves import ``numpy.ma`` for a
    masked-array check, about 1.3 MB that an in-process run otherwise never
    loads.
    """
    s = np.sort(values, axis=0)
    n = s.shape[0]
    median = s[(n - 1) // 2 : n // 2 + 1].mean(axis=0)
    quantiles = []
    for q in levels:
        h = (n - 1) * q
        if h < n - 1:
            lo = math.floor(h)
            hi = lo + 1
        else:  # numpy's convention: the last value, and t computed from index -1
            lo = hi = -1
        t = h - lo
        diff = s[hi] - s[lo]
        quantiles.append(s[hi] - diff * (1 - t) if t >= 0.5 else s[lo] + diff * t)
    return median, quantiles


def aggregate_runs(records: list[RunRecord], levels) -> dict:
    """Each metric arm's median and quantiles, pooled over the clean runs.

    Returns ``{"num_runs": n, "num_diverged": d}`` plus, for each arm field
    of RunRecord (``tracked_loss``, ``oneshot_loss``, ``prediction_gain``),
    ``{"median": m, "quantiles": [one value per level]}`` in linear units.
    A diverged run is left out.  Each arm's values of the clean runs are
    concatenated over runs and fine steps, and any NaN among them is dropped.
    """
    if not records:
        raise EmptyInput("no run records to aggregate")
    clean = [r for r in records if not r.diverged]
    if not clean:
        raise EmptyInput(f"all {len(records)} runs diverged")
    summary = {"num_runs": len(records), "num_diverged": len(records) - len(clean)}
    for name in ("tracked_loss", "oneshot_loss", "prediction_gain"):
        pool = np.concatenate([getattr(r, name) for r in clean])
        median, quantiles = median_and_quantiles(pool[~np.isnan(pool)], levels)
        summary[name] = {"median": float(median), "quantiles": [float(q) for q in quantiles]}
    return summary
