"""Closing the loop: predict, sound, update on a moving channel.

A small two-path channel moves while its gains fade; the tracker starts from
a mildly perturbed estimate (well inside its convergence basin) and is given
one sounding per coherence period.  The sounding beams are re-designed every
period from the tracker's own predicted statistics, so the filter steers its
own sensor.

Two things to watch.  The beamforming loss — the operational metric — stays
within a couple of dB of perfect-CSI beamforming throughout.  The raw
virtual-position error is less flattering for paths far from broadside,
where a beam covers a wide swath of virtual positions and the filter has no
need (and little information) to pin the coordinate more precisely.
"""

import numpy as np

from beamtrack import (
    ScenarioConfig,
    TrackerState,
    UkfParams,
    advance_truth,
    build_plan,
    build_transition,
    channel_statistics,
    design_beams,
    generate_scenario,
    channel_matrix,
    make_channel_fn,
    noiseless_measurement,
    observation_map,
    observe,
    predict,
    sigma_points,
    snr_loss_ratio,
    update,
)

cfg = ScenarioConfig(
    L=2, M_T=8, M_R=8, N_T=3, N_R=3,
    sigma_vdot=30.0,
    init_pos_var=1e-3,  # a decent initializer: a small fraction of a beamwidth
    init_vel_var=1e2,   # velocity known to +/-10 against true speeds ~30
    init_gain_var=0.01,
    frame_length=5e-3,
    seed=5,
)
rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
truth, estimate, R0 = generate_scenario(cfg, rng)
ts = TrackerState(x_hat=estimate, R=R0)

tx, rx = cfg.arrays()
channel_fn = make_channel_fn(cfg.L, tx, rx)
tp = build_transition(cfg.dynamics(), cfg.T_S)
params = UkfParams()

print("period | loss vs perfect CSI | max position error | trace(R)  | innovation")
for k in range(cfg.num_observations):
    if k > 0:
        truth = advance_truth(truth, tp, rng)
        ts = predict(ts, tp)

    # Design this period's beams from the predicted statistics, then sound.
    sigma = sigma_points(ts.x_hat.x, ts.R, params)
    stats = channel_statistics(sigma, channel_fn)
    design = design_beams(stats, tx, rx, cfg.rho, cfg.N_T, cfg.N_R)
    plan = build_plan(design.F, design.Z)
    obs = observe(plan, channel_fn(truth.x[None])[0], cfg.rho, rng)
    innovation = float(np.linalg.norm(obs.y_real - noiseless_measurement(plan, stats.h_hat)))
    measure = observation_map(plan, cfg.L, tx, rx)
    ts = update(ts, measure, obs, params, sigma=sigma)

    pos_err = max(
        float(np.max(np.abs(ts.x_hat.tx_positions - truth.tx_positions))),
        float(np.max(np.abs(ts.x_hat.rx_positions - truth.rx_positions))),
    )
    loss = snr_loss_ratio(channel_matrix(truth, tx, rx),
                          channel_matrix(ts.x_hat, tx, rx))
    if k % 5 == 0 or k == cfg.num_observations - 1:
        print(f"  {k:4d} |      {10 * np.log10(loss):7.2f} dB    |     {pos_err:9.5f}    "
              f"| {np.trace(ts.R):9.2e} | {innovation:7.3f}")

print("\nfinal true tx positions:", np.round(truth.tx_positions, 4))
print("final est. tx positions:", np.round(ts.x_hat.tx_positions, 4))
