"""Closing the loop: predict, sound, update on a moving channel.

A small two-path channel moves while its gains fade; the tracker starts from
a mildly perturbed estimate (well inside its convergence basin) and is given
one sounding per coherence period.  Each period runs ``sound``, the step
``run_frame`` runs: it re-designs the sounding beams from the tracker's own
predicted statistics, so the filter steers its own sensor, and updates at
the experiment's filter settings.

Three things to watch.  The beamforming loss — the operational metric — stays
within 0.1 dB of perfect-CSI beamforming at every printed period.  The raw
virtual-position error is less flattering, about 0.2 by the end, for paths
far from broadside (the first transmit path sits near -5.9), where a beam
covers a wide swath of virtual positions and the filter has no need (and
little information) to pin the coordinate more precisely.  And trace(R)
grows throughout; nearly all of it is the variance of the path velocities.
"""

import numpy as np

from beamtrack import (
    ScenarioConfig,
    advance_truth,
    build_transition,
    channel_matrix,
    generate_scenario,
    predict,
    snr_loss_ratio,
    sound,
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
truth, ts = generate_scenario(cfg, rng)

tx, rx = cfg.arrays()
tp = build_transition(cfg.dynamics(), cfg.T_S)

print("period | loss vs perfect CSI | max position error | trace(R)  | innovation")
for k in range(cfg.num_observations):
    if k > 0:
        truth = advance_truth(truth, tp, rng)
        ts = predict(ts, tp)

    # Design this period's beams from the predicted statistics, sound, update.
    ts, innovation, _ = sound(ts, truth.x, cfg, rng)

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
