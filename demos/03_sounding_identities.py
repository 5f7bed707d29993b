"""Sounding: how beam pairs turn a channel matrix into a linear observation.

One coherence period sounds every (transmit beam, receive beam) pair.  The
measured numbers z^H H f are linear in the channel, so stacking real and
imaginary parts turns sounding into a real linear operator G acting on the
stacked-real channel vector.  The tracker never sees H directly — only
y = G h + noise — so this identity is the hinge between the physics and the
filter.  This script verifies it numerically and calibrates the noise.
"""

import numpy as np

from beamtrack import (
    ArrayGeometry,
    ChannelState,
    baseline_beams,
    build_plan,
    channel_matrix,
    noiseless_measurement,
    observe,
    real_channel_vector,
)

rng = np.random.default_rng(7)
tx = ArrayGeometry(16, 0.5)
rx = ArrayGeometry(16, 0.5)

# A random 2-path channel.
state = ChannelState.from_parts(
    (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0),
    tx_pos=rng.uniform(-1.0, 1.0, 2),
    tx_vel=np.zeros(2),
    rx_pos=rng.uniform(-1.0, 1.0, 2),
    rx_vel=np.zeros(2),
)
H = channel_matrix(state, tx, rx)
h = real_channel_vector(state, tx, rx)  # [Re vec H; Im vec H]

F = baseline_beams("dft_grid", 16, 6)
Z = baseline_beams("dft_grid", 16, 6)
plan = build_plan(F, Z)

# --- 1. the stacked-real operator reproduces z^H H f pair by pair ----------
y_clean = noiseless_measurement(plan, h)
n_pairs = 36
direct = np.array([
    Z[:, j].conj() @ H @ F[:, i] for i in range(6) for j in range(6)
])
stacked = y_clean[:n_pairs] + 1j * y_clean[n_pairs:]
print("max |G h - stacked z^H H f|:", float(np.max(np.abs(stacked - direct))))

# --- 2. each real noise component has variance 1/(2 rho) --------------------
rho = 10.0
residuals = np.concatenate([
    observe(plan, h, rho, rng).y_real - y_clean for _ in range(2000)
])
print(f"empirical noise variance: {np.var(residuals):.5f}  (expect {1/(2*rho):.5f})")

# --- 3. beam energy bookkeeping --------------------------------------------
# Unit-norm beams mean G carries no hidden gain: a sounding cannot amplify
# the channel, only select which of its directions are observed.
print("largest singular value of G (expect <= 1 for unit-norm DFT pairs):",
      float(np.linalg.svd(plan.G_real, compute_uv=False)[0]))
