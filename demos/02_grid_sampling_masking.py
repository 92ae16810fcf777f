"""Tour of the dense proposal grid, feature sampling, and random masking.

Every candidate segment lives at a (duration, start) cell of a D x T grid.
Each valid cell samples N points from the boundary-expanded segment through
bilinear taps (at most two input positions per point), and during training
whole proposal features are randomly zeroed (with survivor rescaling) to
decorrelate neighbouring cells.
"""

import numpy as np

from tadkit import (MaskConfig, build_sampling_matrix, draw_mask,
                    mask_proposals, proposal_grid, sample_proposal_features)

# --- the grid ---------------------------------------------------------------
grid = proposal_grid(t_scale=8, d_max=8)
print(f"grid T={grid.t_scale} D={grid.d_max}: "
      f"{grid.n_valid} valid cells of {grid.d_max * grid.t_scale}")
print("validity mask (rows = duration-1, cols = start):")
for d in range(grid.d_max):
    print("   " + "".join(".#"[int(v)] for v in grid.valid[d]))

# cell (d, t) covers snippets [t, t+d+1); it fits iff t + d + 1 <= T
assert grid.n_valid == 8 * 9 // 2

# --- sampling ---------------------------------------------------------------
sm = build_sampling_matrix(t_scale=8, d_max=8, n_samples=4, expansion=0.25)
left, right, w_left, w_right = sm.taps()               # each (cells, N)
print(f"\nsampling taps: {grid.n_valid} cells x {sm.n_samples} points, "
      f"{int(sm.in_range.sum())} in range, "
      f"{int((w_left > 0).sum() + (w_right > 0).sum())} nonzero weights")

# in-range points have weights summing to 1 (bilinear weights are a convex
# pair); out-of-range points read nothing
sums = w_left + w_right
print(f"tap weight sums are 0 (outside) or 1 (in range): "
      f"{np.unique(np.round(sums, 12)).tolist()}")

# the network never builds the N sample points: sampling and the N-point
# reduction with weights w fold into one (D*T, T) matrix
w = np.linspace(1.0, 2.0, sm.n_samples)
w_r = sm.reduction_matrix(w)
x = np.random.default_rng(0).normal(size=8)
fused = (x @ w_r.T).reshape(8, 8)
direct = np.tensordot(sample_proposal_features(x, sm), w, axes=(0, 0))
assert np.allclose(fused, direct, rtol=1e-12, atol=1e-12)
print(f"fused (D*T, T) = {w_r.shape} operator matches sample-then-reduce")

# sampling a linear ramp returns the sample positions themselves
ramp = np.arange(8, dtype=float)[None, :]          # (C=1, T)
sampled = sample_proposal_features(ramp, sm)       # (1, N, D, T)
d, t = 3, 2                                        # segment [2, 6), k = 4
print(f"cell (d={d}, t={t}) sample points on a ramp: "
      f"{np.round(sampled[0, :, d, t], 3)}")

# --- masking ----------------------------------------------------------------
cfg = MaskConfig(p=0.1, granularity="proposal")
rng = np.random.default_rng(0)
tensor = np.ones((16, 4, 8, 8))
masked = mask_proposals(tensor, cfg, training=True, rng=rng)

dropped = np.all(masked == 0, axis=(0, 1))         # per-(d, t) cell
print(f"\nmasking p={cfg.p}: dropped {dropped.sum()} of "
      f"{dropped.size} cells this draw")
print(f"survivor value 1/(1-p) = {1 / (1 - cfg.p):.6f}; "
      f"observed {np.unique(masked[masked > 0])}")

# the scaling keeps the expected tensor unchanged over many draws
mean = np.mean([
    mask_proposals(tensor, cfg, training=True, rng=rng).mean()
    for _ in range(500)
])
print(f"mean over 500 draws: {mean:.4f} (expectation 1.0)")

# outside training the call is the identity, bit for bit
inference = mask_proposals(tensor, cfg, training=False)
assert inference.tobytes() == tensor.tobytes()
print("inference path is the identity: OK")

# channel granularity zeroes whole channels instead of cells
ch = draw_mask((16, 4, 8, 8), MaskConfig(p=0.3, granularity="channel"),
               np.random.default_rng(1))
flat = ch.reshape(16, -1)
assert all(len(np.unique(row)) == 1 for row in flat)
print(f"channel granularity: {int((flat[:, 0] == 0).sum())} of 16 "
      f"channels dropped")
