"""Tour of the dense proposal grid, feature sampling, and random masking.

Every candidate segment lives at a (duration, start) cell of a D x T grid.
Each valid cell samples N points from the boundary-expanded segment through
bilinear taps (at most two input positions per point), and during training
whole proposal features are randomly zeroed (with survivor rescaling) to
decorrelate neighbouring cells.
"""

import numpy as np

from tadkit import (MaskConfig, build_sampling_matrix, draw_mask,
                    proposal_grid, sample_proposal_features)

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
# sample point n of valid cell c reads positions i0 and i0 + 1 with weights
# 1 - frac and frac when it is in range; out-of-range points read nothing
w_left = np.where(sm.in_range, 1.0 - sm.frac, 0.0)    # each (cells, N)
w_right = np.where(sm.in_range, sm.frac, 0.0)
print(f"\nsampling taps: {grid.n_valid} cells x {sm.n_samples} points, "
      f"{int(sm.in_range.sum())} in range, "
      f"{int((w_left > 0).sum() + (w_right > 0).sum())} nonzero weights")

# in-range points have weights summing to 1 (bilinear weights are a convex
# pair); out-of-range points read nothing
sums = w_left + w_right
print(f"tap weight sums are 0 (outside) or 1 (in range): "
      f"{np.unique(np.round(sums, 12)).tolist()}")

# the proposal layer samples N points per cell and reduces them with
# weights w plus a bias b; the network never builds the N points: the
# sampling and the reduction fold into one (D*T, T) matrix
zero = np.zeros(1)


def point(x, n):
    """Sample point n of every cell, W_n x: the layer with w = e_n, b = 0."""
    return sample_proposal_features(x, sm, np.eye(sm.n_samples)[n], zero)


w = np.linspace(1.0, 2.0, sm.n_samples)
x = np.random.default_rng(0).normal(size=8)
fused = sample_proposal_features(x, sm, w, zero)   # (D, T)
direct = sum(w[n] * point(x, n) for n in range(sm.n_samples))
assert np.allclose(fused, direct, rtol=1e-12, atol=1e-12)
print(f"fused (D*T, T) = {sm.reduction_matrix(w).shape} operator matches "
      f"sample-then-reduce")

# sampling a linear ramp returns the sample positions themselves
ramp = np.arange(8, dtype=float)                   # (T,)
d, t = 3, 2                                        # segment [2, 6), k = 4
positions = [point(ramp, n)[d, t] for n in range(sm.n_samples)]
print(f"cell (d={d}, t={t}) sample points on a ramp: "
      f"{np.round(positions, 3)}")

# --- masking ----------------------------------------------------------------
# a training step draws one mask per sample for its (C, D, T) proposal map;
# proposal granularity returns (1, D, T): one value per cell, shared by
# every channel; inference (forward) never draws one
cfg = MaskConfig(p=0.1, granularity="proposal")
rng = np.random.default_rng(0)
features = np.ones((16, 8, 8))                     # (C, D, T)
mask = draw_mask(features.shape, cfg, rng)         # (1, D, T)
masked = features * mask

dropped = mask[0] == 0                             # per-(d, t) cell
print(f"\nmasking p={cfg.p}: mask shape {mask.shape}, dropped "
      f"{dropped.sum()} of {dropped.size} cells this draw")
print(f"survivor value 1/(1-p) = {1 / (1 - cfg.p):.6f}; "
      f"observed {np.unique(masked[masked > 0])}")

# the scaling keeps the expected map unchanged over many draws
mean = np.mean([
    (features * draw_mask(features.shape, cfg, rng)).mean()
    for _ in range(500)
])
print(f"mean over 500 draws: {mean:.4f} (expectation 1.0)")

# a mask is the same for all N points of a cell, so masking the sampled
# points before the N-point reduction equals masking the reduced map after
# it, which is what the layer does
h = np.random.default_rng(2).normal(size=(16, 8))  # (C, T)
before = sum(w[n] * (point(h, n) * mask) for n in range(sm.n_samples))
after = sample_proposal_features(h, sm, w, zero, mask)  # (C, D, T)
assert np.allclose(before, after, rtol=1e-12, atol=1e-12)
print("masking commutes with the N-point reduction: OK")

# channel granularity zeroes whole channels instead of cells: (C, 1, 1)
ch = draw_mask(features.shape, MaskConfig(p=0.3, granularity="channel"),
               np.random.default_rng(1))
assert ch.shape == (16, 1, 1)
print(f"channel granularity: {int((ch == 0).sum())} of 16 "
      f"channels dropped")
