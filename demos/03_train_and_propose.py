"""Train a small confidence network and read proposals off a held-out video.

Runs the full library path: synthetic corpus -> fixed-length features ->
gradient-descent training (with proposal masking) -> forward pass ->
four-factor score fusion over the grid -> soft-NMS. Takes ~half a minute
on one core.
"""

import time

import numpy as np

from tadkit import (ModelConfig, SynthConfig, boundary_labels, forward,
                    fuse_scores, proposal_grid, rescale_features, soft_nms,
                    synth_dataset, train)

synth = SynthConfig(n_videos=40, t_raw_range=(48, 72), channels=8,
                    n_classes=2, instances_range=(1, 2), val_fraction=0.2,
                    seed=3)
anns, features, _ = synth_dataset(synth)
n_train = len(anns.subset("training"))
print(f"corpus: {len(anns)} videos ({n_train} training)")

cfg = ModelConfig(c_in=8, c_h=6, t_scale=32, d_max=32, n_samples=8,
                  learning_rate=0.03, epochs=10, batch_size=8, seed=0)
cfg.mask.p = 0.1  # proposal-feature masking on

t0 = time.time()
params, log = train(anns, features, cfg)
print(f"\ntrained {cfg.epochs} epochs in {time.time() - t0:.1f}s")
for entry in log:
    bar = "*" * int(40 * entry["mean_loss"] / log[0]["mean_loss"])
    print(f"  epoch {entry['epoch']:2d}  loss {entry['mean_loss']:.4f}  {bar}")

# pick a validation video and run the inference path
ann = anns.subset("validation")[0]
x = rescale_features(features[ann.video_id], cfg.t_scale)
out = forward(params, x, cfg)  # inference: never masked

grid = proposal_grid(cfg.t_scale, cfg.d_max)
fused = fuse_scores(out, grid, ann.duration)
props = soft_nms(fused, sigma=0.4, max_out=10)

print(f"\n{ann.video_id} ({ann.duration:.0f}s) ground truth:")
for inst in ann.instances:
    print(f"  [{inst.start:5.1f}, {inst.end:5.1f})  {inst.label}")
print("top proposals after soft-NMS:")
for p in props[:5]:
    best = max(
        (min(p.end, i.end) - max(p.start, i.start))
        / (max(p.end, i.end) - min(p.start, i.start))
        for i in ann.instances)
    print(f"  [{p.start:5.1f}, {p.end:5.1f})  score {p.score:.3f}  "
          f"best IoU vs gt {max(best, 0):.2f}")

# the boundary heads should fire near the labelled boundaries
labels = boundary_labels(ann, cfg.t_scale)
on = out.p_start[labels.start > 0].mean()
off = out.p_start[labels.start == 0].mean()
print(f"\nmean p_start at true starts {on:.2f} vs elsewhere {off:.2f}")
