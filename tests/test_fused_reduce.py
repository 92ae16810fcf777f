"""The fused proposal layer against the materializing oracle.

The network samples N points per proposal cell, masks them and reduces them
over N in one (D*T, T) matmul (proposals.sample_proposal_features) and
takes its gradients in the same form (proposals.sample_adjoint). The
oracle does the same literally: it builds the (B, C, N, D, T) tensor with
sampling_oracle.sample_points, multiplies it by the mask, contracts it with
reduce_w, and pushes the gradient back through sample_points_adjoint. Both
must agree to 1e-12 relative at the A5 shape, at the paper-default shape
and at a grid with fewer durations than starts and a wider expansion, for
every mask setting.
"""

import numpy as np
import pytest

from sampling_oracle import sample_points, sample_points_adjoint
from tadkit.model import ModelConfig, _forward_batch, draw_step_noise
from tadkit.proposals import MaskConfig, sample_adjoint
from test_model import perturbed_params, random_sample

SHAPES = {
    "a5": dict(c_h=8, t_scale=64, d_max=64, n_samples=8, batch=4),
    "paper": dict(c_h=32, t_scale=100, d_max=100, n_samples=32, batch=2),
    "narrow": dict(c_h=6, t_scale=48, d_max=20, n_samples=6, expansion=0.5,
                   batch=3),
}
MASKS = {
    "off": MaskConfig(p=0.0),
    "proposal": MaskConfig(p=0.3, granularity="proposal"),
    "channel": MaskConfig(p=0.3, granularity="channel"),
}


def assert_rel_close(got, want, rtol=1e-12):
    scale = max(np.abs(want).max(), 1e-300)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * scale


@pytest.mark.parametrize("mask", list(MASKS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fused_layer_matches_oracle(shape, mask):
    spec = dict(SHAPES[shape])
    batch_size = spec.pop("batch")
    cfg = ModelConfig(c_in=4, mask=MASKS[mask], seed=0, **spec)
    rng = np.random.default_rng(17)
    params = perturbed_params(cfg, rng)
    batch = [random_sample(rng, cfg) for _ in range(batch_size)]
    noise = draw_step_noise(batch, cfg, rng)
    masks = noise.masks  # (B, C|1, D|1, T|1): the same for all N points
    assert (masks is None) == (mask == "off")
    fwd = _forward_batch(params, np.stack([s.features for s in batch]), cfg,
                         masks)
    h2, sm, w = fwd["h2"], fwd["sm"], params["reduce_w"]
    assert (sm.grid.d_max, sm.expansion) == (cfg.d_max, cfg.expansion)

    sampled = sample_points(h2, sm)  # (B, C, N, D, T)
    if masks is not None:
        sampled *= masks[:, :, None]
    want = np.tensordot(sampled, w, axes=([2], [0])) + params["reduce_b"][0]
    assert_rel_close(fwd["reduced"], want)

    gout = rng.normal(size=fwd["reduced"].shape)
    gh2, gw, gb = sample_adjoint(gout, h2, sm, w, fwd["masks"])
    assert_rel_close(gw, np.tensordot(gout, sampled,
                                      axes=([0, 1, 2, 3], [0, 1, 3, 4])))
    assert_rel_close(gb, np.array([gout.sum()]))
    del sampled
    gsampled = gout[:, :, None] * w[None, None, :, None, None]
    if masks is not None:
        gsampled *= masks[:, :, None]
    assert_rel_close(gh2, sample_points_adjoint(gsampled, sm))
