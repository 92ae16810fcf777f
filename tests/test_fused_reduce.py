"""The fused proposal layer against the materializing oracle.

The network samples N points per proposal cell, masks them and reduces them
over N in one (D*T, T) matmul. The oracle does the same literally: it builds
the (B, C, N, D, T) tensor with sample_proposal_features, multiplies it by
the mask, contracts it with reduce_w, and pushes the gradient back through
sample_adjoint. Both must agree to 1e-12 relative at the A5 shape and at the
paper-default shape, for every mask setting.
"""

import numpy as np
import pytest

from tadkit.model import (ModelConfig, _forward_batch,
                          _proposal_reduce_backward, draw_step_noise)
from tadkit.proposals import (MaskConfig, sample_adjoint,
                              sample_proposal_features)
from test_model import perturbed_params, random_sample

SHAPES = {
    "a5": dict(c_h=8, t_scale=64, d_max=64, n_samples=8, batch=4),
    "paper": dict(c_h=32, t_scale=100, d_max=100, n_samples=32, batch=2),
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

    sampled = sample_proposal_features(h2, sm)  # (B, C, N, D, T)
    if masks is not None:
        sampled *= masks[:, :, None]
    want = np.tensordot(sampled, w, axes=([2], [0])) + params["reduce_b"][0]
    assert_rel_close(fwd["reduced"], want)

    gout = rng.normal(size=fwd["reduced"].shape)
    gh2, gw, gb = _proposal_reduce_backward(gout, h2, sm, fwd["w_r"],
                                            fwd["masks"])
    assert_rel_close(gw, np.tensordot(gout, sampled,
                                      axes=([0, 1, 2, 3], [0, 1, 3, 4])))
    assert_rel_close(gb, np.array([gout.sum()]))
    del sampled
    gsampled = gout[:, :, None] * w[None, None, :, None, None]
    if masks is not None:
        gsampled *= masks[:, :, None]
    assert_rel_close(gh2, sample_adjoint(gsampled, sm))

