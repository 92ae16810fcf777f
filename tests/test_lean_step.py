"""The training step against the step before it was made memory-lean.

The lean step pads one sample at a time into a reused buffer, writes each
convolution's output at its final size, applies every ReLU in place, builds
the heads' input gradient in the heads' input buffer one channel at a time
and frees each full-size (B, C_h, D, T) map after its last use. It runs the
same operations in the same order, so every output must be bit-identical
to the earlier step, whose functions are kept below: the loss, all 16
parameter gradients and the four network outputs, at the A5 shape and the
paper shape, for every mask setting. A batch of more than 8 samples runs
through the network 8 at a time; that chunked step is checked against one
whole-batch pass of the same functions (loss bit-identical, gradients at
1e-12 relative). Two memory tests bound the traced peak of one step at the
A5 and the paper shape.

The earlier step is kept verbatim except for two swaps of code that the
lean step runs too, and whose last bits differ from what they replaced:
the heads, forward and weight gradients, are one matmul over the flattened
map instead of ``np.tensordot`` (``tests/test_conv.py`` checks them against
``tensordot`` at 1e-12), and ``_tap_sum`` returns a C-contiguous array, so
that ``reduce_b``'s gradient sums the same contiguous array. Its proposal
layer's forward pass is the library's ``sample_proposal_features``; its
backward pass is its own, with the ``reduce_w`` gradient summed over the
taps by ``sampling_oracle``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sampling_oracle import reduction_weight_grad
from tadkit.model import (_STEP_CHUNK, ModelConfig, _backward_batch,
                          _forward_batch, _sample_grads, _sigmoid,
                          batch_loss, draw_step_noise, forward,
                          loss_and_gradients)
from tadkit.proposals import (MaskConfig, SamplingMatrix,
                              sample_proposal_features)
from test_model import perturbed_params, random_sample


def _output_grads(fwd, batch, cfg, noise):
    """The whole batch's mean loss and its output gradients, from one
    forward pass over it."""
    total, *grads = _sample_grads(fwd, batch, cfg, noise, len(batch), 0.0)
    return (total / len(batch), *grads)


# The earlier step, verbatim but for the two swaps above: _pad, _tap_sum,
# _conv, _conv_backward, _proposal_reduce_backward, and _forward_batch and
# _backward_batch renamed with an _old prefix.

def _pad(x: np.ndarray, pd: int, pt: int) -> np.ndarray:
    """(B, C, D, T) maps zero-padded by (pd, pt) on each side, flattened
    row by row, plus 2*pt spare zeros: (B, C, (D+2pd)*(T+2pt) + 2pt)."""
    b, c, d, t = x.shape
    width = t + 2 * pt
    n = (d + 2 * pd) * width
    xp = np.zeros((b, c, n + 2 * pt))
    xp[:, :, :n].reshape(b, c, d + 2 * pd, width)[
        :, :, pd:pd + d, pt:pt + t] = x
    return xp


def _tap_sum(xp: np.ndarray, w: np.ndarray, b: np.ndarray, d: int,
             t: int) -> np.ndarray:
    """b plus, for each tap (a, c) of w (Co, Ci, KD, KT), w[:, :, a, c]
    times the window of _pad buffer xp at offset a*(T+2pt) + c: (B, Co, D,
    T). One sample at a time, so its output stays in cache across taps."""
    _, _, kd, kt = w.shape
    width = t + 2 * (kt // 2)
    n = d * width
    out = np.empty((xp.shape[0], w.shape[0], n))
    out[:] = b[None, :, None]
    tmp = np.empty(out.shape[1:])
    for o, xs in zip(out, xp):
        for a in range(kd):
            for c in range(kt):
                off = a * width + c
                np.matmul(w[:, :, a, c], xs[:, off:off + n], out=tmp)
                o += tmp
    return np.ascontiguousarray(out.reshape(*out.shape[:2], d, width)[..., :t])


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padding convolution of (B, Ci, D, T) maps with an odd (Co, Ci,
    KD, KT) kernel plus bias: (B, Co, D, T)."""
    _, _, kd, kt = w.shape
    return _tap_sum(_pad(x, kd // 2, kt // 2), w, b, *x.shape[2:])


def _conv_backward(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of _conv w.r.t. (x, w, b), from one padded copy of gout."""
    _, _, d, t = x.shape
    _, _, kd, kt = w.shape
    pd, pt = kd // 2, kt // 2
    width = t + 2 * pt
    n = d * width
    xp = _pad(x, pd, pt)
    gp = _pad(gout, pd, pt)
    g = gp[:, :, pd * width + pt:][:, :, :n]  # gout, dropped columns zero
    gw = np.empty_like(w)
    for a in range(kd):
        for c in range(kt):
            off = a * width + c
            gw[:, :, a, c] = np.matmul(
                g, xp[:, :, off:off + n].transpose(0, 2, 1)).sum(axis=0)
    gx = _tap_sum(gp, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1],
                  np.zeros(w.shape[1]), d, t)
    return gx, gw, gout.sum(axis=(0, 2, 3))


def _proposal_reduce_backward(gout: np.ndarray, h2: np.ndarray,
                              sm: SamplingMatrix, w_r: np.ndarray,
                              masks: np.ndarray | None):
    """Gradients of sample_proposal_features w.r.t. (h2, w, b)."""
    gb = np.array([gout.sum()])
    if masks is not None:
        gout = gout * masks
    gflat = gout.reshape(-1, w_r.shape[0])  # (B*C, D*T)
    gw = reduction_weight_grad(sm, gflat.T @ h2.reshape(gflat.shape[0], -1))
    return (gflat @ w_r).reshape(h2.shape), gw, gb


def _old_forward_batch(params: dict, x: np.ndarray, cfg: ModelConfig,
                       masks: np.ndarray | None) -> dict:
    """Run the full network on a (B, C_in, T) batch; returns all
    intermediates needed by the backward pass.

    ``masks`` are per-sample draw_mask results stacked to (B, C|1, D|1,
    T|1), or None; being constant over N, they are applied after the
    N-point reduction. The 1-D layers run as D = 1 maps and kernels.
    """
    h1 = np.maximum(_conv(x[:, :, None], params["stem1_w"][:, :, None],
                          params["stem1_b"]), 0.0)
    h2 = np.maximum(_conv(h1, params["stem2_w"][:, :, None],
                          params["stem2_b"]), 0.0)
    p_start = _sigmoid(_conv(h2, params["start_w"][:, :, None],
                             params["start_b"])[:, 0, 0])
    p_end = _sigmoid(_conv(h2, params["end_w"][:, :, None],
                           params["end_b"])[:, 0, 0])
    h1, h2 = h1[:, :, 0], h2[:, :, 0]

    sm = cfg.sampling_matrix()
    reduced = sample_proposal_features(h2, sm, params["reduce_w"],
                                       params["reduce_b"], masks)
    w_r = sm.reduction_matrix(params["reduce_w"])
    hidden2d = np.maximum(_conv(reduced, params["pem_w"], params["pem_b"]),
                          0.0)
    b, _, d, t = hidden2d.shape
    flat = hidden2d.reshape(b, -1, d * t)
    p_cls = _sigmoid((params["cls_w"] @ flat).reshape(b, d, t)
                     + params["cls_b"][0])
    p_reg = _sigmoid((params["reg_w"] @ flat).reshape(b, d, t)
                     + params["reg_b"][0])
    return dict(x=x, h1=h1, h2=h2, reduced=reduced, hidden2d=hidden2d,
                p_start=p_start, p_end=p_end, p_cls=p_cls, p_reg=p_reg,
                masks=masks, sm=sm, w_r=w_r)


def _old_backward_batch(params: dict, fwd: dict, g_start: np.ndarray,
                        g_end: np.ndarray, g_cls: np.ndarray,
                        g_reg: np.ndarray) -> dict[str, np.ndarray]:
    """Propagate output gradients back to every parameter."""
    h1, h2 = fwd["h1"], fwd["h2"]
    reduced, hidden2d = fwd["reduced"], fwd["hidden2d"]
    p_start, p_end, p_cls, p_reg = (fwd["p_start"], fwd["p_end"],
                                    fwd["p_cls"], fwd["p_reg"])
    g = {}

    gz_cls = g_cls * p_cls * (1.0 - p_cls)
    gz_reg = g_reg * p_reg * (1.0 - p_reg)
    b = len(hidden2d)
    flat = hidden2d.reshape(b, hidden2d.shape[1], -1)
    g["cls_w"] = (flat @ gz_cls.reshape(b, -1, 1)).sum(axis=0)
    g["cls_b"] = np.array([gz_cls.sum()])
    g["reg_w"] = (flat @ gz_reg.reshape(b, -1, 1)).sum(axis=0)
    g["reg_b"] = np.array([gz_reg.sum()])
    gh2d = (params["cls_w"][None, :, None, None] * gz_cls[:, None]
            + params["reg_w"][None, :, None, None] * gz_reg[:, None])
    gh2d *= hidden2d > 0.0

    greduced, g["pem_w"], g["pem_b"] = _conv_backward(
        gh2d, reduced, params["pem_w"])
    gh2, g["reduce_w"], g["reduce_b"] = _proposal_reduce_backward(
        greduced, h2, fwd["sm"], fwd["w_r"], fwd["masks"])

    h1, h2 = h1[:, :, None], h2[:, :, None]  # D = 1 maps
    gz_start = (g_start * p_start * (1.0 - p_start))[:, None, None, :]
    gz_end = (g_end * p_end * (1.0 - p_end))[:, None, None, :]
    gh2_s, g["start_w"], g["start_b"] = _conv_backward(
        gz_start, h2, params["start_w"][:, :, None])
    gh2_e, g["end_w"], g["end_b"] = _conv_backward(
        gz_end, h2, params["end_w"][:, :, None])
    gh2 = gh2[:, :, None] + gh2_s + gh2_e

    gh2 *= h2 > 0.0
    gh1, g["stem2_w"], g["stem2_b"] = _conv_backward(
        gh2, h1, params["stem2_w"][:, :, None])
    gh1 *= h1 > 0.0
    _, g["stem1_w"], g["stem1_b"] = _conv_backward(
        gh1, fwd["x"][:, :, None], params["stem1_w"][:, :, None])
    return {name: g[name].reshape(params[name].shape) for name in params}


SHAPES = {
    "a5": dict(c_h=8, t_scale=64, d_max=64, n_samples=8),
    "paper": dict(c_h=32, t_scale=100, d_max=100, n_samples=32),
}
BATCH = {"a5": 4, "paper": 2}
MASKS = {
    "off": MaskConfig(p=0.0),
    "proposal": MaskConfig(p=0.3, granularity="proposal"),
    "channel": MaskConfig(p=0.3, granularity="channel"),
}
OUTPUTS = ("p_start", "p_end", "p_cls", "p_reg")


def _setup(shape, mask, batch_size, kernel_size=3):
    cfg = ModelConfig(c_in=4, kernel_size=kernel_size, mask=MASKS[mask],
                      seed=0, **SHAPES[shape])
    rng = np.random.default_rng(23)
    params = perturbed_params(cfg, rng)
    batch = [random_sample(rng, cfg) for _ in range(batch_size)]
    return cfg, params, batch, draw_step_noise(batch, cfg, rng)


@pytest.mark.parametrize("mask", list(MASKS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_step_is_bit_identical_to_earlier_step(shape, mask):
    cfg, params, batch, noise = _setup(shape, mask, BATCH[shape])
    x = np.stack([s.features for s in batch])
    old = _old_forward_batch(params, x, cfg, noise.masks)
    want_loss, *out_grads = _output_grads(old, batch, cfg, noise)
    want = _old_backward_batch(params, old, *out_grads)

    new = _forward_batch(params, x, cfg, noise.masks)
    for name in OUTPUTS:
        assert np.array_equal(new[name], old[name]), name
    loss, grads = loss_and_gradients(params, batch, cfg, noise)
    assert loss == want_loss
    assert list(grads) == list(want)
    for name in want:
        assert np.array_equal(grads[name], want[name]), name


@pytest.mark.parametrize("shape", list(SHAPES))
def test_inference_is_bit_identical_to_earlier_forward(shape):
    cfg, params, batch, _ = _setup(shape, "off", 1)
    feats = batch[0].features
    old = _old_forward_batch(params, feats[None], cfg, None)
    out = forward(params, feats.T, cfg)
    for name in OUTPUTS:
        assert np.array_equal(getattr(out, name), old[name][0]), name


# (shape, batch size, mask, kernel size): each batch size meets every mask
# setting and every kernel size once, and each mask every kernel size.
CHUNKED = [("a5", 20, "off", 1), ("a5", 20, "proposal", 3),
           ("a5", 20, "channel", 5), ("a5", 32, "off", 3),
           ("a5", 32, "proposal", 5), ("a5", 32, "channel", 1),
           ("paper", 10, "off", 5), ("paper", 10, "proposal", 1),
           ("paper", 10, "channel", 3)]


@pytest.mark.parametrize("shape, batch_size, mask, kernel_size", CHUNKED)
def test_chunked_step_matches_one_whole_batch_pass(shape, batch_size, mask,
                                                   kernel_size):
    """Batches of more than _STEP_CHUNK samples, a short last chunk among
    them: the loss is bit-identical to one pass over the whole batch and
    every gradient within 1e-12 of the largest magnitude of its own."""
    assert batch_size > _STEP_CHUNK
    cfg, params, batch, noise = _setup(shape, mask, batch_size, kernel_size)
    whole = _forward_batch(params, np.stack([s.features for s in batch]),
                           cfg, noise.masks)
    want_loss, *out_grads = _output_grads(whole, batch, cfg, noise)
    want = _backward_batch(params, whole, *out_grads)

    loss, grads = loss_and_gradients(params, batch, cfg, noise)
    assert loss == want_loss
    assert batch_loss(params, batch, cfg, noise) == want_loss
    assert list(grads) == list(want)
    for name in want:
        scale = max(np.abs(want[name]).max(), np.finfo(float).tiny)
        assert np.abs(grads[name] - want[name]).max() <= 1e-12 * scale, name


def _step_peak_maps(shape: str, c_in: int, batch_size: int) -> float:
    """The traced peak of one training step, in (B, C_h, D, T) float64 maps
    of the whole batch. The step builds W_r, as each step of training does
    for its new parameters."""
    cfg = ModelConfig(c_in=c_in, mask=MaskConfig(p=0.1),
                      batch_size=batch_size, seed=0, **SHAPES[shape])
    rng = np.random.default_rng(5)
    params = perturbed_params(cfg, rng)
    batch = [random_sample(rng, cfg) for _ in range(cfg.batch_size)]
    noise = draw_step_noise(batch, cfg, rng)
    loss_and_gradients(params, batch, cfg, noise)  # warm every cache
    params["reduce_w"] = -params["reduce_w"]
    unit = cfg.batch_size * cfg.c_h * cfg.d_max * cfg.t_scale * 8
    tracemalloc.start()
    try:
        loss_and_gradients(params, batch, cfg, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / unit


def test_a5_step_peak_memory_is_bounded():
    """One A5 step (B = 32) holds at most 1.5 (B, C_h, D, T) float64 maps
    at once: it runs in chunks of 8 samples. The whole-batch step held
    3.37, and the step before it about 7.4."""
    peak = _step_peak_maps("a5", 16, 32)
    assert peak <= 1.5, f"peak {peak:.2f} maps"


def test_paper_step_peak_memory_is_bounded():
    """One paper-shape step (B = 16) holds at most 1.75 (B, C_h, D, T)
    float64 maps at once; the whole-batch step held 2.67."""
    peak = _step_peak_maps("paper", 4, 16)
    assert peak <= 1.75, f"peak {peak:.2f} maps"
