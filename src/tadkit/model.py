"""The trainable proposal network: boundary head, confidence heads over the
dense proposal map, losses, analytic gradients, and the training loop.

Everything runs in float64 numpy. The backward pass is written by hand for
this fixed architecture and is validated against central finite differences
by the test suite. Shapes are channel-major internally: a batch is
``(B, C, T)`` and the reduced proposal map is ``(B, C, D, T)``. Sampling N
points per cell, masking them and contracting them with ``reduce_w`` is one
``(D*T, T)`` matmul (``SamplingMatrix.reduction_matrix``), so the
``(B, C, N, D, T)`` proposal tensor is never built.

Masks exist only inside a training step: ``draw_step_noise`` draws one per
sample, stacked to ``(B, C|1, D|1, T|1)``, and ``_forward_batch`` applies
them after the N-point reduction. ``forward`` is inference and never masks.

Every convolution is one same-padding routine, ``_conv``, over (B, C, D, T)
maps (the 1-D layers are D = 1), lowered to one small GEMM per kernel tap
(arXiv 1709.03395): each sample is zero-padded into one reused buffer,
flattened row by row at the padded width, so each tap reads one contiguous
slice; its product is added to the C-contiguous output through a view that
drops the columns that straddle two rows.
The weight gradient pads each sample of the input and of the output
gradient the same way; the input gradient is the forward routine with the
kernel flipped and its channel axes swapped.

A training step runs its batch in chunks of ``_STEP_CHUNK`` (8) samples:
each chunk's forward pass, output gradients and backward pass run as one
batch, and its gradients are added to the step's in chunk order, while the
loss is one running per-sample total. So a step's memory is its chunk's
full-size (8, C_h, D, T) float64 maps and does not grow with
``batch_size``. Chunks of 8 were no slower than the whole batch at the
A5 and paper shapes; chunks of 4 made the A5 step about 10% slower,
because each pass's GEMMs get narrower. The chunks of a step share one
``W_r``, which ``SamplingMatrix.reduction_matrix`` keeps for the last
``reduce_w``.

A pass never holds more than two of its full-size maps. The forward pass
keeps ``reduced`` and ``hidden2d``: the convolution writes ``hidden2d`` at
its final size and its ReLU runs in place. Each head is one matmul over
``hidden2d`` flattened to (B, C_h, D*T), forward and backward, so no
transposed copy is built. The backward pass takes both maps out of the
forward's intermediates. It
builds the heads' input gradient ``gh2d`` in ``hidden2d``'s own buffer,
one channel at a time, then frees ``reduced`` once the ``pem`` weight
gradient is summed and ``gh2d`` once the ``pem`` input gradient is built;
the proposal-reduction backward then holds that gradient and one masked
copy of it. Beside the two maps, the (B, D, T) head maps and gradients, the
masks and ``W_r`` add about one map. No padded copy of a map is built.
"""

from __future__ import annotations

import json
import struct
import typing
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import MODEL_KEYS  # noqa: F401  (its old import path)
from .config import (MaskConfig, ModelConfig, PreprocessConfig,
                     TrainingDivergedError)
from .dataio import (AnnotationSet, NetworkOutputs, VideoAnnotation,
                     rescale_features, typed_fields)
from .preprocess import epoch_list, resize_instance, temporal_shift
from .proposals import draw_mask, gt_iou_map

MODEL_MAGIC = b"CPNM"
MODEL_VERSION = 1

_CLAMP = 1e-7

# Samples per forward and backward pass of a training step; the module
# docstring says why 8.
_STEP_CHUNK = 8


class ModelIOError(IOError):
    """Model file is malformed."""


def config_from_dict(d: object) -> ModelConfig:
    """The ModelConfig of a model file's JSON config blob, each key checked
    against its field type; TypeError names a bad or missing one. Every
    field is required, since save_model writes them all. A ``mask.seed``,
    which older files store, is dropped: the run's seed draws the masks."""
    kwargs = _all_fields("", d, {**typing.get_type_hints(ModelConfig),
                                 "mask": dict})
    mask = dict(kwargs.pop("mask"))
    mask.pop("seed", None)
    return ModelConfig(mask=MaskConfig(**_all_fields(
        "mask", mask, typing.get_type_hints(MaskConfig))), **kwargs)


def _all_fields(where: str, raw: object, types: dict[str, object]) -> dict:
    """typed_fields, plus a TypeError naming the first key of types that
    raw does not set."""
    kwargs = typed_fields(where, raw, types)
    for key in types:
        if key not in kwargs:
            raise TypeError(f"missing config key: "
                            f"{where + '.' if where else ''}{key}")
    return kwargs


@dataclass
class BoundaryLabels:
    start: np.ndarray
    end: np.ndarray


@dataclass
class TrainSample:
    """One prepared training example at the model's temporal scale."""

    features: np.ndarray  # (C_in, T) channel-major
    labels: BoundaryLabels
    gt_map: np.ndarray  # (D, T)
    video_id: str = ""


# ---------------------------------------------------------------------------
# Parameters

def _param_specs(cfg: ModelConfig):
    """(name, shape, (fan_in, fan_out) or None for zero-init biases), in
    declaration order. The order also fixes the model-file layout."""
    k = cfg.kernel_size
    return [
        ("stem1_w", (cfg.c_h, cfg.c_in, k), (cfg.c_in * k, cfg.c_h * k)),
        ("stem1_b", (cfg.c_h,), None),
        ("stem2_w", (cfg.c_h, cfg.c_h, k), (cfg.c_h * k, cfg.c_h * k)),
        ("stem2_b", (cfg.c_h,), None),
        ("start_w", (1, cfg.c_h, k), (cfg.c_h * k, k)),
        ("start_b", (1,), None),
        ("end_w", (1, cfg.c_h, k), (cfg.c_h * k, k)),
        ("end_b", (1,), None),
        ("reduce_w", (cfg.n_samples,), (cfg.n_samples, 1)),
        ("reduce_b", (1,), None),
        ("pem_w", (cfg.c_h, cfg.c_h, k, k), (cfg.c_h * k * k, cfg.c_h * k * k)),
        ("pem_b", (cfg.c_h,), None),
        ("cls_w", (cfg.c_h,), (cfg.c_h, 1)),
        ("cls_b", (1,), None),
        ("reg_w", (cfg.c_h,), (cfg.c_h, 1)),
        ("reg_b", (1,), None),
    ]


def init_params(cfg: ModelConfig,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, in declaration order."""
    cfg.validate()
    params = {}
    for name, shape, fans in _param_specs(cfg):
        if fans is None:
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (fans[0] + fans[1]))
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


# ---------------------------------------------------------------------------
# Layer primitives

def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees non-positive arguments, so
    no input overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _padded(c: int, d: int, t: int, pd: int,
            pt: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero buffer for one (C, D, T) map padded by (pd, pt) on each side,
    flattened row by row, plus 2*pt spare zeros: (C, (D+2pd)*(T+2pt) +
    2pt); and the (C, D, T) view of its interior. Writing a map into the
    view pads it; the border is never written, so it stays zero."""
    width = t + 2 * pt
    n = (d + 2 * pd) * width
    buf = np.zeros((c, n + 2 * pt))
    return buf, buf[:, :n].reshape(c, d + 2 * pd, width)[
        :, pd:pd + d, pt:pt + t]


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padding convolution of (B, Ci, D, T) maps with an odd (Co, Ci,
    KD, KT) kernel plus bias: a C-contiguous (B, Co, D, T) array. Each
    sample is padded into one reused buffer; each tap (a, c) multiplies
    w[:, :, a, c] by the buffer window at offset a*(T+2pt) + c, at the
    padded width, and adds the product's first T columns of each row to
    the sample's output. One sample at a time, so its output stays in
    cache across taps."""
    _, _, d, t = x.shape
    co, _, kd, kt = w.shape
    width = t + 2 * (kt // 2)
    n = d * width
    xp, inner = _padded(x.shape[1], d, t, kd // 2, kt // 2)
    out = np.empty((x.shape[0], co, d, t))
    out[:] = b[None, :, None, None]
    tmp = np.empty((co, n))
    kept = tmp.reshape(co, d, width)[..., :t]
    for o, xs in zip(out, x):
        inner[...] = xs
        for a in range(kd):
            for c in range(kt):
                off = a * width + c
                np.matmul(w[:, :, a, c], xp[:, off:off + n], out=tmp)
                o += kept
    return out


def _conv_input_grad(gout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of _conv w.r.t. its input: the convolution of gout with the
    kernel flipped and its channel axes swapped."""
    return _conv(gout, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1],
                 np.zeros(w.shape[1]))


def _conv_weight_grad(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of _conv w.r.t. (w, b). Per tap, the per-sample products
    are summed over the batch in sample order."""
    bsz, _, d, t = x.shape
    co, ci, kd, kt = w.shape
    pd, pt = kd // 2, kt // 2
    width = t + 2 * pt
    n = d * width
    xp, x_inner = _padded(ci, d, t, pd, pt)
    gp, g_inner = _padded(co, d, t, pd, pt)
    g = gp[:, pd * width + pt:][:, :n]  # gout, dropped columns zero
    prods = np.empty((kd, kt, bsz, co, ci))
    for i in range(bsz):
        x_inner[...] = x[i]
        g_inner[...] = gout[i]
        for a in range(kd):
            for c in range(kt):
                off = a * width + c
                np.matmul(g, xp[:, off:off + n].T, out=prods[a, c, i])
    gw = np.empty_like(w)
    for a in range(kd):
        for c in range(kt):
            gw[:, :, a, c] = prods[a, c].sum(axis=0)
    return gw, gout.sum(axis=(0, 2, 3))


def _proposal_reduce(h2: np.ndarray, sm: SamplingMatrix, w: np.ndarray,
                     b: np.ndarray, masks: np.ndarray | None):
    """Sample N points per proposal cell, mask, and reduce over N with
    weights ``w`` plus bias ``b``: (B, C, T) -> (B, C, D, T).

    ``masks`` (B, C|1, D|1, T|1) do not vary over N, so masking commutes
    with the reduction and the whole layer is one matmul with
    W_r = sum_n w[n] W_n. Returns the output and W_r.
    """
    w_r = sm.reduction_matrix(w)  # (D*T, T)
    out = (h2 @ w_r.T).reshape(*h2.shape[:2], sm.grid.d_max,
                               sm.grid.t_scale)
    if masks is not None:
        out *= masks
    out += b[0]
    return out, w_r


def _proposal_reduce_backward(gout: np.ndarray, h2: np.ndarray,
                              sm: SamplingMatrix, w_r: np.ndarray,
                              masks: np.ndarray | None):
    """Gradients of _proposal_reduce w.r.t. (h2, w, b), for a C-contiguous
    gout."""
    gb = np.array([gout.sum()])
    if masks is not None:
        gout = gout * masks
    gflat = gout.reshape(-1, w_r.shape[0])  # (B*C, D*T), no copy
    gw = sm.reduction_weight_grad(gflat.T @ h2.reshape(gflat.shape[0], -1))
    return (gflat @ w_r).reshape(h2.shape), gw, gb


# ---------------------------------------------------------------------------
# Forward

def _forward_batch(params: dict, x: np.ndarray, cfg: ModelConfig,
                   masks: np.ndarray | None) -> dict:
    """Run the full network on a (B, C_in, T) batch; returns all
    intermediates needed by the backward pass.

    ``masks`` are per-sample draw_mask results stacked to (B, C|1, D|1,
    T|1), or None; being constant over N, they are applied after the
    N-point reduction. The 1-D layers run as D = 1 maps and kernels.
    """
    h1 = _conv(x[:, :, None], params["stem1_w"][:, :, None],
               params["stem1_b"])
    np.maximum(h1, 0.0, out=h1)
    h2 = _conv(h1, params["stem2_w"][:, :, None], params["stem2_b"])
    np.maximum(h2, 0.0, out=h2)
    p_start = _sigmoid(_conv(h2, params["start_w"][:, :, None],
                             params["start_b"])[:, 0, 0])
    p_end = _sigmoid(_conv(h2, params["end_w"][:, :, None],
                           params["end_b"])[:, 0, 0])
    h1, h2 = h1[:, :, 0], h2[:, :, 0]

    sm = cfg.sampling_matrix()
    reduced, w_r = _proposal_reduce(h2, sm, params["reduce_w"],
                                    params["reduce_b"], masks)
    hidden2d = _conv(reduced, params["pem_w"], params["pem_b"])
    np.maximum(hidden2d, 0.0, out=hidden2d)
    b, _, d, t = hidden2d.shape
    flat = hidden2d.reshape(b, -1, d * t)
    p_cls = _sigmoid((params["cls_w"] @ flat).reshape(b, d, t)
                     + params["cls_b"][0])
    p_reg = _sigmoid((params["reg_w"] @ flat).reshape(b, d, t)
                     + params["reg_b"][0])
    return dict(x=x, h1=h1, h2=h2, reduced=reduced, hidden2d=hidden2d,
                p_start=p_start, p_end=p_end, p_cls=p_cls, p_reg=p_reg,
                masks=masks, sm=sm, w_r=w_r)


def _backward_batch(params: dict, fwd: dict, g_start: np.ndarray,
                    g_end: np.ndarray, g_cls: np.ndarray,
                    g_reg: np.ndarray) -> dict[str, np.ndarray]:
    """Propagate output gradients back to every parameter. Takes the
    full-size maps ``reduced`` and ``hidden2d`` out of fwd, so that each is
    freed after its last use; ``hidden2d``'s buffer becomes ``gh2d``."""
    h1, h2 = fwd["h1"], fwd["h2"]
    gh2d = fwd.pop("hidden2d")
    p_start, p_end, p_cls, p_reg = (fwd["p_start"], fwd["p_end"],
                                    fwd["p_cls"], fwd["p_reg"])
    g = {}

    gz_cls = g_cls * p_cls * (1.0 - p_cls)
    gz_reg = g_reg * p_reg * (1.0 - p_reg)
    b = len(gh2d)
    flat = gh2d.reshape(b, gh2d.shape[1], -1)  # hidden2d, (B, C, D*T)
    g["cls_w"] = (flat @ gz_cls.reshape(b, -1, 1)).sum(axis=0)
    g["cls_b"] = np.array([gz_cls.sum()])
    g["reg_w"] = (flat @ gz_reg.reshape(b, -1, 1)).sum(axis=0)
    g["reg_b"] = np.array([gz_reg.sum()])
    del flat
    for c, (wc, wr) in enumerate(zip(params["cls_w"], params["reg_w"])):
        live = gh2d[:, c] > 0.0
        np.add(wc * gz_cls, wr * gz_reg, out=gh2d[:, c])
        gh2d[:, c] *= live

    reduced = fwd.pop("reduced")
    g["pem_w"], g["pem_b"] = _conv_weight_grad(gh2d, reduced,
                                               params["pem_w"])
    del reduced
    greduced = _conv_input_grad(gh2d, params["pem_w"])
    del gh2d
    gh2, g["reduce_w"], g["reduce_b"] = _proposal_reduce_backward(
        greduced, h2, fwd["sm"], fwd["w_r"], fwd["masks"])
    del greduced

    h1, h2 = h1[:, :, None], h2[:, :, None]  # D = 1 maps
    gz_start = (g_start * p_start * (1.0 - p_start))[:, None, None, :]
    gz_end = (g_end * p_end * (1.0 - p_end))[:, None, None, :]
    g["start_w"], g["start_b"] = _conv_weight_grad(
        gz_start, h2, params["start_w"][:, :, None])
    g["end_w"], g["end_b"] = _conv_weight_grad(
        gz_end, h2, params["end_w"][:, :, None])
    gh2 = (gh2[:, :, None]
           + _conv_input_grad(gz_start, params["start_w"][:, :, None])
           + _conv_input_grad(gz_end, params["end_w"][:, :, None]))

    gh2 *= h2 > 0.0
    g["stem2_w"], g["stem2_b"] = _conv_weight_grad(
        gh2, h1, params["stem2_w"][:, :, None])
    gh1 = _conv_input_grad(gh2, params["stem2_w"][:, :, None])
    gh1 *= h1 > 0.0
    g["stem1_w"], g["stem1_b"] = _conv_weight_grad(
        gh1, fwd["x"][:, :, None], params["stem1_w"][:, :, None])
    return {name: g[name].reshape(params[name].shape) for name in params}


def forward(params: dict, features: np.ndarray,
            cfg: ModelConfig) -> NetworkOutputs:
    """Run one (T, C_in) sequence through the network for inference:
    deterministic and unmasked."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (cfg.t_scale, cfg.c_in):
        raise ValueError(
            f"expected features of shape ({cfg.t_scale}, {cfg.c_in}), "
            f"got {feats.shape}")
    x = np.ascontiguousarray(feats.T)[None]
    fwd = _forward_batch(params, x, cfg, None)
    return NetworkOutputs(fwd["p_start"][0], fwd["p_end"][0],
                          fwd["p_cls"][0], fwd["p_reg"][0])


# ---------------------------------------------------------------------------
# Labels and losses

def boundary_labels(ann: VideoAnnotation, t_scale: int) -> BoundaryLabels:
    """Binary start/end targets: snippet t is positive when its center
    (t + 0.5) lies within max(0.5, 0.05 * instance length) of a boundary,
    all in snippet units."""
    start = np.zeros(t_scale)
    end = np.zeros(t_scale)
    centers = np.arange(t_scale) + 0.5
    scale = t_scale / ann.duration
    for inst in ann.instances:
        s_g, e_g = inst.start * scale, inst.end * scale
        delta = max(0.5, 0.05 * (e_g - s_g))
        start[np.abs(centers - s_g) <= delta] = 1.0
        end[np.abs(centers - e_g) <= delta] = 1.0
    return BoundaryLabels(start, end)


def _balanced_bce(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Class-balanced binary logistic loss and its gradient w.r.t. p.

    Weights are n/n_pos and n/n_neg; a term with zero count is dropped.
    Probabilities are clamped to [1e-7, 1 - 1e-7]; the gradient is zero
    where the clamp is active.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = p.size
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    n_pos = float(y.sum())
    n_neg = n - n_pos
    a_pos = n / n_pos if n_pos > 0 else 0.0
    a_neg = n / n_neg if n_neg > 0 else 0.0
    loss = -(a_pos * float((y * np.log(pc)).sum())
             + a_neg * float(((1.0 - y) * np.log1p(-pc)).sum())) / n
    inside = (p > _CLAMP) & (p < 1.0 - _CLAMP)
    grad = np.where(inside,
                    -(a_pos * y / pc - a_neg * (1.0 - y) / (1.0 - pc)) / n,
                    0.0)
    return loss, grad


def _pem_cls(p_cls: np.ndarray, gt: np.ndarray,
             valid: np.ndarray) -> tuple[float, np.ndarray]:
    """Balanced logistic loss over valid cells, positives at gt > 0.9."""
    loss, grad_flat = _balanced_bce(p_cls[valid], (gt[valid] > 0.9))
    grad = np.zeros_like(p_cls)
    grad[valid] = grad_flat
    return loss, grad


def _sample_reg_cells(gt: np.ndarray, valid: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Flat (D*T) indices for the regression term: all cells with gt > 0.7
    plus equal-size uniform samples from (0.3, 0.7] and [0, 0.3] (or the
    whole stratum when it is smaller)."""
    g = gt.ravel()
    v = valid.ravel()
    high = np.flatnonzero(v & (g > 0.7))
    mid = np.flatnonzero(v & (g > 0.3) & (g <= 0.7))
    low = np.flatnonzero(v & (g <= 0.3))
    n_high = len(high)
    mid_sel = rng.choice(mid, size=min(n_high, len(mid)), replace=False)
    low_sel = rng.choice(low, size=min(n_high, len(low)), replace=False)
    return np.concatenate([high, mid_sel, low_sel])


def _pem_reg(p_reg: np.ndarray, gt: np.ndarray,
             cells: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over the sampled cell set."""
    grad = np.zeros_like(p_reg)
    if cells.size == 0:
        return 0.0, grad
    diff = p_reg.ravel()[cells] - gt.ravel()[cells]
    grad.ravel()[cells] = 2.0 * diff / cells.size
    return float((diff ** 2).mean()), grad


# ---------------------------------------------------------------------------
# Gradients

@dataclass
class StepNoise:
    """Realized randomness of one training step, fixed across the forward
    and backward passes (and across finite-difference probes)."""

    masks: np.ndarray | None  # (B, C|1, D|1, T|1); None when p == 0
    reg_cells: list[np.ndarray]


def draw_step_noise(batch: list[TrainSample], cfg: ModelConfig,
                    rng: np.random.Generator) -> StepNoise:
    """Draw one mask (when p > 0) and one regression cell set per sample."""
    grid = cfg.grid()
    shape = (cfg.c_h, cfg.d_max, cfg.t_scale)
    masks = []
    cells = []
    for sample in batch:
        if cfg.mask.p > 0.0:
            masks.append(draw_mask(shape, cfg.mask, rng))
        cells.append(_sample_reg_cells(sample.gt_map, grid.valid, rng))
    return StepNoise(np.stack(masks) if masks else None, cells)


def _sample_grads(fwd: dict, batch: list[TrainSample], cfg: ModelConfig,
                  noise: StepNoise, b: int, total: float):
    """Per-sample losses and gradients w.r.t. the four network outputs, for
    a batch that may be one chunk of a step's b samples.

    The step's loss is the mean over its samples of tem + pem, so
    per-sample output gradients carry the whole step's 1/b factor. Each
    sample's loss is added to the running total of the chunks before it,
    in sample order, and the new total is returned first.
    """
    grid = cfg.grid()
    g_start = np.zeros_like(fwd["p_start"])
    g_end = np.zeros_like(fwd["p_end"])
    g_cls = np.zeros_like(fwd["p_cls"])
    g_reg = np.zeros_like(fwd["p_reg"])
    for i, sample in enumerate(batch):
        loss_s, gs = _balanced_bce(fwd["p_start"][i], sample.labels.start)
        loss_e, ge = _balanced_bce(fwd["p_end"][i], sample.labels.end)
        loss_c, gc = _pem_cls(fwd["p_cls"][i], sample.gt_map, grid.valid)
        loss_r, gr = _pem_reg(fwd["p_reg"][i], sample.gt_map,
                              noise.reg_cells[i])
        total += (loss_s + loss_e + cfg.lambda_cls * loss_c
                  + cfg.lambda_reg * loss_r)
        g_start[i] = gs / b
        g_end[i] = ge / b
        g_cls[i] = cfg.lambda_cls * gc / b
        g_reg[i] = cfg.lambda_reg * gr / b
    return total, g_start, g_end, g_cls, g_reg


def _step(params: dict, batch: list[TrainSample], cfg: ModelConfig,
          noise: StepNoise, backward: bool
          ) -> tuple[float, dict[str, np.ndarray]]:
    """The step's mean loss and, when backward, its gradients: the forward
    and backward passes run over _STEP_CHUNK samples at a time, and each
    chunk's gradients are added to the step's in chunk order."""
    b = len(batch)
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for lo in range(0, b, _STEP_CHUNK):
        rows = slice(lo, lo + _STEP_CHUNK)
        chunk = batch[rows]
        part = StepNoise(None if noise.masks is None else noise.masks[rows],
                         noise.reg_cells[rows])
        fwd = _forward_batch(params, np.stack([s.features for s in chunk]),
                             cfg, part.masks)
        total, *out_grads = _sample_grads(fwd, chunk, cfg, part, b, total)
        if backward:
            for name, g in _backward_batch(params, fwd, *out_grads).items():
                if name in grads:
                    grads[name] += g
                else:
                    grads[name] = g
        del fwd, out_grads  # before the next chunk's forward pass
    return total / b, grads


def batch_loss(params: dict, batch: list[TrainSample], cfg: ModelConfig,
               noise: StepNoise) -> float:
    """Mean total loss of a batch under fixed realized randomness."""
    return _step(params, batch, cfg, noise, backward=False)[0]


def loss_and_gradients(params: dict, batch: list[TrainSample],
                       cfg: ModelConfig, noise: StepNoise
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and its exact gradient w.r.t. every parameter, for the
    given realized masks and regression cell sets.

    The batch runs through the network in chunks of _STEP_CHUNK (8)
    samples, so a step holds a few (8, C_h, D, T) maps whatever
    ``batch_size`` is. A batch of at most 8 samples is one chunk. The loss
    is one running per-sample total, so it does not depend on the
    chunking; for a larger batch, the gradients' cross-sample sums are
    grouped by chunk, which moves their last bits.
    """
    return _step(params, batch, cfg, noise, backward=True)


def compute_gradients(params: dict, batch: list[TrainSample],
                      cfg: ModelConfig, rng: np.random.Generator
                      ) -> tuple[float, dict[str, np.ndarray]]:
    """Draw fresh step randomness and return (loss, gradients)."""
    if not batch:
        raise ValueError("batch must be nonempty")
    noise = draw_step_noise(batch, cfg, rng)
    loss, grads = loss_and_gradients(params, batch, cfg, noise)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    return loss, grads


# ---------------------------------------------------------------------------
# Training

def prepare_sample(video_id: str, anns: AnnotationSet,
                   features: dict[str, np.ndarray], cfg: ModelConfig,
                   pp: PreprocessConfig, rng: np.random.Generator
                   ) -> TrainSample:
    """Rescale one video to the model scale and build its targets; applies
    the resize/shift augmentations with probability 0.5 each when enabled."""
    ann = anns[video_id]
    feats = features[video_id]
    if pp.enable_resize and ann.instances and rng.random() < 0.5:
        feats, ann = resize_instance(feats, ann, rng,
                                     (pp.resize_lo, pp.resize_hi))
    seq = rescale_features(feats, cfg.t_scale)
    if pp.enable_shift and rng.random() < 0.5:
        seq = temporal_shift(seq, pp.shift_fraction)
    return TrainSample(np.ascontiguousarray(seq.T),
                       boundary_labels(ann, cfg.t_scale),
                       gt_iou_map(cfg.grid(), ann), video_id)


def train(anns: AnnotationSet, features: dict[str, np.ndarray],
          cfg: ModelConfig, preprocess_cfg: PreprocessConfig | None = None
          ) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Train with gradient descent plus momentum; single-threaded and
    deterministic for a fixed seed.

    Returns the trained parameters and a per-epoch log: mean loss, steps,
    the epoch list's length (n_samples) and its distinct videos (n_videos).
    With epochs == 0 the freshly initialized parameters are returned.
    """
    cfg.validate()
    pp = preprocess_cfg if preprocess_cfg is not None else PreprocessConfig()
    pp.validate()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)

    work, epoch_ids = epoch_list(anns, pp)
    if not epoch_ids:
        raise ValueError("no training videos after preprocessing")
    n_videos = len(set(epoch_ids))

    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(epoch_ids))
        losses = []
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            ids = [epoch_ids[i] for i in order[lo:lo + cfg.batch_size]]
            batch = [prepare_sample(v, work, features, cfg, pp, rng)
                     for v in ids]
            try:
                loss, grads = compute_gradients(params, batch, cfg, rng)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, step {step}: {exc}") from exc
            for k in params:
                velocity[k] = cfg.momentum * velocity[k] \
                    - cfg.learning_rate * grads[k]
                params[k] += velocity[k]
            losses.append(loss)
        log.append({"epoch": epoch, "mean_loss": float(np.mean(losses)),
                    "n_steps": len(losses), "n_samples": len(epoch_ids),
                    "n_videos": n_videos})
    return params, log


# ---------------------------------------------------------------------------
# Serialization

def save_model(path: str | Path, cfg: ModelConfig,
               params: dict[str, np.ndarray]) -> None:
    """Binary model file: magic, version, config JSON blob, then tensors in
    declaration order (u32 rank, u32 dims, float64 payload)."""
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    chunks = [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(blob)), blob]
    for name, shape, _ in _param_specs(cfg):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        if arr.shape != shape:
            raise ModelIOError(f"parameter {name}: shape {arr.shape} does "
                               f"not match config ({shape})")
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_model(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise ModelIOError(f"{path}: bad magic")
    version, blob_len = struct.unpack_from("<II", data, 4)
    if version != MODEL_VERSION:
        raise ModelIOError(f"{path}: unsupported version {version}")
    try:
        cfg = config_from_dict(json.loads(data[12:12 + blob_len].decode()))
    except (TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad config blob: {exc}") from exc
    try:
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: invalid config: {exc}") from exc
    offset = 12 + blob_len
    params = {}
    for name, shape, _ in _param_specs(cfg):
        try:
            (rank,) = struct.unpack_from("<I", data, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", data, offset)
            offset += 4 * rank
            if dims != shape:
                raise ModelIOError(
                    f"{path}: parameter {name}: stored shape {dims} does "
                    f"not match config ({shape})")
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        except (struct.error, ValueError) as exc:
            raise ModelIOError(f"{path}: truncated at parameter "
                               f"{name}: {exc}") from exc
        offset += 8 * count
        if not np.isfinite(arr).all():
            raise ModelIOError(f"{path}: parameter {name} is not finite")
        params[name] = arr.reshape(dims).copy()
    if offset != len(data):
        raise ModelIOError(f"{path}: {len(data) - offset} trailing bytes")
    return cfg, params


def save_outputs(outputs: NetworkOutputs, path: str | Path) -> None:
    """Serialize one video's network outputs as an .npz archive."""
    np.savez(path, p_start=outputs.p_start, p_end=outputs.p_end,
             p_cls=outputs.p_cls, p_reg=outputs.p_reg)


def load_outputs(path: str | Path) -> NetworkOutputs:
    """Read one video's network outputs, as written by save_outputs.

    Raises ValueError naming the file when the archive is unreadable, a
    field is missing or not a real floating-point array, the boundary
    vectors are not one (T,) shape, the maps not one (D, T) shape with
    D <= T, or a value is not finite.
    """
    try:
        # Opened here: np.load leaks a file it opens on a corrupt archive.
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = [data[f.name] for f in fields(NetworkOutputs)]
    except (OSError, EOFError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable network outputs: {exc}") \
            from exc
    for f, arr in zip(fields(NetworkOutputs), arrays):
        if arr.dtype.kind != "f":
            raise ValueError(f"{path}: network output {f.name} must be a "
                             f"real floating-point array, got {arr.dtype}")
    out = NetworkOutputs(*(a.astype(np.float64, copy=False) for a in arrays))
    t = out.p_start.shape
    if len(t) != 1 or out.p_end.shape != t:
        raise ValueError(f"{path}: p_start and p_end must share one (T,) "
                         f"shape, got {t} and {out.p_end.shape}")
    d = out.p_cls.shape
    if len(d) != 2 or d[1:] != t or not 1 <= d[0] <= t[0] \
            or out.p_reg.shape != d:
        raise ValueError(f"{path}: p_cls and p_reg must share one (D, T) "
                         f"shape with D <= T = {t[0]}, got {d} and "
                         f"{out.p_reg.shape}")
    out.check_finite(str(path))
    return out
