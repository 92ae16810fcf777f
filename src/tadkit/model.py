"""The trainable proposal network: boundary head, confidence heads over the
masked dense proposal tensor, losses, analytic gradients, and the training
loop.

Everything runs in float64 numpy. The backward pass is written by hand for
this fixed architecture and is validated against central finite differences
by the test suite. Shapes are channel-major internally: a batch is
``(B, C, T)`` and the reduced proposal map is ``(B, C, D, T)``. Sampling N
points per cell, masking them and contracting them with ``reduce_w`` is one
``(D*T, T)`` matmul (``SamplingMatrix.reduction_matrix``), so the
``(B, C, N, D, T)`` proposal tensor is never built.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataio import AnnotationSet, VideoAnnotation, rescale_features
from .preprocess import PreprocessConfig, resize_instance, temporal_shift
from .proposals import (MaskConfig, ProposalGrid, SamplingMatrix,
                        build_sampling_matrix, draw_mask, gt_iou_map,
                        proposal_grid)

MODEL_MAGIC = b"CPNM"
MODEL_VERSION = 1

_CLAMP = 1e-7


class ModelIOError(IOError):
    """Model file is malformed."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class ModelConfig:
    c_in: int
    c_h: int = 32
    kernel_size: int = 3
    t_scale: int = 100
    d_max: int = 100
    n_samples: int = 32
    expansion: float = 0.25
    mask: MaskConfig = field(default_factory=MaskConfig)
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if min(self.c_in, self.c_h, self.t_scale, self.d_max,
               self.n_samples, self.batch_size) < 1:
            raise ValueError("c_in, c_h, t_scale, d_max, n_samples and "
                             "batch_size must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be a positive odd number")
        if self.d_max > self.t_scale:
            raise ValueError("d_max must not exceed t_scale")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        self.mask.validate()

    def grid(self) -> ProposalGrid:
        return proposal_grid(self.t_scale, self.d_max)

    def sampling_matrix(self) -> SamplingMatrix:
        return build_sampling_matrix(self.t_scale, self.d_max,
                                     self.n_samples, self.expansion)


def config_to_dict(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    mask = MaskConfig(**d.pop("mask"))
    return ModelConfig(mask=mask, **d)


@dataclass
class NetworkOutputs:
    """Boundary probability vectors and the two D x T confidence maps."""

    p_start: np.ndarray
    p_end: np.ndarray
    p_cls: np.ndarray
    p_reg: np.ndarray


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


def _pad1d(x: np.ndarray, p: int) -> np.ndarray:
    b, c, t = x.shape
    xp = np.zeros((b, c, t + 2 * p))
    xp[:, :, p:p + t] = x
    return xp


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (B, Ci, T), w (Co, Ci, K) -> (B, Co, T), same padding
    _, _, t = x.shape
    k = w.shape[2]
    xp = _pad1d(x, k // 2)
    out = np.empty((x.shape[0], w.shape[0], t))
    out[:] = b[None, :, None]
    for j in range(k):
        out += np.tensordot(xp[:, :, j:j + t], w[:, :, j],
                            axes=([1], [1])).transpose(0, 2, 1)
    return out


def _conv1d_backward(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    _, _, t = x.shape
    k = w.shape[2]
    p = k // 2
    xp = _pad1d(x, p)
    gb = gout.sum(axis=(0, 2))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for j in range(k):
        xs = xp[:, :, j:j + t]
        gw[:, :, j] = np.tensordot(gout, xs, axes=([0, 2], [0, 2]))
        gxp[:, :, j:j + t] += np.tensordot(gout, w[:, :, j],
                                           axes=([1], [0])).transpose(0, 2, 1)
    return gxp[:, :, p:p + t], gw, gb


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    b, c, d, t = x.shape
    xp = np.zeros((b, c, d + 2 * p, t + 2 * p))
    xp[:, :, p:p + d, p:p + t] = x
    return xp


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (B, Ci, D, T), w (Co, Ci, K, K) -> (B, Co, D, T), same padding
    _, _, d, t = x.shape
    k = w.shape[2]
    xp = _pad2d(x, k // 2)
    out = np.empty((x.shape[0], w.shape[0], d, t))
    out[:] = b[None, :, None, None]
    for kd in range(k):
        for kt in range(k):
            out += np.tensordot(xp[:, :, kd:kd + d, kt:kt + t],
                                w[:, :, kd, kt],
                                axes=([1], [1])).transpose(0, 3, 1, 2)
    return out


def _conv2d_backward(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    _, _, d, t = x.shape
    k = w.shape[2]
    p = k // 2
    xp = _pad2d(x, p)
    gb = gout.sum(axis=(0, 2, 3))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for kd in range(k):
        for kt in range(k):
            xs = xp[:, :, kd:kd + d, kt:kt + t]
            gw[:, :, kd, kt] = np.tensordot(gout, xs,
                                            axes=([0, 2, 3], [0, 2, 3]))
            gxp[:, :, kd:kd + d, kt:kt + t] += np.tensordot(
                gout, w[:, :, kd, kt], axes=([1], [0])).transpose(0, 3, 1, 2)
    return gxp[:, :, p:p + d, p:p + t], gw, gb


def _proposal_reduce(h2: np.ndarray, sm: SamplingMatrix, w: np.ndarray,
                     b: np.ndarray, masks: np.ndarray | None):
    """Sample N points per proposal cell, mask, and reduce over N with
    weights ``w`` plus bias ``b``: (B, C, T) -> (B, C, D, T).

    ``masks`` (B, C|1, D|1, T|1) must not vary over N, so masking commutes
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
    """Gradients of _proposal_reduce w.r.t. (h2, w, b)."""
    gb = np.array([gout.sum()])
    if masks is not None:
        gout = gout * masks
    gflat = gout.reshape(-1, w_r.shape[0])  # (B*C, D*T)
    gw = sm.reduction_weight_grad(gflat.T @ h2.reshape(gflat.shape[0], -1))
    return (gflat @ w_r).reshape(h2.shape), gw, gb


# ---------------------------------------------------------------------------
# Forward

def _forward_batch(params: dict, x: np.ndarray, cfg: ModelConfig,
                   masks: np.ndarray | None) -> dict:
    """Run the full network on a (B, C_in, T) batch; returns all
    intermediates needed by the backward pass.

    ``masks`` are per-sample draw_mask results stacked to (B, C|1, 1,
    D|1, T|1); being constant over N, they are applied after the N-point
    reduction.
    """
    h1 = np.maximum(_conv1d(x, params["stem1_w"], params["stem1_b"]), 0.0)
    h2 = np.maximum(_conv1d(h1, params["stem2_w"], params["stem2_b"]), 0.0)
    p_start = _sigmoid(_conv1d(h2, params["start_w"], params["start_b"])[:, 0])
    p_end = _sigmoid(_conv1d(h2, params["end_w"], params["end_b"])[:, 0])

    if masks is not None:
        if masks.shape[2] != 1:
            raise ValueError("proposal masks must be constant over the N "
                             f"sample points, got shape {masks.shape}")
        masks = masks[:, :, 0]  # (B, C|1, D|1, T|1)
    sm = cfg.sampling_matrix()
    reduced, w_r = _proposal_reduce(h2, sm, params["reduce_w"],
                                    params["reduce_b"], masks)
    hidden2d = np.maximum(_conv2d(reduced, params["pem_w"], params["pem_b"]),
                          0.0)
    p_cls = _sigmoid(np.tensordot(hidden2d, params["cls_w"],
                                  axes=([1], [0])) + params["cls_b"][0])
    p_reg = _sigmoid(np.tensordot(hidden2d, params["reg_w"],
                                  axes=([1], [0])) + params["reg_b"][0])
    return dict(x=x, h1=h1, h2=h2, reduced=reduced, hidden2d=hidden2d,
                p_start=p_start, p_end=p_end, p_cls=p_cls, p_reg=p_reg,
                masks=masks, sm=sm, w_r=w_r)


def _backward_batch(params: dict, fwd: dict, g_start: np.ndarray,
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
    g["cls_w"] = np.tensordot(gz_cls, hidden2d, axes=([0, 1, 2], [0, 2, 3]))
    g["cls_b"] = np.array([gz_cls.sum()])
    g["reg_w"] = np.tensordot(gz_reg, hidden2d, axes=([0, 1, 2], [0, 2, 3]))
    g["reg_b"] = np.array([gz_reg.sum()])
    gh2d = (params["cls_w"][None, :, None, None] * gz_cls[:, None]
            + params["reg_w"][None, :, None, None] * gz_reg[:, None])
    gh2d *= hidden2d > 0.0

    greduced, g["pem_w"], g["pem_b"] = _conv2d_backward(
        gh2d, reduced, params["pem_w"])
    gh2, g["reduce_w"], g["reduce_b"] = _proposal_reduce_backward(
        greduced, h2, fwd["sm"], fwd["w_r"], fwd["masks"])

    gz_start = (g_start * p_start * (1.0 - p_start))[:, None, :]
    gz_end = (g_end * p_end * (1.0 - p_end))[:, None, :]
    gh2_s, g["start_w"], g["start_b"] = _conv1d_backward(
        gz_start, h2, params["start_w"])
    gh2_e, g["end_w"], g["end_b"] = _conv1d_backward(
        gz_end, h2, params["end_w"])
    gh2 = gh2 + gh2_s + gh2_e

    gh2 *= h2 > 0.0
    gh1, g["stem2_w"], g["stem2_b"] = _conv1d_backward(
        gh2, h1, params["stem2_w"])
    gh1 *= h1 > 0.0
    _, g["stem1_w"], g["stem1_b"] = _conv1d_backward(
        gh1, fwd["x"], params["stem1_w"])
    return {name: g[name] for name in params}


def forward(params: dict, features: np.ndarray, cfg: ModelConfig,
            training: bool = False,
            rng: np.random.Generator | None = None) -> NetworkOutputs:
    """Run one (T, C_in) sequence through the network.

    Deterministic in inference mode; masking is applied between sampling and
    the reduction only when training (with a fresh mask from ``rng``).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (cfg.t_scale, cfg.c_in):
        raise ValueError(
            f"expected features of shape ({cfg.t_scale}, {cfg.c_in}), "
            f"got {feats.shape}")
    x = np.ascontiguousarray(feats.T)[None]
    masks = None
    if training and cfg.mask.p > 0.0:
        if rng is None:
            rng = np.random.default_rng(cfg.mask.seed)
        shape = (cfg.c_h, cfg.n_samples, cfg.d_max, cfg.t_scale)
        masks = draw_mask(shape, cfg.mask, rng)[None]
    fwd = _forward_batch(params, x, cfg, masks)
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


def tem_loss(p_start: np.ndarray, p_end: np.ndarray,
             labels: BoundaryLabels) -> float:
    """Balanced boundary loss, summed over the start and end heads."""
    loss_s, _ = _balanced_bce(p_start, labels.start)
    loss_e, _ = _balanced_bce(p_end, labels.end)
    return loss_s + loss_e


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


def pem_loss(p_cls: np.ndarray, p_reg: np.ndarray, gt: np.ndarray,
             grid: ProposalGrid, rng: np.random.Generator,
             lambda_cls: float = 1.0, lambda_reg: float = 1.0) -> float:
    """Confidence-map loss: balanced classification plus stratified-sample
    regression, weighted by the two lambdas."""
    cells = _sample_reg_cells(gt, grid.valid, rng)
    loss_c, _ = _pem_cls(p_cls, gt, grid.valid)
    loss_r, _ = _pem_reg(p_reg, gt, cells)
    return lambda_cls * loss_c + lambda_reg * loss_r


# ---------------------------------------------------------------------------
# Gradients

@dataclass
class StepNoise:
    """Realized randomness of one training step, fixed across the forward
    and backward passes (and across finite-difference probes)."""

    masks: list[np.ndarray | None]
    reg_cells: list[np.ndarray]


def draw_step_noise(batch: list[TrainSample], cfg: ModelConfig,
                    rng: np.random.Generator,
                    training: bool = True) -> StepNoise:
    """Draw one mask and one regression cell set per sample."""
    grid = cfg.grid()
    shape = (cfg.c_h, cfg.n_samples, cfg.d_max, cfg.t_scale)
    masks: list[np.ndarray | None] = []
    cells = []
    for sample in batch:
        if training and cfg.mask.p > 0.0:
            masks.append(draw_mask(shape, cfg.mask, rng))
        else:
            masks.append(None)
        cells.append(_sample_reg_cells(sample.gt_map, grid.valid, rng))
    return StepNoise(masks, cells)


def _stack_masks(noise: StepNoise) -> np.ndarray | None:
    if all(m is None for m in noise.masks):
        return None
    return np.stack(noise.masks)


def _output_grads(fwd: dict, batch: list[TrainSample], cfg: ModelConfig,
                  noise: StepNoise):
    """Per-sample losses and gradients w.r.t. the four network outputs.

    The batch loss is the mean over samples of tem + pem, so per-sample
    output gradients carry a 1/B factor.
    """
    grid = cfg.grid()
    b = len(batch)
    g_start = np.zeros_like(fwd["p_start"])
    g_end = np.zeros_like(fwd["p_end"])
    g_cls = np.zeros_like(fwd["p_cls"])
    g_reg = np.zeros_like(fwd["p_reg"])
    total = 0.0
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
    return total / b, g_start, g_end, g_cls, g_reg


def batch_loss(params: dict, batch: list[TrainSample], cfg: ModelConfig,
               noise: StepNoise) -> float:
    """Mean total loss of a batch under fixed realized randomness."""
    x = np.stack([s.features for s in batch])
    fwd = _forward_batch(params, x, cfg, _stack_masks(noise))
    total, *_ = _output_grads(fwd, batch, cfg, noise)
    return total


def loss_and_gradients(params: dict, batch: list[TrainSample],
                       cfg: ModelConfig, noise: StepNoise
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and its exact gradient w.r.t. every parameter, for the
    given realized masks and regression cell sets."""
    x = np.stack([s.features for s in batch])
    fwd = _forward_batch(params, x, cfg, _stack_masks(noise))
    total, g_start, g_end, g_cls, g_reg = _output_grads(fwd, batch, cfg, noise)
    grads = _backward_batch(params, fwd, g_start, g_end, g_cls, g_reg)
    return total, grads


def compute_gradients(params: dict, batch: list[TrainSample],
                      cfg: ModelConfig, rng: np.random.Generator
                      ) -> tuple[float, dict[str, np.ndarray]]:
    """Draw fresh step randomness and return (loss, gradients)."""
    if not batch:
        raise ValueError("batch must be nonempty")
    noise = draw_step_noise(batch, cfg, rng, training=True)
    loss, grads = loss_and_gradients(params, batch, cfg, noise)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    return loss, grads


# ---------------------------------------------------------------------------
# Training

def prepare_sample(video_id: str, anns: AnnotationSet,
                   features: dict[str, np.ndarray], cfg: ModelConfig,
                   pp: PreprocessConfig, rng: np.random.Generator | None,
                   augment: bool = True) -> TrainSample:
    """Rescale one video to the model scale and build its targets; applies
    the resize/shift augmentations with probability 0.5 each when enabled."""
    ann = anns[video_id]
    feats = features[video_id]
    if augment and rng is not None:
        if pp.enable_resize and ann.instances and rng.random() < 0.5:
            feats, ann = resize_instance(feats, ann, rng,
                                         pp.resize_factor_range)
    seq = rescale_features(feats, cfg.t_scale)
    if augment and rng is not None:
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

    Returns the trained parameters and a per-epoch log of mean losses.
    With epochs == 0 the freshly initialized parameters are returned.
    """
    from .preprocess import remove_long_coverage, resample_short

    cfg.validate()
    pp = preprocess_cfg if preprocess_cfg is not None else PreprocessConfig()
    pp.validate()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)

    work = remove_long_coverage(anns, pp.theta_long) \
        if pp.enable_remove_long else anns
    if pp.enable_resample_short:
        epoch_ids = resample_short(work, pp.theta_short, pp.repeat_factor)
    else:
        epoch_ids = [a.video_id for a in work if a.subset == "training"]
    if not epoch_ids:
        raise ValueError("no training videos after preprocessing")

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
                    "n_steps": len(losses)})
    return params, log


# ---------------------------------------------------------------------------
# Serialization

def save_model(path: str | Path, cfg: ModelConfig,
               params: dict[str, np.ndarray]) -> None:
    """Binary model file: magic, version, config JSON blob, then tensors in
    declaration order (u32 rank, u32 dims, float64 payload)."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
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
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
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
    with np.load(path) as data:
        return NetworkOutputs(data["p_start"], data["p_end"],
                              data["p_cls"], data["p_reg"])
