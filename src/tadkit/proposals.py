"""Dense proposal machinery: the duration-by-start lattice of candidate
segments, the IoU targets, the bilinear proposal-feature sampling taps with
their fused N-point reduction, and random proposal masking.

Grid convention: cell (d, t) with 0-based duration index d denotes the
segment [t, t + d + 1) in snippet units; it is valid iff t + d + 1 <= T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dataio import VideoAnnotation


@dataclass(frozen=True)
class ProposalGrid:
    """The D x T lattice of candidate segments with its validity mask."""

    t_scale: int
    d_max: int
    valid: np.ndarray = field(repr=False, compare=False)

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def cell_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d_idx, t_idx, segments) for all valid cells, in scan order.

        segments is an (n_valid, 2) float array of [start, end) in snippets.
        """
        d_idx, t_idx = np.nonzero(self.valid)
        segs = np.stack([t_idx.astype(float),
                         (t_idx + d_idx + 1).astype(float)], axis=1)
        return d_idx, t_idx, segs


@lru_cache(maxsize=16)
def proposal_grid(t_scale: int, d_max: int) -> ProposalGrid:
    """Enumerate all (duration, start) cells for T snippets, durations <= D."""
    if t_scale < 1:
        raise ValueError(f"t_scale must be >= 1, got {t_scale}")
    if not (1 <= d_max <= t_scale):
        raise ValueError(f"d_max must be in [1, {t_scale}], got {d_max}")
    d = np.arange(d_max)[:, None]
    t = np.arange(t_scale)[None, :]
    valid = t + d + 1 <= t_scale
    valid.setflags(write=False)
    return ProposalGrid(t_scale, d_max, valid)


def segment_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection-over-union of two [start, end] segments."""
    if a[0] >= a[1] or b[0] >= b[1]:
        raise ValueError(f"degenerate segment: {a} vs {b}")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def gt_iou_map(grid: ProposalGrid, ann: VideoAnnotation) -> np.ndarray:
    """Per-cell max IoU against the video's instances, in snippet units.

    Instance times are mapped by the scale T/duration. Invalid cells are 0;
    a video without instances yields an all-zero map.
    """
    gt = np.zeros((grid.d_max, grid.t_scale))
    if not ann.instances:
        return gt
    d_idx, t_idx, segs = grid.cell_segments()
    starts, ends = segs[:, 0], segs[:, 1]
    lengths = ends - starts
    scale = grid.t_scale / ann.duration
    best = np.zeros(len(starts))
    for inst in ann.instances:
        s, e = inst.start * scale, inst.end * scale
        inter = np.clip(np.minimum(ends, e) - np.maximum(starts, s), 0.0, None)
        union = lengths + (e - s) - inter
        np.maximum(best, inter / union, out=best)
    gt[d_idx, t_idx] = best
    return gt


@dataclass(frozen=True)
class SamplingMatrix:
    """Bilinear taps from a length-T feature axis to N sample points per
    valid grid cell.

    Sample point n of valid cell ``c`` reads input positions ``i0[c, n]``
    and ``i0[c, n] + 1`` with weights ``1 - frac[c, n]`` and ``frac[c, n]``
    when ``in_range[c, n]``; out-of-range points read nothing. ``cells[c]``
    is the flat ``d * T + t`` index of the cell, in scan order. The taps
    define the linear map W_n : (t_in,) -> (D*T,) for each n; it is never
    stored densely.
    """

    t_in: int
    n_samples: int
    expansion: float
    grid: ProposalGrid = field(repr=False, compare=False)
    cells: np.ndarray = field(repr=False, compare=False)
    i0: np.ndarray = field(repr=False, compare=False)
    frac: np.ndarray = field(repr=False, compare=False)
    in_range: np.ndarray = field(repr=False, compare=False)

    def taps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(left column, right column, left weight, right weight), each
        (n_valid, N). Out-of-range points get weight 0 on column 0; the
        right column is clipped to t_in - 1 where its weight is 0."""
        left = np.where(self.in_range, self.i0, 0)
        right = np.minimum(left + 1, self.t_in - 1)
        w_left = np.where(self.in_range, 1.0 - self.frac, 0.0)
        w_right = np.where(self.in_range, self.frac, 0.0)
        return left, right, w_left, w_right

    @cached_property
    def _flat_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Both taps as indices into a flattened (D*T, t_in) matrix and
        their weights, each (2, n_valid, N)."""
        left, right, w_left, w_right = self.taps()
        base = self.cells[:, None] * self.t_in
        return (np.stack([base + left, base + right]),
                np.stack([w_left, w_right]))

    def reduction_matrix(self, reduce_w: np.ndarray) -> np.ndarray:
        """The dense (D*T, t_in) matrix W_r = sum_n reduce_w[n] * W_n.

        Sampling N points per cell and then contracting them with
        ``reduce_w`` is the single matmul ``hidden @ W_r.T``.
        """
        idx, wts = self._flat_taps
        size = self.grid.d_max * self.grid.t_scale
        return np.bincount(idx.ravel(), (wts * reduce_w).ravel(),
                           minlength=size * self.t_in).reshape(size,
                                                               self.t_in)

    def reduction_weight_grad(self, outer: np.ndarray) -> np.ndarray:
        """Gradient of ``<outer, W_r>`` w.r.t. ``reduce_w``: (N,).

        ``outer`` is a (D*T, t_in) matrix; entry n is ``<outer, W_n>``.
        """
        idx, wts = self._flat_taps
        return (outer.reshape(-1)[idx] * wts).sum(axis=(0, 1))


@lru_cache(maxsize=8)
def build_sampling_matrix(t_scale: int, d_max: int, n_samples: int,
                          expansion: float = 0.25) -> SamplingMatrix:
    """Place N equidistant points on each valid cell's expanded segment and
    record bilinear interpolation taps over input positions 0..T-1.

    The segment [t, t+k) is expanded to [t - expansion*k, t+k + expansion*k];
    points land on that interval inclusive of both ends. Points outside
    [0, T-1] contribute nothing. Results are cached per (T, D, N, expansion).
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if expansion < 0:
        raise ValueError(f"expansion must be >= 0, got {expansion}")
    grid = proposal_grid(t_scale, d_max)
    d_idx, t_idx, _ = grid.cell_segments()
    k = (d_idx + 1).astype(float)
    left = t_idx - expansion * k
    step = k * (1.0 + 2.0 * expansion) / (n_samples - 1)
    pts = left[:, None] + np.arange(n_samples)[None, :] * step[:, None]

    in_range = (pts >= 0.0) & (pts <= t_scale - 1)
    i0 = np.floor(pts).astype(np.intp)
    frac = pts - i0
    cells = d_idx * t_scale + t_idx
    for arr in (cells, i0, frac, in_range):
        arr.setflags(write=False)
    return SamplingMatrix(t_scale, n_samples, expansion, grid, cells, i0,
                          frac, in_range)


def sample_proposal_features(hidden: np.ndarray,
                             sm: SamplingMatrix) -> np.ndarray:
    """Sample dense proposal features: (..., t_in) -> (..., N, D, T).

    A pure linear map; entries at invalid cells and out-of-range sample
    points are zero. This materializes every sample point and serves as
    the reference for the fused operator (``SamplingMatrix.reduction_matrix``)
    that the network uses.
    """
    hidden = np.asarray(hidden)
    if hidden.shape[-1] != sm.t_in:
        raise ValueError(
            f"hidden width {hidden.shape[-1]} != sampling matrix t_in "
            f"{sm.t_in}")
    lead = hidden.shape[:-1]
    flat = hidden.reshape(-1, sm.t_in)
    left, right, w_left, w_right = sm.taps()
    vals = flat[:, left] * w_left + flat[:, right] * w_right  # (M, cells, N)
    size = sm.grid.d_max * sm.grid.t_scale
    out = np.zeros((flat.shape[0], sm.n_samples, size))
    out[:, :, sm.cells] = vals.transpose(0, 2, 1)
    return out.reshape(*lead, sm.n_samples, sm.grid.d_max, sm.grid.t_scale)


def sample_adjoint(grad_out: np.ndarray, sm: SamplingMatrix) -> np.ndarray:
    """Adjoint of sample_proposal_features: (..., N, D, T) -> (..., t_in)."""
    grad_out = np.asarray(grad_out)
    size = sm.grid.d_max * sm.grid.t_scale
    lead = grad_out.shape[:-3]
    flat = grad_out.reshape(-1, sm.n_samples, size)
    rows = np.arange(flat.shape[0])[:, None] * sm.t_in
    out = np.zeros(flat.shape[0] * sm.t_in)
    left, right, w_left, w_right = sm.taps()
    for n, g in enumerate(flat[:, :, sm.cells].transpose(1, 0, 2)):
        for cols, wts in ((left, w_left), (right, w_right)):
            out += np.bincount((rows + cols[:, n]).ravel(),
                               (g * wts[:, n]).ravel(), minlength=out.size)
    return out.reshape(*lead, sm.t_in)


@dataclass
class MaskConfig:
    """Random proposal-feature masking applied during training only."""

    p: float = 0.1
    granularity: str = "proposal"  # or "channel"
    seed: int = 0

    def validate(self) -> None:
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"mask probability must be in [0, 1), got {self.p}")
        if self.granularity not in ("proposal", "channel"):
            raise ValueError(f"unknown granularity {self.granularity!r}")


def draw_mask(shape: tuple[int, int, int, int], cfg: MaskConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Realize one mask for a (C, N, D, T) tensor, broadcastable to it.

    Surviving positions carry 1/(1-p) so masking preserves expectations;
    dropped positions are 0. Proposal granularity zeroes whole (d, t) cells
    and returns shape (1, 1, D, T); channel granularity zeroes whole
    channels and returns (C, 1, 1, 1).

    A mask must be constant over the N sample points (its N axis has
    length 1): the network never builds the (C, N, D, T) tensor and
    applies the mask after the N-point reduction, which is exact only
    for N-invariant masks.
    """
    cfg.validate()
    c, _, d, t = shape
    scale = 1.0 / (1.0 - cfg.p)
    if cfg.granularity == "proposal":
        keep = rng.random((d, t)) >= cfg.p
        return np.where(keep, scale, 0.0)[None, None, :, :]
    keep = rng.random(c) >= cfg.p
    return np.where(keep, scale, 0.0)[:, None, None, None]


def mask_proposals(tensor: np.ndarray, cfg: MaskConfig, training: bool,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Randomly zero proposal features of a (C, N, D, T) tensor.

    Identity outside training or at p == 0; otherwise each cell (or channel)
    is dropped independently with probability p and survivors are rescaled
    by 1/(1-p).
    """
    if not training or cfg.p == 0.0:
        return tensor
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return tensor * draw_mask(tensor.shape, cfg, rng)
