"""From network outputs to scored proposals and labeled detections.

Covers the score fusion over the proposal grid, soft-NMS, video-level class
assignment, multi-model ensembling, and the JSON interchange formats.

Candidates stay arrays until suppression is done: ``fuse_scores`` returns
one ``(n_valid, 3)`` float64 array of ``[start, end, score]`` rows, and
``soft_nms`` takes any such array-like and builds ``Proposal`` rows only
for its at most ``max_out`` survivors. A ``Proposal`` is a named tuple, so
``np.asarray`` of a list of them is that same array. JSON layouts:

* proposals: ``{"results": {"<video_id>": [{"score": s,
  "segment": [start, end]}, ...]}}``
* detections (submission-compatible): ``{"version": "VERSION 1.3",
  "results": {"<video_id>": [{"label": l, "score": s,
  "segment": [start, end]}, ...]}, "external_data": {}}``

Segments are in seconds. All functions here are pure and per-video, so
callers may parallelize across videos freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataio import rescale_features
from .model import NetworkOutputs
from .proposals import ProposalGrid

DETECTION_VERSION = "VERSION 1.3"


class Proposal(NamedTuple):
    """A candidate segment [start, end) in seconds with a fused score.

    A proposal is one ``[start, end, score]`` row: ``np.asarray`` of a list
    of proposals is the ``(n, 3)`` array that ``soft_nms`` takes.
    """

    start: float
    end: float
    score: float

    def validate(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"proposal start {self.start} must be < end "
                             f"{self.end}")
        if not (math.isfinite(self.score) and self.score >= 0.0):
            raise ValueError(f"proposal score must be finite and >= 0, "
                             f"got {self.score}")


@dataclass(frozen=True)
class Detection:
    """A labeled segment [start, end) in seconds with a detection score."""

    start: float
    end: float
    label: str
    score: float

    def validate(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"detection start {self.start} must be < end "
                             f"{self.end}")
        if not (math.isfinite(self.score) and self.score >= 0.0):
            raise ValueError(f"detection score must be finite and >= 0, "
                             f"got {self.score}")


def fuse_scores(out: NetworkOutputs, grid: ProposalGrid,
                duration: float) -> np.ndarray:
    """One candidate per valid grid cell, as an (n_valid, 3) float64 array
    of [start, end, score] rows in scan order.

    The score is the four-factor product
    p_start[t] * p_end[t + d] * p_cls[d, t] * p_reg[d, t]; the end boundary
    probability is read at the last covered snippet t + d. Segments convert
    to seconds via duration / T.
    """
    t = grid.t_scale
    if out.p_start.shape != (t,) or out.p_end.shape != (t,):
        raise ValueError(f"boundary vectors must have shape ({t},), got "
                         f"{out.p_start.shape} / {out.p_end.shape}")
    if out.p_cls.shape != grid.valid.shape \
            or out.p_reg.shape != grid.valid.shape:
        raise ValueError(f"confidence maps must have shape "
                         f"{grid.valid.shape}, got {out.p_cls.shape} / "
                         f"{out.p_reg.shape}")
    d_idx, t_idx, segs = grid.cell_segments()
    scores = (out.p_start[t_idx] * out.p_end[t_idx + d_idx]
              * out.p_cls[d_idx, t_idx] * out.p_reg[d_idx, t_idx])
    return np.column_stack((segs * (duration / t), scores))


def soft_nms(props: np.ndarray | list[Proposal], sigma: float = 0.4,
             score_floor: float = 1e-4,
             max_out: int = 100) -> list[Proposal]:
    """Gaussian score-decay suppression over an (n, 3) array-like of
    [start, end, score] rows (fuse_scores' result, or a list of Proposal).

    Repeatedly select the highest-score remaining row (the first one on a
    tie) and decay every other remaining score by exp(-IoU^2 / sigma); stop
    after max_out selections or when the best remaining score drops below
    score_floor. Output is in selection order, which is by final score,
    descending: each selection is the maximum of scores that only decay.

    Rows must be finite with start < end and score >= 0. Scores only decay
    and only selected rows decay others, so a row below score_floor can
    never be selected: such rows are dropped up front and after every decay,
    and selected rows leave the working arrays the same way, by
    order-keeping compaction.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not score_floor >= 0:
        raise ValueError(f"score_floor must be >= 0, got {score_floor}")
    rows = np.asarray(props, dtype=np.float64)
    if rows.size == 0:
        return []
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"proposals must be (n, 3) [start, end, score] "
                         f"rows, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("proposal rows must be finite")
    if not ((rows[:, 0] < rows[:, 1]).all() and (rows[:, 2] >= 0).all()):
        raise ValueError("proposals need start < end and score >= 0")
    starts, ends, scores = rows[rows[:, 2] >= score_floor].T
    lengths = ends - starts
    selected: list[Proposal] = []
    while len(selected) < max_out and scores.size:
        best = int(np.argmax(scores))
        s0, s1 = starts[best], ends[best]
        selected.append(Proposal(float(s0), float(s1), float(scores[best])))
        inter = np.maximum(np.minimum(ends, s1) - np.maximum(starts, s0), 0.0)
        iou = inter / (lengths + lengths[best] - inter)
        scores = scores * np.exp(-(iou ** 2) / sigma)
        keep = scores >= score_floor
        keep[best] = False
        starts, ends, scores, lengths = (
            starts[keep], ends[keep], scores[keep], lengths[keep])
    return selected


def assemble_detections(props: list[Proposal],
                        class_scores: list[tuple[str, float]],
                        k: int = 2) -> list[Detection]:
    """Cross every proposal with the video's top-k classes; detection score
    is the product of the proposal score and the class score."""
    if not class_scores:
        raise ValueError("class_scores must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = sorted(class_scores, key=lambda c: c[1], reverse=True)[:k]
    return [Detection(p.start, p.end, label, p.score * cs)
            for p in props for label, cs in top]


def rescale_outputs(out: NetworkOutputs, t_scale: int,
                    d_max: int) -> NetworkOutputs:
    """Linearly interpolate boundary vectors to length t_scale and the
    confidence maps to (d_max, t_scale), for aligning multi-scale models
    before ensembling."""
    p_start = rescale_features(out.p_start[:, None], t_scale)[:, 0]
    p_end = rescale_features(out.p_end[:, None], t_scale)[:, 0]
    maps = []
    for m in (out.p_cls, out.p_reg):
        cols = rescale_features(np.asarray(m, float).T, t_scale).T
        maps.append(rescale_features(cols, d_max))
    return NetworkOutputs(p_start, p_end, maps[0], maps[1])


def ensemble_maps(outputs: list[NetworkOutputs],
                  weights: list[float]) -> NetworkOutputs:
    """Weight-normalized mean of every output field.

    Inputs must already share one (T, D) shape; rescale_outputs aligns
    multi-scale models first.
    """
    if not outputs:
        raise ValueError("outputs must be nonempty")
    if len(weights) != len(outputs):
        raise ValueError(f"got {len(weights)} weights for "
                         f"{len(outputs)} outputs")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    ref = outputs[0]
    for out in outputs[1:]:
        for f in ("p_start", "p_end", "p_cls", "p_reg"):
            if getattr(out, f).shape != getattr(ref, f).shape:
                raise ValueError(
                    f"shape mismatch in {f}: {getattr(out, f).shape} vs "
                    f"{getattr(ref, f).shape}")
    w = w / w.sum()
    fused = [sum(wi * np.asarray(getattr(out, f), dtype=np.float64)
                 for wi, out in zip(w, outputs))
             for f in ("p_start", "p_end", "p_cls", "p_reg")]
    return NetworkOutputs(*fused)


# ---------------------------------------------------------------------------
# JSON interchange

def save_proposals(props: dict[str, list[Proposal]],
                   path: str | Path) -> None:
    results = {
        vid: [{"score": p.score, "segment": [p.start, p.end]} for p in plist]
        for vid, plist in props.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"results": results}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_proposals(path: str | Path) -> dict[str, list[Proposal]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "results" not in raw:
        raise ValueError(f"{path}: missing top-level 'results'")
    props: dict[str, list[Proposal]] = {}
    for vid, plist in raw["results"].items():
        out = []
        for i, entry in enumerate(plist):
            try:
                seg = entry["segment"]
                p = Proposal(float(seg[0]), float(seg[1]),
                             float(entry["score"]))
                p.validate()
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ValueError(
                    f"{path}: video {vid!r}, proposal {i}: {exc}") from exc
            out.append(p)
        props[vid] = out
    return props


def save_detections(dets: dict[str, list[Detection]],
                    path: str | Path) -> None:
    results = {
        vid: [{"label": d.label, "score": d.score,
               "segment": [d.start, d.end]} for d in dlist]
        for vid, dlist in dets.items()
    }
    doc = {"version": DETECTION_VERSION, "results": results,
           "external_data": {}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_detections(path: str | Path) -> dict[str, list[Detection]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "results" not in raw:
        raise ValueError(f"{path}: missing top-level 'results'")
    dets: dict[str, list[Detection]] = {}
    for vid, dlist in raw["results"].items():
        out = []
        for i, entry in enumerate(dlist):
            try:
                seg = entry["segment"]
                d = Detection(float(seg[0]), float(seg[1]),
                              str(entry["label"]), float(entry["score"]))
                d.validate()
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ValueError(
                    f"{path}: video {vid!r}, detection {i}: {exc}") from exc
            out.append(d)
        dets[vid] = out
    return dets
