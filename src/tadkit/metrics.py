"""Proposal and detection metrics.

* AR@AN: average recall over tIoU thresholds {0.5, 0.55, ..., 0.95} using
  each video's top-AN proposals, with ground-truth counts pooled across
  videos per threshold (micro-average).
* AUC: 100 times the mean of AR@AN over integer AN 1..100.
* AP at a tIoU threshold: greedy matching in score order, each detection
  taking the highest-IoU still-unmatched ground-truth instance of its video;
  precision is interpolated as the running maximum from the tail.
* average mAP: mean over the 10-threshold grid of the per-threshold mean AP
  across classes that have at least one ground-truth instance.

Ground truth is passed as plain per-video structures; converters from an
AnnotationSet are provided. Proposals may match any number of ground-truth
instances for recall purposes — greedy matching applies to AP only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import AnnotationSet, Instance, _pairwise_iou
from .postprocess import Detection, Proposal

DEFAULT_TIOU = np.linspace(0.5, 0.95, 10)
DEFAULT_AN_MAX = 100


@dataclass
class ARCurve:
    """AR@AN per integer AN; ar[i] corresponds to an[i]."""

    an: np.ndarray
    ar: np.ndarray

    def __post_init__(self) -> None:
        if len(self.an) != len(self.ar):
            raise ValueError(f"an and ar lengths differ: "
                             f"{len(self.an)} vs {len(self.ar)}")


@dataclass
class MapReport:
    """Per-threshold mAP, their mean, and the per-class AP table."""

    thresholds: np.ndarray
    map_per_threshold: np.ndarray
    average_map: float
    ap_table: dict[str, np.ndarray]


def proposal_ground_truth(anns: AnnotationSet,
                          subset: str | None = None
                          ) -> dict[str, np.ndarray]:
    """Per-video (n, 2) segment arrays, optionally restricted to a subset.
    Videos without instances appear with an empty array (they still count
    as evaluated videos)."""
    out = {}
    for ann in anns:
        if subset is not None and ann.subset != subset:
            continue
        out[ann.video_id] = np.array(
            [[i.start, i.end] for i in ann.instances],
            dtype=np.float64).reshape(-1, 2)
    return out


def detection_ground_truth(anns: AnnotationSet,
                           subset: str | None = None
                           ) -> dict[str, list[Instance]]:
    """Per-video labeled instance lists, optionally restricted to a subset."""
    return {ann.video_id: list(ann.instances) for ann in anns
            if subset is None or ann.subset == subset}


def _ranked_segments(props: list[Proposal], limit: int) -> np.ndarray:
    ranked = sorted(props, key=lambda p: p.score, reverse=True)[:limit]
    return np.array([[p.start, p.end] for p in ranked],
                    dtype=np.float64).reshape(-1, 2)


def ar_curve(props: dict[str, list[Proposal]], gt: dict[str, np.ndarray],
             an_max: int = DEFAULT_AN_MAX,
             thresholds: np.ndarray | None = None) -> ARCurve:
    """AR@AN for every integer AN in 1..an_max, in one pass.

    Per ground-truth instance the best IoU within the top-AN proposals is a
    running maximum over the ranked list, so the whole curve comes from one
    cumulative-max per video.
    """
    if an_max < 1:
        raise ValueError(f"an_max must be >= 1, got {an_max}")
    th = DEFAULT_TIOU if thresholds is None else np.asarray(thresholds)
    total = sum(len(g) for g in gt.values())
    if total == 0:
        raise ValueError("no ground-truth instances to evaluate against")
    rows = []
    for vid, g in gt.items():
        if len(g) == 0:
            continue
        kept = _ranked_segments(props.get(vid, []), an_max)
        if len(kept) == 0:
            rows.append(np.zeros((len(g), an_max)))
            continue
        run = np.maximum.accumulate(
            _pairwise_iou(np.asarray(g, np.float64), kept), axis=1)
        idx = np.minimum(np.arange(1, an_max + 1), len(kept)) - 1
        rows.append(run[:, idx])
    best = np.vstack(rows)  # (total_gt, an_max)
    recalled = (best[None, :, :] >= th[:, None, None]).sum(axis=1)
    return ARCurve(np.arange(1, an_max + 1),
                   recalled.mean(axis=0) / total)


def auc(curve: ARCurve) -> float:
    """Percentage area under the AR-vs-AN step curve for AN 1..100."""
    if curve.an.tolist() != list(range(1, DEFAULT_AN_MAX + 1)):
        raise ValueError("AUC is defined on the AN grid 1..100")
    return float(100.0 * curve.ar.mean())


def ap_at_tiou(dets: list[tuple[str, float, float, float]],
               gt: dict[str, np.ndarray],
               tiou: float | np.ndarray) -> float | np.ndarray:
    """Average precision for one class, at one or several tIoU thresholds.

    dets are (video_id, start, end, score) tuples; ties in score keep input
    order. A class with no ground truth scores 0. Each detection's IoUs are
    computed once and greedy matching runs for every threshold together, so
    an array of thresholds costs about as much as one; the result is a float
    for a scalar ``tiou`` and an array of the same length otherwise.
    """
    th = np.atleast_1d(np.asarray(tiou, dtype=np.float64))
    ap = np.zeros(len(th))
    npos = sum(len(g) for g in gt.values())
    if npos > 0 and dets:
        ranked = sorted(dets, key=lambda d: d[3], reverse=True)
        segs = np.array([[s, e] for _, s, e, _ in ranked], dtype=np.float64)
        rows: dict[str, list[int]] = {}
        for i, (vid, *_) in enumerate(ranked):
            rows.setdefault(vid, []).append(i)
        levels = np.arange(len(th))
        tp = np.zeros((len(th), len(ranked)))
        for vid, idx in rows.items():
            g = gt.get(vid)
            if g is None or len(g) == 0:
                continue
            ious = _pairwise_iou(segs[idx], np.asarray(g, np.float64))
            # a detection below every threshold against all of its video's
            # ground truth can neither hit nor change matched
            near = ious.max(axis=1) >= th.min()
            matched = np.zeros((len(th), len(g)), dtype=bool)
            for i, iou in zip(np.asarray(idx)[near], ious[near]):
                iou = np.where(matched, -1.0, iou)
                j = iou.argmax(axis=1)
                hit = iou[levels, j] >= th
                tp[hit, i] = 1.0
                matched[levels[hit], j[hit]] = True
        tp_c = np.cumsum(tp, axis=1)
        fp_c = np.cumsum(1.0 - tp, axis=1)
        recall = tp_c / npos
        precision = tp_c / (tp_c + fp_c)
        interp = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
        r_prev = np.concatenate([np.zeros((len(th), 1)), recall[:, :-1]],
                                axis=1)
        ap = ((recall - r_prev) * interp).sum(axis=1)
    return float(ap[0]) if np.ndim(tiou) == 0 else ap


def average_map(dets: dict[str, list[Detection]],
                gt: dict[str, list[Instance]],
                thresholds: np.ndarray | None = None) -> MapReport:
    """mAP per threshold over classes with ground truth, and their mean."""
    th = DEFAULT_TIOU if thresholds is None else np.asarray(thresholds)
    classes = sorted({inst.label for insts in gt.values() for inst in insts})
    if not classes:
        raise ValueError("no ground-truth instances to evaluate against")
    by_label: dict[str, list[tuple[str, float, float, float]]] = {}
    for vid, dlist in dets.items():
        for d in dlist:
            by_label.setdefault(d.label, []).append(
                (vid, d.start, d.end, d.score))
    ap_table = {}
    for label in classes:
        class_gt = {
            vid: np.array([[i.start, i.end] for i in insts
                           if i.label == label],
                          dtype=np.float64).reshape(-1, 2)
            for vid, insts in gt.items()
        }
        ap_table[label] = ap_at_tiou(by_label.get(label, []), class_gt, th)
    per_threshold = np.mean([ap_table[c] for c in classes], axis=0)
    return MapReport(th, per_threshold, float(per_threshold.mean()), ap_table)


# ---------------------------------------------------------------------------
# Report emission

_AN_TICKS = (1, 5, 10, 20, 50, 100)


def format_ar_report(curve: ARCurve, auc_value: float) -> str:
    lines = ["  AN      AR", "  --  ------"]
    for an in _AN_TICKS:
        if an <= len(curve.ar):
            lines.append(f" {an:3d}  {curve.ar[an - 1]:.4f}")
    lines.append(f"AUC   {auc_value:.2f}")
    return "\n".join(lines)


def map_report_to_dict(report: MapReport) -> dict:
    return {
        "thresholds": [float(t) for t in report.thresholds],
        "map_per_threshold": [float(m) for m in report.map_per_threshold],
        "average_map": float(report.average_map),
        "ap_per_class": {label: [float(a) for a in aps]
                         for label, aps in report.ap_table.items()},
    }


def format_map_report(report: MapReport) -> str:
    lines = ["  tIoU     mAP", "  ----  ------"]
    for t, m in zip(report.thresholds, report.map_per_threshold):
        lines.append(f"  {t:.2f}  {m:.4f}")
    lines.append(f"average mAP  {report.average_map:.4f}")
    return "\n".join(lines)
