"""From network outputs to scored proposals and labeled detections.

Covers the score fusion over the proposal grid, soft-NMS, video-level class
assignment, multi-model ensembling, and the JSON interchange formats.

Candidates stay arrays until suppression is done: ``fuse_scores`` returns
one ``(n_valid, 3)`` float64 array of ``[start, end, score]`` rows, and
``soft_nms`` takes any such array-like and builds ``Proposal`` rows only
for its at most ``max_out`` survivors. Both row types are named tuples:
``Proposal(start, end, score)``, so ``np.asarray`` of a list of them is
that same array, and ``Detection(start, end, label, score)``.

``soft_nms`` keeps its working rows in place and decays every score with
in-place ufuncs into two scratch buffers. A selected row gets score -1
and start +inf, so its intersection with any later selection is 0 and its
decay factor exactly 1: it can never win again. A row below
``score_floor`` stays in place too: scores only decay, so it can never
reach a live row's score, and ``argmax`` over all rows still picks the
first best live row. The loop stops when that maximum is below the floor.
Every ``_NMS_COMPACT_EVERY`` selections, if fewer than half the rows are
live, the dead ones are dropped in order. Rows whose length ``end -
start`` overflows are refused up front, since their IoU would be NaN and
NaN wins ``argmax``.

One rule checks every entry of both files (a segment of two finite
numbers with start < end, a finite score >= 0, and a str label), and an
error names the file, the video and the entry. The loaders apply it to
what they read. The row writers apply it before they write, so they never
write a file that the loaders refuse; they build the text straight from
the rows, with ``float.__repr__`` and ``encode_basestring_ascii``, and
write it once. Their bytes are exactly ``dataio.write_json``'s for the
layouts below: sorted keys, a one-space indent and a final newline.
JSON layouts:

* proposals: ``{"results": {"<video_id>": [{"score": s,
  "segment": [start, end]}, ...]}}``
* detections (submission-compatible): ``{"version": "VERSION 1.3",
  "results": {"<video_id>": [{"label": l, "score": s,
  "segment": [start, end]}, ...]}, "external_data": {}}``

Segments are in seconds. All functions here are pure and per-video, so
callers may parallelize across videos freely.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataio import read_json, rescale_features
from .model import NetworkOutputs
from .proposals import ProposalGrid

DETECTION_VERSION = "VERSION 1.3"
# soft_nms checks every this many selections whether fewer than half of its
# working rows are live, and if so drops the dead ones
_NMS_COMPACT_EVERY = 8


class Proposal(NamedTuple):
    """A candidate segment [start, end) in seconds with a fused score."""

    start: float
    end: float
    score: float


class Detection(NamedTuple):
    """A labeled segment [start, end) in seconds with a detection score."""

    start: float
    end: float
    label: str
    score: float


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

    Rows must be finite with start < end, a finite length end - start, and
    score >= 0. The working rows stay in place between selections; see the
    module docstring for why a selected row or one below score_floor there
    can never win again.
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
    lengths = rows[:, 1] - rows[:, 0]
    # an overflowing length would make IoU NaN, and NaN wins argmax
    if not (np.isfinite(rows).all() and np.isfinite(lengths).all()):
        raise ValueError("proposal rows and their lengths must be finite")
    if not ((lengths > 0).all() and (rows[:, 2] >= 0).all()):
        raise ValueError("proposals need start < end and score >= 0")
    keep = rows[:, 2] >= score_floor
    if not keep.any():
        return []
    starts, ends, scores = rows[keep].T.copy()
    lengths = lengths[keep]
    a, b = np.empty_like(scores), np.empty_like(scores)
    selected: list[Proposal] = []
    while len(selected) < max_out:
        best = int(scores.argmax())
        if scores[best] < score_floor:
            break
        s0, s1 = starts[best], ends[best]
        selected.append(Proposal(float(s0), float(s1), float(scores[best])))
        scores[best], starts[best] = -1.0, np.inf
        # scores *= exp(-(iou ** 2) / sigma), iou against the selection
        np.minimum(ends, s1, out=a)
        np.maximum(starts, s0, out=b)
        np.subtract(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.add(lengths, lengths[best], out=b)
        np.subtract(b, a, out=b)
        np.divide(a, b, out=a)
        np.square(a, out=a)
        np.divide(a, -sigma, out=a)
        np.exp(a, out=a)
        np.multiply(scores, a, out=scores)
        if len(selected) % _NMS_COMPACT_EVERY == 0:
            live = scores >= score_floor
            # with none live, the next argmax ends the loop; it needs a row
            if 0 < 2 * np.count_nonzero(live) < scores.size:
                starts, ends, scores, lengths = (
                    starts[live], ends[live], scores[live], lengths[live])
                a, b = a[:scores.size], b[:scores.size]
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
    if (w < 0).any() or not 0 < w.sum() < np.inf:
        raise ValueError("weights must be nonnegative with a positive "
                         "finite sum")
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

_ROW_RULE = ("need a segment of two finite numbers with start < end and a "
             "finite score >= 0")


def _checked_row(entry: dict) -> tuple[float, float, float]:
    """An entry's start, end and score: its segment must be a list of two
    finite numbers with start < end, its score a finite number >= 0."""
    seg, score = entry["segment"], entry["score"]
    if type(seg) is list and len(seg) == 2:
        start, end = seg
        if {type(start), type(end), type(score)} <= {int, float} \
                and -math.inf < start < end < math.inf \
                and 0 <= score < math.inf:
            return float(start), float(end), float(score)
    raise ValueError(f"{_ROW_RULE}, got segment {seg!r}, score {score!r}")


def _load_results(path: str | Path, kind: str,
                  labeled: bool) -> dict[str, list]:
    """The per-video Detection rows (labeled) or Proposal rows of a file;
    raises ValueError naming the file and any bad video and entry."""
    raw = read_json(path, ValueError)
    results = raw.get("results") if isinstance(raw, dict) else None
    if not isinstance(results, dict):
        raise ValueError(f"{path}: top-level 'results' must be an object")
    rows: dict[str, list] = {}
    for vid, entries in results.items():
        where = f"{path}: video {vid!r}"
        if not isinstance(entries, list):
            raise ValueError(f"{where}: {kind}s must be a list")
        rows[vid] = out = []
        for i, entry in enumerate(entries):
            try:
                start, end, score = _checked_row(entry)
                if labeled and type(label := entry["label"]) is not str:
                    raise TypeError(f"label must be str, got {label!r}")
                out.append(Detection(start, end, label, score)
                           if labeled else Proposal(start, end, score))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{where}, {kind} {i}: {exc}") from exc
    return rows


def _number(x: object) -> str:
    """x as json.dumps writes it: an int or a float (np.float64 too), by
    its exact repr. Raises TypeError for anything else, bools included."""
    if isinstance(x, float):
        return float.__repr__(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int.__repr__(x)
    raise TypeError(f"{x!r} is no JSON number")


def _entry_text(row: Proposal | Detection, labeled: bool) -> str:
    """One checked entry of a results list, as write_json lays it out."""
    if labeled:
        start, end, label, score = row
        if not isinstance(label, str):
            raise TypeError(f"label must be str, got {label!r}")
        head = f'   {{\n    "label": {encode_basestring_ascii(label)},\n'
    else:
        start, end, score = row
        head = "   {\n"
    if not (-math.inf < start < end < math.inf and 0 <= score < math.inf):
        raise ValueError(f"{_ROW_RULE}, got segment [{start!r}, {end!r}], "
                         f"score {score!r}")
    return (f'{head}    "score": {_number(score)},\n    "segment": [\n     '
            f'{_number(start)},\n     {_number(end)}\n    ]\n   }}')


def _results_text(results: dict[str, list], path: str | Path, kind: str,
                  labeled: bool) -> str:
    """The value of a file's "results" key, byte for byte what write_json
    writes for it (keys sorted, one-space indent); raises ValueError
    naming the file, the video and the entry that the loaders would
    refuse."""
    videos = []
    for vid in sorted(results):
        entries = []
        for i, row in enumerate(results[vid]):
            try:
                entries.append(_entry_text(row, labeled))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: video {vid!r}, {kind} {i}: "
                                 f"{exc}") from exc
        body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        videos.append(f"  {encode_basestring_ascii(vid)}: {body}")
    return "{\n" + ",\n".join(videos) + "\n }" if videos else "{}"


def save_proposals(props: dict[str, list[Proposal]],
                   path: str | Path) -> None:
    text = _results_text(props, path, "proposal", labeled=False)
    Path(path).write_text(f'{{\n "results": {text}\n}}\n', encoding="utf-8")


def load_proposals(path: str | Path) -> dict[str, list[Proposal]]:
    return _load_results(path, "proposal", labeled=False)


def save_detections(dets: dict[str, list[Detection]],
                    path: str | Path) -> None:
    text = _results_text(dets, path, "detection", labeled=True)
    version = encode_basestring_ascii(DETECTION_VERSION)
    Path(path).write_text(f'{{\n "external_data": {{}},\n "results": {text},'
                          f'\n "version": {version}\n}}\n', encoding="utf-8")


def load_detections(path: str | Path) -> dict[str, list[Detection]]:
    return _load_results(path, "detection", labeled=True)
