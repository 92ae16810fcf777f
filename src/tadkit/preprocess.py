"""Training-data strategies on annotation sets and feature sequences.

Four strategies: dropping training videos that are almost entirely covered by
action instances, resampling videos that contain short instances, temporally
resizing a single instance inside its feature sequence, and shifting a block
of channels by one snippet in each temporal direction.
"""

from __future__ import annotations

import math

import numpy as np

from .config import PreprocessConfig
from .dataio import AnnotationSet, Instance, VideoAnnotation, rescale_features


def interval_union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def instance_coverage(ann: VideoAnnotation) -> float:
    """Fraction of the video covered by the union of its instances."""
    if not ann.instances:
        return 0.0
    union = interval_union_length([(i.start, i.end) for i in ann.instances])
    return union / ann.duration


def remove_long_coverage(anns: AnnotationSet,
                         theta_long: float = 0.98) -> AnnotationSet:
    """Drop training videos whose instance coverage exceeds theta_long.

    Coverage is the interval-union length divided by the duration, so
    overlapping instances are not double-counted. Validation and testing
    videos are never removed; kept videos are passed through unaltered.
    """
    kept = {
        vid: ann for vid, ann in anns.videos.items()
        if ann.subset != "training" or instance_coverage(ann) <= theta_long
    }
    return AnnotationSet(kept)


def resample_short(anns: AnnotationSet, theta_short: float = 0.05,
                   repeat_factor: int = 2) -> list[str]:
    """Build a training epoch list with short-instance videos repeated.

    A video is "short" if any instance has normalized duration below
    theta_short; it then appears repeat_factor times total, with its extra
    copies contiguous after the first. Other training videos appear once, in
    input order.
    """
    if repeat_factor < 1:
        raise ValueError("repeat_factor must be >= 1")
    epoch: list[str] = []
    for ann in anns:
        if ann.subset != "training":
            continue
        is_short = any((i.end - i.start) / ann.duration < theta_short
                       for i in ann.instances)
        epoch.extend([ann.video_id] * (repeat_factor if is_short else 1))
    return epoch


def epoch_list(anns: AnnotationSet, pp: PreprocessConfig
               ) -> tuple[AnnotationSet, list[str]]:
    """The annotations that training reads, after remove_long_coverage, and
    its epoch list of video ids from resample_short."""
    kept = remove_long_coverage(anns, pp.theta_long)
    return kept, resample_short(kept, pp.theta_short, pp.repeat_factor)


def resize_instance_at(features: np.ndarray, ann: VideoAnnotation,
                       index: int, factor: float
                       ) -> tuple[np.ndarray, VideoAnnotation]:
    """Deterministic core of resize_instance: resize instance ``index`` by
    ``factor``.

    The instance's snippet span is rescaled and spliced back between the
    unchanged flanks; every annotation boundary goes through the matching
    piecewise-linear time remap and the duration stretches by the realized
    snippet ratio. Returns the inputs unchanged when the span covers fewer
    than 2 snippets or the factor rounds to the identity.
    """
    if not ann.instances:
        raise ValueError(f"video {ann.video_id!r} has no instances to resize")
    feats = np.asarray(features)
    t_raw = feats.shape[0]
    spp = ann.duration / t_raw  # seconds per snippet
    inst = ann.instances[index]
    s_snip = int(np.clip(round(inst.start / spp), 0, t_raw))
    e_snip = int(np.clip(round(inst.end / spp), 0, t_raw))
    old = e_snip - s_snip
    if old < 2:
        return features, ann
    new = max(1, int(round(old * factor)))
    if new == old:
        return features, ann

    middle = rescale_features(feats[s_snip:e_snip], new)
    out = np.concatenate(
        [np.asarray(feats[:s_snip], dtype=middle.dtype), middle,
         np.asarray(feats[e_snip:], dtype=middle.dtype)], axis=0)

    ratio = new / old
    t0, t1 = s_snip * spp, e_snip * spp
    shift = (t1 - t0) * (ratio - 1.0)

    def remap(t: float) -> float:
        if t <= t0:
            return t
        if t < t1:
            return t0 + (t - t0) * ratio
        return t + shift

    new_instances = [Instance(remap(i.start), remap(i.end), i.label)
                     for i in ann.instances]
    new_ann = VideoAnnotation(ann.video_id, ann.duration + shift, ann.subset,
                              new_instances)
    new_ann.validate()
    return out, new_ann


def resize_instance(features: np.ndarray, ann: VideoAnnotation,
                    rng: np.random.Generator,
                    factor_range: tuple[float, float] = (0.8, 1.25)
                    ) -> tuple[np.ndarray, VideoAnnotation]:
    """Resize one uniformly chosen instance by a factor drawn from
    factor_range (simulates a change of playback speed)."""
    if not ann.instances:
        raise ValueError(f"video {ann.video_id!r} has no instances to resize")
    index = int(rng.integers(len(ann.instances)))
    factor = float(rng.uniform(factor_range[0], factor_range[1]))
    return resize_instance_at(features, ann, index, factor)


def temporal_shift(features: np.ndarray, shift_fraction: float) -> np.ndarray:
    """Shift the first channel block forward one snippet and the next block
    backward one snippet; vacated positions are zero-filled.

    Block size is floor(shift_fraction * C) per direction; the remaining
    channels are untouched.
    """
    feats = np.asarray(features)
    t, c = feats.shape
    n = int(math.floor(shift_fraction * c))
    if n == 0:
        return feats.copy()
    out = feats.copy()
    out[1:, :n] = feats[:-1, :n]
    out[0, :n] = 0.0
    out[:-1, n:2 * n] = feats[1:, n:2 * n]
    out[-1, n:2 * n] = 0.0
    return out
