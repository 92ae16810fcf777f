"""On-disk formats and synthetic datasets for feature-sequence pipelines.

Conventions used across the package:

* A feature sequence is a ``(T, C)`` float array: one C-dimensional feature
  vector per temporal snippet, time-major.
* Annotations follow the public "database" JSON layout, so real annotation
  files can be ingested unchanged::

      {"database": {"<video_id>": {"duration": <sec>,
                                   "subset": "training|validation|testing",
                                   "annotations": [{"segment": [s, e],
                                                    "label": "<str>"}]}}}

* Feature files are binary, little-endian: magic ``CPNF``, u32 version=1,
  u32 T, u32 C, then T*C IEEE-754 float32 values, time-major.
* Class scores are JSON: ``{"<video_id>": [{"label": ..., "score": ...}]}``
  with scores sorted non-increasing and labels unique per video.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SUBSETS = ("training", "validation", "testing")

FEATURE_MAGIC = b"CPNF"
FEATURE_VERSION = 1

# Lengths are re-drawn this many times before a config is declared infeasible.
_PLACEMENT_ATTEMPTS = 200


class AnnotationError(ValueError):
    """Annotation file violates the schema or an invariant."""


class FeatureIOError(IOError):
    """Feature file is malformed (magic, version, payload, or values)."""


class SynthesisError(ValueError):
    """Synthetic-dataset config is invalid or infeasible."""


@dataclass(frozen=True)
class Instance:
    """One ground-truth action segment, in seconds."""

    start: float
    end: float
    label: str


@dataclass
class VideoAnnotation:
    """Per-video metadata: duration, subset, and ground-truth instances."""

    video_id: str
    duration: float
    subset: str
    instances: list[Instance] = field(default_factory=list)

    def validate(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise AnnotationError(
                f"video {self.video_id!r}: duration must be a positive finite "
                f"number, got {self.duration}"
            )
        if self.subset not in SUBSETS:
            raise AnnotationError(
                f"video {self.video_id!r}: subset must be one of {SUBSETS}, "
                f"got {self.subset!r}"
            )
        for i, inst in enumerate(self.instances):
            if not (0.0 <= inst.start < inst.end <= self.duration):
                raise AnnotationError(
                    f"video {self.video_id!r}, instance {i}: segment "
                    f"[{inst.start}, {inst.end}] violates "
                    f"0 <= start < end <= duration={self.duration}"
                )


@dataclass
class AnnotationSet:
    """All videos of a dataset, keyed by video_id (insertion-ordered)."""

    videos: dict[str, VideoAnnotation] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self):
        return iter(self.videos.values())

    def __getitem__(self, video_id: str) -> VideoAnnotation:
        return self.videos[video_id]

    def __contains__(self, video_id: str) -> bool:
        return video_id in self.videos

    def subset(self, name: str) -> list[VideoAnnotation]:
        """Videos belonging to a subset, in insertion order."""
        if name not in SUBSETS:
            raise ValueError(f"unknown subset {name!r}")
        return [v for v in self if v.subset == name]

    def validate(self) -> None:
        for vid, ann in self.videos.items():
            if vid != ann.video_id:
                raise AnnotationError(
                    f"key {vid!r} does not match video_id {ann.video_id!r}"
                )
            ann.validate()


def load_annotations(path: str | Path) -> AnnotationSet:
    """Load and validate an annotation JSON file.

    Raises FileNotFoundError, AnnotationError (malformed JSON or invariant
    violations; the message names the video and instance index).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "database" not in raw:
        raise AnnotationError(f"{path}: missing top-level 'database' object")
    database = raw["database"]
    if not isinstance(database, dict):
        raise AnnotationError(f"{path}: 'database' must be an object")

    videos: dict[str, VideoAnnotation] = {}
    for vid, entry in database.items():
        try:
            duration = float(entry["duration"])
            subset = str(entry["subset"])
            instances = [
                Instance(float(a["segment"][0]), float(a["segment"][1]),
                         str(a["label"]))
                for a in entry.get("annotations", [])
            ]
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise AnnotationError(f"video {vid!r}: bad entry: {exc}") from exc
        ann = VideoAnnotation(vid, duration, subset, instances)
        ann.validate()
        videos[vid] = ann
    return AnnotationSet(videos)


def save_annotations(anns: AnnotationSet, path: str | Path) -> None:
    """Write an AnnotationSet in the "database" JSON layout."""
    database = {
        ann.video_id: {
            "duration": ann.duration,
            "subset": ann.subset,
            "annotations": [
                {"segment": [inst.start, inst.end], "label": inst.label}
                for inst in ann.instances
            ],
        }
        for ann in anns
    }
    Path(path).write_text(json.dumps({"database": database}, sort_keys=True,
                                     indent=1))


def load_features(path: str | Path) -> np.ndarray:
    """Read a CPNF feature file into a (T, C) float32 array."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise FeatureIOError(f"{path}: header truncated ({len(data)} bytes)")
    magic = data[:4]
    if magic != FEATURE_MAGIC:
        raise FeatureIOError(f"{path}: bad magic {magic!r}")
    version, t, c = struct.unpack_from("<III", data, 4)
    if version != FEATURE_VERSION:
        raise FeatureIOError(
            f"{path}: unsupported version {version} (expected "
            f"{FEATURE_VERSION})"
        )
    if t < 1 or c < 1:
        raise FeatureIOError(f"{path}: empty feature sequence (header says "
                             f"T={t}, C={c})")
    expected = 16 + 4 * t * c
    if len(data) < expected:
        raise FeatureIOError(
            f"{path}: truncated payload ({len(data) - 16} of {4 * t * c} "
            "bytes)"
        )
    if len(data) > expected:
        raise FeatureIOError(f"{path}: {len(data) - expected} trailing bytes")
    arr = np.frombuffer(data, dtype="<f4", count=t * c, offset=16)
    arr = arr.reshape(t, c).copy()
    if not np.all(np.isfinite(arr)):
        raise FeatureIOError(f"{path}: non-finite values in payload")
    return arr


def save_features(features: np.ndarray, path: str | Path) -> None:
    """Write a (T, C) array as a CPNF file (float32 payload)."""
    arr = np.asarray(features)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FeatureIOError(f"features must be a nonempty (T, C) array, "
                             f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FeatureIOError("refusing to write non-finite feature values")
    t, c = arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, c)
    Path(path).write_bytes(header + payload)


def load_class_scores(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read the class-score JSON; validates the schema, ordering and label
    uniqueness.

    Raises AnnotationError naming the file, the video and, for a bad entry,
    its index.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AnnotationError(f"{path}: top level must be an object")
    scores: dict[str, list[tuple[str, float]]] = {}
    for vid, entries in raw.items():
        where = f"{path}: video {vid!r}"
        if not isinstance(entries, list):
            raise AnnotationError(f"{where}: entries must be a list")
        pairs = []
        for i, e in enumerate(entries):
            try:
                pairs.append((str(e["label"]), float(e["score"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise AnnotationError(
                    f"{where}, entry {i}: expected an object with 'label' "
                    f"and numeric 'score': {exc!r}") from exc
        labels = [la for la, _ in pairs]
        if len(set(labels)) != len(labels):
            raise AnnotationError(f"{where}: duplicate class labels")
        vals = [s for _, s in pairs]
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise AnnotationError(f"{where}: scores not non-increasing")
        if any(not (0.0 <= s <= 1.0) for s in vals):
            raise AnnotationError(f"{where}: scores outside [0, 1]")
        scores[vid] = pairs
    return scores


def save_class_scores(scores: dict[str, list[tuple[str, float]]],
                      path: str | Path) -> None:
    """Write class scores; entries are sorted descending by score."""
    out = {
        vid: [{"label": la, "score": s}
              for la, s in sorted(pairs, key=lambda p: -p[1])]
        for vid, pairs in scores.items()
    }
    Path(path).write_text(json.dumps(out, sort_keys=True, indent=1))


def rescale_features(features: np.ndarray, t_target: int) -> np.ndarray:
    """Resample a (T, C) sequence to t_target snippets by linear interpolation.

    Output snippet i reads the input at position ``i*(T-1)/(t_target-1)``
    (the temporal midpoint when t_target == 1); channels are independent.
    Always returns float64.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a (T, C) array, got shape {feats.shape}")
    if t_target < 1:
        raise ValueError(f"t_target must be >= 1, got {t_target}")
    t_in = feats.shape[0]
    if t_target == t_in:
        return feats.copy()
    if t_target == 1:
        pos = np.array([(t_in - 1) / 2.0])
    else:
        pos = np.arange(t_target) * ((t_in - 1) / (t_target - 1))
    idx0 = np.minimum(np.floor(pos).astype(np.intp), t_in - 1)
    frac = pos - idx0
    idx1 = np.minimum(idx0 + 1, t_in - 1)
    return feats[idx0] * (1.0 - frac)[:, None] + feats[idx1] * frac[:, None]


@dataclass
class SynthConfig:
    """Controls the seeded synthetic dataset generator.

    Background snippets are i.i.d. noise; each instance overwrites its span
    with a fixed class pattern plus noise. One snippet corresponds to one
    second, so T_raw equals the video duration.
    """

    n_videos: int = 100
    t_raw_range: tuple[int, int] = (96, 144)
    channels: int = 16
    n_classes: int = 3
    instances_range: tuple[int, int] = (1, 2)
    frac_range: tuple[float, float] = (0.05, 0.4)
    noise_std: float = 0.1
    val_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.n_videos < 0:
            raise SynthesisError("n_videos must be >= 0")
        if self.channels < 1 or self.n_classes < 1:
            raise SynthesisError("channels and n_classes must be positive")
        t_lo, t_hi = self.t_raw_range
        if not (1 <= t_lo <= t_hi):
            raise SynthesisError(f"bad t_raw_range {self.t_raw_range}")
        k_lo, k_hi = self.instances_range
        if not (0 <= k_lo <= k_hi):
            raise SynthesisError(f"bad instances_range {self.instances_range}")
        f_lo, f_hi = self.frac_range
        if not (0.0 < f_lo <= f_hi <= 1.0):
            raise SynthesisError(
                f"frac_range must be within (0, 1], got {self.frac_range}"
            )
        if f_lo * k_hi > 1.0:
            raise SynthesisError(
                f"infeasible config: min fraction {f_lo} x max instances "
                f"{k_hi} exceeds the video"
            )
        if self.noise_std < 0:
            raise SynthesisError("noise_std must be >= 0")
        if not (0.0 <= self.val_fraction <= 1.0):
            raise SynthesisError("val_fraction must be in [0, 1]")


def _draw_instance_layout(rng: np.random.Generator, t_raw: int, count: int,
                          frac_range: tuple[float, float]) -> list[tuple[int, int]]:
    """Non-overlapping snippet spans [s, e) whose fractions stay in range."""
    if count == 0:
        return []
    lo = math.ceil(frac_range[0] * t_raw)
    hi = math.floor(frac_range[1] * t_raw)
    lo = max(lo, 1)
    if lo > hi:
        raise SynthesisError(
            f"no integer instance length satisfies fractions {frac_range} "
            f"at T_raw={t_raw}"
        )
    for _ in range(_PLACEMENT_ATTEMPTS):
        lengths = rng.integers(lo, hi + 1, size=count)
        slack = t_raw - int(lengths.sum())
        if slack >= 0:
            gaps = rng.multinomial(slack, np.full(count + 1, 1.0 / (count + 1)))
            spans = []
            cursor = 0
            for length, gap in zip(lengths, gaps[:-1]):
                cursor += int(gap)
                spans.append((cursor, cursor + int(length)))
                cursor += int(length)
            return spans
    raise SynthesisError(
        f"infeasible config: could not place {count} instances with "
        f"fractions {frac_range} in T_raw={t_raw} after "
        f"{_PLACEMENT_ATTEMPTS} attempts"
    )


def synth_dataset(cfg: SynthConfig) -> tuple[
    AnnotationSet, dict[str, np.ndarray], dict[str, list[tuple[str, float]]]
]:
    """Generate a seeded synthetic dataset.

    Returns (annotations, features per video_id, class scores). Deterministic
    for a fixed config; class scores carry each video's true labels at 1.0.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    labels = [f"class_{i:02d}" for i in range(cfg.n_classes)]
    patterns = rng.normal(size=(cfg.n_classes, cfg.channels))
    patterns /= np.linalg.norm(patterns, axis=1, keepdims=True)

    n_train = int(round(cfg.n_videos * (1.0 - cfg.val_fraction)))
    videos: dict[str, VideoAnnotation] = {}
    features: dict[str, np.ndarray] = {}
    class_scores: dict[str, list[tuple[str, float]]] = {}

    for v in range(cfg.n_videos):
        vid = f"synth_{v:05d}"
        t_raw = int(rng.integers(cfg.t_raw_range[0], cfg.t_raw_range[1] + 1))
        count = int(rng.integers(cfg.instances_range[0],
                                 cfg.instances_range[1] + 1))
        spans = _draw_instance_layout(rng, t_raw, count, cfg.frac_range)

        feats = rng.normal(0.0, cfg.noise_std, size=(t_raw, cfg.channels))
        instances = []
        for s, e in spans:
            cls = int(rng.integers(cfg.n_classes))
            feats[s:e] = patterns[cls] + rng.normal(
                0.0, cfg.noise_std, size=(e - s, cfg.channels))
            instances.append(Instance(float(s), float(e), labels[cls]))

        subset = "training" if v < n_train else "validation"
        ann = VideoAnnotation(vid, float(t_raw), subset, instances)
        ann.validate()
        videos[vid] = ann
        features[vid] = feats.astype(np.float32)
        present = sorted({inst.label for inst in instances})
        class_scores[vid] = [(la, 1.0) for la in present]

    return AnnotationSet(videos), features, class_scores
