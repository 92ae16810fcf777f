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
* Network outputs are one ``.npz`` archive per video, keys ``p_start`` and
  ``p_end`` (T,), ``p_cls`` and ``p_reg`` (D, T) with D <= T, written in
  the bytes of ``np.savez``. Archives from ``np.savez`` and
  ``np.savez_compressed`` load (stored or deflated entries, ZIP64 extras,
  each CRC-32 checked), any real float dtype as float64; all else is refused.
* Class scores are JSON: ``{"<video_id>": [{"label": ..., "score": ...}]}``
  with scores sorted non-increasing and labels unique per video.
* Every JSON artifact (annotations, class scores, run config, proposals,
  detections, reports, logs) is read by ``read_json`` and written as
  ``write_json`` writes it: sorted keys, one-space indent, a final
  newline. The proposal and detection files, the largest, are written by
  row writers in ``postprocess`` that produce the same bytes faster; every
  other artifact goes through ``write_json`` itself.
* A JSON config object (a run config section, a model file's config blob)
  is read by ``typed_fields``: each key must name a dataclass field and
  its value must fit the field's type. Each config's ``validate`` then
  checks its ranges through ``require``, one comparison per key that a
  valid value passes, so NaN fails every bound and infinity every bound
  that says "finite": ``<section>.<key> must be <bound>, got <value>``.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct
import typing
import zlib
from dataclasses import dataclass, field, fields
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


def read_json(path: str | Path, error: type[Exception]) -> object:
    """The JSON file at path, parsed; raises error naming a malformed file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc


def write_json(doc: object, path: str | Path) -> None:
    """Write doc as the package's JSON text, in one write."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def typed_value(where: str, value: object, tp: object) -> object:
    """value checked against the field type tp. A bool fills only a bool
    field, an integral float an int field (as an int), an int a float
    field, and a JSON list a list or tuple field of the right length.
    Raises TypeError naming where."""
    origin = typing.get_origin(tp)
    if origin is not None:
        args = typing.get_args(tp)
        if isinstance(value, (list, tuple)) \
                and (origin is list or len(value) == len(args)):
            return origin(typed_value(f"{where}[{i}]", v,
                                      args[0] if origin is list else args[i])
                          for i, v in enumerate(value))
    elif isinstance(value, bool) != (tp is bool):
        pass  # JSON true/false is no number, and a number no bool
    elif isinstance(value, tp) or (tp is float and isinstance(value, int)):
        return value
    elif tp is int and isinstance(value, float) and value.is_integer():
        return int(value)
    name = tp.__name__ if origin is None else str(tp)
    raise TypeError(f"{where} must be {name}, got {value!r}")


def require(ok: bool, key: str, bound: str, value: object,
            error: type[Exception] = ValueError) -> None:
    """Raise error naming key, its bound and the value it got, unless ok."""
    if not ok:
        raise error(f"{key} must be {bound}, got {value}")


def typed_fields(where: str, raw: object, types: dict[str, object]) -> dict:
    """The keyword arguments that the JSON object raw sets, each checked by
    typed_value against its type in types. Raises TypeError naming the key,
    prefixed by ``where.`` when where is set, for an unknown key or a value
    of the wrong type, and for a raw that is no JSON object."""
    if not isinstance(raw, dict):
        raise TypeError(f"{where or 'config'} must be a JSON object")
    prefix = f"{where}." if where else ""
    kwargs = {}
    for key, value in raw.items():
        if key not in types:
            raise TypeError(f"unknown config key: {prefix}{key}")
        kwargs[key] = typed_value(prefix + key, value, types[key])
    return kwargs


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


def _video_annotation(vid: str, entry: object) -> VideoAnnotation:
    """A type-checked database entry; extra keys (``url``) are ignored."""
    entry = typed_value("entry", entry, dict)
    instances = []
    for i, a in enumerate(typed_value(
            "annotations", entry.get("annotations", []), list[dict])):
        start, end = typed_value(f"instance {i} segment", a["segment"],
                                 tuple[float, float])
        instances.append(Instance(float(start), float(end), typed_value(
            f"instance {i} label", a["label"], str)))
    return VideoAnnotation(
        vid, float(typed_value("duration", entry["duration"], float)),
        typed_value("subset", entry["subset"], str), instances)


def load_annotations(path: str | Path) -> AnnotationSet:
    """Load and validate an annotation JSON file.

    Raises FileNotFoundError, AnnotationError (malformed JSON, a wrong type
    or a broken invariant; the message names file, video and instance).
    """
    raw = read_json(path, AnnotationError)
    if not isinstance(raw, dict) or "database" not in raw:
        raise AnnotationError(f"{path}: missing top-level 'database' object")
    database = raw["database"]
    if not isinstance(database, dict):
        raise AnnotationError(f"{path}: 'database' must be an object")

    videos: dict[str, VideoAnnotation] = {}
    for vid, entry in database.items():
        try:
            ann = _video_annotation(vid, entry)
            ann.validate()
        except (KeyError, TypeError, OverflowError) as exc:
            raise AnnotationError(
                f"{path}: video {vid!r}: bad entry: {exc}") from exc
        except AnnotationError as exc:  # from validate, which names the video
            raise AnnotationError(f"{path}: {exc}") from exc
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
    write_json({"database": database}, path)


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
    raw = read_json(path, AnnotationError)
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
                pairs.append((typed_value("label", e["label"], str),
                              float(typed_value("score", e["score"], float))))
            except (KeyError, TypeError, OverflowError) as exc:
                raise AnnotationError(
                    f"{where}, entry {i}: expected an object with a string "
                    f"'label' and a numeric 'score': {exc!r}") from exc
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
    write_json(out, path)


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


def _pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix between (n, 2) and (m, 2) segment arrays; the IoU targets
    and the metrics share it, so the eval commands skip ``proposals``."""
    inter = np.clip(np.minimum(a[:, None, 1], b[None, :, 1])
                    - np.maximum(a[:, None, 0], b[None, :, 0]), 0.0, None)
    union = (a[:, 1] - a[:, 0])[:, None] + (b[:, 1] - b[:, 0])[None, :] \
        - inter
    return inter / union


@dataclass
class NetworkOutputs:
    """One video's network outputs: the boundary probability vectors and
    the two D x T confidence maps."""

    p_start: np.ndarray
    p_end: np.ndarray
    p_cls: np.ndarray
    p_reg: np.ndarray

    def check_finite(self, where: str) -> None:
        """Reject outputs with a NaN or infinity; the error starts with
        where and names the field."""
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{where}: network output {f.name} is not "
                                 f"finite")

    def validated(self, where: str) -> NetworkOutputs:
        """These outputs as float64 copies, or ValueError starting with where
        for a field not of a real float dtype, vectors not of one (T,) shape,
        maps not of one (D, T) shape with D <= T, or a non-finite float64."""
        for f in fields(self):
            if (dtype := getattr(self, f.name).dtype).kind != "f":
                raise ValueError(f"{where}: network output {f.name} must be "
                                 f"a real floating-point array, got {dtype}")
        out = NetworkOutputs(*(getattr(self, f.name).astype(np.float64)
                               for f in fields(self)))
        t = out.p_start.shape
        if len(t) != 1 or out.p_end.shape != t:
            raise ValueError(f"{where}: p_start and p_end must share one (T,) "
                             f"shape, got {t} and {out.p_end.shape}")
        d = out.p_cls.shape
        if len(d) != 2 or d[1:] != t or not 1 <= d[0] <= t[0] \
                or out.p_reg.shape != d:
            raise ValueError(f"{where}: p_cls and p_reg must share one (D, T) "
                             f"shape with D <= T = {t[0]}, got {d} and "
                             f"{out.p_reg.shape}")
        out.check_finite(where)
        return out


_LOCAL, _CENTRAL, _END = map(struct.Struct, (  # zip records, signature first
    "<4s5H3L2H", "<4s6H3L5H2L", "<4s4H2LH"))


@functools.lru_cache(maxsize=64)
def _npy_header(head: bytes) -> tuple[tuple, bool, np.dtype]:
    """(shape, fortran_order, dtype) of a .npy header, read with np.load's
    checks once per distinct header. Version 3 is 2 with a UTF-8 header."""
    fp = io.BytesIO(head)
    if (version := np.lib.format.read_magic(fp)) not in ((1, 0), (2, 0),
                                                         (3, 0)):
        raise ValueError(f"unsupported .npy version {version}")
    return (np.lib.format.read_array_header_1_0 if version == (1, 0)
            else np.lib.format.read_array_header_2_0)(fp)


def _npy_entry(data: memoryview, central: dict, name: str) -> np.ndarray:
    """The array in the archive entry name, stored or deflated, CRC-checked."""
    entry = central.get(name.encode())
    if entry is None or entry[0] != b"PK\x01\x02":
        raise ValueError(f"no {name} in the central directory")
    _, _, needed, flags, method, _, _, crc, size, full, *_, at = entry
    if needed > 63 or method not in (0, 8) or flags & 0x61:  # bit 0: encrypted
        raise ValueError(f"{name} is encrypted" if flags & 1 else f"{name}: "
                         f"unsupported zip file version {needed / 10:.1f}, "
                         f"method {method} or flags {flags:#x}")
    sig, *_, name_size, extra_size = _LOCAL.unpack_from(data, at)
    at += _LOCAL.size + name_size
    if sig != b"PK\x03\x04" or data[at - name_size:at] != name.encode():
        raise ValueError(f"{name}: bad local header")
    npy = data[at + extra_size:at + extra_size + size]
    if method == 8:  # deflated, as np.savez_compressed writes
        npy = memoryview(zlib.decompressobj(-15).decompress(npy, full + 1))
    if len(npy) != full or zlib.crc32(npy) != crc:
        raise ValueError(f"{name}: truncated, or bad CRC-32")
    width = 2 if npy[6:7] == b"\x01" else 4
    start = 8 + width + int.from_bytes(npy[8:8 + width], "little")
    shape, fortran, dtype = _npy_header(bytes(npy[:start]))
    if len(npy) - start != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{name}: payload is not {shape} of {dtype}")
    return np.frombuffer(npy[start:], dtype).reshape(
        shape, order="F" if fortran else "C")


def save_outputs(outputs: NetworkOutputs,
                 file: str | Path | typing.BinaryIO) -> None:
    """Write one video's network outputs, in the bytes that np.savez writes,
    to file: a path, written as given, or a binary file object. Raises
    ValueError, before it writes, for outputs that load_outputs refuses."""
    arrays = [np.asarray(getattr(outputs, f.name)) for f in fields(outputs)]
    NetworkOutputs(*arrays).validated(str(file))
    local, central, at = [], [], 0
    for f, a in zip(fields(outputs), arrays):
        name, buf = f"{f.name}.npy".encode(), io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, header := np.lib.format.header_data_from_array_1_0(a))
        head = buf.getvalue()
        body = a.T if header["fortran_order"] else np.ascontiguousarray(a)
        size, crc = len(head) + a.nbytes, zlib.crc32(body, zlib.crc32(head))
        local += [_LOCAL.pack(b"PK\x03\x04", 45, 0, 0, 0, 0x21, crc,
                              0xFFFFFFFF, 0xFFFFFFFF, len(name), 20),
                  name, struct.pack("<2H2Q", 1, 16, size, size), head, body]
        central += [_CENTRAL.pack(b"PK\x01\x02", 813, 45, 0, 0, 0, 0x21, crc,
                                  size, size, len(name), 0, 0, 0, 0,
                                  0o600 << 16, at), name]
        at += _LOCAL.size + len(name) + 20 + size
    (file.write if hasattr(file, "write") else Path(file).write_bytes)(
        b"".join([*local, *central, _END.pack(
            b"PK\x05\x06", 0, 0, 4, 4, sum(map(len, central)), at, 0)]))


def load_outputs(path: str | Path) -> NetworkOutputs:
    """Read one video's network outputs from an archive that save_outputs,
    np.savez or np.savez_compressed wrote; raises ValueError naming the
    file when the archive is unreadable or validated refuses its arrays."""
    try:
        data = memoryview(Path(path).read_bytes())
        end = len(data) - _END.size
        sig, *_, size, at, _ = _END.unpack_from(data, end)
        if sig != b"PK\x05\x06" or at + size != end:
            raise ValueError("no end record after the central directory")
        central = {}
        while at < end:
            entry = _CENTRAL.unpack_from(data[:end], at)
            name_at = at + _CENTRAL.size
            central[bytes(data[name_at:name_at + entry[10]])] = entry
            at = name_at + entry[10] + entry[11] + entry[12]
        arrays = [_npy_entry(data, central, f"{f.name}.npy")
                  for f in fields(NetworkOutputs)]
    except (OSError, ValueError, struct.error, zlib.error) as exc:
        raise ValueError(f"{path}: unreadable network outputs: {exc}") from exc
    return NetworkOutputs(*arrays).validated(str(path))


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
        def check(ok: bool, key: str, bound: str) -> None:
            require(ok, f"synth.{key}", bound, getattr(self, key),
                    SynthesisError)

        check(self.n_videos >= 0, "n_videos", ">= 0")
        check(self.channels >= 1, "channels", ">= 1")
        check(self.n_classes >= 1, "n_classes", ">= 1")
        t_lo, t_hi = self.t_raw_range
        check(1 <= t_lo <= t_hi, "t_raw_range", "[lo, hi] with 1 <= lo <= hi")
        k_lo, k_hi = self.instances_range
        check(0 <= k_lo <= k_hi, "instances_range",
              "[lo, hi] with 0 <= lo <= hi")
        f_lo, f_hi = self.frac_range
        check(0 < f_lo <= f_hi <= 1, "frac_range",
              "[lo, hi] with 0 < lo <= hi <= 1")
        check(f_lo * k_hi <= 1, "frac_range",
              f"low enough that {k_hi} instances fit one video")
        check(0 <= self.noise_std < math.inf, "noise_std", "finite and >= 0")
        check(0 <= self.val_fraction <= 1, "val_fraction", "in [0, 1]")


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
