"""One JSON run configuration for the whole pipeline.

The file is a single object with a top-level ``seed`` and one section per
concern: ``paths``, ``synth``, ``grid``, ``mask``, ``model``,
``preprocess``, ``postprocess``, ``eval``, ``ensemble``. Parsing is strict:
an unknown key anywhere is rejected by name (``section.key``). In commands
the top-level seed overrides any per-section seed field, so one value
controls a whole run; flags override the file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import SUBSETS, SynthConfig
from .model import ModelConfig
from .preprocess import PreprocessConfig
from .proposals import MaskConfig


class ConfigError(ValueError):
    """Run configuration is invalid."""


@dataclass
class PathsConfig:
    annotations: str = ""
    features_dir: str = ""
    output_dir: str = ""
    class_scores: str = ""
    model: str = ""
    proposals: str = ""
    detections: str = ""

    def validate(self) -> None:
        pass


@dataclass
class GridConfig:
    t_scale: int = 100
    d_max: int = 100
    n_samples: int = 32
    expansion: float = 0.25

    def validate(self) -> None:
        if self.t_scale < 1 or not (1 <= self.d_max <= self.t_scale):
            raise ConfigError(f"grid: need 1 <= d_max <= t_scale, got "
                              f"d_max={self.d_max}, t_scale={self.t_scale}")
        if self.n_samples < 2:
            raise ConfigError("grid.n_samples must be >= 2")
        if self.expansion < 0:
            raise ConfigError("grid.expansion must be >= 0")


@dataclass
class TrainConfig:
    """Network and optimizer settings; grid geometry lives in GridConfig."""

    c_h: int = 32
    kernel_size: int = 3
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 16

    def validate(self) -> None:
        if self.c_h < 1 or self.batch_size < 1:
            raise ConfigError("model.c_h and model.batch_size must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError("model.kernel_size must be a positive odd "
                              "number")
        if self.epochs < 0:
            raise ConfigError("model.epochs must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("model.momentum must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("model.learning_rate must be > 0")


@dataclass
class PostprocessConfig:
    sigma: float = 0.4
    score_floor: float = 1e-4
    max_out: int = 100
    top_k: int = 2

    def validate(self) -> None:
        # Written so that NaN, which JSON parsing accepts, fails too.
        if not self.sigma > 0:
            raise ConfigError("postprocess.sigma must be > 0")
        if not self.score_floor >= 0:
            raise ConfigError("postprocess.score_floor must be >= 0")
        if self.max_out < 1 or self.top_k < 1:
            raise ConfigError("postprocess.max_out and postprocess.top_k "
                              "must be >= 1")


@dataclass
class EvalConfig:
    subset: str = "validation"
    an_max: int = 100

    def validate(self) -> None:
        if self.subset not in SUBSETS:
            raise ConfigError(f"eval.subset must be one of "
                              f"{sorted(SUBSETS)}, got {self.subset!r}")
        if self.an_max < 1:
            raise ConfigError("eval.an_max must be >= 1")


@dataclass
class EnsembleConfig:
    inputs: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)

    def validate(self) -> None:
        if self.weights and len(self.weights) != len(self.inputs):
            raise ConfigError(f"ensemble: {len(self.weights)} weights for "
                              f"{len(self.inputs)} inputs")
        if any(w < 0 for w in self.weights):
            raise ConfigError("ensemble.weights must be nonnegative")


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    model: TrainConfig = field(default_factory=TrainConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for section in ("paths", "synth", "grid", "mask", "model",
                        "preprocess", "postprocess", "eval", "ensemble"):
            try:
                getattr(self, section).validate()
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc


_SECTIONS = {
    "paths": PathsConfig,
    "synth": SynthConfig,
    "grid": GridConfig,
    "mask": MaskConfig,
    "model": TrainConfig,
    "preprocess": PreprocessConfig,
    "postprocess": PostprocessConfig,
    "eval": EvalConfig,
    "ensemble": EnsembleConfig,
}


def _section_from_dict(cls: type, name: str, raw: object):
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {name}.{key}")
        # JSON has no tuples; coerce lists for tuple-valued fields.
        if isinstance(value, list) and isinstance(known[key].default, tuple):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"section {name!r}: {exc}") from exc


# The preprocess section exposes the resize range as two scalars.
_PREPROCESS_KEYS = frozenset({
    "theta_long", "theta_short", "repeat_factor", "resize_lo", "resize_hi",
    "shift_fraction", "enable_remove_long", "enable_resample_short",
    "enable_resize", "enable_shift",
})


def _preprocess_from_dict(name: str, raw: object) -> PreprocessConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    for key in raw:
        if key not in _PREPROCESS_KEYS:
            raise ConfigError(f"unknown config key: {name}.{key}")
    default_range = PreprocessConfig().resize_factor_range
    kwargs = {k: v for k, v in raw.items()
              if k not in ("resize_lo", "resize_hi")}
    kwargs["resize_factor_range"] = (
        raw.get("resize_lo", default_range[0]),
        raw.get("resize_hi", default_range[1]),
    )
    try:
        return PreprocessConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"section {name!r}: {exc}") from exc


def run_config_from_dict(raw: object) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key == "seed":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError("seed must be an integer")
            kwargs["seed"] = value
        elif key == "preprocess":
            kwargs[key] = _preprocess_from_dict(key, value)
        elif key in _SECTIONS:
            kwargs[key] = _section_from_dict(_SECTIONS[key], key, value)
        else:
            raise ConfigError(f"unknown config key: {key}")
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return run_config_from_dict(raw)


def build_model_config(rc: RunConfig, c_in: int) -> ModelConfig:
    """Assemble the network config from the grid/mask/model sections; the
    input channel count comes from the feature files."""
    mask = dataclasses.replace(rc.mask, seed=rc.seed)
    return ModelConfig(
        c_in=c_in,
        c_h=rc.model.c_h,
        kernel_size=rc.model.kernel_size,
        t_scale=rc.grid.t_scale,
        d_max=rc.grid.d_max,
        n_samples=rc.grid.n_samples,
        expansion=rc.grid.expansion,
        mask=mask,
        lambda_cls=rc.model.lambda_cls,
        lambda_reg=rc.model.lambda_reg,
        learning_rate=rc.model.learning_rate,
        momentum=rc.model.momentum,
        epochs=rc.model.epochs,
        batch_size=rc.model.batch_size,
        seed=rc.seed,
    )
