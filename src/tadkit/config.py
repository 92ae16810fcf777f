"""One JSON run configuration for the whole pipeline.

The file is a single object with a top-level ``seed`` and one section per
concern: ``paths``, ``synth``, ``grid``, ``mask``, ``model``,
``preprocess``, ``postprocess``, ``eval``, ``ensemble``. Parsing is strict:
an unknown key anywhere, a value of the wrong JSON type, or a network value
out of range, is rejected by name (``section.key``). In commands the
top-level seed overrides any per-section seed field, so one value controls
a whole run; flags override the file.

Three sections make up the network's one config, ``RunConfig.model``, a
``model.ModelConfig``:

* ``grid``: ``t_scale``, ``d_max``, ``n_samples``, ``expansion``;
* ``model``: ``c_h``, ``kernel_size``, ``lambda_cls``, ``lambda_reg``,
  ``learning_rate``, ``momentum``, ``epochs``, ``batch_size``;
* ``mask``: ``p``, ``granularity`` (its ``MaskConfig``).

``train`` fills in ``c_in`` from the feature files and ``seed`` from the
top-level seed; that one seed also draws every training mask.
``ModelConfig.validate`` is the one check of these values, and
``dataio.typed_fields`` the one type check, so a run config and a model
file accept the same ones.

``preprocess`` (a ``PreprocessConfig``, which ``train`` reads) sets
``theta_long``, ``theta_short``, ``repeat_factor``, ``resize_lo``,
``resize_hi``, ``shift_fraction`` and the switches ``enable_remove_long``,
``enable_resample_short``, ``enable_resize``, ``enable_shift``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import (SUBSETS, SynthConfig, read_json, typed_fields,
                     typed_value)
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
    model: ModelConfig = field(default_factory=ModelConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for section in ("synth", "model", "preprocess", "postprocess",
                        "eval", "ensemble"):
            try:
                getattr(self, section).validate()
            except ConfigError:
                raise
            except ValueError as exc:
                if section == "model":
                    raise ConfigError(_model_error(str(exc))) from exc
                raise ConfigError(f"{section}: {exc}") from exc


_SECTIONS = {
    "paths": PathsConfig,
    "synth": SynthConfig,
    "mask": MaskConfig,
    "preprocess": PreprocessConfig,
    "postprocess": PostprocessConfig,
    "eval": EvalConfig,
    "ensemble": EnsembleConfig,
}

# The ModelConfig fields that the grid and model sections set; the mask
# section becomes its MaskConfig, and c_in and the seed are set by train.
_MODEL_KEYS = {
    "grid": ("t_scale", "d_max", "n_samples", "expansion"),
    "model": ("c_h", "kernel_size", "lambda_cls", "lambda_reg",
              "learning_rate", "momentum", "epochs", "batch_size"),
}


def _model_error(message: str) -> str:
    """A ModelConfig.validate message, whose first word names the field it
    rejects, with that field put under the section that sets it."""
    key, _, rest = message.partition(" ")
    if "." not in key:  # a mask field already reads mask.<field>
        section = next((s for s, keys in _MODEL_KEYS.items() if key in keys),
                       "model")
        key = f"{section}.{key}"
    return f"{key} {rest}"


def run_config_from_dict(raw: object) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys and
    values of the wrong type."""
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    kwargs: dict[str, object] = {}
    model: dict[str, object] = {}
    model_types = typing.get_type_hints(ModelConfig)
    try:
        for key, value in raw.items():
            if key == "seed":
                kwargs["seed"] = typed_value("seed", value, int)
            elif key in _MODEL_KEYS:
                model.update(typed_fields(
                    key, value, {k: model_types[k] for k in _MODEL_KEYS[key]}))
            elif key in _SECTIONS:
                cls = _SECTIONS[key]
                (model if key == "mask" else kwargs)[key] = cls(
                    **typed_fields(key, value, typing.get_type_hints(cls)))
            else:
                raise ConfigError(f"unknown config key: {key}")
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(model=ModelConfig(**model), **kwargs)
    cfg.validate()
    return cfg


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(read_json(path, ConfigError))
