"""One JSON run configuration for the whole pipeline.

The file is a single object with a top-level ``seed`` and one section per
concern: ``paths``, ``synth``, ``grid``, ``mask``, ``model``,
``preprocess``, ``postprocess``, ``eval``, ``ensemble``. Parsing is strict:
an unknown key anywhere, a value of the wrong JSON type, or a value out of
range, is rejected by name. Each section's ``validate`` states the range of
each of its keys once, through ``dataio.require``, as the comparison that a
valid value passes. Every float key must be finite, so NaN, ``Infinity``
and an overflowing literal such as ``1e999`` all fail, and every range
error reads ``section.key must be <bound>, got <value>``. The top-level
seed is the only seed key, so one value controls a whole run: ``synth``
takes it as ``SynthConfig.seed``, and ``synth.seed`` is an unknown key.
Flags override the file.

Three sections make up the network's one config, ``RunConfig.model``, a
``model.ModelConfig``:

* ``grid``: ``t_scale``, ``d_max``, ``n_samples``, ``expansion``;
* ``model``: ``c_h``, ``kernel_size``, ``lambda_cls``, ``lambda_reg``,
  ``learning_rate``, ``momentum``, ``epochs``, ``batch_size``;
* ``mask``: ``p``, ``granularity`` (its ``MaskConfig``).

``train`` fills in ``c_in`` from the feature files and ``seed`` from the
top-level seed; that one seed also draws every training mask.
``ModelConfig.validate`` is the one range check of these values, and
``dataio.typed_fields`` the one type check, so a run config and a model
file accept the same ones; ``model.MODEL_KEYS`` says which section sets
which field, for the parser and for the names in those checks' errors.

``preprocess`` (a ``PreprocessConfig``, which ``train`` reads) sets
``theta_long``, ``theta_short``, ``repeat_factor``, ``resize_lo``,
``resize_hi``, ``shift_fraction`` and the switches ``enable_remove_long``,
``enable_resample_short``, ``enable_resize``, ``enable_shift``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import (SUBSETS, SynthConfig, read_json, require, typed_fields,
                     typed_value)
from .model import MODEL_KEYS, ModelConfig
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
        def check(ok: bool, key: str, bound: str) -> None:
            require(ok, f"postprocess.{key}", bound, getattr(self, key))

        check(0 < self.sigma < math.inf, "sigma", "finite and > 0")
        check(0 <= self.score_floor < math.inf, "score_floor",
              "finite and >= 0")
        check(self.max_out >= 1, "max_out", ">= 1")
        check(self.top_k >= 1, "top_k", ">= 1")


@dataclass
class EvalConfig:
    subset: str = "validation"
    an_max: int = 100

    def validate(self) -> None:
        require(self.subset in SUBSETS, "eval.subset",
                f"one of {sorted(SUBSETS)}", repr(self.subset))
        require(self.an_max >= 1, "eval.an_max", ">= 1", self.an_max)


@dataclass
class EnsembleConfig:
    inputs: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)

    def validate(self) -> None:
        w = self.weights
        require(not w or len(w) == len(self.inputs), "ensemble.weights",
                f"one per ensemble.inputs entry ({len(self.inputs)})", w)
        require(all(0 <= x < math.inf for x in w)
                and (not w or 0 < sum(w) < math.inf), "ensemble.weights",
                "finite and >= 0 with a positive finite sum", w)


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
        try:
            require(self.seed >= 0, "seed", ">= 0", self.seed)
            for section in (self.synth, self.model, self.preprocess,
                            self.postprocess, self.eval, self.ensemble):
                section.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_SECTIONS = {
    "paths": PathsConfig,
    "synth": SynthConfig,
    "mask": MaskConfig,
    "preprocess": PreprocessConfig,
    "postprocess": PostprocessConfig,
    "eval": EvalConfig,
    "ensemble": EnsembleConfig,
}


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
            elif key in MODEL_KEYS:
                model.update(typed_fields(
                    key, value, {k: model_types[k] for k in MODEL_KEYS[key]}))
            elif key in _SECTIONS:
                cls = _SECTIONS[key]
                types = typing.get_type_hints(cls)
                if key == "synth":
                    del types["seed"]  # the top-level seed is the run's one
                (model if key == "mask" else kwargs)[key] = cls(
                    **typed_fields(key, value, types))
            else:
                raise ConfigError(f"unknown config key: {key}")
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(model=ModelConfig(**model), **kwargs)
    cfg.validate()
    return cfg


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(read_json(path, ConfigError))
