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
``ModelConfig``: ``grid`` and ``model`` set the fields that ``MODEL_KEYS``
lists for them, and ``mask`` is its ``MaskConfig``. ``train`` fills in
``c_in`` from the feature files and ``seed`` from the top-level seed; that
one seed also draws every training mask. ``ModelConfig.validate`` is the
one range check of these values, and ``dataio.typed_fields`` the one type
check, so a run config and a model file accept the same ones.
``preprocess`` is a ``PreprocessConfig``, which ``train`` reads.

This module defines every config type but ``SynthConfig`` (in ``dataio``,
beside its generator), and ``TrainingDivergedError``. It imports only
``dataio``, so parsing a run config loads no network code.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import (SUBSETS, SynthConfig, read_json, require, typed_fields,
                     typed_value)


class ConfigError(ValueError):
    """Run configuration is invalid."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class MaskConfig:
    """Random proposal-feature masking, applied by training steps only."""

    p: float = 0.1
    granularity: str = "proposal"  # or "channel"

    def validate(self) -> None:
        require(0 <= self.p < 1, "mask.p", "in [0, 1)", self.p)
        require(self.granularity in ("proposal", "channel"),
                "mask.granularity", "'proposal' or 'channel'",
                repr(self.granularity))


# The ModelConfig fields that the grid and model sections of a run config
# set; the mask section is its MaskConfig, and train sets c_in and seed.
MODEL_KEYS = {
    "grid": ("t_scale", "d_max", "n_samples", "expansion"),
    "model": ("c_h", "kernel_size", "lambda_cls", "lambda_reg",
              "learning_rate", "momentum", "epochs", "batch_size"),
}


@dataclass
class ModelConfig:
    """The network: grid geometry, layer widths, masking, losses and
    optimizer. ``c_in`` is the feature channel count; for a config from a
    run config, the ``tadkit train`` command sets it from the feature files.
    """

    c_in: int = 1
    c_h: int = 32
    kernel_size: int = 3
    t_scale: int = 100
    d_max: int = 100
    n_samples: int = 32
    expansion: float = 0.25
    mask: MaskConfig = field(default_factory=MaskConfig)
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError naming the run-config ``section.key`` of a value
        out of range; ``c_in`` and ``seed`` belong to no section."""
        def check(ok: bool, key: str, bound: str) -> None:
            section = next((s for s, keys in MODEL_KEYS.items()
                            if key in keys), None)
            require(ok, f"{section}.{key}" if section else key, bound,
                    getattr(self, key))

        for key in ("c_in", "c_h", "t_scale", "d_max", "batch_size"):
            check(getattr(self, key) >= 1, key, ">= 1")
        check(self.kernel_size >= 1 and self.kernel_size % 2 == 1,
              "kernel_size", "a positive odd number")
        check(self.d_max <= self.t_scale, "d_max",
              f"<= grid.t_scale ({self.t_scale})")
        check(self.n_samples >= 2, "n_samples", ">= 2")
        check(self.epochs >= 0, "epochs", ">= 0")
        for key in ("expansion", "lambda_cls", "lambda_reg"):
            check(0 <= getattr(self, key) < math.inf, key, "finite and >= 0")
        check(0 < self.learning_rate < math.inf, "learning_rate",
              "finite and > 0")
        check(0 <= self.momentum < 1, "momentum", "in [0, 1)")
        self.mask.validate()

    def grid(self) -> ProposalGrid:
        from .proposals import proposal_grid
        return proposal_grid(self.t_scale, self.d_max)

    def sampling_matrix(self) -> SamplingMatrix:
        from .proposals import build_sampling_matrix
        return build_sampling_matrix(self.t_scale, self.d_max,
                                     self.n_samples, self.expansion)


@dataclass
class PreprocessConfig:
    theta_long: float = 0.98
    theta_short: float = 0.05
    repeat_factor: int = 2
    resize_lo: float = 0.8
    resize_hi: float = 1.25
    shift_fraction: float = 0.125
    enable_remove_long: bool = True
    enable_resample_short: bool = True
    enable_resize: bool = False
    enable_shift: bool = False

    def validate(self) -> None:
        def check(ok: bool, key: str, bound: str) -> None:
            require(ok, f"preprocess.{key}", bound, getattr(self, key))

        check(0 < self.theta_long <= 1, "theta_long", "in (0, 1]")
        check(0 <= self.theta_short < math.inf, "theta_short",
              "finite and >= 0")
        check(self.repeat_factor >= 1, "repeat_factor", ">= 1")
        check(0 < self.resize_lo < math.inf, "resize_lo", "finite and > 0")
        check(self.resize_lo <= self.resize_hi < math.inf, "resize_hi",
              f"finite and >= preprocess.resize_lo ({self.resize_lo})")
        check(0 <= self.shift_fraction <= 0.5, "shift_fraction", "in [0, 0.5]")


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
