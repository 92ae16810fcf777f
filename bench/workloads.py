"""The benchmark's workloads: how each one makes its inputs from a seed,
the run config its commands read, and the commands it times.

Inputs are made with tadkit's own public writers, so the timed commands
receive ordinary artifact files and nothing else from the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tadkit import (NetworkOutputs, SynthConfig, boundary_labels,
                    gt_iou_map, proposal_grid, save_annotations,
                    save_class_scores, save_features, save_outputs,
                    synth_dataset)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    n_videos: int
    smoke_videos: int
    synth: dict
    config: dict
    members: tuple[int, ...] = ()  # ensemble members' T = D scales

    @property
    def proposal_command(self) -> str:
        return "ensemble" if "ensemble" in self.commands else "infer"

    def sizes(self, smoke: bool) -> dict:
        n = self.smoke_videos if smoke else self.n_videos
        n_val = int(n - round(n * (1.0 - self.synth["val_fraction"])))
        out = {"videos": n, "validation_videos": n_val,
               "synth": self.synth, "config": self.config}
        if self.members:
            out["members"] = list(self.members)
        return out

    def setup(self, inputs: Path, seed: int, smoke: bool) -> None:
        """Write this workload's inputs for ``seed`` under ``inputs``."""
        n = self.smoke_videos if smoke else self.n_videos
        anns, features, scores = synth_dataset(
            SynthConfig(n_videos=n, seed=seed, **self.synth))
        inputs.mkdir(parents=True)
        save_annotations(anns, inputs / "annotations.json")
        save_class_scores(scores, inputs / "class_scores.json")
        if "ensemble" not in self.commands:
            (inputs / "features").mkdir()
            for vid, feats in features.items():
                save_features(feats, inputs / "features" / f"{vid}.feat")
        for k, scale in enumerate(self.members):
            member = inputs / f"member_{k}"
            member.mkdir()
            rng = np.random.default_rng([seed, k])
            for ann in anns.subset("validation"):
                save_outputs(_noisy_outputs(ann, scale, rng),
                             member / f"{ann.video_id}.npz")

    def run_config(self, inputs: Path, out: Path, seed: int) -> dict:
        cfg = json.loads(json.dumps(self.config))
        cfg["seed"] = seed
        cfg["paths"] = {"output_dir": str(out),
                        "annotations": str(inputs / "annotations.json"),
                        "features_dir": str(inputs / "features"),
                        "class_scores": str(inputs / "class_scores.json")}
        if self.members:
            cfg["ensemble"] = {"inputs": [str(inputs / f"member_{k}")
                                          for k in range(len(self.members))]}
        return cfg


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _noisy_outputs(ann, scale: int, rng: np.random.Generator
                   ) -> NetworkOutputs:
    """Network outputs of a member that is right on average: each map is a
    sigmoid of its ground-truth target plus Gaussian noise."""
    gt = gt_iou_map(proposal_grid(scale, scale), ann)
    labels = boundary_labels(ann, scale)

    def noisy(target: np.ndarray, gain: float) -> np.ndarray:
        return _sigmoid(gain * (target - 0.5)
                        + rng.normal(0.0, 1.0, target.shape))

    return NetworkOutputs(noisy(labels.start, 4.0), noisy(labels.end, 4.0),
                          noisy(gt, 8.0), noisy(gt, 8.0))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_a5",
        commands=("train", "infer", "eval-proposals", "eval-detections"),
        n_videos=100, smoke_videos=20,
        synth={"t_raw_range": [96, 144], "channels": 16, "n_classes": 3,
               "instances_range": [1, 2], "val_fraction": 0.4},
        config={"grid": {"t_scale": 64, "d_max": 64, "n_samples": 8},
                "mask": {"p": 0.1, "granularity": "proposal"},
                "model": {"c_h": 8, "epochs": 2, "batch_size": 32,
                          "learning_rate": 0.02}}),
    Workload(
        name="ensemble_eval",
        commands=("ensemble", "eval-proposals", "eval-detections"),
        n_videos=60, smoke_videos=6,
        synth={"t_raw_range": [96, 144], "channels": 4, "n_classes": 10,
               "instances_range": [1, 4], "frac_range": [0.05, 0.2],
               "val_fraction": 1.0},
        config={"grid": {"t_scale": 100, "d_max": 100}},
        members=(100, 64)),
)}
