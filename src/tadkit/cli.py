"""Command-line pipeline driver.

Subcommands: synth, preprocess, train, infer, eval-proposals,
eval-detections, ensemble. All take the global flags --config, --seed,
--threads and --out; everything else comes from the JSON run config
(flags win over the file). Per-video stages honor --threads; --threads 1
guarantees bitwise-reproducible outputs for a fixed seed. Errors exit
nonzero with a single ``error: <message>`` line on stderr. The CPN_LOG
environment variable sets the log level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio, metrics, postprocess
from .config import (ConfigError, RunConfig, build_model_config,
                     load_run_config)
from .model import (NetworkOutputs, TrainingDivergedError, ModelIOError,
                    forward, load_model, load_outputs, save_model,
                    save_outputs, train)
from .preprocess import remove_long_coverage, resample_short
from .proposals import proposal_grid

log = logging.getLogger("tadkit")

_ERRORS = (ConfigError, ModelIOError, TrainingDivergedError, ValueError,
           OSError)


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("CPN_LOG", "WARNING").upper(),
                    logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        rc = load_run_config(args.config)
    else:
        rc = RunConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        rc.seed = args.seed
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    rc.validate()
    return rc


def _out_dir(rc: RunConfig, args: argparse.Namespace) -> Path:
    out = args.out or rc.paths.output_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set "
                          "paths.output_dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _artifact(configured: str, out: Path, default_name: str) -> Path:
    """Pipeline artifacts live under the output directory by default; any
    non-empty paths.* entry overrides its location."""
    return Path(configured) if configured else out / default_name


def _load_annotation_file(rc: RunConfig, out: Path) -> dataio.AnnotationSet:
    return dataio.load_annotations(
        _artifact(rc.paths.annotations, out, "annotations.json"))


def _feature_path(rc: RunConfig, out: Path, video_id: str) -> Path:
    return _artifact(rc.paths.features_dir, out, "features") \
        / f"{video_id}.feat"


def _write_json(doc: object, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _check_finite(outputs: NetworkOutputs, video_id: str) -> None:
    """Reject network outputs with a NaN or infinity before anything is
    written from them."""
    for f in dataclasses.fields(outputs):
        if not np.isfinite(getattr(outputs, f.name)).all():
            raise ValueError(f"video {video_id!r}: network output {f.name} "
                             f"is not finite")


def _map_videos(worker, items: list, threads: int) -> list:
    """Apply worker over items, optionally with a thread pool; the result
    order always follows the input order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    cfg = dataclasses.replace(rc.synth, seed=rc.seed)
    anns, features, class_scores = dataio.synth_dataset(cfg)
    ann_path = _artifact(rc.paths.annotations, out, "annotations.json")
    ann_path.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_annotations(anns, ann_path)
    feat_dir = _artifact(rc.paths.features_dir, out, "features")
    feat_dir.mkdir(parents=True, exist_ok=True)
    for vid, feats in features.items():
        dataio.save_features(feats, feat_dir / f"{vid}.feat")
    scores_path = _artifact(rc.paths.class_scores, out, "class_scores.json")
    scores_path.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_class_scores(class_scores, scores_path)
    n_train = sum(1 for a in anns if a.subset == "training")
    print(f"synthesized {len(anns)} videos ({n_train} training, "
          f"{len(anns) - n_train} validation) into {out}")
    return 0


def cmd_preprocess(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    pp = rc.preprocess
    filtered = remove_long_coverage(anns, pp.theta_long) \
        if pp.enable_remove_long else anns
    if pp.enable_resample_short:
        epoch = resample_short(filtered, pp.theta_short, pp.repeat_factor)
    else:
        epoch = [a.video_id for a in filtered if a.subset == "training"]
    dataio.save_annotations(filtered, out / "annotations_preprocessed.json")
    _write_json(epoch, out / "epoch_list.json")
    print(f"kept {len(filtered)} of {len(anns)} videos; epoch list has "
          f"{len(epoch)} entries")
    return 0


def cmd_train(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    train_ids = [a.video_id for a in anns if a.subset == "training"]
    if not train_ids:
        raise ConfigError("annotation file has no training videos")
    features = {vid: dataio.load_features(_feature_path(rc, out, vid))
                for vid in train_ids}
    c_in = next(iter(features.values())).shape[1]
    cfg = build_model_config(rc, c_in)
    log.info("training on %d videos, c_in=%d", len(train_ids), c_in)
    params, history = train(anns, features, cfg, rc.preprocess)
    save_model(out / "model.cpnm", cfg, params)
    _write_json(history, out / "train_log.json")
    tail = f"; final mean loss {history[-1]['mean_loss']:.4f}" \
        if history else ""
    print(f"trained {cfg.epochs} epochs on {len(train_ids)} videos{tail}")
    return 0


def _model_path(rc: RunConfig, out: Path) -> Path:
    return _artifact(rc.paths.model, out, "model.cpnm")


def _subset_annotations(rc: RunConfig,
                        out: Path) -> list[dataio.VideoAnnotation]:
    anns = _load_annotation_file(rc, out)
    selected = [a for a in anns if a.subset == rc.eval.subset]
    if not selected:
        raise ConfigError(f"annotation file has no videos in subset "
                          f"{rc.eval.subset!r}")
    return selected


def _emit_proposals(results: dict[str, list[postprocess.Proposal]],
                    rc: RunConfig, out: Path) -> list[str]:
    """Write proposals.json and, when class scores are available,
    detections.json; returns the filenames written.

    An explicitly configured paths.class_scores must exist; the fallback
    under the output directory is used only when present there.
    """
    postprocess.save_proposals(results, out / "proposals.json")
    written = ["proposals.json"]
    scores_path = _artifact(rc.paths.class_scores, out, "class_scores.json")
    if rc.paths.class_scores or scores_path.exists():
        scores = dataio.load_class_scores(scores_path)
        dets = {}
        for vid, props in results.items():
            if vid not in scores or not scores[vid]:
                raise ValueError(f"no class scores for video {vid!r}")
            dets[vid] = postprocess.assemble_detections(
                props, scores[vid], rc.postprocess.top_k)
        postprocess.save_detections(dets, out / "detections.json")
        written.append("detections.json")
    return written


def cmd_infer(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    cfg, params = load_model(_model_path(rc, out))
    selected = _subset_annotations(rc, out)
    grid = proposal_grid(cfg.t_scale, cfg.d_max)
    out_dir = out / "outputs"
    out_dir.mkdir(exist_ok=True)
    pc = rc.postprocess

    def run_one(ann: dataio.VideoAnnotation):
        raw = dataio.load_features(_feature_path(rc, out, ann.video_id))
        if raw.shape[1] != cfg.c_in:
            raise ValueError(f"{ann.video_id}: feature file has "
                             f"{raw.shape[1]} channels, model expects "
                             f"{cfg.c_in}")
        seq = dataio.rescale_features(raw, cfg.t_scale)
        outputs = forward(params, seq, cfg, training=False)
        _check_finite(outputs, ann.video_id)
        save_outputs(outputs, out_dir / f"{ann.video_id}.npz")
        props = postprocess.soft_nms(
            postprocess.fuse_scores(outputs, grid, ann.duration),
            pc.sigma, pc.score_floor, pc.max_out)
        return ann.video_id, props

    results = dict(sorted(_map_videos(run_one, selected, args.threads)))
    written = _emit_proposals(results, rc, out)
    print(f"inferred {len(results)} videos; wrote outputs/ and "
          f"{', '.join(written)}")
    return 0


def cmd_eval_proposals(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    props = postprocess.load_proposals(
        _artifact(rc.paths.proposals, out, "proposals.json"))
    gt = metrics.proposal_ground_truth(anns, rc.eval.subset)
    curve = metrics.ar_curve(props, gt, rc.eval.an_max)
    doc = {"an": [int(a) for a in curve.an],
           "ar": [float(r) for r in curve.ar],
           "ar_at_max": float(curve.ar[-1])}
    if rc.eval.an_max == metrics.DEFAULT_AN_MAX:
        auc_value = metrics.auc(curve)
        doc["auc"] = auc_value
        print(metrics.format_ar_report(curve, auc_value))
    else:
        print(metrics.format_ar_report(curve, float("nan")))
    _write_json(doc, out / "proposal_report.json")
    return 0


def cmd_eval_detections(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    dets = postprocess.load_detections(
        _artifact(rc.paths.detections, out, "detections.json"))
    gt = metrics.detection_ground_truth(anns, rc.eval.subset)
    report = metrics.average_map(dets, gt)
    _write_json(metrics.map_report_to_dict(report),
                out / "detection_report.json")
    print(metrics.format_map_report(report))
    return 0


def cmd_ensemble(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, args)
    ens = rc.ensemble
    if not ens.inputs:
        raise ConfigError("ensemble.inputs is empty")
    weights = list(ens.weights) if ens.weights else [1.0] * len(ens.inputs)
    selected = _subset_annotations(rc, out)
    grid = proposal_grid(rc.grid.t_scale, rc.grid.d_max)
    out_dir = out / "outputs"
    out_dir.mkdir(exist_ok=True)
    pc = rc.postprocess

    def run_one(ann: dataio.VideoAnnotation):
        members = []
        for d in ens.inputs:
            path = Path(d) / f"{ann.video_id}.npz"
            if not path.exists():
                raise ValueError(f"missing network outputs: {path}")
            members.append(postprocess.rescale_outputs(
                load_outputs(path), rc.grid.t_scale, rc.grid.d_max))
        fused = postprocess.ensemble_maps(members, weights)
        _check_finite(fused, ann.video_id)
        save_outputs(fused, out_dir / f"{ann.video_id}.npz")
        props = postprocess.soft_nms(
            postprocess.fuse_scores(fused, grid, ann.duration),
            pc.sigma, pc.score_floor, pc.max_out)
        return ann.video_id, props

    results = dict(sorted(_map_videos(run_one, selected, args.threads)))
    written = _emit_proposals(results, rc, out)
    print(f"ensembled {len(ens.inputs)} models over {len(results)} videos; "
          f"wrote outputs/ and {', '.join(written)}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

_COMMANDS = [
    ("synth", cmd_synth, "generate a synthetic dataset"),
    ("preprocess", cmd_preprocess,
     "filter annotations and build the training epoch list"),
    ("train", cmd_train, "train a model on the training subset"),
    ("infer", cmd_infer,
     "run a model over a subset and write outputs and proposals"),
    ("eval-proposals", cmd_eval_proposals, "report AR@AN and AUC"),
    ("eval-detections", cmd_eval_detections, "report mAP per tIoU"),
    ("ensemble", cmd_ensemble,
     "average several models' outputs and re-derive proposals"),
]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run configuration file")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the configured seed")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker threads for per-video stages "
                             "(default 1, fully reproducible)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides paths.output_dir)")
    parser = argparse.ArgumentParser(
        prog="tadkit",
        description="Temporal action detection pipeline: proposal "
                    "generation, training, inference and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name, func, help_text in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text,
                           description=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        rc = _load_config(args)
        return args.func(rc, args)
    except _ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
