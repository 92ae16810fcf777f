"""Command-line pipeline driver.

Subcommands: synth, train, infer, eval-proposals, eval-detections,
ensemble. All take the global flags --config, --seed, --threads and --out;
everything else comes from the JSON run config (flags win over the file).
Per-video stages honor --threads; --threads 1 guarantees
bitwise-reproducible outputs for a fixed seed. Errors exit nonzero with a
single ``error: <message>`` line on stderr; numpy floating-point warnings
are silenced, because every non-finite result already ends in its own
error.

Run as ``python -m tadkit.cli``, this file loads only ``config`` and
``dataio``; each ``cmd_*`` imports the modules it calls, so the eval
commands never load the network and ``train`` never loads ``postprocess``
or ``metrics``. Imported as ``tadkit.cli``, it loads them all up front.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .config import (ConfigError, RunConfig, TrainingDivergedError,
                     load_run_config)

if __name__ != "__main__":
    # bench/traced_cli.py wraps functions in the modules this import loads.
    from . import metrics, model, postprocess  # noqa: F401

# A model file error (model.ModelIOError) is an OSError.
_ERRORS = (ConfigError, TrainingDivergedError, ValueError, OSError)


def _load_config(args: argparse.Namespace) -> RunConfig:
    rc = load_run_config(args.config) if args.config else RunConfig()
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


def _map_videos(worker, items: list, threads: int) -> list:
    """Apply worker over items, optionally with a thread pool; the result
    order always follows the input order. Workers run in a copy of the
    caller's context, so they keep its numpy error state."""
    if threads > 1:
        import contextvars
        from concurrent.futures import ThreadPoolExecutor
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(
                lambda item: context.copy().run(worker, item), items))
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


def cmd_train(rc: RunConfig, args: argparse.Namespace) -> int:
    from .model import save_model, train
    from .preprocess import epoch_list
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    train_ids = [a.video_id for a in anns if a.subset == "training"]
    if not train_ids:
        raise ConfigError("annotation file has no training videos")
    # Only the videos that preprocessing keeps are read.
    used = dict.fromkeys(epoch_list(anns, rc.preprocess)[1])
    if not used:
        raise ValueError("no training videos after preprocessing")
    features = {vid: dataio.load_features(_feature_path(rc, out, vid))
                for vid in used}
    c_in = next(iter(features.values())).shape[1]
    for vid, feats in features.items():
        if feats.shape[1] != c_in:
            raise ValueError(f"{vid}: feature file has {feats.shape[1]} "
                             f"channels, expected {c_in}")
    cfg = dataclasses.replace(rc.model, c_in=c_in, seed=rc.seed)
    params, history = train(anns, features, cfg, rc.preprocess)
    save_model(out / "model.cpnm", cfg, params)
    dataio.write_json(history, out / "train_log.json")
    tail = ("; kept {n_videos}, {n_samples} samples per epoch, final mean "
            "loss {mean_loss:.4f}".format(**history[-1])) if history else ""
    print(f"trained {cfg.epochs} epochs on {len(train_ids)} videos{tail}")
    return 0


def _subset_annotations(rc: RunConfig,
                        out: Path) -> list[dataio.VideoAnnotation]:
    anns = _load_annotation_file(rc, out)
    selected = [a for a in anns if a.subset == rc.eval.subset]
    if not selected:
        raise ConfigError(f"annotation file has no videos in subset "
                          f"{rc.eval.subset!r}")
    return selected


def _emit_proposals(results: dict[str, list], rc: RunConfig,
                    out: Path) -> list[str]:
    """Write proposals.json and, when class scores are available,
    detections.json; returns the filenames written.

    An explicitly configured paths.class_scores must exist; the fallback
    under the output directory is used only when present there. Every
    detection is assembled before either file is written, so a missing
    score leaves neither.
    """
    from . import postprocess
    dets = None
    scores_path = _artifact(rc.paths.class_scores, out, "class_scores.json")
    if rc.paths.class_scores or scores_path.exists():
        scores = dataio.load_class_scores(scores_path)
        dets = {}
        for vid, props in results.items():
            if vid not in scores or not scores[vid]:
                raise ValueError(f"no class scores for video {vid!r}")
            dets[vid] = postprocess.assemble_detections(
                props, scores[vid], rc.postprocess.top_k)
    postprocess.save_proposals(results, out / "proposals.json")
    if dets is None:
        return ["proposals.json"]
    postprocess.save_detections(dets, out / "detections.json")
    return ["proposals.json", "detections.json"]


def _propose(outputs: dataio.NetworkOutputs, ann: dataio.VideoAnnotation,
             grid, rc: RunConfig, out_dir: Path) -> tuple[str, list]:
    """The per-video tail of infer and ensemble: check the outputs, save
    them under out_dir, and fuse and suppress them into proposals."""
    from . import postprocess
    from .model import save_outputs
    outputs.check_finite(f"video {ann.video_id!r}")
    save_outputs(outputs, out_dir / f"{ann.video_id}.npz")
    pc = rc.postprocess
    props = postprocess.soft_nms(
        postprocess.fuse_scores(outputs, grid, ann.duration),
        pc.sigma, pc.score_floor, pc.max_out)
    return ann.video_id, props


def _propose_all(run_one, selected: list[dataio.VideoAnnotation],
                 rc: RunConfig, out: Path, threads: int
                 ) -> tuple[dict[str, list], list[str]]:
    """Run the per-video worker over selected, then write the proposal
    files. When anything fails, the outputs/<video>.npz files of selected
    are removed before the error propagates: _map_videos has waited for
    every worker by then, so none is still writing."""
    try:
        results = dict(sorted(_map_videos(run_one, selected, threads)))
        return results, _emit_proposals(results, rc, out)
    except BaseException:
        for ann in selected:
            (out / "outputs" / f"{ann.video_id}.npz").unlink(missing_ok=True)
        raise


def cmd_infer(rc: RunConfig, args: argparse.Namespace) -> int:
    from .model import forward, load_model
    from .proposals import proposal_grid
    out = _out_dir(rc, args)
    cfg, params = load_model(_artifact(rc.paths.model, out, "model.cpnm"))
    selected = _subset_annotations(rc, out)
    grid = proposal_grid(cfg.t_scale, cfg.d_max)
    out_dir = out / "outputs"
    out_dir.mkdir(exist_ok=True)

    def run_one(ann: dataio.VideoAnnotation):
        raw = dataio.load_features(_feature_path(rc, out, ann.video_id))
        if raw.shape[1] != cfg.c_in:
            raise ValueError(f"{ann.video_id}: feature file has "
                             f"{raw.shape[1]} channels, model expects "
                             f"{cfg.c_in}")
        seq = dataio.rescale_features(raw, cfg.t_scale)
        return _propose(forward(params, seq, cfg), ann, grid, rc, out_dir)

    results, written = _propose_all(run_one, selected, rc, out, args.threads)
    print(f"inferred {len(results)} videos; wrote outputs/ and "
          f"{', '.join(written)}")
    return 0


def cmd_eval_proposals(rc: RunConfig, args: argparse.Namespace) -> int:
    from . import metrics, postprocess
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
    dataio.write_json(doc, out / "proposal_report.json")
    return 0


def cmd_eval_detections(rc: RunConfig, args: argparse.Namespace) -> int:
    from . import metrics, postprocess
    out = _out_dir(rc, args)
    anns = _load_annotation_file(rc, out)
    dets = postprocess.load_detections(
        _artifact(rc.paths.detections, out, "detections.json"))
    gt = metrics.detection_ground_truth(anns, rc.eval.subset)
    report = metrics.average_map(dets, gt)
    dataio.write_json(metrics.map_report_to_dict(report),
                      out / "detection_report.json")
    print(metrics.format_map_report(report))
    return 0


def cmd_ensemble(rc: RunConfig, args: argparse.Namespace) -> int:
    from . import postprocess
    from .model import load_outputs
    from .proposals import proposal_grid
    out = _out_dir(rc, args)
    ens = rc.ensemble
    if not ens.inputs:
        raise ConfigError("ensemble.inputs is empty")
    weights = list(ens.weights) if ens.weights else [1.0] * len(ens.inputs)
    selected = _subset_annotations(rc, out)
    t_scale, d_max = rc.model.t_scale, rc.model.d_max
    grid = proposal_grid(t_scale, d_max)
    out_dir = out / "outputs"
    out_dir.mkdir(exist_ok=True)

    def run_one(ann: dataio.VideoAnnotation):
        members = []
        for d in ens.inputs:
            try:
                member = load_outputs(Path(d) / f"{ann.video_id}.npz")
            except ValueError as exc:
                raise ValueError(f"video {ann.video_id!r}: {exc}") from exc
            members.append(postprocess.rescale_outputs(member, t_scale,
                                                       d_max))
        return _propose(postprocess.ensemble_maps(members, weights), ann,
                        grid, rc, out_dir)

    results, written = _propose_all(run_one, selected, rc, out, args.threads)
    print(f"ensembled {len(ens.inputs)} models over {len(results)} videos; "
          f"wrote outputs/ and {', '.join(written)}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

_COMMANDS = [
    ("synth", cmd_synth, "generate a synthetic dataset"),
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
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            rc = _load_config(args)
            return args.func(rc, args)
    except _ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
