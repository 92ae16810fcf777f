"""Config validation and command-line pipeline tests.

The pipeline test drives every subcommand through main() on a small
synthetic dataset inside tmp_path; it is the integration test for the whole
package and takes a few seconds.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import tadkit
from tadkit import cli, config
from tadkit.cli import main
from tadkit.config import (MODEL_KEYS, ConfigError, RunConfig,
                           load_run_config, run_config_from_dict)
from tadkit.dataio import load_annotations, load_features, save_features
from tadkit.model import ModelConfig, load_model, load_outputs, save_model
from tadkit.postprocess import load_detections, load_proposals
from tadkit.preprocess import epoch_list
from tadkit.proposals import SamplingMatrix


# The class that each run-config section fills in.
_SECTION_CLASSES = {**dict.fromkeys(MODEL_KEYS, ModelConfig),
                    **config._SECTIONS}


def _run_config_floats():
    """(section, key, element) for each float that a run config sets, read
    from the sections' type hints; element indexes a float inside a tuple
    or list field, and is None for a float field."""
    for section, cls in _SECTION_CLASSES.items():
        hints = typing.get_type_hints(cls)
        for key in MODEL_KEYS.get(section, hints):
            if hints[key] is float:
                yield section, key, None
            yield from ((section, key, i) for i, tp
                        in enumerate(typing.get_args(hints[key]))
                        if tp is float)


def _run_config_ints():
    """(section, key, element) for each integer that a run config sets, read
    from the sections' type hints as _run_config_floats reads the floats;
    section is None for the top-level seed."""
    yield None, "seed", None
    for section, cls in _SECTION_CLASSES.items():
        hints = typing.get_type_hints(cls)
        if section == "synth":
            del hints["seed"]  # the top-level seed is the run's one
        for key in MODEL_KEYS.get(section, hints):
            if hints[key] is int:
                yield section, key, None
            yield from ((section, key, i) for i, tp
                        in enumerate(typing.get_args(hints[key]))
                        if tp is int)


# The integer keys whose range admits 0.
_ZERO_ALLOWED = {(None, "seed"), ("synth", "n_videos"),
                 ("synth", "instances_range"), ("model", "epochs")}


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_from_empty_dict_is_defaults(self):
        assert run_config_from_dict({}) == RunConfig()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            run_config_from_dict({"frobnicate": 1})

    def test_unknown_section_key_named_with_section(self):
        with pytest.raises(ConfigError, match=r"model\.warmup"):
            run_config_from_dict({"model": {"warmup": 5}})

    def test_bad_value_propagates_section(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"grid": {"t_scale": 0}})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": True})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 7, "model": {"epochs": 2}}))
        rc = load_run_config(path)
        assert rc.seed == 7 and rc.model.epochs == 2

    def test_preprocess_resize_bounds_are_scalars(self):
        rc = run_config_from_dict(
            {"preprocess": {"resize_lo": 0.9, "resize_hi": 1.1}})
        assert (rc.preprocess.resize_lo, rc.preprocess.resize_hi) == (0.9, 1.1)

    @pytest.mark.parametrize("key", ["enable_remove_long",
                                     "enable_resample_short",
                                     "enable_resize", "enable_shift"])
    def test_preprocess_switch_keys_rejected(self, key):
        """Each strategy is off at its neutral value, so there is no
        on/off key."""
        with pytest.raises(ConfigError,
                           match=f"^unknown config key: preprocess.{key}$"):
            run_config_from_dict({"preprocess": {key: False}})

    def test_readme_quick_start_config_parses(self):
        """The README's quick-start run.json parses, and its preprocess
        section names every preprocessing setting at its default."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"cat > run\.json <<'EOF'\n(.*?)\nEOF\n",
                          readme.read_text(), re.S)
        raw = json.loads(block.group(1))
        rc = run_config_from_dict(raw)
        assert rc.seed == raw["seed"]
        assert set(raw["preprocess"]) == set(
            typing.get_type_hints(config.PreprocessConfig))
        assert rc.preprocess == config.PreprocessConfig()

    def test_preprocess_rejects_internal_field_name(self):
        with pytest.raises(ConfigError, match="preprocess"):
            run_config_from_dict(
                {"preprocess": {"resize_factor_range": [0.9, 1.1]}})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_model_config_inherits_run_seed(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "seed": 9, "mask": {"p": 0.2},
            "synth": {"n_videos": 5, "t_raw_range": [20, 30], "channels": 4},
            "grid": {"t_scale": 8, "d_max": 8, "n_samples": 4},
            "model": {"c_h": 2, "epochs": 0}}))
        for command in ("synth", "train"):
            assert main([command, "--config", str(path), "--out",
                         str(tmp_path)]) == 0
        mc, _ = load_model(tmp_path / "model.cpnm")
        assert mc.c_in == 4
        assert mc.seed == 9
        assert mc.mask.p == 0.2

    def test_mask_seed_is_no_config_key(self):
        # The run's one seed draws the masks; mask.seed would do nothing.
        with pytest.raises(ConfigError, match=r"mask\.seed"):
            run_config_from_dict({"mask": {"seed": 3}})

    def test_synth_seed_is_no_config_key(self):
        # synth takes the top-level seed; synth.seed would do nothing.
        with pytest.raises(ConfigError,
                           match=r"unknown config key: synth\.seed"):
            run_config_from_dict({"synth": {"seed": -5}})

    def test_ensemble_lists_accepted(self):
        rc = run_config_from_dict(
            {"ensemble": {"inputs": ["a", "b"], "weights": [1.0, 2.0]}})
        assert rc.ensemble.inputs == ["a", "b"]
        assert rc.ensemble.weights == [1.0, 2.0]

    def test_ensemble_weight_count_mismatch(self):
        with pytest.raises(ConfigError, match="weights"):
            run_config_from_dict(
                {"ensemble": {"inputs": ["a", "b"], "weights": [1.0]}})

    def test_ensemble_weight_sum_must_be_finite(self):
        with pytest.raises(ConfigError, match=r"ensemble\.weights"):
            run_config_from_dict({"ensemble": {
                "inputs": ["a", "b"], "weights": [1e308, 1e308]}})

    @pytest.mark.parametrize("key", ["sigma", "score_floor"])
    def test_postprocess_nan_rejected(self, key):
        raw = json.loads(f'{{"postprocess": {{"{key}": NaN}}}}')
        with pytest.raises(ConfigError, match=f"postprocess.{key}"):
            run_config_from_dict(raw)

    @pytest.mark.parametrize("raw, where", [
        ({"model": {"c_h": "8"}}, r"model\.c_h must be int"),
        ({"mask": {"p": "0.1"}}, r"mask\.p must be float"),
        ({"postprocess": {"max_out": None}},
         r"postprocess\.max_out must be int"),
        ({"grid": {"t_scale": 64.5, "d_max": 64}},
         r"grid\.t_scale must be int"),
        ({"model": {"epochs": True}}, r"model\.epochs must be int"),
    ])
    def test_wrong_json_type_rejected(self, raw, where):
        with pytest.raises(ConfigError, match=where):
            run_config_from_dict(raw)

    def test_json_numbers_fill_numeric_fields(self):
        rc = run_config_from_dict({"grid": {"t_scale": 64.0, "d_max": 64},
                                   "model": {"learning_rate": 1}})
        assert rc.model.t_scale == 64 and type(rc.model.t_scale) is int
        assert rc.model.learning_rate == 1

    @pytest.mark.parametrize("section, key, value", [
        ("model", "learning_rate", "NaN"), ("model", "learning_rate", "0"),
        ("model", "learning_rate", "-1"), ("model", "momentum", "-0.1"),
        ("model", "momentum", "1.0"), ("model", "momentum", "NaN"),
        ("grid", "expansion", "NaN"), ("grid", "expansion", "-0.5"),
        ("model", "lambda_cls", "NaN"), ("model", "lambda_cls", "-1"),
        ("model", "lambda_reg", "NaN"), ("model", "lambda_reg", "-1"),
    ])
    def test_bad_network_value_rejected(self, section, key, value):
        raw = json.loads(f'{{"{section}": {{"{key}": {value}}}}}')
        with pytest.raises(ConfigError, match=key):
            run_config_from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ('{"grid": {"expansion": NaN}}',
         "grid.expansion must be finite and >= 0, got nan"),
        ('{"model": {"kernel_size": 4}}',
         "model.kernel_size must be a positive odd number, got 4"),
        ('{"mask": {"p": 1.5}}', "mask.p must be in [0, 1), got 1.5"),
    ])
    def test_bad_network_value_names_its_section(self, tmp_path, capsys, raw,
                                                 message):
        path = tmp_path / "run.json"
        path.write_text(raw)
        assert main(["synth", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e999"])
    @pytest.mark.parametrize("section, key, element",
                             list(_run_config_floats()))
    def test_every_float_key_must_be_finite(self, section, key, element,
                                            literal):
        body = {key: "@"}
        if element is not None:
            items = list(getattr(_SECTION_CLASSES[section](), key)) or [1.0]
            items[element] = "@"
            body[key] = items
        if key == "weights":  # one weight per ensemble input
            body["inputs"] = ["a"] * len(body[key])
        raw = json.loads(json.dumps({section: body}).replace('"@"', literal))
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
            run_config_from_dict(raw)


    @pytest.mark.parametrize("value", [-1, 0])
    @pytest.mark.parametrize("section, key, element",
                             list(_run_config_ints()))
    def test_every_int_key_has_a_lower_bound(self, section, key, element,
                                             value):
        """An integer key at -1, or at 0 unless its range admits 0, fails by
        its own name. A range element set to the value takes the elements
        before it down to the value too, so [lo, hi] stays ordered."""
        body = {key: value}
        if element is not None:
            items = list(getattr(_SECTION_CLASSES[section](), key))
            items[element] = value
            body[key] = [min(x, value) for x in items[:element]] \
                + items[element:]
        raw = body if section is None else {section: body}
        name = key if section is None else f"{section}.{key}"
        if value == 0 and (section, key) in _ZERO_ALLOWED:
            run_config_from_dict(raw)
        else:
            with pytest.raises(ConfigError,
                               match=rf"^{re.escape(name)} must be "):
                run_config_from_dict(raw)


class TestMainErrors:
    def test_no_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_error_is_one_line_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"nope": 1}))
        code = main(["synth", "--config", str(bad), "--out",
                     str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_wrong_json_type_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"model": {"c_h": "8"}}))
        out = tmp_path / "out"
        code = main(["synth", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "model.c_h" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_train_without_annotations(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "annotations" in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["synth", "--seed", "-3", "--out", str(tmp_path)])
        assert code == 1

    def test_nan_postprocess_value_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text('{"postprocess": {"sigma": NaN}}')
        out = tmp_path / "out"
        code = main(["synth", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "postprocess.sigma" in err
        assert not out.exists()


_ROW = {"label": "x", "score": 0.5, "segment": [1, 3]}
# Malformed "results" objects: test id, results, the video the error names.
_BAD_RESULTS = [
    ("results-list", [], None),
    ("video-not-list", {"v": 5}, "v"),
    *[(name, {"v": [{**_ROW, "segment": seg}]}, "v")
      for name, seg in [("end-inf", [1, float("inf")]),
                        ("start-inf", [float("-inf"), 3]),
                        ("three-numbers", [1, 3, 9]), ("string", "12")]],
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> train -> infer -> eval on one tiny
    dataset; later tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = {
        "seed": 5,
        "paths": {
            "annotations": str(root / "annotations.json"),
            "features_dir": str(root / "features"),
            "class_scores": str(root / "class_scores.json"),
            "output_dir": str(root / "out"),
        },
        "synth": {"n_videos": 12, "t_raw_range": [20, 30], "channels": 4,
                  "n_classes": 2, "val_fraction": 0.25},
        "grid": {"t_scale": 16, "d_max": 16, "n_samples": 4},
        "model": {"c_h": 4, "epochs": 2, "batch_size": 4,
                  "learning_rate": 0.02},
        "mask": {"p": 0.1},
        "postprocess": {"max_out": 20},
        "eval": {"an_max": 20},
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    flags = ["--config", str(cfg_path)]
    for command in (["synth"], ["train"], ["infer"], ["eval-proposals"],
                    ["eval-detections"]):
        assert main(command + flags) == 0, f"{command} failed"
    return root


class TestPipeline:
    def test_synth_artifacts(self, pipeline):
        anns = load_annotations(pipeline / "annotations.json")
        assert len(anns.videos) == 12
        some = next(iter(anns.videos))
        feats = load_features(pipeline / "features" / f"{some}.feat")
        assert feats.shape[1] == 4
        scores = json.loads((pipeline / "class_scores.json").read_text())
        assert set(scores) == set(anns.videos)

    def test_train_log_counts_the_epoch_list(self, pipeline, tmp_path,
                                             capsys):
        anns = load_annotations(pipeline / "annotations.json")
        rc = load_run_config(pipeline / "run.json")
        kept, epochs = epoch_list(anns, rc.preprocess)
        assert set(kept.videos) <= set(anns.videos)
        kept_train = {v.video_id for v in kept.videos.values()
                      if v.subset == "training"}
        assert set(epochs) <= kept_train
        log = json.loads((pipeline / "out" / "train_log.json").read_text())
        assert [(e["n_samples"], e["n_videos"]) for e in log] \
            == [(len(epochs), len(kept_train))] * rc.model.epochs
        capsys.readouterr()
        assert main(["train", "--config", str(pipeline / "run.json"),
                     "--out", str(tmp_path)]) == 0
        summary = capsys.readouterr().out
        assert f"kept {len(kept_train)}, {len(epochs)} samples per epoch" \
            in summary

    def test_train_reads_only_the_epoch_lists_features(
            self, pipeline, tmp_path, monkeypatch):
        """At theta_long 0.5 preprocessing drops a training video: train
        reads one feature file per video it keeps, and the dropped video's
        file may be missing."""
        anns = load_annotations(pipeline / "annotations.json")
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["preprocess"] = {"theta_long": 0.5}
        kept, _ = epoch_list(anns, run_config_from_dict(cfg).preprocess)
        dropped = [v for v, a in anns.videos.items()
                   if a.subset == "training" and v not in kept.videos]
        assert dropped
        feats = tmp_path / "features"
        shutil.copytree(pipeline / "features", feats)
        for vid in dropped:
            (feats / f"{vid}.feat").unlink()
        cfg["paths"].update(features_dir=str(feats),
                            output_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        loaded = []
        load = cli.dataio.load_features
        monkeypatch.setattr(cli.dataio, "load_features",
                            lambda path: loaded.append(path) or load(path))
        assert main(["train", "--config", str(cfg_path)]) == 0
        log = json.loads((tmp_path / "out" / "train_log.json").read_text())
        assert len(loaded) == log[0]["n_videos"]

    def test_train_artifacts(self, pipeline):
        out = pipeline / "out"
        assert (out / "model.cpnm").exists()
        log = json.loads((out / "train_log.json").read_text())
        assert [entry["epoch"] for entry in log] == [0, 1]

    def test_infer_artifacts(self, pipeline):
        out = pipeline / "out"
        anns = load_annotations(pipeline / "annotations.json")
        val = [v for v, a in anns.videos.items() if a.subset == "validation"]
        props = load_proposals(out / "proposals.json")
        assert set(props) == set(val)
        assert all((out / "outputs" / f"{v}.npz").exists() for v in val)
        assert all(len(ps) <= 20 for ps in props.values())
        dets = load_detections(out / "detections.json")
        assert set(dets) == set(val)

    def test_eval_reports(self, pipeline):
        out = pipeline / "out"
        prop_report = json.loads((out / "proposal_report.json").read_text())
        assert len(prop_report["ar"]) == 20
        assert 0.0 <= prop_report["ar"][-1] <= 1.0
        det_report = json.loads((out / "detection_report.json").read_text())
        assert len(det_report["map_per_threshold"]) == 10
        assert 0.0 <= det_report["average_map"] <= 1.0

    def test_eval_proposals_off_the_auc_grid_prints_no_nan(self, pipeline,
                                                           capsys):
        """At an_max 20 there is no AUC: the table stops at AN 20, and
        neither stdout nor the report has an AUC."""
        capsys.readouterr()
        assert main(["eval-proposals", "--config",
                     str(pipeline / "run.json")]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out.lower() and "AUC" not in out
        assert out.splitlines()[-1].startswith("  20  ")
        report = json.loads(
            (pipeline / "out" / "proposal_report.json").read_text())
        assert "auc" not in report

    def test_ensemble_of_self_matches_single_model(self, pipeline):
        root = pipeline
        cfg = json.loads((root / "run.json").read_text())
        cfg["paths"]["output_dir"] = str(root / "ens")
        cfg["ensemble"] = {
            "inputs": [str(root / "out" / "outputs"),
                       str(root / "out" / "outputs")],
            "weights": [1.0, 3.0],
        }
        cfg_path = root / "ens.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["ensemble", "--config", str(cfg_path)]) == 0
        single = load_proposals(root / "out" / "proposals.json")
        fused = load_proposals(root / "ens" / "proposals.json")
        assert set(fused) == set(single)
        for vid in fused:
            got = [(p.start, p.end, p.score) for p in fused[vid]]
            want = [(p.start, p.end, p.score) for p in single[vid]]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_perfect_detections_score_map_one(self, pipeline, tmp_path,
                                              capsys):
        anns = load_annotations(pipeline / "annotations.json")
        results = {}
        for vid, ann in anns.videos.items():
            if ann.subset != "validation":
                continue
            results[vid] = [{"label": inst.label, "score": 1.0,
                             "segment": [inst.start, inst.end]}
                            for inst in ann.instances]
        det_path = tmp_path / "perfect.json"
        det_path.write_text(json.dumps({
            "version": "VERSION 1.3", "results": results,
            "external_data": {}}))
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["detections"] = str(det_path)
        cfg["paths"]["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["eval-detections", "--config", str(cfg_path)]) == 0
        report = json.loads(
            (tmp_path / "out" / "detection_report.json").read_text())
        assert report["average_map"] == pytest.approx(1.0)

    def test_infer_rerun_is_idempotent(self, pipeline, tmp_path):
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["model"] = str(pipeline / "out" / "model.cpnm")
        cfg["paths"]["output_dir"] = str(tmp_path / "again")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["infer", "--config", str(cfg_path)]) == 0
        a = (pipeline / "out" / "proposals.json").read_bytes()
        b = (tmp_path / "again" / "proposals.json").read_bytes()
        assert a == b

    def test_infer_builds_the_reduction_matrix_once(self, pipeline, tmp_path,
                                                   monkeypatch):
        """Every video of one infer runs the model with one W_r."""
        seen = []
        build = SamplingMatrix.reduction_matrix
        monkeypatch.setattr(SamplingMatrix, "reduction_matrix",
                            lambda sm, w: seen.append(build(sm, w))
                            or seen[-1])
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["model"] = str(pipeline / "out" / "model.cpnm")
        cfg["paths"]["output_dir"] = str(tmp_path / "again")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["infer", "--config", str(cfg_path)]) == 0
        n_val = sum(a.subset == "validation"
                    for a in load_annotations(pipeline / "annotations.json"))
        assert len(seen) == n_val
        assert len({id(w_r) for w_r in seen}) == 1

    def _command_error(self, pipeline, tmp_path, capsys, command="infer",
                       sections=None, **paths):
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["model"] = str(pipeline / "out" / "model.cpnm")
        cfg["paths"]["output_dir"] = str(tmp_path / "bad")
        cfg["paths"].update(paths)
        cfg.update(sections or {})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main([command, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_class_scores_without_label_is_one_error_line(
            self, pipeline, tmp_path, capsys):
        scores = json.loads((pipeline / "class_scores.json").read_text())
        vid = sorted(scores)[0]
        scores[vid] = [{"score": 1.0}]
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        err = self._command_error(pipeline, tmp_path, capsys,
                                class_scores=str(path))
        assert vid in err and "entry 0" in err

    def test_video_without_class_scores_leaves_no_files(
            self, pipeline, tmp_path, capsys):
        anns = load_annotations(pipeline / "annotations.json")
        vid = max(v for v, a in anns.videos.items()
                  if a.subset == "validation")
        scores = json.loads((pipeline / "class_scores.json").read_text())
        del scores[vid]
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(scores))
        err = self._command_error(pipeline, tmp_path, capsys,
                                class_scores=str(path))
        assert f"no class scores for video {vid!r}" in err
        bad = tmp_path / "bad"
        assert not list((bad / "outputs").glob("*.npz"))
        assert not (bad / "proposals.json").exists()
        assert not (bad / "detections.json").exists()

    @pytest.mark.parametrize("results, vid, command, key", [
        *[pytest.param(results, vid, command, key,
                       id=f"{name}-{command}-{key}")
          for name, results, vid in _BAD_RESULTS
          for command, key in [("eval-proposals", "proposals"),
                               ("eval-detections", "detections")]],
        # Proposals carry no label, so only a detection file can have a bad
        # one.
        pytest.param({"v": [{**_ROW, "label": 7}]}, "v", "eval-detections",
                     "detections", id="label-int-eval-detections-detections"),
    ])
    def test_malformed_results_is_one_error_line(
            self, pipeline, tmp_path, capsys, results, vid, command, key):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"version": "VERSION 1.3",
                                    "results": results}))
        err = self._command_error(pipeline, tmp_path, capsys,
                                command=command, **{key: str(path)})
        assert str(path) in err
        if vid is not None:
            assert f"video {vid!r}" in err

    @pytest.mark.parametrize("key, value", [
        ("duration", "30"), ("segment", "12"), ("segment", [1, 3, 9]),
        ("label", 7), ("segment", [1, 1e9])],
        ids=["duration-string", "segment-string", "segment-three-numbers",
             "label-int", "segment-past-end"])
    def test_malformed_annotations_is_one_error_line(
            self, pipeline, tmp_path, capsys, key, value):
        raw = json.loads((pipeline / "annotations.json").read_text())
        vid, entry = next(iter(raw["database"].items()))
        (entry if key == "duration" else entry["annotations"][0])[key] = value
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(raw))
        err = self._command_error(pipeline, tmp_path, capsys,
                                  annotations=str(path))
        assert str(path) in err and f"video {vid!r}" in err

    def test_empty_feature_file_is_one_error_line(self, pipeline, tmp_path,
                                                  capsys):
        feats = tmp_path / "features"
        feats.mkdir()
        anns = load_annotations(pipeline / "annotations.json")
        for vid, ann in anns.videos.items():
            (feats / f"{vid}.feat").write_bytes(
                b"CPNF" + (1).to_bytes(4, "little") + bytes(4)
                + (4).to_bytes(4, "little"))
        err = self._command_error(pipeline, tmp_path, capsys,
                                features_dir=str(feats))
        assert "T=0" in err

    def test_train_feature_channel_mismatch_names_the_video(
            self, pipeline, tmp_path, capsys):
        feats = tmp_path / "features"
        shutil.copytree(pipeline / "features", feats)
        anns = load_annotations(pipeline / "annotations.json")
        vid = [a.video_id for a in anns if a.subset == "training"][-1]
        save_features(np.ones((20, 3)), feats / f"{vid}.feat")
        err = self._command_error(pipeline, tmp_path, capsys,
                                command="train", features_dir=str(feats))
        assert err == (f"error: {vid}: feature file has 3 channels, "
                       f"expected 4\n")
        assert not (tmp_path / "bad" / "model.cpnm").exists()

    def test_non_finite_network_output_is_one_error_line(
            self, pipeline, tmp_path, capsys, monkeypatch):
        real_forward = tadkit.model.forward

        def nan_forward(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            out.p_cls[0, 0] = np.nan
            return out

        # cmd_infer imports forward from tadkit.model when it runs.
        monkeypatch.setattr(tadkit.model, "forward", nan_forward)
        err = self._command_error(pipeline, tmp_path, capsys)
        assert "video " in err and "p_cls is not finite" in err
        assert not list((tmp_path / "bad" / "outputs").glob("*.npz"))
        assert not (tmp_path / "bad" / "proposals.json").exists()

    def test_non_finite_ensemble_member_is_one_error_line(
            self, pipeline, tmp_path, capsys):
        member = tmp_path / "member"
        member.mkdir()
        for src in sorted((pipeline / "out" / "outputs").glob("*.npz")):
            out = load_outputs(src)
            out.p_reg[0, 0] = np.inf
            np.savez(member / src.name, **vars(out))  # save_outputs refuses
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            sections={"ensemble": {"inputs": [
                str(pipeline / "out" / "outputs"), str(member)]}})
        assert any(f"video {src.stem!r}" in err
                   for src in member.glob("*.npz"))
        assert "p_reg is not finite" in err
        assert not (tmp_path / "bad" / "proposals.json").exists()

    def test_failed_ensemble_leaves_no_outputs(self, pipeline, tmp_path,
                                               capsys):
        """Only the last video's member is bad, so every other video has
        saved its outputs before the command fails; none may stay."""
        member = tmp_path / "member"
        member.mkdir()
        srcs = sorted((pipeline / "out" / "outputs").glob("*.npz"))
        for src in srcs:
            out = load_outputs(src)
            if src == srcs[-1]:
                out.p_cls[0, 0] = np.nan
            np.savez(member / src.name, **vars(out))  # save_outputs refuses
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            sections={"ensemble": {"inputs": [str(member)]}})
        assert f"video {srcs[-1].stem!r}" in err
        assert not list((tmp_path / "bad" / "outputs").glob("*.npz"))
        assert not (tmp_path / "bad" / "proposals.json").exists()

    @pytest.mark.filterwarnings("error")  # complex: no ComplexWarning cast
    @pytest.mark.parametrize("defect", [
        "missing_key", "truncated", "vector_shape", "map_rows",
        "map_taller_than_wide", "non_finite", "complex", "encrypted"])
    def test_bad_ensemble_member_is_one_error_line(
            self, pipeline, tmp_path, capsys, defect):
        member = tmp_path / "member"
        member.mkdir()
        for src in sorted((pipeline / "out" / "outputs").glob("*.npz")):
            with np.load(src) as data:
                arrays = dict(data)
            t = len(arrays["p_start"])
            if defect == "missing_key":
                del arrays["p_reg"]
            elif defect == "vector_shape":
                arrays["p_end"] = arrays["p_end"][:-1]
            elif defect == "map_rows":
                arrays["p_reg"] = arrays["p_reg"][:5]
            elif defect == "map_taller_than_wide":
                arrays["p_cls"] = arrays["p_reg"] = np.full((t + 1, t), 0.5)
            elif defect == "non_finite":
                arrays["p_start"][0] = np.nan
            elif defect == "complex":
                arrays["p_cls"] = arrays["p_cls"] + 0j
            np.savez(member / src.name, **arrays)
            if defect == "truncated":
                data = (member / src.name).read_bytes()
                (member / src.name).write_bytes(data[:len(data) // 2])
            elif defect == "encrypted":  # flag of the first central entry
                data = bytearray((member / src.name).read_bytes())
                data[data.index(b"PK\x01\x02") + 8] |= 1
                (member / src.name).write_bytes(bytes(data))
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            sections={"ensemble": {"inputs": [str(member)]}})
        assert str(member) in err
        assert not list((tmp_path / "bad" / "outputs").glob("*.npz"))
        assert not (tmp_path / "bad" / "proposals.json").exists()

    def test_ensemble_of_its_own_outputs_is_one_error_line(
            self, pipeline, tmp_path, capsys):
        """A member directory that is the run's own outputs/ would be
        overwritten by the run, and removed when it fails (here, on the
        other member's missing file); it is refused before anything is
        read or written."""
        own, member = tmp_path / "bad" / "outputs", tmp_path / "member"
        for path in (own, member):
            shutil.copytree(pipeline / "out" / "outputs", path)
        min(member.glob("*.npz")).unlink()
        before = {p.name: p.read_bytes() for p in own.glob("*.npz")}
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            sections={"ensemble": {"inputs": [
                str(member), str(own / ".." / "outputs")]}})
        assert "ensemble.inputs[1]" in err
        assert {p.name: p.read_bytes() for p in own.glob("*.npz")} == before
        assert not (tmp_path / "bad" / "proposals.json").exists()

    def test_infinite_resize_hi_is_one_error_line(self, pipeline, tmp_path,
                                                  capsys):
        err = self._command_error(
            pipeline, tmp_path, capsys, command="train",
            sections={"preprocess": {"resize_hi": math.inf}})
        assert "preprocess.resize_hi" in err
        assert not (tmp_path / "bad" / "model.cpnm").exists()

    @pytest.mark.parametrize("n_inputs, weights", [
        (2, [math.nan, 1.0]), (1, [0.0]), (2, [1e308, 1e308])],
        ids=["nan", "zero-sum", "overflowing-sum"])
    def test_bad_ensemble_weights_are_one_error_line(
            self, pipeline, tmp_path, capsys, n_inputs, weights):
        inputs = [str(pipeline / "out" / "outputs")] * n_inputs
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            sections={"ensemble": {"inputs": inputs, "weights": weights}})
        assert "ensemble.weights" in err
        assert not list((tmp_path / "bad" / "outputs").glob("*.npz"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_model_is_one_stderr_line(self, pipeline, tmp_path,
                                                  threads):
        """A finite model whose weights overflow float64 inside the network
        fails on its non-finite outputs without numpy warnings. Runs in a
        fresh interpreter, because pytest captures warnings in-process."""
        cfg, params = load_model(pipeline / "out" / "model.cpnm")
        for name in ("stem1_w", "stem2_w", "pem_w"):
            params[name] *= 1e120
        model = tmp_path / "huge.cpnm"
        save_model(model, cfg, params)
        run = json.loads((pipeline / "run.json").read_text())
        run["paths"]["model"] = str(model)
        run["paths"]["output_dir"] = str(tmp_path / "bad")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(tadkit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tadkit.cli", "infer", "--config",
             str(cfg_path), "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "is not finite" in proc.stderr

    def test_threads_flag_matches_single_thread(self, pipeline, tmp_path):
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["model"] = str(pipeline / "out" / "model.cpnm")
        cfg["paths"]["output_dir"] = str(tmp_path / "mt")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["infer", "--config", str(cfg_path),
                     "--threads", "4"]) == 0
        a = (pipeline / "out" / "proposals.json").read_bytes()
        b = (tmp_path / "mt" / "proposals.json").read_bytes()
        assert a == b
