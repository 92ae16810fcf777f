"""Config validation and command-line pipeline tests.

The pipeline test drives every subcommand through main() on a small
synthetic dataset inside tmp_path; it is the integration test for the whole
package and takes a few seconds.
"""

import json

import numpy as np
import pytest

from tadkit import cli
from tadkit.cli import main
from tadkit.config import (ConfigError, RunConfig, build_model_config,
                           load_run_config, run_config_from_dict)
from tadkit.dataio import load_annotations, load_features
from tadkit.model import load_outputs, save_outputs
from tadkit.postprocess import load_detections, load_proposals


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
            {"preprocess": {"resize_lo": 0.9, "resize_hi": 1.1,
                            "enable_resize": True}})
        assert rc.preprocess.resize_factor_range == (0.9, 1.1)
        assert rc.preprocess.enable_resize

    def test_preprocess_rejects_internal_field_name(self):
        with pytest.raises(ConfigError, match="preprocess"):
            run_config_from_dict(
                {"preprocess": {"resize_factor_range": [0.9, 1.1]}})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_model_config_inherits_run_seed(self):
        rc = run_config_from_dict({"seed": 9, "mask": {"p": 0.2}})
        mc = build_model_config(rc, c_in=4)
        assert mc.seed == 9
        assert mc.mask.seed == 9 and mc.mask.p == 0.2

    def test_ensemble_lists_accepted(self):
        rc = run_config_from_dict(
            {"ensemble": {"inputs": ["a", "b"], "weights": [1.0, 2.0]}})
        assert rc.ensemble.inputs == ["a", "b"]
        assert rc.ensemble.weights == [1.0, 2.0]

    def test_ensemble_weight_count_mismatch(self):
        with pytest.raises(ConfigError, match="weights"):
            run_config_from_dict(
                {"ensemble": {"inputs": ["a", "b"], "weights": [1.0]}})


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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> preprocess -> train -> infer -> eval on one tiny
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
    for command in (["synth"], ["preprocess"], ["train"], ["infer"],
                    ["eval-proposals"], ["eval-detections"]):
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

    def test_preprocess_artifacts(self, pipeline):
        out = pipeline / "out"
        kept = load_annotations(out / "annotations_preprocessed.json")
        assert set(kept.videos) <= set(
            load_annotations(pipeline / "annotations.json").videos)
        epochs = json.loads((out / "epoch_list.json").read_text())
        assert set(epochs) <= {v.video_id
                               for v in kept.videos.values()
                               if v.subset == "training"}

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

    def _command_error(self, pipeline, tmp_path, capsys, command="infer",
                     ensemble=None, **paths):
        cfg = json.loads((pipeline / "run.json").read_text())
        cfg["paths"]["model"] = str(pipeline / "out" / "model.cpnm")
        cfg["paths"]["output_dir"] = str(tmp_path / "bad")
        cfg["paths"].update(paths)
        if ensemble is not None:
            cfg["ensemble"] = ensemble
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

    def test_non_finite_network_output_is_one_error_line(
            self, pipeline, tmp_path, capsys, monkeypatch):
        real_forward = cli.forward

        def nan_forward(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            out.p_cls[0, 0] = np.nan
            return out

        monkeypatch.setattr(cli, "forward", nan_forward)
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
            save_outputs(out, member / src.name)
        err = self._command_error(
            pipeline, tmp_path, capsys, command="ensemble",
            ensemble={"inputs": [str(pipeline / "out" / "outputs"),
                                 str(member)]})
        assert any(f"video {src.stem!r}" in err
                   for src in member.glob("*.npz"))
        assert "p_reg is not finite" in err
        assert not (tmp_path / "bad" / "proposals.json").exists()

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
