"""Tests for annotation/feature/class-score IO, temporal rescaling, and the
synthetic dataset generator."""

import json
import struct

import numpy as np
import pytest

from tadkit.dataio import (AnnotationError, AnnotationSet, FeatureIOError,
                           Instance, SynthConfig, SynthesisError,
                           VideoAnnotation, load_annotations,
                           load_class_scores, load_features, rescale_features,
                           save_annotations, save_class_scores, save_features,
                           synth_dataset)


def write_annotation_json(path, database):
    path.write_text(json.dumps({"database": database}))
    return path


class TestAnnotations:
    def test_roundtrip_single_video(self, tmp_path):
        """One video, one instance, survives the schema round trip."""
        p = write_annotation_json(tmp_path / "a.json", {
            "v1": {"duration": 10.0, "subset": "training",
                   "annotations": [{"segment": [2.0, 5.0], "label": "jump"}]}
        })
        anns = load_annotations(p)
        assert len(anns) == 1
        ann = anns["v1"]
        assert ann.duration == 10.0
        assert ann.subset == "training"
        assert ann.instances == [Instance(2.0, 5.0, "jump")]

    def test_empty_database(self, tmp_path):
        p = write_annotation_json(tmp_path / "a.json", {})
        assert len(load_annotations(p)) == 0

    def test_degenerate_instance_rejected(self, tmp_path):
        p = write_annotation_json(tmp_path / "a.json", {
            "v1": {"duration": 10.0, "subset": "training",
                   "annotations": [{"segment": [5.0, 5.0], "label": "x"}]}
        })
        with pytest.raises(AnnotationError):
            load_annotations(p)

    def test_error_names_video_and_instance(self, tmp_path):
        p = write_annotation_json(tmp_path / "a.json", {
            "bad_vid": {"duration": 10.0, "subset": "training",
                        "annotations": [
                            {"segment": [0.0, 1.0], "label": "a"},
                            {"segment": [3.0, 12.0], "label": "b"},
                        ]}
        })
        with pytest.raises(AnnotationError, match="bad_vid") as err:
            load_annotations(p)
        assert "1" in str(err.value)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{not json")
        with pytest.raises(AnnotationError):
            load_annotations(p)

    def test_missing_database_key(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"videos": {}}))
        with pytest.raises(AnnotationError):
            load_annotations(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_annotations(tmp_path / "nope.json")

    def test_bad_subset_rejected(self, tmp_path):
        p = write_annotation_json(tmp_path / "a.json", {
            "v1": {"duration": 5.0, "subset": "train",  # must be "training"
                   "annotations": []}
        })
        with pytest.raises(AnnotationError):
            load_annotations(p)

    def test_save_load_identity(self, tmp_path):
        videos = {
            "v1": VideoAnnotation("v1", 10.0, "training",
                                  [Instance(1.0, 4.0, "a"),
                                   Instance(5.0, 9.5, "b")]),
            "v2": VideoAnnotation("v2", 7.5, "validation", []),
        }
        anns = AnnotationSet(videos)
        path = tmp_path / "a.json"
        save_annotations(anns, path)
        back = load_annotations(path)
        assert len(back) == 2
        for vid in videos:
            assert back[vid] == videos[vid]

    def test_subset_selection(self):
        anns = AnnotationSet({
            "a": VideoAnnotation("a", 5.0, "training", []),
            "b": VideoAnnotation("b", 5.0, "validation", []),
            "c": VideoAnnotation("c", 5.0, "training", []),
        })
        assert sorted(v.video_id for v in anns.subset("training")) == ["a", "c"]
        assert "b" in anns
        assert "z" not in anns


class TestFeatures:
    def test_roundtrip_ramp(self, tmp_path):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        p = tmp_path / "f.feat"
        save_features(x, p)
        back = load_features(p)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, x)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.feat"
        save_features(np.ones((2, 2), np.float32), p)
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureIOError, match="magic"):
            load_features(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "f.feat"
        save_features(np.ones((2, 2), np.float32), p)
        data = bytearray(p.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureIOError, match="version"):
            load_features(p)

    def test_truncated_payload(self, tmp_path):
        # header says 4x3 but only 10 floats follow
        p = tmp_path / "f.feat"
        save_features(np.zeros((4, 3), np.float32), p)
        p.write_bytes(p.read_bytes()[:16 + 10 * 4])
        with pytest.raises(FeatureIOError):
            load_features(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "f.feat"
        save_features(np.zeros((2, 2), np.float32), p)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(FeatureIOError):
            load_features(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "f.feat"
        save_features(np.ones((2, 2), np.float32), p)
        data = bytearray(p.read_bytes())
        data[16:20] = np.float32(np.inf).tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(FeatureIOError):
            load_features(p)

    @pytest.mark.parametrize("t,c", [(0, 3), (5, 0), (0, 0)])
    def test_empty_header_rejected(self, tmp_path, t, c):
        p = tmp_path / "f.feat"
        p.write_bytes(b"CPNF" + struct.pack("<III", 1, t, c))
        with pytest.raises(FeatureIOError, match=f"T={t}, C={c}"):
            load_features(p)


class TestClassScores:
    def test_roundtrip_sorted(self, tmp_path):
        scores = {"v1": [("b", 0.2), ("a", 0.9)]}
        p = tmp_path / "s.json"
        save_class_scores(scores, p)
        back = load_class_scores(p)
        assert back["v1"] == [("a", 0.9), ("b", 0.2)]

    def test_duplicate_label_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(
            {"v": [{"label": "a", "score": 0.9},
                   {"label": "a", "score": 0.5}]}))
        with pytest.raises(ValueError):
            load_class_scores(p)

    def test_score_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"v": [{"label": "a", "score": 1.5}]}))
        with pytest.raises(ValueError):
            load_class_scores(p)

    @pytest.mark.parametrize("entry", [
        {"score": 0.5},               # missing label
        {"label": "b"},               # missing score
        {"label": "b", "score": "x"},  # non-numeric score
        "b",                          # entry is not an object
    ])
    def test_bad_entry_names_file_video_and_index(self, tmp_path, entry):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"v": [{"label": "a", "score": 0.9},
                                       entry]}))
        with pytest.raises(AnnotationError) as info:
            load_class_scores(p)
        assert str(p) in str(info.value)
        assert "'v'" in str(info.value)
        assert "entry 1" in str(info.value)

    def test_non_list_entries_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"v": {"label": "a", "score": 0.9}}))
        with pytest.raises(AnnotationError, match="'v'.*list"):
            load_class_scores(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"v": [')
        with pytest.raises(AnnotationError, match="malformed JSON"):
            load_class_scores(p)


class TestRescaleFeatures:
    def test_identity_at_same_length(self):
        x = np.random.default_rng(0).normal(size=(9, 4))
        np.testing.assert_array_equal(rescale_features(x, 9), x)

    def test_constant_stays_constant(self):
        x = np.full((5, 3), 2.5)
        for t in (1, 2, 7, 50):
            np.testing.assert_allclose(rescale_features(x, t), 2.5)

    def test_hand_checked_ramp(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        out = rescale_features(x, 7)
        np.testing.assert_allclose(
            out[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def test_target_one_is_midpoint(self):
        x = np.array([[1.0], [5.0]])
        np.testing.assert_allclose(rescale_features(x, 1), [[3.0]])

    def test_matches_interp_oracle(self):
        """Each channel must equal np.interp at the resample positions."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            t_in = int(rng.integers(2, 30))
            t_out = int(rng.integers(2, 30))
            x = rng.normal(size=(t_in, 3))
            pos = np.arange(t_out) * (t_in - 1) / (t_out - 1)
            out = rescale_features(x, t_out)
            for c in range(3):
                np.testing.assert_allclose(
                    out[:, c], np.interp(pos, np.arange(t_in), x[:, c]),
                    atol=1e-12)

    def test_idempotent_at_same_target(self):
        x = np.random.default_rng(1).normal(size=(13, 2))
        once = rescale_features(x, 8)
        twice = rescale_features(once, 8)
        np.testing.assert_allclose(twice, once, atol=1e-6)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            rescale_features(np.ones((4, 2)), 0)


class TestSynthDataset:
    def test_deterministic(self):
        cfg = SynthConfig(n_videos=6, seed=42)
        a1, f1, s1 = synth_dataset(cfg)
        a2, f2, s2 = synth_dataset(cfg)
        assert s1 == s2
        for vid in f1:
            np.testing.assert_array_equal(f1[vid], f2[vid])
            assert a1[vid] == a2[vid]

    def test_zero_videos(self):
        anns, feats, scores = synth_dataset(SynthConfig(n_videos=0))
        assert len(anns) == 0 and not feats and not scores

    def test_infeasible_config(self):
        cfg = SynthConfig(instances_range=(3, 3), frac_range=(0.5, 0.6))
        with pytest.raises(SynthesisError):
            synth_dataset(cfg)

    def test_instances_respect_fraction_bounds(self):
        cfg = SynthConfig(n_videos=25, frac_range=(0.1, 0.3),
                          instances_range=(1, 3), seed=5)
        anns, feats, _ = synth_dataset(cfg)
        for ann in anns:
            assert ann.duration == feats[ann.video_id].shape[0]
            for inst in ann.instances:
                frac = (inst.end - inst.start) / ann.duration
                # integer-length rounding can leave the set [ceil, floor]
                assert 0.1 - 1 / ann.duration <= frac <= 0.3 + 1 / ann.duration
            spans = sorted((i.start, i.end) for i in ann.instances)
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 <= s1, "instances must not overlap"

    def test_split_counts_and_roundtrip(self, tmp_path):
        cfg = SynthConfig(n_videos=10, val_fraction=0.3, seed=0)
        anns, feats, scores = synth_dataset(cfg)
        n_train = sum(1 for a in anns if a.subset == "training")
        assert n_train == 7
        assert len(anns) - n_train == 3
        # generated annotations must pass the loader's own validation
        path = tmp_path / "a.json"
        save_annotations(anns, path)
        assert len(load_annotations(path)) == 10

    def test_class_scores_are_true_labels(self):
        anns, _, scores = synth_dataset(SynthConfig(n_videos=8, seed=2))
        for ann in anns:
            want = sorted({i.label for i in ann.instances})
            assert [label for label, _ in scores[ann.video_id]] == want
            assert all(s == 1.0 for _, s in scores[ann.video_id])
