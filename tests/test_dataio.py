"""Tests for annotation/feature/class-score IO, temporal rescaling, and the
synthetic dataset generator."""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tadkit.dataio import (AnnotationError, AnnotationSet, FeatureIOError,
                           Instance, NetworkOutputs, SynthConfig,
                           SynthesisError, VideoAnnotation, load_annotations,
                           load_class_scores, load_features, load_outputs,
                           rescale_features, save_annotations,
                           save_class_scores, save_features, save_outputs,
                           synth_dataset, write_json)


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
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("entry", [
        {"duration": "30", "subset": "training"},
        {"duration": 30, "subset": "training",
         "annotations": [{"segment": "12", "label": "a"}]},
        {"duration": 30, "subset": "training",
         "annotations": [{"segment": [1, 3, 9], "label": "a"}]},
        {"duration": 30, "subset": "training",
         "annotations": [{"segment": [1, 3], "label": 7}]},
        {"duration": 30, "subset": "training", "annotations": {"a": 1}},
        {"duration": 30},
        [30, "training"],
    ], ids=["duration-string", "segment-string", "segment-three-numbers",
            "label-int", "annotations-object", "missing-subset",
            "entry-list"])
    def test_wrong_type_names_file_and_video(self, tmp_path, entry):
        p = write_annotation_json(tmp_path / "a.json", {"v1": entry})
        with pytest.raises(AnnotationError) as err:
            load_annotations(p)
        assert str(p) in str(err.value) and "'v1'" in str(err.value)

    def test_integers_load_as_floats_and_extra_keys_pass(self, tmp_path):
        p = write_annotation_json(tmp_path / "a.json", {
            "v1": {"duration": 30, "subset": "training",
                   "url": "https://example.com/v1",
                   "annotations": [{"segment": [1, 3], "label": "a"}]}
        })
        ann = load_annotations(p)["v1"]
        assert ann.instances == [Instance(1.0, 3.0, "a")]
        assert all(type(x) is float for x in
                   (ann.duration, ann.instances[0].start,
                    ann.instances[0].end))

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


def _outputs_file() -> bytes:
    """The bytes of one valid outputs file, T = 8 and D = 6."""
    rng = np.random.default_rng(0)
    buf = io.BytesIO()
    save_outputs(NetworkOutputs(rng.random(8), rng.random(8),
                                rng.random((6, 8)), rng.random((6, 8))), buf)
    return buf.getvalue()


_OUTPUTS_FILE = _outputs_file()


@st.composite
def _damaged_outputs_file(draw) -> bytes:
    """A copy of _OUTPUTS_FILE with one byte changed, or truncated; half
    the offsets fall in the archive's central directory, whose entries
    zipfile reads first."""
    data = bytearray(_OUTPUTS_FILE)
    offset = draw(st.integers(0, len(data) - 1)
                  | st.integers(data.index(b"PK\x01\x02"), len(data) - 1))
    if draw(st.booleans()):
        return bytes(data[:offset])
    data[offset] = draw(st.integers(0, 255))
    return bytes(data)


def _arrays(out: NetworkOutputs) -> list[np.ndarray]:
    return [out.p_start, out.p_end, out.p_cls, out.p_reg]


@st.composite
def _network_outputs(draw) -> NetworkOutputs:
    """Outputs of one real float dtype, T in [1, 300], which crosses the
    widths at which the .npy header padding changes, and D in [1, T]; each
    map is in C or Fortran order."""
    dtype = draw(st.sampled_from(["<f2", "<f4", "<f8", ">f8"]))
    t = draw(st.integers(1, 300))
    d = draw(st.integers(1, t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = [np.asarray(rng.random((d, t)), order=draw(st.sampled_from("CF")))
            for _ in range(2)]
    return NetworkOutputs(*(a.astype(dtype, order="K")
                            for a in [rng.random(t), rng.random(t), *maps]))


class TestOutputsFile:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_damaged_outputs_file())
    def test_damaged_file_is_rejected_or_valid(self, tmp_path, data):
        """A damaged outputs file raises ValueError naming it, or loads as
        finite float64 arrays of the shapes load_outputs checks, equal to
        the undamaged file's; no other exception escapes."""
        path = tmp_path / "o.npz"
        path.write_bytes(data)
        try:
            out = load_outputs(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        arrays = [out.p_start, out.p_end, out.p_cls, out.p_reg]
        assert all(a.dtype == np.float64 and np.isfinite(a).all()
                   for a in arrays)
        (t,) = out.p_start.shape
        d = out.p_cls.shape[0]
        assert out.p_end.shape == (t,) and 1 <= d <= t
        assert out.p_cls.shape == out.p_reg.shape == (d, t)
        path.write_bytes(_OUTPUTS_FILE)
        for a, b in zip(arrays, _arrays(load_outputs(path))):
            np.testing.assert_array_equal(a, b)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(out=_network_outputs())
    def test_bytes_are_those_of_np_savez(self, tmp_path, out):
        """save_outputs writes np.savez's bytes, to a path as to a file
        object, and they load back as the arrays, as float64."""
        expected = io.BytesIO()
        np.savez(expected, **vars(out))
        buf, path = io.BytesIO(), tmp_path / "o.npz"
        save_outputs(out, buf)
        save_outputs(out, path)
        assert buf.getvalue() == path.read_bytes() == expected.getvalue()
        for a, b in zip(_arrays(out), _arrays(load_outputs(path))):
            assert b.dtype == np.float64 and b.flags.writeable
            np.testing.assert_array_equal(a, b)

    def test_np_savez_compressed_file_loads(self, tmp_path):
        rng = np.random.default_rng(2)
        out = NetworkOutputs(rng.random(9), rng.random(9),
                             rng.random((4, 9)), rng.random((4, 9)))
        path = tmp_path / "o.npz"
        np.savez_compressed(path, **vars(out))
        for a, b in zip(_arrays(out), _arrays(load_outputs(path))):
            np.testing.assert_array_equal(a, b)

    def test_path_is_written_as_given(self, tmp_path):
        """np.savez appends .npz to any other name; save_outputs does not."""
        rng = np.random.default_rng(3)
        out = NetworkOutputs(rng.random(5), rng.random(5),
                             rng.random((5, 5)), rng.random((5, 5)))
        path = tmp_path / "video.out"
        save_outputs(out, path)
        assert [p.name for p in tmp_path.iterdir()] == ["video.out"]
        for a, b in zip(_arrays(out), _arrays(load_outputs(path))):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field, value, message", [
        ("p_cls", lambda a: a.astype(np.int64), "p_cls must be a real"),
        ("p_start", lambda a: a + 0j, "p_start must be a real"),
        ("p_end", lambda a: a > 0.5, "p_end must be a real"),
        ("p_end", lambda a: a[:-1], r"p_start and p_end must share one \(T,\)"),
        ("p_start", lambda a: a[:, None], r"share one \(T,\) shape"),
        ("p_reg", lambda a: a[:-1], r"must share one \(D, T\) shape"),
        ("p_cls", lambda a: a[:, :-1], r"must share one \(D, T\) shape"),
        ("p_cls", lambda a: np.full((7, 6), 0.5), "with D <= T = 6"),
        ("p_reg", lambda a: np.where(a > 0.5, np.nan, a), "p_reg is not finite"),
        ("p_start", lambda a: np.full_like(a, np.inf), "p_start is not finite"),
        ("p_cls", lambda a: np.full(a.shape, 1e300, np.longdouble) ** 2,
         "p_cls is not finite"),
    ], ids=["int", "complex", "bool", "vector_length", "vector_rank",
            "map_rows", "map_columns", "map_taller_than_wide", "nan", "inf",
            "finite_only_as_longdouble"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_what_load_refuses_is_not_written(self, tmp_path, field, value,
                                             message):
        """save_outputs refuses, with load_outputs' message and before it
        writes a byte, every case that load_outputs refuses."""
        rng = np.random.default_rng(4)
        out = NetworkOutputs(rng.random(6), rng.random(6),
                             rng.random((6, 6)), rng.random((6, 6)))
        setattr(out, field, value(getattr(out, field)))
        path = tmp_path / "o.npz"
        with pytest.raises(ValueError, match=rf"o\.npz: .*{message}"):
            save_outputs(out, path)
        assert not path.exists()
        np.savez(path, **vars(out))
        with pytest.raises(ValueError, match=rf"o\.npz: .*{message}"):
            load_outputs(path)


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
        {"label": 7, "score": 0.5},   # non-string label
        {"label": "b", "score": True},  # bool score
        {"label": "b", "score": "0.5"},  # numeric string score
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


class TestJsonText:
    def test_write_json_is_sorted_indented_with_final_newline(self, tmp_path):
        doc = {"b": [1.5, {"d": None, "c": "x"}], "a": 2}
        path = tmp_path / "doc.json"
        write_json(doc, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True,
                                              indent=1) + "\n"

    def test_non_utf8_file_is_malformed_json(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b'{"database": "\xff"}')
        with pytest.raises(AnnotationError, match="a.json: malformed JSON"):
            load_annotations(path)

    def test_annotations_and_class_scores_end_in_newline(self, tmp_path):
        anns, _, scores = synth_dataset(SynthConfig(n_videos=3, seed=1))
        save_annotations(anns, tmp_path / "a.json")
        save_class_scores(scores, tmp_path / "s.json")
        for name in ("a.json", "s.json"):
            assert (tmp_path / name).read_text().endswith("}\n")


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
