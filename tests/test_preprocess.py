"""Tests for the four training-data strategies: long-coverage removal, short
instance resampling, instance resize, and temporal channel shift."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadkit.config import ModelConfig
from tadkit.dataio import AnnotationSet, Instance, VideoAnnotation
from tadkit.model import prepare_sample
from tadkit.preprocess import (PreprocessConfig, epoch_list,
                               instance_coverage, interval_union_length,
                               remove_long_coverage, resample_short,
                               resize_instance, resize_instance_at,
                               temporal_shift)


def make_set(*videos):
    return AnnotationSet({v.video_id: v for v in videos})


def video(vid, duration, segments, subset="training", label="act"):
    return VideoAnnotation(
        vid, duration, subset,
        [Instance(s, e, label) for s, e in segments])


class TestIntervalUnion:
    def test_overlap_not_double_counted(self):
        assert interval_union_length([(0.0, 6.0), (4.0, 8.0)]) == 8.0

    def test_disjoint_sum(self):
        assert interval_union_length([(0.0, 2.0), (5.0, 6.0)]) == 3.0

    def test_empty(self):
        assert interval_union_length([]) == 0.0

    def test_matches_rasterized_oracle(self):
        """Integer-endpoint intervals: union length equals the count of
        covered unit cells."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            ivals = []
            covered = np.zeros(50, dtype=bool)
            for _ in range(n):
                s = int(rng.integers(0, 45))
                e = s + int(rng.integers(1, 6))
                ivals.append((float(s), float(e)))
                covered[s:e] = True
            assert interval_union_length(ivals) == covered.sum()


class TestRemoveLongCoverage:
    def test_99_percent_coverage_removed(self):
        anns = make_set(video("long", 10.0, [(0.0, 9.9)]),
                        video("ok", 10.0, [(0.0, 5.0)]))
        kept = remove_long_coverage(anns, 0.98)
        assert "long" not in kept
        assert "ok" in kept

    def test_no_instances_kept(self):
        anns = make_set(video("empty", 10.0, []))
        assert "empty" in remove_long_coverage(anns, 0.98)

    def test_union_not_sum(self):
        # [0,6] u [4,8] = [0,8]: coverage 0.8 even though the sum is 1.0
        anns = make_set(video("v", 10.0, [(0.0, 6.0), (4.0, 8.0)]))
        assert instance_coverage(anns["v"]) == pytest.approx(0.8)
        assert "v" in remove_long_coverage(anns, 0.98)

    def test_validation_videos_never_removed(self):
        anns = make_set(video("v", 10.0, [(0.0, 9.9)], subset="validation"))
        assert "v" in remove_long_coverage(anns, 0.98)

    def test_idempotent_and_preserving(self):
        anns = make_set(video("a", 10.0, [(0.0, 9.9)]),
                        video("b", 10.0, [(1.0, 3.0)]))
        once = remove_long_coverage(anns, 0.98)
        twice = remove_long_coverage(once, 0.98)
        assert list(v.video_id for v in twice) == ["b"]
        assert twice["b"] == anns["b"]


class TestResampleShort:
    def test_repeat_factor_one_is_identity(self):
        anns = make_set(video("a", 100.0, [(0.0, 2.0)]),
                        video("b", 100.0, [(0.0, 50.0)]))
        assert resample_short(anns, 0.05, 1) == ["a", "b"]

    def test_short_video_repeated(self):
        # 2/100 = 0.02 < 0.05 -> three appearances at repeat_factor 3
        anns = make_set(video("short", 100.0, [(0.0, 2.0)]),
                        video("plain", 100.0, [(0.0, 50.0)]))
        epoch = resample_short(anns, 0.05, 3)
        assert epoch.count("short") == 3
        assert epoch.count("plain") == 1

    def test_repeats_are_contiguous_in_input_order(self):
        anns = make_set(video("a", 100.0, [(0.0, 1.0)]),
                        video("b", 100.0, [(0.0, 60.0)]),
                        video("c", 100.0, [(2.0, 3.0)]))
        assert resample_short(anns, 0.05, 2) == ["a", "a", "b", "c", "c"]

    def test_only_training_videos_listed(self):
        anns = make_set(video("t", 100.0, [(0.0, 1.0)]),
                        video("v", 100.0, [(0.0, 1.0)], subset="validation"))
        assert resample_short(anns, 0.05, 2) == ["t", "t"]

    def test_length_formula_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vids = []
            n_short = 0
            for i in range(int(rng.integers(1, 10))):
                short = rng.random() < 0.5
                seg = (0.0, 2.0) if short else (0.0, 50.0)
                n_short += short
                vids.append(video(f"v{i}", 100.0, [seg]))
            rf = int(rng.integers(1, 4))
            epoch = resample_short(make_set(*vids), 0.05, rf)
            assert len(epoch) == len(vids) + (rf - 1) * n_short


class TestEpochList:
    @pytest.mark.parametrize("remove_long", [True, False])
    @pytest.mark.parametrize("resample", [True, False])
    def test_composes_removal_and_resampling(self, remove_long, resample):
        anns = make_set(video("full", 10.0, [(0.0, 10.0)]),
                        video("short", 100.0, [(0.0, 1.0)]),
                        video("plain", 100.0, [(0.0, 50.0)]),
                        video("val", 10.0, [(0.0, 10.0)], subset="validation"))
        # theta_long 1 keeps every video; repeat_factor 1 repeats none
        pp = PreprocessConfig(theta_long=0.98 if remove_long else 1.0,
                              repeat_factor=2 if resample else 1)
        kept, epoch = epoch_list(anns, pp)
        assert list(kept.videos) == (["short", "plain", "val"] if remove_long
                                     else ["full", "short", "plain", "val"])
        head = [] if remove_long else ["full"]
        assert epoch == head + (["short", "short", "plain"] if resample
                                else ["short", "plain"])


@st.composite
def _annotation_sets(draw):
    """One to five videos, each covered by instances that touch or are one
    ulp apart; the cut points are drawn anywhere in the video, so many
    videos are covered from 0 to their full duration."""
    videos = {}
    for k in range(draw(st.integers(1, 5))):
        duration = draw(st.floats(0.5, 1000.0))
        cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                       exclude_max=True), max_size=6))
        points = [0.0] + sorted(c * duration for c in cuts) + [duration]
        instances = []
        for s, e in zip(points, points[1:]):
            if draw(st.booleans()):
                s = math.nextafter(s, math.inf)
            if s < e:
                instances.append(Instance(s, e, "a"))
        subset = draw(st.sampled_from(["training", "validation"]))
        videos[f"v{k}"] = VideoAnnotation(f"v{k}", duration, subset,
                                          draw(st.permutations(instances)))
        videos[f"v{k}"].validate()
    return AnnotationSet(videos)


class TestNeutralSettings:
    """theta_long 1, repeat_factor 1, a (1, 1) resize range and a
    shift_fraction below 1/C (0 among them) each turn their strategy off."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(anns=_annotation_sets(), theta_short=st.floats(0.0, 2.0))
    def test_neutral_epoch_list_is_every_training_video_once(
            self, anns, theta_short):
        assert all(instance_coverage(a) <= 1.0 for a in anns)
        kept = remove_long_coverage(anns, 1.0)
        assert list(kept.videos) == list(anns.videos)
        assert all(kept[v] is anns[v] for v in anns.videos)
        training = [a.video_id for a in anns if a.subset == "training"]
        assert resample_short(anns, theta_short, 1) == training
        pp = PreprocessConfig(theta_long=1.0, theta_short=theta_short,
                              repeat_factor=1)
        kept, epoch = epoch_list(anns, pp)
        assert list(kept.videos) == list(anns.videos) and epoch == training

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(anns=_annotation_sets(), seed=st.integers(0, 2**32 - 1),
           t_raw=st.integers(1, 20))
    def test_neutral_augmentations_draw_nothing(self, anns, seed, t_raw):
        cfg = ModelConfig(c_in=3, c_h=2, t_scale=8, d_max=8, n_samples=2)
        feats = {v: np.random.default_rng(seed).normal(size=(t_raw, 3))
                 for v in anns.videos}
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        for vid in anns.videos:
            prepare_sample(vid, anns, feats, cfg, PreprocessConfig(), rng)
        assert rng.bit_generator.state == state
        prepare_sample(next(iter(anns.videos)), anns, feats, cfg,
                       PreprocessConfig(shift_fraction=0.5), rng)
        assert rng.bit_generator.state != state

    def test_shift_of_no_channel_draws_nothing(self):
        """floor(0.05 * 16) = 0: a shift that moves no channel draws no
        random number and returns the features as they are; at 20 channels
        the same fraction moves one, and it draws."""
        cfg = ModelConfig(c_in=16, c_h=2, t_scale=8, d_max=8, n_samples=2)
        anns = make_set(video("v", 12.0, [(2.0, 6.0)]))
        pp = PreprocessConfig(shift_fraction=0.05)
        for channels, draws in ((16, False), (20, True)):
            feats = {"v": np.random.default_rng(1).normal(
                size=(12, channels))}
            rng = np.random.default_rng(2)
            state = rng.bit_generator.state
            sample = prepare_sample("v", anns, feats, cfg, pp, rng)
            assert (rng.bit_generator.state != state) == draws
            if not draws:
                want = prepare_sample("v", anns, feats, cfg,
                                      PreprocessConfig(), rng)
                np.testing.assert_array_equal(sample.features, want.features)


class TestResizeInstance:
    def test_identity_factor(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(10, 4))
        ann = video("v", 10.0, [(2.0, 6.0)])
        out_f, out_a = resize_instance(feats, ann, rng,
                                       factor_range=(1.0, 1.0))
        np.testing.assert_array_equal(out_f, feats)
        assert out_a == ann

    def test_splice_arithmetic(self):
        """Doubling a 4-snippet instance grows T by 4 and shifts later
        boundaries by +4."""
        feats = np.arange(10, dtype=float)[:, None]
        ann = video("v", 10.0, [(2.0, 6.0), (7.0, 9.0)])
        out_f, out_a = resize_instance_at(feats, ann, 0, 2.0)
        assert out_f.shape == (14, 1)
        assert out_a.duration == pytest.approx(14.0)
        assert (out_a.instances[0].start, out_a.instances[0].end) \
            == pytest.approx((2.0, 10.0))
        assert (out_a.instances[1].start, out_a.instances[1].end) \
            == pytest.approx((11.0, 13.0))
        # flanks are untouched
        np.testing.assert_array_equal(out_f[:2], feats[:2])
        np.testing.assert_array_equal(out_f[-4:], feats[-4:])
        out_a.validate()

    def test_single_snippet_instance_unchanged(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(10, 3))
        ann = video("v", 10.0, [(4.0, 5.0)])
        out_f, out_a = resize_instance(feats, ann, rng, (2.0, 2.0))
        np.testing.assert_array_equal(out_f, feats)
        assert out_a == ann

    def test_invariants_randomized(self):
        """Instance count, label multiset and ordering survive; the output
        annotation revalidates."""
        rng = np.random.default_rng(9)
        for _ in range(40):
            t_raw = int(rng.integers(20, 60))
            n = int(rng.integers(1, 4))
            bounds = np.sort(rng.choice(t_raw, size=2 * n, replace=False))
            segs = [(float(bounds[2 * i]), float(bounds[2 * i + 1]))
                    for i in range(n)]
            labels = [f"c{rng.integers(3)}" for _ in range(n)]
            ann = VideoAnnotation(
                "v", float(t_raw), "training",
                [Instance(s, e, la) for (s, e), la in zip(segs, labels)])
            feats = rng.normal(size=(t_raw, 4))
            out_f, out_a = resize_instance(feats, ann, rng, (0.5, 2.0))
            out_a.validate()
            assert len(out_a.instances) == n
            assert [i.label for i in out_a.instances] == labels
            starts = [i.start for i in out_a.instances]
            assert starts == sorted(starts)
            assert out_f.shape[0] == round(out_a.duration)


class TestTemporalShift:
    def test_zero_fraction_identity(self):
        x = np.random.default_rng(0).normal(size=(6, 8))
        np.testing.assert_array_equal(temporal_shift(x, 0.0), x)

    def test_c8_eighth_shifts_one_channel_each_way(self):
        """C=8, fraction 1/8: channel 0 forward, channel 1 backward, 2-7
        untouched."""
        x = np.random.default_rng(1).normal(size=(5, 8))
        out = temporal_shift(x, 0.125)
        assert out[0, 0] == 0.0
        np.testing.assert_array_equal(out[1:, 0], x[:-1, 0])
        assert out[-1, 1] == 0.0
        np.testing.assert_array_equal(out[:-1, 1], x[1:, 1])
        np.testing.assert_array_equal(out[:, 2:], x[:, 2:])

    def test_single_snippet_shifted_channels_zero(self):
        x = np.ones((1, 8))
        out = temporal_shift(x, 0.25)
        np.testing.assert_array_equal(out[0, :4], 0.0)
        np.testing.assert_array_equal(out[0, 4:], 1.0)

    def test_untouched_block_bit_identical(self):
        x = np.random.default_rng(2).normal(size=(12, 10))
        out = temporal_shift(x, 0.2)  # floor(0.2*10)=2 per direction
        np.testing.assert_array_equal(out[:, 4:], x[:, 4:])

    def test_shape_preserved(self):
        x = np.zeros((7, 5))
        assert temporal_shift(x, 0.2).shape == (7, 5)


class TestPreprocessConfig:
    def test_defaults_valid(self):
        PreprocessConfig().validate()

    def test_bad_theta_long(self):
        with pytest.raises(ValueError):
            PreprocessConfig(theta_long=0.0).validate()

    def test_bad_shift_fraction(self):
        with pytest.raises(ValueError):
            PreprocessConfig(shift_fraction=0.6).validate()

    def test_bad_repeat_factor(self):
        with pytest.raises(ValueError):
            PreprocessConfig(repeat_factor=0).validate()
