"""Tests for the recall / AUC / mAP evaluation kit.

Oracle strategy: each metric has a deliberately naive reimplementation here
(plain loops over list-of-pairs structures, no vectorization) and the fast
library path must agree with it, exactly where the arithmetic is identical
and to tight tolerances where it is not.
"""

import numpy as np
import pytest

from tadkit.dataio import AnnotationSet, Instance, VideoAnnotation
from tadkit.metrics import (DEFAULT_TIOU, ARCurve, ap_at_tiou, ar_curve,
                            auc, average_map, detection_ground_truth,
                            format_ar_report, format_map_report,
                            map_report_to_dict, proposal_ground_truth)
from tadkit.postprocess import Detection, Proposal


def seg_iou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def naive_ar_at_an(props, gt, an, thresholds):
    """Pooled recall: every (gt instance, threshold) pair counts once."""
    hits = 0
    total = 0
    for th in thresholds:
        for vid, boxes in gt.items():
            ranked = sorted(props.get(vid, []),
                            key=lambda p: p.score, reverse=True)[:an]
            for g in boxes:
                total += 1
                if any(seg_iou((p.start, p.end), g) >= th for p in ranked):
                    hits += 1
    return hits / total if total else 0.0


def naive_ap(dets, gt, tiou):
    """Greedy matching in score order; precision interpolated from the
    right; AP as the recall-weighted sum."""
    order = sorted(range(len(dets)), key=lambda i: dets[i][3], reverse=True)
    matched = {vid: [False] * len(boxes) for vid, boxes in gt.items()}
    n_gt = sum(len(b) for b in gt.values())
    tp = []
    for i in order:
        vid, s, e, _ = dets[i]
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gt.get(vid, [])):
            if matched[vid][j]:
                continue
            iou = seg_iou((s, e), g)
            if iou > best_iou:
                best_j, best_iou = j, iou
        if best_j >= 0 and best_iou >= tiou:
            matched[vid][best_j] = True
            tp.append(1)
        else:
            tp.append(0)
    if n_gt == 0:
        return 0.0
    ap = 0.0
    prev_recall = 0.0
    cum_tp = 0
    precisions = []
    recalls = []
    for k, flag in enumerate(tp, start=1):
        cum_tp += flag
        precisions.append(cum_tp / k)
        recalls.append(cum_tp / n_gt)
    for k in range(len(tp)):
        interp = max(precisions[k:], default=0.0)
        ap += (recalls[k] - prev_recall) * interp
        prev_recall = recalls[k]
    return ap


def make_gt(**videos):
    return {vid: np.asarray(boxes, dtype=float).reshape(-1, 2)
            for vid, boxes in videos.items()}


class TestGroundTruthExtraction:
    def annset(self):
        return AnnotationSet({
            "a": VideoAnnotation("a", 10.0, "validation",
                                 [Instance(1.0, 4.0, "x"),
                                  Instance(5.0, 9.0, "y")]),
            "b": VideoAnnotation("b", 8.0, "validation", []),
            "c": VideoAnnotation("c", 8.0, "training",
                                 [Instance(0.0, 2.0, "x")]),
        })

    def test_proposal_gt_subset_and_empty_videos(self):
        gt = proposal_ground_truth(self.annset(), subset="validation")
        assert set(gt) == {"a", "b"}
        assert gt["a"].shape == (2, 2)
        assert gt["b"].shape == (0, 2)

    def test_detection_gt_keeps_labels(self):
        gt = detection_ground_truth(self.annset(), subset="validation")
        assert [i.label for i in gt["a"]] == ["x", "y"]

    def test_no_subset_takes_everything(self):
        gt = proposal_ground_truth(self.annset())
        assert set(gt) == {"a", "b", "c"}


class TestArAtAn:
    def test_perfect_proposals_full_recall(self):
        gt = make_gt(v=[[1.0, 4.0], [6.0, 9.0]])
        props = {"v": [Proposal(1.0, 4.0, 0.9), Proposal(6.0, 9.0, 0.8)]}
        assert float(ar_curve(props, gt, 10).ar[-1]) == 1.0

    def test_total_miss_zero(self):
        gt = make_gt(v=[[1.0, 2.0]])
        props = {"v": [Proposal(5.0, 6.0, 0.9)]}
        assert float(ar_curve(props, gt, 10).ar[-1]) == 0.0

    def test_iou_072_recalls_half_the_thresholds(self):
        # IoU 0.72 beats thresholds 0.5..0.7 -> 5 of 10 -> AR 0.5
        gt = make_gt(v=[[0.0, 10.0]])
        props = {"v": [Proposal(0.0, 7.2, 0.9)]}
        assert seg_iou((0.0, 7.2), (0.0, 10.0)) == pytest.approx(0.72)
        assert float(ar_curve(props, gt, 1).ar[-1]) == 0.5

    def test_an_truncates_by_score_rank(self):
        gt = make_gt(v=[[0.0, 5.0]])
        props = {"v": [Proposal(20.0, 30.0, 0.9), Proposal(0.0, 5.0, 0.1)]}
        assert float(ar_curve(props, gt, 1).ar[-1]) == 0.0
        assert float(ar_curve(props, gt, 2).ar[-1]) == 1.0

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gt = {}
            props = {}
            for v in range(rng.integers(1, 4)):
                vid = f"v{v}"
                n_gt = int(rng.integers(0, 4))
                starts = rng.uniform(0, 50, n_gt)
                gt[vid] = np.stack([starts, starts + rng.uniform(1, 10, n_gt)],
                                   axis=1) if n_gt else np.empty((0, 2))
                props[vid] = [Proposal(float(s), float(s + w), float(sc))
                              for s, w, sc in zip(rng.uniform(0, 50, 6),
                                                  rng.uniform(1, 10, 6),
                                                  rng.random(6))]
            if not any(len(b) for b in gt.values()):
                continue
            an = int(rng.integers(1, 7))
            want = naive_ar_at_an(props, gt, an, DEFAULT_TIOU)
            assert float(ar_curve(props, gt, an).ar[-1]) \
                == pytest.approx(want, abs=1e-12)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            ar_curve({"v": []}, make_gt(v=[]), 5)

    def test_missing_video_counts_as_zero_proposals(self):
        gt = make_gt(v=[[0.0, 5.0]])
        assert float(ar_curve({}, gt, 5).ar[-1]) == 0.0


class TestArCurveAndAuc:
    def test_curve_agrees_with_pointwise_ar(self):
        rng = np.random.default_rng(1)
        gt = make_gt(a=[[0.0, 5.0], [10.0, 14.0]], b=[[2.0, 9.0]])
        props = {vid: [Proposal(float(s), float(s + w), float(sc))
                       for s, w, sc in zip(rng.uniform(0, 12, 30),
                                           rng.uniform(1, 8, 30),
                                           rng.random(30))]
                 for vid in ("a", "b")}
        curve = ar_curve(props, gt, an_max=40)
        for an in (1, 2, 7, 19, 40):
            assert curve.ar[an - 1] == pytest.approx(
                float(ar_curve(props, gt, an).ar[-1]), abs=1e-12)

    def test_curve_nondecreasing(self):
        rng = np.random.default_rng(2)
        gt = make_gt(v=[[0.0, 5.0], [8.0, 12.0], [20.0, 21.0]])
        props = {"v": [Proposal(float(s), float(s + w), float(sc))
                       for s, w, sc in zip(rng.uniform(0, 20, 50),
                                           rng.uniform(0.5, 6, 50),
                                           rng.random(50))]}
        curve = ar_curve(props, gt, an_max=50)
        assert (np.diff(curve.ar) >= -1e-15).all()

    def test_constant_half_recall_gives_auc_50(self):
        curve = ARCurve(np.arange(1, 101), np.full(100, 0.5))
        assert auc(curve) == pytest.approx(50.0)

    def test_auc_is_mean_of_percent_recall(self):
        rng = np.random.default_rng(3)
        ar = rng.random(100)
        got = auc(ARCurve(np.arange(1, 101), ar))
        assert got == pytest.approx(100.0 * ar.mean(), rel=1e-12)

    def test_auc_requires_canonical_grid(self):
        with pytest.raises(ValueError):
            auc(ARCurve(np.arange(1, 51), np.full(50, 0.5)))

    def test_video_order_invariance(self):
        gt1 = make_gt(a=[[0.0, 4.0]], b=[[1.0, 3.0]])
        gt2 = dict(reversed(list(gt1.items())))
        props = {"a": [Proposal(0.0, 4.0, 0.9)],
                 "b": [Proposal(5.0, 6.0, 0.8)]}
        c1 = ar_curve(props, gt1, an_max=10)
        c2 = ar_curve(props, gt2, an_max=10)
        np.testing.assert_array_equal(c1.ar, c2.ar)

    def test_report_formatting_smoke(self):
        gt = make_gt(v=[[0.0, 4.0]])
        props = {"v": [Proposal(0.0, 4.0, 0.9)]}
        curve = ar_curve(props, gt, an_max=100)
        text = format_ar_report(curve, auc(curve))
        lines = text.splitlines()
        assert lines[0].split() == ["AN", "AR"]
        assert any(row.split()[0] == "100" for row in lines[2:])
        assert text.splitlines()[-1].startswith("AUC")


class TestApAtTiou:
    def test_perfect_detections(self):
        gt = make_gt(v=[[0.0, 5.0], [10.0, 15.0]])
        dets = [("v", 0.0, 5.0, 0.9), ("v", 10.0, 15.0, 0.8)]
        assert ap_at_tiou(dets, gt, 0.5) == pytest.approx(1.0)

    def test_no_overlap_zero(self):
        gt = make_gt(v=[[0.0, 5.0]])
        dets = [("v", 20.0, 25.0, 0.9)]
        assert ap_at_tiou(dets, gt, 0.5) == 0.0

    def test_hand_worked_tp_fp_tp(self):
        # ranked [TP, FP, TP] over 2 GT: AP = 0.5*1 + 0.5*(2/3) = 5/6
        gt = make_gt(v=[[0.0, 10.0], [20.0, 30.0]])
        dets = [("v", 0.0, 10.0, 0.9), ("v", 50.0, 60.0, 0.8),
                ("v", 20.0, 30.0, 0.7)]
        assert ap_at_tiou(dets, gt, 0.5) == pytest.approx(5.0 / 6.0)

    def test_duplicate_detection_is_fp(self):
        gt = make_gt(v=[[0.0, 10.0]])
        dets = [("v", 0.0, 10.0, 0.9), ("v", 0.0, 10.0, 0.8)]
        # second one finds its only candidate already matched
        assert ap_at_tiou(dets, gt, 0.5) == pytest.approx(1.0)

    def test_lower_scored_extras_never_decrease_ap(self):
        gt = make_gt(v=[[0.0, 10.0], [20.0, 28.0]])
        base = [("v", 0.0, 9.0, 0.9), ("v", 20.0, 28.0, 0.85)]
        ap0 = ap_at_tiou(base, gt, 0.5)
        extra = base + [("v", 40.0 + i, 41.0 + i, 0.1 - 0.01 * i)
                        for i in range(5)]
        assert ap_at_tiou(extra, gt, 0.5) >= ap0 - 1e-12

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            gt = {}
            for v in range(int(rng.integers(1, 3))):
                n = int(rng.integers(1, 5))
                s = rng.uniform(0, 40, n)
                gt[f"v{v}"] = np.stack([s, s + rng.uniform(1, 10, n)], axis=1)
            dets = []
            for _ in range(int(rng.integers(1, 7))):
                vid = f"v{int(rng.integers(0, len(gt)))}"
                s = float(rng.uniform(0, 40))
                dets.append((vid, s, s + float(rng.uniform(1, 10)),
                             float(rng.random())))
            th = float(rng.choice(DEFAULT_TIOU))
            want = naive_ap(dets, gt, th)
            assert ap_at_tiou(dets, gt, th) == pytest.approx(want, abs=1e-12)

    def test_empty_detections_zero(self):
        gt = make_gt(v=[[0.0, 5.0]])
        assert ap_at_tiou([], gt, 0.5) == 0.0


class TestAverageMap:
    def annset_gt(self):
        anns = AnnotationSet({
            "a": VideoAnnotation("a", 30.0, "validation",
                                 [Instance(0.0, 10.0, "jump"),
                                  Instance(15.0, 25.0, "run")]),
            "b": VideoAnnotation("b", 20.0, "validation",
                                 [Instance(5.0, 12.0, "jump")]),
        })
        return detection_ground_truth(anns)

    def test_perfect_detections_map_one(self):
        gt = self.annset_gt()
        dets = {"a": [Detection(0.0, 10.0, "jump", 1.0),
                      Detection(15.0, 25.0, "run", 1.0)],
                "b": [Detection(5.0, 12.0, "jump", 1.0)]}
        report = average_map(dets, gt)
        assert report.average_map == pytest.approx(1.0)
        assert len(report.thresholds) == 10
        np.testing.assert_allclose(report.map_per_threshold, 1.0)

    def test_default_thresholds_are_challenge_grid(self):
        report = average_map({"a": [Detection(0.0, 1.0, "jump", 0.5)]},
                             self.annset_gt())
        np.testing.assert_allclose(report.thresholds,
                                   np.linspace(0.5, 0.95, 10))

    def test_per_class_table_and_unscored_class(self):
        gt = self.annset_gt()
        dets = {"a": [Detection(0.0, 10.0, "jump", 0.9)]}
        report = average_map(dets, gt)
        assert set(report.ap_table) == {"jump", "run"}
        assert report.ap_table["run"][0] == 0.0
        # one perfect detection of the two jump instances: AP = 0.5 * 1
        assert report.ap_table["jump"][0] == pytest.approx(0.5)

    def test_average_is_mean_over_classes_then_thresholds(self):
        gt = self.annset_gt()
        dets = {"a": [Detection(0.0, 10.0, "jump", 0.9)]}
        report = average_map(dets, gt)
        per_th = np.mean([report.ap_table["jump"],
                          report.ap_table["run"]], axis=0)
        np.testing.assert_allclose(report.map_per_threshold, per_th,
                                   atol=1e-15)
        assert report.average_map == pytest.approx(per_th.mean())

    def test_wrong_label_scores_zero(self):
        gt = self.annset_gt()
        dets = {"b": [Detection(5.0, 12.0, "run", 0.9)]}
        report = average_map(dets, gt)
        assert report.ap_table["jump"][0] == 0.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            average_map({}, {})

    def test_report_round_trip_and_text(self):
        gt = self.annset_gt()
        dets = {"a": [Detection(0.0, 10.0, "jump", 0.9)]}
        report = average_map(dets, gt)
        blob = map_report_to_dict(report)
        assert blob["average_map"] == pytest.approx(report.average_map)
        text = format_map_report(report)
        assert "0.50" in text and "average" in text.lower()
