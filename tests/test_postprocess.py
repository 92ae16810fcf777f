"""Tests for score fusion, suppression, detection assembly, map-space
ensembling, and the proposal/detection JSON artifacts."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tadkit.model import NetworkOutputs
from tadkit.postprocess import (Detection, Proposal, assemble_detections,
                                ensemble_maps, fuse_scores, load_detections,
                                load_proposals, rescale_outputs,
                                save_detections, save_proposals, soft_nms)
from tadkit.proposals import proposal_grid


def outputs_like(t, d, fill=1.0):
    return NetworkOutputs(np.full(t, fill), np.full(t, fill),
                          np.full((d, t), fill), np.full((d, t), fill))


class TestFuseScores:
    def test_one_proposal_per_valid_cell(self):
        grid = proposal_grid(6, 4)
        props = fuse_scores(outputs_like(6, 4), grid, 6.0)
        assert len(props) == grid.valid.sum()

    def test_all_ones_score_one(self):
        grid = proposal_grid(5, 5)
        props = fuse_scores(outputs_like(5, 5), grid, 5.0)
        assert (props[:, 2] == 1.0).all()

    def test_zero_start_probability_annihilates(self):
        grid = proposal_grid(4, 4)
        out = outputs_like(4, 4)
        out.p_start[0] = 0.0
        props = fuse_scores(out, grid, 4.0)
        assert (props[props[:, 0] == 0.0, 2] == 0.0).all()

    def test_segment_times_scale_with_duration(self):
        # T=4, 8-second video: cell (d=1, t=0) covers snippets [0, 2),
        # i.e. [0, 4) seconds.
        grid = proposal_grid(4, 4)
        props = fuse_scores(outputs_like(4, 4), grid, 8.0)
        segs = {(s, e) for s, e in props[:, :2].tolist()}
        assert (0.0, 4.0) in segs
        assert props[:, 1].max() == 8.0

    def test_end_probability_read_at_last_covered_snippet(self):
        # one-hot p_end at index 2: only proposals whose last snippet is 2
        # (t + d == 2) survive
        grid = proposal_grid(4, 4)
        out = outputs_like(4, 4)
        out.p_end[:] = 0.0
        out.p_end[2] = 1.0
        props = fuse_scores(out, grid, 4.0)
        survivors = {(s, e) for s, e in props[props[:, 2] > 0, :2].tolist()}
        assert survivors == {(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)}

    def test_shape_mismatch_rejected(self):
        grid = proposal_grid(4, 4)
        with pytest.raises(ValueError):
            fuse_scores(outputs_like(5, 4), grid, 4.0)

    def test_scores_multiply_componentwise(self):
        grid = proposal_grid(3, 3)
        rng = np.random.default_rng(0)
        out = NetworkOutputs(rng.random(3), rng.random(3),
                             rng.random((3, 3)), rng.random((3, 3)))
        props = fuse_scores(out, grid, 3.0)
        d_idx, t_idx, _ = grid.cell_segments()
        for score, d, t in zip(props[:, 2], d_idx, t_idx):
            want = (out.p_start[t] * out.p_end[t + d]
                    * out.p_cls[d, t] * out.p_reg[d, t])
            assert score == pytest.approx(want, rel=1e-12)

    def test_rows_are_float64_start_end_score(self):
        grid = proposal_grid(6, 4)
        props = fuse_scores(outputs_like(6, 4), grid, 3.0)
        assert props.shape == (grid.n_valid, 3)
        assert props.dtype == np.float64
        assert (props[:, 0] < props[:, 1]).all()


class TestSoftNms:
    def test_single_proposal_unchanged(self):
        out = soft_nms([Proposal(0.0, 1.0, 0.7)])
        assert out == [Proposal(0.0, 1.0, 0.7)]

    def test_identical_pair_decay_matches_formula(self):
        props = [Proposal(0.0, 1.0, 0.9), Proposal(0.0, 1.0, 0.8)]
        out = soft_nms(props, sigma=0.4)
        assert out[0].score == 0.9
        want = 0.8 * np.exp(-1.0 / 0.4)
        assert out[1].score == pytest.approx(want, abs=1e-12)

    def test_disjoint_proposals_unchanged(self):
        props = [Proposal(0.0, 1.0, 0.9), Proposal(5.0, 6.0, 0.4)]
        out = soft_nms(props)
        assert {(p.start, p.end, p.score) for p in out} == \
            {(0.0, 1.0, 0.9), (5.0, 6.0, 0.4)}

    def test_max_out_truncates(self):
        props = [Proposal(float(i), float(i) + 1.0, 0.5)
                 for i in range(30)]
        assert len(soft_nms(props, max_out=10)) == 10

    def test_score_floor_drops_tail(self):
        props = [Proposal(0.0, 1.0, 0.9), Proposal(0.0, 1.0, 0.8)]
        out = soft_nms(props, sigma=0.4, score_floor=0.5)
        assert len(out) == 1

    def test_output_sorted_and_never_above_input(self):
        rng = np.random.default_rng(1)
        props = [Proposal(float(s), float(s) + float(w), float(sc))
                 for s, w, sc in zip(rng.integers(0, 10, 40),
                                     rng.integers(1, 8, 40),
                                     rng.random(40))]
        out = soft_nms(props)
        scores = [p.score for p in out]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == max(p.score for p in props)
        assert all(s <= max(p.score for p in props) for s in scores)

    def test_empty_input(self):
        assert soft_nms([]) == []

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            soft_nms([Proposal(0.0, 1.0, 0.5)], sigma=0.0)

    def test_array_rows_match_proposal_list(self):
        rows = np.array([[0.0, 1.0, 0.9], [0.5, 1.5, 0.8], [3.0, 4.0, 0.2]])
        as_objects = [Proposal(*r) for r in rows.tolist()]
        assert soft_nms(rows) == soft_nms(as_objects)
        assert all(type(p) is Proposal for p in soft_nms(rows))

    def test_ties_keep_selection_order(self):
        props = [Proposal(float(i), float(i) + 1.0, 0.5) for i in range(4)]
        assert soft_nms(props) == props

    @pytest.mark.parametrize("score,match", [(np.nan, "finite"),
                                             (np.inf, "finite"),
                                             (-0.1, "score >= 0")])
    def test_bad_score_rejected(self, score, match):
        props = [Proposal(0.0, 1.0, 0.5), Proposal(2.0, 3.0, score)]
        with pytest.raises(ValueError, match=match):
            soft_nms(props)

    def test_reversed_segment_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            soft_nms([Proposal(2.0, 1.0, 0.5)])

    def test_overflowing_length_rejected(self):
        # end - start overflows to inf, which would make the row's IoU NaN
        rows = [Proposal(-1e308, 1e308, 0.9), Proposal(0.0, 1.0, 0.5)]
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="finite"):
            soft_nms(rows)

    @pytest.mark.parametrize("floor", [-1e-4, np.nan])
    def test_bad_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="score_floor"):
            soft_nms([Proposal(0.0, 1.0, 0.5)], score_floor=floor)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            soft_nms([Proposal(0.0, 1.0, 0.5)], sigma=np.nan)

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            soft_nms(np.zeros((4, 2)))

    def test_tiny_sigma_keeps_scores_finite(self):
        # exp(-1 / 1e-3) underflows to 0, so the duplicate decays to an
        # exact 0, which a zero floor still selects
        props = [Proposal(0.0, 2.0, 0.9), Proposal(0.0, 2.0, 0.8),
                 Proposal(1.0, 3.0, 0.7)]
        out = soft_nms(props, sigma=1e-3, score_floor=0.0)
        assert out == [Proposal(0.0, 2.0, 0.9),
                       Proposal(1.0, 3.0, 0.7 * np.exp(-(1 / 9) / 1e-3)),
                       Proposal(0.0, 2.0, 0.0)]


# The former object-based implementation, kept verbatim as the oracle for
# the array fast path.
def oracle_fuse_scores(out: NetworkOutputs, grid,
                       duration: float) -> list[Proposal]:
    """One proposal per valid grid cell, scored by the four-factor product
    p_start[t] * p_end[t + d] * p_cls[d, t] * p_reg[d, t].

    The end boundary probability is read at the last covered snippet t + d.
    Segments convert to seconds via duration / T.
    """
    t = grid.t_scale
    if out.p_start.shape != (t,) or out.p_end.shape != (t,):
        raise ValueError(f"boundary vectors must have shape ({t},), got "
                         f"{out.p_start.shape} / {out.p_end.shape}")
    if out.p_cls.shape != grid.valid.shape \
            or out.p_reg.shape != grid.valid.shape:
        raise ValueError(f"confidence maps must have shape "
                         f"{grid.valid.shape}, got {out.p_cls.shape} / "
                         f"{out.p_reg.shape}")
    d_idx, t_idx, segs = grid.cell_segments()
    scores = (out.p_start[t_idx] * out.p_end[t_idx + d_idx]
              * out.p_cls[d_idx, t_idx] * out.p_reg[d_idx, t_idx])
    unit = duration / t
    return [Proposal(float(s0 * unit), float(s1 * unit), float(sc))
            for (s0, s1), sc in zip(segs, scores)]


def oracle_soft_nms(props: list[Proposal], sigma: float = 0.4,
                    score_floor: float = 1e-4,
                    max_out: int = 100) -> list[Proposal]:
    """Gaussian score-decay suppression.

    Repeatedly select the highest-score remaining proposal and decay every
    other remaining score by exp(-IoU^2 / sigma); stop after max_out
    selections or when the best remaining score drops below score_floor.
    Output is sorted by final score, descending.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not props:
        return []
    starts = np.array([p.start for p in props])
    ends = np.array([p.end for p in props])
    scores = np.array([p.score for p in props], dtype=np.float64)
    alive = np.ones(len(props), dtype=bool)
    selected: list[Proposal] = []
    while len(selected) < max_out and alive.any():
        live = np.flatnonzero(alive)
        best = live[np.argmax(scores[live])]
        if scores[best] < score_floor:
            break
        selected.append(Proposal(float(starts[best]), float(ends[best]),
                                 float(scores[best])))
        alive[best] = False
        rest = np.flatnonzero(alive)
        if rest.size:
            inter = np.clip(np.minimum(ends[rest], ends[best])
                            - np.maximum(starts[rest], starts[best]),
                            0.0, None)
            union = (ends[rest] - starts[rest]) \
                + (ends[best] - starts[best]) - inter
            iou = inter / union
            scores[rest] *= np.exp(-(iou ** 2) / sigma)
    return sorted(selected, key=lambda p: p.score, reverse=True)


def tied_outputs(t: int, seed: int) -> NetworkOutputs:
    """Random outputs quantised to eighths, so fused scores tie often and
    every map has exact zeros."""
    rng = np.random.default_rng(seed)

    def q(shape):
        return np.round(rng.random(shape) * 8) / 8
    return NetworkOutputs(q(t), q(t), q((t, t)), q((t, t)))


class TestArrayPathMatchesOracle:
    @pytest.mark.parametrize("t", [64, 100])
    def test_fuse_rows_equal(self, t):
        grid = proposal_grid(t, t)
        for seed in range(3):
            out = tied_outputs(t, seed)
            rows = fuse_scores(out, grid, 37.5)
            want = oracle_fuse_scores(out, grid, 37.5)
            assert rows.tolist() == [list(p) for p in want]

    # at T=8 all 36 candidates fit in max_out=100, so the selection also
    # reaches rows that overlap earlier picks almost completely
    @pytest.mark.parametrize("t", [8, 64, 100])
    @pytest.mark.parametrize("sigma", [0.4, 1e-3])
    @pytest.mark.parametrize("floor", [1e-4, 0.0])
    # 1, 7, 8, 9 and 17 fall on both sides of the compaction cadence
    @pytest.mark.parametrize("max_out", [5, 100, 1, 7, 8, 9, 17])
    def test_soft_nms_rows_equal(self, t, sigma, floor, max_out):
        grid = proposal_grid(t, t)
        for seed in range(2):
            out = tied_outputs(t, seed)
            rng = np.random.default_rng(seed)
            # unquantised maps too, so that rows fall below the floor
            smooth = NetworkOutputs(rng.random(t) ** 3, rng.random(t) ** 3,
                                    rng.random((t, t)), rng.random((t, t)))
            # few nonzero boundaries: with a zero floor, the selection
            # runs past the positive rows into the exact zeros
            sparse = NetworkOutputs(out.p_start * (rng.random(t) < 0.05),
                                    out.p_end * (rng.random(t) < 0.05),
                                    out.p_cls, out.p_reg)
            for o in (out, smooth, sparse):
                got = soft_nms(fuse_scores(o, grid, 50.0), sigma, floor,
                               max_out)
                want = oracle_soft_nms(oracle_fuse_scores(o, grid, 50.0),
                                       sigma, floor, max_out)
                assert [tuple(p) for p in got] == \
                    [(p.start, p.end, p.score) for p in want]

    @pytest.mark.parametrize("max_out", [1, 7, 8, 9, 17, 100])
    def test_rows_decaying_below_floor_mid_run(self, max_out):
        # clusters of near-duplicates: each selection pushes the rest of
        # its cluster below the floor, so most rows die within a few
        # selections and the working set gets compacted
        rng = np.random.default_rng(3)
        centres = rng.uniform(0.0, 100.0, 30)
        starts = np.repeat(centres, 40) + rng.uniform(-0.2, 0.2, 1200)
        rows = np.column_stack((starts, starts + rng.uniform(2.0, 3.0, 1200),
                                rng.uniform(0.05, 1.0, 1200)))
        for floor in (0.04, 0.2):
            got = soft_nms(rows, 0.1, floor, max_out)
            want = oracle_soft_nms([Proposal(*r) for r in rows.tolist()],
                                   0.1, floor, max_out)
            assert [tuple(p) for p in got] == \
                [(p.start, p.end, p.score) for p in want]


class TestAssembleDetections:
    def test_cartesian_over_top_k(self):
        props = [Proposal(0.0, 1.0, 0.9), Proposal(2.0, 3.0, 0.5)]
        scores = [("a", 0.6), ("b", 0.3), ("c", 0.1)]
        dets = assemble_detections(props, scores, k=2)
        assert len(dets) == 4
        assert {d.label for d in dets} == {"a", "b"}

    def test_unit_class_score_preserves_proposal_score(self):
        props = [Proposal(0.0, 2.0, 0.75)]
        dets = assemble_detections(props, [("x", 1.0)], k=1)
        assert dets == [Detection(0.0, 2.0, "x", 0.75)]

    def test_k_one_picks_argmax_class(self):
        props = [Proposal(0.0, 1.0, 0.5)]
        dets = assemble_detections(props, [("lo", 0.2), ("hi", 0.7)], k=1)
        assert [d.label for d in dets] == ["hi"]

    def test_scores_multiply(self):
        props = [Proposal(1.0, 4.0, 0.5)]
        dets = assemble_detections(props, [("a", 0.6)], k=1)
        assert dets[0].score == pytest.approx(0.3)
        assert (dets[0].start, dets[0].end) == (1.0, 4.0)

    def test_k_larger_than_classes(self):
        props = [Proposal(0.0, 1.0, 0.5)]
        dets = assemble_detections(props, [("a", 0.9)], k=5)
        assert len(dets) == 1

    def test_empty_class_scores_rejected(self):
        with pytest.raises(ValueError):
            assemble_detections([Proposal(0.0, 1.0, 0.5)], [], k=1)


class TestRescaleOutputs:
    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(0)
        out = NetworkOutputs(rng.random(6), rng.random(6),
                             rng.random((4, 6)), rng.random((4, 6)))
        back = rescale_outputs(out, 6, 4)
        np.testing.assert_allclose(back.p_start, out.p_start, atol=1e-12)
        np.testing.assert_allclose(back.p_cls, out.p_cls, atol=1e-12)

    def test_constant_maps_stay_constant(self):
        out = outputs_like(5, 3, fill=0.25)
        up = rescale_outputs(out, 11, 7)
        assert up.p_cls.shape == (7, 11)
        np.testing.assert_allclose(up.p_cls, 0.25, atol=1e-12)
        np.testing.assert_allclose(up.p_start, 0.25, atol=1e-12)

    def test_values_stay_in_hull(self):
        rng = np.random.default_rng(2)
        out = NetworkOutputs(rng.random(8), rng.random(8),
                             rng.random((6, 8)), rng.random((6, 8)))
        up = rescale_outputs(out, 13, 9)
        for m in (up.p_start, up.p_end, up.p_cls, up.p_reg):
            assert m.min() >= 0.0 and m.max() <= 1.0


class TestEnsembleMaps:
    def two_outputs(self, seed=0):
        rng = np.random.default_rng(seed)
        return [NetworkOutputs(rng.random(4), rng.random(4),
                               rng.random((4, 4)), rng.random((4, 4)))
                for _ in range(2)]

    def test_identical_inputs_identity(self):
        a, _ = self.two_outputs()
        out = ensemble_maps([a, a], [0.5, 0.5])
        np.testing.assert_allclose(out.p_cls, a.p_cls, atol=1e-15)

    def test_degenerate_weight_selects_input(self):
        a, b = self.two_outputs()
        out = ensemble_maps([a, b], [1.0, 0.0])
        np.testing.assert_array_equal(out.p_reg, a.p_reg)

    def test_weighted_mean_value(self):
        a, _ = self.two_outputs()
        b = NetworkOutputs(3 * a.p_start, 3 * a.p_end,
                           3 * a.p_cls, 3 * a.p_reg)
        out = ensemble_maps([a, b], [0.5, 0.5])
        np.testing.assert_allclose(out.p_cls, 2 * a.p_cls, rtol=1e-12)

    def test_weights_normalized(self):
        a, b = self.two_outputs(3)
        out1 = ensemble_maps([a, b], [1.0, 3.0])
        out2 = ensemble_maps([a, b], [10.0, 30.0])
        np.testing.assert_allclose(out1.p_start, out2.p_start, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        a, _ = self.two_outputs()
        bad = outputs_like(5, 4)
        with pytest.raises(ValueError):
            ensemble_maps([a, bad], [0.5, 0.5])

    def test_weight_count_mismatch_rejected(self):
        a, b = self.two_outputs()
        with pytest.raises(ValueError):
            ensemble_maps([a, b], [1.0])

    def test_nonpositive_weight_sum_rejected(self):
        a, b = self.two_outputs()
        with pytest.raises(ValueError):
            ensemble_maps([a, b], [0.0, 0.0])

    def test_overflowing_weight_sum_rejected(self):
        # The sum is inf, so normalizing would make every fused map zero.
        a, b = self.two_outputs()
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="finite sum"):
            ensemble_maps([a, b], [1e308, 1e308])


class TestProposalFiles:
    def test_roundtrip(self, tmp_path):
        results = {"va": [Proposal(0.0, 1.5, 0.9), Proposal(2.0, 3.0, 0.4)],
                   "vb": []}
        path = tmp_path / "props.json"
        save_proposals(results, path)
        assert load_proposals(path) == results

    def test_schema_shape(self, tmp_path):
        path = tmp_path / "props.json"
        save_proposals({"v": [Proposal(0.0, 2.0, 0.5)]}, path)
        blob = json.loads(path.read_text())
        assert blob["results"]["v"] == [
            {"score": 0.5, "segment": [0.0, 2.0]}]

    def test_invalid_entry_names_video_and_index(self, tmp_path):
        path = tmp_path / "props.json"
        path.write_text(json.dumps(
            {"results": {"v": [{"score": -0.5, "segment": [0.0, 1.0]}]}}))
        with pytest.raises(ValueError, match="v"):
            load_proposals(path)

    def test_reversed_segment_rejected(self, tmp_path):
        path = tmp_path / "props.json"
        path.write_text(json.dumps(
            {"results": {"v": [{"score": 0.5, "segment": [2.0, 1.0]}]}}))
        with pytest.raises(ValueError, match="v"):
            load_proposals(path)


class TestDetectionFiles:
    def test_roundtrip_and_version_tag(self, tmp_path):
        results = {"v": [Detection(0.0, 1.0, "jump", 0.8)]}
        path = tmp_path / "dets.json"
        save_detections(results, path)
        blob = json.loads(path.read_text())
        assert blob["version"] == "VERSION 1.3"
        assert blob["external_data"] == {}
        assert load_detections(path) == results

    def test_entry_schema(self, tmp_path):
        path = tmp_path / "dets.json"
        save_detections({"v": [Detection(1.0, 2.5, "run", 0.25)]}, path)
        blob = json.loads(path.read_text())
        assert blob["results"]["v"] == [
            {"label": "run", "score": 0.25, "segment": [1.0, 2.5]}]

    def test_reversed_segment_rejected(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps({
            "version": "VERSION 1.3", "external_data": {},
            "results": {"v": [
                {"label": "a", "score": 0.5, "segment": [3.0, 1.0]}]}}))
        with pytest.raises(ValueError, match="v"):
            load_detections(path)


# Entries that load_proposals and load_detections refuse, so the writers
# refuse them too: (start, end, score).
_BAD_ROWS = [(0.0, 1.0, np.nan), (0.0, np.inf, 0.5), (-np.inf, 1.0, 0.5),
             (2.0, 1.0, 0.5), (1.0, 1.0, 0.5), (0.0, 1.0, -0.25),
             (0.0, 1.0, True), (0.0, 1.0, np.float32(0.5)), ("0", 1.0, 0.5)]
_BAD_IDS = ["nan-score", "inf-end", "inf-start", "reversed", "empty",
            "negative-score", "bool-score", "float32-score", "str-start"]


class TestWritersRejectWhatLoadersRefuse:
    @pytest.mark.parametrize("row", _BAD_ROWS, ids=_BAD_IDS)
    def test_proposals(self, tmp_path, row):
        path = tmp_path / "props.json"
        good = Proposal(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"video 'v', proposal 1: "):
            save_proposals({"a": [good], "v": [good, Proposal(*row)]}, path)
        assert not path.exists()

    @pytest.mark.parametrize("row", _BAD_ROWS, ids=_BAD_IDS)
    def test_detections(self, tmp_path, row):
        path = tmp_path / "dets.json"
        start, end, score = row
        with pytest.raises(ValueError, match=r"video 'v', detection 0: "):
            save_detections({"v": [Detection(start, end, "a", score)]}, path)
        assert not path.exists()

    def test_detection_label_must_be_str(self, tmp_path):
        with pytest.raises(ValueError, match="label must be str"):
            save_detections({"v": [Detection(0.0, 1.0, 3, 0.5)]},
                            tmp_path / "dets.json")


def _json_numbers(draw_float):
    """Numbers of every type the writers take: int, float, np.float64."""
    return st.one_of(st.integers(-10**18, 10**18), draw_float,
                     draw_float.map(np.float64))


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e16, 1e-7, 0.1]))


@st.composite
def _rows(draw, labeled):
    """One valid row: two distinct finite numbers in order, a score >= 0."""
    a, b = draw(st.lists(_json_numbers(_FLOATS), min_size=2, max_size=2,
                         unique_by=float))
    start, end = (a, b) if a < b else (b, a)
    score = draw(_json_numbers(_FLOATS).filter(lambda x: x >= 0))
    if labeled:
        return Detection(start, end, draw(st.text(max_size=6)), score)
    return Proposal(start, end, score)


def _results(labeled):
    return st.dictionaries(st.text(max_size=6),
                           st.lists(_rows(labeled), max_size=3), max_size=3)


class TestWriterBytes:
    """The writers' text is the bytes json.dumps writes for the documented
    layout, with sorted keys, a one-space indent and a final newline."""

    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(results=_results(labeled=False))
    def test_proposals(self, tmp_path, results):
        path = tmp_path / "props.json"
        save_proposals(results, path)
        doc = {"results": {
            vid: [{"score": p.score, "segment": [p.start, p.end]}
                  for p in plist] for vid, plist in results.items()}}
        assert path.read_bytes() == \
            (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()

    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(results=_results(labeled=True))
    def test_detections(self, tmp_path, results):
        path = tmp_path / "dets.json"
        save_detections(results, path)
        doc = {"version": "VERSION 1.3", "external_data": {}, "results": {
            vid: [{"label": d.label, "score": d.score,
                   "segment": [d.start, d.end]} for d in dlist]
            for vid, dlist in results.items()}}
        assert path.read_bytes() == \
            (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
