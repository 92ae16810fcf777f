"""Tests for the proposal lattice, IoU targets, the sparse sampling map and
random proposal-feature masking."""

import numpy as np
import pytest

from tadkit.dataio import Instance, VideoAnnotation
from tadkit.proposals import (MaskConfig, build_sampling_matrix, draw_mask,
                              gt_iou_map, mask_proposals, proposal_grid,
                              sample_adjoint, sample_proposal_features,
                              segment_iou)


def ann_with(duration, segments, subset="training"):
    return VideoAnnotation("v", duration, subset,
                           [Instance(s, e, "a") for s, e in segments])


class TestProposalGrid:
    def test_4x4_has_ten_cells(self):
        assert proposal_grid(4, 4).n_valid == 10

    def test_minimal_grid(self):
        assert proposal_grid(1, 1).n_valid == 1

    def test_single_duration_row(self):
        g = proposal_grid(4, 1)
        assert g.n_valid == 4
        d_idx, t_idx, segs = g.cell_segments()
        assert (d_idx == 0).all()
        np.testing.assert_array_equal(segs[:, 1] - segs[:, 0], 1.0)

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = int(rng.integers(1, 40))
            d = int(rng.integers(1, t + 1))
            want = sum(t - k + 1 for k in range(1, d + 1))
            assert proposal_grid(t, d).n_valid == want

    def test_cell_denotes_segment(self):
        _, _, segs = proposal_grid(5, 3).cell_segments()
        d_idx, t_idx, _ = proposal_grid(5, 3).cell_segments()
        np.testing.assert_array_equal(segs[:, 0], t_idx)
        np.testing.assert_array_equal(segs[:, 1], t_idx + d_idx + 1)

    def test_d_exceeding_t_rejected(self):
        with pytest.raises(ValueError):
            proposal_grid(4, 5)


class TestSegmentIoU:
    def test_identity(self):
        assert segment_iou((1.0, 3.0), (1.0, 3.0)) == 1.0

    def test_disjoint(self):
        assert segment_iou((0.0, 10.0), (20.0, 30.0)) == 0.0

    def test_partial_overlap(self):
        assert segment_iou((0.0, 10.0), (5.0, 15.0)) == pytest.approx(1 / 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            segment_iou((2.0, 2.0), (0.0, 1.0))

    def test_symmetric_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = np.sort(rng.uniform(0, 10, 2))
            b = np.sort(rng.uniform(0, 10, 2))
            if a[0] == a[1] or b[0] == b[1]:
                continue
            assert segment_iou(tuple(a), tuple(b)) \
                == pytest.approx(segment_iou(tuple(b), tuple(a)))


class TestGtIouMap:
    def test_no_instances_all_zero(self):
        g = proposal_grid(6, 6)
        np.testing.assert_array_equal(gt_iou_map(g, ann_with(6.0, [])), 0.0)

    def test_exact_cell_hits_one(self):
        # instance [0,2) snippets at T=4 (duration 4s): cell (d=1,t=0) is 1.0
        g = proposal_grid(4, 4)
        m = gt_iou_map(g, ann_with(4.0, [(0.0, 2.0)]))
        assert m[1, 0] == 1.0
        assert m[3, 0] == pytest.approx(0.5)  # [0,4) vs [0,2)

    def test_invalid_cells_zero(self):
        g = proposal_grid(5, 5)
        m = gt_iou_map(g, ann_with(5.0, [(0.0, 5.0)]))
        assert (m[~g.valid] == 0.0).all()
        assert (m <= 1.0).all()

    def test_matches_bruteforce_oracle(self):
        """Vectorized map must equal a per-cell max-IoU loop exactly."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = int(rng.integers(3, 12))
            d = int(rng.integers(1, t + 1))
            duration = float(rng.uniform(5, 30))
            n = int(rng.integers(0, 4))
            segs = []
            for _ in range(n):
                s, e = np.sort(rng.uniform(0, duration, 2))
                if e - s < 1e-3:
                    continue
                segs.append((float(s), float(e)))
            ann = ann_with(duration, segs)
            grid = proposal_grid(t, d)
            got = gt_iou_map(grid, ann)
            scale = t / duration
            want = np.zeros((d, t))
            for di in range(d):
                for ti in range(t):
                    if not grid.valid[di, ti]:
                        continue
                    best = 0.0
                    for s, e in segs:
                        best = max(best, segment_iou(
                            (float(ti), float(ti + di + 1)),
                            (s * scale, e * scale)))
                    want[di, ti] = best
            np.testing.assert_array_equal(got, want)


class TestSamplingMatrix:
    def test_rows_have_at_most_two_entries_summing_to_one(self):
        sm = build_sampling_matrix(10, 10, 4, 0.25)
        left, right, w_left, w_right = sm.taps()
        # every sample point has exactly two taps: one left, one right
        assert left.shape == right.shape == sm.in_range.shape
        assert ((0 <= left) & (right < 10)).all()
        sums = w_left + w_right
        np.testing.assert_allclose(sums[sm.in_range], 1.0, atol=1e-12)
        assert (sums[~sm.in_range] == 0.0).all()
        assert (w_left >= 0).all() and (w_right >= 0).all()
        assert (right[w_right > 0] == left[w_right > 0] + 1).all()

    def test_endpoint_placement_without_expansion(self):
        # N=2, expansion 0, proposal [1,3): points at 1.0 and 3.0
        sm = build_sampling_matrix(6, 6, 2, 0.0)
        x = np.arange(6, dtype=float)[None, :]  # one channel, value = index
        out = sample_proposal_features(x, sm)[0]  # (N, D, T)
        d, t = 1, 1  # segment [1, 3)
        assert out[0, d, t] == 1.0
        assert out[1, d, t] == 3.0

    def test_out_of_range_point_gives_zero(self):
        # expansion 0.25 on [0,4) at T=4: left point -1.0 is out of range
        sm = build_sampling_matrix(4, 4, 2, 0.25)
        x = np.ones((1, 4))
        out = sample_proposal_features(x, sm)[0]
        assert out[0, 3, 0] == 0.0

    def test_constant_input_partition_of_unity(self):
        sm = build_sampling_matrix(20, 20, 8, 0.25)
        out = sample_proposal_features(np.full((1, 20), 3.25), sm)[0]
        # every entry is either the constant (in-range point) or exactly 0
        near = np.isclose(out, 3.25, atol=1e-9) | (out == 0.0)
        assert near.all()

    def test_matches_naive_interpolation_oracle(self):
        rng = np.random.default_rng(4)
        t, d, n = 12, 12, 5
        exp = 0.25
        sm = build_sampling_matrix(t, d, n, exp)
        grid = proposal_grid(t, d)
        for _ in range(5):
            x = rng.normal(size=(2, t))
            got = sample_proposal_features(x, sm)
            want = np.zeros((2, n, d, t))
            for di in range(d):
                for ti in range(t):
                    if not grid.valid[di, ti]:
                        continue
                    k = di + 1
                    left = ti - exp * k
                    step = k * (1 + 2 * exp) / (n - 1)
                    for j in range(n):
                        pt = left + j * step
                        if pt < 0 or pt > t - 1:
                            continue
                        i0 = int(np.floor(pt))
                        frac = pt - i0
                        v = x[:, i0] * (1 - frac)
                        if frac > 0:
                            v = v + x[:, i0 + 1] * frac
                        want[:, j, di, ti] = v
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_linearity(self):
        sm = build_sampling_matrix(9, 9, 4, 0.25)
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 3, 9))
        lhs = sample_proposal_features(2.0 * x - 0.5 * y, sm)
        rhs = 2.0 * sample_proposal_features(x, sm) \
            - 0.5 * sample_proposal_features(y, sm)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_dot_product_identity(self):
        """<Sx, y> == <x, S'y> for random x, y."""
        sm = build_sampling_matrix(8, 8, 4, 0.25)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=(2, 8))
            y = rng.normal(size=(2, 4, 8, 8))
            lhs = float((sample_proposal_features(x, sm) * y).sum())
            rhs = float((x * sample_adjoint(y, sm)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        sm = build_sampling_matrix(8, 8, 4, 0.25)
        with pytest.raises(ValueError):
            sample_proposal_features(np.ones((2, 9)), sm)


class TestMasking:
    def test_p_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4, 6, 6))
        out = mask_proposals(x, MaskConfig(p=0.0), training=True)
        np.testing.assert_array_equal(out, x)

    def test_inference_identity(self):
        x = np.random.default_rng(1).normal(size=(3, 4, 6, 6))
        out = mask_proposals(x, MaskConfig(p=0.9), training=False)
        np.testing.assert_array_equal(out, x)

    def test_proposal_cells_all_or_nothing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 8, 8)) + 5.0
        cfg = MaskConfig(p=0.5, granularity="proposal")
        out = x * draw_mask(x.shape, cfg, rng)
        for di in range(8):
            for ti in range(8):
                cell = out[:, :, di, ti]
                if (cell == 0.0).all():
                    continue
                np.testing.assert_allclose(cell, x[:, :, di, ti] / 0.5)

    def test_channel_granularity_zeroes_channels(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2, 4, 4)) + 5.0
        cfg = MaskConfig(p=0.5, granularity="channel")
        out = x * draw_mask(x.shape, cfg, rng)
        for c in range(6):
            block = out[c]
            assert (block == 0.0).all() or \
                np.allclose(block, x[c] / 0.5)

    def test_mean_preserving_in_expectation(self):
        """Per-entry mean over many draws stays within 3 standard errors."""
        rng = np.random.default_rng(4)
        p = 0.3
        cfg = MaskConfig(p=p, granularity="proposal")
        value = 2.0
        n = 20000
        draws = np.array([
            (value * draw_mask((1, 1, 1, 1), cfg, rng))[0, 0, 0, 0]
            for _ in range(n)])
        se = value * np.sqrt(p / (1 - p) / n)
        assert abs(draws.mean() - value) < 3 * se

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            MaskConfig(p=1.0).validate()
        with pytest.raises(ValueError):
            MaskConfig(p=-0.1).validate()

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            MaskConfig(granularity="snippet").validate()
