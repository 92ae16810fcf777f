"""Tests for the proposal lattice, IoU targets, the sparse sampling map, the
proposal layer and random proposal-feature masking.

The sampling map's taps are read point by point through the test oracle
(``sampling_oracle``), which these tests check against naive interpolation;
the proposal layer the network runs is checked against that oracle in
``test_fused_reduce.py``."""

import numpy as np
import pytest

from sampling_oracle import sample_points, taps
from tadkit.dataio import Instance, VideoAnnotation
from tadkit.proposals import (MaskConfig, build_sampling_matrix, draw_mask,
                              gt_iou_map, proposal_grid,
                              sample_adjoint, sample_proposal_features)


def segment_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Scalar temporal IoU of two [start, end] segments: the oracle for
    gt_iou_map, which computes it for all cells at once."""
    if a[0] >= a[1] or b[0] >= b[1]:
        raise ValueError(f"degenerate segment: {a} vs {b}")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


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
        left, right, w_left, w_right = taps(sm)
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
        out = sample_points(x, sm)[0]  # (N, D, T)
        d, t = 1, 1  # segment [1, 3)
        assert out[0, d, t] == 1.0
        assert out[1, d, t] == 3.0

    def test_out_of_range_point_gives_zero(self):
        # expansion 0.25 on [0,4) at T=4: left point -1.0 is out of range
        sm = build_sampling_matrix(4, 4, 2, 0.25)
        x = np.ones((1, 4))
        out = sample_points(x, sm)[0]
        assert out[0, 3, 0] == 0.0

    def test_constant_input_partition_of_unity(self):
        sm = build_sampling_matrix(20, 20, 8, 0.25)
        out = sample_points(np.full((1, 20), 3.25), sm)[0]
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
            got = sample_points(x, sm)
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
        w, zero = rng.normal(size=4), np.zeros(1)
        lhs = sample_proposal_features(2.0 * x - 0.5 * y, sm, w, zero)
        rhs = 2.0 * sample_proposal_features(x, sm, w, zero) \
            - 0.5 * sample_proposal_features(y, sm, w, zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_dot_product_identity(self):
        """For the layer F(x, w) = mask * sum_n w[n] W_n x + b and random
        x, w, y: <F(x, w) - b, y> == <x, g_x> (the hidden gradient is the
        adjoint), <F(x, e_n) - b, y> == g_w[n] and g_b == sum(y), without
        a mask and with one of each granularity."""
        sm = build_sampling_matrix(8, 8, 4, 0.25)
        rng = np.random.default_rng(6)
        zero = np.zeros(1)
        for granularity in (None, "proposal", "channel"):
            for _ in range(10):
                x = rng.normal(size=(2, 3, 8))
                y = rng.normal(size=(2, 3, 8, 8))
                w, b = rng.normal(size=4), rng.normal(size=1)
                masks = None if granularity is None else np.stack([
                    draw_mask((3, 8, 8), MaskConfig(p=0.5,
                                                    granularity=granularity),
                              rng) for _ in range(2)])
                g_x, g_w, g_b = sample_adjoint(y, x, sm, w, masks)
                out = sample_proposal_features(x, sm, w, b, masks) - b[0]
                lhs = float((out * y).sum())
                rhs = float((x * g_x).sum())
                assert lhs == pytest.approx(rhs, rel=1e-12)
                for n, e_n in enumerate(np.eye(4)):
                    out = sample_proposal_features(x, sm, e_n, zero, masks)
                    assert float((out * y).sum()) == \
                        pytest.approx(g_w[n], rel=1e-12)
                assert g_b == pytest.approx([y.sum()], rel=1e-12)

    def test_shape_mismatch_rejected(self):
        sm = build_sampling_matrix(8, 8, 4, 0.25)
        w, b = np.ones(4), np.zeros(1)
        with pytest.raises(ValueError):
            sample_proposal_features(np.ones((2, 9)), sm, w, b)
        with pytest.raises(ValueError):
            sample_adjoint(np.ones((2, 8, 8)), np.ones((2, 9)), sm, w)
        with pytest.raises(ValueError):
            sample_adjoint(np.ones((2, 8, 7)), np.ones((2, 8)), sm, w)
        with pytest.raises(ValueError):
            sample_points(np.ones((2, 9)), sm)


class TestMasking:
    """Masks are drawn for (C, D, T) features and broadcast over the N
    sample points of each cell, here the second axis of x."""

    def test_proposal_cells_all_or_nothing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 8, 8)) + 5.0
        cfg = MaskConfig(p=0.5, granularity="proposal")
        out = x * draw_mask((3, 8, 8), cfg, rng)[:, None]
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
        out = x * draw_mask((6, 4, 4), cfg, rng)[:, None]
        for c in range(6):
            block = out[c]
            assert (block == 0.0).all() or \
                np.allclose(block, x[c] / 0.5)

    @pytest.mark.parametrize("granularity, want", [
        ("proposal", (1, 4, 5)), ("channel", (3, 1, 1))])
    def test_mask_shape(self, granularity, want):
        cfg = MaskConfig(p=0.5, granularity=granularity)
        mask = draw_mask((3, 4, 5), cfg, np.random.default_rng(0))
        assert mask.shape == want

    def test_mean_preserving_in_expectation(self):
        """Per-entry mean over many draws stays within 3 standard errors."""
        rng = np.random.default_rng(4)
        p = 0.3
        cfg = MaskConfig(p=p, granularity="proposal")
        value = 2.0
        n = 20000
        draws = np.array([
            (value * draw_mask((1, 1, 1), cfg, rng))[0, 0, 0]
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
