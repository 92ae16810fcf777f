"""Acceptance gate: seven go/no-go checks, one printed PASS/FAIL line each.

Every expected value here is rebuilt from first principles — naive loop
oracles, closed-form constants, binomial confidence bounds — never from the
code under test. Run with -s to see the A1..A7 lines; the per-test outcome
carries the same information either way.

A5 trains two real models and takes a few minutes; everything else is
seconds.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from tadkit.cli import main
from tadkit.dataio import (AnnotationSet, Instance, SynthConfig,
                           VideoAnnotation, rescale_features, synth_dataset)
from tadkit.metrics import (DEFAULT_TIOU, ap_at_tiou, ar_curve, auc,
                            average_map, proposal_ground_truth)
from tadkit.model import (ModelConfig, batch_loss, draw_step_noise, forward,
                          init_params, loss_and_gradients, train)
from tadkit.postprocess import Detection, Proposal, fuse_scores, soft_nms
from tadkit.preprocess import (PreprocessConfig, instance_coverage,
                               interval_union_length, resample_short,
                               temporal_shift)
from tadkit.proposals import (MaskConfig, build_sampling_matrix, draw_mask,
                              proposal_grid, sample_proposal_features)
from test_model import kink_free_params, random_sample


@contextlib.contextmanager
def report(tag):
    try:
        yield
    except BaseException:
        print(f"{tag} FAIL", flush=True)
        raise
    print(f"{tag} PASS", flush=True)


# ---------------------------------------------------------------------------
# naive metric oracles (pure loops; aggregation arrays mirror the library's
# shapes so "exact" is well defined)

def _iou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def naive_ap(dets, gt, tiou):
    """dets: [(vid, s, e, score)]; gt: {vid: [(s, e), ...]}."""
    npos = sum(len(g) for g in gt.values())
    if npos == 0:
        return 0.0
    ranked = sorted(dets, key=lambda d: d[3], reverse=True)
    if not ranked:
        return 0.0
    matched = {vid: [False] * len(g) for vid, g in gt.items()}
    recalls, precisions = [], []
    tp_cum = 0
    for rank, (vid, s, e, _) in enumerate(ranked, start=1):
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gt.get(vid, [])):
            if matched[vid][j]:
                continue
            iou = _iou((s, e), g)
            if iou > best_iou:
                best_j, best_iou = j, iou
        if best_j >= 0 and best_iou >= tiou:
            matched[vid][best_j] = True
            tp_cum += 1
        recalls.append(tp_cum / npos)
        precisions.append(tp_cum / rank)
    interp = precisions[:]
    for k in range(len(interp) - 2, -1, -1):
        interp[k] = max(interp[k], interp[k + 1])
    diffs = [r - (recalls[k - 1] if k else 0.0)
             for k, r in enumerate(recalls)]
    return float((np.asarray(diffs) * np.asarray(interp)).sum())


def naive_average_map(dets, gt, thresholds):
    """dets: {vid: [(s, e, label, score)]}; gt: {vid: [(s, e, label)]}."""
    classes = sorted({g[2] for insts in gt.values() for g in insts})
    table = {}
    for label in classes:
        class_gt = {vid: [(g[0], g[1]) for g in insts if g[2] == label]
                    for vid, insts in gt.items()}
        class_dets = [(vid, d[0], d[1], d[3])
                      for vid, dlist in dets.items() for d in dlist
                      if d[2] == label]
        table[label] = np.array([naive_ap(class_dets, class_gt, t)
                                 for t in thresholds])
    per_threshold = np.mean([table[c] for c in classes], axis=0)
    return table, per_threshold, float(per_threshold.mean())


def naive_recall_table(props, gt, thresholds, an_max):
    """Pooled recalled-instance counts for every AN in 1..an_max."""
    prefix_best = []  # per gt instance: best IoU within top-an, by an
    for vid, instances in gt.items():
        ranked = sorted(props.get(vid, []),
                        key=lambda p: p.score, reverse=True)
        for g in instances:
            ious = [_iou((p.start, p.end), g) for p in ranked]
            best = []
            running = 0.0
            for an in range(1, an_max + 1):
                if an <= len(ious):
                    running = max(running, ious[an - 1])
                best.append(running)
            prefix_best.append(best)
    total = len(prefix_best)
    table = np.zeros((len(thresholds), an_max))
    for ti, th in enumerate(thresholds):
        for an in range(an_max):
            hits = sum(1 for best in prefix_best if best[an] >= th)
            table[ti, an] = hits
    return table, total


def random_corpus(rng, n_videos, labels, start_index=0):
    """Small videos: <= 4 labeled instances, <= 6 detections each."""
    gt, dets = {}, {}
    for i in range(n_videos):
        vid = f"v{start_index + i:03d}"
        low = 1 if i == 0 else 0  # at least one instance per corpus
        insts = []
        for _ in range(int(rng.integers(low, 5))):
            s = float(rng.uniform(0.0, 40.0))
            insts.append((s, s + float(rng.uniform(1.0, 12.0)),
                          str(rng.choice(labels))))
        gt[vid] = insts
        entries = []
        for _ in range(int(rng.integers(0, 7))):
            s = float(rng.uniform(0.0, 40.0))
            entries.append((s, s + float(rng.uniform(1.0, 12.0)),
                            str(rng.choice(labels)), float(rng.random())))
        dets[vid] = entries
    return gt, dets


def test_a1_metric_oracle_equivalence():
    with report("A1"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        labels = ["jump", "run", "swim"]
        corpora = [random_corpus(rng, 10, labels, start_index=10 * b)
                   for b in range(20)]

        for gt_raw, det_raw in corpora:
            det_objs = {vid: [Detection(s, e, lab, sc)
                              for s, e, lab, sc in entries]
                        for vid, entries in det_raw.items()}
            gt_objs = detection_ground_truth_from_raw(gt_raw)
            report_lib = average_map(det_objs, gt_objs)
            table, per_th, avg = naive_average_map(det_raw, gt_raw,
                                                   DEFAULT_TIOU)
            assert report_lib.average_map == avg
            assert (report_lib.map_per_threshold == per_th).all()
            for label in table:
                assert (report_lib.ap_table[label] == table[label]).all()
                class_gt = {vid: np.array([(g[0], g[1]) for g in insts
                                           if g[2] == label],
                                          dtype=float).reshape(-1, 2)
                            for vid, insts in gt_raw.items()}
                class_dets = [(vid, d[0], d[1], d[3])
                              for vid, dlist in det_raw.items()
                              for d in dlist if d[2] == label]
                naive_gt = {vid: [(g[0], g[1]) for g in insts
                                  if g[2] == label]
                            for vid, insts in gt_raw.items()}
                for th in (0.5, 0.75, 0.95):
                    assert ap_at_tiou(class_dets, class_gt, th) \
                        == naive_ap(class_dets, naive_gt, th)

            # class-blind proposals for the recall side
            props = {vid: [Proposal(s, e, sc)
                           for s, e, _, sc in entries]
                     for vid, entries in det_raw.items()}
            seg_gt = {vid: np.array([(g[0], g[1]) for g in insts],
                                    dtype=float).reshape(-1, 2)
                      for vid, insts in gt_raw.items()}
            seg_gt_raw = {vid: [(g[0], g[1]) for g in insts]
                          for vid, insts in gt_raw.items()}
            table, total = naive_recall_table(props, seg_gt_raw,
                                              DEFAULT_TIOU, 6)
            for an in (1, 2, 4, 6):
                want = table[:, an - 1].sum() / (len(DEFAULT_TIOU) * total)
                assert float(ar_curve(props, seg_gt, an).ar[-1]) \
                    == pytest.approx(want, abs=1e-12)

        # pooled 200-video corpus, including the AUC grid
        gt_all = {k: v for gt, _ in corpora for k, v in gt.items()}
        det_all = {k: v for _, det in corpora for k, v in det.items()}
        det_objs = {vid: [Detection(s, e, lab, sc)
                          for s, e, lab, sc in entries]
                    for vid, entries in det_all.items()}
        report_lib = average_map(det_objs,
                                 detection_ground_truth_from_raw(gt_all))
        _, _, avg = naive_average_map(det_all, gt_all, DEFAULT_TIOU)
        assert report_lib.average_map == avg

        props = {vid: [Proposal(s, e, sc) for s, e, _, sc in entries]
                 for vid, entries in det_all.items()}
        seg_gt = {vid: np.array([(g[0], g[1]) for g in insts],
                                dtype=float).reshape(-1, 2)
                  for vid, insts in gt_all.items()}
        seg_gt_raw = {vid: [(g[0], g[1]) for g in insts]
                      for vid, insts in gt_all.items()}
        curve = ar_curve(props, seg_gt, an_max=100)
        table, total = naive_recall_table(props, seg_gt_raw,
                                          DEFAULT_TIOU, 100)
        want_ar = table.sum(axis=0) / (len(DEFAULT_TIOU) * total)
        np.testing.assert_allclose(curve.ar, want_ar, atol=1e-12, rtol=0)
        assert auc(curve) == pytest.approx(100.0 * want_ar.mean(),
                                           abs=1e-12)

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"A1 took {elapsed:.1f}s"


def detection_ground_truth_from_raw(gt_raw):
    """Adapt {vid: [(s, e, label)]} to the library's Instance lists."""
    return {vid: [Instance(s, e, lab) for s, e, lab in insts]
            for vid, insts in gt_raw.items()}


def _sample_points(x, sm):
    """W_n x for every sample point n, stacked to (..., N, D, T), read off
    the proposal layer that the network runs: a one-hot reduce_w = e_n with
    reduce_b = 0 and no mask gives W_n x."""
    zero = np.zeros(1)
    return np.stack([sample_proposal_features(x, sm, e_n, zero)
                     for e_n in np.eye(sm.n_samples)], axis=-3)


def test_a2_sampling_correctness():
    with report("A2"):
        t, d, n, expansion = 100, 100, 32, 0.25
        sm = build_sampling_matrix(t, d, n, expansion)
        grid = sm.grid
        d_idx, t_idx, _ = grid.cell_segments()

        # partition of unity from first principles: a sample point at
        # position p contributes weight 1 iff 0 <= p <= T-1, else 0
        k = (d_idx + 1).astype(float)
        left = t_idx - expansion * k
        step = k * (1.0 + 2.0 * expansion) / (n - 1)
        pts = left[:, None] + np.arange(n)[None, :] * step[:, None]
        expected = ((pts >= 0.0) & (pts <= t - 1)).astype(float)  # (cells,N)

        # every input of this check goes through the layer in one batch
        # (one W_r per sample point): a constant, 20 random 2-channel
        # inputs, and one more random input
        rng = np.random.default_rng(202)
        randoms = [rng.normal(size=(2, t)) for _ in range(20)]
        x = rng.normal(size=t)
        every = _sample_points(np.concatenate([np.ones((1, t)), *randoms,
                                               x[None, :]]), sm)

        sampled = every[0]
        got = sampled[:, d_idx, t_idx].T  # (cells, N)
        assert np.abs(got - expected).max() <= 1e-6

        # invalid cells never receive anything
        invalid = ~grid.valid
        assert np.abs(sampled[:, invalid]).max() == 0.0

        # 20 random inputs against a direct interpolation oracle
        lo = np.clip(np.floor(pts).astype(int), 0, t - 1)
        hi = np.clip(lo + 1, 0, t - 1)
        frac = pts - np.floor(pts)
        inside = (pts >= 0.0) & (pts <= t - 1)
        for i, xr in enumerate(randoms):
            got = every[1 + 2 * i:3 + 2 * i]
            want = np.zeros_like(got)
            for c in range(2):
                vals = (1.0 - frac) * xr[c][lo] + frac * xr[c][hi]
                want[c][:, d_idx, t_idx] = np.where(inside, vals, 0.0).T
            assert np.abs(got - want).max() <= 1e-6

        # entry-by-entry pure-Python spot check on one input
        got = every[-1]
        for cell in rng.choice(len(d_idx), size=40, replace=False):
            dd, tt = int(d_idx[cell]), int(t_idx[cell])
            seg_len = dd + 1.0
            for ni in range(n):
                p = (tt - expansion * seg_len
                     + ni * seg_len * (1 + 2 * expansion) / (n - 1))
                if p < 0.0 or p > t - 1:
                    want = 0.0
                else:
                    i0 = math.floor(p)
                    f = p - i0
                    want = (1 - f) * x[i0] + (f * x[i0 + 1] if f > 0 else 0.0)
                assert abs(got[ni, dd, tt] - want) <= 1e-6


def test_a3_gradient_check():
    with report("A3"):
        t0 = time.perf_counter()
        step = 1e-4
        configs = {
            "mask off": MaskConfig(p=0.0),
            "mask frozen on": MaskConfig(p=0.5, granularity="proposal"),
        }
        worst = 0.0
        for mode, mask in configs.items():
            cfg = ModelConfig(c_in=3, c_h=4, t_scale=8, d_max=8,
                              n_samples=4, mask=mask, seed=0)
            for seed in range(5):
                rng = np.random.default_rng(seed)
                batch = [random_sample(rng, cfg) for _ in range(2)]
                noise = draw_step_noise(batch, cfg, rng)
                best_margin, params = kink_free_params(cfg, batch, noise,
                                                       seed)
                assert best_margin > 5 * step, \
                    f"no kink-free evaluation point for seed {seed} ({mode})"
                _, grads = loss_and_gradients(params, batch, cfg, noise)
                for name in params:
                    flat = params[name].ravel()
                    gf = grads[name].ravel()
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        lp = batch_loss(params, batch, cfg, noise)
                        flat[i] = orig - step
                        lm = batch_loss(params, batch, cfg, noise)
                        flat[i] = orig
                        fd = (lp - lm) / (2 * step)
                        rel = abs(fd - gf[i]) / max(abs(fd), abs(gf[i]),
                                                    1e-8)
                        assert rel < 1e-4, \
                            f"{mode}, seed {seed}, {name}[{i}]: " \
                            f"fd={fd:.3e} analytic={gf[i]:.3e} rel={rel:.3e}"
                        worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        print(f"A3 worst relative error {worst:.3e} in {elapsed:.1f}s ",
              end="")
        assert elapsed < 60.0, f"A3 took {elapsed:.1f}s"


def test_a4_masking_statistics():
    with report("A4"):
        p = 0.1
        cfg = MaskConfig(p=p, granularity="proposal")
        rng = np.random.default_rng(404)

        # drop fraction over >= 10^4 valid proposal cells
        grid = proposal_grid(100, 100)
        n_valid = int(grid.valid.sum())  # 5050
        draws = 2
        dropped = 0
        masked_values = []
        for _ in range(draws):
            mask = draw_mask((1, 100, 100), cfg, rng)[0]
            on_valid = mask[grid.valid]
            dropped += int((on_valid == 0.0).sum())
            masked_values.append(on_valid)
        n_cells = draws * n_valid
        assert n_cells >= 10_000
        frac = dropped / n_cells
        half_width = 2.5758293035489004 * math.sqrt(p * (1 - p) / n_cells)
        assert abs(frac - p) <= half_width, \
            f"drop fraction {frac:.4f} outside {p} +/- {half_width:.4f}"

        # survivors carry exactly 1/(1-p); expectation preserved within 3 SE
        values = np.concatenate(masked_values)
        assert set(np.unique(values)) <= {0.0, 1.0 / (1 - p)}
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - 1.0) <= 3 * se

        # inference is bit-identical to no masking
        mcfg = ModelConfig(c_in=3, c_h=4, t_scale=8, d_max=8, n_samples=4,
                           mask=cfg, seed=0)
        plain = ModelConfig(c_in=3, c_h=4, t_scale=8, d_max=8, n_samples=4,
                            mask=MaskConfig(p=0.0), seed=0)
        params = init_params(mcfg, np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(8, 3))
        a = forward(params, x, mcfg)
        b = forward(params, x, plain)
        for fa, fb in ((a.p_start, b.p_start), (a.p_end, b.p_end),
                       (a.p_cls, b.p_cls), (a.p_reg, b.p_reg)):
            assert fa.tobytes() == fb.tobytes()


def _validation_auc(params, cfg, anns, features, grid):
    props = {}
    for vid, ann in anns.videos.items():
        if ann.subset != "validation":
            continue
        seq = rescale_features(features[vid], cfg.t_scale)
        out = forward(params, seq, cfg)
        props[vid] = soft_nms(fuse_scores(out, grid, ann.duration))
    gt = proposal_ground_truth(anns, "validation")
    return auc(ar_curve(props, gt, an_max=100))


def test_a5_end_to_end_synthetic_smoke():
    with report("A5"):
        t0 = time.perf_counter()
        anns, features, _ = synth_dataset(SynthConfig(
            n_videos=250, t_raw_range=(96, 144), channels=16, n_classes=3,
            instances_range=(1, 2), val_fraction=0.2, seed=11))
        subsets = [a.subset for a in anns]
        assert subsets.count("training") == 200
        assert subsets.count("validation") == 50

        cfg = ModelConfig(c_in=16, c_h=8, t_scale=64, d_max=64, n_samples=8,
                          mask=MaskConfig(p=0.1, granularity="proposal"),
                          learning_rate=0.02, epochs=30, batch_size=32,
                          seed=0)
        grid = proposal_grid(cfg.t_scale, cfg.d_max)

        untrained = init_params(cfg, np.random.default_rng(cfg.seed))
        auc_untrained = _validation_auc(untrained, cfg, anns, features, grid)

        trained, history = train(anns, features, cfg, PreprocessConfig())
        auc_trained = _validation_auc(trained, cfg, anns, features, grid)
        assert auc_trained >= auc_untrained + 20.0, \
            f"trained {auc_trained:.1f} vs untrained {auc_untrained:.1f}"

        # perfect proposals saturate the proposal metric: recall is 1.0 at
        # every AN that admits each video's full instance count, and on
        # videos with a single instance the AUC tops out at exactly 100.0
        perfect = {vid: [Proposal(i.start, i.end, 1.0)
                         for i in ann.instances]
                   for vid, ann in anns.videos.items()
                   if ann.subset == "validation"}
        gt = proposal_ground_truth(anns, "validation")
        curve = ar_curve(perfect, gt, an_max=100)
        most = max(len(ps) for ps in perfect.values())
        assert (curve.ar[most - 1:] == 1.0).all()
        singles = {vid for vid, ps in perfect.items() if len(ps) == 1}
        assert singles
        single_curve = ar_curve(
            {vid: perfect[vid] for vid in singles},
            {vid: gt[vid] for vid in singles}, an_max=100)
        assert auc(single_curve) == 100.0

        # reported, not gated: the same run without masking
        plain_cfg = ModelConfig(c_in=16, c_h=8, t_scale=64, d_max=64,
                                n_samples=8, mask=MaskConfig(p=0.0),
                                learning_rate=0.02, epochs=30,
                                batch_size=32, seed=0)
        plain, _ = train(anns, features, plain_cfg, PreprocessConfig())
        auc_plain = _validation_auc(plain, plain_cfg, anns, features, grid)

        elapsed = time.perf_counter() - t0
        print(f"A5 untrained AUC {auc_untrained:.1f}, trained+masking "
              f"{auc_trained:.1f}, trained unmasked {auc_plain:.1f} "
              f"({elapsed:.0f}s) ", end="")
        assert elapsed < 600.0, f"A5 took {elapsed:.1f}s"
        assert history[-1]["mean_loss"] < history[0]["mean_loss"]


def test_a6_exact_counts():
    with report("A6"):
        # ten detection thresholds 0.5:0.05:0.95
        assert DEFAULT_TIOU.shape == (10,)
        np.testing.assert_allclose(DEFAULT_TIOU,
                                   [0.5 + 0.05 * i for i in range(10)],
                                   atol=1e-15)

        # triangular proposal grid
        assert proposal_grid(4, 4).valid.sum() == 10

        # soft-NMS decay on a duplicate pair
        decayed = soft_nms([Proposal(0.0, 1.0, 0.9),
                            Proposal(0.0, 1.0, 0.8)], sigma=0.4)
        want = 0.8 * math.exp(-1.0 / 0.4)
        assert abs(decayed[1].score - want) <= 1e-9

        rng = np.random.default_rng(606)
        for _ in range(25):
            # coverage equals a rasterized union (endpoints on a 1/8 grid
            # so the rasterization is exact)
            duration = float(rng.integers(8, 65))
            n = int(rng.integers(1, 6))
            starts = rng.integers(0, int(duration * 8) - 1, n) / 8.0
            widths = rng.integers(1, 40, n) / 8.0
            ends = np.minimum(starts + widths, duration)
            cells = np.zeros(int(duration * 8), dtype=bool)
            for s, e in zip(starts, ends):
                cells[int(s * 8):int(e * 8)] = True
            want_union = cells.sum() / 8.0
            got = interval_union_length(list(zip(starts, ends)))
            assert got == pytest.approx(want_union, abs=1e-9)
            ann = VideoAnnotation(
                "v", duration, "training",
                [Instance(float(s), float(e), "a")
                 for s, e in zip(starts, ends) if e > s])
            assert instance_coverage(ann) \
                == pytest.approx(want_union / duration, abs=1e-9)

            # resample repeat counts from an independent classification
            videos = {}
            n_short = 0
            n_train = 0
            theta = 0.05
            for i in range(int(rng.integers(2, 8))):
                vid = f"v{i}"
                dur = 100.0
                frac = float(rng.uniform(0.01, 0.4))
                subset = "training" if rng.random() < 0.7 else "validation"
                videos[vid] = VideoAnnotation(
                    vid, dur, subset, [Instance(0.0, frac * dur, "a")])
                if subset == "training":
                    n_train += 1
                    n_short += frac < theta
            epoch = resample_short(AnnotationSet(videos), theta,
                                   repeat_factor=3)
            assert len(epoch) == n_train + 2 * n_short
            for vid, ann in videos.items():
                want = 3 if (ann.subset == "training"
                             and ann.instances[0].end / 100.0 < theta) \
                    else (1 if ann.subset == "training" else 0)
                assert epoch.count(vid) == want

            # channel shift: untouched block is bit-identical, moved
            # blocks are plain one-step shifts
            t_len = int(rng.integers(3, 20))
            c = int(rng.choice([8, 16, 24]))
            x = rng.normal(size=(t_len, c))
            shifted = temporal_shift(x, shift_fraction=0.125)
            b = c // 8
            assert shifted[:, 2 * b:].tobytes() == x[:, 2 * b:].tobytes()
            assert (shifted[1:, :b] == x[:-1, :b]).all()
            assert (shifted[0, :b] == 0.0).all()
            assert (shifted[:-1, b:2 * b] == x[1:, b:2 * b]).all()
            assert (shifted[-1, b:2 * b] == 0.0).all()


def test_a7_cli_determinism(tmp_path):
    with report("A7"):
        runs = []
        for name in ("one", "two"):
            out = tmp_path / name
            cfg = {
                "seed": 13,
                "paths": {"output_dir": str(out)},
                "synth": {"n_videos": 10, "t_raw_range": [24, 32],
                          "channels": 4, "n_classes": 2,
                          "val_fraction": 0.3},
                "grid": {"t_scale": 16, "d_max": 16, "n_samples": 4},
                "model": {"c_h": 4, "epochs": 2, "batch_size": 4,
                          "learning_rate": 0.02},
                "mask": {"p": 0.1},
            }
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            for command in ("synth", "train", "infer"):
                code = main([command, "--config", str(cfg_path),
                             "--threads", "1"])
                assert code == 0, f"{command} failed on run {name}"
            runs.append(out)

        one, two = runs
        compared = []
        for rel in ("model.cpnm", "train_log.json", "proposals.json",
                    "detections.json"):
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
            compared.append(rel)
        npz_one = sorted(p.name for p in (one / "outputs").glob("*.npz"))
        npz_two = sorted(p.name for p in (two / "outputs").glob("*.npz"))
        assert npz_one == npz_two and npz_one
        for name in npz_one:
            assert (one / "outputs" / name).read_bytes() \
                == (two / "outputs" / name).read_bytes(), name
            compared.append(f"outputs/{name}")
        assert len(compared) >= 4 + len(npz_one)
