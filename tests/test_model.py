"""Tests for the network: initialization, forward pass, losses, analytic
gradients against finite differences, training, and model file IO."""

import numpy as np
import pytest

from tadkit.dataio import AnnotationSet, Instance, VideoAnnotation
from tadkit.model import (BoundaryLabels, ModelConfig, ModelIOError,
                          StepNoise, TrainingDivergedError, TrainSample,
                          _param_specs, batch_loss, boundary_labels,
                          compute_gradients, config_from_dict, config_to_dict,
                          draw_step_noise, forward, init_params,
                          load_model, load_outputs, loss_and_gradients,
                          pem_loss, save_model, save_outputs, tem_loss, train)
from tadkit.preprocess import PreprocessConfig
from tadkit.proposals import MaskConfig, proposal_grid


def tiny_config(**kw):
    base = dict(c_in=3, c_h=4, t_scale=8, d_max=8, n_samples=4,
                mask=MaskConfig(p=0.0), epochs=2, batch_size=4,
                learning_rate=0.05, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def random_sample(rng, cfg):
    t, d = cfg.t_scale, cfg.d_max
    gt = rng.random((d, t))
    gt[~proposal_grid(t, d).valid] = 0.0
    return TrainSample(
        rng.normal(size=(cfg.c_in, t)),
        BoundaryLabels((rng.random(t) < 0.4).astype(float),
                       (rng.random(t) < 0.4).astype(float)),
        gt, "v")


def perturbed_params(cfg, rng):
    """Init plus small noise on every tensor (biases included) so no ReLU
    pre-activation sits exactly on its kink; keeps the finite-difference
    comparison well-posed."""
    params = init_params(cfg, rng)
    return {k: v + 0.1 * rng.normal(size=v.shape) for k, v in params.items()}


class TestInitParams:
    def test_shapes_and_declaration_order(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        specs = _param_specs(cfg)
        assert list(params) == [name for name, _, _ in specs]
        for name, shape, _ in specs:
            assert params[name].shape == shape

    def test_biases_zero_weights_bounded(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        for name, _, fans in _param_specs(cfg):
            if fans is None:
                assert (params[name] == 0.0).all()
            else:
                bound = np.sqrt(6.0 / sum(fans))
                assert (np.abs(params[name]) <= bound).all()

    def test_deterministic(self):
        cfg = tiny_config()
        p1 = init_params(cfg, np.random.default_rng(3))
        p2 = init_params(cfg, np.random.default_rng(3))
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        cfg = tiny_config()
        params = {name: np.zeros(shape)
                  for name, shape, _ in _param_specs(cfg)}
        out = forward(params, np.ones((8, 3)), cfg)
        np.testing.assert_array_equal(out.p_start, 0.5)
        np.testing.assert_array_equal(out.p_end, 0.5)
        np.testing.assert_array_equal(out.p_cls, 0.5)
        np.testing.assert_array_equal(out.p_reg, 0.5)

    def test_inference_deterministic(self):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        params = init_params(cfg, rng)
        x = rng.normal(size=(8, 3))
        a = forward(params, x, cfg)
        b = forward(params, x, cfg)
        np.testing.assert_array_equal(a.p_cls, b.p_cls)
        np.testing.assert_array_equal(a.p_start, b.p_start)

    def test_training_with_p_zero_equals_inference(self):
        cfg = tiny_config()
        rng = np.random.default_rng(2)
        params = init_params(cfg, rng)
        x = rng.normal(size=(8, 3))
        a = forward(params, x, cfg, training=True,
                    rng=np.random.default_rng(0))
        b = forward(params, x, cfg, training=False)
        np.testing.assert_array_equal(a.p_reg, b.p_reg)

    def test_outputs_strictly_inside_unit_interval(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        params = init_params(cfg, rng)
        out = forward(params, rng.normal(size=(8, 3)), cfg)
        for field in (out.p_start, out.p_end, out.p_cls, out.p_reg):
            assert (field > 0.0).all() and (field < 1.0).all()

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(params, np.ones((9, 3)), cfg)


class TestBoundaryLabels:
    def test_no_instances_all_zero(self):
        ann = VideoAnnotation("v", 8.0, "training", [])
        lab = boundary_labels(ann, 8)
        assert lab.start.sum() == 0 and lab.end.sum() == 0

    def test_hand_checked_positions(self):
        # T=8, duration 8s, instance [2,6]: delta = max(0.5, 0.05*4) = 0.5,
        # start positives where |t+0.5 - 2| <= 0.5 -> t in {1, 2}
        ann = VideoAnnotation("v", 8.0, "training",
                              [Instance(2.0, 6.0, "a")])
        lab = boundary_labels(ann, 8)
        np.testing.assert_array_equal(np.flatnonzero(lab.start), [1, 2])
        np.testing.assert_array_equal(np.flatnonzero(lab.end), [5, 6])

    def test_full_span_instance_hits_boundaries(self):
        ann = VideoAnnotation("v", 10.0, "training",
                              [Instance(0.0, 10.0, "a")])
        lab = boundary_labels(ann, 20)
        assert lab.start[0] == 1.0 and lab.start[10:].sum() == 0
        assert lab.end[-1] == 1.0 and lab.end[:10].sum() == 0


class TestTemLoss:
    def test_perfect_prediction_near_zero(self):
        t = 10
        y = np.zeros(t)
        y[3:5] = 1.0
        labels = BoundaryLabels(y, y)
        assert tem_loss(y, y, labels) < 1e-5

    def test_balance_weights_closed_form(self):
        # T=10, 2 positives: alpha+ = 5, alpha- = 1.25
        t = 10
        y = np.zeros(t)
        y[:2] = 1.0
        p = np.full(t, 0.5)
        want_one_head = -(5.0 * 2 * np.log(0.5)
                          + 1.25 * 8 * np.log(0.5)) / t
        got = tem_loss(p, p, BoundaryLabels(y, y))
        assert got == pytest.approx(2 * want_one_head)

    def test_all_negative_at_half_is_ln2_per_head(self):
        t = 12
        p = np.full(t, 0.5)
        labels = BoundaryLabels(np.zeros(t), np.zeros(t))
        assert tem_loss(p, p, labels) == pytest.approx(2 * np.log(2.0))


class TestPemLoss:
    def test_perfect_regression_part_zero(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        rng = np.random.default_rng(0)
        gt = rng.random((8, 8))
        gt[~grid.valid] = 0.0
        loss = pem_loss(np.full((8, 8), 0.5), gt, gt, grid,
                        np.random.default_rng(1), lambda_cls=0.0)
        assert loss == 0.0

    def test_all_negative_cls_is_ln2(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        gt = np.zeros((8, 8))
        loss = pem_loss(np.full((8, 8), 0.5), np.zeros((8, 8)), gt, grid,
                        np.random.default_rng(0), lambda_reg=0.0)
        assert loss == pytest.approx(np.log(2.0))

    def test_zero_weights_zero_loss(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        rng = np.random.default_rng(2)
        gt = rng.random((8, 8))
        gt[~grid.valid] = 0.0
        loss = pem_loss(rng.random((8, 8)), rng.random((8, 8)), gt, grid,
                        np.random.default_rng(0), lambda_cls=0.0,
                        lambda_reg=0.0)
        assert loss == 0.0


class TestGradients:
    def fd_worst_error(self, cfg, seed, entries_per_param=4):
        rng = np.random.default_rng(seed)
        params = perturbed_params(cfg, rng)
        batch = [random_sample(rng, cfg) for _ in range(2)]
        noise = draw_step_noise(batch, cfg, rng, training=True)
        _, grads = loss_and_gradients(params, batch, cfg, noise)
        h = 1e-4
        worst = 0.0
        for name in params:
            flat = params[name].ravel()
            gf = grads[name].ravel()
            idx = rng.choice(flat.size,
                             size=min(entries_per_param, flat.size),
                             replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                lp = batch_loss(params, batch, cfg, noise)
                flat[i] = orig - h
                lm = batch_loss(params, batch, cfg, noise)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - gf[i])
                            / max(abs(fd), abs(gf[i]), 1e-8))
        return worst

    def test_matches_finite_differences_unmasked(self):
        cfg = tiny_config(mask=MaskConfig(p=0.0))
        for seed in range(3):
            assert self.fd_worst_error(cfg, seed) < 1e-4

    def test_matches_finite_differences_masked(self):
        cfg = tiny_config(mask=MaskConfig(p=0.3, granularity="proposal"))
        for seed in range(3):
            assert self.fd_worst_error(cfg, seed) < 1e-4

    def test_matches_finite_differences_channel_masked(self):
        cfg = tiny_config(mask=MaskConfig(p=0.3, granularity="channel"))
        for seed in range(3):
            assert self.fd_worst_error(cfg, seed) < 1e-4

    def test_dead_path_gradient_is_zero(self):
        """A mask of all zeros cuts the confidence branch off from the
        sampled features: the reduction weights get exactly zero gradient."""
        cfg = tiny_config(mask=MaskConfig(p=0.5))
        rng = np.random.default_rng(0)
        params = perturbed_params(cfg, rng)
        batch = [random_sample(rng, cfg)]
        noise = draw_step_noise(batch, cfg, rng, training=True)
        noise.masks = [np.zeros_like(m) for m in noise.masks]
        _, grads = loss_and_gradients(params, batch, cfg, noise)
        np.testing.assert_array_equal(grads["reduce_w"], 0.0)

    def test_lambda_reg_scales_its_gradient_component(self):
        rng = np.random.default_rng(1)
        base = tiny_config(lambda_reg=0.0)
        batch = [random_sample(rng, base)]
        noise = draw_step_noise(batch, base, rng, training=True)
        params = perturbed_params(base, np.random.default_rng(2))
        _, g0 = loss_and_gradients(params, batch, base, noise)
        _, g1 = loss_and_gradients(params, batch,
                                   tiny_config(lambda_reg=1.0), noise)
        _, g2 = loss_and_gradients(params, batch,
                                   tiny_config(lambda_reg=2.0), noise)
        for k in params:
            np.testing.assert_allclose(g2[k] - g0[k], 2.0 * (g1[k] - g0[k]),
                                       rtol=1e-10, atol=1e-12)

    def test_batch_permutation_invariance(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        params = perturbed_params(cfg, rng)
        batch = [random_sample(rng, cfg) for _ in range(3)]
        noise = draw_step_noise(batch, cfg, rng, training=True)
        loss_a, _ = loss_and_gradients(params, batch, cfg, noise)
        order = [2, 0, 1]
        rev = StepNoise([noise.masks[i] for i in order],
                        [noise.reg_cells[i] for i in order])
        loss_b, _ = loss_and_gradients(params, [batch[i] for i in order],
                                       cfg, rev)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            compute_gradients(params, [], cfg, np.random.default_rng(0))


def toy_dataset(n=8, t_raw=12, c_in=3, seed=0):
    rng = np.random.default_rng(seed)
    videos = {}
    feats = {}
    for i in range(n):
        vid = f"v{i}"
        subset = "training" if i < n - 2 else "validation"
        s = float(rng.integers(0, t_raw // 2))
        e = s + float(rng.integers(2, t_raw // 2))
        videos[vid] = VideoAnnotation(vid, float(t_raw), subset,
                                      [Instance(s, e, "a")])
        feats[vid] = rng.normal(size=(t_raw, c_in)).astype(np.float32)
    return AnnotationSet(videos), feats


class TestTrain:
    def test_zero_epochs_returns_init(self):
        anns, feats = toy_dataset()
        cfg = tiny_config(epochs=0)
        params, history = train(anns, feats, cfg, PreprocessConfig())
        want = init_params(cfg, np.random.default_rng(cfg.seed))
        assert history == []
        for k in want:
            np.testing.assert_array_equal(params[k], want[k])

    def test_deterministic_given_seed(self):
        anns, feats = toy_dataset()
        cfg = tiny_config(epochs=2)
        p1, h1 = train(anns, feats, cfg, PreprocessConfig())
        p2, h2 = train(anns, feats, cfg, PreprocessConfig())
        assert h1 == h2
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_log_records_every_epoch(self):
        anns, feats = toy_dataset()
        cfg = tiny_config(epochs=3)
        _, history = train(anns, feats, cfg, PreprocessConfig())
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert all(np.isfinite(h["mean_loss"]) for h in history)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_epoch_and_step(self):
        # lr must overflow float64: merely saturating the sigmoids keeps the
        # clamped loss finite, so 1e9 does not diverge but 1e200 does.
        anns, feats = toy_dataset()
        cfg = tiny_config(epochs=3, learning_rate=1e200)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, step \d+"):
            train(anns, feats, cfg, PreprocessConfig())

    def test_no_training_videos_rejected(self):
        anns = AnnotationSet({
            "v": VideoAnnotation("v", 5.0, "validation", [])})
        with pytest.raises(ValueError):
            train(anns, {}, tiny_config(), PreprocessConfig())

    def test_augmentations_keep_training_finite(self):
        anns, feats = toy_dataset(seed=4)
        cfg = tiny_config(epochs=1)
        pp = PreprocessConfig(enable_resize=True, enable_shift=True)
        _, history = train(anns, feats, cfg, pp)
        assert np.isfinite(history[0]["mean_loss"])


class TestModelIO:
    def test_roundtrip_exact(self, tmp_path):
        cfg = tiny_config(mask=MaskConfig(p=0.2, granularity="channel"))
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        cfg2, params2 = load_model(path)
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(params2[k], params[k])

    def test_config_dict_roundtrip(self):
        cfg = tiny_config(mask=MaskConfig(p=0.15))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.cpnm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelIOError):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ModelIOError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(ModelIOError):
            load_model(path)

    def test_invalid_config_rejected(self, tmp_path):
        # a file that is consistent with its own config, but the config
        # (even kernel size) is one the network cannot run
        cfg = tiny_config(kernel_size=2)
        params = {name: np.zeros(shape)
                  for name, shape, _ in _param_specs(cfg)}
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        with pytest.raises(ModelIOError, match=r"m\.cpnm.*kernel_size"):
            load_model(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        params["cls_b"][...] = np.nan
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        with pytest.raises(ModelIOError, match=r"m\.cpnm.*cls_b"):
            load_model(path)

    def test_outputs_roundtrip(self, tmp_path):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        params = init_params(cfg, rng)
        out = forward(params, rng.normal(size=(8, 3)), cfg)
        path = tmp_path / "o.npz"
        save_outputs(out, path)
        back = load_outputs(path)
        np.testing.assert_array_equal(back.p_start, out.p_start)
        np.testing.assert_array_equal(back.p_cls, out.p_cls)
