"""Tests for the network: initialization, forward pass, losses, analytic
gradients against finite differences, training, and model file IO."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from sampling_oracle import sample_points
from tadkit.dataio import AnnotationSet, Instance, VideoAnnotation
from tadkit.model import (BoundaryLabels, ModelConfig, ModelIOError,
                          StepNoise, TrainingDivergedError, TrainSample,
                          _balanced_bce, _conv, _forward_batch, _param_specs,
                          _pem_cls, _pem_reg, _sample_reg_cells, batch_loss,
                          boundary_labels, compute_gradients,
                          config_from_dict, draw_step_noise, forward,
                          init_params, load_model, load_outputs,
                          loss_and_gradients, save_model, save_outputs, train)
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


def _kink_margin(params, batch, cfg, noise):
    """Distance of the closest ReLU pre-activation to its kink.

    Central differences are only valid where the composition is smooth; a
    pre-activation within ~step * gain of zero can flip sign under the
    probe and corrupt the measurement without any gradient being wrong.
    The proposal features are sampled and masked literally, by the test
    oracle, independent of the fused operator the network runs.
    """
    x = np.stack([s.features for s in batch])
    z1 = _conv(x[:, :, None], params["stem1_w"][:, :, None],
               params["stem1_b"])
    h1 = np.maximum(z1, 0.0)
    z2 = _conv(h1, params["stem2_w"][:, :, None], params["stem2_b"])
    h2 = np.maximum(z2, 0.0)[:, :, 0]
    sampled = sample_points(h2, cfg.sampling_matrix())
    if noise.masks is not None:
        sampled = sampled * noise.masks[:, :, None]  # same for all N points
    reduced = np.tensordot(sampled, params["reduce_w"], axes=([2], [0])) \
        + params["reduce_b"][0]
    z3 = _conv(reduced, params["pem_w"], params["pem_b"])
    return min(np.abs(z1).min(), np.abs(z2).min(), np.abs(z3).min())


def kink_free_params(cfg, batch, noise, seed, tries=40):
    """Of ``tries`` perturbed parameter sets, drawn from the seeds
    [seed, salt], the one whose ReLU pre-activations lie farthest from
    their kinks on this batch and noise: (margin, params)."""
    best_margin, params = -1.0, None
    for salt in range(tries):
        cand = perturbed_params(cfg, np.random.default_rng([seed, salt]))
        margin = _kink_margin(cand, batch, cfg, noise)
        if margin > best_margin:
            best_margin, params = margin, cand
    return best_margin, params


def tem_total(p_start, p_end, labels):
    """The boundary loss of one sample, as the training loss sums it."""
    return (_balanced_bce(p_start, labels.start)[0]
            + _balanced_bce(p_end, labels.end)[0])


def pem_total(p_cls, p_reg, gt, grid, rng, lambda_cls=1.0, lambda_reg=1.0):
    """The confidence-map loss of one sample, as the training loss sums it:
    balanced classification plus stratified-sample regression."""
    cells = _sample_reg_cells(gt, grid.valid, rng)
    return (lambda_cls * _pem_cls(p_cls, gt, grid.valid)[0]
            + lambda_reg * _pem_reg(p_reg, gt, cells)[0])


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
        sample = TrainSample(np.ascontiguousarray(x.T),
                             BoundaryLabels(np.zeros(8), np.zeros(8)),
                             np.zeros((8, 8)))
        noise = draw_step_noise([sample], cfg, np.random.default_rng(0))
        assert noise.masks is None
        a = _forward_batch(params, sample.features[None], cfg, noise.masks)
        b = forward(params, x, cfg)
        for name in ("p_start", "p_end", "p_cls", "p_reg"):
            assert a[name][0].tobytes() == getattr(b, name).tobytes()

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
        assert tem_total(y, y, labels) < 1e-5

    def test_balance_weights_closed_form(self):
        # T=10, 2 positives: alpha+ = 5, alpha- = 1.25
        t = 10
        y = np.zeros(t)
        y[:2] = 1.0
        p = np.full(t, 0.5)
        want_one_head = -(5.0 * 2 * np.log(0.5)
                          + 1.25 * 8 * np.log(0.5)) / t
        got = tem_total(p, p, BoundaryLabels(y, y))
        assert got == pytest.approx(2 * want_one_head)

    def test_all_negative_at_half_is_ln2_per_head(self):
        t = 12
        p = np.full(t, 0.5)
        labels = BoundaryLabels(np.zeros(t), np.zeros(t))
        assert tem_total(p, p, labels) == pytest.approx(2 * np.log(2.0))


class TestPemLoss:
    def test_perfect_regression_part_zero(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        rng = np.random.default_rng(0)
        gt = rng.random((8, 8))
        gt[~grid.valid] = 0.0
        loss = pem_total(np.full((8, 8), 0.5), gt, gt, grid,
                        np.random.default_rng(1), lambda_cls=0.0)
        assert loss == 0.0

    def test_all_negative_cls_is_ln2(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        gt = np.zeros((8, 8))
        loss = pem_total(np.full((8, 8), 0.5), np.zeros((8, 8)), gt, grid,
                        np.random.default_rng(0), lambda_reg=0.0)
        assert loss == pytest.approx(np.log(2.0))

    def test_zero_weights_zero_loss(self):
        cfg = tiny_config()
        grid = proposal_grid(cfg.t_scale, cfg.d_max)
        rng = np.random.default_rng(2)
        gt = rng.random((8, 8))
        gt[~grid.valid] = 0.0
        loss = pem_total(rng.random((8, 8)), rng.random((8, 8)), gt, grid,
                        np.random.default_rng(0), lambda_cls=0.0,
                        lambda_reg=0.0)
        assert loss == 0.0


class TestGradients:
    def fd_worst_error(self, cfg, seed, entries_per_param=4, h=1e-4):
        rng = np.random.default_rng(seed)
        batch = [random_sample(rng, cfg) for _ in range(2)]
        noise = draw_step_noise(batch, cfg, rng)
        margin, params = kink_free_params(cfg, batch, noise, seed)
        assert margin > 5 * h, f"no kink-free evaluation point for seed {seed}"
        _, grads = loss_and_gradients(params, batch, cfg, noise)
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

    def test_matches_finite_differences_kernel_5(self):
        cfg = tiny_config(kernel_size=5)
        for seed in range(3):
            assert self.fd_worst_error(cfg, seed, h=1e-6) < 1e-4

    def test_dead_path_gradient_is_zero(self):
        """A mask of all zeros cuts the confidence branch off from the
        sampled features: the reduction weights get exactly zero gradient."""
        cfg = tiny_config(mask=MaskConfig(p=0.5))
        rng = np.random.default_rng(0)
        params = perturbed_params(cfg, rng)
        batch = [random_sample(rng, cfg)]
        noise = draw_step_noise(batch, cfg, rng)
        noise.masks = np.zeros_like(noise.masks)
        _, grads = loss_and_gradients(params, batch, cfg, noise)
        np.testing.assert_array_equal(grads["reduce_w"], 0.0)

    def test_lambda_reg_scales_its_gradient_component(self):
        rng = np.random.default_rng(1)
        base = tiny_config(lambda_reg=0.0)
        batch = [random_sample(rng, base)]
        noise = draw_step_noise(batch, base, rng)
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
        noise = draw_step_noise(batch, cfg, rng)
        loss_a, _ = loss_and_gradients(params, batch, cfg, noise)
        order = [2, 0, 1]
        rev = StepNoise(None if noise.masks is None else noise.masks[order],
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
        pp = PreprocessConfig(resize_lo=0.8, resize_hi=1.25,
                              shift_fraction=0.125)
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
        assert config_from_dict(asdict(cfg)) == cfg

    @staticmethod
    def _with_blob(path, blob):
        """Replace the config blob of the model file at path."""
        data = path.read_bytes()
        (old_len,) = struct.unpack_from("<I", data, 8)
        new = json.dumps(blob, sort_keys=True).encode()
        path.write_bytes(data[:4] + struct.pack("<II", 1, len(new)) + new
                         + data[12 + old_len:])

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.5), ("kernel_size", True)])
    def test_blob_value_of_wrong_type_rejected(self, tmp_path, key, value):
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        self._with_blob(path, {**asdict(cfg), key: value})
        with pytest.raises(ModelIOError, match=rf"m\.cpnm.*{key}"):
            load_model(path)

    @pytest.mark.parametrize("section, key", [("", "epochs"), ("mask", "p")])
    def test_blob_missing_key_rejected(self, tmp_path, section, key):
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        blob = asdict(cfg)
        del (blob[section] if section else blob)[key]
        self._with_blob(path, blob)
        name = f"{section}.{key}" if section else key
        with pytest.raises(ModelIOError,
                           match=rf"m\.cpnm.*missing config key: {name}$"):
            load_model(path)

    def test_blob_integral_float_loads_as_int(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        self._with_blob(path, {**asdict(cfg), "c_h": 4.0})
        cfg2, _ = load_model(path)
        assert cfg2.c_h == 4 and type(cfg2.c_h) is int

    def test_blob_with_mask_seed_loads(self, tmp_path):
        # Earlier model files store the mask section with its own seed.
        cfg = tiny_config(mask=MaskConfig(p=0.2))
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        blob = asdict(cfg)
        blob["mask"]["seed"] = 7
        self._with_blob(path, blob)
        cfg2, params2 = load_model(path)
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(params2[k], params[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.cpnm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelIOError):
            load_model(path)

    @pytest.mark.parametrize("size", [0, 2, 4, 11])
    def test_truncated_header_is_not_bad_magic(self, tmp_path, size):
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ModelIOError,
                           match=r"m\.cpnm: truncated in its 12-byte header"):
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
        # a config (even kernel size) that the network cannot run is
        # refused before any parameter is read
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        self._with_blob(path, {**asdict(cfg), "kernel_size": 2})
        with pytest.raises(ModelIOError, match=r"m\.cpnm.*kernel_size"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", np.nan), ("learning_rate", 0.0),
        ("learning_rate", -1.0), ("momentum", -0.1), ("momentum", 1.0),
        ("momentum", 1.5), ("momentum", np.nan), ("expansion", np.nan),
        ("expansion", -0.5), ("expansion", 1e999), ("lambda_cls", np.nan),
        ("lambda_cls", -1.0), ("lambda_reg", np.nan), ("lambda_reg", -1.0),
    ])
    def test_invalid_training_value_rejected(self, tmp_path, key, value):
        cfg = tiny_config()
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, init_params(cfg, np.random.default_rng(0)))
        self._with_blob(path, {**asdict(cfg), key: value})
        with pytest.raises(ModelIOError, match=rf"m\.cpnm.*{key}"):
            load_model(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        marker = np.float64(0.8125).tobytes()
        params["cls_b"][...] = 0.8125
        path = tmp_path / "m.cpnm"
        save_model(path, cfg, params)
        data = path.read_bytes()
        assert data.count(marker) == 1
        path.write_bytes(data.replace(marker, np.float64(np.nan).tobytes()))
        with pytest.raises(ModelIOError, match=r"m\.cpnm.*cls_b"):
            load_model(path)

    @pytest.mark.parametrize("cfg_kw, param, value, message", [
        ({"kernel_size": 2}, None, None, "kernel_size"),
        ({"learning_rate": np.nan}, None, None, "learning_rate"),
        ({}, "cls_b", np.array([np.nan]), "cls_b is not finite"),
        ({}, "pem_b", np.zeros(3), r"pem_b: shape \(3,\)"),
    ], ids=["even-kernel", "nan-learning-rate", "nan-parameter",
            "wrong-shape"])
    def test_save_refuses_what_load_refuses(self, tmp_path, cfg_kw, param,
                                            value, message):
        """save_model raises before writing, so no file is left, and an
        existing file is kept as it was."""
        cfg = tiny_config(**cfg_kw)
        params = {name: np.full(shape, 0.5)
                  for name, shape, _ in _param_specs(cfg)}
        if param:
            params[param] = value
        path = tmp_path / "m.cpnm"
        with pytest.raises(ModelIOError, match=rf"m\.cpnm.*{message}"):
            save_model(path, cfg, params)
        assert not path.exists()
        path.write_bytes(b"earlier")
        with pytest.raises(ModelIOError):
            save_model(path, cfg, params)
        assert path.read_bytes() == b"earlier"

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

    def _outputs_with(self, tmp_path, field, value):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        out = forward(init_params(cfg, rng), rng.normal(size=(8, 3)), cfg)
        arrays = {**vars(out), field: value(getattr(out, field))}
        path = tmp_path / "o.npz"
        np.savez(path, **arrays)
        return path, out

    @pytest.mark.parametrize("dtype", ["<f2", "<f4", ">f8"])
    def test_outputs_of_any_float_dtype_load(self, tmp_path, dtype):
        path, out = self._outputs_with(tmp_path, "p_cls",
                                       lambda a: a.astype(dtype))
        back = load_outputs(path)
        assert back.p_cls.dtype == np.float64
        np.testing.assert_array_equal(back.p_cls,
                                      out.p_cls.astype(dtype))

    @pytest.mark.parametrize("offset, value, message", [
        (6, 64, "zip file version 6.4"), (8, 1, "is encrypted")],
        ids=["NotImplementedError", "RuntimeError"])
    def test_outputs_zipfile_cannot_open_rejected(self, tmp_path, offset,
                                                  value, message):
        """zipfile refuses an entry that needs zip version 6.4
        (NotImplementedError) and an encrypted one (RuntimeError); so does
        load_outputs, as unreadable outputs. The byte changed is the first
        central-directory entry's version-needed (offset 6) or flag (offset
        8) field."""
        path, _ = self._outputs_with(tmp_path, "p_cls", lambda a: a)
        data = bytearray(path.read_bytes())
        data[data.index(b"PK\x01\x02") + offset] = value
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"o\.npz: unreadable network "
                                             rf"outputs: .*{message}"):
            load_outputs(path)

    @pytest.mark.parametrize("field", ["p_start", "p_cls"])
    @pytest.mark.parametrize("convert", [
        lambda a: a + 1j,
        lambda a: a.astype("datetime64[s]"),
        lambda a: a > 0.5,
        lambda a: a.astype(np.int64),
        lambda a: np.rec.fromarrays([a], names="x"),
    ], ids=["complex", "datetime64", "bool", "int", "structured"])
    def test_outputs_that_are_not_real_floats_rejected(self, tmp_path,
                                                       field, convert):
        path, _ = self._outputs_with(tmp_path, field, convert)
        with pytest.raises(ValueError,
                           match=rf"o\.npz: network output {field} must be "
                                 r"a real floating-point array"):
            load_outputs(path)
