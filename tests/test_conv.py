"""The tap-window convolution against the per-tap reference implementation.

``_conv`` and its gradients, ``_conv_input_grad`` and ``_conv_weight_grad``,
serve both the 1-D layers (as D = 1 maps) and the 2-D confidence layer. The
reference below is the earlier copy-per-tap convolution, kept verbatim:
every output and gradient must match it at 1e-12, relative to the largest
magnitude of the reference. ``_conv`` must also return a C-contiguous array
equal to the padded-width view that it returned before, and the confidence
heads, one matmul over the flattened map, must match the ``np.tensordot``
form at 1e-12, forward and weight gradients.
"""

import numpy as np
import pytest

from tadkit.model import (ModelConfig, _backward_batch, _conv,
                          _conv_input_grad, _conv_weight_grad,
                          _forward_batch, _padded, _sigmoid)
from test_model import perturbed_params


def _conv_backward(gout, x, w):
    """Gradients of _conv w.r.t. (x, w, b)."""
    return (_conv_input_grad(gout, w), *_conv_weight_grad(gout, x, w))


def _pad1d(x: np.ndarray, p: int) -> np.ndarray:
    b, c, t = x.shape
    xp = np.zeros((b, c, t + 2 * p))
    xp[:, :, p:p + t] = x
    return xp


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (B, Ci, T), w (Co, Ci, K) -> (B, Co, T), same padding
    _, _, t = x.shape
    k = w.shape[2]
    xp = _pad1d(x, k // 2)
    out = np.empty((x.shape[0], w.shape[0], t))
    out[:] = b[None, :, None]
    for j in range(k):
        out += np.tensordot(xp[:, :, j:j + t], w[:, :, j],
                            axes=([1], [1])).transpose(0, 2, 1)
    return out


def _conv1d_backward(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    _, _, t = x.shape
    k = w.shape[2]
    p = k // 2
    xp = _pad1d(x, p)
    gb = gout.sum(axis=(0, 2))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for j in range(k):
        xs = xp[:, :, j:j + t]
        gw[:, :, j] = np.tensordot(gout, xs, axes=([0, 2], [0, 2]))
        gxp[:, :, j:j + t] += np.tensordot(gout, w[:, :, j],
                                           axes=([1], [0])).transpose(0, 2, 1)
    return gxp[:, :, p:p + t], gw, gb


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    b, c, d, t = x.shape
    xp = np.zeros((b, c, d + 2 * p, t + 2 * p))
    xp[:, :, p:p + d, p:p + t] = x
    return xp


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (B, Ci, D, T), w (Co, Ci, K, K) -> (B, Co, D, T), same padding
    _, _, d, t = x.shape
    k = w.shape[2]
    xp = _pad2d(x, k // 2)
    out = np.empty((x.shape[0], w.shape[0], d, t))
    out[:] = b[None, :, None, None]
    for kd in range(k):
        for kt in range(k):
            out += np.tensordot(xp[:, :, kd:kd + d, kt:kt + t],
                                w[:, :, kd, kt],
                                axes=([1], [1])).transpose(0, 3, 1, 2)
    return out


def _conv2d_backward(gout: np.ndarray, x: np.ndarray, w: np.ndarray):
    _, _, d, t = x.shape
    k = w.shape[2]
    p = k // 2
    xp = _pad2d(x, p)
    gb = gout.sum(axis=(0, 2, 3))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for kd in range(k):
        for kt in range(k):
            xs = xp[:, :, kd:kd + d, kt:kt + t]
            gw[:, :, kd, kt] = np.tensordot(gout, xs,
                                            axes=([0, 2, 3], [0, 2, 3]))
            gxp[:, :, kd:kd + d, kt:kt + t] += np.tensordot(
                gout, w[:, :, kd, kt], axes=([1], [0])).transpose(0, 3, 1, 2)
    return gxp[:, :, p:p + d, p:p + t], gw, gb


def _conv_padded_view(x, w, b):
    """The earlier _conv, verbatim: its output is a view of the (B, Co,
    D*(T+2pt)) sums that drops the padded columns."""
    _, _, d, t = x.shape
    _, _, kd, kt = w.shape
    width = t + 2 * (kt // 2)
    n = d * width
    xp, inner = _padded(x.shape[1], d, t, kd // 2, kt // 2)
    out = np.empty((x.shape[0], w.shape[0], n))
    out[:] = b[None, :, None]
    tmp = np.empty(out.shape[1:])
    for o, xs in zip(out, x):
        inner[...] = xs
        for a in range(kd):
            for c in range(kt):
                off = a * width + c
                np.matmul(w[:, :, a, c], xp[:, off:off + n], out=tmp)
                o += tmp
    return out.reshape(*out.shape[:2], d, width)[..., :t]


def assert_rel_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    assert np.abs(got - want).max() <= tol * scale


# (B, C_in, C_out, D, T)
SHAPES = {
    "D=1,T=1": (2, 3, 3, 1, 1),
    "kernel wider than map": (2, 3, 4, 2, 3),
    "C_in != C_out": (3, 5, 2, 6, 9),
    "A5 batch": (32, 8, 8, 64, 64),
    "paper shape": (1, 32, 32, 100, 100),
}
KERNELS = (1, 3, 5, 7)


def _case(shape, k, kd):
    b, ci, co, d, t = SHAPES[shape]
    rng = np.random.default_rng([k, kd, *SHAPES[shape]])
    x = rng.normal(size=(b, ci, d, t))
    w = rng.normal(size=(co, ci, kd, k))
    bias = rng.normal(size=co)
    gout = rng.normal(size=(b, co, d, t))
    return x, w, bias, gout


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("shape", SHAPES)
def test_conv2d_matches_reference(shape, k):
    x, w, bias, gout = _case(shape, k, k)
    assert_rel_close(_conv(x, w, bias), _conv2d(x, w, bias))
    for got, want in zip(_conv_backward(gout, x, w),
                         _conv2d_backward(gout, x, w)):
        assert_rel_close(got, want)


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("shape", SHAPES)
def test_conv1d_is_the_d1_case(shape, k):
    """Each map row is a 1-D sequence: the D = 1, KD = 1 convolution of a
    row matches the 1-D reference."""
    x, w, bias, gout = _case(shape, k, 1)
    x, gout = x[:, :, :1], gout[:, :, :1]
    assert_rel_close(_conv(x, w, bias)[:, :, 0],
                     _conv1d(x[:, :, 0], w[:, :, 0], bias))
    gx, gw, gb = _conv_backward(gout, x, w)
    want = _conv1d_backward(gout[:, :, 0], x[:, :, 0], w[:, :, 0])
    for got, ref in zip((gx[:, :, 0], gw[:, :, 0], gb), want):
        assert_rel_close(got, ref)


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("shape", ["A5 batch", "paper shape"])
def test_conv_output_is_contiguous_and_unchanged(shape, k):
    x, w, bias, _ = _case(shape, k, k)
    got = _conv(x, w, bias)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _conv_padded_view(x, w, bias))


HEAD_SHAPES = {
    "A5 batch": dict(c_h=8, t_scale=64, d_max=64, n_samples=8, batch_size=32),
    "paper shape": dict(c_h=32, t_scale=100, d_max=100, n_samples=32,
                        batch_size=2),
}
HEAD_OUTPUTS = ("p_start", "p_end", "p_cls", "p_reg")


@pytest.mark.parametrize("shape", HEAD_SHAPES)
def test_heads_match_tensordot(shape):
    cfg = ModelConfig(c_in=4, seed=0, **HEAD_SHAPES[shape])
    rng = np.random.default_rng(11)
    params = perturbed_params(cfg, rng)
    x = rng.normal(size=(cfg.batch_size, cfg.c_in, cfg.t_scale))
    fwd = _forward_batch(params, x, cfg, None)
    hidden2d = fwd["hidden2d"].copy()  # the backward pass reuses its buffer
    for head in ("cls", "reg"):
        z = np.tensordot(hidden2d, params[f"{head}_w"], axes=([1], [0]))
        assert_rel_close(fwd[f"p_{head}"],
                         _sigmoid(z + params[f"{head}_b"][0]))
    g_out = {name: rng.normal(size=fwd[name].shape) for name in HEAD_OUTPUTS}
    grads = _backward_batch(params, fwd, *g_out.values())
    for head in ("cls", "reg"):
        p = fwd[f"p_{head}"]
        gz = g_out[f"p_{head}"] * p * (1.0 - p)
        assert_rel_close(grads[f"{head}_w"], np.tensordot(
            gz, hidden2d, axes=([0, 1, 2], [0, 2, 3])))
