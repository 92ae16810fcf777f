"""The tap-window convolution against the per-tap reference implementation.

``_conv`` and its gradients, ``_conv_input_grad`` and ``_conv_weight_grad``,
serve both the 1-D layers (as D = 1 maps) and the 2-D confidence layer. The
reference below is the earlier copy-per-tap convolution, kept verbatim:
every output and gradient must match it at 1e-12, relative to the largest
magnitude of the reference.
"""

import numpy as np
import pytest

from tadkit.model import _conv, _conv_input_grad, _conv_weight_grad


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
