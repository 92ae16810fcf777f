"""The literal proposal sampler: a test oracle for the fused proposal layer.

``proposals.sample_proposal_features`` samples N points per valid cell,
masks them and reduces them over N as one (D*T, t_in) matmul, so the
(..., N, D, T) tensor of sample points never exists in the library. This
module builds it from the ``SamplingMatrix`` fields alone, point by point
(``sample_points``), along with its adjoint (``sample_points_adjoint``),
so a test can sample, mask and contract over N the long way and compare.
``test_proposals.py`` checks these against naive interpolation loops.
"""

from __future__ import annotations

import numpy as np

from tadkit.proposals import SamplingMatrix


def taps(sm: SamplingMatrix
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(left column, right column, left weight, right weight), each
    (n_valid, N). Out-of-range points get weight 0 on column 0; the right
    column is clipped to t_in - 1 where its weight is 0."""
    left = np.where(sm.in_range, sm.i0, 0)
    right = np.minimum(left + 1, sm.t_in - 1)
    w_left = np.where(sm.in_range, 1.0 - sm.frac, 0.0)
    w_right = np.where(sm.in_range, sm.frac, 0.0)
    return left, right, w_left, w_right


def sample_points(hidden: np.ndarray, sm: SamplingMatrix) -> np.ndarray:
    """Every sample point of every cell: (..., t_in) -> (..., N, D, T).

    A pure linear map, W_n for each n; entries at invalid cells and
    out-of-range sample points are zero.
    """
    hidden = np.asarray(hidden)
    if hidden.shape[-1] != sm.t_in:
        raise ValueError(
            f"hidden width {hidden.shape[-1]} != sampling matrix t_in "
            f"{sm.t_in}")
    lead = hidden.shape[:-1]
    flat = hidden.reshape(-1, sm.t_in)
    left, right, w_left, w_right = taps(sm)
    vals = flat[:, left] * w_left + flat[:, right] * w_right  # (M, cells, N)
    size = sm.grid.d_max * sm.grid.t_scale
    out = np.zeros((flat.shape[0], sm.n_samples, size))
    out[:, :, sm.cells] = vals.transpose(0, 2, 1)
    return out.reshape(*lead, sm.n_samples, sm.grid.d_max, sm.grid.t_scale)


def sample_points_adjoint(grad_out: np.ndarray,
                          sm: SamplingMatrix) -> np.ndarray:
    """Adjoint of sample_points: (..., N, D, T) -> (..., t_in)."""
    grad_out = np.asarray(grad_out)
    size = sm.grid.d_max * sm.grid.t_scale
    lead = grad_out.shape[:-3]
    flat = grad_out.reshape(-1, sm.n_samples, size)
    rows = np.arange(flat.shape[0])[:, None] * sm.t_in
    out = np.zeros(flat.shape[0] * sm.t_in)
    left, right, w_left, w_right = taps(sm)
    for n, g in enumerate(flat[:, :, sm.cells].transpose(1, 0, 2)):
        for cols, wts in ((left, w_left), (right, w_right)):
            out += np.bincount((rows + cols[:, n]).ravel(),
                               (g * wts[:, n]).ravel(), minlength=out.size)
    return out.reshape(*lead, sm.t_in)


def reduction_weight_grad(sm: SamplingMatrix,
                          outer: np.ndarray) -> np.ndarray:
    """Gradient of ``<outer, W_r>`` w.r.t. ``reduce_w``: (N,), entry n
    ``<outer, W_n>`` for a (D*T, t_in) matrix ``outer``, summed over the
    two taps of every point as ``proposals.sample_adjoint`` sums them."""
    left, right, w_left, w_right = taps(sm)
    base = sm.cells[:, None] * sm.t_in
    idx = np.stack([base + left, base + right])
    wts = np.stack([w_left, w_right])
    return (outer.reshape(-1)[idx] * wts).sum(axis=(0, 1))
