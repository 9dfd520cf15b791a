"""Numpy fallback for the convolution hot kernels.

Forward and backward are realized as strided patch gathers feeding float32
matrix products (BLAS sgemm), processed in output-row strips so the patch
buffer stays bounded for full-HD frames.  Results are run-to-run
deterministic and stay within 1e-5 of the naive fixed-loop summation.
"""

import numpy as np

NAME = "numpy"

# Patch-buffer budget per strip, in float32 elements (~1 MB at batch 1).
# At that size malloc serves every strip from reused heap memory; a 32 MB
# buffer is mapped fresh for each strip, and faulting its zeroed pages in
# cost a full-frame scan more than its matrix products did.
_STRIP_BUDGET = 250_000


def _out_dim(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _row_strip(ckk, ow, oh):
    rows = max(1, _STRIP_BUDGET // max(1, ckk * ow))
    return min(rows, oh)


def _gather(xp, kh, kw, stride, r0, r1, ow):
    """Patch tensor (n, c, kh, kw, rows, ow) for output rows [r0, r1)."""
    n, c, _, _ = xp.shape
    rows = r1 - r0
    cols = np.empty((n, c, kh, kw, rows, ow), dtype=np.float32)
    for ki in range(kh):
        for kj in range(kw):
            i0 = r0 * stride + ki
            cols[:, :, ki, kj] = xp[
                :, :, i0 : i0 + rows * stride : stride, kj : kj + ow * stride : stride
            ]
    return cols


def conv2d_forward(x, w, b, stride, pad):
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    oh = _out_dim(h, kh, stride, pad)
    ow = _out_dim(wd, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    w_mat = w.reshape(oc, ic * kh * kw)
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    strip = _row_strip(ic * kh * kw, ow, oh)
    for r0 in range(0, oh, strip):
        r1 = min(r0 + strip, oh)
        cols = _gather(xp, kh, kw, stride, r0, r1, ow)
        flat = cols.reshape(n, ic * kh * kw, (r1 - r0) * ow)
        prod = np.matmul(w_mat, flat)  # (n, oc, rows*ow)
        out[:, :, r0:r1] = prod.reshape(n, oc, r1 - r0, ow)
    out += b.reshape(1, oc, 1, 1)
    return out


def conv2d_backward(x, w, stride, pad, grad_out):
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    w_mat = w.reshape(oc, ic * kh * kw)

    grad_b = grad_out.sum(axis=(0, 2, 3), dtype=np.float32)
    grad_w_mat = np.zeros((oc, ic * kh * kw), dtype=np.float32)
    grad_xp = np.zeros_like(xp)

    strip = _row_strip(ic * kh * kw, ow, oh)
    for r0 in range(0, oh, strip):
        r1 = min(r0 + strip, oh)
        rows = r1 - r0
        cols = _gather(xp, kh, kw, stride, r0, r1, ow)
        flat = cols.reshape(n, ic * kh * kw, rows * ow)
        go = grad_out[:, :, r0:r1].reshape(n, oc, rows * ow)
        grad_w_mat += np.matmul(go, flat.transpose(0, 2, 1)).sum(axis=0)
        gcols = np.matmul(w_mat.T, go).reshape(n, ic, kh, kw, rows, ow)
        for ki in range(kh):
            for kj in range(kw):
                i0 = r0 * stride + ki
                grad_xp[
                    :, :, i0 : i0 + rows * stride : stride, kj : kj + ow * stride : stride
                ] += gcols[:, :, ki, kj]

    grad_x = grad_xp[:, :, pad : pad + h, pad : pad + wd] if pad else grad_xp
    return grad_x, grad_w_mat.reshape(oc, ic, kh, kw), grad_b
