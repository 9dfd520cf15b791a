"""Numpy fallback for the convolution hot kernels.

Both passes feed patch matrices to float32 matrix products (BLAS sgemm).
The forward gathers its patches in output-row strips, so the patch buffer
stays bounded for full-HD frames.  With ``pool`` set it also max-pools
each strip's product 2x2 while it is still in cache, so full-resolution
activations are never written out, and adds the bias to the pooled
quarter.  Bias after max is exact: float rounding is monotone, so
max(a, c) + b rounds to max(a + b, c + b).  The backward runs only at
training size and has no strips: it folds the whole batch into one GEMM
for the kernel gradient and one for the input gradient.  The input
gradient is a full correlation of the dilated output gradient with the
flipped kernel (Dumoulin & Visin, arXiv:1603.07285), so it needs no
col2im scatter.  Backward patches are copied from a zero-padded,
channel-major buffer in which, at stride 1, each kernel tap is one
contiguous run per image.

Results are run-to-run deterministic and stay within 1e-5 of the naive
fixed-loop summation.
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


def conv2d_forward(x, w, b, stride, pad, pool=False):
    """Convolution plus bias; with ``pool``, followed by a 2x2/stride-2
    max-pool that drops an odd last row and column.

    Pooled, only the cells the pool keeps are computed, in strips of an
    even number of rows that pool straight into their rows of the output.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    oh = _out_dim(h, kh, stride, pad)
    ow = _out_dim(wd, kw, stride, pad)
    strip = _row_strip(ic * kh * kw, ow, oh)
    out_hw = (oh, ow)
    if pool:
        oh, ow = oh // 2 * 2, ow // 2 * 2
        strip = max(2, strip // 2 * 2)
        out_hw = (oh // 2, ow // 2)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    w_mat = w.reshape(oc, ic * kh * kw)
    out = np.empty((n, oc, *out_hw), dtype=np.float32)
    for r0 in range(0, oh, strip):
        r1 = min(r0 + strip, oh)
        cols = _gather(xp, kh, kw, stride, r0, r1, ow)
        flat = cols.reshape(n, ic * kh * kw, (r1 - r0) * ow)
        prod = np.matmul(w_mat, flat).reshape(n, oc, r1 - r0, ow)
        if pool:
            maxpool2x2(prod, out[:, :, r0 // 2 : r1 // 2])
        else:
            out[:, :, r0:r1] = prod
    out += b.reshape(1, oc, 1, 1)
    return out


def maxpool2x2(x, out):
    """2x2/stride-2 max of x (n, c, 2*h2, 2*w2) into out (n, c, h2, w2).

    Three strided maxima over the four window views.  On ties between
    +0.0 and -0.0 the sign of the result is unspecified; every other tie
    returns the shared value.
    """
    np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], out=out)
    np.maximum(out, x[:, :, 1::2, 0::2], out=out)
    np.maximum(out, x[:, :, 1::2, 1::2], out=out)
    return out


def conv2d_backward(x, w, stride, pad, grad_out, input_grad=True):
    """Input, kernel and bias gradients as batch-folded GEMMs.

    Runs only at training size, where one patch matrix for the whole batch
    takes a few MB, so there are no row strips.  With ``input_grad`` false
    the input gradient is not computed and is returned as None.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    # At stride 1 each output row is wp wide; the columns at or past ow
    # read across the row end and get zero gradient.
    width = wp if stride == 1 else ow
    g = grad_out.transpose(1, 0, 2, 3)  # (oc, n, oh, ow)

    grad_b = grad_out.sum(axis=(0, 2, 3), dtype=np.float32)
    xbuf = _padded_rows(x.transpose(1, 0, 2, 3), hp, wp, pad, pad, 1, stride, kw)
    cols = _wide_patches(xbuf, wp, kh, kw, stride, oh, width)
    g_wide = np.zeros((oc, n, oh, width), dtype=np.float32)
    g_wide[..., :ow] = g
    # (K, oc) then transposed: OpenBLAS runs this orientation faster.
    grad_w = np.matmul(cols, g_wide.reshape(oc, -1).T).T.copy().reshape(oc, ic, kh, kw)
    del cols, g_wide
    if not input_grad:
        return None, grad_w, grad_b

    # grad_x[i, j] = sum over taps of w[a, b] * g_dilated[i + pad - a, j + pad - b]:
    # a stride-1 correlation of the flipped kernel over g_dilated padded by
    # k - 1 - pad.  Placing g at every stride-th cell dilates it.
    gh, gw = h + kh - 1, wd + kw - 1
    gbuf = _padded_rows(g, gh, gw, kh - 1 - pad, kw - 1 - pad, stride, 1, kw)
    gcols = _wide_patches(gbuf, gw, kh, kw, 1, h, gw)
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ic, oc * kh * kw)
    grad_x = np.matmul(w_flip, gcols).reshape(ic, n, h, gw)[..., :wd]
    return np.ascontiguousarray(grad_x.transpose(1, 0, 2, 3)), grad_w, grad_b


def _padded_rows(a, hp, wp, top, left, step, stride, kw):
    """Zeroed channel-major buffer (c, n, flat) holding a (c, n, h, w) on an
    hp x wp grid at rows top::step and columns left::step.

    Entries that would land outside the grid are dropped; only a pad of at
    least the kernel size drops any, the gradients of outputs that see
    nothing but padding.  The flat length leaves room for every tap's run
    past the grid end: ``stride - 1`` rows plus ``kw - 1`` columns.
    """
    c, n, h, w = a.shape
    buf = np.zeros((c, n, (hp + stride - 1) * wp + kw - 1), dtype=np.float32)
    grid = buf[:, :, : hp * wp].reshape(c, n, hp, wp)
    src_r, dst_r = _landing(top, h, step, hp)
    src_c, dst_c = _landing(left, w, step, wp)
    grid[:, :, dst_r, dst_c] = a[:, :, src_r, src_c]
    return buf


def _landing(start, count, step, size):
    """(source slice, grid slice) of the items start, start+step, ... that
    fall inside [0, size)."""
    i0 = max(0, -(start // step))
    i1 = max(i0, min(count, (size - 1 - start) // step + 1))
    return slice(i0, i1), slice(start + i0 * step, start + i1 * step, step)


def _wide_patches(buf, wp, kh, kw, stride, oh, width):
    """Patch matrix (c*kh*kw, n*oh*width) from a _padded_rows buffer.

    Tap (ki, kj) of output row r starts at flat offset (r*stride + ki)*wp + kj,
    so at stride 1 each tap is one contiguous run of oh*wp floats per image.
    """
    c, n, _ = buf.shape
    cols = np.empty((c, kh, kw, n, oh, width), dtype=np.float32)
    span = oh * stride * wp
    for ki in range(kh):
        for kj in range(kw):
            off = ki * wp + kj
            rows = buf[:, :, off : off + span].reshape(c, n, oh, stride * wp)
            cols[:, ki, kj] = rows[..., : stride * width : stride]
    return cols.reshape(c * kh * kw, n * oh * width)
