"""Numpy fallback for the convolution hot kernels.

Both passes run on float32 matrix products (BLAS sgemm), one chunk at a
time.  The forward has two loops.  The first groups whole images into a
chunk whose patch matrix stays within ``_STRIP_BUDGET`` and runs one
GEMM per chunk.  When one image's patches alone exceed the budget, as
for full-HD frames, the second walks each image in bands of output rows.
A band copies the input rows it reads into one zero-bordered buffer.  At
stride 1 with 16 or more input channels it then runs one GEMM per kernel
tap, each tap's operand a view of that buffer (kn2row: Vasudevan,
Anderson & Gregg, ASAP 2017), so no patch matrix is copied: at 1080p,
one BLAS thread, rf32's stage 1 went from 84-100 to 58-75 ms.  Fewer
channels (the 3-channel first stage) or a stride of 2 copy the band's
patches instead, and run one GEMM per output row: with K = 3 per tap,
tap GEMMs ran rf32's stage 0 at 1080p in 147-180 against 97-111 ms.
Its (16 x 27) @ (27 x N) product runs fastest at N near one 1080p output
row (see ``_bands``).  Against one GEMM per 4-row band and a separate
ReLU, that stage went from 104-118 to 69-80 ms (medians of two runs of
alternating calls), and rf64's stride-2 stage 0 at 640x480 from 7.2-8.7
to 6.0-7.2 ms.  With ``pool`` set the forward also max-pools each
chunk's or band's product 2x2 while it is still in cache, so
full-resolution activations are never written out.  The bias is added
to each product as it is written; pooled, to the pooled quarter.  Bias
after max is exact: float rounding is monotone, so max(a, c) + b rounds
to max(a + b, c + b).  With ``relu`` the biased chunk or band is then
rectified while still in cache, so a dense stage is one call.  The
backward folds each chunk of images into one GEMM for the kernel
gradient, summed over the chunks, and one for the input gradient.  The
input gradient is a full correlation of the dilated output gradient with
the flipped kernel (Dumoulin & Visin, arXiv:1603.07285), so it needs no
col2im scatter.  Backward patches are copied from a zero-padded,
channel-major buffer in which, at stride 1, each kernel tap is one
contiguous run per image.

Results are run-to-run deterministic, do not depend on how many images
share a call, and stay within 1e-5 of the naive fixed-loop summation.
"""

import numpy as np

NAME = "numpy"

# Patch-matrix budget per chunk of images or band of rows, in float32
# elements (~1 MB).  At that size malloc serves every chunk from reused
# heap memory and the chunk stays in cache.  32 MB strips were mapped
# fresh each time, and faulting their zeroed pages in cost a full-frame
# scan more than its matrix products did; with patches for the whole
# batch at once, a batch-64 training step took about 1.5x as long.
_STRIP_BUDGET = 250_000

# Bands of stride-1 convolutions with this many input channels or more
# run as one GEMM per kernel tap.
_TAP_MIN_CHANNELS = 16

# Accumulator budget per band of the tap path, in float32 elements
# (128 KB).  rf32's stage 1 at 1080p, one BLAS thread, min of 5 calls:
# 53-76 ms at 16 K, 32 K and 64 K; 79-101 ms at 128 K; 97-105 ms at
# _STRIP_BUDGET.
_TAP_BUDGET = 32_768


def _out_dim(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _row_strip(ckk, ow, oh):
    rows = max(1, _STRIP_BUDGET // max(1, ckk * ow))
    return min(rows, oh)


def _image_chunk(per_image, n):
    """Images per chunk whose patch matrices together fit the budget."""
    return max(1, min(n, _STRIP_BUDGET // max(1, per_image)))


def _gather(xp, kh, kw, stride, rows, ow):
    """Patch tensor (n, c, kh, kw, rows, ow) for the first ``rows`` output rows."""
    n, c, _, _ = xp.shape
    cols = np.empty((n, c, kh, kw, rows, ow), dtype=np.float32)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, :, ki, kj] = xp[
                :, :, ki : ki + rows * stride : stride, kj : kj + ow * stride : stride
            ]
    return cols


def conv2d_forward(x, w, b, stride, pad, pool=False, relu=False):
    """Convolution plus bias; with ``pool``, followed by a 2x2/stride-2
    max-pool that drops an odd last row and column; with ``relu``, then
    rectified in place.

    Outputs are computed per chunk of whole images, each gathering one
    patch matrix for one GEMM.  When one image's patches alone exceed the
    budget, ``_bands`` walks each image in bands of output rows instead.
    Pooled, only the cells the pool keeps are computed, and they pool
    straight into the output.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    ckk = ic * kh * kw
    oh = _out_dim(h, kh, stride, pad)
    ow = _out_dim(wd, kw, stride, pad)
    strip = _row_strip(ckk, ow, oh)
    out_hw = (oh, ow)
    if pool:
        oh, ow = oh // 2 * 2, ow // 2 * 2
        strip = max(2, strip // 2 * 2)
        out_hw = (oh // 2, ow // 2)
    out = np.empty((n, oc, *out_hw), dtype=np.float32)
    if strip < oh:
        return _bands(x, w, b, stride, pad, oh, ow, strip, pool, relu, out)
    imgs = _image_chunk(ckk * oh * ow, n)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    w_mat = w.reshape(oc, ckk)
    bias = b.reshape(1, oc, 1, 1)
    for i0 in range(0, n, imgs):
        i1 = min(i0 + imgs, n)
        cols = _gather(xp[i0:i1], kh, kw, stride, oh, ow)
        flat = cols.reshape(i1 - i0, ckk, oh * ow)
        dst = out[i0:i1]
        if pool:
            maxpool2x2(np.matmul(w_mat, flat).reshape(i1 - i0, oc, oh, ow), dst)
        else:
            np.matmul(w_mat, flat, out=dst.reshape(i1 - i0, oc, oh * ow))
        dst += bias
        if relu:
            np.maximum(dst, 0.0, out=dst)
    return out


def _tap_rows(oc, wp, oh, pool):
    """Output rows per band of the tap path: the band's (oc, rows*wp)
    accumulator fits _TAP_BUDGET; pooled, an even count of at least 2."""
    rows = max(1, _TAP_BUDGET // (oc * wp))
    if pool:
        rows = max(2, rows // 2 * 2)
    return min(rows, oh)


def _bands(x, w, b, stride, pad, oh, ow, strip, pool, relu, out):
    """Convolution of one image at a time in bands of output rows.

    A band's input rows sit zero-bordered in one flat (c, rows_in*wp + kw - 1)
    buffer, wp the padded width.  At stride 1 with at least
    ``_TAP_MIN_CHANNELS`` channels, ``_tap_rows`` rows make a band, run as
    one GEMM per kernel tap (kn2row) summed into one accumulator: output
    row r, tap (ki, kj) reads the buffer from (r + ki)*wp + kj on, so each
    tap's operand for the whole band is the run of rows*wp floats at
    ki*wp + kj, a view, not a copy.  The accumulator's columns at or past
    ow read across the row end and are dropped.  Otherwise ``strip`` rows
    make a band.  Its patches are copied from the buffer's grid into one
    (rows, c, kh, kw, ow) block, allocated once per call, so each output
    row's (K, ow) patch matrix is contiguous, and one batched matmul runs
    one GEMM per output row.  For rf32's stage 0 (oc = 16, K = 27), one
    BLAS thread, OpenBLAS ran the (16 x 27) @ (27 x N) product at 52-54
    GFLOP/s for N = 480, 62 for 960, 66 for 1920 (one 1080p row), 45-58
    for 3840 and 7680 (the 2- and 4-row bands it replaces) and 33-34 for
    15360.  The block is filled from a sliding-window view of the grid in
    one copy; nine tap copies took 7-10% longer on that stage.

    Either way the epilogue pools, adds the bias and, with ``relu``,
    rectifies; the per-row product does so in temporaries of its own
    (row, channel, column) layout and is copied into ``out`` last.
    """
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    wp = wd + 2 * pad
    taps = stride == 1 and c >= _TAP_MIN_CHANNELS
    rows = _tap_rows(oc, wp, oh, pool) if taps else strip
    rows_in = (rows - 1) * stride + kh
    buf = np.zeros((c, rows_in * wp + kw - 1), dtype=np.float32)
    grid = buf[:, : rows_in * wp].reshape(c, rows_in, wp)
    if taps:
        (t0, off0), *rest = [
            (np.ascontiguousarray(w[:, :, ki, kj]), ki * wp + kj)
            for ki in range(kh)
            for kj in range(kw)
        ]
        acc = np.empty((oc, rows * wp), dtype=np.float32)
        prod = np.empty_like(acc)
    else:
        w_mat = w.reshape(oc, -1)
        block = np.empty((rows, c, kh, kw, ow), dtype=np.float32)
        # Row r, tap (ki, kj), column j of a band's patches: its grid cell
        # (r*stride + ki, j*stride + kj), so one copy fills every tap.
        patches = np.lib.stride_tricks.sliding_window_view(grid, (kh, kw), axis=(1, 2))
        patches = patches[:, ::stride, ::stride].transpose(1, 0, 3, 4, 2)
    bias = b.reshape(oc, 1, 1)
    for i in range(n):
        for r0 in range(0, oh, rows):
            m = min(rows, oh - r0)
            lo = r0 * stride - pad
            top, end = max(lo, 0), min(lo + (m - 1) * stride + kh, h)
            grid[:, : top - lo] = 0
            grid[:, top - lo : end - lo, pad : pad + wd] = x[i, :, top:end]
            grid[:, end - lo :] = 0
            rs = slice(r0 // 2, (r0 + m) // 2) if pool else slice(r0, r0 + m)
            if taps:
                span = m * wp
                a, p = acc[:, :span], prod[:, :span]
                np.matmul(t0, buf[:, off0 : off0 + span], out=a)
                for tap, off in rest:
                    np.matmul(tap, buf[:, off : off + span], out=p)
                    a += p
                res, dst = a.reshape(oc, m, wp)[:, :, :ow], out[i, :, rs]
            else:
                block[:m] = patches[:m, ..., :ow]
                # The (m, oc, ow) product, read as (oc, m, ow), is pooled,
                # biased and rectified in temporaries of its own layout;
                # pooling it straight into out measured slower.
                res = np.matmul(w_mat, block[:m].reshape(m, -1, ow)).transpose(1, 0, 2)
                dst = None
            if pool:
                dst = maxpool2x2(res, dst)
            elif dst is None:
                dst = res
            else:
                dst[...] = res
            dst += bias
            if relu:
                np.maximum(dst, 0.0, out=dst)
            if not taps:
                out[i, :, rs] = dst
    return out


def maxpool2x2(x, out=None):
    """2x2/stride-2 max of x (..., 2*h2, 2*w2) into out (..., h2, w2), or
    into a new array in x's memory order.

    The max over row pairs first, whose operands are whole contiguous
    rows, then over column pairs of that half-size result: two passes
    instead of three strided ones, about a third faster at rf32's
    training and 1080p shapes.  On ties
    between +0.0 and -0.0 the sign of the result is unspecified; every
    other tie returns the shared value.
    """
    rows = np.maximum(x[..., 0::2, :], x[..., 1::2, :])
    return np.maximum(rows[..., 0::2], rows[..., 1::2], out=out)


def conv2d_backward(x, w, stride, pad, grad_out, input_grad=True):
    """Input, kernel and bias gradients as GEMMs folded over chunks of images.

    Each chunk's kernel-gradient patch matrix fits the budget; the chunk
    size does not depend on ``input_grad``, so neither do the bytes of the
    kernel gradient.  With ``input_grad`` false the input gradient is not
    computed and is returned as None.
    """
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    width = wd + 2 * pad if stride == 1 else ow  # as in _backward_chunk
    imgs = _image_chunk(ic * kh * kw * oh * width, n)
    grad_b = grad_out.sum(axis=(0, 2, 3), dtype=np.float32)
    grad_w = None
    grad_x = np.empty_like(x) if input_grad else None
    for i0 in range(0, n, imgs):
        i1 = min(i0 + imgs, n)
        gw, gx = _backward_chunk(x[i0:i1], w, stride, pad, grad_out[i0:i1], input_grad)
        if grad_w is None:
            grad_w = gw
        else:
            grad_w += gw
        if input_grad:
            grad_x[i0:i1] = gx
    # (K, oc) then transposed: OpenBLAS runs this orientation faster.
    return grad_x, grad_w.T.copy().reshape(oc, ic, kh, kw), grad_b


def _backward_chunk(x, w, stride, pad, grad_out, input_grad):
    """Kernel gradient as a (K, oc) matrix and the input gradient, or None,
    of one chunk of images, each from one batch-folded GEMM."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    # At stride 1 each output row is wp wide; the columns at or past ow
    # read across the row end and get zero gradient.
    width = wp if stride == 1 else ow
    g = grad_out.transpose(1, 0, 2, 3)  # (oc, n, oh, ow)

    xbuf = _padded_rows(x.transpose(1, 0, 2, 3), hp, wp, pad, pad, 1, stride, kw)
    cols = _wide_patches(xbuf, wp, kh, kw, stride, oh, width)
    g_wide = np.zeros((oc, n, oh, width), dtype=np.float32)
    g_wide[..., :ow] = g
    grad_w = np.matmul(cols, g_wide.reshape(oc, -1).T)
    del cols, g_wide
    if not input_grad:
        return grad_w, None

    # grad_x[i, j] = sum over taps of w[a, b] * g_dilated[i + pad - a, j + pad - b]:
    # a stride-1 correlation of the flipped kernel over g_dilated padded by
    # k - 1 - pad.  Placing g at every stride-th cell dilates it.
    gh, gw = h + kh - 1, wd + kw - 1
    gbuf = _padded_rows(g, gh, gw, kh - 1 - pad, kw - 1 - pad, stride, 1, kw)
    gcols = _wide_patches(gbuf, gw, kh, kw, 1, h, gw)
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ic, oc * kh * kw)
    grad_x = np.matmul(w_flip, gcols).reshape(ic, n, h, gw)[..., :wd]
    return grad_w, grad_x.transpose(1, 0, 2, 3)


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
