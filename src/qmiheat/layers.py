"""Minimal dense NCHW layer kit: convolution, 2x2 max-pooling, ReLU and
SGD with momentum.

Everything operates on float32 arrays of shape (batch, channels, height,
width) and is deterministic: the same inputs always produce bit-identical
outputs, so repeated training runs with one seed reproduce exactly.
Convolution results do not depend on how many images share a call.  The
tests hold the forward within 1e-6 absolute of a float64 fixed-loop
summation, for inputs in +-0.5 and weights scaled to the fan-in as the
models draw them, and the backward within 1e-5 relative of a float64
reference.

Both convolution passes run on float32 matrix products (BLAS sgemm).  The
forward is one loop, the walker, over units of work.  A unit is a chunk
of whole images whose patch matrices stay within ``_STRIP_BUDGET``, or,
when one image's patches alone exceed it, as for full-HD frames, a band
of ``_row_strip`` output rows of one image.  Each unit copies the input
rows it reads into one zero-bordered (c, rows_in, wp) grid per image, wp
the padded width, so the batch is never padded as a whole; at pad 0 a
chunk of whole images, such as the 2x2 head's or an input gradient's,
takes its patches straight from the input.

A unit's patches are copied from ``_patch_view`` of the grid, or at pad 0
of a chunk's images, in one copy, into one block allocated per call.  A
chunk then runs one GEMM per image, and a band one per output row, each
on a contiguous patch matrix.  For rf32's stage 0 (oc = 16, K = 27), one
BLAS thread, OpenBLAS ran the (16 x 27) @ (27 x N) product at 52-54
GFLOP/s for N = 480, 62 for 960, 66 for 1920 (one 1080p row), 45-58 for
3840 and 7680 (2- and 4-row GEMMs) and 33-34 for 15360.  One GEMM per
kernel tap (kn2row: Vasudevan, Anderson & Gregg, ASAP 2017), K = 3 each,
ran that stage at 1080p in 147-180 against 97-111 ms, and nine tap copies
in place of the one copy took 7-10% longer.  Against one GEMM per 4-row
band and a separate ReLU, that stage went from 104-118 to 69-80 ms
(medians of two runs of alternating calls), and rf64's stride-2 stage 0
at 640x480 from 7.2-8.7 to 6.0-7.2 ms.

A band's GEMM for one row sums its K = c*kh*kw patch rows in contiguous
blocks of at most ``_K_BLOCK``, adding each block's product to the sum;
the kernel is split into the matching column blocks once per call.
Shorter float32 sums round less.  Against the float64 loop at shape
(2, 32, 8, 150), K = 288, with fan-in-scaled weights, the worst error
over 30 seeds was 5.2e-7 in blocks of 96, none over 1e-6, and 1.21e-6
in one GEMM, 7 of 30 over.  Blocks of 144 read 9.2e-7 at 16 channels
(K = 144).  Whole-image chunks, every training conv among them, run one
GEMM over all of K.

With ``stage`` set, a dense feature stage is one call: every unit's
product, read as (images, oc, rows, ow), is max-pooled 2x2 while still
in cache, so full-resolution activations are never written out and only
the cells the pool keeps are computed.  The bias is then added, to the
pooled quarter: float rounding is monotone, so max(a, c) + b rounds to
max(a + b, c + b), and the biased unit is rectified.  This epilogue runs
in a temporary of the unit's own layout, copied into the output last;
pooling a band straight into the output measured slower.

The backward folds each chunk of images into one GEMM for the kernel
gradient, summed over the chunks: the chunk's patch matrix is one copy
from the same strided view that the forward's patches come from
(Chellapilla, Puri & Simard, IWFHR 2006), multiplied by the chunk's
output gradient.  The input gradient is a full correlation of the
dilated output gradient with the flipped kernel (Dumoulin & Visin,
arXiv:1603.07285), so the walker computes it and no col2im scatter is
needed.
"""

from dataclasses import dataclass, field

import numpy as np

# Patch-matrix budget per chunk of images or band of rows, in float32
# elements (~1 MB).  At that size malloc serves every chunk from reused
# heap memory and the chunk stays in cache.  32 MB strips were mapped
# fresh each time, and faulting their zeroed pages in cost a full-frame
# scan more than its matrix products did; with patches for the whole
# batch at once, a batch-64 training step took about 1.5x as long.
_STRIP_BUDGET = 250_000

# Largest K block, in patch rows, of a band's per-row GEMM: bands sum
# their products over K blocks, whole-image chunks in one GEMM.
_K_BLOCK = 96


def _out_dim(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


@dataclass
class ConvLayer:
    """Cross-correlation layer with zero padding.

    kernel: (out_ch, in_ch, kh, kw) float32, bias: (out_ch,) float32.
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ValueError("kernel must have shape (out_ch, in_ch, kh, kw)")
        oc, _, kh, kw = self.kernel.shape
        if oc < 1 or kh < 1 or kw < 1:
            raise ValueError("kernel dims must be >= 1")
        if self.bias.shape != (oc,):
            raise ValueError("bias length must equal out_ch")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.pad < 0:
            raise ValueError("pad must be non-negative")
        self.kernel = np.ascontiguousarray(self.kernel, dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)

    @property
    def in_channels(self):
        return self.kernel.shape[1]

    def out_size(self, h, w):
        """Output (oh, ow) for an (h, w) input; rejects degenerate sizes."""
        kh, kw = self.kernel.shape[2:]
        oh = _out_dim(h, kh, self.stride, self.pad)
        ow = _out_dim(w, kw, self.stride, self.pad)
        if oh < 1 or ow < 1:
            raise ValueError(
                f"input {h}x{w} too small for kernel {kh}x{kw} "
                f"(stride {self.stride}, pad {self.pad})"
            )
        return oh, ow


def _row_strip(ckk, ow, oh):
    rows = max(1, _STRIP_BUDGET // max(1, ckk * ow))
    return min(rows, oh)


def _image_chunk(per_image, n):
    """Images per chunk whose patch matrices together fit the budget."""
    return max(1, min(n, _STRIP_BUDGET // max(1, per_image)))


def _patch_view(src, kh, kw, stride, groups, per, ow):
    """Read-only (images, groups, c, kh, kw, per, ow) view of an NCHW
    grid: entry (i, g, ch, ki, kj, r, j) is src cell (i, ch,
    (g*per + r)*stride + ki, j*stride + kj), so one copy from it fills
    every tap of ``groups`` patch matrices of ``per`` output rows each."""
    si, sc, sr, sj = src.strides
    return np.lib.stride_tricks.as_strided(
        src,
        (src.shape[0], groups, src.shape[1], kh, kw, per, ow),
        (si, per * stride * sr, sc, sr, sj, stride * sr, stride * sj),
        writeable=False,
    )


def conv2d_forward(x, layer, stage=False):
    """Cross-correlation plus bias over an NCHW batch, run by the walker.

    With ``stage`` the call is a dense feature stage: the result is
    max-pooled 2x2/stride 2, dropping an odd last row and column, and
    rectified, which gives the bytes of ``np.maximum`` of the pooled plain
    result and 0; the unpooled output is never held.
    """
    x = _as_f32_nchw(x)
    n, c, h, wd = x.shape
    if c != layer.in_channels:
        raise ValueError(f"input has {c} channels, layer expects {layer.in_channels}")
    oh, ow = layer.out_size(h, wd)
    w, stride, pad = layer.kernel, layer.stride, layer.pad
    oc, _, kh, kw = w.shape
    ckk = c * kh * kw
    strip = _row_strip(ckk, ow, oh)
    out_hw = (oh, ow)
    if stage:
        oh, ow = oh // 2 * 2, ow // 2 * 2
        strip = max(2, strip // 2 * 2)
        out_hw = (oh // 2, ow // 2)
    out = np.empty((n, oc, *out_hw), dtype=np.float32)
    if out.size == 0:
        return out
    wp = wd + 2 * pad
    # A unit is ``imgs`` images by ``rows`` output rows; ``per`` of its
    # rows run as one GEMM, summed over K blocks of at most ``kb`` rows.
    if strip >= oh:
        imgs, rows, per, kb = _image_chunk(ckk * oh * ow, n), oh, oh, ckk
    else:
        imgs, rows, per, kb = 1, strip, 1, _K_BLOCK
    # At pad 0 a chunk of whole images takes its patches straight from x.
    direct = pad == 0 and strip >= oh
    if not direct:
        grid = np.zeros((imgs, c, (rows - 1) * stride + kh, wp), dtype=np.float32)
    w_mat = w.reshape(oc, ckk)
    w_blocks = [np.ascontiguousarray(w_mat[:, k : k + kb]) for k in range(0, ckk, kb)]
    # block[i, g] is the (K, per*ow) patch matrix of one GEMM.
    patches = _patch_view(x if direct else grid, kh, kw, stride, rows // per, per, ow)
    block = np.empty((imgs, *patches.shape[1:]), dtype=np.float32)
    bias = layer.bias.reshape(oc, 1, 1)
    for i0 in range(0, n, imgs):
        i1 = min(i0 + imgs, n)
        u = i1 - i0
        for r0 in range(0, oh, rows):
            m = min(rows, oh - r0)
            if not direct:
                lo = r0 * stride - pad
                top, end = max(lo, 0), min(lo + (m - 1) * stride + kh, h)
                grid[:u, :, : top - lo] = 0
                grid[:u, :, top - lo : end - lo, pad : pad + wd] = x[i0:i1, :, top:end]
                grid[:u, :, end - lo :] = 0
            g = m // per
            first = i0 if direct else 0
            block[:u, :g] = patches[first : first + u, :g]
            mats = block[:u, :g].reshape(u * g, ckk, per * ow)
            prod = np.matmul(w_blocks[0], mats[:, :kb])
            for k, w_k in zip(range(kb, ckk, kb), w_blocks[1:]):
                prod += np.matmul(w_k, mats[:, k : k + kb])
            res = prod.reshape(u, g, oc, -1).swapaxes(1, 2).reshape(u, oc, m, ow)
            if stage:
                res = _maxpool2x2(res)
            res += bias
            if stage:
                np.maximum(res, 0.0, out=res)
            rs = slice(r0 // 2, (r0 + m) // 2) if stage else slice(r0, r0 + m)
            out[i0:i1, :, rs] = res
    return out


def _maxpool2x2(x):
    """2x2/stride-2 max of x (..., 2*h2, 2*w2) as a new (..., h2, w2) array
    in x's memory order.

    The max over row pairs first, whose operands are whole contiguous
    rows, then over column pairs of that half-size result: two passes
    instead of three strided ones, about a third faster at rf32's
    training and 1080p shapes.  On ties between +0.0 and -0.0 the sign of
    the result is unspecified; every other tie returns the shared value.
    """
    rows = np.maximum(x[..., 0::2, :], x[..., 1::2, :])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


def conv2d_backward(x, layer, grad_out, input_grad=True):
    """Gradients w.r.t. input, kernel and bias given the forward input.

    With ``input_grad`` false the input gradient is returned as None and
    is not computed; the kernel gradient's bytes are the same.  The input
    gradient is ``conv2d_forward`` of the output gradient, dilated by the
    stride into zeros k - 1 larger than the input, with the flipped
    kernel, its in and out channels swapped.  Each chunk of images
    multiplies its (c*kh*kw, images*oh*ow) patch matrix, one copy from
    ``_patch_view``, by its output gradient.
    """
    x = _as_f32_nchw(x)
    grad_out = _as_f32_nchw(grad_out)
    n, c, h, wd = x.shape
    if c != layer.in_channels:
        raise ValueError(f"input has {c} channels, layer expects {layer.in_channels}")
    oh, ow = layer.out_size(h, wd)
    w, stride, pad = layer.kernel, layer.stride, layer.pad
    oc, ic, kh, kw = w.shape
    expected = (n, oc, oh, ow)
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape}, expected {expected}")
    grad_b = grad_out.sum(axis=(0, 2, 3), dtype=np.float32)
    # The input gradient first, and each chunk's buffers freed before the
    # next's: otherwise a training epoch page-faulted 2-4x as often.
    grad_x = None
    if input_grad:
        # Output cell i lands at i*stride + k - 1 - pad per axis; only a pad
        # of at least k drops any, those whose windows hold only padding.
        dh, dw = h + kh - 1, wd + kw - 1
        dilated = np.zeros((n, oc, dh, dw), dtype=np.float32)
        src_r, dst_r = _landing(kh - 1 - pad, oh, stride, dh)
        src_c, dst_c = _landing(kw - 1 - pad, ow, stride, dw)
        dilated[:, :, dst_r, dst_c] = grad_out[:, :, src_r, src_c]
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        grad_x = conv2d_forward(dilated, ConvLayer(w_flip, np.zeros(ic, dtype=np.float32)))
    ckk = ic * kh * kw
    imgs = _image_chunk(ckk * oh * ow, n)
    # The patches come from x itself at pad 0, else from one zero-bordered
    # grid whose interior each chunk refills.
    if pad:
        grid = np.zeros((imgs, c, h + 2 * pad, wd + 2 * pad), dtype=np.float32)
    grad_w = None
    for i0 in range(0, n, imgs):
        i1 = min(i0 + imgs, n)
        src = x[i0:i1]
        if pad:
            grid[: i1 - i0, :, pad : pad + h, pad : pad + wd] = src
            src = grid[: i1 - i0]
        # (c, kh, kw, images, oh, ow): one copy makes the (K, images*oh*ow) matrix.
        view = _patch_view(src, kh, kw, stride, 1, oh, ow)[:, 0].transpose(1, 2, 3, 0, 4, 5)
        cols = np.ascontiguousarray(view).reshape(ckk, -1)
        # Always a copy: a view would change the GEMM's operand order, and its bits.
        g = np.ascontiguousarray(grad_out[i0:i1].transpose(1, 0, 2, 3)).reshape(oc, -1)
        gw = np.matmul(cols, g.T)
        grad_w = gw if grad_w is None else grad_w + gw
        del cols, g
    # (K, oc) then transposed: OpenBLAS runs this orientation faster.
    return grad_x, grad_w.T.copy().reshape(oc, ic, kh, kw), grad_b


def _landing(start, count, step, size):
    """(source slice, grid slice) of the items start, start+step, ... that
    fall inside [0, size)."""
    i0 = max(0, -(start // step))
    i1 = max(i0, min(count, (size - 1 - start) // step + 1))
    return slice(i0, i1), slice(start + i0 * step, start + i1 * step, step)


def maxpool2x2_forward(x):
    """2x2/stride-2 max pooling; returns the output and an argmax map.

    The argmax map stores, per output cell, which of the four window
    positions won (row-major 0..3, first max on ties) and is what routes the
    gradient in the backward pass.  A window holding NaN pools to NaN with
    index 3.
    """
    x = _as_f32_nchw(x)
    out = maxpool2x2_infer(x)
    # The index counts the leading window positions that fall short of the
    # max, which is the row-major position of the first max.
    behind = x[:, :, 0::2, 0::2] != out
    idx = behind.view(np.uint8).copy()
    for view in (x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2]):
        behind &= view != out
        idx += behind
    return out, idx


def relu_infer(x):
    """In-place ReLU for inference paths that own their activations.

    Training calls relu_forward, which leaves its input untouched.
    """
    return np.maximum(x, 0.0, out=x)


def maxpool2x2_infer(x):
    """Pooled output only, without the argmax map backward needs.

    On ties between +0.0 and -0.0 the sign of the result is unspecified;
    every other tie returns the shared value.
    """
    x = _as_f32_nchw(x)
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    return _maxpool2x2(x)


def maxpool2x2_backward(idx, grad_out):
    """Routes each cell's gradient to the position recorded in the argmax map."""
    if idx.shape != grad_out.shape:
        raise ValueError("argmax map and grad_out shapes differ")
    n, c, h2, w2 = grad_out.shape
    grad_in = np.empty((n, c, h2 * 2, w2 * 2), dtype=np.float32)
    for k in range(4):
        np.multiply(grad_out, idx == k, out=grad_in[:, :, k // 2 :: 2, k % 2 :: 2])
    return grad_in


def relu_forward(x):
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    """Gradient mask: 1 where the forward input was positive, else 0."""
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype, copy=False)


@dataclass
class OptimizerState:
    """SGD-with-momentum state: one velocity buffer per parameter."""

    lr: float
    momentum: float
    velocity: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")

    @classmethod
    def for_params(cls, params, lr, momentum):
        state = cls(lr=lr, momentum=momentum)
        state.velocity = [np.zeros_like(p) for p in params]
        return state


def sgd_momentum_step(params, grads, state):
    """Classic momentum update, in place:

        v <- momentum * v - lr * g
        p <- p + v
    """
    if not (len(params) == len(grads) == len(state.velocity)):
        raise ValueError("params, grads and velocity must align")
    lr = np.float32(state.lr)
    mom = np.float32(state.momentum)
    for p, g, v in zip(params, grads, state.velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError("parameter, gradient and velocity shapes must agree")
        v *= mom
        v -= lr * g
        p += v


def _as_f32_nchw(x):
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected a rank-4 (n, c, h, w) array, got rank {x.ndim}")
    return np.ascontiguousarray(x, dtype=np.float32)
