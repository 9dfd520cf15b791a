"""Minimal dense NCHW layer kit: convolution, 2x2 max-pooling, ReLU and
SGD with momentum.

Everything operates on float32 arrays of shape (batch, channels, height,
width) and is deterministic: the same inputs always produce bit-identical
outputs, so repeated training runs with one seed reproduce exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import backend
from ._convpy import maxpool2x2


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
    def out_channels(self):
        return self.kernel.shape[0]

    @property
    def in_channels(self):
        return self.kernel.shape[1]

    def out_size(self, h, w):
        """Output (oh, ow) for an (h, w) input; rejects degenerate sizes."""
        kh, kw = self.kernel.shape[2:]
        oh = (h + 2 * self.pad - kh) // self.stride + 1
        ow = (w + 2 * self.pad - kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"input {h}x{w} too small for kernel {kh}x{kw} "
                f"(stride {self.stride}, pad {self.pad})"
            )
        return oh, ow


def conv2d_forward(x, layer, pool=False, relu=False):
    """Cross-correlation plus bias over an NCHW batch.

    With ``pool`` the result is max-pooled 2x2/stride 2 in the same call,
    dropping an odd last row and column; the numpy backend never holds the
    unpooled output.  With ``relu`` the (pooled) result is then rectified
    in place, which gives the bytes of a separate ``relu_infer``.  The
    numpy backend multiplies patch matrices of whole images, or, on frames
    too large for one, walks bands of output rows; there a stride-1
    convolution with 16 or more input channels runs one matrix product
    per kernel tap, which sums in another order, and any other runs one
    per output row (see ``_convpy``).
    """
    x = _as_f32_nchw(x)
    if x.shape[1] != layer.in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels, layer expects {layer.in_channels}"
        )
    layer.out_size(x.shape[2], x.shape[3])
    return backend.conv2d_forward(
        x, layer.kernel, layer.bias, layer.stride, layer.pad, pool, relu
    )


def conv2d_backward(x, layer, grad_out, input_grad=True):
    """Gradients w.r.t. input, kernel and bias given the forward input.

    With ``input_grad`` false the input gradient is returned as None; the
    numpy backend then does not compute it.
    """
    x = _as_f32_nchw(x)
    grad_out = _as_f32_nchw(grad_out)
    oh, ow = layer.out_size(x.shape[2], x.shape[3])
    expected = (x.shape[0], layer.out_channels, oh, ow)
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape}, expected {expected}")
    return backend.conv2d_backward(
        x, layer.kernel, layer.stride, layer.pad, grad_out, input_grad
    )


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
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    return maxpool2x2(x, np.empty((n, c, h // 2, w // 2), dtype=np.float32))


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
