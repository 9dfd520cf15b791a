"""The two five-convolution detector variants and their output geometry.

Both variants share kernels and channel counts; the 64-pixel variant runs
its first convolution at stride 2 so that both collapse a training-size
input to a single 2-channel output cell.  Four 2x2 poolings give output
strides of 16 px (rf32) and 32 px (rf64) when the stack is slid over a
larger frame.

Pruned channel widths live in ``CHANNELS`` so alternative prunings are a
one-line change.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .layers import (
    ConvLayer,
    conv2d_backward,
    conv2d_forward,
    maxpool2x2_backward,
    maxpool2x2_forward,
    maxpool2x2_infer,  # noqa: F401  (the benchmark tracer wraps this name)
    relu_infer,  # noqa: F401  (the benchmark tracer wraps this name)
    relu_backward,
    relu_forward,
)

RF32 = "rf32"
RF64 = "rf64"
VARIANTS = (RF32, RF64)

# Channel widths of the four feature convolutions (quartered VGG-16 front).
CHANNELS = (16, 16, 32, 32)

WINDOW_PX = {RF32: 32, RF64: 64}
STRIDE_PX = {RF32: 16, RF64: 32}
_FIRST_CONV_STRIDE = {RF32: 1, RF64: 2}
_FORMAT_VERSION = 1


@dataclass
class LayerSpec:
    """One stage of the stack: convolution plus optional ReLU / 2x2 pool."""

    conv: ConvLayer
    relu: bool
    pool: bool


@dataclass
class NetworkSpec:
    """Five-convolution network: four feature stages and a 2-channel head.

    The flattened post-ReLU, post-pool activations of the last feature
    stage, which are the head's input, are the embeddings the regularizer
    acts on.  Immutable once trained; safe to share read-only across
    threads.
    """

    variant: str
    layers: list

    @property
    def window_px(self):
        return WINDOW_PX[self.variant]

    @property
    def stride_px(self):
        return STRIDE_PX[self.variant]


@dataclass
class OutputGeometry:
    """Maps heatmap grid cells to window positions in the source image."""

    grid_h: int
    grid_w: int
    stride_px: int
    window_px: int


def _architecture(variant):
    """Per-layer layout of a variant, in order: (kernel shape, stride, pad,
    relu, pool) with kernel shape (out_ch, in_ch, kh, kw)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    plan = []
    in_ch = 3
    for i, out_ch in enumerate(CHANNELS):
        stride = _FIRST_CONV_STRIDE[variant] if i == 0 else 1
        plan.append(((out_ch, in_ch, 3, 3), stride, 1, True, True))
        in_ch = out_ch
    plan.append(((2, in_ch, 2, 2), 1, 0, False, False))
    return plan


def build_model(variant, seed):
    """Freshly initialized network for a variant.

    Kernels are fan-in-scaled uniform draws from the given seed; biases
    start at zero.
    """
    plan = _architecture(variant)
    rng = np.random.default_rng(seed)
    layers = []
    for shape, stride, pad, relu, pool in plan:
        conv = ConvLayer(
            kernel=_init_kernel(rng, *shape),
            bias=np.zeros(shape[0], dtype=np.float32),
            stride=stride,
            pad=pad,
        )
        layers.append(LayerSpec(conv=conv, relu=relu, pool=pool))
    return NetworkSpec(variant=variant, layers=layers)


def _init_kernel(rng, out_ch, in_ch, kh, kw):
    # sqrt(6/fan_in) keeps activation variance steady through the ReLU
    # stages; smaller scales stall the first epochs at this depth.
    fan_in = in_ch * kh * kw
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(out_ch, in_ch, kh, kw)).astype(np.float32)


def parameters(model):
    """Learnable arrays in a fixed order: kernel, bias per layer."""
    out = []
    for spec in model.layers:
        out.append(spec.conv.kernel)
        out.append(spec.conv.bias)
    return out


def output_geometry(variant, input_h, input_w):
    """Heatmap grid produced by sliding the window over an input frame."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    window = WINDOW_PX[variant]
    stride = STRIDE_PX[variant]
    if input_h < window or input_w < window:
        raise ValueError(
            f"input {input_h}x{input_w} smaller than the {window}px window"
        )
    return OutputGeometry(
        grid_h=(input_h - window) // stride + 1,
        grid_w=(input_w - window) // stride + 1,
        stride_px=stride,
        window_px=window,
    )


def _crop_even(x):
    return x[:, :, : x.shape[2] - x.shape[2] % 2, : x.shape[3] - x.shape[3] % 2]


def forward_scores(model, x):
    """Full forward pass to the 2-channel score map.

    Each stage is one call: the convolution computes only the cells its
    pool keeps and max-pools them band by band, adding the bias after the
    max, which is exact because float rounding is monotone, and then
    applies the ReLU in place on the pooled quarter.

    Every downsampling step (each pooling, and a strided conv's input)
    sees even spatial dims, which realizes floor-based geometry on
    arbitrary frame sizes (remainder pixels drop on the right/bottom).
    Without the input crop a padded stride-2 conv on an odd dim would
    round up instead, minting a grid row whose window starts before the
    frame.  On even dims the crop is the whole, contiguous array, so
    training-size inputs pass through unchanged.
    """
    for spec in model.layers:
        if spec.conv.stride == 2:
            x = _crop_even(x)
        x = conv2d_forward(x, spec.conv, pool=spec.pool, relu=spec.relu)
    return x


def forward_training(model, x):
    """Forward pass on training-size input, keeping what backward needs.

    Returns (scores, embeddings, caches): scores N x 2 from the single
    output cell, embeddings N x d as the flattened post-pool activations of
    the embedding layer, and per-layer caches ``(conv_in, pool_idx)``.

    Each stage pools before its ReLU: max-pooling commutes with the
    monotone ReLU, so the outputs equal ReLU-then-pool while the ReLU
    touches a quarter of the elements.
    """
    n = x.shape[0]
    if x.shape[2] != model.window_px or x.shape[3] != model.window_px:
        raise ValueError(
            f"{model.variant} trains on {model.window_px}x{model.window_px} "
            f"inputs, got {x.shape[2]}x{x.shape[3]}"
        )
    caches = []
    for spec in model.layers:
        conv_in = x
        x = conv2d_forward(x, spec.conv)
        pool_idx = None
        if spec.pool:
            x, pool_idx = maxpool2x2_forward(x)
        if spec.relu:
            x = relu_forward(x)
        caches.append((conv_in, pool_idx))
    if x.shape[2:] != (1, 1):
        raise ValueError(f"training forward must end in a 1x1 cell, got {x.shape}")
    embedding_map = caches[-1][0]
    return x.reshape(n, 2), embedding_map.reshape(n, -1), caches


def backprop(model, caches, grad_scores, grad_embedding=None):
    """Reverse pass from the score gradient (plus an optional gradient
    injected at the embedding layer's output).

    Returns one (grad_kernel, grad_bias) pair per layer.  The injected
    embedding gradient bypasses the head entirely, so the head's parameter
    gradients depend only on the score gradient.

    A feature stage's ReLU mask comes from its output, the next layer's
    ``conv_in``: the rectified value is positive exactly where its input
    was, and the pooled pre-activation is never stored.
    """
    n = grad_scores.shape[0]
    param_grads = [None] * len(model.layers)

    head = model.layers[-1]
    conv_in, _ = caches[-1]
    g = grad_scores.reshape(n, 2, 1, 1).astype(np.float32, copy=False)
    g, gk, gb = conv2d_backward(conv_in, head.conv, g)
    param_grads[-1] = (gk, gb)

    if grad_embedding is not None:
        g = g + grad_embedding.reshape(g.shape).astype(np.float32, copy=False)

    for i in range(len(model.layers) - 2, -1, -1):
        spec = model.layers[i]
        conv_in, pool_idx = caches[i]
        if spec.relu:
            g = relu_backward(caches[i + 1][0], g)
        if spec.pool:
            g = maxpool2x2_backward(pool_idx, g)
        # Nothing reads the network input's gradient.
        g, gk, gb = conv2d_backward(conv_in, spec.conv, g, input_grad=i > 0)
        param_grads[i] = (gk, gb)
    return param_grads


def save_model(model, path):
    """Flat binary serialization; round-trips bit-exactly.

    Layout: magic ``VGGH``, format version u32, variant u8, then for each
    layer six u32 dims (out_ch, in_ch, kh, kw, stride, pad) followed by the
    kernel and bias as little-endian f32.
    """
    blob = bytearray()
    blob += b"VGGH"
    blob += struct.pack("<I", _FORMAT_VERSION)
    blob += struct.pack("<B", VARIANTS.index(model.variant))
    for spec in model.layers:
        conv = spec.conv
        oc, ic, kh, kw = conv.kernel.shape
        blob += struct.pack("<6I", oc, ic, kh, kw, conv.stride, conv.pad)
        blob += conv.kernel.astype("<f4", copy=False).tobytes()
        blob += conv.bias.astype("<f4", copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def need(nbytes, what):
        nonlocal off
        if off + nbytes > len(blob):
            raise DataFormatError(
                f"{path}: truncated while reading {what} at offset {off} "
                f"(need {nbytes} bytes, file has {len(blob) - off} left)"
            )
        chunk = blob[off : off + nbytes]
        off += nbytes
        return chunk

    if need(4, "magic") != b"VGGH":
        raise DataFormatError(f"{path}: bad magic at offset 0, expected VGGH")
    (version,) = struct.unpack("<I", need(4, "format version"))
    if version != _FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    (variant_id,) = struct.unpack("<B", need(1, "variant id"))
    if variant_id >= len(VARIANTS):
        raise DataFormatError(f"{path}: unknown variant id {variant_id}")
    variant = VARIANTS[variant_id]

    layers = []
    plan = _architecture(variant)
    for i, (shape, want_stride, want_pad, relu, pool) in enumerate(plan):
        oc, ic, kh, kw, stride, pad = struct.unpack(
            "<6I", need(24, f"layer {i} header")
        )
        if ((oc, ic, kh, kw), stride, pad) != (shape, want_stride, want_pad):
            raise DataFormatError(
                f"{path}: layer {i} has kernel {oc}x{ic}x{kh}x{kw}, stride "
                f"{stride}, pad {pad}; {variant} expects kernel "
                f"{'x'.join(map(str, shape))}, stride {want_stride}, pad {want_pad}"
            )
        ksize = oc * ic * kh * kw
        kernel = np.frombuffer(need(4 * ksize, f"layer {i} kernel"), dtype="<f4")
        bias = np.frombuffer(need(4 * oc, f"layer {i} bias"), dtype="<f4")
        conv = ConvLayer(
            kernel=kernel.reshape(shape).copy(),
            bias=bias.copy(),
            stride=stride,
            pad=pad,
        )
        layers.append(LayerSpec(conv=conv, relu=relu, pool=pool))
    if off != len(blob):
        raise DataFormatError(
            f"{path}: {len(blob) - off} trailing bytes after offset {off}"
        )
    return NetworkSpec(variant=variant, layers=layers)
