"""Layer kit: convolution, pooling, ReLU, SGD against literal references."""

import numpy as np
import pytest
from conftest import (
    central_difference,
    conv2d_backward_oracle,
    conv2d_oracle,
    relative_error,
)

from qmiheat import layers
from qmiheat.layers import (
    ConvLayer,
    OptimizerState,
    conv2d_backward,
    conv2d_forward,
    maxpool2x2_backward,
    maxpool2x2_forward,
    maxpool2x2_infer,
    relu_backward,
    relu_forward,
    sgd_momentum_step,
)


def _layer(kernel, bias=None, stride=1, pad=0):
    kernel = np.asarray(kernel, dtype=np.float32)
    if bias is None:
        bias = np.zeros(kernel.shape[0], dtype=np.float32)
    return ConvLayer(kernel=kernel, bias=np.asarray(bias, dtype=np.float32), stride=stride, pad=pad)


def test_identity_kernel_preserves_input():
    k = np.zeros((1, 1, 3, 3), dtype=np.float32)
    k[0, 0, 1, 1] = 1.0
    x = np.arange(30, dtype=np.float32).reshape(1, 1, 5, 6)
    out = conv2d_forward(x, _layer(k, pad=1))
    assert np.array_equal(out, x)


def test_ones_kernel_counts_neighbourhood():
    # all-ones 3x3 kernel with pad 1 on an all-ones image counts the taps
    # that land inside: 9 in the interior, 6 on edges, 4 in corners
    x = np.ones((1, 1, 5, 5), dtype=np.float32)
    out = conv2d_forward(x, _layer(np.ones((1, 1, 3, 3)), pad=1))[0, 0]
    assert out[2, 2] == 9.0
    assert out[0, 2] == 6.0
    assert out[0, 0] == 4.0


def test_bias_is_added_per_channel():
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    out = conv2d_forward(x, _layer(np.zeros((3, 2, 1, 1)), bias=[1.0, -2.0, 0.5]))
    assert np.allclose(out[0, 0], 1.0)
    assert np.allclose(out[0, 1], -2.0)
    assert np.allclose(out[0, 2], 0.5)


def test_forward_matches_loop_reference_across_shapes(monkeypatch):
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        ic = int(rng.integers(1, 4))
        oc = int(rng.integers(1, 4))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        h = int(rng.integers(kh, kh + 6))
        w = int(rng.integers(kw, kw + 6))
        x = rng.uniform(-0.5, 0.5, size=(n, ic, h, w)).astype(np.float32)
        wt = rng.uniform(-0.5, 0.5, size=(oc, ic, kh, kw)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=oc).astype(np.float32)
        got = conv2d_forward(x, _layer(wt, bias=b, stride=stride, pad=pad))
        want = conv2d_oracle(x, wt, b, stride, pad)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-6

    # At the default budgets, a 16-channel 24x200 frame runs the tap path
    # in row bands, and rf32's stage 1 at batch 64 runs in image chunks
    # with a short last one, pooled (16 x 16 outputs) or not.
    assert layers._row_strip(16 * 9, 200, 24) < 24
    assert layers._row_strip(16 * 9, 16, 16) == 16
    assert 64 % layers._image_chunk(16 * 9 * 16 * 16, 64) != 0
    for shape, oc in (((1, 16, 24, 200), 2), ((64, 16, 16, 16), 1)):
        x = rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)
        limit = np.sqrt(6.0 / (16 * 9))
        wt = rng.uniform(-limit, limit, size=(oc, 16, 3, 3)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=oc).astype(np.float32)
        _assert_matches_oracle_pooled_and_not(x, wt, b, 1, 1)

    # Frames with 16 and 32 channels too large for one patch matrix run
    # the stride-1 tap path in row bands, pooled and not.  Under the band
    # budget set here the 16-channel frame, with odd output height and
    # width, runs in bands of 4 rows with a short last one; the 32-channel
    # frame is wide enough for its pooled bands to fall to 2 rows.  The
    # weights are drawn as build_model draws them, scaled to the fan-in: at
    # +-0.5 these sums reach 4-5 and their float32 rounding alone passes
    # 1e-6 (the patch-matrix strips read 1.6e-6 and 3.1e-6 there).
    monkeypatch.setattr(layers, "_TAP_BUDGET", 2 * 119 * 4)
    assert 15 % 4 == 3 and 15 % 2 == 117 % 2 == 1
    for n, ic, h, w, rows, pooled_rows in ((1, 16, 15, 117, 4, 4), (2, 32, 8, 150, 3, 2)):
        x = rng.uniform(-0.5, 0.5, size=(n, ic, h, w)).astype(np.float32)
        limit = np.sqrt(6.0 / (ic * 9))
        wt = rng.uniform(-limit, limit, size=(2, ic, 3, 3)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=2).astype(np.float32)
        assert ic >= layers._TAP_MIN_CHANNELS
        assert layers._row_strip(ic * 9, w, h) < h
        assert layers._tap_rows(2, w + 2, h, False) == rows
        assert layers._tap_rows(2, w + 2, h // 2 * 2, True) == pooled_rows
        _assert_matches_oracle_pooled_and_not(x, wt, b, 1, 1)

    # 3-channel frames too large for one patch matrix run patch-matrix
    # bands.  Under the budget set here the stride-1 frame runs in bands of
    # 4 rows with a short last one (pooled: 4, 4, 4, 2), and the stride-2
    # frame in bands of 7 and 1 (pooled: 6 and 2).
    monkeypatch.setattr(layers, "_STRIP_BUDGET", 27 * 117 * 4)
    assert layers._row_strip(27, 117, 15) == 4
    assert layers._row_strip(27, 59, 8) == 7
    x = rng.uniform(-0.5, 0.5, size=(2, 3, 15, 117)).astype(np.float32)
    limit = np.sqrt(6.0 / 27)
    wt = rng.uniform(-limit, limit, size=(2, 3, 3, 3)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, size=2).astype(np.float32)
    assert 3 < layers._TAP_MIN_CHANNELS
    for stride in (1, 2):
        _assert_matches_oracle_pooled_and_not(x, wt, b, stride, 1)

    # One image each with odd height and width, a 2x4 kernel and no
    # padding, so each output row's patch matrix holds 24 rows, not 27.
    # At stride 1 the 10 output rows run in bands of 7 and 3 (pooled: 6
    # and 4); at stride 2 the 6 rows run in bands of 5 and 1 (pooled: 4
    # and 2).
    limit = np.sqrt(6.0 / 24)
    wt = rng.uniform(-limit, limit, size=(3, 3, 2, 4)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, size=3).astype(np.float32)
    for (h, w), stride, oh, ow, rows, pooled_rows in (
        ((11, 75), 1, 10, 72, 7, 6),
        ((13, 187), 2, 6, 92, 5, 4),
    ):
        assert layers._row_strip(24, ow, oh) == rows and oh % rows
        assert rows // 2 * 2 == pooled_rows and oh // 2 * 2 % pooled_rows
        x = rng.uniform(-0.5, 0.5, size=(1, 3, h, w)).astype(np.float32)
        _assert_matches_oracle_pooled_and_not(x, wt, b, stride, 0)

    # Batches of five different images under a budget of two images' patch
    # matrices run in chunks of 2, 2 and 1, pooled or not, so rows left in
    # the buffer from an earlier chunk would show: stride 2 on odd sides,
    # odd output height and width that the pool drops a row and a column
    # of, and a 2x4 kernel with no padding.
    for (c, h, w), (kh, kw), stride, pad, (oh, ow) in (
        ((3, 9, 11), (3, 3), 2, 1, (5, 6)),
        ((2, 7, 9), (3, 3), 1, 1, (7, 9)),
        ((3, 8, 13), (2, 4), 1, 0, (7, 10)),
    ):
        ckk = c * kh * kw
        monkeypatch.setattr(layers, "_STRIP_BUDGET", 2 * ckk * oh * ow)
        assert layers._row_strip(ckk, ow, oh) == oh
        for rows, cols in ((oh, ow), (oh // 2 * 2, ow // 2 * 2)):
            assert layers._image_chunk(ckk * rows * cols, 5) == 2
        x = rng.uniform(-0.5, 0.5, size=(5, c, h, w)).astype(np.float32)
        limit = np.sqrt(6.0 / ckk)
        wt = rng.uniform(-limit, limit, size=(4, c, kh, kw)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=4).astype(np.float32)
        _assert_matches_oracle_pooled_and_not(x, wt, b, stride, pad)


def _assert_matches_oracle_pooled_and_not(x, wt, b, stride, pad):
    layer = _layer(wt, bias=b, stride=stride, pad=pad)
    want = conv2d_oracle(x, wt, b, stride, pad)
    got = conv2d_forward(x, layer)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-6
    n, oc, oh, ow = want.shape[0], want.shape[1], want.shape[2] // 2, want.shape[3] // 2
    want = want[:, :, : 2 * oh, : 2 * ow].reshape(n, oc, oh, 2, ow, 2).max(axis=(3, 5))
    got = conv2d_forward(x, layer, stage=True)
    assert got.shape == want.shape
    assert np.abs(got - np.maximum(want, 0.0)).max() <= 1e-6


def test_relu_epilogue_equals_maximum_of_the_conv_bitwise(monkeypatch):
    """stage=True gives the bytes of np.maximum of the plain convolution,
    cropped to even dims and pooled, and 0 on whole-image chunks, tap
    bands and patch-matrix bands, with biases that push many outputs below
    zero."""
    monkeypatch.setattr(layers, "_STRIP_BUDGET", 27 * 117 * 4)
    rng = np.random.default_rng(23)
    cases = [
        # whole-image chunks: a batch of small images
        ((3, 3, 9, 11), (4, 3, 3, 3), 1),
        # tap bands: 16 channels at stride 1
        ((1, 16, 15, 117), (4, 16, 3, 3), 1),
        # patch-matrix bands: 3 channels at stride 1 and 2
        ((2, 3, 15, 117), (4, 3, 3, 3), 1),
        ((1, 3, 15, 117), (4, 3, 3, 3), 2),
    ]
    paths = []
    for x_shape, k_shape, stride in cases:
        _, c, h, w = x_shape
        oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
        banded = layers._row_strip(c * 9, ow, oh) < oh
        paths.append((banded, banded and stride == 1 and c >= layers._TAP_MIN_CHANNELS))
        x = rng.standard_normal(x_shape).astype(np.float32)
        layer = _layer(
            rng.standard_normal(k_shape), rng.uniform(-1.0, 0.5, k_shape[0]), stride, 1
        )
        plain = conv2d_forward(x, layer)
        oh, ow = plain.shape[2:]
        pooled = maxpool2x2_infer(plain[:, :, : oh // 2 * 2, : ow // 2 * 2])
        fused = conv2d_forward(x, layer, stage=True)
        assert (pooled < 0).any() and (pooled > 0).any()
        assert fused.tobytes() == np.maximum(pooled, 0.0).tobytes()
    assert paths == [(False, False), (True, True), (True, False), (True, False)]


def test_forward_rejects_channel_mismatch_and_undersized_input():
    layer = _layer(np.ones((1, 2, 3, 3)))
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 3, 5, 5), dtype=np.float32), layer)
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 2, 2, 2), dtype=np.float32), layer)


def test_backward_rejects_channel_mismatch_before_any_compute(monkeypatch):
    def forward_spy(*args, **kwargs):
        raise AssertionError("conv2d_backward computed an input gradient")

    monkeypatch.setattr(layers, "conv2d_forward", forward_spy)
    layer = _layer(np.ones((2, 3, 3, 3)), pad=1)
    x, grad_out = np.ones((1, 4, 5, 5)), np.ones((1, 2, 5, 5))
    for input_grad in (True, False):
        with pytest.raises(ValueError, match="input has 4 channels, layer expects 3"):
            conv2d_backward(x, layer, grad_out, input_grad=input_grad)


def test_conv_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [
        ((1, 2, 6, 6), (3, 2, 3, 3), 1, 1),
        ((1, 2, 6, 6), (3, 2, 3, 3), 2, 0),
        ((1, 2, 6, 6), (3, 2, 3, 3), 2, 1),
        # odd frames at stride 2; with the 2x2 kernel the last row and
        # column fall in no window
        ((2, 2, 7, 9), (3, 2, 3, 3), 2, 0),
        ((2, 2, 7, 9), (3, 2, 3, 3), 2, 1),
        ((2, 2, 7, 9), (3, 2, 2, 2), 2, 0),
        # the head: a 2x2 input collapsed to one cell
        ((2, 4, 2, 2), (2, 4, 2, 2), 1, 0),
        # a pad as wide as the kernel: border outputs see only padding
        ((1, 2, 4, 5), (3, 2, 1, 1), 1, 1),
        # a non-square kernel, and a stride-2 pad as wide as the kernel,
        # whose first output cells land outside the input gradient
        ((2, 2, 7, 9), (3, 2, 2, 3), 1, 1),
        ((2, 2, 7, 9), (3, 2, 2, 2), 2, 2),
        # under the budget set below, five images in chunks of 2, 2 and 1,
        # padded or, at pad 0, read straight from the input
        ((5, 2, 6, 6), (3, 2, 3, 3), 1, 1),
        ((5, 2, 6, 6), (3, 2, 2, 2), 1, 0),
    ]
    for x_shape, w_shape, stride, pad in cases:
        x = rng.uniform(-0.5, 0.5, size=x_shape).astype(np.float32)
        wt = rng.uniform(-0.5, 0.5, size=w_shape).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, size=w_shape[0]).astype(np.float32)
        layer = _layer(wt, bias=b, stride=stride, pad=pad)
        go = rng.uniform(-1.0, 1.0, size=conv2d_forward(x, layer).shape).astype(np.float32)
        if x_shape[0] == 5:
            # The budget holds two images' kernel-gradient patches, each
            # ckk x oh x ow floats.
            per_image = int(np.prod(w_shape[1:])) * go.shape[2] * go.shape[3]
            monkeypatch.setattr(layers, "_STRIP_BUDGET", 2 * per_image)
            assert layers._image_chunk(per_image, 5) == 2

        gx, gw, gb = conv2d_backward(x, layer, go)

        def loss_of_w(w64):
            return float(np.sum(conv2d_oracle(x, w64, b, stride, pad) * go))

        def loss_of_x(x64):
            return float(np.sum(conv2d_oracle(x64, wt, b, stride, pad) * go))

        def loss_of_b(b64):
            return float(np.sum(conv2d_oracle(x, wt, b64, stride, pad) * go))

        assert relative_error(gw, central_difference(loss_of_w, wt)) <= 1e-4
        assert relative_error(gx, central_difference(loss_of_x, x)) <= 1e-4
        assert relative_error(gb, central_difference(loss_of_b, b)) <= 1e-4
        want_x, want_w = conv2d_backward_oracle(x, wt, stride, pad, go)
        assert relative_error(gw, want_w) <= 1e-5
        assert relative_error(gx, want_x) <= 1e-5


def test_conv_backward_without_input_gradient_returns_none_for_it():
    rng = np.random.default_rng(11)
    # The last case is rf32's stage 1 at batch 64: its kernel-gradient
    # patches take 144 x 16 x 16 floats per image, so the batch runs in
    # several chunks with a short last one.
    assert 64 % layers._image_chunk(144 * 16 * 16, 64) != 0
    for n, c, size, stride in ((3, 3, 10, 1), (3, 3, 10, 2), (64, 16, 16, 1)):
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        layer = _layer(rng.standard_normal((4, c, 3, 3)), stride=stride, pad=1)
        go = rng.standard_normal(conv2d_forward(x, layer).shape).astype(np.float32)
        gx, gw, gb = conv2d_backward(x, layer, go)
        none, gw_only, gb_only = conv2d_backward(x, layer, go, input_grad=False)
        assert gx is not None and none is None
        assert gw_only.tobytes() == gw.tobytes()
        assert gb_only.tobytes() == gb.tobytes()


def test_conv_backward_matches_float64_reference_at_training_shapes():
    """rf32's five stages and rf64's stride-2 first stage on a 32-image
    shard, against the float64 tap-by-tap reference, within 1e-5 of its
    largest value, as the kernel's documentation promises."""
    rng = np.random.default_rng(19)
    cases = [
        ((32, 3, 32, 32), (16, 3, 3, 3), 1, 1),
        ((32, 16, 16, 16), (16, 16, 3, 3), 1, 1),
        ((32, 16, 8, 8), (32, 16, 3, 3), 1, 1),
        ((32, 32, 4, 4), (32, 32, 3, 3), 1, 1),
        ((32, 32, 2, 2), (2, 32, 2, 2), 1, 0),
        ((32, 3, 64, 64), (16, 3, 3, 3), 2, 1),
    ]
    # The first two stages' kernel gradients run in several image chunks,
    # the last one short: 27 x 32 x 32 and 144 x 16 x 16 floats per image.
    for per_image in (27 * 32 * 32, 144 * 16 * 16):
        assert 32 % layers._image_chunk(per_image, 32) != 0
    for x_shape, w_shape, stride, pad in cases:
        x = np.maximum(rng.standard_normal(x_shape), 0.0).astype(np.float32)
        limit = np.sqrt(6.0 / np.prod(w_shape[1:]))
        wt = rng.uniform(-limit, limit, size=w_shape).astype(np.float32)
        layer = _layer(wt, stride=stride, pad=pad)
        go = rng.standard_normal(conv2d_forward(x, layer).shape).astype(np.float32)
        gx, gw, _ = conv2d_backward(x, layer, go)
        want_x, want_w = conv2d_backward_oracle(x, wt, stride, pad, go)
        assert relative_error(gw, want_w) <= 1e-5
        assert relative_error(gx, want_x) <= 1e-5


def test_strided_conv_geometry():
    x = np.zeros((1, 1, 8, 8), dtype=np.float32)
    out = conv2d_forward(x, _layer(np.ones((1, 1, 2, 2)), stride=2))
    assert out.shape == (1, 1, 4, 4)


def test_maxpool_values_and_argmax_routing():
    x = np.array(
        [[1, 2, 5, 6], [3, 4, 7, 8], [0, 0, 1, 0], [0, 9, 0, 1]],
        dtype=np.float32,
    ).reshape(1, 1, 4, 4)
    out, idx = maxpool2x2_forward(x)
    assert np.array_equal(out[0, 0], [[4, 8], [9, 1]])
    g = maxpool2x2_backward(idx, np.ones_like(out))
    routed = np.zeros((4, 4), dtype=np.float32)
    routed[1, 1] = routed[1, 3] = routed[3, 1] = routed[2, 2] = 1.0
    assert np.array_equal(g[0, 0], routed)


def test_maxpool_tie_picks_first_window_position():
    x = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
    out, idx = maxpool2x2_forward(x)
    assert out[0, 0, 0, 0] == 3.0
    assert idx[0, 0, 0, 0] == 0
    g = maxpool2x2_backward(idx, np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
    assert np.array_equal(g[0, 0], [[2, 0], [0, 0]])


def _naive_maxpool(x):
    """Per-window loop: max of the four cells, first max in row-major order."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), dtype=np.float32)
    idx = np.empty(out.shape, dtype=np.uint8)
    for b, ch, i, j in np.ndindex(out.shape):
        win = [x[b, ch, 2 * i + k // 2, 2 * j + k % 2] for k in range(4)]
        best = 0
        for k in range(1, 4):
            if win[k] > win[best]:
                best = k
        out[b, ch, i, j] = win[best]
        idx[b, ch, i, j] = best
    return out, idx


def _naive_maxpool_backward(idx, grad_out):
    n, c, h2, w2 = grad_out.shape
    grad_in = np.zeros((n, c, 2 * h2, 2 * w2), dtype=np.float32)
    for b, ch, i, j in np.ndindex(grad_out.shape):
        k = idx[b, ch, i, j]
        grad_in[b, ch, 2 * i + k // 2, 2 * j + k % 2] = grad_out[b, ch, i, j]
    return grad_in


def _tie_pattern_windows():
    """One 2x2 window per tie pattern: every non-empty set of positions
    holding the max (all-equal included), at positive, negative and zero
    maxima, plus every sign pattern of a +0.0/-0.0 window."""
    windows = []
    for mask in range(1, 16):
        for top, low in ((2.5, -1.0), (-0.5, -3.0), (0.0, -2.0), (0.0, -0.0)):
            windows.append([top if mask >> k & 1 else low for k in range(4)])
    for signs in range(16):
        windows.append([-0.0 if signs >> k & 1 else 0.0 for k in range(4)])
    x = np.empty((1, len(windows), 2, 2), dtype=np.float32)
    for ch, win in enumerate(windows):
        x[0, ch] = np.reshape(win, (2, 2))
    return x


def test_maxpool_matches_naive_loop_on_every_tie_pattern():
    x = _tie_pattern_windows()
    out, idx = maxpool2x2_forward(x)
    want_out, want_idx = _naive_maxpool(x)
    assert np.array_equal(idx, want_idx)
    # == compares +0.0 and -0.0 equal: the sign of a zero max is unspecified
    assert np.array_equal(out, want_out)
    go = np.random.default_rng(8).standard_normal(out.shape).astype(np.float32)
    assert np.array_equal(
        maxpool2x2_backward(idx, go), _naive_maxpool_backward(want_idx, go)
    )


def test_maxpool_matches_naive_loop_on_random_batches():
    rng = np.random.default_rng(12)
    for _ in range(5):
        # few distinct values, so random windows tie often
        x = rng.integers(-2, 3, size=(2, 3, 6, 8)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = rng.standard_normal()
        out, idx = maxpool2x2_forward(x)
        want_out, want_idx = _naive_maxpool(x)
        assert np.array_equal(out, want_out)
        assert np.array_equal(idx, want_idx)
        go = rng.standard_normal(out.shape).astype(np.float32)
        assert np.array_equal(
            maxpool2x2_backward(idx, go), _naive_maxpool_backward(idx, go)
        )


def test_maxpool_infer_matches_training_forward():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8, 10)).astype(np.float32)
    out, _ = maxpool2x2_forward(x)
    assert np.array_equal(out, maxpool2x2_infer(x))


def test_fused_pool_matches_conv_then_pool_bitwise():
    """conv2d_forward(stage=True) equals the full convolution cropped to
    even dims, pooled and rectified, byte for byte, including frames
    gathered in several row strips, batches gathered in several image
    chunks, and outputs too small to keep a pooled row.  Both equal
    per-image calls."""
    rng = np.random.default_rng(17)
    cases = [
        ((2, 3, 9, 11), (4, 3, 3, 3), 1, 1),
        ((2, 3, 9, 11), (4, 3, 3, 3), 2, 1),
        ((1, 2, 8, 8), (3, 2, 2, 2), 1, 0),
        ((2, 16, 31, 241), (8, 16, 3, 3), 1, 1),
        ((1, 3, 57, 1039), (16, 3, 3, 3), 2, 1),
        # rf32's stage 0 at 1080p: patch-matrix bands at stride 1, batch 2
        ((2, 3, 23, 1101), (16, 3, 3, 3), 1, 1),
        ((1, 1, 2, 5), (1, 1, 2, 2), 1, 0),
        # rf32's stage 1 at batch 64: image chunks with a short last one
        ((64, 16, 16, 16), (16, 16, 3, 3), 1, 1),
    ]
    for x_shape, k_shape, stride, pad in cases:
        x = rng.standard_normal(x_shape).astype(np.float32)
        layer = _layer(
            rng.standard_normal(k_shape), rng.standard_normal(k_shape[0]), stride, pad
        )
        full = conv2d_forward(x, layer)
        oh, ow = full.shape[2:]
        want = np.maximum(maxpool2x2_infer(full[:, :, : oh // 2 * 2, : ow // 2 * 2]), 0.0)
        got = conv2d_forward(x, layer, stage=True)
        assert got.tobytes() == want.tobytes()
        assert got.shape == want.shape
        for stage, batch in ((False, full), (True, got)):
            one_by_one = [conv2d_forward(x[i : i + 1], layer, stage) for i in range(len(x))]
            assert np.concatenate(one_by_one).tobytes() == batch.tobytes()
    # Unrounded, the strips of the two wide cases would hold odd row counts.
    assert layers._row_strip(16 * 3 * 3, 240, 30) == 7
    assert layers._row_strip(3 * 3 * 3, 520, 28) == 17
    # The 16-channel frame runs the tap path in several bands; the
    # 3-channel frames, at stride 2 and at stride 1, run patch-matrix
    # bands, the stride-1 one with a short last band, pooled or not.
    assert 16 >= layers._TAP_MIN_CHANNELS
    assert layers._tap_rows(8, 243, 30, True) < 30
    assert layers._tap_rows(8, 243, 31, False) < 31
    assert 3 < layers._TAP_MIN_CHANNELS
    assert layers._row_strip(27, 1101, 23) == 8
    # The batch-64 case runs in several image chunks, the last one short,
    # pooled (16 x 16 outputs) or not.
    assert layers._row_strip(144, 16, 16) == 16
    assert 64 % layers._image_chunk(144 * 16 * 16, 64) != 0


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ValueError):
        maxpool2x2_forward(np.zeros((1, 1, 5, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        maxpool2x2_infer(np.zeros((1, 1, 4, 7), dtype=np.float32))


def test_relu_forward_and_dead_unit_gradient():
    x = np.array([-2.0, 0.0, 3.0], dtype=np.float32).reshape(1, 3, 1, 1)
    y = relu_forward(x)
    assert np.array_equal(y.reshape(-1), [0.0, 0.0, 3.0])
    # gradient passes only where the input was strictly positive
    g = relu_backward(x, np.ones_like(x))
    assert np.array_equal(g.reshape(-1), [0.0, 0.0, 1.0])
    # idempotent on already-rectified data
    assert np.array_equal(relu_forward(y), y)


def test_pool_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    go = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
    _, idx = maxpool2x2_forward(x)
    gx = maxpool2x2_backward(idx, go)

    def loss(x64):
        v = x64.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        pooled = v.reshape(1, 2, 2, 2, 4).max(axis=4)
        return float(np.sum(pooled * go))

    assert relative_error(gx, central_difference(loss, x)) <= 1e-4


def test_sgd_momentum_two_hand_steps():
    # v <- m*v - lr*g ; p <- p + v, from v=0: first step -1, second -2.9
    p = np.zeros(1, dtype=np.float32)
    g = np.ones(1, dtype=np.float32)
    state = OptimizerState.for_params([p], lr=1.0, momentum=0.9)
    sgd_momentum_step([p], [g], state)
    assert p[0] == pytest.approx(-1.0)
    sgd_momentum_step([p], [g], state)
    assert p[0] == pytest.approx(-2.9)


def test_sgd_zero_momentum_is_plain_descent():
    p = np.array([2.0], dtype=np.float32)
    state = OptimizerState.for_params([p], lr=0.5, momentum=0.0)
    sgd_momentum_step([p], [np.array([4.0], dtype=np.float32)], state)
    assert p[0] == pytest.approx(0.0)


def test_optimizer_rejects_bad_momentum():
    with pytest.raises(ValueError):
        OptimizerState.for_params([np.zeros(1, dtype=np.float32)], lr=0.1, momentum=1.0)


def test_forward_is_deterministic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
    wt = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    layer = _layer(wt, pad=1)
    a = conv2d_forward(x, layer)
    b = conv2d_forward(x, layer)
    assert np.array_equal(a, b)
