"""Model family: construction, geometry, forward passes, serialization."""

import numpy as np
import pytest
from conftest import central_difference, relative_error

from qmiheat import _convpy, models
from qmiheat.errors import DataFormatError
from qmiheat.layers import conv2d_backward, conv2d_forward
from qmiheat.models import (
    CHANNELS,
    RF32,
    RF64,
    VARIANTS,
    backprop,
    build_model,
    forward_scores,
    forward_training,
    load_model,
    output_geometry,
    parameters,
    save_model,
)


def test_variant_names():
    assert VARIANTS == (RF32, RF64)
    assert CHANNELS == (16, 16, 32, 32)


def test_training_size_forward_shape():
    for variant, size in ((RF32, 32), (RF64, 64)):
        m = build_model(variant, seed=0)
        x = np.random.default_rng(0).random((3, 3, size, size), dtype=np.float32)
        out = forward_scores(m, x)
        assert out.shape == (3, 2, 1, 1)


def test_parameter_count_closed_form():
    # conv kernels 3*3*3*16 + 16*16*9 + 16*32*9 + 32*32*9 + 32*2*4
    # plus biases 16+16+32+32+2
    expected = (
        3 * 16 * 9 + 16 * 16 * 9 + 16 * 32 * 9 + 32 * 32 * 9 + 32 * 2 * 2 * 2
        + 16 + 16 + 32 + 32 + 2
    )
    assert expected == 16914
    for variant in VARIANTS:
        assert sum(p.size for p in parameters(build_model(variant, seed=0))) == 16914


def test_parameters_enumeration():
    m = build_model(RF32, seed=0)
    params = parameters(m)
    assert len(params) == 10  # kernel and bias for each of the 5 layers
    assert sum(p.size for p in params) == 16914


def test_initialization_is_seeded_and_fan_in_bounded():
    a = build_model(RF32, seed=7)
    b = build_model(RF32, seed=7)
    c = build_model(RF32, seed=8)
    for pa, pb in zip(parameters(a), parameters(b)):
        assert np.array_equal(pa, pb)
    assert any(
        not np.array_equal(pa, pc) for pa, pc in zip(parameters(a), parameters(c))
    )
    for spec in a.layers:
        fan_in = spec.conv.kernel[0].size
        limit = np.sqrt(6.0 / fan_in) + 1e-6
        assert np.abs(spec.conv.kernel).max() <= limit
        assert np.abs(spec.conv.bias).max() == 0.0


def test_geometry_hand_values():
    geo = output_geometry(RF32, 1080, 1920)
    assert (geo.grid_h, geo.grid_w) == (66, 119)
    assert (geo.stride_px, geo.window_px) == (16, 32)
    geo = output_geometry(RF64, 1080, 1920)
    assert (geo.grid_h, geo.grid_w) == (32, 59)
    assert (geo.stride_px, geo.window_px) == (32, 64)
    geo = output_geometry(RF32, 32, 32)
    assert (geo.grid_h, geo.grid_w) == (1, 1)


def test_geometry_floor_formula_random_sweep():
    rng = np.random.default_rng(14)
    for _ in range(50):
        h = int(rng.integers(64, 2000))
        w = int(rng.integers(64, 2000))
        for variant, win, stride in ((RF32, 32, 16), (RF64, 64, 32)):
            geo = output_geometry(variant, h, w)
            assert geo.grid_h == (h - win) // stride + 1
            assert geo.grid_w == (w - win) // stride + 1


def test_strided_stack_respects_geometry_on_awkward_odd_dims():
    """Dims one short of a multiple of 32 once made the padded stride-2
    first conv round up and mint a phantom grid row; the dense path now
    crops to even parity before every downsampling step."""
    model = build_model(RF64, seed=3)
    rng = np.random.default_rng(3)
    for h, w in ((127, 127), (319, 95), (64, 127)):
        x = rng.random((1, 3, h, w), dtype=np.float32)
        geo = output_geometry(RF64, h, w)
        scores = forward_scores(model, x)
        assert scores.shape == (1, 2, geo.grid_h, geo.grid_w)


def test_geometry_rejects_undersized_input():
    with pytest.raises(ValueError):
        output_geometry(RF32, 31, 100)
    with pytest.raises(ValueError):
        output_geometry(RF64, 100, 63)
    with pytest.raises(ValueError):
        output_geometry("rf128", 100, 100)


def test_forward_training_outputs():
    for variant in VARIANTS:
        m = build_model(variant, seed=0)
        size = m.window_px
        x = np.random.default_rng(1).random((4, 3, size, size), dtype=np.float32)
        scores, emb, caches = forward_training(m, x)
        assert scores.shape == (4, 2)
        assert emb.shape == (4, 128)
        assert len(caches) == 5
        # embeddings are post-ReLU activations, so never negative
        assert emb.min() >= 0.0


def test_forward_training_rejects_wrong_size():
    m = build_model(RF32, seed=0)
    with pytest.raises(ValueError):
        forward_training(m, np.zeros((1, 3, 64, 64), dtype=np.float32))


def test_rf64_first_conv_is_strided():
    m = build_model(RF64, seed=0)
    assert m.layers[0].conv.stride == 2
    assert all(spec.conv.stride == 1 for spec in m.layers[1:4])


def test_backprop_classifier_kernel_matches_finite_differences():
    # the training loss is linear in the classifier kernel, so central
    # differences through the full float32 stack are clean there (deeper
    # parameters sit behind ReLU kinks and pool switches; those layers are
    # covered per-op by the layer-kit gradient tests)
    rng = np.random.default_rng(3)
    m = build_model(RF32, seed=5)
    x = rng.random((2, 3, 32, 32), dtype=np.float32)
    go_scores = rng.standard_normal((2, 2)).astype(np.float32)

    _, _, caches = forward_training(m, x)
    grads = backprop(m, caches, go_scores)
    assert len(grads) == 5

    def loss_with_kernel(k4):
        saved = m.layers[4].conv.kernel
        m.layers[4].conv.kernel = k4.astype(np.float32)
        try:
            s, _, _ = forward_training(m, x)
        finally:
            m.layers[4].conv.kernel = saved
        return float(np.sum(s * go_scores))

    fd = central_difference(loss_with_kernel, m.layers[4].conv.kernel.astype(np.float64), h=1e-2)
    assert relative_error(grads[4][0], fd) <= 1e-2


def test_backprop_equals_manual_layer_chain():
    from qmiheat.layers import conv2d_backward, maxpool2x2_backward, relu_backward

    rng = np.random.default_rng(6)
    for variant, size in ((RF32, 32), (RF64, 64)):
        m = build_model(variant, seed=4)
        x = rng.random((3, 3, size, size), dtype=np.float32)
        go = rng.standard_normal((3, 2)).astype(np.float32)
        ge = rng.standard_normal((3, 128)).astype(np.float32)

        _, _, caches = forward_training(m, x)
        got = backprop(m, caches, go, grad_embedding=ge)

        # independent re-walk of the same caches
        conv_in, _ = caches[4]
        g = go.reshape(3, 2, 1, 1)
        g, gk, gb = conv2d_backward(conv_in, m.layers[4].conv, g)
        want = [None] * 5
        want[4] = (gk, gb)
        g = g + ge.reshape(g.shape)
        for i in (3, 2, 1, 0):
            conv_in, pool_idx = caches[i]
            g = relu_backward(caches[i + 1][0], g)
            g = maxpool2x2_backward(pool_idx, g)
            g, gk, gb = conv2d_backward(conv_in, m.layers[i].conv, g)
            want[i] = (gk, gb)

        for (gk_a, gb_a), (gk_b, gb_b) in zip(got, want):
            assert np.array_equal(gk_a, gk_b)
            assert np.array_equal(gb_a, gb_b)


def _argmax_pool(x):
    n, c, h, w = x.shape
    win = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    idx = win.argmax(axis=4)
    return np.take_along_axis(win, idx[..., None], axis=4)[..., 0], idx


def _argmax_unpool(idx, g):
    n, c, h2, w2 = g.shape
    win = np.zeros((n, c, h2, w2, 4), dtype=np.float32)
    np.put_along_axis(win, idx[..., None], g[..., None], axis=4)
    return win.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, 2 * h2, 2 * w2
    )


def _relu_then_pool_walk(model, x):
    """Reference forward in the ReLU-before-pool order, with argmax pooling
    and even crops as forward_scores places them; returns the score map
    and per-layer (conv_in, pre_relu, argmax) caches."""
    caches = []
    for spec in model.layers:
        if spec.conv.stride == 2:
            x = x[:, :, : x.shape[2] // 2 * 2, : x.shape[3] // 2 * 2]
        conv_in = x
        pre_relu = conv2d_forward(x, spec.conv)
        x = np.maximum(pre_relu, 0) if spec.relu else pre_relu
        idx = None
        if spec.pool:
            x = x[:, :, : x.shape[2] // 2 * 2, : x.shape[3] // 2 * 2]
            x, idx = _argmax_pool(x)
        caches.append((conv_in, pre_relu, idx))
    return x, caches


def _relu_then_pool_gradients(model, caches, grad_scores, grad_embedding):
    g = grad_scores.reshape(-1, 2, 1, 1)
    g, gk, gb = conv2d_backward(caches[4][0], model.layers[4].conv, g)
    grads = [None, None, None, None, (gk, gb)]
    g = g + grad_embedding.reshape(g.shape)
    for i in (3, 2, 1, 0):
        conv_in, pre_relu, idx = caches[i]
        g = np.where(pre_relu > 0, _argmax_unpool(idx, g), 0).astype(np.float32)
        g, gk, gb = conv2d_backward(conv_in, model.layers[i].conv, g)
        grads[i] = (gk, gb)
    return grads


def test_pool_then_relu_matches_relu_then_pool_reference_bitwise():
    rng = np.random.default_rng(13)
    for variant, size in ((RF32, 32), (RF64, 64)):
        m = build_model(variant, seed=7)
        for spec in m.layers:
            spec.conv.bias[:] = rng.uniform(-0.1, 0.1, spec.conv.bias.shape)
        x = rng.random((4, 3, size, size), dtype=np.float32)
        go = rng.standard_normal((4, 2)).astype(np.float32)
        ge = rng.standard_normal((4, 128)).astype(np.float32)

        want_map, want_caches = _relu_then_pool_walk(m, x)
        want_scores = want_map.reshape(4, 2)
        want_emb = want_caches[4][0].reshape(4, -1)
        scores, emb, caches = forward_training(m, x)
        assert scores.tobytes() == want_scores.tobytes()
        assert emb.tobytes() == want_emb.tobytes()
        assert forward_scores(m, x).tobytes() == want_map.tobytes()

        got = backprop(m, caches, go, grad_embedding=ge)
        want = _relu_then_pool_gradients(m, want_caches, go, ge)
        for (gk_a, gb_a), (gk_b, gb_b) in zip(got, want):
            # array_equal, not bytes: a gradient entry that sums only zeros
            # may carry either sign of zero
            assert np.array_equal(gk_a, gk_b)
            assert np.array_equal(gb_a, gb_b)

        # The wide frame has odd conv-output height and width in one of
        # stages 0 and 1, which both run in several row strips, so the
        # fused pool meets odd remainders, short last strips and seams.
        small = rng.random((1, 3, 3 * size - 5, 4 * size + 3), dtype=np.float32)
        wide = rng.random((1, 3, 71, 1917), dtype=np.float32)
        for frame in (small, wide):
            want_map, want_caches = _relu_then_pool_walk(m, frame)
            got_map = forward_scores(m, frame)
            assert got_map.tobytes() == want_map.tobytes()
        odd = False
        for spec, (_, pre_relu, _) in zip(m.layers[:2], want_caches):
            _, ic, kh, kw = spec.conv.kernel.shape
            oh, ow = pre_relu.shape[2:]
            assert _convpy._row_strip(ic * kh * kw, ow, oh) < oh // 2
            odd |= oh % 2 == 1 and ow % 2 == 1
        assert odd


def test_forward_scores_makes_one_conv_call_per_stage(monkeypatch):
    """The dense walk rectifies inside each stage's convolution: one conv
    call per layer, with the ReLU and pool flags of the architecture, and
    no separate relu_infer call."""
    calls = []

    def conv_spy(x, layer, pool=False, relu=False):
        calls.append((pool, relu))
        return conv2d_forward(x, layer, pool, relu)

    def relu_spy(x):
        raise AssertionError("forward_scores called relu_infer")

    monkeypatch.setattr(models, "conv2d_forward", conv_spy)
    monkeypatch.setattr(models, "relu_infer", relu_spy)
    rng = np.random.default_rng(6)
    for variant in VARIANTS:
        m = build_model(variant, seed=3)
        frame = rng.random((1, 3, 75, 141), dtype=np.float32)
        calls.clear()
        forward_scores(m, frame)
        assert calls == [(spec.pool, spec.relu) for spec in m.layers]
        assert calls == [(True, True)] * 4 + [(False, False)]


def test_embedding_gradient_reaches_features_not_classifier():
    rng = np.random.default_rng(4)
    m = build_model(RF32, seed=2)
    x = rng.random((2, 3, 32, 32), dtype=np.float32)
    _, emb, caches = forward_training(m, x)
    ge = np.ones_like(emb)
    grads = backprop(m, caches, np.zeros((2, 2), dtype=np.float32), grad_embedding=ge)
    # classifier receives nothing, feature layers do
    assert np.abs(grads[4][0]).max() == 0.0
    assert np.abs(grads[4][1]).max() == 0.0
    assert any(np.abs(grads[i][0]).max() > 0.0 for i in range(4))


def test_save_load_round_trip_bit_exact(tmp_path):
    for variant in VARIANTS:
        m = build_model(variant, seed=9)
        path = tmp_path / f"{variant}.vggh"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.variant == m.variant
        for pa, pb in zip(parameters(m), parameters(loaded)):
            assert np.array_equal(pa, pb)
        # same bytes again on re-save
        path2 = tmp_path / f"{variant}_again.vggh"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.vggh"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataFormatError) as err:
        load_model(p)
    assert "magic" in str(err.value)


def test_load_rejects_truncation_with_offset(tmp_path):
    m = build_model(RF32, seed=0)
    p = tmp_path / "whole.vggh"
    save_model(m, p)
    blob = p.read_bytes()
    cut = tmp_path / "cut.vggh"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError) as err:
        load_model(cut)
    assert "offset" in str(err.value)


def test_load_rejects_trailing_bytes(tmp_path):
    m = build_model(RF32, seed=0)
    p = tmp_path / "padded.vggh"
    save_model(m, p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(DataFormatError) as err:
        load_model(p)
    assert "trailing" in str(err.value)


def test_load_rejects_unknown_version(tmp_path):
    m = build_model(RF32, seed=0)
    p = tmp_path / "v9.vggh"
    save_model(m, p)
    blob = bytearray(p.read_bytes())
    blob[4:8] = (9).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load_model(p)
    assert "version" in str(err.value)


def test_load_rejects_layers_that_disagree_with_the_variant(tmp_path):
    # rf64 differs from rf32 only in its stride-2 first convolution
    p = tmp_path / "relabelled.vggh"
    save_model(build_model(RF64, seed=0), p)
    blob = bytearray(p.read_bytes())
    blob[8] = VARIANTS.index(RF32)
    p.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=r"relabelled\.vggh: layer 0 .*stride 2"):
        load_model(p)

    # a head with three output channels, header and payload consistent
    m = build_model(RF32, seed=0)
    head = m.layers[4].conv
    head.kernel = np.zeros((3, 32, 2, 2), dtype=np.float32)
    head.bias = np.zeros(3, dtype=np.float32)
    p = tmp_path / "wide_head.vggh"
    save_model(m, p)
    with pytest.raises(DataFormatError, match=r"wide_head\.vggh: layer 4 .*3x32x2x2"):
        load_model(p)


def test_loaded_model_takes_relu_and_pool_from_the_architecture(tmp_path):
    for variant in VARIANTS:
        m = build_model(variant, seed=1)
        p = tmp_path / f"{variant}.vggh"
        save_model(m, p)
        loaded = load_model(p)
        assert [(s.relu, s.pool) for s in loaded.layers] == [
            (s.relu, s.pool) for s in m.layers
        ]
        assert [(s.conv.stride, s.conv.pad) for s in loaded.layers] == [
            (s.conv.stride, s.conv.pad) for s in m.layers
        ]


def test_loaded_model_runs_forward(tmp_path):
    m = build_model(RF32, seed=11)
    x = np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32)
    want = forward_scores(m, x)
    p = tmp_path / "m.vggh"
    save_model(m, p)
    got = forward_scores(load_model(p), x)
    assert np.array_equal(want, got)
