"""Per-layer spans for the traced benchmark run.

The tracer wraps, by attribute replacement, the functions that
``qmiheat.models``, ``qmiheat.training`` and ``qmiheat.heatmap`` import
from the lower layers, so it sees every call across a layer boundary
without touching the package source.  A wrapped call records its
inclusive time, its self time (inclusive minus wrapped children), a call
count and, for convolutions, the FLOPs computed from its shapes.

A name the module no longer has is skipped and reported as absent, so a
refactor that fuses or renames a layer shows up as absent layers and a
larger ``trace.unattributed_frac`` rather than as a crash.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

# (module, attribute, dict key or None, span name).  Several attributes may
# share a span name; their times add up.
WRAPS = (
    ("models", "conv2d_forward", None, "layers.conv_fwd"),
    ("models", "conv2d_backward", None, "layers.conv_bwd"),
    ("models", "relu_forward", None, "layers.relu_fwd"),
    ("models", "relu_backward", None, "layers.relu_bwd"),
    ("models", "relu_infer", None, "layers.relu_infer"),
    ("models", "maxpool2x2_forward", None, "layers.pool_fwd"),
    ("models", "maxpool2x2_backward", None, "layers.pool_bwd"),
    ("models", "maxpool2x2_infer", None, "layers.pool_infer"),
    ("training", "to_float", None, "data.to_float"),
    ("training", "forward_training", None, "models.forward_training"),
    ("training", "backprop", None, "models.backprop"),
    ("training", "forward_scores", None, "models.forward_scores"),
    ("training", "sgd_momentum_step", None, "layers.sgd_step"),
    ("training", "LOSSES", "hinge", "losses.hinge"),
    ("training", "EmbeddingBatch", None, "qmi.potentials"),
    ("training", "batch_potentials", None, "qmi.potentials"),
    ("training", "regularizer_loss", None, "qmi.potentials"),
    ("training", "regularizer_gradient", None, "qmi.gradient"),
    ("heatmap", "image_to_float", None, "data.image_to_float"),
    ("heatmap", "forward_scores", None, "models.forward_scores"),
)

# Spans of these layers are work done below the model walk; everything else
# in an op (walk glue, training loop, heatmap glue) is unattributed.
LEAF_PREFIXES = ("layers.", "qmi.", "losses.", "data.")

CONV_SPANS = ("layers.conv_fwd", "layers.conv_bwd")

# Multiply-adds per output element: forward does one GEMM, backward two
# (input and kernel gradients), so twice the forward FLOPs.
_CONV_GEMMS = {"layers.conv_fwd": 1, "layers.conv_bwd": 2}


def _conv_layer(args):
    for arg in args:
        if hasattr(arg, "kernel"):
            return arg
    return None


class Tracer:
    """Accumulates span times and counts in memory for one traced run.

    ``stages`` maps a ConvLayer kernel shape to its stage label (s0..s4);
    convolution spans are keyed per stage as ``layers.conv_fwd.s1``.
    """

    def __init__(self, stages):
        self.stages = stages
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.flop = defaultdict(float)
        self.sgd_ends = []
        self.attributed_s = 0.0
        self._stack = []
        self._leaf_depth = 0

    def wrap(self, fn, name):
        conv_gemms = _CONV_GEMMS.get(name)
        leaf = name.startswith(LEAF_PREFIXES)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            layer = None
            if conv_gemms:
                layer = _conv_layer(args)
                if layer is not None:
                    stage = self.stages.get(tuple(layer.kernel.shape), "sx")
                    span = f"{name}.{stage}"
            frame = [0.0]
            self._stack.append(frame)
            self._leaf_depth += leaf
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._leaf_depth -= leaf
                self._record(span, t1 - t0, frame[0], leaf)
                if span == "layers.sgd_step":
                    self.sgd_ends.append(t1)
            if layer is not None:
                self.flop[span] += conv_gemms * _conv_flop(layer, args, out)
            return out

        return traced

    def span(self, name):
        """Context manager timing a call the benchmark itself makes."""
        return _Span(self, name)

    def _record(self, span, seconds, child_s, leaf):
        self.busy[span] += seconds
        self.self_s[span] += seconds - child_s
        self.calls[span] += 1
        if self._stack:
            self._stack[-1][0] += seconds
        if leaf and self._leaf_depth == 0:
            self.attributed_s += seconds


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer._stack.pop()
        self.tracer._record(self.name, t1 - self.t0, self.frame[0], False)
        return False


def _conv_flop(layer, args, out):
    """2*N*OC*OH*OW*IC*KH*KW from the output (forward) or grad_out shape."""
    oc, ic, kh, kw = layer.kernel.shape
    y = out if getattr(out, "ndim", None) == 4 else (args[2] if len(args) > 2 else None)
    shape = getattr(y, "shape", ())
    if len(shape) != 4:
        return 0.0
    n, _, oh, ow = shape
    return 2.0 * n * oc * oh * ow * ic * kh * kw


def install(tracer, modules):
    """Wrap every name in WRAPS that its module still has.

    Returns (restore, absent): calling ``restore()`` puts the original
    objects back; ``absent`` lists the ``module.attribute`` names not found.
    """
    undo = []
    absent = []
    for mod_name, attr, key, span in WRAPS:
        mod = modules[mod_name]
        target = getattr(mod, attr, None)
        if target is None or (key is not None and key not in target):
            absent.append(f"{mod_name}.{attr}" + (f"[{key!r}]" if key else ""))
            continue
        if key is None:
            setattr(mod, attr, tracer.wrap(target, span))
        else:
            replaced = dict(target)
            replaced[key] = tracer.wrap(target[key], span)
            setattr(mod, attr, replaced)
        undo.append((mod, attr, target))

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore, absent


def per_call_overhead_s(stages, calls=20000):
    """Time one wrapper adds to a call, measured on a convolution wrapper
    (the costliest kind: stage lookup and FLOP count) around a no-op."""
    shape = next(iter(stages))
    layer = SimpleNamespace(kernel=SimpleNamespace(shape=shape))
    out = SimpleNamespace(ndim=4, shape=(1, shape[0], 8, 8))

    def noop(x, layer):
        return out

    traced = Tracer(stages).wrap(noop, "layers.conv_fwd")
    best = {}
    for fn in (noop, traced, noop, traced):
        t0 = perf_counter()
        for _ in range(calls):
            fn(None, layer)
        best[fn] = min(best.get(fn, float("inf")), perf_counter() - t0)
    return max(0.0, (best[traced] - best[noop]) / calls)
