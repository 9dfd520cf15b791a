"""The benchmark's three workloads and the checks on their outputs.

Each workload is one closed loop with one client.  ``setup`` builds the
seeded inputs and warms up: a dense workload scores one full frame and
runs its probe; train-rf32 runs only its probe, training on 128 samples,
because a full op takes seconds.  ``op`` runs and times one unit of work
and checks what it returned; ``probe`` is a small deterministic op whose
bytes must not change when the tracer's wrappers are installed.

- train-rf32: one op is ``training.train`` for one epoch over a seeded
  32 px split (2000/class train, 500/class test; batch 64, eta 0.001,
  hinge) followed by ``training.evaluate``.  The only workload that runs
  conv backward, the train-path ReLU/pool, the regularizer, the loss and
  SGD.
- dense-rf32-1080p: one op is ``heatmap.fully_conv_inference`` of rf32 on
  a seeded 1920x1080 uint8 frame.  Large stride-1 GEMMs at batch 1 and
  the infer-path ReLU/pool over big activations; no backward pass.
- dense-rf64-vga: the same call for rf64 on 640x480 frames.  Stride-2
  first conv, and small frames where fixed per-call costs (image
  conversion, padding, strip set-up) are a large share.
"""

import hashlib
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Dense scores against the float64 reference: float32 accumulation over
# five layers on a small frame stays near 1e-6 here; the bar leaves room
# for a different summation order in a faster kernel, not for a wrong one.
REFERENCE_TOL = 1e-4

# Seeded frames (h, w) with odd remainders, so the floor-geometry crops are
# used.  The probe frame is small and gives a grid of several cells; tiny
# runs use it for every frame.  The rf32 reference frame has the full width
# of a 1080p frame and enough rows that its first two conv stages, as on a
# 1080p frame, run in several output-row strips; the rf64 one is nearly a
# whole VGA frame.  (The float64 reference of a whole 1080p frame takes
# seconds per process.)
_PROBE_FRAME = {"rf32": (83, 117), "rf64": (141, 163)}
_REFERENCE_FRAME = {"rf32": (363, 1917), "rf64": (477, 637)}

# Biases of the reference model, drawn uniform in +-this: build_model
# starts them at zero, which would leave the bias path unchecked.
_REFERENCE_BIAS = 0.1

_FRAMES = 4


@dataclass
class Op:
    """One timed unit of work: wall time, items processed and the wall
    time those items are counted against, and any failed checks."""

    wall_s: float
    items: int
    item_wall_s: float
    problems: list = field(default_factory=list)


def conv_stages(models):
    """Kernel shape -> stage label s0..s4; unique per stage in both variants."""
    model = models.build_model("rf32", 0)
    return {tuple(spec.conv.kernel.shape): f"s{i}" for i, spec in enumerate(model.layers)}


class TrainWorkload:
    def __init__(self, q, scratch_dir, tiny=False):
        self.q = q
        self.scratch_dir = scratch_dir
        self.per_class = (32, 16) if tiny else (2000, 500)
        self.batch = 16 if tiny else 64
        self.probe_n = 32 if tiny else 128
        self.first_bytes = None

    def setup(self, seed):
        data, training = self.q.data, self.q.training
        t0 = perf_counter()
        self.train_set, self.test_set = data.generate_synthetic_split(
            32, self.per_class[0], self.per_class[1], seed
        )
        gen_s = perf_counter() - t0
        self.config = training.TrainConfig(
            variant="rf32", loss_kind="hinge", eta=0.001, batch_size=self.batch,
            epochs=1, seed=seed,
        )
        self.probe_bytes = self.probe()
        return {"data.generate_synthetic.s": gen_s}

    def probe(self):
        """Train on a slice of the split; the model file's bytes."""
        data, training = self.q.data, self.q.training
        k = self.probe_n
        small_train = data.PackedDataset(self.train_set.pixels[:k], self.train_set.labels[:k])
        small_test = data.PackedDataset(self.test_set.pixels[:k], self.test_set.labels[:k])
        model, _ = training.train(self.config, small_train, small_test)
        return self._model_bytes(model)

    def reference_problems(self):
        return []

    def op(self, i, span=nullcontext):
        training = self.q.training
        t0 = perf_counter()
        with span("training.train"):
            model, history = training.train(self.config, self.train_set, self.test_set)
        t1 = perf_counter()
        with span("training.evaluate"):
            accuracy = training.evaluate(model, self.test_set)
        t2 = perf_counter()
        op = Op(t2 - t0, len(self.train_set), t1 - t0)
        values = list(history.j_class) + list(history.j_mi) + list(history.test_accuracy)
        if len(history.test_accuracy) != self.config.epochs or not np.all(np.isfinite(values)):
            op.problems.append(f"op {i}: history not finite or wrong length")
        elif accuracy != history.test_accuracy[-1]:
            op.problems.append(
                f"op {i}: evaluate() gave {accuracy}, last epoch gave {history.test_accuracy[-1]}"
            )
        blob = self._model_bytes(model)
        if self.first_bytes is None:
            self.first_bytes = blob
        elif blob != self.first_bytes:
            op.problems.append(f"op {i}: model bytes differ from op 0 with the same seed")
        return op

    def output_digest(self):
        return hashlib.sha256(self.first_bytes or b"").hexdigest()

    def _model_bytes(self, model):
        path = os.path.join(self.scratch_dir, "model.vggh")
        self.q.models.save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


class DenseWorkload:
    def __init__(self, variant, height, width, q, tiny=False):
        self.q = q
        self.variant = variant
        self.hw = _PROBE_FRAME[variant] if tiny else (height, width)
        self.reference_hw = _PROBE_FRAME[variant] if tiny else _REFERENCE_FRAME[variant]
        self.grids = [None] * _FRAMES

    def setup(self, seed):
        models = self.q.models
        h, w = self.hw
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.frames = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(_FRAMES)]
        self.small = rng.integers(0, 256, (*_PROBE_FRAME[self.variant], 3), dtype=np.uint8)
        self.model = models.build_model(self.variant, seed)
        geo = models.output_geometry(self.variant, h, w)
        self.grid_shape = (geo.grid_h, geo.grid_w, 2)
        self.q.heatmap.fully_conv_inference(self.model, self.frames[0])
        self.probe_bytes = self.probe()
        return {}

    def probe(self):
        """Scores of the small frame, as bytes."""
        return self.q.heatmap.fully_conv_inference(self.model, self.small).grid.tobytes()

    def reference_problems(self):
        """Scores of a seeded frame, by a model with seeded nonzero biases,
        against the float64 reference."""
        rng = np.random.default_rng([self.seed, 1])
        frame = rng.integers(0, 256, (*self.reference_hw, 3), dtype=np.uint8)
        model = self.q.models.build_model(self.variant, self.seed)
        for spec in model.layers:
            spec.conv.bias = rng.uniform(
                -_REFERENCE_BIAS, _REFERENCE_BIAS, spec.conv.bias.shape).astype(np.float32)
        grid = self.q.heatmap.fully_conv_inference(model, frame).grid
        ref = reference_scores(model, frame)
        if grid.shape != ref.shape:
            return [f"reference: grid {grid.shape}, float64 reference {ref.shape}"]
        err = float(np.max(np.abs(grid - ref))) / max(1.0, float(np.max(np.abs(ref))))
        if not err <= REFERENCE_TOL:
            return [f"reference: scaled max error {err:.3g} > {REFERENCE_TOL}"]
        return []

    def op(self, i, span=nullcontext):
        frame = self.frames[i % _FRAMES]
        t0 = perf_counter()
        with span("heatmap.fully_conv"):
            hm = self.q.heatmap.fully_conv_inference(self.model, frame)
        wall = perf_counter() - t0
        op = Op(wall, 1, wall)
        grid = hm.grid
        k = i % _FRAMES
        if grid.shape != self.grid_shape:
            op.problems.append(f"op {i}: grid {grid.shape}, geometry {self.grid_shape}")
        elif not np.all(np.isfinite(grid)):
            op.problems.append(f"op {i}: non-finite scores")
        elif self.grids[k] is None:
            self.grids[k] = grid.tobytes()
        elif grid.tobytes() != self.grids[k]:
            op.problems.append(f"op {i}: scores differ from the first op on frame {k}")
        return op

    def output_digest(self):
        return hashlib.sha256(self.grids[0] or b"").hexdigest()


_FACTORIES = {
    "train-rf32": lambda q, scratch, tiny: TrainWorkload(q, scratch, tiny),
    "dense-rf32-1080p": lambda q, scratch, tiny: DenseWorkload("rf32", 1080, 1920, q, tiny),
    "dense-rf64-vga": lambda q, scratch, tiny: DenseWorkload("rf64", 480, 640, q, tiny),
}
WORKLOADS = tuple(_FACTORIES)


def make_workload(name, q, scratch_dir, tiny=False):
    return _FACTORIES[name](q, scratch_dir, tiny)


def reference_scores(model, pixels):
    """Dense (gh, gw, 2) scores in float64, written from the model's weights.

    Semantics of full-frame scoring: zero-padded cross-correlation plus
    bias, ReLU and 2x2 max-pool per feature stage, with the spatial dims
    cropped to even before every downsampling step (floor geometry).
    """
    x = pixels.astype(np.float64).transpose(2, 0, 1)[None] / 255.0
    for i, spec in enumerate(model.layers):
        conv = spec.conv
        if conv.stride == 2:
            x = _crop_even(x)
        x = _conv64(x, conv.kernel.astype(np.float64), conv.bias.astype(np.float64),
                    conv.stride, conv.pad)
        if getattr(spec, "relu", i < 4):
            x = np.maximum(x, 0.0)
        if getattr(spec, "pool", i < 4):
            x = _crop_even(x)
            x = np.maximum(
                np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]),
            )
    return x[0].transpose(1, 2, 0)


def _crop_even(x):
    return x[:, :, : x.shape[2] // 2 * 2, : x.shape[3] // 2 * 2]


def _conv64(x, w, b, stride, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oc, _, kh, kw = w.shape
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], oc, oh, ow))
    for ki in range(kh):
        for kj in range(kw):
            patch = xp[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, ki, kj], patch)
    return out + b[None, :, None, None]


def scratch_directory(root):
    """A private temporary directory inside the checkout's build area."""
    base = os.path.join(root, ".bench_build")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="perfbench-", dir=base)
