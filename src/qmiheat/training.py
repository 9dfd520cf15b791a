"""Mini-batch SGD training with the pairwise-information regularizer.

The regularizer gradient is injected at the embedding (the flattened
post-pool activations of the fourth convolution) and flows backward
through the feature stages only; the 2-channel head sees just the
classification gradient.  With ``eta == 0`` the regularizer code path is
skipped entirely, so a zero-eta run is bit-identical to a build without
the regularizer.
"""

import contextvars
import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import save_config, write_file
from .data import to_float
from .errors import DataFormatError, TrainingDivergedError
from .layers import OptimizerState, sgd_momentum_step
from .losses import DEFAULT_ETA, HINGE, LOSSES
from .models import (
    RF32,
    VARIANTS,
    WINDOW_PX,
    backprop,
    build_model,
    forward_scores,
    forward_training,
    parameters,
)
from .qmi import EmbeddingBatch, batch_potentials, regularizer_gradient, regularizer_loss

_EVAL_BATCH = 64

# Images per shard of a training batch.  The shards' forward and backward
# passes run on the worker pool; a batch of at most this many is one shard
# and trains with the bytes of a whole-batch pass.
_SHARD = 32


@dataclass
class TrainConfig:
    """Run settings; defaults follow the reference experiment protocol.

    ``lr_initial`` holds until 80% of the epochs are done, then a single
    step drops to ``lr_final``.  Desk-scale runs use batch_size=64,
    epochs=10.
    """

    variant: str = RF32
    loss_kind: str = HINGE
    eta: float = DEFAULT_ETA
    batch_size: int = 256
    epochs: int = 100
    lr_initial: float = 1e-3
    lr_final: float = 1e-4
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.loss_kind not in LOSSES:
            raise ValueError(f"unknown loss {self.loss_kind!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.eta > 0 and self.batch_size < 2:
            raise ValueError("pairwise regularizer needs batch_size >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        for name in ("lr_initial", "lr_final"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


_KEY_OF_FIELD = {"loss_kind": "loss"}


def config_keys():
    """The config-file key of every TrainConfig field, in field order."""
    return [_KEY_OF_FIELD.get(f.name, f.name) for f in fields(TrainConfig)]


def config_to_mapping(config):
    return {
        key: getattr(config, f.name)
        for key, f in zip(config_keys(), fields(TrainConfig))
    }


def config_from_mapping(mapping, source="<config>"):
    keys = config_keys()
    for key in mapping:
        if key not in keys:
            raise DataFormatError(f"{source}: unknown option {key!r}")
    kwargs = {}
    for key, f in zip(keys, fields(TrainConfig)):
        if key not in mapping:
            continue
        try:
            kwargs[f.name] = f.type(mapping[key])
        except ValueError:
            raise DataFormatError(
                f"{source}: bad value {mapping[key]!r} for {key}"
            ) from None
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from None


@dataclass
class RunHistory:
    """Per-epoch trace.  ``j_class`` is the sample-weighted epoch mean of
    the classification loss; ``j_mi`` averages the per-batch regularizer
    values (each batch contributes one pairwise term regardless of its
    size); ``test_accuracy`` is measured after the epoch's updates."""

    epochs: list = field(default_factory=list)
    j_class: list = field(default_factory=list)
    j_mi: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)

    @property
    def max_test_accuracy(self):
        return max(self.test_accuracy)


@dataclass
class ExperimentSummary:
    """Max test accuracy per run, with mean and population std."""

    max_accuracies: list
    mean: float
    std: float


def batch_gradients(model, x, labels, loss_kind, eta, pool=None):
    """One batch's parameter gradients and loss values.

    Returns (grads, j_class, j_mi) with grads ordered as parameters().
    Raises TrainingDivergedError when a score is not finite.

    The batch runs as ``_SHARD``-image shards, on ``pool`` when one is
    given.  The forward works image by image, so the shards' scores and
    embeddings are the whole batch's bytes, and the loss and the
    regularizer see the whole batch.  Each shard backpropagates its rows
    of the loss gradient, and the shards' gradients are summed in shard
    order, so their bytes do not depend on the pool or its size.
    """
    shards = [slice(i, i + _SHARD) for i in range(0, x.shape[0], _SHARD)]
    passes = _map(pool, lambda s: forward_training(model, x[s]), shards)
    scores = np.concatenate([p[0] for p in passes])
    if not np.isfinite(scores).all():
        raise TrainingDivergedError("non-finite scores")
    j_class, grad_scores = LOSSES[loss_kind](scores, labels)
    j_mi = 0.0
    grad_embedding = None
    if eta > 0.0:
        embeddings = np.concatenate([p[1] for p in passes])
        batch = EmbeddingBatch(y=embeddings.astype(np.float64), labels=labels)
        j_mi = regularizer_loss(batch_potentials(batch))
        grad_embedding = eta * regularizer_gradient(batch)

    def backward(k):
        s = shards[k]
        g_emb = None if grad_embedding is None else grad_embedding[s]
        per_layer = backprop(model, passes[k][2], grad_scores[s], g_emb)
        return [g for pair in per_layer for g in pair]

    grads, *later = _map(pool, backward, range(len(shards)))
    for shard in later:
        for total, g in zip(grads, shard):
            total += g
    return grads, float(j_class), float(j_mi)


def _map(pool, fn, items):
    """[fn(item) for item in items]; on ``pool``, each call runs in a copy
    of the caller's context, so ``np.errstate`` holds in the workers."""
    if pool is None:
        return [fn(item) for item in items]
    calls = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    return [call.result() for call in calls]


def _bundled_openblas():
    """(get, set) thread-count functions of the OpenBLAS in numpy's wheel (in
    ``numpy.libs`` or macOS's ``numpy/.dylibs``; numpy 2's symbols have a
    ``scipy_`` prefix), or None under any other BLAS."""
    root = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    for path in sorted(libs + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            get, put = (f"{prefix}{op}_num_threads64_" for op in ("get", "set"))
            if hasattr(lib, put):
                return getattr(lib, get), getattr(lib, put)
    return None


@contextmanager
def _workers():
    """Runs the block on one BLAS thread with a pool of up to one worker
    thread per CPU this process may run on, or None on one CPU; on exit
    the pool's threads are joined and the BLAS thread count restored.

    The pool starts a thread only when a task finds none idle.  OpenBLAS
    sums some products in another order on more threads, and its count is
    process-wide.  Only numpy's bundled OpenBLAS is pinned; under any
    other BLAS, training bytes hold only at a fixed thread count.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    get, put = _bundled_openblas() or (lambda: 1, lambda threads: None)
    threads = get()
    put(1)
    try:
        if cpus < 2:
            yield None
            return
        # Imported here: it imports logging, which costs a process that only
        # scores frames ~5 ms of start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(cpus, thread_name_prefix="qmiheat") as pool:
            yield pool
    finally:
        put(threads)


def train(config, train_set, test_set):
    """Full training run; returns (model, history).

    Each batch's shards, and the test set's batches, run on a pool of up
    to one worker thread per CPU (see ``batch_gradients``), created for
    the run and shut down before it returns.  The run holds the process's
    BLAS at one thread (see ``_workers``), so its bytes depend neither on
    the CPU count nor on the BLAS thread count.
    Raises TrainingDivergedError, naming the epoch and the batch, when a
    batch scores non-finite or an epoch ends with non-finite parameters.
    """
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("datasets must be non-empty")
    check_window(config.variant, train_set, "train images")
    check_window(config.variant, test_set, "test images")
    with _workers() as pool:
        return _train(config, train_set, test_set, pool)


def _train(config, train_set, test_set, pool):
    model = build_model(config.variant, config.seed)
    y_train = train_set.labels
    n = len(train_set)
    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_params(
        parameters(model), lr=config.lr_initial, momentum=config.momentum
    )
    switch_after = int(0.8 * config.epochs)
    history = RunHistory()
    for epoch in range(1, config.epochs + 1):
        state.lr = config.lr_final if epoch > switch_after else config.lr_initial
        order = rng.permutation(n)
        class_total = 0.0
        mi_values = []
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            x = to_float(train_set, idx)
            try:
                grads, j_class, j_mi = batch_gradients(
                    model, x, y_train[idx], config.loss_kind, config.eta, pool
                )
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, batch {batch}: {exc}"
                ) from None
            sgd_momentum_step(parameters(model), grads, state)
            class_total += j_class * idx.size
            mi_values.append(j_mi)
        if not all(np.isfinite(p).all() for p in parameters(model)):
            raise TrainingDivergedError(
                f"epoch {epoch}, batch {batch}: non-finite parameters after the update"
            )
        history.epochs.append(epoch)
        history.j_class.append(class_total / n)
        history.j_mi.append(sum(mi_values) / len(mi_values))
        history.test_accuracy.append(_accuracy(model, test_set, pool))
    return model, history


def evaluate(model, dataset):
    """Fraction of samples whose 2-channel argmax matches the label;
    ValueError if the images are not the model's window.  Its batches run
    on up to one worker thread per CPU, on one BLAS thread."""
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    check_window(model.variant, dataset, "images")
    with _workers() as pool:
        return _accuracy(model, dataset, pool)


def check_window(variant, dataset, what):
    """ValueError, led by ``what``, unless the dataset's images are the
    variant's training window."""
    h, w = dataset.image_hw
    window = WINDOW_PX[variant]
    if (h, w) != (window, window):
        raise ValueError(
            f"{what} are {h}x{w}, {variant} takes {window}x{window} windows"
        )


def _accuracy(model, dataset, pool):
    def correct(start):
        batch = slice(start, start + _EVAL_BATCH)
        scores = forward_scores(model, to_float(dataset, batch))
        pred = np.argmax(scores.reshape(scores.shape[0], 2), axis=1)
        return int(np.sum(pred == dataset.labels[batch]))

    return sum(_map(pool, correct, range(0, len(dataset), _EVAL_BATCH))) / len(dataset)


def repeated_experiment(config, train_set, test_set, k=5):
    """k independent runs with seeds seed+0..k-1.

    Returns ``(summary, runs)``: the max test accuracies as mean and
    population std, and each run's ``(model, history)`` in seed order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    runs = [train(replace(config, seed=config.seed + i), train_set, test_set) for i in range(k)]
    maxima = [history.max_test_accuracy for _, history in runs]
    arr = np.asarray(maxima, dtype=np.float64)
    return ExperimentSummary(
        max_accuracies=maxima, mean=float(arr.mean()), std=float(arr.std())
    ), runs


def write_history(history, path):
    """Comma-separated rows: epoch, j_class, j_mi, test_accuracy."""
    text = "epoch,j_class,j_mi,test_accuracy\n" + "".join(
        f"{history.epochs[i]},{float(history.j_class[i])!r},"
        f"{float(history.j_mi[i])!r},{float(history.test_accuracy[i])!r}\n"
        for i in range(len(history.epochs))
    )
    write_file(path, text.encode("ascii"))


def write_summary(summary, path):
    mapping = {"runs": len(summary.max_accuracies)}
    for i, acc in enumerate(summary.max_accuracies, start=1):
        mapping[f"run_{i}_max_accuracy"] = float(acc)
    mapping["mean_max_accuracy"] = summary.mean
    mapping["std_max_accuracy"] = summary.std
    save_config(mapping, path)
