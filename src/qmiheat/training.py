"""Mini-batch SGD training with the pairwise-information regularizer.

The regularizer gradient is injected at the embedding (the flattened
post-pool activations of the fourth convolution) and flows backward
through the feature stages only; the 2-channel head sees just the
classification gradient.  With ``eta == 0`` the regularizer code path is
skipped entirely, so a zero-eta run is bit-identical to a build without
the regularizer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import save_config
from .data import to_float
from .errors import DataFormatError, TrainingDivergedError
from .layers import OptimizerState, sgd_momentum_step
from .losses import CROSS_ENTROPY, DEFAULT_ETA, HINGE, LOSSES
from .models import (
    RF32,
    VARIANTS,
    backprop,
    build_model,
    forward_scores,
    forward_training,
    parameters,
)
from .qmi import EmbeddingBatch, batch_potentials, regularizer_gradient, regularizer_loss

_EVAL_BATCH = 64


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


_CONFIG_KEYS = (
    ("variant", str),
    ("loss", str),
    ("eta", float),
    ("batch_size", int),
    ("epochs", int),
    ("lr_initial", float),
    ("lr_final", float),
    ("momentum", float),
    ("seed", int),
)
_FIELD_OF_KEY = {"loss": "loss_kind"}


def config_to_mapping(config):
    return {
        key: getattr(config, _FIELD_OF_KEY.get(key, key)) for key, _ in _CONFIG_KEYS
    }


def config_from_mapping(mapping, source="<config>"):
    known = {key for key, _ in _CONFIG_KEYS}
    for key in mapping:
        if key not in known:
            raise DataFormatError(f"{source}: unknown option {key!r}")
    kwargs = {}
    for key, conv in _CONFIG_KEYS:
        if key not in mapping:
            continue
        try:
            kwargs[_FIELD_OF_KEY.get(key, key)] = conv(mapping[key])
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


def batch_gradients(model, x, labels, loss_kind, eta):
    """One batch's parameter gradients and loss values.

    Returns (grads, j_class, j_mi) with grads ordered as parameters().
    Raises TrainingDivergedError when a score is not finite.
    """
    scores, embeddings, caches = forward_training(model, x)
    if not np.isfinite(scores).all():
        raise TrainingDivergedError("non-finite scores")
    j_class, grad_scores = LOSSES[loss_kind](scores, labels)
    j_mi = 0.0
    grad_embedding = None
    if eta > 0.0:
        batch = EmbeddingBatch(y=embeddings.astype(np.float64), labels=labels)
        j_mi = regularizer_loss(batch_potentials(batch))
        grad_embedding = eta * regularizer_gradient(batch)
    per_layer = backprop(model, caches, grad_scores, grad_embedding)
    grads = []
    for gk, gb in per_layer:
        grads.append(gk)
        grads.append(gb)
    return grads, float(j_class), float(j_mi)


def train(config, train_set, test_set):
    """Full training run; returns (model, history).

    Raises TrainingDivergedError, naming the epoch and the batch, when a
    batch scores non-finite or an epoch ends with non-finite parameters.
    """
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("datasets must be non-empty")
    model = build_model(config.variant, config.seed)
    for name, ds in (("train", train_set), ("test", test_set)):
        h, w = ds.image_hw
        if (h, w) != (model.window_px, model.window_px):
            raise ValueError(
                f"{name} images are {h}x{w}, {config.variant} trains on "
                f"{model.window_px}x{model.window_px}"
            )
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
                    model, x, y_train[idx], config.loss_kind, config.eta
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
        history.test_accuracy.append(_accuracy(model, test_set))
    return model, history


def evaluate(model, dataset):
    """Fraction of samples whose 2-channel argmax matches the label."""
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    return _accuracy(model, dataset)


def _accuracy(model, dataset):
    correct = 0
    for start in range(0, len(dataset), _EVAL_BATCH):
        batch = slice(start, start + _EVAL_BATCH)
        scores = forward_scores(model, to_float(dataset, batch))
        pred = np.argmax(scores.reshape(scores.shape[0], 2), axis=1)
        correct += int(np.sum(pred == dataset.labels[batch]))
    return correct / len(dataset)


def repeated_experiment(config, train_set, test_set, k=5, on_run=None):
    """k independent runs with seeds seed+0..k-1; summarizes max test
    accuracies as mean and population std.

    ``on_run(index, model, history)`` fires after each run, for callers
    that persist per-run artifacts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    maxima = []
    for i in range(k):
        run_config = TrainConfig(**{**config.__dict__, "seed": config.seed + i})
        model, history = train(run_config, train_set, test_set)
        maxima.append(history.max_test_accuracy)
        if on_run is not None:
            on_run(i, model, history)
    arr = np.asarray(maxima, dtype=np.float64)
    return ExperimentSummary(
        max_accuracies=maxima, mean=float(arr.mean()), std=float(arr.std())
    )


def write_history(history, path):
    """Comma-separated rows: epoch, j_class, j_mi, test_accuracy."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,j_class,j_mi,test_accuracy\n")
        for i in range(len(history.epochs)):
            fh.write(
                f"{history.epochs[i]},{float(history.j_class[i])!r},"
                f"{float(history.j_mi[i])!r},{float(history.test_accuracy[i])!r}\n"
            )


def load_history(path):
    history = RunHistory()
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "epoch,j_class,j_mi,test_accuracy":
            raise DataFormatError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields")
            history.epochs.append(int(parts[0]))
            history.j_class.append(float(parts[1]))
            history.j_mi.append(float(parts[2]))
            history.test_accuracy.append(float(parts[3]))
    return history


def write_summary(summary, path):
    mapping = {"runs": len(summary.max_accuracies)}
    for i, acc in enumerate(summary.max_accuracies, start=1):
        mapping[f"run_{i}_max_accuracy"] = float(acc)
    mapping["mean_max_accuracy"] = summary.mean
    mapping["std_max_accuracy"] = summary.std
    save_config(mapping, path)
