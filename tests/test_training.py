"""Training loop, experiment protocol, run records."""

import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from conftest import NON_DEFAULT_CONFIG

import qmiheat
from qmiheat.config import parse_config, serialize_config
from qmiheat.data import SynthSpec, generate_synthetic, generate_synthetic_split, to_float
from qmiheat.errors import DataFormatError, TrainingDivergedError
from qmiheat.losses import CROSS_ENTROPY, HINGE
from qmiheat.models import backprop, build_model, forward_training, parameters
from qmiheat.layers import OptimizerState, sgd_momentum_step
from qmiheat.losses import LOSSES
from qmiheat.qmi import EmbeddingBatch, batch_potentials, regularizer_gradient, regularizer_loss
from qmiheat.training import (
    ExperimentSummary,
    RunHistory,
    TrainConfig,
    _bundled_openblas,
    batch_gradients,
    config_from_mapping,
    config_to_mapping,
    evaluate,
    repeated_experiment,
    train,
    write_history,
    write_summary,
)


def _small_config(**overrides):
    base = dict(variant="rf32", epochs=2, batch_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _shards(n):
    """The 32-image shards a batch of n runs as."""
    return [slice(i, i + 32) for i in range(0, n, 32)]


def _flat(layer_grads):
    return [g for pair in layer_grads for g in pair]


def _biased_model(seed):
    model = build_model("rf32", seed)
    rng = np.random.default_rng(seed)
    for spec in model.layers:
        spec.conv.bias = rng.uniform(-0.1, 0.1, spec.conv.bias.shape).astype(np.float32)
    return model


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.batch_size == 256
    assert cfg.epochs == 100
    assert cfg.lr_initial == 1e-3
    assert cfg.lr_final == 1e-4
    assert cfg.momentum == 0.9
    assert cfg.eta == 0.001
    assert cfg.loss_kind == HINGE


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=1.5)
    with pytest.raises(ValueError):
        TrainConfig(eta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1, eta=0.5)  # pairwise terms need two samples
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="focal")
    with pytest.raises(ValueError):
        TrainConfig(variant="rf128")
    for bad in (
        dict(seed=-1),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(lr_initial=0.0),
        dict(lr_initial=-0.1),
        dict(lr_final=float("nan")),
        dict(lr_final=float("inf")),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    # batch of one is fine once the regularizer is off
    TrainConfig(batch_size=1, eta=0.0)
    TrainConfig(momentum=0.0, seed=0)


def test_config_mapping_round_trip():
    default = TrainConfig()
    for f in fields(TrainConfig):
        assert getattr(NON_DEFAULT_CONFIG, f.name) != getattr(default, f.name)
    text = serialize_config(config_to_mapping(NON_DEFAULT_CONFIG))
    assert text == (
        "variant=rf64\nloss=ce\neta=0.25\nbatch_size=32\nepochs=7\n"
        "lr_initial=0.005\nlr_final=2e-05\nmomentum=0.5\nseed=3\n"
    )
    assert config_from_mapping(parse_config(text)) == NON_DEFAULT_CONFIG


def test_config_mapping_rejects_unknown_key_and_bad_value():
    mapping = config_to_mapping(TrainConfig())
    mapping["turbo"] = "yes"
    with pytest.raises(DataFormatError) as err:
        config_from_mapping(mapping, source="run.cfg")
    assert "turbo" in str(err.value)
    mapping2 = config_to_mapping(TrainConfig())
    mapping2["epochs"] = "many"
    with pytest.raises(DataFormatError):
        config_from_mapping(mapping2, source="run.cfg")
    # every key is checked before any value is converted
    with pytest.raises(DataFormatError, match="unknown option 'turbo'"):
        config_from_mapping({"epochs": "many", "turbo": "yes"}, source="run.cfg")
    for key, value in (("lr_initial", "-0.1"), ("lr_final", "nan")):
        with pytest.raises(DataFormatError, match=f"run.cfg: {key}"):
            config_from_mapping({key: value}, source="run.cfg")


def test_eta_zero_matches_hand_rolled_baseline_loop(tiny_split):
    """A run with the regularizer off must equal a loop that has no
    regularizer code at all, bit for bit."""
    train_set, test_set = tiny_split
    cfg = _small_config(eta=0.0, epochs=2, batch_size=8)
    model, _ = train(cfg, train_set, test_set)

    ref = build_model(cfg.variant, cfg.seed)
    params = parameters(ref)
    state = OptimizerState.for_params(params, lr=cfg.lr_initial, momentum=cfg.momentum)
    x_all = to_float(train_set)
    labels_all = train_set.labels
    rng = np.random.default_rng(cfg.seed)
    switch_after = int(0.8 * cfg.epochs)
    for epoch in range(1, cfg.epochs + 1):
        state.lr = cfg.lr_initial if epoch <= switch_after else cfg.lr_final
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            scores, _, caches = forward_training(ref, x_all[sel])
            _, grad_scores = LOSSES[cfg.loss_kind](scores, labels_all[sel])
            layer_grads = backprop(ref, caches, grad_scores)
            flat = [g for pair in layer_grads for g in pair]
            sgd_momentum_step(params, flat, state)

    for a, b in zip(parameters(model), parameters(ref)):
        assert np.array_equal(a, b)


def test_eta_zero_matches_hand_rolled_loop_over_shards(tiny_split):
    """At batch 64 a run with the regularizer off equals, bit for bit, a
    loop with no regularizer code that folds its 32-image shards' gradients
    in order."""
    train_set, test_set = tiny_split
    cfg = _small_config(eta=0.0, epochs=2, batch_size=64)
    model, _ = train(cfg, train_set, test_set)

    ref = build_model(cfg.variant, cfg.seed)
    params = parameters(ref)
    state = OptimizerState.for_params(params, lr=cfg.lr_initial, momentum=cfg.momentum)
    x_all = to_float(train_set)
    labels_all = train_set.labels
    rng = np.random.default_rng(cfg.seed)
    switch_after = int(0.8 * cfg.epochs)
    for epoch in range(1, cfg.epochs + 1):
        state.lr = cfg.lr_initial if epoch <= switch_after else cfg.lr_final
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            passes = [forward_training(ref, x_all[sel][s]) for s in _shards(sel.size)]
            scores = np.concatenate([p[0] for p in passes])
            _, grad_scores = LOSSES[cfg.loss_kind](scores, labels_all[sel])
            flat = None
            for (_, _, caches), s in zip(passes, _shards(sel.size)):
                shard = _flat(backprop(ref, caches, grad_scores[s]))
                flat = shard if flat is None else [a + b for a, b in zip(flat, shard)]
            sgd_momentum_step(params, flat, state)

    for a, b in zip(parameters(model), parameters(ref)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [64, 80])
def test_batch_gradients_fold_shard_gradients_in_order(tiny_split, n):
    # 64 images are two shards; 80 add a short third.
    train_set, _ = tiny_split
    x = to_float(train_set)[:n]
    labels = train_set.labels[:n]
    model = _biased_model(5)
    eta = 0.01
    grads, j_class, j_mi = batch_gradients(model, x, labels, HINGE, eta)

    # The shards' forward values are the whole batch's bytes.
    scores, emb, caches = forward_training(model, x)
    passes = [forward_training(model, x[s]) for s in _shards(n)]
    assert np.concatenate([p[0] for p in passes]).tobytes() == scores.tobytes()
    assert np.concatenate([p[1] for p in passes]).tobytes() == emb.tobytes()
    want_class, grad_scores = LOSSES[HINGE](scores, labels)
    batch = EmbeddingBatch(y=emb.astype(np.float64), labels=labels)
    assert j_class == float(want_class)
    assert j_mi == float(regularizer_loss(batch_potentials(batch)))

    grad_emb = eta * regularizer_gradient(batch)
    folded = None
    for p, s in zip(passes, _shards(n)):
        shard = _flat(backprop(model, p[2], grad_scores[s], grad_emb[s]))
        folded = shard if folded is None else [a + b for a, b in zip(folded, shard)]
    whole = _flat(backprop(model, caches, grad_scores, grad_emb))
    for got, f, w in zip(grads, folded, whole):
        assert got.tobytes() == f.tobytes()
        assert np.abs(got - w).max() <= 1e-5 * np.abs(w).max()


def test_batch_gradients_do_not_depend_on_the_pool(tiny_split):
    # 80 images: two full shards and a short one; four workers, more than
    # the cores here, switching threads as often as the interpreter can.
    train_set, _ = tiny_split
    x = to_float(train_set)
    model = _biased_model(2)
    results = [batch_gradients(model, x, train_set.labels, HINGE, 0.01)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(workers) as pool:
                results.append(
                    batch_gradients(model, x, train_set.labels, HINGE, 0.01, pool)
                )
    finally:
        sys.setswitchinterval(interval)
    for grads, j_class, j_mi in results[1:]:
        assert (j_class, j_mi) == results[0][1:]
        for a, b in zip(grads, results[0][0]):
            assert a.tobytes() == b.tobytes()


def test_train_and_evaluate_join_their_worker_threads(tiny_split):
    train_set, test_set = tiny_split
    before = threading.active_count()
    model, _ = train(_small_config(batch_size=64, epochs=1), train_set, test_set)
    assert threading.active_count() == before
    evaluate(model, train_set)
    assert threading.active_count() == before


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy does not use a bundled OpenBLAS")
def test_diverging_train_restores_blas_threads_and_joins_its_workers(tiny_split):
    train_set, test_set = tiny_split
    get, put = _bundled_openblas()
    threads = get()
    before = threading.active_count()
    put(2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(_small_config(batch_size=64, lr_initial=1e30), train_set, test_set)
        assert get() == 2
    finally:
        put(threads)
    assert threading.active_count() == before


def test_j_class_decreases_over_early_epochs():
    train_set, test_set = generate_synthetic_split(32, 100, 25, seed=7)
    cfg = TrainConfig(variant="rf32", epochs=4, batch_size=32, seed=0)
    _, hist = train(cfg, train_set, test_set)
    assert hist.j_class[0] > hist.j_class[1] > hist.j_class[2]


def test_eta_continuity_near_zero(tiny_split):
    train_set, _ = tiny_split
    x = to_float(train_set)[:16]
    labels = train_set.labels[:16]
    model = build_model("rf32", 3)
    g0, jc0, jmi0 = batch_gradients(model, x, labels, HINGE, eta=0.0)
    g1, jc1, jmi1 = batch_gradients(model, x, labels, HINGE, eta=1e-12)
    assert jc0 == jc1
    assert jmi0 == 0.0 and jmi1 != 0.0
    for a, b in zip(g0, g1):
        assert np.abs(a - b).max() <= 1e-8


def test_regularizer_gradient_never_touches_classifier(tiny_split):
    train_set, _ = tiny_split
    x = to_float(train_set)[:16]
    labels = train_set.labels[:16]
    model = build_model("rf32", 3)
    g_off, _, _ = batch_gradients(model, x, labels, HINGE, eta=0.0)
    g_on, _, _ = batch_gradients(model, x, labels, HINGE, eta=0.5)
    # the injected term reshapes feature-layer gradients only; the final
    # conv pair (kernel, bias) is bit-identical with and without it
    assert np.array_equal(g_off[-2], g_on[-2])
    assert np.array_equal(g_off[-1], g_on[-1])
    assert any(not np.array_equal(a, b) for a, b in zip(g_off[:-2], g_on[:-2]))


def test_batch_j_mi_is_the_regularizer_loss(tiny_split):
    from qmiheat.qmi import EmbeddingBatch, batch_potentials, regularizer_loss

    train_set, _ = tiny_split
    x = to_float(train_set)[:12]
    labels = train_set.labels[:12]
    model = build_model("rf32", 1)
    _, _, jmi = batch_gradients(model, x, labels, HINGE, eta=0.001)
    _, emb, _ = forward_training(model, x)
    want = regularizer_loss(batch_potentials(EmbeddingBatch(y=emb, labels=labels)))
    assert jmi == pytest.approx(want, abs=1e-12)


def test_train_rejects_empty_and_mismatched_data(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config()
    empty = generate_synthetic(SynthSpec(size=32, count_per_class=1, seed=0))
    empty = type(empty)(pixels=empty.pixels[:0], labels=empty.labels[:0])
    with pytest.raises(ValueError):
        train(cfg, empty, test_set)
    big = generate_synthetic(SynthSpec(size=64, count_per_class=2, seed=0))
    with pytest.raises(ValueError):
        train(cfg, big, test_set)


def test_history_shape_and_max_accuracy(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config(epochs=3, batch_size=8)
    _, hist = train(cfg, train_set, test_set)
    assert hist.epochs == [1, 2, 3]
    assert len(hist.j_class) == 3
    assert len(hist.j_mi) == 3
    assert hist.max_test_accuracy == max(hist.test_accuracy)


def test_eta_zero_history_records_zero_j_mi(tiny_split):
    train_set, test_set = tiny_split
    _, hist = train(_small_config(eta=0.0), train_set, test_set)
    assert all(v == 0.0 for v in hist.j_mi)


def test_regularized_history_records_negative_j_mi(tiny_split):
    train_set, test_set = tiny_split
    _, hist = train(_small_config(eta=0.001, batch_size=8), train_set, test_set)
    assert all(v < 0.0 for v in hist.j_mi)


def test_evaluate_single_correct_sample_is_one(tiny_split):
    train_set, _ = tiny_split
    model = build_model("rf32", 0)
    ds = type(train_set)(pixels=train_set.pixels[:1], labels=train_set.labels[:1])
    acc = evaluate(model, ds)
    assert acc in (0.0, 1.0)
    flipped = type(ds)(pixels=ds.pixels, labels=1 - ds.labels)
    assert evaluate(model, ds) + evaluate(model, flipped) == 1.0


def test_evaluate_random_models_sit_near_chance():
    ds = generate_synthetic(SynthSpec(size=32, count_per_class=200, seed=99))
    accs = [evaluate(build_model("rf32", s), ds) for s in range(5)]
    assert all(0.35 <= a <= 0.65 for a in accs)
    assert abs(float(np.mean(accs)) - 0.5) <= 0.1


def test_evaluate_constant_predictor_is_exactly_half():
    ds = generate_synthetic(SynthSpec(size=32, count_per_class=20, seed=1))
    model = build_model("rf32", 0)
    # a huge bias on channel 1 makes every argmax come out 1
    model.layers[-1].conv.bias = np.array([-100.0, 100.0], dtype=np.float32)
    assert evaluate(model, ds) == 0.5


def test_evaluate_rejects_empty():
    ds = generate_synthetic(SynthSpec(size=32, count_per_class=1, seed=0))
    empty = type(ds)(pixels=ds.pixels[:0], labels=ds.labels[:0])
    with pytest.raises(ValueError):
        evaluate(build_model("rf32", 0), empty)


def test_repeated_experiment_k1_and_forced_seeds(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config(epochs=2, batch_size=8)
    s1, _ = repeated_experiment(cfg, train_set, test_set, k=1)
    assert s1.std == 0.0
    assert s1.mean == s1.max_accuracies[0]

    # run i trains with seed cfg.seed + i
    s3, _ = repeated_experiment(cfg, train_set, test_set, k=3)
    for i in range(3):
        _, history = train(_small_config(epochs=2, batch_size=8, seed=i), train_set, test_set)
        assert s3.max_accuracies[i] == history.max_test_accuracy


def test_repeated_experiment_is_reproducible(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config(epochs=2, batch_size=8)
    a, _ = repeated_experiment(cfg, train_set, test_set, k=2)
    b, _ = repeated_experiment(cfg, train_set, test_set, k=2)
    assert a.max_accuracies == b.max_accuracies
    assert a.mean == b.mean and a.std == b.std


def test_repeated_experiment_returns_its_runs_in_seed_order(tiny_split):
    train_set, test_set = tiny_split
    summary, runs = repeated_experiment(
        _small_config(epochs=1, batch_size=8), train_set, test_set, k=2
    )
    assert [hist.max_test_accuracy for _, hist in runs] == summary.max_accuracies
    model, _ = train(_small_config(epochs=1, batch_size=8, seed=1), train_set, test_set)
    assert [spec.conv.kernel.tobytes() for spec in runs[1][0].layers] == [
        spec.conv.kernel.tobytes() for spec in model.layers
    ]


def test_summary_std_is_population_std(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config(epochs=1, batch_size=8)
    s, _ = repeated_experiment(cfg, train_set, test_set, k=2)
    arr = np.asarray(s.max_accuracies)
    assert s.mean == pytest.approx(float(arr.mean()), abs=0)
    # population convention: sqrt of the mean squared deviation, no n-1
    assert s.std == pytest.approx(float(arr.std()), abs=0)


def test_history_file_round_trip(tmp_path):
    hist = RunHistory(
        epochs=[1, 2],
        j_class=[1.9571232, 1.25],
        j_mi=[-0.4597, -0.031],
        test_accuracy=[0.5, 0.875],
    )
    p = tmp_path / "history.csv"
    write_history(hist, p)
    assert p.read_text() == (
        "epoch,j_class,j_mi,test_accuracy\n"
        "1,1.9571232,-0.4597,0.5\n"
        "2,1.25,-0.031,0.875\n"
    )
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    assert back.tolist() == [
        [e, c, m, a]
        for e, c, m, a in zip(hist.epochs, hist.j_class, hist.j_mi, hist.test_accuracy)
    ]


def test_summary_file_format(tmp_path):
    s = ExperimentSummary(max_accuracies=[0.5, 0.75], mean=0.625, std=0.125)
    p = tmp_path / "summary.txt"
    write_summary(s, p)
    text = p.read_text()
    assert "runs=2\n" in text
    assert "run_1_max_accuracy=0.5\n" in text
    assert "run_2_max_accuracy=0.75\n" in text
    assert "mean_max_accuracy=0.625\n" in text
    assert "std_max_accuracy=0.125\n" in text


def test_train_is_deterministic(tiny_split):
    train_set, test_set = tiny_split
    cfg = _small_config(epochs=2, batch_size=8)
    m1, h1 = train(cfg, train_set, test_set)
    m2, h2 = train(cfg, train_set, test_set)
    for a, b in zip(parameters(m1), parameters(m2)):
        assert np.array_equal(a, b)
    assert h1.j_class == h2.j_class
    assert h1.j_mi == h2.j_mi
    assert h1.test_accuracy == h2.test_accuracy


@pytest.mark.skipif(
    _bundled_openblas() is None,
    reason="numpy does not use a bundled OpenBLAS; training bytes then hold "
    "only at a fixed BLAS thread count",
)
def test_train_bytes_do_not_depend_on_the_blas_thread_count():
    # Unpinned, two OpenBLAS threads sum a batch-64 kernel-gradient product
    # in another order than one, and this run's parameters differ.
    script = (
        "import hashlib\n"
        "from qmiheat.data import generate_synthetic_split\n"
        "from qmiheat.models import parameters\n"
        "from qmiheat.training import TrainConfig, train\n"
        "tr, te = generate_synthetic_split(32, 64, 4, seed=0)\n"
        "model, _ = train(TrainConfig(batch_size=64, epochs=1, eta=0.0), tr, te)\n"
        "blob = b''.join(p.tobytes() for p in parameters(model))\n"
        "print(hashlib.sha256(blob).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(qmiheat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_cross_entropy_loss_kind_trains(tiny_split):
    train_set, test_set = tiny_split
    _, hist = train(
        _small_config(loss_kind=CROSS_ENTROPY, epochs=2, batch_size=8),
        train_set,
        test_set,
    )
    assert np.isfinite(hist.j_class).all()


def test_diverging_training_stops_naming_epoch_and_batch(tiny_split):
    train_set, test_set = tiny_split
    for eta in (0.0, 0.001):
        config = _small_config(eta=eta, lr_initial=1e4, lr_final=1e4, epochs=3)
        where = r"epoch \d+, batch \d+: non-finite"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match=where):
                train(config, train_set, test_set)


def test_diverging_sharded_run_keeps_the_callers_error_state(tiny_split):
    # The shards run on worker threads; np.errstate must hold there too.
    train_set, test_set = tiny_split
    config = _small_config(batch_size=64, lr_initial=1e4, lr_final=1e4, epochs=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="non-finite"):
                train(config, train_set, test_set)
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


def test_non_finite_parameters_after_the_last_update_stop_the_run(tiny_split):
    # one batch, one epoch: no later forward pass would see the overflow
    # (a one-epoch run trains at lr_final; 1e39 overflows float32)
    train_set, test_set = tiny_split
    config = _small_config(epochs=1, batch_size=len(train_set), lr_final=1e39)
    where = "epoch 1, batch 1: non-finite parameters"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match=where):
            train(config, train_set, test_set)


def test_batch_gradients_rejects_non_finite_scores(tiny_split):
    train_set, _ = tiny_split
    model = build_model("rf32", seed=0)
    model.layers[4].conv.bias[0] = np.inf
    x = to_float(train_set)[:4]
    with pytest.raises(TrainingDivergedError, match="non-finite scores"):
        batch_gradients(model, x, train_set.labels[:4], HINGE, eta=0.0)
