"""Information potentials, QMI estimate and regularizer gradient."""

import numpy as np
import pytest
from conftest import (
    central_difference,
    kernel_oracle,
    potentials_oracle,
    relative_error,
)

from qmiheat.qmi import (
    EmbeddingBatch,
    batch_potentials,
    information_potentials,
    pairwise_similarity,
    quadratic_mutual_information,
    regularizer_gradient,
    regularizer_loss,
)


def _random_batch(rng, n, d):
    y = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return EmbeddingBatch(y=y, labels=labels)


def test_similarity_hand_values():
    k = pairwise_similarity([[0.0], [0.0], [1.0]])
    assert k[0, 1] == 1.0
    assert k[0, 2] == kernel_oracle([0.0], [1.0]) == 0.5
    # distance^2 = 25, plus 1
    k = pairwise_similarity([[0.0, 0.0], [3.0, 4.0]])
    assert k[0, 1] == pytest.approx(1.0 / 26.0)
    assert kernel_oracle([0.0, 0.0], [3.0, 4.0]) == pytest.approx(1.0 / 26.0)


def test_pairwise_matrix_basics():
    assert np.array_equal(pairwise_similarity([[2.0, 3.0]]), [[1.0]])
    y = np.zeros((4, 3))
    assert np.array_equal(pairwise_similarity(y), np.ones((4, 4)))
    rng = np.random.default_rng(1)
    y = rng.standard_normal((5, 2))
    k = pairwise_similarity(y)
    for i in range(5):
        for j in range(5):
            assert k[i, j] == pytest.approx(kernel_oracle(y[i], y[j]), abs=1e-12)
    assert np.allclose(k, k.T)
    assert np.array_equal(np.diag(k), np.ones(5))


def test_identical_embeddings_give_zero_qmi():
    # two identical rows, different labels: every kernel entry is 1
    batch = EmbeddingBatch(y=[[1.0, 2.0], [1.0, 2.0]], labels=[0, 1])
    p = batch_potentials(batch)
    assert p.v_in == pytest.approx(0.5, abs=1e-12)
    assert p.v_all == pytest.approx(0.5, abs=1e-12)
    assert p.v_btw == pytest.approx(0.5, abs=1e-12)
    assert quadratic_mutual_information(p) == pytest.approx(0.0, abs=1e-9)
    assert regularizer_loss(p) == pytest.approx(-1.0, abs=1e-9)


def test_scalar_pair_hand_case():
    # y = 0 and y = 2: off-diagonal kernel 1/5
    batch = EmbeddingBatch(y=[[0.0], [2.0]], labels=[0, 1])
    p = batch_potentials(batch)
    assert p.v_in == pytest.approx(0.5, abs=1e-9)
    assert p.v_all == pytest.approx(0.3, abs=1e-9)
    assert p.v_btw == pytest.approx(0.3, abs=1e-9)
    assert quadratic_mutual_information(p) == pytest.approx(0.2, abs=1e-9)
    assert regularizer_loss(p) == pytest.approx(-0.8, abs=1e-9)


def test_potentials_match_triple_loop_reference():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        batch = _random_batch(rng, n, d)
        p = batch_potentials(batch)
        v_in, v_all, v_btw = potentials_oracle(batch.y, batch.labels)
        assert relative_error(p.v_in, v_in) <= 1e-6
        assert relative_error(p.v_all, v_all) <= 1e-6
        assert relative_error(p.v_btw, v_btw) <= 1e-6


def test_single_class_batch_is_finite_with_equal_potentials():
    batch = EmbeddingBatch(y=np.arange(6.0).reshape(3, 2), labels=[1, 1, 1])
    p = batch_potentials(batch)
    assert np.isfinite([p.v_in, p.v_all, p.v_btw]).all()
    # one class present: all three sums coincide, so the estimate vanishes
    assert p.v_in == pytest.approx(p.v_all, abs=1e-12)
    assert p.v_in == pytest.approx(p.v_btw, abs=1e-12)
    assert quadratic_mutual_information(p) == pytest.approx(0.0, abs=1e-12)


def test_labels_must_be_binary():
    with pytest.raises(ValueError):
        EmbeddingBatch(y=[[0.0], [1.0]], labels=[0, 2])
    with pytest.raises(ValueError):
        information_potentials(np.ones((2, 2)), [0, 3])


def test_estimate_is_nonnegative_on_random_batches():
    rng = np.random.default_rng(123)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 6))
        batch = _random_batch(rng, n, d)
        q = quadratic_mutual_information(batch_potentials(batch))
        worst = min(worst, q)
    assert worst >= -1e-9


def test_potentials_are_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = batch_potentials(_random_batch(rng, 8, 3))
        assert p.v_in >= 0.0 and p.v_all >= 0.0 and p.v_btw >= 0.0


def test_loss_ignores_cross_class_only_entries():
    # v_btw consumes cross-class kernel mass that v_in and v_all see only
    # through the global sum; zeroing those entries in a synthetic matrix
    # changes v_btw but must leave the loss's ingredients consistent
    labels = np.array([0, 0, 1, 1])
    k = np.eye(4)
    base = information_potentials(k, labels)
    bumped = k.copy()
    bumped[0, 2] = bumped[2, 0] = 0.7  # cross-class entry
    after = information_potentials(bumped, labels)
    assert after.v_btw > base.v_btw
    assert after.v_in == base.v_in
    loss_delta = regularizer_loss(after) - regularizer_loss(base)
    # only the global-sum share moved the loss
    assert loss_delta == pytest.approx(-(after.v_all - base.v_all), abs=1e-12)


def test_gradient_zero_for_identical_embeddings():
    batch = EmbeddingBatch(y=np.ones((4, 3)), labels=[0, 1, 0, 1])
    g = regularizer_gradient(batch)
    assert np.abs(g).max() == 0.0


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(20):
        batch = _random_batch(rng, 12, 5)
        g = regularizer_gradient(batch)
        assert np.abs(g.sum(axis=0)).max() <= 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(20):
        batch = _random_batch(rng, 16, 8)
        g = regularizer_gradient(batch)

        labels = batch.labels.copy()

        def loss(y64):
            return regularizer_loss(batch_potentials(EmbeddingBatch(y=y64, labels=labels)))

        fd = central_difference(loss, batch.y.copy())
        assert relative_error(g, fd) <= 1e-4


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng, 10, 4)
    perm = rng.permutation(10)
    shuffled = EmbeddingBatch(y=batch.y[perm], labels=batch.labels[perm])
    p0 = batch_potentials(batch)
    p1 = batch_potentials(shuffled)
    assert p0.v_in == pytest.approx(p1.v_in, abs=1e-12)
    assert p0.v_all == pytest.approx(p1.v_all, abs=1e-12)
    assert p0.v_btw == pytest.approx(p1.v_btw, abs=1e-12)


def test_label_swap_invariance():
    # the estimator is symmetric in the two class names, and bool or float
    # 0.0/1.0 labels name the same classes as integer ones
    rng = np.random.default_rng(15)
    batch = _random_batch(rng, 9, 3)
    p = batch_potentials(batch)
    g = regularizer_gradient(batch)
    for labels in (1 - batch.labels, batch.labels.astype(bool), batch.labels.astype(np.float32)):
        other = EmbeddingBatch(y=batch.y, labels=labels)
        q = batch_potentials(other)
        assert p.v_in == pytest.approx(q.v_in, abs=1e-12)
        assert p.v_all == pytest.approx(q.v_all, abs=1e-12)
        assert p.v_btw == pytest.approx(q.v_btw, abs=1e-12)
        assert np.array_equal(regularizer_gradient(other), g)


def test_v_all_depends_on_counts_not_which_labels():
    rng = np.random.default_rng(17)
    y = rng.standard_normal((8, 3))
    a = batch_potentials(EmbeddingBatch(y=y, labels=[0, 0, 0, 1, 1, 1, 1, 1]))
    b = batch_potentials(EmbeddingBatch(y=y, labels=[1, 1, 1, 0, 0, 0, 0, 0]))
    assert a.v_all == b.v_all
