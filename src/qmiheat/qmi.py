"""Quadratic-mutual-information regularizer over embedding batches.

The dependence between an embedding batch and its binary labels is measured
through three pairwise interaction sums (information potentials) built from
the width-free Euclidean similarity ``K_il = 1 / (1 + ||y_i - y_l||^2)``:

    v_in   within-class pair interactions
    v_all  all-pairs interactions, weighted by the squared class priors
    v_btw  class-vs-everyone interactions

Each is a weighted sum of the one similarity matrix, under pair weights that
depend only on the labels (see :func:`information_potentials`).  Their
combination ``v_in + v_all - 2 * v_btw`` is the plug-in QMI estimate.  The
regularization loss is ``-(v_in + v_all)``: minimizing it maximizes the
pairwise interactions while the classification loss keeps classes apart.
Its gradient is ``4 * sum_l W_il * K_il^2 * (y_i - y_l)`` over the same
weights, ``W = w_in + c_all``.

All arithmetic here runs in float64 regardless of the input dtype; callers
embedded in the float32 training path cast the gradient back down.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EmbeddingBatch:
    """N embeddings (one row each) with binary labels.

    ``similarity`` is the N x N :func:`pairwise_similarity` of the rows,
    computed once here and read by both the potentials and the gradient.
    """

    y: np.ndarray
    labels: np.ndarray
    similarity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        self.labels = np.asarray(self.labels)
        if self.y.ndim != 2 or self.y.shape[0] < 1:
            raise ValueError("embeddings must form a non-empty N x d matrix")
        if self.labels.shape != (self.y.shape[0],):
            raise ValueError("need exactly one label per embedding row")
        _check_binary(self.labels)
        if not np.all(np.isfinite(self.y)):
            raise ValueError("embeddings must be finite")
        self.similarity = pairwise_similarity(self.y)


@dataclass
class InformationPotentials:
    """The three interaction sums for one batch."""

    v_in: float
    v_all: float
    v_btw: float


def pairwise_similarity(y):
    """N x N matrix of the width-free similarity 1 / (1 + ||a - b||^2)
    over the rows of ``y``: 1 for identical rows, decaying toward 0 with
    distance, with no bandwidth parameter."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return 1.0 / (1.0 + _pairwise_sq_dists(y))


def information_potentials(k, labels):
    """The three interaction sums from a similarity matrix and binary labels.

    With the pair weights of :func:`_pair_weights`:

        v_in  = sum_il w_in_il * k_il      (same-class pairs, over n^2)
        v_all = c_all * sum_il k_il        (c_all = (j0^2 + j1^2) / n^4)
        v_btw = sum_il w_btw_i * k_il      (w_btw_i = j_c / n^3, c = class of i)

    An empty class contributes zero to its sums, so single-class batches
    still produce finite values.
    """
    k = np.asarray(k, dtype=np.float64)
    labels = np.asarray(labels)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if n == 0:
        raise ValueError("similarity matrix is empty: need at least one embedding")
    if labels.shape != (n,):
        raise ValueError("need one label per row of the similarity matrix")
    _check_binary(labels)
    w_in, c_all, w_btw = _pair_weights(labels)
    return InformationPotentials(
        v_in=float((w_in * k).sum()),
        v_all=c_all * float(k.sum()),
        v_btw=float(w_btw @ k.sum(axis=1)),
    )


def batch_potentials(batch):
    """Potentials straight from an embedding batch.

    Works for a mini-batch or for a whole (small) dataset alike; class
    priors are always the in-batch counts.
    """
    return information_potentials(batch.similarity, batch.labels)


def quadratic_mutual_information(p):
    """Plug-in QMI estimate ``v_in + v_all - 2 * v_btw``.

    Non-negative (up to roundoff), because the Euclidean similarity is a
    positive-definite kernel.
    """
    return p.v_in + p.v_all - 2.0 * p.v_btw


def regularizer_loss(p):
    """The regularization loss ``-(v_in + v_all)``; always <= 0.

    v_btw plays no part: the classification loss is trusted to keep classes
    separated, so only the cohesion terms are optimized.
    """
    return -(p.v_in + p.v_all)


def regularizer_gradient(batch):
    """Exact gradient of :func:`regularizer_loss` w.r.t. each embedding row.

    Uses the closed form of the Euclidean-similarity derivative
    dK/dy_i = -2 K^2 (y_i - y_j).  With the pair weights of
    :func:`_pair_weights`:

        grad_i = 4 * sum_l (w_in_il + c_all) * K_il^2 * (y_i - y_l)

    Rows sum to the zero vector because the loss depends only on pairwise
    differences.
    """
    w_in, c_all, _ = _pair_weights(batch.labels)
    w = (w_in + c_all) * batch.similarity * batch.similarity
    deg = w.sum(axis=1)
    return 4.0 * (deg[:, None] * batch.y - w @ batch.y)


def _pair_weights(labels):
    """The regularizer's pair weights for n binary labels, with class sizes
    j0, j1 and j_c the size of row i's class: ``w_in`` is the n x n
    same-class indicator over n^2, ``c_all = (j0^2 + j1^2) / n^4`` weighs
    every pair and ``w_btw`` holds each row's j_c / n^3."""
    labels = np.asarray(labels).astype(np.intp)
    counts = np.bincount(labels, minlength=2)
    n2 = float(labels.size) * float(labels.size)
    w_in = (labels[:, None] == labels[None, :]) / n2
    c_all = int(counts @ counts) / (n2 * n2)
    return w_in, c_all, counts[labels] / (n2 * labels.size)


def _pairwise_sq_dists(y):
    sq = np.sum(y * y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _check_binary(labels):
    vals = np.unique(np.asarray(labels))
    if vals.size and not np.all(np.isin(vals, (0, 1))):
        raise ValueError(f"labels must be 0 or 1, found {vals.tolist()}")
