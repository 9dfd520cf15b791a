"""Quadratic-mutual-information regularizer over embedding batches.

The dependence between an embedding batch and its binary labels is measured
through three pairwise interaction sums (information potentials) built from
the width-free Euclidean similarity ``1 / (1 + ||a - b||^2)``:

    v_in   within-class pair interactions
    v_all  all-pairs interactions, weighted by the squared class priors
    v_btw  class-vs-everyone interactions

Their combination ``v_in + v_all - 2 * v_btw`` is the plug-in QMI estimate.
The regularization loss is ``-(v_in + v_all)``: minimizing it maximizes the
pairwise interactions while the classification loss keeps classes apart.

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

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def dim(self):
        return self.y.shape[1]


@dataclass
class InformationPotentials:
    """The three interaction sums for one batch, plus the class sizes."""

    v_in: float
    v_all: float
    v_btw: float
    class_counts: tuple


def euclidean_similarity(a, b):
    """Width-free similarity 1 / (1 + squared Euclidean distance).

    Equals 1 for identical vectors and decays toward 0 with distance; needs
    no bandwidth parameter.
    """
    a, b = _check_pair(a, b)
    d2 = float(np.dot(a - b, a - b))
    return 1.0 / (1.0 + d2)


def pairwise_similarity(y):
    """N x N Euclidean-similarity matrix over the rows of ``y``."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return 1.0 / (1.0 + _pairwise_sq_dists(y))


def information_potentials(k, labels):
    """The three interaction sums from a similarity matrix and binary labels.

    With class sizes j0, j1 out of n samples:

        v_in  = (1/n^2) * (sum of k over same-class pairs)
        v_all = (1/n^2) * ((j0^2 + j1^2) / n^2) * (sum of all of k)
        v_btw = (1/n^2) * sum_p (j_p / n) * (sum of k over rows of class p)

    An empty class contributes zero to its sums, so single-class batches
    still produce finite values.
    """
    k = np.asarray(k, dtype=np.float64)
    labels = np.asarray(labels)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if labels.shape != (n,):
        raise ValueError("need one label per row of the similarity matrix")
    _check_binary(labels)

    mask1 = labels == 1
    mask0 = ~mask1
    j0 = int(mask0.sum())
    j1 = int(mask1.sum())
    n2 = float(n) * float(n)

    s0 = float(k[np.ix_(mask0, mask0)].sum())
    s1 = float(k[np.ix_(mask1, mask1)].sum())
    v_in = (s0 + s1) / n2

    v_all = (j0 * j0 + j1 * j1) / n2 * float(k.sum()) / n2

    row_sums = k.sum(axis=1)
    v_btw = (
        j0 / float(n) * float(row_sums[mask0].sum())
        + j1 / float(n) * float(row_sums[mask1].sum())
    ) / n2

    return InformationPotentials(
        v_in=v_in, v_all=v_all, v_btw=v_btw, class_counts=(j0, j1)
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
    dK/dy_i = -2 K^2 (y_i - y_j).  With s_il = 1 for same-class pairs and
    the all-pairs weight c = (j0^2 + j1^2) / n^4:

        grad_i = 4 * sum_l (s_il / n^2 + c) * K_il^2 * (y_i - y_l)

    Rows sum to the zero vector because the loss depends only on pairwise
    differences.
    """
    y = batch.y
    labels = batch.labels
    n = y.shape[0]
    k = batch.similarity
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    j0, j1 = int((labels == 0).sum()), int((labels == 1).sum())
    n2 = float(n) * float(n)
    c_all = (j0 * j0 + j1 * j1) / (n2 * n2)

    w = (same / n2 + c_all) * k * k
    deg = w.sum(axis=1)
    return 4.0 * (deg[:, None] * y - w @ y)


def _pairwise_sq_dists(y):
    sq = np.sum(y * y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _check_pair(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def _check_binary(labels):
    vals = np.unique(np.asarray(labels))
    if vals.size and not np.all(np.isin(vals, (0, 1))):
        raise ValueError(f"labels must be 0 or 1, found {vals.tolist()}")
