"""Classification losses over the two-channel classifier output.

Scores arrive as an N x 2 matrix (one channel per class).  Both losses
return the batch-mean loss together with its gradient w.r.t. the scores.
"""

import numpy as np

HINGE = "hinge"
CROSS_ENTROPY = "ce"

# Default regularizer weight; best-performing setting in practice.
DEFAULT_ETA = 0.001


def hinge_loss(scores, labels):
    """One-vs-all L1 hinge over the two channels.

    Per sample, channel k carries target +1 when k equals the label and -1
    otherwise, and contributes max(0, 1 - target * score).  The subgradient
    at a margin of exactly 1 is taken as 0.
    """
    scores, labels = _check_scores(scores, labels)
    n = scores.shape[0]
    targets = np.where(
        np.arange(2)[None, :] == labels[:, None], 1.0, -1.0
    ).astype(scores.dtype)
    margins = 1.0 - targets * scores
    active = margins > 0
    loss = float(np.where(active, margins, 0.0).sum()) / n
    grad = np.where(active, -targets, 0.0) / n
    return loss, grad.astype(scores.dtype, copy=False)


def cross_entropy_loss(scores, labels):
    """Softmax over the two channels followed by mean negative log-likelihood.

    Stabilized by max-subtraction, so widely separated scores stay finite.
    """
    scores, labels = _check_scores(scores, labels)
    n = scores.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(scores.dtype, copy=False)


LOSSES = {HINGE: hinge_loss, CROSS_ENTROPY: cross_entropy_loss}


def _check_scores(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[1] != 2:
        raise ValueError(f"scores must be N x 2, got {scores.shape}")
    if labels.shape != (scores.shape[0],):
        raise ValueError("need one label per score row")
    if labels.size and not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return scores, labels.astype(np.intp, copy=False)
