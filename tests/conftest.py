"""Shared fixtures and literal reference implementations.

The oracles here are deliberately naive: plain loops in float64, written
straight from the defining formulas.  Production code is validated against
them, never the other way around.
"""

import numpy as np
import pytest

from qmiheat.losses import CROSS_ENTROPY
from qmiheat.training import TrainConfig

# Verdict lines pushed by test_acceptance; replayed after the run so they
# survive output capture and land at the bottom of every report.
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


# A training configuration with every field away from its default.
NON_DEFAULT_CONFIG = TrainConfig(
    variant="rf64",
    loss_kind=CROSS_ENTROPY,
    eta=0.25,
    batch_size=32,
    epochs=7,
    lr_initial=0.005,
    lr_final=2e-05,
    momentum=0.5,
    seed=3,
)


def conv2d_oracle(x, w, b, stride, pad):
    """Six-loop cross-correlation in float64; zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, ic, h, ww = x.shape
    oc, ic2, kh, kw = w.shape
    assert ic == ic2
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for s in range(n):
        for o in range(oc):
            for r in range(oh):
                for c in range(ow):
                    acc = b[o]
                    for ci in range(ic):
                        for ki in range(kh):
                            for kj in range(kw):
                                ih = r * stride - pad + ki
                                iw = c * stride - pad + kj
                                if 0 <= ih < h and 0 <= iw < ww:
                                    acc += w[o, ci, ki, kj] * x[s, ci, ih, iw]
                    out[s, o, r, c] = acc
    return out


def conv2d_backward_oracle(x, w, stride, pad, grad_out):
    """Input and kernel gradients of conv2d_oracle in float64, one kernel
    tap at a time: tap (ki, kj) multiplies w[:, :, ki, kj] with the padded
    input cells (r*stride + ki, c*stride + kj) over every output cell (r, c),
    so it sends grad_out back along exactly those cells and weights."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    n, ic, h, ww = x.shape
    oc, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for ki in range(kh):
        for kj in range(kw):
            cells = (
                slice(None),
                slice(None),
                slice(ki, ki + (oh - 1) * stride + 1, stride),
                slice(kj, kj + (ow - 1) * stride + 1, stride),
            )
            grad_w[:, :, ki, kj] = np.einsum("nohw,nihw->oi", g, xp[cells])
            grad_xp[cells] += np.einsum("nohw,oi->nihw", g, w[:, :, ki, kj])
    return grad_xp[:, :, pad : pad + h, pad : pad + ww], grad_w


def kernel_oracle(a, b):
    """Similarity of two embedding rows: 1 / (1 + squared distance)."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return 1.0 / (1.0 + float(d @ d))


def potentials_oracle(y, labels):
    """Triple-loop information potentials over a labelled batch.

    v_in:  within-class pair sum / N^2
    v_all: all-pair sum scaled by (J0^2 + J1^2) / N^2, again / N^2
    v_btw: per-class row sums against everyone, weighted J_p / N, / N^2
    """
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(y)
    counts = [int(np.sum(labels == p)) for p in (0, 1)]
    v_in = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                v_in += kernel_oracle(y[i], y[j])
    v_in /= n * n

    total = 0.0
    for i in range(n):
        for j in range(n):
            total += kernel_oracle(y[i], y[j])
    v_all = total * (counts[0] ** 2 + counts[1] ** 2) / n**2 / n**2

    v_btw = 0.0
    for p in (0, 1):
        row = 0.0
        for i in range(n):
            if labels[i] != p:
                continue
            for j in range(n):
                row += kernel_oracle(y[i], y[j])
        v_btw += counts[p] / n * row
    v_btw /= n * n
    return v_in, v_all, v_btw


def central_difference(f, x, h=1e-3):
    """Gradient of scalar f at x by central differences, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(x)
        flat[i] = keep - h
        lo = f(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(1e-12, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


@pytest.fixture(scope="session")
def tiny_split():
    """Small but learnable synthetic train/test pair, shared across tests."""
    from qmiheat.data import generate_synthetic_split

    return generate_synthetic_split(32, 40, 10, seed=123)
