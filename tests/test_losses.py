"""Classification losses."""

import numpy as np
import pytest
from conftest import central_difference, relative_error

from qmiheat.losses import (
    CROSS_ENTROPY,
    DEFAULT_ETA,
    HINGE,
    LOSSES,
    cross_entropy_loss,
    hinge_loss,
)


def test_hinge_zero_when_margins_met():
    scores = np.array([[-2.0, 2.0], [3.0, -1.5]], dtype=np.float32)
    labels = np.array([1, 0])
    loss, grad = hinge_loss(scores, labels)
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_hinge_zero_scores_cost_two():
    # both channels at 0 violate both unit margins: (1 - 0) + (1 - 0)
    loss, grad = hinge_loss(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 0]))
    assert loss == pytest.approx(2.0)
    # each sample pushes its own channel up and the other down, / N
    assert grad[0, 0] == pytest.approx(-1.0 / 3.0)
    assert grad[0, 1] == pytest.approx(1.0 / 3.0)


def test_hinge_hand_value_with_mixed_margins():
    # label 1: channel0 target -1 -> margin 1 + 1.5 = 2.5 active;
    # channel1 target +1 -> margin 1 - (-1) = 2 active; total 4.5
    loss, _ = hinge_loss(np.array([[1.5, -1.0]], dtype=np.float32), np.array([1]))
    assert loss == pytest.approx(4.5)


def test_hinge_margin_boundary_has_zero_gradient():
    loss, grad = hinge_loss(np.array([[-1.0, 1.0]], dtype=np.float32), np.array([1]))
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_cross_entropy_uniform_scores():
    loss, _ = cross_entropy_loss(np.zeros((4, 2), dtype=np.float32), np.array([0, 1, 1, 0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-6)


def test_cross_entropy_saturated_is_finite():
    loss, grad = cross_entropy_loss(
        np.array([[-50.0, 50.0]], dtype=np.float32), np.array([1])
    )
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert np.isfinite(grad).all()


def test_cross_entropy_wrong_saturated_is_large_but_finite():
    loss, _ = cross_entropy_loss(np.array([[50.0, -50.0]], dtype=np.float32), np.array([1]))
    assert np.isfinite(loss)
    assert loss > 50.0


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, size=6)
    for fn in (hinge_loss, cross_entropy_loss):
        scores = rng.uniform(-2.0, 2.0, size=(6, 2))
        # nudge away from hinge kinks so the numerical derivative is clean
        scores = np.where(np.abs(np.abs(scores) - 1.0) < 0.05, scores + 0.1, scores)
        _, grad = fn(scores.astype(np.float32), labels)

        def loss_of(s):
            return fn(s, labels)[0]

        fd = central_difference(loss_of, scores.copy())
        assert relative_error(grad, fd) <= 1e-4


def test_loss_registry_keys():
    assert set(LOSSES) == {HINGE, CROSS_ENTROPY}
    assert LOSSES[HINGE] is hinge_loss


def test_default_eta_value():
    assert DEFAULT_ETA == 0.001


def test_cross_entropy_shift_invariance_hinge_not():
    scores = np.array([[0.2, -0.4], [1.0, 0.3]], dtype=np.float64)
    labels = np.array([0, 1])
    shifted = scores + 5.0
    ce0, _ = cross_entropy_loss(scores, labels)
    ce1, _ = cross_entropy_loss(shifted, labels)
    assert ce0 == pytest.approx(ce1, rel=1e-9)
    h0, _ = hinge_loss(scores, labels)
    h1, _ = hinge_loss(shifted, labels)
    assert h0 != pytest.approx(h1)


def test_losses_reject_bad_shapes_and_labels():
    with pytest.raises(ValueError):
        hinge_loss(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError):
        hinge_loss(np.zeros((2, 2)), np.array([0]))


def test_hinge_scales_linearly_in_violation_depth():
    labels = np.array([1])
    l1, _ = hinge_loss(np.array([[0.0, -1.0]], dtype=np.float32), labels)
    l2, _ = hinge_loss(np.array([[0.0, -3.0]], dtype=np.float32), labels)
    # deepening the violated margin by 2 adds exactly 2
    assert l2 - l1 == pytest.approx(2.0)
