"""Rank aggregation and the critical-difference comparison."""

import subprocess
import sys

import numpy as np
import pytest

from qmiheat.errors import DataFormatError
from qmiheat.ranking import (
    DEFAULT_Q,
    RankingResult,
    ScoreTable,
    average_ranks,
    critical_difference,
    format_report,
    load_score_table,
    rank_methods,
    render_rank_plot,
    significance,
)


def _table(scores, m_names=None, d_names=None):
    scores = np.asarray(scores, dtype=np.float64)
    m, d = scores.shape
    return ScoreTable(
        methods=m_names or [f"m{i}" for i in range(m)],
        datasets=d_names or [f"d{j}" for j in range(d)],
        scores=scores,
    )


def test_clean_sweep_ranks():
    t = _table([[0.9, 0.8, 0.7, 0.95], [0.5, 0.6, 0.65, 0.9]])
    ranks = average_ranks(t)
    assert ranks.tolist() == [1.0, 2.0]


def test_tied_scores_share_the_average_rank():
    t = _table([[0.7, 0.7], [0.7, 0.7]])
    assert average_ranks(t).tolist() == [1.5, 1.5]


def test_three_methods_single_dataset():
    t = _table([[0.2], [0.9], [0.5]])
    assert average_ranks(t).tolist() == [3.0, 1.0, 2.0]


def test_rank_sum_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 8))
        t = _table(rng.random((m, d)))
        rank_sum = float(average_ranks(t).sum()) * d
        assert rank_sum == pytest.approx(d * m * (m + 1) / 2)


def test_ranks_ignore_monotone_rescaling():
    rng = np.random.default_rng(3)
    scores = rng.random((3, 5))
    a = average_ranks(_table(scores))
    b = average_ranks(_table(scores**2))
    assert np.array_equal(a, b)


def _literal_average_ranks(scores):
    """Per column: sort descending, number the positions 1..m, and give
    each score the mean position of all the scores equal to it."""
    m, d = scores.shape
    ranks = np.zeros((m, d))
    for j in range(d):
        order = sorted(range(m), key=lambda i: -scores[i, j])
        position = {i: p + 1 for p, i in enumerate(order)}
        for i in range(m):
            tied = [position[k] for k in range(m) if scores[k, j] == scores[i, j]]
            ranks[i, j] = sum(tied) / len(tied)
    return ranks.mean(axis=1)


def test_average_ranks_match_a_literal_loop_on_tie_heavy_tables():
    rng = np.random.default_rng(21)
    tables = [
        # check 6's worked example
        np.array([[0.9568, 0.8841, 0.9684, 0.9194], [0.9744, 0.8896, 0.9696, 0.9303]]),
        # every column tied, then one tied column among distinct ones
        np.full((5, 3), 0.25),
        np.array([[0.5, 0.1, 0.9], [0.5, 0.2, 0.9], [0.5, 0.3, 0.1], [0.5, 0.3, 0.9]]),
    ]
    for _ in range(30):
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        # three distinct values: most columns hold several ties
        tables.append(rng.integers(0, 3, size=(m, d)) / 2.0)
    for scores in tables:
        assert average_ranks(_table(scores)).tolist() == (
            _literal_average_ranks(scores).tolist()
        )


def test_critical_difference_two_methods_four_datasets():
    assert abs(critical_difference(2, 4, 1.960) - 0.980) <= 1e-12


def test_critical_difference_scales_with_datasets():
    cd1 = critical_difference(2, 4, DEFAULT_Q)
    cd2 = critical_difference(2, 16, DEFAULT_Q)
    assert cd2 == pytest.approx(cd1 / 2.0)
    assert critical_difference(3, 4, 1.0) == pytest.approx(np.sqrt(12 / 24.0))


def test_critical_difference_rejects_degenerate_input():
    with pytest.raises(ValueError):
        critical_difference(1, 4, 1.960)
    with pytest.raises(ValueError):
        critical_difference(2, 0, 1.960)
    for q_alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            critical_difference(2, 4, q_alpha)


def test_significance_gap_rule():
    assert significance([2.0, 1.0], cd=0.980) == [False, True]
    assert significance([2.0, 1.1], cd=0.980) == [False, False]
    # exactly at the threshold counts
    assert significance([2.0, 1.02], cd=0.98) == [False, True]


def test_zero_gap_is_never_significant():
    # even a zero critical difference cannot flag identical mean ranks
    assert significance([1.5, 1.5], cd=0.0) == [False, False]


def test_significance_control_choice():
    out = significance([1.0, 2.0, 3.0], cd=1.5, control_index=1)
    assert out == [False, False, False]
    out = significance([1.0, 2.0, 3.0], cd=1.5, control_index=0)
    assert out == [False, False, True]
    with pytest.raises(ValueError):
        significance([1.0, 2.0], cd=1.0, control_index=2)


def test_published_comparison_comes_out_significant():
    t = _table(
        [
            [0.9568, 0.8841, 0.9684, 0.9194],
            [0.9744, 0.8896, 0.9696, 0.9303],
        ],
        m_names=["baseline", "regularized"],
        d_names=["faces", "pedestrians", "vehicles", "animals"],
    )
    result = rank_methods(t)
    assert result.mean_ranks.tolist() == [2.0, 1.0]
    assert abs(result.cd - 0.980) <= 1e-12
    assert result.significant == [False, True]


def test_one_flipped_dataset_breaks_significance():
    t = _table(
        [
            [0.9568, 0.8896, 0.9684, 0.9194],
            [0.9744, 0.8841, 0.9696, 0.9303],
        ]
    )
    result = rank_methods(t)
    assert result.mean_ranks.tolist() == [1.75, 1.25]
    assert result.significant == [False, False]


def test_score_table_validation():
    with pytest.raises(ValueError, match="does not match"):
        ScoreTable(methods=["a", "b"], datasets=["x"], scores=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="at least 2"):
        ScoreTable(methods=["a"], datasets=["x"], scores=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="at least 1"):
        ScoreTable(methods=["a", "b"], datasets=[], scores=np.zeros((2, 0)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _table([[1.2], [0.5]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _table([[-0.1], [0.5]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _table([[float("nan")], [0.5]])
    with pytest.raises(ValueError, match="repeated method name 'a'"):
        _table([[0.5], [0.6], [0.7]], m_names=["a", "b", "a"])
    with pytest.raises(ValueError, match="repeated dataset name 'x'"):
        _table([[0.5, 0.6], [0.7, 0.8]], d_names=["x", "x"])


def test_load_score_table(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text(
        "method,faces,vehicles\n"
        "baseline,0.9568,0.9684\n"
        "regularized,0.9744,0.9696\n"
    )
    t = load_score_table(p)
    assert t.methods == ["baseline", "regularized"]
    assert t.datasets == ["faces", "vehicles"]
    assert t.scores.tolist() == [[0.9568, 0.9684], [0.9744, 0.9696]]


def test_load_score_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(DataFormatError, match="empty"):
        load_score_table(empty)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("method\nbaseline\n")
    with pytest.raises(DataFormatError, match="header"):
        load_score_table(narrow)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("method,a,b\nbaseline,0.5\nother,0.5,0.6\n")
    with pytest.raises(DataFormatError, match="ragged.csv:2"):
        load_score_table(ragged)

    words = tmp_path / "words.csv"
    words.write_text("method,a\nbaseline,high\nother,0.5\n")
    with pytest.raises(DataFormatError, match="non-numeric"):
        load_score_table(words)

    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("method,a\nbaseline,1.5\nother,0.5\n")
    with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
        load_score_table(out_of_range)

    twice = tmp_path / "twice.csv"
    twice.write_text("method,x,y\na,0.5,0.6\na,0.7,0.8\n")
    with pytest.raises(DataFormatError, match="twice.csv: repeated method name 'a'"):
        load_score_table(twice)

    header_only = tmp_path / "header_only.csv"
    header_only.write_text("m,d1,d2\n")
    with pytest.raises(DataFormatError, match="header_only.csv: need at least 2 methods to rank"):
        load_score_table(header_only)


def test_format_report_wording():
    t = _table(
        [[0.5, 0.5, 0.5, 0.5], [0.9, 0.9, 0.9, 0.9]],
        m_names=["control", "contender"],
    )
    result = rank_methods(t)
    text = format_report(t, result)
    assert "control: control" in text
    assert "critical difference: 0.980000" in text
    assert "contender vs control: significantly different" in text
    assert "interval [" in text

    t2 = _table([[0.5, 0.9], [0.9, 0.5]], m_names=["control", "contender"])
    text2 = format_report(t2, rank_methods(t2))
    assert "contender vs control: not significantly different" in text2


def test_rank_plot_shape_and_ink():
    t = _table([[0.5, 0.6, 0.7], [0.9, 0.8, 0.75], [0.2, 0.1, 0.3]])
    result = rank_methods(t)
    img = render_rank_plot(t, result)
    assert img.dtype == np.uint8
    assert img.shape == (2 * 20 + 3 * 24, 480)
    assert (img == 0).any()  # axis and ticks
    assert (img == 160).any()  # interval bars
    assert img[0, 0] == 255


def test_import_leaves_scipy_stats_unloaded():
    """Nothing in the package uses scipy, so importing every module of it
    loads none of it."""
    code = (
        "import importlib, pkgutil, sys, qmiheat\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(qmiheat.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('qmiheat.' + name)\n"
        "print(' '.join(names))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.splitlines()
    assert {"cli", "heatmap", "layers", "ranking", "training"} <= set(names.split())
    assert loaded == "[]"


def test_rank_methods_runs_where_scipy_cannot_be_imported():
    """Ranking, training and dense scoring need numpy alone."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from qmiheat.data import generate_synthetic_split\n"
        "from qmiheat.heatmap import fully_conv_inference\n"
        "from qmiheat.training import TrainConfig, train\n"
        "from qmiheat.ranking import ScoreTable, rank_methods\n"
        "t = ScoreTable(['a', 'b', 'c'], ['x', 'y'], [[0.5, 0.9], [0.5, 0.1], [0.7, 0.9]])\n"
        "print(rank_methods(t).mean_ranks.tolist())\n"
        "train_set, test_set = generate_synthetic_split(32, 4, 2, seed=1)\n"
        "model, history = train(TrainConfig(epochs=1, batch_size=4), train_set, test_set)\n"
        "frame = np.random.default_rng(2).integers(0, 256, (48, 64, 3), dtype=np.uint8)\n"
        "print(fully_conv_inference(model, frame).grid.shape)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[2.0, 2.75, 1.25]\n(2, 3, 2)\n"
