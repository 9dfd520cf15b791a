"""Control-vs-methods rank comparison across datasets.

Methods are ranked per dataset (rank 1 = highest accuracy, ties get
average rank), mean ranks are compared against a critical difference
CD = q * sqrt(m(m+1)/(6D)), and a method differs significantly from the
control iff the mean-rank gap reaches CD.  Drawing rank +/- CD/2
intervals makes the same call visually: disjoint intervals = significant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import read_ascii
from .errors import DataFormatError

# Two-tailed standard-normal quantile at alpha=0.05 for the two-method
# comparison; callers with more methods or other levels supply their own q.
DEFAULT_Q = 1.960


@dataclass
class ScoreTable:
    """m methods x D datasets accuracy matrix."""

    methods: list
    datasets: list
    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if len(self.methods) < 2:
            raise ValueError("need at least 2 methods to rank")
        if len(self.datasets) < 1:
            raise ValueError("need at least 1 dataset")
        if s.shape != (len(self.methods), len(self.datasets)):
            raise ValueError(
                f"scores shape {s.shape} does not match "
                f"{len(self.methods)} methods x {len(self.datasets)} datasets"
            )
        for kind, names in (("method", self.methods), ("dataset", self.datasets)):
            repeated = [n for i, n in enumerate(names) if n in names[:i]]
            if repeated:
                raise ValueError(f"repeated {kind} name {repeated[0]!r}")
        if not ((s >= 0.0) & (s <= 1.0)).all():
            raise ValueError("scores must lie in [0, 1]")
        self.scores = s


@dataclass
class RankingResult:
    mean_ranks: np.ndarray
    cd: float
    control_index: int
    significant: list


def average_ranks(table):
    """Mean over datasets of per-dataset descending ranks (1 = best).

    Tied methods share the mean of the ranks they span: a score beaten by
    g others and tied with e (itself included) ranks g + (e + 1) / 2.
    """
    s = table.scores
    beaten = (s[None, :, :] > s[:, None, :]).sum(axis=1)
    tied = (s[None, :, :] == s[:, None, :]).sum(axis=1)
    return (beaten + (tied + 1) / 2.0).mean(axis=1)


def critical_difference(m, d, q_alpha):
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 methods and d >= 1 datasets")
    if not 0 <= q_alpha < math.inf:
        raise ValueError(f"q_alpha must be finite and non-negative, got {q_alpha}")
    return q_alpha * math.sqrt(m * (m + 1) / (6.0 * d))


def significance(mean_ranks, cd, control_index=0):
    """Per-method verdict vs the control: gap >= cd, and a zero gap is
    never significant (the control itself always reads False)."""
    ranks = np.asarray(mean_ranks, dtype=np.float64)
    if not 0 <= control_index < ranks.size:
        raise ValueError(f"control index {control_index} out of range")
    gaps = np.abs(ranks - ranks[control_index])
    return [bool(g >= cd and g > 0.0) for g in gaps]


def rank_methods(table, q_alpha=DEFAULT_Q, control_index=0):
    ranks = average_ranks(table)
    cd = critical_difference(len(table.methods), len(table.datasets), q_alpha)
    return RankingResult(
        mean_ranks=ranks,
        cd=cd,
        control_index=control_index,
        significant=significance(ranks, cd, control_index),
    )


def load_score_table(path):
    """Comma-separated table: header row of dataset names (first cell is a
    corner label), then one row per method: name, scores."""
    lines = [ln.strip() for ln in read_ascii(path).splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty score table")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 2:
        raise DataFormatError(f"{path}:1: header needs at least one dataset column")
    datasets = header[1:]
    methods = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        methods.append(cells[0])
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-numeric score") from None
    try:
        return ScoreTable(methods=methods, datasets=datasets, scores=np.array(rows))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def format_report(table, result):
    control = table.methods[result.control_index]
    lines = [
        f"methods: {len(table.methods)}  datasets: {len(table.datasets)}",
        f"critical difference: {result.cd:.6f}",
        f"control: {control}",
        "",
    ]
    half = result.cd / 2.0
    for i, name in enumerate(table.methods):
        r = result.mean_ranks[i]
        lines.append(
            f"{name}: mean rank {r:.4f}  interval [{r - half:.4f}, {r + half:.4f}]"
        )
    lines.append("")
    for i, name in enumerate(table.methods):
        if i == result.control_index:
            continue
        verdict = (
            "significantly different"
            if result.significant[i]
            else "not significantly different"
        )
        lines.append(f"{name} vs {control}: {verdict}")
    return "\n".join(lines) + "\n"


def render_rank_plot(table, result):
    """Grayscale rank plot: one row per method, interval bar rank +/- cd/2
    around a mean-rank tick, on an axis spanning ranks 1..m."""
    m = len(table.methods)
    width, row_height, margin = 480, 24, 20
    height = 2 * margin + m * row_height
    img = np.full((height, width), 255, dtype=np.uint8)
    span = max(m - 1, 1)

    def x_of(rank):
        frac = (rank - 1.0) / span
        return int(round(margin + frac * (width - 1 - 2 * margin)))

    axis_y = height - margin
    img[axis_y, margin : width - margin] = 0
    for k in range(m):
        img[axis_y - 3 : axis_y, x_of(k + 1.0)] = 0
    half = result.cd / 2.0
    for i in range(m):
        y = margin + i * row_height + row_height // 2
        lo = max(margin, x_of(result.mean_ranks[i] - half))
        hi = min(width - 1 - margin, x_of(result.mean_ranks[i] + half))
        img[y, lo : hi + 1] = 160
        tick = x_of(result.mean_ranks[i])
        img[y - 4 : y + 5, max(0, tick - 1) : tick + 2] = 0
    return img
