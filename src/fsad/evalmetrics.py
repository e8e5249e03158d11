"""Ranking metrics, support-derived thresholds, and confusion arithmetic.

AUC follows the Mann-Whitney convention (tied pairs get half credit) and is
computed from integer pair counts so that flipping the labels yields the
exact float complement. Average precision is the step-interpolated sum over
descending-score groups with ties collapsed into one group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs
from .errors import CapacityError, MetricError


@dataclass(frozen=True)
class MetricReport:
    """Threshold-free and thresholded metrics for one evaluation batch."""

    auc: float
    ap: float
    f1: float
    acc: float
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int


def _metric_inputs(scores, labels, who: str):
    """Flattened float64 scores and int64 0/1 labels of one nonzero length."""
    s = inputs.reals(scores, f"{who}: scores", MetricError).reshape(-1)
    y = inputs.labels(labels, None, f"{who}: labels", MetricError).reshape(-1)
    if s.shape != y.shape:
        raise MetricError(f"{who}: {s.size} scores vs {y.size} labels")
    if s.size == 0:
        raise MetricError(f"{who}: empty input")
    return s, y


def _as_threshold(threshold, who: str) -> float:
    """One finite real number (``inputs.reals``), a 0-d array included."""
    t = inputs.reals(threshold, f"{who}: threshold", MetricError)
    if t.ndim:
        raise MetricError(f"{who}: threshold must be one number, got shape {t.shape}")
    return float(t)


def _tie_groups(ss: np.ndarray, ys: np.ndarray):
    """(start, stop, positives) arrays, one entry per run of equal values
    in sorted scores ``ss``; ``ys`` holds the labels in the same order."""
    cuts = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    stops = np.concatenate((cuts, [ss.size]))
    return starts, stops, np.add.reduceat(ys, starts)


def auc(scores, labels, *, _checked: bool = False) -> float:
    """Probability a random positive outscores a random negative (ties half).

    ``_checked``: the inputs are ``_metric_inputs``'s output (``compute_report``).
    """
    s, y = (scores, labels) if _checked else _metric_inputs(scores, labels, "auc")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc undefined: only one class present")
    order = np.argsort(s, kind="stable")
    starts, stops, pos = _tie_groups(s[order], y[order])
    # doubled rank sum over positives: a tied block spanning sorted slots
    # [i, j) contributes (i+1 + j) per member, an integer
    double_rank_pos = int(((starts + 1 + stops) * pos).sum())
    double_u = double_rank_pos - n_pos * (n_pos + 1)
    return double_u / (2 * n_pos * n_neg)


def average_precision(scores, labels, *, _checked: bool = False) -> float:
    """Step-interpolated area under precision-recall, tie groups collapsed.

    ``_checked``: the inputs are ``_metric_inputs``'s output (``compute_report``).
    """
    s, y = ((scores, labels) if _checked
            else _metric_inputs(scores, labels, "average_precision"))
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("average_precision undefined: no positives")
    order = np.argsort(-s, kind="stable")
    _, stops, pos = _tie_groups(s[order], y[order])
    tp = np.cumsum(pos)
    # a group without positives adds an exact 0.0; the running sum goes
    # left to right, as a loop over the groups would add
    terms = pos / n_pos * (tp / stops)
    return float(np.add.accumulate(terms)[-1])


def _confusion(scores: np.ndarray, labels: np.ndarray, threshold: float):
    pred = scores >= threshold
    pos = labels == 1
    tp = int(np.count_nonzero(pred & pos))
    fp = int(np.count_nonzero(pred & ~pos))
    fn = int(np.count_nonzero(~pred & pos))
    tn = int(np.count_nonzero(~pred & ~pos))
    return tp, fp, tn, fn


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def threshold_from_support(scores, labels) -> float:
    """Best-F1 threshold over the support set.

    Candidates are midpoints between adjacent distinct sorted scores (the
    upper score where a midpoint rounds onto the lower); ties in F1 break
    toward the lowest threshold. Constant scores fall back to 0.5,
    the centre of the degenerate normalized scale (everything predicted
    abnormal there, since prediction uses score >= threshold).
    """
    s, y = _metric_inputs(scores, labels, "threshold_from_support")
    if y.min() == y.max():
        raise CapacityError("support must contain both classes to fit a threshold")
    order = np.argsort(s, kind="stable")
    ss, ys = s[order], y[order]
    distinct = ss[np.concatenate(([True], ss[1:] != ss[:-1]))]
    if distinct.size == 1:
        return 0.5
    # halving first cannot overflow; it differs from (a + b) / 2 only on
    # subnormals, where two adjacent scores' midpoint may round down onto
    # the lower one: the upper score then splits them instead
    mids = distinct[:-1] / 2.0 + distinct[1:] / 2.0
    mids = np.where(mids > distinct[:-1], mids, distinct[1:])
    # a candidate predicts abnormal for exactly the scores >= it; both
    # classes are present, so every F1 denominator is positive
    below = np.searchsorted(ss, mids, side="left")
    n_pos = int(ys.sum())
    tp = n_pos - np.append(0, np.cumsum(ys))[below]
    fp = (s.size - below) - tp
    f1 = 2 * tp / (2 * tp + fp + (n_pos - tp))
    return float(mids[np.argmax(f1)])  # argmax: the first, lowest, best


def compute_report(scores, labels, threshold: float) -> MetricReport:
    """Ranking metrics, and F1, accuracy and confusion counts for
    predictions score >= threshold, for one batch."""
    s, y = _metric_inputs(scores, labels, "compute_report")
    threshold = _as_threshold(threshold, "compute_report")
    tp, fp, tn, fn = _confusion(s, y, threshold)
    return MetricReport(auc=auc(s, y, _checked=True),
                        ap=average_precision(s, y, _checked=True),
                        f1=_f1_from_counts(tp, fp, fn), acc=(tp + tn) / s.size,
                        threshold=threshold, tp=tp, fp=fp, tn=tn, fn=fn)
