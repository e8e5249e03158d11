"""Ranking metrics, support-derived thresholds, and confusion arithmetic.

AUC follows the Mann-Whitney convention (tied pairs get half credit) and is
computed from integer pair counts so that flipping the labels yields the
exact float complement. Average precision is the step-interpolated sum over
descending-score groups with ties collapsed into one group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _as_binary(scores, labels, who: str):
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise MetricError(f"{who}: {s.size} scores vs {y.size} labels")
    if s.size == 0:
        raise MetricError(f"{who}: empty input")
    bad = np.count_nonzero(~np.isfinite(s))
    if bad:
        # a NaN never equals itself, so the tie-group scans would not advance
        raise MetricError(f"{who}: {bad} non-finite scores")
    if not np.isin(y, (0, 1)).all():
        raise MetricError(f"{who}: labels must be 0 or 1")
    return s, y.astype(np.int64)


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties half)."""
    s, y = _as_binary(scores, labels, "auc")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc undefined: only one class present")
    order = np.argsort(s, kind="stable")
    ss, ys = s[order], y[order]
    # doubled rank sum over positives: a tied block spanning sorted slots
    # [i, j) contributes (i+1 + j) per member, an integer
    double_rank_pos = 0
    i = 0
    n = s.size
    while i < n:
        j = i
        while j < n and ss[j] == ss[i]:
            j += 1
        double_rank_pos += (i + 1 + j) * int(ys[i:j].sum())
        i = j
    double_u = double_rank_pos - n_pos * (n_pos + 1)
    return double_u / (2 * n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Step-interpolated area under precision-recall, tie groups collapsed."""
    s, y = _as_binary(scores, labels, "average_precision")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("average_precision undefined: no positives")
    order = np.argsort(-s, kind="stable")
    ss, ys = s[order], y[order]
    ap = 0.0
    tp_prev = 0
    seen = 0
    i = 0
    n = s.size
    while i < n:
        j = i
        while j < n and ss[j] == ss[i]:
            j += 1
        tp = tp_prev + int(ys[i:j].sum())
        seen = j
        if tp > tp_prev:
            ap += (tp - tp_prev) / n_pos * (tp / seen)
        tp_prev = tp
        i = j
    return ap


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

    Candidates are midpoints between adjacent distinct sorted scores; ties in
    F1 break toward the lowest threshold. Constant scores fall back to 0.5,
    the centre of the degenerate normalized scale (everything predicted
    abnormal there, since prediction uses score >= threshold).
    """
    s, y = _as_binary(scores, labels, "threshold_from_support")
    if y.min() == y.max():
        raise CapacityError("support must contain both classes to fit a threshold")
    distinct = np.unique(s)
    if distinct.size == 1:
        return 0.5
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    best_t, best_f1 = None, -1.0
    for t in mids:
        tp, fp, _, fn = _confusion(s, y, float(t))
        f1 = _f1_from_counts(tp, fp, fn)
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t


def thresholded_metrics(scores, labels, threshold: float):
    """(f1, acc, (tp, fp, tn, fn)) for predictions score >= threshold."""
    s, y = _as_binary(scores, labels, "thresholded_metrics")
    tp, fp, tn, fn = _confusion(s, y, threshold)
    f1 = _f1_from_counts(tp, fp, fn)
    acc = (tp + tn) / s.size
    return f1, acc, (tp, fp, tn, fn)


def compute_report(scores, labels, threshold: float) -> MetricReport:
    """Bundle ranking metrics and thresholded metrics for one batch."""
    f1, acc, (tp, fp, tn, fn) = thresholded_metrics(scores, labels, threshold)
    return MetricReport(auc=auc(scores, labels), ap=average_precision(scores, labels),
                        f1=f1, acc=acc, threshold=float(threshold),
                        tp=tp, fp=fp, tn=tn, fn=fn)
