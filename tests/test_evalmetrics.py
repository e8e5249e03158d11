"""Metric oracles: brute-force pair counting, step sums, threshold search."""

import contextlib
import signal

import numpy as np
import pytest

from fsad.errors import CapacityError, MetricError
from fsad.evalmetrics import (auc, average_precision, compute_report,
                              threshold_from_support, thresholded_metrics)


def brute_auc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    double_hits = 0
    for p in pos:
        for q in neg:
            if p > q:
                double_hits += 2
            elif p == q:
                double_hits += 1
    return double_hits / (2 * pos.size * neg.size)


def brute_ap(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(y.sum())
    ap = 0.0
    tp_prev = 0
    for t in sorted(set(s.tolist()), reverse=True):
        keep = s >= t
        tp = int(y[keep].sum())
        if tp > tp_prev:
            ap += (tp - tp_prev) / n_pos * (tp / int(keep.sum()))
        tp_prev = tp
    return ap


def test_auc_known_values():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_rejects_single_class():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [0, 0])


def test_auc_monotone_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        s = rng.normal(size=n)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        assert auc(s, y) == auc(np.exp(2.0 * s) + 7.0, y)


def test_auc_complement_is_exact():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        s = np.round(rng.normal(size=n), 1)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        assert auc(s, y) + auc(s, 1 - y) == 1.0


def test_ap_known_values():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    n = 7
    s = np.arange(n, dtype=np.float64)
    y = np.zeros(n)
    y[0] = 1
    assert average_precision(s, y) == 1.0 / n
    got = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
    assert abs(got - (1.0 / 1.0 * 0.5 + 2.0 / 3.0 * 0.5)) < 1e-15


def test_ap_rejects_no_positives():
    with pytest.raises(MetricError):
        average_precision([0.5, 0.6], [0, 0])


def test_ap_constant_scores_equal_prevalence():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            continue
        assert average_precision(np.full(n, 0.4), y) == y.sum() / n


def test_oracle_equivalence_exhaustive():
    rng = np.random.default_rng(9)
    done = 0
    while done < 200:
        n = int(rng.integers(2, 13))
        s = np.round(rng.normal(size=n), 1)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        assert auc(s, y) == brute_auc(s, y)
        assert average_precision(s, y) == brute_ap(s, y)
        done += 1


def test_threshold_separated_support():
    t = threshold_from_support([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    f1, _, _ = thresholded_metrics([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], t)
    assert f1 == 1.0
    assert threshold_from_support([0.2, 0.8], [0, 1]) == 0.5


def test_threshold_constant_support():
    assert threshold_from_support([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5


def test_threshold_tie_breaks_low():
    # both midpoints reach F1=1 on this support? no: craft scores where two
    # candidate thresholds give equal best F1, expect the lower one
    s = [0.1, 0.3, 0.5, 0.7]
    y = [0, 1, 0, 1]
    t = threshold_from_support(s, y)
    cands = [0.2, 0.4, 0.6]
    f1s = [thresholded_metrics(s, y, c)[0] for c in cands]
    best = max(f1s)
    assert t == min(c for c, f in zip(cands, f1s) if f == best)


def test_threshold_rejects_single_class():
    with pytest.raises(CapacityError):
        threshold_from_support([0.1, 0.2], [1, 1])


def test_thresholded_metrics_counts():
    f1, acc, (tp, fp, tn, fn) = thresholded_metrics(
        [0.9, 0.8, 0.7, 0.6, 0.2], [1, 1, 1, 0, 1], 0.5)
    assert (tp, fp, tn, fn) == (3, 1, 0, 1)
    assert f1 == 0.75
    assert acc == 0.6


def test_thresholded_all_negative_prediction():
    f1, acc, _ = thresholded_metrics([0.1, 0.2], [1, 0], 0.9)
    assert f1 == 0.0 and acc == 0.5


def test_compute_report_consistency():
    rep = compute_report([0.9, 0.1, 0.8, 0.3], [1, 0, 1, 0], 0.5)
    assert rep.auc == 1.0 and rep.ap == 1.0
    assert rep.acc == (rep.tp + rep.tn) / 4
    assert rep.f1 == 1.0


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging: SIGALRM raises inside the guarded block."""
    def expire(signum, frame):
        raise TimeoutError(f"metric call still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [auc, average_precision, threshold_from_support])
def test_non_finite_scores_rejected_promptly(metric, bad):
    with _deadline(5):
        with pytest.raises(MetricError, match="non-finite"):
            metric([0.1, bad, 0.8, 0.9], [0, 0, 1, 1])
        with pytest.raises(MetricError, match="non-finite"):
            compute_report([0.1, 0.2, bad, 0.9], [0, 0, 1, 1], 0.5)
