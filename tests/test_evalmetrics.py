"""Metric oracles: brute-force pair counting, step sums, threshold search."""

import contextlib
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsad.errors import CapacityError, FsadError, MetricError, NumericError
from fsad.evalmetrics import (auc, average_precision, compute_report,
                              threshold_from_support)
from fsad.inference import minmax_normalize


def brute_auc(scores, labels):
    # every (positive, negative) pair: a win counts 2, a tie 1
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1][:, None]
    neg = s[y == 0][None, :]
    double_hits = 2 * int(np.count_nonzero(pos > neg)) + int(np.count_nonzero(pos == neg))
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


def brute_threshold(scores, labels):
    # scan every midpoint between adjacent distinct scores; keep the first best
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    distinct = sorted(set(s.tolist()))
    if len(distinct) == 1:
        return 0.5
    best_t, best_f1 = None, -1.0
    for lo, hi in zip(distinct, distinct[1:]):
        t = lo / 2.0 + hi / 2.0  # threshold_from_support's rounding
        if t <= lo:  # a subnormal midpoint rounded onto the lower score
            t = hi
        pred = s >= t
        tp = int(np.count_nonzero(pred & (y == 1)))
        fp = int(np.count_nonzero(pred & (y == 0)))
        fn = int(np.count_nonzero(~pred & (y == 1)))
        f1 = 2 * tp / (2 * tp + fp + fn)
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t


def assert_oracles_agree(s, y):
    assert auc(s, y) == brute_auc(s, y)
    assert average_precision(s, y) == brute_ap(s, y)
    assert threshold_from_support(s, y) == brute_threshold(s, y)


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
        assert_oracles_agree(s, y)
        done += 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
       .flatmap(lambda pool: st.lists(st.tuples(st.sampled_from(pool),
                                                st.integers(0, 1)),
                                      min_size=2, max_size=300)))
# subnormals: (lo + hi) / 2 rounds to 1.5e-323 here, lo / 2 + hi / 2 to 1e-323
@example([(5e-324, 0), (2.5e-323, 1)])
def test_oracle_equivalence_heavy_ties(pairs):
    # up to 300 scores drawn from at most 3 distinct values
    s = np.array([score for score, _ in pairs])
    y = np.array([label for _, label in pairs])
    assume(0 < y.sum() < y.size)
    assert_oracles_agree(s, y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 400),
       ties=st.integers(0, 20), positives=st.sampled_from([0.05, 0.5]))
def test_oracle_equivalence_wide_batches(seed, n, ties, positives):
    # 100 to 400 mostly distinct scores, as a 392-query episode gives, with
    # a few ties and at times a rare positive class
    rng = np.random.default_rng(seed)
    s = rng.uniform(size=n)
    s[rng.integers(0, n, size=ties)] = s[rng.integers(0, n, size=ties)]
    y = (rng.uniform(size=n) < positives).astype(np.int64)
    assume(0 < y.sum() < y.size)
    assert_oracles_agree(s, y)


def test_threshold_separated_support():
    t = threshold_from_support([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert compute_report([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], t).f1 == 1.0
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
    f1s = [compute_report(s, y, c).f1 for c in cands]
    best = max(f1s)
    assert t == min(c for c, f in zip(cands, f1s) if f == best)


def test_threshold_midpoints_of_huge_scores_stay_finite():
    # (a + b) / 2 overflows to inf here and warns
    assert threshold_from_support([1e308, 1.7e308, -1e308], [0, 1, 0]) == 1.35e308


def test_threshold_between_adjacent_subnormals_splits_them():
    # the halved midpoint of 0 and the smallest subnormal rounds onto 0,
    # which would predict the normal score abnormal too
    t = threshold_from_support([0.0, 5e-324], [0, 1])
    assert t == 5e-324
    assert compute_report([0.0, 5e-324], [0, 1], t).f1 == 1.0


def test_threshold_rejects_single_class():
    with pytest.raises(CapacityError):
        threshold_from_support([0.1, 0.2], [1, 1])


def test_thresholded_metrics_counts():
    rep = compute_report([0.9, 0.8, 0.7, 0.6, 0.2], [1, 1, 1, 0, 1], 0.5)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 0, 1)
    assert rep.f1 == 0.75
    assert rep.acc == 0.6


def test_thresholded_all_negative_prediction():
    rep = compute_report([0.1, 0.2], [1, 0], 0.9)
    assert rep.f1 == 0.0 and rep.acc == 0.5


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


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, "0.5", None, 10**400],
                         ids=["nan", "inf", "-inf", "str", "None", "int-beyond-float"])
@pytest.mark.parametrize("metric", [compute_report])
def test_threshold_must_be_a_finite_real_number(metric, threshold):
    # a NaN threshold used to report threshold=nan, f1=0.0; a str one leaked
    # numpy's bare UFuncTypeError
    with pytest.raises(MetricError, match="threshold must be (real numbers|finite)"):
        metric([0.1, 0.8, 0.9], [0, 1, 1], threshold)


@pytest.mark.parametrize("metric", [compute_report])
def test_threshold_is_one_number_a_0d_array_included(metric):
    scores, labels = [0.1, 0.8, 0.9], [0, 1, 1]
    assert metric(scores, labels, np.array(0.5)) == metric(scores, labels, 0.5)
    for shaped in ([0.5], np.array([[0.5]])):
        with pytest.raises(MetricError, match=r"threshold must be one number, got shape \("):
            metric(scores, labels, shaped)


@pytest.mark.parametrize("call, args, error, match", [
    (auc, (["a", "b"], [0, 1]), MetricError, "auc: scores must be real"),
    (average_precision, ([[0.1, 0.2], [0.3]], [0, 1]), MetricError,
     "average_precision: scores must be real"),
    (threshold_from_support, ([0.1 + 1j, 0.2], [0, 1]), MetricError,
     "threshold_from_support: scores must be real"),
    (compute_report, (np.array([0.1 + 1j, 0.9]), [0, 1], 0.5), MetricError,
     "compute_report: scores must be real"),
    (minmax_normalize, ([0.1, np.nan],), NumericError, "1 non-finite"),
    (minmax_normalize, (["a"],), NumericError, "scores must be real numbers"),
    (minmax_normalize, (np.array([1j, 2.0]),), NumericError,
     "scores must be real numbers"),
], ids=["auc-str", "ap-ragged", "threshold-complex", "report-complex-array",
        "minmax-nan", "minmax-str", "minmax-complex-array"])
def test_unreadable_scores_raise_a_categorized_error(call, args, error, match):
    # each used to leak a bare numpy ValueError or TypeError, warn and drop
    # the imaginary parts, or (minmax_normalize with a NaN) return all NaN
    with pytest.raises(error, match=match):
        call(*args)


@pytest.mark.parametrize("scores, labels, match", [
    ([0.1, 0.2, 0.3], [[0, 1], [0]], "labels must be 0 or 1"),
    ([0.1, 0.9], [0j, 1 + 0j], "labels must be 0 or 1, got dtype complex128"),
    ([10**400, 0.9], [0, 1], "scores must be real numbers"),
], ids=["ragged-labels", "complex-labels", "int-beyond-float"])
@pytest.mark.parametrize("metric", [auc, average_precision, threshold_from_support,
                                    lambda s, y: compute_report(s, y, 0.5)],
                         ids=["auc", "ap", "threshold", "report"])
def test_unreadable_labels_and_huge_scores_raise_metric_error(metric, scores, labels, match):
    # found by the drawn-input test: a bare ValueError from a ragged label
    # list, a ComplexWarning from the labels' int cast, a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError, match=match):
            metric(scores, labels)


# Drawn inputs: ties, signed zeros, subnormals, values at the float range's
# edge, non-finite values, one-class and non-binary labels, wrong lengths,
# 2-D input, str and bool. Each call either works or raises an FsadError,
# with warnings as errors.
_SCORE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.5, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.sampled_from(["0.25", "x", "", 10**400, None, 1 + 0j, 1j]))
_LABEL = st.one_of(st.sampled_from([0, 1, 0, 1, True, False, 1.0, -0.0]),
                   st.sampled_from([2, -1, 0.5, np.nan, "0", "1", 1 + 0j, 1j, None,
                                    10**400, [0], [0, 1]]))
_THRESHOLD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.5, -0.0, 5e-324, 1e308, "0.5", True, None,
                                        10**400, 1j]))


def _shaped(draw, values, numeric):
    """``values`` as drawn, as one scalar, or (if ``numeric``) as a float
    array: 1-D, a column or a row."""
    kind = draw(st.sampled_from(["list", "scalar"] + numeric * ["array", "column", "row"]))
    if kind == "list":
        return values
    if kind == "scalar":
        return values[0] if values else 0.5
    arr = np.array(values, dtype=np.float64)
    return {"array": arr, "column": arr.reshape(-1, 1), "row": arr.reshape(1, -1)}[kind]


@st.composite
def metric_inputs(draw):
    n = draw(st.integers(0, 9))
    floats_only = draw(st.booleans())
    elem = st.sampled_from([0.0, -0.0, 0.5, 5e-324, 1e308, -1e308]) if floats_only else _SCORE
    scores = draw(st.lists(elem, min_size=n, max_size=n))
    m = max(0, n + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))  # mostly matching lengths
    binary = draw(st.booleans())
    labels = draw(st.lists(st.sampled_from([0, 1]) if binary else _LABEL,
                           min_size=m, max_size=m))
    return (_shaped(draw, scores, floats_only), _shaped(draw, labels, binary),
            draw(_THRESHOLD))


def _works_or_raises_categorized(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except FsadError:
            return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(metric_inputs())
@example(([0.1, 0.2, 0.3], [[0, 1], [0]], 0.5))  # ragged labels
@example(([0.1, 0.9], [0j, 1 + 0j], 0.5))  # complex labels without imaginary parts
@example(([10**400, 0.9], [0, 1], 0.5))  # an int beyond the float range
@example(([0.0, 5e-324], [0, 1], 0.5))  # a midpoint that rounds onto the lower score
def test_drawn_metric_inputs_work_or_raise_categorized(inputs):
    scores, labels, threshold = inputs
    for metric in (auc, average_precision):
        got = _works_or_raises_categorized(metric, scores, labels)
        assert got is None or 0.0 <= got <= 1.0
    t = _works_or_raises_categorized(threshold_from_support, scores, labels)
    assert t is None or (isinstance(t, float) and math.isfinite(t))
    if t is not None:
        s = np.asarray(scores, dtype=np.float64)
        # distinct scores: the threshold splits an adjacent pair, strictly
        # above the lower score and at most the upper one
        assert s.min() == s.max() or s.min() < t <= s.max()
    rep = _works_or_raises_categorized(compute_report, scores, labels, threshold)
    if rep is not None:
        assert all(0.0 <= v <= 1.0 for v in (rep.auc, rep.ap, rep.f1, rep.acc))
        assert rep.tp + rep.fp + rep.tn + rep.fn == np.size(scores)
        assert math.isfinite(rep.threshold)
