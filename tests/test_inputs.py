"""The outside-input contract: each converter returns exactly numpy's cast
of a drawn value, or raises exactly the category its caller passed."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsad import inputs
from fsad.errors import (ContractError, FsadError, MetricError, NumericError,
                         ShapeError)

CATEGORIES = (ContractError, MetricError, NumericError, ShapeError)

_ELEMENT = st.one_of(
    st.sampled_from([0, 1, 0, 1, -1, 2, 0.0, 1.0, -0.0, 0.5, 5e-324, 1e308,
                     np.nan, np.inf, -np.inf, True, False]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2**70, 2**70),
    st.sampled_from(["0", "1", "x", "", None, 1j, 1 + 0j, 10**400,
                     # beyond the float range where long double is wider
                     np.longdouble("1e4000")]))

_DTYPES = [np.bool_, np.int8, np.int64, np.uint8, np.uint64, np.float16,
           np.float32, np.float64, np.longdouble, np.complex128, object, str]


@st.composite
def drawn_values(draw):
    """A scalar, a flat or nested list, a ragged nesting, or an array of a
    drawn dtype, cast from drawn elements where numpy allows it."""
    kind = draw(st.sampled_from(["scalar", "list", "nested", "ragged", "array"]))
    if kind == "scalar":
        return draw(_ELEMENT)
    items = draw(st.lists(_ELEMENT, max_size=6))
    if kind == "list":
        return items
    if kind == "nested":
        return [items, list(reversed(items))]
    if kind == "ragged":
        return [items, items + [0]]
    dtype = draw(st.sampled_from(_DTYPES))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.array(items, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # the dtype cannot hold them
        return np.array(items, dtype=object)


def check(convert, cast, error):
    """``convert()``'s result equals ``cast()``, or it raised ``error``
    itself; returns the result or None."""
    try:
        got = convert()
    except FsadError as exc:
        assert type(exc) is error, f"{type(exc).__name__}: {exc}"
        return None
    want = cast()
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=drawn_values(), error=st.sampled_from(CATEGORIES),
       n=st.integers(0, 5), shape=st.sampled_from(["as given", None, (2,), ()]))
def test_drawn_values_convert_exactly_or_raise_the_callers_category(
        values, error, n, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = check(lambda: inputs.reals(values, "values", error),
                    lambda: np.asarray(values, dtype=np.float64), error)
        assert got is None or np.isfinite(got).all()
        if shape == "as given":
            shape = np.shape(got) if got is not None else None
        got = check(lambda: inputs.labels(values, shape, "labels", error),
                    lambda: np.asarray(values, dtype=np.int64), error)
        assert got is None or (np.isin(got, (0, 1)).all()
                               and shape in (None, got.shape))
        got = check(lambda: inputs.ids(values, n, error),
                    lambda: np.asarray(values, dtype=np.int64), error)
        assert got is None or ((0 <= got) & (got < n)).all()


@pytest.mark.parametrize("values", [
    [0.25, 1], np.arange(3, dtype=np.uint8), np.array([[True], [False]]),
    np.float32(2.5), [2**63]], ids=["list", "uint8", "bool", "float32", "uint64"])
def test_real_arrays_of_every_kind_convert(values):
    got = inputs.reals(values, "values", NumericError)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.asarray(values, dtype=np.float64))


@pytest.mark.parametrize("values, match", [
    (["0.25"], "values must be real numbers, got dtype <U4"),
    ([1.0, None], "values must be real numbers, got dtype object"),
    ([10**400], "values must be real numbers, got dtype object"),
    ([1j], "values must be real numbers, got dtype complex128"),
    ([[1.0], [1.0, 2.0]], "values must be real numbers, got setting an array"),
    ([1.0, np.inf, np.nan], "values must be finite, got 2 non-finite"),
], ids=["numeric-str", "None", "int-beyond-float", "complex", "ragged", "non-finite"])
def test_reals_name_the_input_and_the_fault(values, match):
    with pytest.raises(MetricError, match=match):
        inputs.reals(values, "values", MetricError)


def test_an_empty_list_is_no_ids():
    # numpy reads [] as float64; it holds no id that is not an integer
    got = inputs.ids([], 0, ContractError)
    assert got.dtype == np.int64 and got.shape == (0,)
