"""The outside-input contract. Each converter returns exactly
``np.asarray(values, float64)`` (or int64), or raises the ``FsadError``
class its caller passes, as "<input> must be <rule>, got <fault>"."""

import numpy as np

from .errors import FsadError


def _array(values, kinds: str, what: str, rule: str, error: type[FsadError]):
    """``values`` as an array of a dtype kind in ``kinds``: never ragged,
    str, None, object (an int beyond the int64 range) or complex."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # a ragged nesting, or no array at all
        raise error(f"{what} must be {rule}, got {exc}") from None
    # numpy reads [] as float64: no values of any kind
    if arr.dtype.kind not in kinds and (arr.size or arr.dtype.kind != "f"):
        raise error(f"{what} must be {rule}, got dtype {arr.dtype}")
    return arr


def reals(values, what: str, error: type[FsadError]) -> np.ndarray:
    """``values`` as a float64 array of finite real numbers."""
    arr = _array(values, "biuf", what, "real numbers", error)
    with np.errstate(over="ignore"):  # a long double beyond the float range
        out = arr.astype(np.float64, copy=False)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise error(f"{what} must be finite, got {bad} non-finite")
    return out


def labels(values, shape, what: str, error: type[FsadError]) -> np.ndarray:
    """``values`` as an int64 array of ``shape`` (None: any), each 0 or 1."""
    y = _array(values, "biuf", what, "0 or 1", error)
    if shape is not None and y.shape != shape:
        raise error(f"{what} must have shape {shape}, got {y.shape}")
    bad = y[(y != 0) & (y != 1)]
    if bad.size:
        raise error(f"{what} must be 0 or 1, got {bad[0]}")
    return y.astype(np.int64, copy=False)


def ids(values, n: int, error: type[FsadError]) -> np.ndarray:
    """``values`` as an int64 array of image ids, any shape, each in [0, n)."""
    i = _array(values, "iu", "image ids", "an array of integers", error)
    bad = i[(i < 0) | (i >= n)]
    if bad.size:
        raise error(f"image id {bad[0]} outside [0, {n})")
    return i.astype(np.int64, copy=False)
