"""Little-endian binary primitives with byte-offset error reporting.

Both on-disk artifact formats (feature bundles, parameter checkpoints) are
built from the same envelope, owned here: a 4-byte magic, a u32 version,
then a body of u32 counts and raw float arrays. Readers track their offset
so truncation and corruption surface as :class:`FormatError` pointing at
the failing byte; a non-finite float raises :class:`NumericError`.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, NumericError


class ByteWriter:
    """Accumulates one file's little-endian fields after its header."""

    def __init__(self, magic: bytes, version: int):
        self._parts: list[bytes] = [magic]
        self.u32(version)

    def u32(self, value: int) -> None:
        if not 0 <= value < 2 ** 32:
            raise FormatError(f"u32 out of range: {value}")
        self._parts.append(struct.pack("<I", value))

    def f32_array(self, arr: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    def f64_array(self, arr: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def string(self, s: str) -> None:
        b = s.encode("utf-8")
        self.u32(len(b))
        self._parts.append(b)

    def payload(self) -> bytes:
        """The file's bytes so far, header included."""
        return b"".join(self._parts)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.payload())


class ByteReader:
    """Sequential little-endian reader; every failure names its byte offset."""

    def __init__(self, payload: bytes, label: str):
        self._buf = payload
        self._pos = 0
        self._label = label

    @classmethod
    def open(cls, path: str, magic: bytes, version: int) -> "ByteReader":
        """A reader positioned after the file's checked magic and version."""
        with open(path, "rb") as fh:
            r = cls(fh.read(), label=str(path))
        got = r._take(len(magic), "magic")
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}",
                              offset=0)
        found = r.u32("version")
        if found != version:
            raise FormatError(f"{path}: unsupported version {found}",
                              offset=len(magic))
        return r

    def _take(self, n: int, what: str) -> bytes:
        if self._pos + n > len(self._buf):
            raise FormatError(
                f"{self._label}: truncated while reading {what}", offset=self._pos)
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def u32(self, what: str = "u32", most: int | None = None) -> int:
        """One u32 field; a value above ``most`` fails at the field's offset."""
        pos = self._pos
        value = struct.unpack("<I", self._take(4, what))[0]
        if most is not None and value > most:
            raise FormatError(f"{self._label}: {what} {value} exceeds {most}",
                              offset=pos)
        return value

    def unique(self, read, seen, what: str):
        """``read(what)``'s value, which must not be a key of ``seen``; a
        repeat fails at its field's offset."""
        pos = self._pos
        key = read(what)
        if key in seen:
            raise FormatError(f"{self._label}: repeated {what} {key!r}", offset=pos)
        return key

    def _array(self, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        # a Python int count cannot wrap: an oversized header is a truncation
        pos = self._pos
        raw = self._take(np.dtype(dtype).itemsize * math.prod(shape), what)
        arr = np.frombuffer(raw, dtype=dtype)
        # count before the f64 cast, which warns on a signalling NaN
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise NumericError(f"{self._label}: {what} has {bad} non-finite values")
        try:
            return arr.astype(np.float64).reshape(shape)
        except ValueError:  # zero entries, but other dims past numpy's byte count
            raise FormatError(f"{self._label}: {what} has shape {shape}, "
                              f"which numpy cannot hold", offset=pos) from None

    def f32_array(self, shape: tuple[int, ...], what: str = "f32 array") -> np.ndarray:
        return self._array(shape, "<f4", what)

    def f64_array(self, shape: tuple[int, ...], what: str = "f64 array") -> np.ndarray:
        return self._array(shape, "<f8", what)

    def string(self, what: str = "string") -> str:
        n = self.u32(f"{what} length")
        pos = self._pos
        raw = self._take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self._label}: invalid utf-8 in {what}", offset=pos) from None

    def expect_exhausted(self) -> None:
        if self._pos != len(self._buf):
            raise FormatError(
                f"{self._label}: {len(self._buf) - self._pos} trailing bytes", offset=self._pos)
