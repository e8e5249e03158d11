"""Little-endian binary primitives with byte-offset error reporting.

Both on-disk artifact formats (feature bundles, parameter checkpoints) are
built from the same envelope: a 4-byte magic, a u32 version, then a body of
u32 counts and raw float arrays. Readers track their offset so truncation
and corruption surface as :class:`FormatError` pointing at the failing byte.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError


class ByteWriter:
    """Accumulates little-endian fields into one bytes payload."""

    def __init__(self):
        self._parts: list[bytes] = []

    def raw(self, b: bytes) -> None:
        self._parts.append(b)

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

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Sequential little-endian reader; every failure names its byte offset."""

    def __init__(self, payload: bytes, label: str = "payload"):
        self._buf = payload
        self._pos = 0
        self._label = label

    @property
    def offset(self) -> int:
        return self._pos

    def _take(self, n: int, what: str) -> bytes:
        if self._pos + n > len(self._buf):
            raise FormatError(
                f"{self._label}: truncated while reading {what}", offset=self._pos)
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def raw(self, n: int, what: str = "bytes") -> bytes:
        return self._take(n, what)

    def magic(self, expected: bytes) -> None:
        pos = self._pos
        got = self._take(len(expected), "magic")
        if got != expected:
            raise FormatError(
                f"{self._label}: bad magic {got!r}, expected {expected!r}", offset=pos)

    def u32(self, what: str = "u32") -> int:
        return struct.unpack("<I", self._take(4, what))[0]

    def f32_array(self, shape: tuple[int, ...], what: str = "f32 array") -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = self._take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)

    def f64_array(self, shape: tuple[int, ...], what: str = "f64 array") -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = self._take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

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
