"""Both binary formats under damage: a cut, flipped, edited or drawn file
loads or fails categorized."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsad.backbone import (BUNDLE_MAGIC, BUNDLE_VERSION, FeatureBundle,
                           load_feature_bundle, save_feature_bundle)
from fsad.binio import ByteWriter
from fsad.errors import FormatError, FsadError, NumericError
from fsad.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint,
                        write_checkpoint)

# a loaded value written back: a checkpoint as the same bytes, a bundle with
# its layers sorted
RESAVE = {"bundle": save_feature_bundle,
          "checkpoint": lambda loaded, path: write_checkpoint(path, *loaded)}


def _write_bundle(path):
    save_feature_bundle(FeatureBundle(d=2, visual={1: np.array([[0.5, -1.0]]),
                                                   3: np.array([[2.0, 0.25]])}),
                        path)


def _write_checkpoint(path):
    meta = {"d": 2, "prompt_len": 1, "selected_visual": (1, 3),
            "selected_text": (1, 2)}
    write_checkpoint(path, meta, {"prompt.context": np.array([[0.5, -1.0]]),
                                  "logit.rho": np.array(2.3)})


FORMATS = {"bundle": (_write_bundle, load_feature_bundle),
           "checkpoint": (_write_checkpoint, load_checkpoint)}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """format -> (scratch path, intact bytes)."""
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, _) in FORMATS.items():
        write(str(root / name))
        out[name] = (str(root / f"{name}.damaged"), (root / name).read_bytes())
    return out


def _load(fmt, path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return FORMATS[fmt][1](path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_intact_files_load(files, fmt):
    path, blob = files[fmt]
    _load(fmt, path, blob)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_is_format_error(files, fmt):
    path, blob = files[fmt]
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            _load(fmt, path, blob[:cut])


@settings(max_examples=400, deadline=1000, derandomize=True, database=None)
@given(data=st.data())
def test_byte_flip_loads_or_raises_categorized(files, data):
    # a flip inside a float payload can leave a valid file, so loading is
    # allowed; any failure must be FormatError or NumericError, unwarned
    fmt = data.draw(st.sampled_from(sorted(FORMATS)))
    path, blob = files[fmt]
    pos = data.draw(st.integers(0, len(blob) - 1))
    mask = data.draw(st.integers(1, 255))
    damaged = bytearray(blob)
    damaged[pos] ^= mask
    try:
        _load(fmt, path, bytes(damaged))
    except (FormatError, NumericError):
        pass


# u32 values at the edges of what a count, rank, dim or length may hold
U32_EDGES = [0, 1, 2, 3, 63, 64, 65, 2 ** 16, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1]


def _repeated(data, entries: list) -> list:
    """``entries``, one of them possibly written again at a drawn position:
    the "repeat an entry" edit."""
    if entries and data.draw(st.booleans(), label="repeat an entry"):
        entries.insert(data.draw(st.integers(0, len(entries))),
                       data.draw(st.sampled_from(entries)))
    return entries


def _drawn_bundle(data) -> bytes:
    """A feature bundle written field by field from drawn values."""
    w = ByteWriter(BUNDLE_MAGIC, BUNDLE_VERSION)
    d = data.draw(st.integers(0, 4))
    w.u32(d)
    layers = []
    for _ in range(data.draw(st.integers(0, 3))):
        p = data.draw(st.integers(0, 3))
        layers.append((data.draw(st.integers(0, 9)), p,
                       data.draw(st.lists(st.floats(width=32), min_size=p * d,
                                          max_size=p * d))))
    layers = _repeated(data, layers)
    w.u32(len(layers))
    for layer, p, values in layers:
        w.u32(layer)
        w.u32(p)
        w.f32_array(np.array(values))
    return w.payload()


def _drawn_checkpoint(data) -> bytes:
    """A checkpoint written field by field from drawn values, ranks up to
    65 among them."""
    w = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.u32(data.draw(st.integers(0, 9)))  # width
    w.u32(data.draw(st.integers(0, 9)))  # prompt length
    for _ in range(2):  # the visual and text taps
        taps = data.draw(st.lists(st.integers(0, 9), max_size=3))
        w.u32(len(taps))
        for tap in taps:
            w.u32(tap)
    entries = []
    for _ in range(data.draw(st.integers(0, 3))):
        name = data.draw(st.sampled_from(["logit.rho", "prompt.context", ""])
                         | st.text(max_size=4))
        rank = data.draw(st.integers(0, 3) | st.sampled_from([64, 65]))
        dims = ([data.draw(st.integers(0, 3)) for _ in range(rank)] if rank <= 3
                else [1] * rank)
        n = math.prod(dims)
        entries.append((name, dims, data.draw(st.lists(st.floats(), min_size=n,
                                                       max_size=n))))
    entries = _repeated(data, entries)
    w.u32(len(entries))
    for name, dims, values in entries:
        w.string(name)
        w.u32(len(dims))
        for dim in dims:
            w.u32(dim)
        w.f64_array(np.array(values))
    return w.payload()


def _mutated(data, blob: bytes) -> bytes:
    """``blob`` after up to three drawn edits: a u32 overwritten with an
    edge value, a run of bytes inserted or deleted, or the tail redrawn."""
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["u32", "insert", "delete", "tail"]))
        pos = data.draw(st.integers(0, len(blob)))
        if kind == "u32":
            value = data.draw(st.sampled_from(U32_EDGES) | st.integers(0, 2 ** 32 - 1))
            blob = blob[:pos] + struct.pack("<I", value) + blob[pos + 4:]
        elif kind == "insert":
            blob = blob[:pos] + data.draw(st.binary(min_size=1, max_size=12)) + blob[pos:]
        elif kind == "delete":
            blob = blob[:pos] + blob[pos + data.draw(st.integers(1, 12)):]
        else:
            blob = blob[:pos] + data.draw(st.binary(max_size=64))
    return blob


DRAWN = {"bundle": _drawn_bundle, "checkpoint": _drawn_checkpoint}


@settings(max_examples=600, deadline=1000, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_and_edited_files_load_or_raise_categorized(files, data):
    fmt = data.draw(st.sampled_from(sorted(FORMATS)))
    path, intact = files[fmt]
    base = data.draw(st.sampled_from([intact, None]))
    blob = _mutated(data, DRAWN[fmt](data) if base is None else base)
    try:
        loaded = _load(fmt, path, blob)
    except FsadError:
        return
    # a file that loads kept every entry it holds: written back, it gives
    # the same bytes, or for a bundle, whose layers save sorted, as many
    RESAVE[fmt](loaded, path)
    with open(path, "rb") as fh:
        again = fh.read()
    assert again == blob if fmt == "checkpoint" else len(again) == len(blob)


def _one_entry_checkpoint(dims, values) -> tuple[bytes, int]:
    """A checkpoint holding one entry, ``logit.rho``, and the offset of its
    rank field."""
    w = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    for v in (2, 1, 0, 0, 1):  # width, prompt length, no taps, one entry
        w.u32(v)
    w.string("logit.rho")
    rank_at = len(w.payload())
    w.u32(len(dims))
    for dim in dims:
        w.u32(dim)
    w.f64_array(np.asarray(values, dtype=np.float64))
    return w.payload(), rank_at


def test_checkpoint_rank_above_numpy_limit_is_format_error(files):
    # numpy's reshape raised a bare ValueError at rank 65
    path, _ = files["checkpoint"]
    blob, rank_at = _one_entry_checkpoint([1] * 65, [1.0])
    with pytest.raises(FormatError, match="rank 65 exceeds 64") as err:
        _load("checkpoint", path, blob)
    assert err.value.offset == rank_at


def test_checkpoint_zero_size_shape_past_numpy_size_is_format_error(files):
    # no entries to read, yet numpy's reshape refused the shape with a bare
    # ValueError ("array is too big")
    path, _ = files["checkpoint"]
    dims = [2 ** 31, 2 ** 31, 0]
    blob, rank_at = _one_entry_checkpoint(dims, [])
    with pytest.raises(FormatError, match="numpy cannot hold") as err:
        _load("checkpoint", path, blob)
    assert err.value.offset == rank_at + 4 * (1 + len(dims))  # the payload


def test_checkpoint_repeated_entry_is_format_error(files):
    # loaded as {'logit.rho': 2.0}, the first entry dropped
    path, _ = files["checkpoint"]
    w = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    for v in (2, 1, 0, 0, 2):  # width, prompt length, no taps, two entries
        w.u32(v)
    for value in (1.0, 2.0):
        at = len(w.payload())
        w.string("logit.rho")
        w.u32(0)  # a scalar
        w.f64_array(np.array(value))
    with pytest.raises(FormatError, match="repeated entry name 'logit.rho'") as err:
        _load("checkpoint", path, w.payload())
    assert err.value.offset == at


def test_bundle_repeated_layer_is_format_error(files):
    # loaded as visual={3: [[2.0]]}, the first layer dropped
    path, _ = files["bundle"]
    w = ByteWriter(BUNDLE_MAGIC, BUNDLE_VERSION)
    w.u32(1)  # width
    w.u32(2)  # layers
    for value in (1.0, 2.0):
        at = len(w.payload())
        w.u32(3)  # layer id
        w.u32(1)  # patches
        w.f32_array(np.array([[value]]))
    with pytest.raises(FormatError, match="repeated visual layer id 3") as err:
        _load("bundle", path, w.payload())
    assert err.value.offset == at
