"""Both binary formats under damage: a cut or flipped file fails categorized."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsad.backbone import FeatureBundle, load_feature_bundle, save_feature_bundle
from fsad.errors import FormatError, NumericError
from fsad.model import load_checkpoint, write_checkpoint


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
