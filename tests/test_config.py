"""Config parsing: schema enforcement, merge order, canonical text, hashing."""

import hashlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsad.adaptation import AdaptSpec
from fsad.clsa import STRATEGIES, ClsaSpec
from fsad.config import (SCHEMA, RunConfig, config_hash, defaults,
                         effective_text, load_config, parse_config_text)
from fsad.errors import ConfigError
from fsad.inference import InferSpec
from fsad.synthdata import EpisodeSpec


def test_defaults_build_valid_config():
    cfg = RunConfig({})
    assert cfg["episode.k"] == 4
    assert cfg["episode.count"] == 20
    assert cfg["infer.lam"] == 0.5
    assert cfg["train.lr_fast"] == 1e-4
    assert cfg["train.lr_slow"] == 1e-5
    assert cfg["train.epochs"] == 50
    assert cfg["clsa.strategy"] == "seq"
    assert cfg["clsa.gate_init"] == 0.0
    spec = cfg.backbone_spec()
    assert spec.selected_visual == (2, 4, 6, 8)
    data = cfg.dataset_spec()
    assert data.n_normal == 200 and data.n_abnormal == 200
    assert cfg.train_config().weight_decay == 0.01


def test_parse_text_types_and_comments():
    text = """
    # benchmark overrides
    episode.k = 8

    clsa.strategy = t2v
    backbone.visual_taps = 2, 4
    backbone.text_taps = 1,2
    clsa.gates_learnable = false
    train.lr_fast = 3e-2
    """
    values = parse_config_text(text)
    assert values["episode.k"] == 8
    assert values["backbone.visual_taps"] == (2, 4)
    assert values["clsa.gates_learnable"] is False
    assert values["train.lr_fast"] == 0.03
    cfg = RunConfig(values)
    assert cfg["clsa.strategy"] == "t2v"
    assert cfg["episode.count"] == 20  # untouched default


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("episode.kk = 4", source="bad.cfg")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_text("episode.kk = 4", source="bad.cfg")


def test_duplicate_and_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("episode.k = 4\nepisode.k = 8")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("episode.k")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("episode.k = four")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("clsa.gates_learnable = maybe")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        RunConfig({"clsa.strategy": "both"})
    with pytest.raises(ConfigError):
        RunConfig({"infer.lam": 1.5})
    with pytest.raises(ConfigError):
        RunConfig({"infer.eps": 0.0})
    with pytest.raises(ConfigError):
        RunConfig({"episode.count": 0})
    with pytest.raises(ConfigError):  # backbone spec validation propagates
        RunConfig({"backbone.heads": 5})
    with pytest.raises(ConfigError):
        RunConfig({"train.epochs": -1})


def test_effective_text_round_trips():
    cfg = RunConfig({"episode.k": 2, "train.lr_fast": 0.03,
                     "backbone.visual_taps": (2, 6), "backbone.text_taps": (1, 3)})
    text = cfg.text()
    again = RunConfig(parse_config_text(text))
    assert again.values == cfg.values
    assert again.text() == text
    assert sorted(parse_config_text(text)) == sorted(defaults())


def test_hash_ignores_output_dir_only():
    base = RunConfig({})
    moved = RunConfig({"run.out": "elsewhere"})
    changed = RunConfig({"episode.k": 2})
    assert base.hash() == moved.hash()
    assert base.hash() != changed.hash()
    assert base.text() != moved.text()  # echo still records the directory
    assert len(base.hash()) == 64


def test_load_config_merge_order(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("episode.k = 8\ninfer.lam = 0.25\n")
    cfg = load_config(str(path), overrides=["infer.lam=0.75"])
    assert cfg["episode.k"] == 8          # from file
    assert cfg["infer.lam"] == 0.75       # override wins
    assert cfg["episode.count"] == 20     # default
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError, match="override"):
        load_config(None, overrides=["nope=1"])


def test_every_key_has_documented_default():
    cfg = RunConfig({})
    rendered = cfg.text()
    for key in defaults():
        assert f"{key} = " in rendered


def test_default_config_hash_is_pinned():
    # every report's first line carries this hash
    assert RunConfig({}).hash() == (
        "65fbfeebaffcd5408d8139d0d502f9773022e186785e1bdd7167f957a3e60af8")


def test_schema_is_pinned():
    # every key's name, type name and default; reports hash their values
    text = repr(sorted(SCHEMA.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "12e1617b6e8f81fad542c1cd5602fa595d974dc476c4958e7eb5b4a0f00488c1")


def test_every_float_key_rejects_non_finite_values():
    # dicts reach RunConfig without the text parser, so it checks them itself
    floats = [key for key, (kind, _) in SCHEMA.items() if kind == "float"]
    assert len(floats) == 17
    for key in floats:
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="must be finite"):
                RunConfig({key: bad})


@pytest.mark.parametrize("key, value", [
    ("clsa.gates_learnable", "no"),        # hashed as the default true
    ("episode.k", 4.5),
    ("episode.k", True),
    ("infer.lam", True),
    ("train.lr_fast", "0.1"),             # an uncategorized TypeError
    pytest.param("train.lr_fast", 10 ** 400, id="train.lr_fast-huge_int"),
    ("backbone.patch_grid", (True, 2)),
    ("backbone.visual_taps", (2.0, 4.0)),
    ("run.out", 3),
    # a str must survive its own effective.cfg line
    ("run.out", "x\nepisode.k = 8"),
    ("run.out", "a\rb"),
    ("run.out", " out "),
    ("run.out", "out\t"),
])
def test_dict_values_must_have_their_key_type(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig({key: value})


@pytest.mark.parametrize("spec, key, value", [
    (ClsaSpec, "clsa.strategy", "bogus"),
    (InferSpec, "infer.lam", 1.5),
    (InferSpec, "infer.eps", 0.0),
    (InferSpec, "infer.eps", float("nan")),  # used to pass `eps <= 0`
    (InferSpec, "infer.eps", float("inf")),  # proto_scores refuses it
    (EpisodeSpec, "episode.k", 0),
    (EpisodeSpec, "episode.query_per_class", 0),
    (EpisodeSpec, "episode.count", 0),
    (AdaptSpec, "adapt.reduction", 0),
    (ClsaSpec, "clsa.heads", 0),
    (AdaptSpec, "adapt.prompt_len", -1),
])
def test_section_spec_owns_its_checks(spec, key, value):
    # a direct library call meets the same check as a config value
    with pytest.raises(ConfigError, match=re.escape(key)):
        spec(**{key.split(".")[1]: value})
    with pytest.raises(ConfigError, match=re.escape(key)):
        RunConfig({key: value})


@pytest.mark.parametrize("key, value, stored", [
    ("clsa.gate_init", 0, 0.0),
    ("train.lr_fast", 1, 1.0),
    ("backbone.visual_taps", [2, 4, 6, 8], (2, 4, 6, 8)),
])
def test_dict_values_are_stored_as_the_parser_stores_them(key, value, stored):
    cfg = RunConfig({key: value})
    assert cfg[key] == stored and type(cfg[key]) is type(stored)
    assert cfg.hash() == RunConfig({key: stored}).hash()
    assert cfg.hash() == RunConfig(parse_config_text(cfg.text())).hash()


def _near_default(key):
    """Values of the key's type, mostly valid, ints included for floats."""
    kind, default = SCHEMA[key]
    if kind == "float":
        return st.one_of(st.integers(0, 3), st.floats(-1.0, 4.0))
    if kind == "int":
        return st.integers(default, default + 3)
    if kind == "bool":
        return st.booleans()
    if kind == "ints":
        return st.sampled_from([default, list(default), default[::-1]])
    if key == "clsa.strategy":
        return st.sampled_from(STRATEGIES)
    return st.text("abc_/.-0123", min_size=1, max_size=8)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(sorted(SCHEMA)), max_size=5, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries(
           {key: _near_default(key) for key in keys})))
def test_config_hash_survives_its_own_text(values):
    try:
        cfg = RunConfig(values)
    except ConfigError:
        assume(False)
    again = RunConfig(parse_config_text(cfg.text()))
    assert again.hash() == cfg.hash()
    assert again.text() == cfg.text()
