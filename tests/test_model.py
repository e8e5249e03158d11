"""Model assembly: parameter registry, rate groups, checkpoints, checksums."""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.adaptation import AdaptSpec
from fsad.backbone import BackboneSpec, ToyEncoder
from fsad.binio import ByteWriter
from fsad.clsa import ClsaSpec
from fsad.config import RunConfig
from fsad.errors import (CompatError, ConfigError, ContractError, FormatError,
                         NumericError)
from fsad.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FAST_GROUP,
                        SLOW_GROUP, Model, Recipe, _episode_tensors,
                        apply_checkpoint, backbone_checksum, forward,
                        forward_text, init_model, load_checkpoint,
                        named_parameters, parameter_groups, save_checkpoint,
                        state_checksum, write_checkpoint)
from fsad.numcore import Tensor
from fsad.runner import model_from_config
from fsad.training import training_scores
from small_spec import small_spec


def small_model(**kw):
    return init_model(Recipe(small_spec(), seed=7, **kw))


def rand_taps(spec, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (spec.patches, spec.d) if batch is None else (batch, spec.patches, spec.d)
    return {l: Tensor(rng.normal(size=shape)) for l in spec.selected_visual}


def expected_names(spec, with_alpha=True):
    names = ["prompt.context"]
    for l in spec.selected_visual:
        names += [f"rav.{l}.down", f"rav.{l}.up"]
    for l in spec.selected_text:
        names += [f"rat.{l}.down", f"rat.{l}.up"]
    names.append("rat.alpha")
    for l in spec.selected_visual:
        for d in ("v2t", "t2v"):
            names += [f"clsa.{l}.{d}.{w}" for w in ("wq", "wk", "wv", "wo")]
    names += ["clsa.beta_t", "clsa.beta_v", "logit.rho"]
    return names


def test_parameter_inventory_default_spec():
    spec = BackboneSpec()
    model = init_model(Recipe(spec, seed=0))
    params = named_parameters(model)
    assert list(params) == expected_names(spec)
    assert len(params) == 53
    assert all(p.requires_grad for p in params.values())


def test_parameter_inventory_small_spec():
    model = small_model()
    assert list(named_parameters(model)) == expected_names(model.spec)


def test_two_pairs_may_share_a_text_tap():
    # text adapters are keyed by text tap: (2, 4)/(1, 1) builds both pairs
    # around one text adapter, and both align
    spec = small_spec(selected_text=(1, 1))
    model = init_model(Recipe(spec, seed=7))
    assert list(named_parameters(model)) == list(dict.fromkeys(expected_names(spec)))
    assert sorted(forward(model, rand_taps(spec)).visual) == [2, 4]


def test_rate_groups_split_adapters_from_the_rest():
    model = small_model()
    groups = parameter_groups(model)
    assert list(groups) == list(named_parameters(model))
    slow = {name for name, group in groups.items() if group == SLOW_GROUP}
    fast = {name for name, group in groups.items() if group == FAST_GROUP}
    assert slow == {n for n in named_parameters(model)
                    if n.startswith(("rav.", "rat."))}
    assert "rat.alpha" in slow
    assert {"prompt.context", "logit.rho", "clsa.beta_t", "clsa.beta_v"} <= fast
    assert slow.isdisjoint(fast)
    assert slow | fast == set(named_parameters(model))


def test_logit_scale_starts_at_ten():
    model = small_model()
    assert np.isclose(float(model.tau().data), 10.0)
    assert float(model.rho.data) == np.log(10.0)
    assert model.rho.requires_grad


def test_forward_identity_at_init():
    # zero-init adapter ups and closed gates: the whole stack passes frozen
    # features through untouched.
    model = small_model()
    taps = rand_taps(model.spec, seed=1)
    out = forward(model, taps)
    for l, v in taps.items():
        np.testing.assert_array_equal(out.visual[l].data, v.data)
    raw = forward_text(model)
    for m, per_cls in raw.items():
        for cls, t in per_cls.items():
            assert t.shape == (model.adapt.prompts.prompt_len + 1, model.spec.d)


def test_forward_shapes_batched():
    model = small_model()
    taps = rand_taps(model.spec, seed=2, batch=3)
    out = forward(model, taps)
    for l in model.spec.selected_visual:
        assert out.visual[l].shape == (3, model.spec.patches, model.spec.d)
    for cls in ("normal", "abnormal"):
        assert out.class_vectors[cls].shape[-1] == model.spec.d


def test_missing_visual_taps_are_named():
    # forward and the training scores it feeds name every missing tap
    # instead of raising a bare KeyError for the first
    model = small_model()
    with pytest.raises(ContractError, match=r"visual taps \[2, 4\]"):
        forward(model, {})
    taps = rand_taps(model.spec, seed=3, batch=2)
    del taps[4]
    with pytest.raises(ContractError, match=r"visual taps \[4\]"):
        training_scores(model, taps)


def test_strategy_override_in_forward():
    # forward runs the model's own strategy: seq, or none for a model of
    # the same seed that was built with strategy="none"
    model = small_model(clsa=ClsaSpec(gate_init=1.0))
    taps = rand_taps(model.spec, seed=3)
    seq = forward(model, taps)
    none = forward(small_model(clsa=ClsaSpec(gate_init=1.0, strategy="none")), taps)
    assert model.strategy == "seq"
    assert not np.array_equal(seq.visual[2].data, none.visual[2].data)
    np.testing.assert_array_equal(none.visual[2].data, taps[2].data)


def scramble(model, seed=99):
    rng = np.random.default_rng(seed)
    for p in named_parameters(model).values():
        p.data = rng.normal(size=p.shape)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = small_model()
    scramble(model)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    fresh = small_model()
    assert state_checksum(fresh) != state_checksum(model)
    apply_checkpoint(fresh, path)
    assert state_checksum(fresh) == state_checksum(model)
    for (n1, p1), (n2, p2) in zip(named_parameters(model).items(),
                                  named_parameters(fresh).items()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_checkpoint_meta_guards(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(CompatError, match="prompt_len"):
        apply_checkpoint(small_model(adapt=AdaptSpec(prompt_len=4)), path)
    with pytest.raises(CompatError, match=r"\bd\b"):
        apply_checkpoint(init_model(Recipe(small_spec(d=32, heads=4), seed=7)), path)
    with pytest.raises(CompatError, match="selected_visual"):
        apply_checkpoint(init_model(Recipe(small_spec(selected_visual=(1, 3)), seed=7)), path)


def test_checkpoint_shape_guard(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    # same names, different adapter shapes
    other = small_model(adapt=AdaptSpec(reduction=2))
    with pytest.raises(CompatError, match="shape"):
        apply_checkpoint(other, path)


def test_checkpoint_with_non_finite_values_rejected(tmp_path):
    model = small_model()
    named_parameters(model)["clsa.beta_v"].data = np.asarray(np.nan)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(NumericError, match=r"clsa\.beta_v has 1 non-finite"):
        load_checkpoint(path)
    with pytest.raises(NumericError):
        apply_checkpoint(small_model(), path)


def rewrite_entries(src, dst, mutate):
    """Re-serialize a checkpoint with its entry dict passed through mutate."""
    meta, tensors = load_checkpoint(src)
    mutate(tensors)
    write_checkpoint(dst, meta, tensors)


def test_write_checkpoint_inverts_load(tmp_path):
    src, dst = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(small_model(), str(src))
    write_checkpoint(str(dst), *load_checkpoint(str(src)))
    assert dst.read_bytes() == src.read_bytes()


def test_checkpoint_overflowing_shape_is_format_error(tmp_path):
    # two dims of 0xFFFFFFFF wrap a 64-bit element count; the file must
    # still read as truncated, not fail inside numpy
    w = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    for field in (16, 4, 0, 0, 1):  # d, prompt_len, no taps, one entry
        w.u32(field)
    w.string("prompt.context")
    for field in (2, 0xFFFFFFFF, 0xFFFFFFFF):  # rank, dims
        w.u32(field)
    path = tmp_path / "huge.ckpt"
    w.save(str(path))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(str(path))


def test_checkpoint_name_mismatch_guards(tmp_path):
    model = small_model()
    src = str(tmp_path / "m.ckpt")
    save_checkpoint(model, src)

    missing = str(tmp_path / "missing.ckpt")
    rewrite_entries(src, missing, lambda t: t.pop("logit.rho"))
    with pytest.raises(CompatError, match="logit.rho"):
        apply_checkpoint(small_model(), missing)

    extra = str(tmp_path / "extra.ckpt")
    rewrite_entries(src, extra, lambda t: t.update(stray=np.zeros(2)))
    with pytest.raises(CompatError, match="stray"):
        apply_checkpoint(small_model(), extra)


def test_corrupted_checkpoint_categorized(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()

    bad_magic = str(tmp_path / "bad_magic.ckpt")
    open(bad_magic, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad_magic)

    truncated = str(tmp_path / "trunc.ckpt")
    open(truncated, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(truncated)

    trailing = str(tmp_path / "trail.ckpt")
    open(trailing, "wb").write(blob + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(trailing)

    bad_version = str(tmp_path / "ver.ckpt")
    open(bad_version, "wb").write(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(bad_version)


def test_state_checksum_tracks_parameters():
    m1 = small_model()
    m2 = small_model()
    assert state_checksum(m1) == state_checksum(m2)
    m2.rho.data = m2.rho.data + 1.0
    assert state_checksum(m1) != state_checksum(m2)


def test_backbone_checksum_ignores_learnables():
    m1 = small_model()
    m2 = small_model()
    scramble(m2)
    assert backbone_checksum(m1) == backbone_checksum(m2)
    m3 = init_model(Recipe(small_spec(seed=6), seed=7))
    assert backbone_checksum(m1) != backbone_checksum(m3)


def test_init_model_seed_controls_learnables_only():
    a = init_model(Recipe(small_spec(), seed=1))
    b = init_model(Recipe(small_spec(), seed=2))
    assert backbone_checksum(a) == backbone_checksum(b)
    assert state_checksum(a) != state_checksum(b)
    c = init_model(Recipe(small_spec(), seed=1))
    assert state_checksum(a) == state_checksum(c)


def test_one_recipe_draws_one_model():
    recipe = Recipe(small_spec(), AdaptSpec(prompt_len=4), ClsaSpec(gate_init=0.5), 3)
    a, b = init_model(recipe), init_model(recipe)
    ta, tb = _episode_tensors(a), _episode_tensors(b)
    assert list(ta) == list(tb)
    for name in ta:
        assert ta[name].data.tobytes() == tb[name].data.tobytes(), name
    # the model keeps its recipe, and reads its taps and strategy there
    assert a.recipe is recipe
    assert a.spec is recipe.backbone and a.strategy == recipe.clsa.strategy
    assert [f.name for f in fields(Model)] == ["recipe", "text_enc", "adapt",
                                               "clsa", "rho", "_memo"]


@pytest.mark.parametrize("seed, match", [
    (-1, "model seed must be >= 0, got -1"),
    (1.5, "model seed must be an integer, got 1.5"),
    ("1", "model seed must be an integer, got '1'"),
])
def test_recipe_refuses_a_seed_numpy_cannot_take(seed, match):
    with pytest.raises(ConfigError, match=match):
        init_model(Recipe(small_spec(), seed=seed))


def test_recipe_structure_forgets_the_seed_and_the_gate_value_only():
    recipe = Recipe(small_spec(), clsa=ClsaSpec(gate_init=0.5, gates_learnable=False),
                    seed=3)
    assert recipe.structure() == Recipe(
        small_spec(), clsa=ClsaSpec(gates_learnable=False), seed=0)
    for other in (replace(recipe, clsa=replace(recipe.clsa, strategy="none")),
                  replace(recipe, clsa=replace(recipe.clsa, gates_learnable=True)),
                  replace(recipe, backbone=small_spec(selected_visual=(1, 3))),
                  replace(recipe, adapt=AdaptSpec(reduction=2))):
        assert other.structure() != recipe.structure()


def test_fresh_default_model_draws_are_pinned():
    # every initial draw of the default model: adapters, prompts, CLSA
    # blocks and gates (state), the text tower, and the visual tower that
    # encodes the feature store
    model = model_from_config(RunConfig({}))
    assert state_checksum(model) == (
        "394c23471b5db24baf80cc9141685cc28d9965b88b160fbdf4db29389d56475e")
    assert backbone_checksum(model) == (
        "0cea940807c6f63399d97d7eca49c2f4e44454c35b85483d4c7637f83c04df32")
    h = hashlib.sha256()
    for w in ToyEncoder(BackboneSpec(), "visual").all_weights():
        h.update(np.ascontiguousarray(w.data, dtype="<f8").tobytes())
    assert h.hexdigest() == (
        "e97e60233615d1bfd799bd335aa5ce1bbe06a36b58b1538570d04e124128d1d0")
