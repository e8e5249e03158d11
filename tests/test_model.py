"""Model assembly: parameter registry, rate groups, checkpoints, checksums."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.backbone import BackboneSpec
from fsad.binio import ByteWriter
from fsad.errors import CompatError, FormatError, NumericError
from fsad.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FAST_GROUP,
                        SLOW_GROUP, apply_checkpoint, backbone_checksum, forward,
                        forward_text, init_model, load_checkpoint,
                        named_parameters, parameter_groups, save_checkpoint,
                        state_checksum)
from fsad.numcore import Tensor


def small_spec(**kw):
    base = dict(d=16, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)
    base.update(kw)
    return BackboneSpec(**base)


def small_model(**kw):
    return init_model(small_spec(), seed=7, **kw)


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
    model = init_model(spec, seed=0)
    params = named_parameters(model)
    assert list(params) == expected_names(spec)
    assert len(params) == 53
    assert all(p.requires_grad for p in params.values())


def test_parameter_inventory_small_spec():
    model = small_model()
    assert list(named_parameters(model)) == expected_names(model.spec)


def test_rate_groups_split_adapters_from_the_rest():
    model = small_model()
    groups = parameter_groups(model)
    assert set(groups) == {FAST_GROUP, SLOW_GROUP}
    slow = set(groups[SLOW_GROUP])
    fast = set(groups[FAST_GROUP])
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


def test_strategy_override_in_forward():
    model = small_model(gate_init=1.0)
    taps = rand_taps(model.spec, seed=3)
    seq = forward(model, taps)  # model default strategy
    none = forward(model, taps, strategy="none")
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
        apply_checkpoint(small_model(prompt_len=4), path)
    with pytest.raises(CompatError, match=r"\bd\b"):
        apply_checkpoint(init_model(small_spec(d=32, heads=4), seed=7), path)
    with pytest.raises(CompatError, match="selected_visual"):
        apply_checkpoint(init_model(small_spec(selected_visual=(1, 3)), seed=7), path)


def test_checkpoint_shape_guard(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    other = small_model(reduction=2)  # same names, different adapter shapes
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
    w = ByteWriter()
    w.raw(CHECKPOINT_MAGIC)
    w.u32(CHECKPOINT_VERSION)
    w.u32(meta["d"])
    w.u32(meta["prompt_len"])
    w.u32(len(meta["selected_visual"]))
    for l in meta["selected_visual"]:
        w.u32(l)
    w.u32(len(meta["selected_text"]))
    for l in meta["selected_text"]:
        w.u32(l)
    w.u32(len(tensors))
    for name, arr in tensors.items():
        w.string(name)
        w.u32(arr.ndim)
        for dim in arr.shape:
            w.u32(dim)
        w.f64_array(arr)
    with open(dst, "wb") as fh:
        fh.write(w.getvalue())


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
    m3 = init_model(small_spec(seed=6), seed=7)
    assert backbone_checksum(m1) != backbone_checksum(m3)


def test_init_model_seed_controls_learnables_only():
    a = init_model(small_spec(), seed=1)
    b = init_model(small_spec(), seed=2)
    assert backbone_checksum(a) == backbone_checksum(b)
    assert state_checksum(a) != state_checksum(b)
    c = init_model(small_spec(), seed=1)
    assert state_checksum(a) == state_checksum(c)
