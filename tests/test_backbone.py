"""Frozen encoders: determinism, tap plumbing, gradient transparency, bundles."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.backbone import (BackboneSpec, FeatureBundle, build_backbone,
                           encode_image, encode_images, encode_prompt,
                           layer_map, load_feature_bundle, save_feature_bundle)
from fsad.errors import ConfigError, FormatError, ShapeError
from fsad.numcore import GradTape, Tensor, backward


def small_spec(**kw):
    base = dict(d=16, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)
    base.update(kw)
    return BackboneSpec(**base)


def rand_image(rng, h=8, w=8):
    return rng.uniform(0, 1, size=(h, w, 3))


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(selected_text=(1,))
    with pytest.raises(ConfigError):
        small_spec(selected_visual=(2, 9))
    with pytest.raises(ConfigError):
        small_spec(heads=3)


def test_default_spec_taps_and_head_width():
    spec = BackboneSpec()
    assert spec.selected_visual == (2, 4, 6, 8)
    assert spec.selected_text == (1, 2, 3, 4)
    assert spec.d // spec.heads == 8
    assert spec.patches == 16


def test_build_deterministic():
    v1, t1 = build_backbone(small_spec())
    v2, t2 = build_backbone(small_spec())
    np.testing.assert_array_equal(v1.blocks[0].wq.data, v2.blocks[0].wq.data)
    np.testing.assert_array_equal(t1.blocks[-1].w2.data, t2.blocks[-1].w2.data)
    v3, _ = build_backbone(small_spec(seed=6))
    assert not np.array_equal(v1.blocks[0].wq.data, v3.blocks[0].wq.data)


def test_encode_image_shapes_and_determinism():
    spec = small_spec()
    vis, _ = build_backbone(spec)
    rng = np.random.default_rng(0)
    img = rand_image(rng)
    taps = encode_image(vis, img)
    assert sorted(taps) == [2, 4]
    for t in taps.values():
        assert t.shape == (4, 16) and not t.requires_grad
    taps2 = encode_image(vis, img)
    for layer in taps:
        np.testing.assert_array_equal(taps[layer].data, taps2[layer].data)


def test_default_patch_count():
    vis, _ = build_backbone(BackboneSpec())
    taps = encode_image(vis, np.zeros((32, 32, 3)))
    assert all(t.shape == (16, 32) for t in taps.values())


def test_encode_batch_matches_single():
    spec = small_spec()
    vis, _ = build_backbone(spec)
    rng = np.random.default_rng(1)
    imgs = [rand_image(rng) for _ in range(3)]
    batched = encode_images(vis, imgs)
    for img, taps in zip(imgs, batched):
        single = encode_image(vis, img)
        for layer in single:
            np.testing.assert_allclose(taps[layer].data, single[layer].data, atol=1e-12)


def test_patch_perturbation_moves_some_tokens():
    spec = small_spec()
    vis, _ = build_backbone(spec)
    rng = np.random.default_rng(2)
    img = rand_image(rng)
    other = img.copy()
    other[0:4, 0:4, :] += 0.25
    a = encode_image(vis, img)
    b = encode_image(vis, other)
    assert any(not np.array_equal(a[l].data, b[l].data) for l in a)


def test_encode_image_rejects_indivisible():
    vis, _ = build_backbone(small_spec())
    with pytest.raises(ShapeError):
        encode_image(vis, np.zeros((9, 8, 3)))


def test_encode_image_not_recorded_on_tape():
    vis, _ = build_backbone(small_spec())
    with GradTape() as tape:
        encode_image(vis, np.zeros((8, 8, 3)))
    assert len(tape) == 0


def test_prompt_gradient_reaches_context_rows():
    spec = small_spec()
    _, txt = build_backbone(spec)
    rng = np.random.default_rng(3)
    prompt = Tensor(rng.normal(size=(5, 16)) * 0.1, requires_grad=True)
    with GradTape() as tape:
        taps, class_vec = encode_prompt(txt, prompt)
        loss = nc.sum_all(class_vec)
    backward(loss, tape)
    assert prompt.grad is not None
    assert np.linalg.norm(prompt.grad[0]) > 0
    assert sorted(taps) == [1, 2]
    assert all(t.shape == (5, 16) for t in taps.values())


def test_prompt_gradient_matches_finite_difference():
    spec = small_spec()
    _, txt = build_backbone(spec)
    rng = np.random.default_rng(4)
    prompt = Tensor(rng.normal(size=(3, 16)) * 0.1, requires_grad=True)
    with GradTape() as tape:
        _, class_vec = encode_prompt(txt, prompt)
        loss = nc.sum_all(class_vec)
    backward(loss, tape)

    def f(p):
        with nc.no_grad():
            _, cv = encode_prompt(txt, p)
            return nc.sum_all(cv).item()
    fd = nc.finite_diff_grad(f, Tensor(prompt.data))
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(prompt.grad - fd) / denom) < 1e-4


def test_class_row_changes_class_vector():
    _, txt = build_backbone(small_spec())
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 16)) * 0.1
    b = a.copy()
    b[-1] += 0.3
    _, va = encode_prompt(txt, Tensor(a))
    _, vb = encode_prompt(txt, Tensor(b))
    assert not np.array_equal(va.data, vb.data)


def test_single_row_prompt_encodes():
    _, txt = build_backbone(small_spec())
    taps, vec = encode_prompt(txt, Tensor(np.zeros((1, 16))))
    assert vec.shape == (16,)
    assert all(t.shape == (1, 16) for t in taps.values())


def test_prompt_shape_errors():
    _, txt = build_backbone(small_spec())
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros((4, 8))))
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros(16)))
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros((2, 1, 0, 16))))


def test_stacked_prompts_encode_like_each_alone():
    _, txt = build_backbone(small_spec())
    rng = np.random.default_rng(6)
    prompts = rng.normal(size=(3, 1, 5, 16)) * 0.1
    taps, vec = encode_prompt(txt, Tensor(prompts))
    assert vec.shape == (3, 1, 16)
    for e in range(3):
        taps_e, vec_e = encode_prompt(txt, Tensor(prompts[e, 0]))
        np.testing.assert_array_equal(vec.data[e, 0], vec_e.data)
        for layer in taps_e:
            np.testing.assert_array_equal(taps[layer].data[e, 0],
                                          taps_e[layer].data)


def test_layer_map_positional():
    assert layer_map(BackboneSpec()) == [(2, 1), (4, 2), (6, 3), (8, 4)]
    single = small_spec(selected_visual=(3,), selected_text=(2,))
    assert layer_map(single) == [(3, 2)]


def _random_bundle(rng, d=16):
    f32 = lambda *s: rng.normal(size=s).astype(np.float32).astype(np.float64)
    return FeatureBundle(d=d, visual={2: f32(4, d), 4: f32(4, d)})


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    bundle = _random_bundle(rng)
    path = tmp_path / "x.haafb"
    save_feature_bundle(bundle, str(path))
    assert load_feature_bundle(str(path)) == bundle


def test_bundle_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(8)
    bundle = _random_bundle(rng)
    p1, p2 = tmp_path / "a.haafb", tmp_path / "b.haafb"
    save_feature_bundle(bundle, str(p1))
    save_feature_bundle(bundle, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_corrupt_magic(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "x.haafb"
    save_feature_bundle(_random_bundle(rng), str(path))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_feature_bundle(str(path))


def test_bundle_version_1_rejected(tmp_path):
    # version 1 bundles carried text sections that cannot feed prompt tuning
    rng = np.random.default_rng(12)
    path = tmp_path / "x.haafb"
    save_feature_bundle(_random_bundle(rng), str(path))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 1"):
        load_feature_bundle(str(path))


def test_bundle_truncation_reports_offset(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "x.haafb"
    save_feature_bundle(_random_bundle(rng), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError) as err:
        load_feature_bundle(str(path))
    assert "offset" in str(err.value)


def test_bundle_width_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(11)
    bundle = _random_bundle(rng)
    bundle.visual[4] = rng.normal(size=(4, 8))
    with pytest.raises(ShapeError):
        save_feature_bundle(bundle, str(tmp_path / "x.haafb"))


def test_backbone_weights_not_learnable():
    vis, txt = build_backbone(small_spec())
    for enc in (vis, txt):
        assert all(not w.requires_grad for w in enc.all_weights())
