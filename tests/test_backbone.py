"""Frozen encoders: determinism, tap plumbing, gradient transparency, bundles."""

import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.backbone import (BUNDLE_MAGIC, BUNDLE_VERSION, BackboneSpec,
                           FeatureBundle, ToyEncoder, _Block, encode_images,
                           encode_prompt, load_feature_bundle,
                           save_feature_bundle)
from fsad.binio import ByteWriter
from fsad.errors import ConfigError, FormatError, NumericError, ShapeError
from fsad.numcore import GradTape, Tensor, backward
from small_spec import small_spec


def rand_image(rng, h=8, w=8):
    return rng.uniform(0, 1, size=(h, w, 3))


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(selected_text=(1,))
    with pytest.raises(ConfigError):
        small_spec(selected_visual=(2, 9))
    with pytest.raises(ConfigError):
        small_spec(heads=3)


def test_spec_rejects_a_repeated_visual_tap():
    # adapters and alignment blocks are keyed by visual tap: the second pair
    # would overwrite the first
    with pytest.raises(ConfigError, match="visual tap 2 appears twice"):
        small_spec(selected_visual=(2, 2), selected_text=(1, 2))


@pytest.mark.parametrize("grid", [(), (4,), (4, 4, 4), (0, 4), (4, -1)])
def test_spec_patch_grid_needs_two_positive_entries(grid):
    with pytest.raises(ConfigError, match="patch grid"):
        BackboneSpec(patch_grid=grid)


def test_spec_width_needs_both_class_halves():
    # the two class embeddings take disjoint halves of the width
    with pytest.raises(ConfigError):
        BackboneSpec(d=1, heads=1)


def test_default_spec_taps_and_head_width():
    spec = BackboneSpec()
    assert spec.selected_visual == (2, 4, 6, 8)
    assert spec.selected_text == (1, 2, 3, 4)
    assert spec.d // spec.heads == 8
    assert spec.patches == 16


def test_build_deterministic():
    v1, t1 = ToyEncoder(small_spec(), "visual"), ToyEncoder(small_spec(), "text")
    v2, t2 = ToyEncoder(small_spec(), "visual"), ToyEncoder(small_spec(), "text")
    np.testing.assert_array_equal(v1.blocks[0].att.wq.data, v2.blocks[0].att.wq.data)
    np.testing.assert_array_equal(t1.blocks[-1].w2.data, t2.blocks[-1].w2.data)
    v3 = ToyEncoder(small_spec(seed=6), "visual")
    assert not np.array_equal(v1.blocks[0].att.wq.data, v3.blocks[0].att.wq.data)


def test_encode_image_shapes_and_determinism():
    spec = small_spec()
    vis = ToyEncoder(spec, "visual")
    rng = np.random.default_rng(0)
    img = rand_image(rng)
    taps = encode_images(vis, [img])
    assert sorted(taps) == [2, 4]
    for t in taps.values():
        assert t.shape == (1, 4, 16) and isinstance(t, np.ndarray)
    taps2 = encode_images(vis, [img])
    for layer in taps:
        np.testing.assert_array_equal(taps[layer][0], taps2[layer][0])


def test_default_patch_count():
    vis = ToyEncoder(BackboneSpec(), "visual")
    taps = encode_images(vis, [np.zeros((32, 32, 3))])
    assert all(t[0].shape == (16, 32) for t in taps.values())


def test_encode_batch_matches_single():
    spec = small_spec()
    vis = ToyEncoder(spec, "visual")
    rng = np.random.default_rng(1)
    imgs = [rand_image(rng) for _ in range(3)]
    batched = encode_images(vis, imgs)
    for b, img in enumerate(imgs):
        single = encode_images(vis, [img])
        for layer in single:
            assert np.array_equal(batched[layer][b], single[layer][0])


def test_encode_no_images_gives_empty_taps():
    taps = encode_images(ToyEncoder(small_spec(), "visual"), [])
    assert list(taps) == [2, 4]
    assert all(t.shape == (0, 4, 16) and t.dtype == np.float64 for t in taps.values())


def test_encode_mixed_sizes_refused_before_any_block(monkeypatch):
    # image 3 follows three good images, so only the up-front check can keep
    # the tower from running on them
    runs = []
    original = _Block.forward
    monkeypatch.setattr(_Block, "forward",
                        lambda self, x: runs.append(1) or original(self, x))
    rng = np.random.default_rng(14)
    imgs = [rand_image(rng) for _ in range(3)] + [rand_image(rng, 12, 12), rand_image(rng)]
    with pytest.raises(ShapeError, match=r"image 3 is \(12, 12, 3\) but image 0 is \(8, 8, 3\)"):
        encode_images(ToyEncoder(small_spec(), "visual"), imgs)
    assert runs == []


@pytest.fixture
def block_runs(monkeypatch):
    """Records every tower block that runs."""
    runs = []
    original = _Block.forward
    monkeypatch.setattr(_Block, "forward",
                        lambda self, x: runs.append(1) or original(self, x))
    return runs


def encode_with_image_3(bad):
    # image 3 follows three good images, so only the up-front check can keep
    # the tower from running on them
    rng = np.random.default_rng(15)
    imgs = [rand_image(rng) for _ in range(3)] + [bad, rand_image(rng)]
    return encode_images(ToyEncoder(small_spec(), "visual"), imgs)


def test_encode_ragged_image_is_a_shape_error(block_runs):
    ragged = rand_image(np.random.default_rng(16)).tolist()
    ragged[0] = ragged[0][:-1]  # one row a pixel short
    with pytest.raises(ShapeError, match="image 3 is not a rectangular array"):
        encode_with_image_3(ragged)
    assert block_runs == []


def test_encode_string_image_is_a_numeric_error(block_runs):
    with pytest.raises(NumericError, match="image 3 must be real numbers, got dtype <U1"):
        encode_with_image_3(np.full((8, 8, 3), "a"))
    assert block_runs == []


def test_encode_complex_image_is_a_numeric_error(block_runs):
    image = rand_image(np.random.default_rng(17)) + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing casts it and drops the imaginary parts
        with pytest.raises(NumericError, match="image 3 must be real numbers, got dtype complex128"):
            encode_with_image_3(image)
    assert block_runs == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_non_finite_image_is_a_numeric_error(block_runs, bad):
    # one NaN pixel put 32 NaN values into the store, and the fault showed
    # only later, in alignment, as "alignment diverged"
    image = rand_image(np.random.default_rng(18))
    image[5, 2, 1] = bad
    with pytest.raises(NumericError, match="image 3 must be finite, got 1 non-finite"):
        encode_with_image_3(image)
    assert block_runs == []


def test_patch_perturbation_moves_some_tokens():
    spec = small_spec()
    vis = ToyEncoder(spec, "visual")
    rng = np.random.default_rng(2)
    img = rand_image(rng)
    other = img.copy()
    other[0:4, 0:4, :] += 0.25
    a = encode_images(vis, [img])
    b = encode_images(vis, [other])
    assert any(not np.array_equal(a[l][0], b[l][0]) for l in a)


def test_encode_image_rejects_indivisible():
    vis = ToyEncoder(small_spec(), "visual")
    with pytest.raises(ShapeError):
        encode_images(vis, [np.zeros((9, 8, 3))])


def test_encode_image_not_recorded_on_tape():
    vis = ToyEncoder(small_spec(), "visual")
    with GradTape() as tape:
        encode_images(vis, [np.zeros((8, 8, 3))])
    assert len(tape) == 0


def test_prompt_gradient_reaches_context_rows():
    spec = small_spec()
    txt = ToyEncoder(spec, "text")
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
    txt = ToyEncoder(spec, "text")
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
    txt = ToyEncoder(small_spec(), "text")
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 16)) * 0.1
    b = a.copy()
    b[-1] += 0.3
    _, va = encode_prompt(txt, Tensor(a))
    _, vb = encode_prompt(txt, Tensor(b))
    assert not np.array_equal(va.data, vb.data)


def test_single_row_prompt_encodes():
    txt = ToyEncoder(small_spec(), "text")
    taps, vec = encode_prompt(txt, Tensor(np.zeros((1, 16))))
    assert vec.shape == (16,)
    assert all(t.shape == (1, 16) for t in taps.values())


def test_prompt_shape_errors():
    txt = ToyEncoder(small_spec(), "text")
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros((4, 8))))
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros(16)))
    with pytest.raises(ShapeError):
        encode_prompt(txt, Tensor(np.zeros((2, 1, 0, 16))))


def test_stacked_prompts_encode_like_each_alone():
    txt = ToyEncoder(small_spec(), "text")
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
    assert BackboneSpec().pairs == [(2, 1), (4, 2), (6, 3), (8, 4)]
    single = small_spec(selected_visual=(3,), selected_text=(2,))
    assert single.pairs == [(3, 2)]


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


def test_bundle_overflowing_shape_is_format_error(tmp_path):
    # width and patch count of 0xFFFFFFFF wrap a 64-bit element count; the
    # file must still read as truncated, not fail inside numpy
    w = ByteWriter(BUNDLE_MAGIC, BUNDLE_VERSION)
    for field in (0xFFFFFFFF, 1, 2, 0xFFFFFFFF):
        w.u32(field)  # width, layer count, layer id, patch count
    path = tmp_path / "huge.haafb"
    w.save(str(path))
    with pytest.raises(FormatError, match="truncated"):
        load_feature_bundle(str(path))


@pytest.mark.parametrize("bits", [0x7F800000, 0x7F800001])  # inf, signalling NaN
def test_bundle_non_finite_payload_rejected_quietly(tmp_path, bits):
    path = tmp_path / "x.haafb"
    save_feature_bundle(_random_bundle(np.random.default_rng(12)), str(path))
    raw = bytearray(path.read_bytes())
    # header: magic, version, width, layer count, layer id, patch count
    raw[24:28] = struct.pack("<I", bits)
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="visual layer 2 has 1 non-finite"):
            load_feature_bundle(str(path))


def test_bundle_width_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(11)
    bundle = _random_bundle(rng)
    bundle.visual[4] = rng.normal(size=(4, 8))
    with pytest.raises(ShapeError):
        save_feature_bundle(bundle, str(tmp_path / "x.haafb"))


def test_towers_stop_at_their_deepest_tap(monkeypatch):
    # taps (2,)/(1,) on 4-layer towers: the visual tower runs 2 blocks and
    # the text tower 1, with the weights and tap features of the full towers
    shallow = small_spec(vision_layers=4, text_layers=4, selected_visual=(2,),
                         selected_text=(1,))
    full = replace(shallow, selected_visual=(2, 4), selected_text=(1, 4))
    runs = []
    original = _Block.forward
    monkeypatch.setattr(_Block, "forward",
                        lambda self, x: runs.append(1) or original(self, x))
    rng = np.random.default_rng(12)
    images = [rand_image(rng) for _ in range(3)]
    got = encode_images(ToyEncoder(shallow, "visual"), images)
    assert len(runs) == 2
    want = encode_images(ToyEncoder(full, "visual"), images)
    assert len(runs) == 2 + 4
    assert got[2].tobytes() == want[2].tobytes()

    prompt = Tensor(rng.normal(size=(5, 16)) * 0.1)
    taps, vec = encode_prompt(ToyEncoder(shallow, "text"), prompt)
    assert len(runs) == 6 + 1
    full_taps, _ = encode_prompt(ToyEncoder(full, "text"), prompt)
    assert taps[1].data.tobytes() == full_taps[1].data.tobytes()
    assert vec.data.tobytes() == taps[1].data[-1].tobytes()  # the tap's class row
    for kind in ("visual", "text"):
        for a, b in zip(ToyEncoder(shallow, kind).all_weights(),
                        ToyEncoder(full, kind).all_weights(), strict=True):
            assert a.data.tobytes() == b.data.tobytes()


def test_frozen_tower_weights_do_not_depend_on_what_it_encoded():
    # the patch projection is drawn per image size, so the tower keeps none
    enc = ToyEncoder(BackboneSpec(), "visual")
    before = [w.data.tobytes() for w in enc.all_weights()]
    encode_images(enc, [rand_image(np.random.default_rng(0), 32, 32)])
    assert [w.data.tobytes() for w in enc.all_weights()] == before


def test_backbone_weights_not_learnable():
    vis, txt = ToyEncoder(small_spec(), "visual"), ToyEncoder(small_spec(), "text")
    for enc in (vis, txt):
        assert all(not w.requires_grad for w in enc.all_weights())
