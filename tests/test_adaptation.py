"""Adapters and prompts: zero-init identity, alpha gating, prompt assembly."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.adaptation import (AdaptSpec, PromptBank, ResidualAdapter,
                             apply_text_adapter, apply_visual_adapter,
                             init_adaptation)
from fsad.backbone import CLASSES, BackboneSpec
from fsad.errors import DomainError, ShapeError
from fsad.numcore import GradTape, Tensor, backward


def small_spec():
    return BackboneSpec(d=16, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                        selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)


def fresh_adapter(d=16, reduction=4, seed=0):
    return ResidualAdapter(d, reduction, np.random.default_rng(seed))


def test_fresh_adapter_contributes_exactly_zero():
    ad = fresh_adapter()
    x = Tensor(np.random.default_rng(1).normal(size=(6, 16)))
    out = ad.contribution(x)
    assert np.all(out.data == 0.0)


def test_visual_adapter_identity_at_init_bit_exact():
    ad = fresh_adapter()
    x = Tensor(np.random.default_rng(2).normal(size=(3, 5, 16)))
    out = apply_visual_adapter(x, ad)
    np.testing.assert_array_equal(out.data, x.data)


def test_text_adapter_identity_at_init_bit_exact():
    # up starts at zero, so even a nonzero alpha adds exactly nothing.
    ad = fresh_adapter()
    t = Tensor(np.random.default_rng(3).normal(size=(9, 16)))
    out = apply_text_adapter(t, ad, Tensor(np.asarray(0.7)))
    np.testing.assert_array_equal(out.data, t.data)


def test_zero_alpha_is_identity_even_with_loaded_up():
    ad = fresh_adapter()
    ad.up.data = np.random.default_rng(4).normal(size=ad.up.shape)
    t = Tensor(np.random.default_rng(5).normal(size=(4, 16)))
    out = apply_text_adapter(t, ad, Tensor(np.asarray(0.0)))
    np.testing.assert_array_equal(out.data, t.data)


def test_contribution_matches_numpy_reference():
    ad = fresh_adapter()
    rng = np.random.default_rng(6)
    ad.up.data = rng.normal(size=ad.up.shape)
    x = rng.normal(size=(7, 16))
    got = ad.contribution(Tensor(x)).data
    pre = x @ ad.down.data
    want = (pre / (1.0 + np.exp(-pre))) @ ad.up.data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_adapter_shape_guards():
    with pytest.raises(ShapeError):
        ResidualAdapter(10, 4, np.random.default_rng(0))
    ad = fresh_adapter()
    with pytest.raises(ShapeError):
        ad.contribution(Tensor(np.zeros((3, 8))))


def test_adapter_bottleneck_shapes():
    ad = fresh_adapter(d=16, reduction=4)
    assert ad.down.shape == (16, 4) and ad.up.shape == (4, 16)
    assert ad.down.requires_grad and ad.up.requires_grad


def test_prompt_assembly_order_and_shape():
    bank = PromptBank(16, 3, np.random.default_rng(7))
    for cls in CLASSES:
        p = bank.assemble(cls)
        assert p.shape == (4, 16)
        np.testing.assert_array_equal(p.data[:3], bank.context.data)
        np.testing.assert_array_equal(p.data[3], bank.class_embeddings[cls].data)


def test_class_embeddings_orthonormal_and_fixed():
    bank = PromptBank(16, 3, np.random.default_rng(8))
    e_n = bank.class_embeddings["normal"]
    e_a = bank.class_embeddings["abnormal"]
    assert float(e_n.data @ e_a.data) == 0.0
    assert np.isclose(np.linalg.norm(e_n.data), 1.0)
    assert np.isclose(np.linalg.norm(e_a.data), 1.0)
    assert not e_n.requires_grad and not e_a.requires_grad


def test_unknown_class_rejected():
    bank = PromptBank(16, 3, np.random.default_rng(9))
    with pytest.raises(DomainError):
        bank.assemble("defective")


def test_zero_context_rows_leaves_single_class_row():
    bank = PromptBank(16, 0, np.random.default_rng(10))
    p = bank.assemble("abnormal")
    assert p.shape == (1, 16)
    np.testing.assert_array_equal(p.data[0], bank.class_embeddings["abnormal"].data)


def test_init_adaptation_layout_and_determinism():
    spec = small_spec()
    st1 = init_adaptation(spec, 3, AdaptSpec())
    st2 = init_adaptation(spec, 3, AdaptSpec())
    assert sorted(st1.visual_adapters) == [2, 4]
    assert sorted(st1.text_adapters) == [1, 2]
    np.testing.assert_array_equal(st1.visual_adapters[2].down.data,
                                  st2.visual_adapters[2].down.data)
    np.testing.assert_array_equal(st1.prompts.context.data, st2.prompts.context.data)
    st3 = init_adaptation(spec, 4, AdaptSpec())
    assert not np.array_equal(st1.visual_adapters[2].down.data,
                              st3.visual_adapters[2].down.data)
    # per-layer adapters are independent draws
    assert not np.array_equal(st1.visual_adapters[2].down.data,
                              st1.visual_adapters[4].down.data)


def test_alpha_starts_small_nonzero_and_learnable():
    st = init_adaptation(small_spec(), 0, AdaptSpec())
    assert float(st.alpha_t.data) == AdaptSpec().alpha_init
    assert 0.0 < AdaptSpec().alpha_init < 1.0
    assert st.alpha_t.requires_grad


def test_gradients_reach_adapter_and_alpha():
    ad = fresh_adapter()
    ad.up.data = np.random.default_rng(11).normal(size=ad.up.shape) * 0.1
    alpha = Tensor(np.asarray(0.3), requires_grad=True)
    t = Tensor(np.random.default_rng(12).normal(size=(5, 16)))
    with GradTape() as tape:
        loss = nc.sum_all(apply_text_adapter(t, ad, alpha))
    backward(loss, tape)
    assert ad.down.grad is not None and np.any(ad.down.grad != 0)
    assert ad.up.grad is not None and np.any(ad.up.grad != 0)
    assert alpha.grad is not None and float(alpha.grad) != 0.0


def test_adapter_gradient_matches_finite_differences():
    ad = fresh_adapter(d=8, reduction=4, seed=13)
    rng = np.random.default_rng(14)
    ad.up.data = rng.normal(size=ad.up.shape) * 0.2
    x = Tensor(rng.normal(size=(3, 8)))

    def ref(down: np.ndarray, up: np.ndarray) -> float:
        pre = x.data @ down
        return float(((pre / (1.0 + np.exp(-pre))) @ up).sum())

    with GradTape() as tape:
        loss = nc.sum_all(ad.contribution(x))
    backward(loss, tape)
    fd_down = nc.finite_diff_grad(lambda t: ref(t.data, ad.up.data), ad.down)
    fd_up = nc.finite_diff_grad(lambda t: ref(ad.down.data, t.data), ad.up)
    np.testing.assert_allclose(ad.down.grad, fd_down, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(ad.up.grad, fd_up, rtol=1e-6, atol=1e-8)
