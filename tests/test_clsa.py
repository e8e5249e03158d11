"""Cross-modal alignment: gate identities, strategy wiring, attention oracle."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.backbone import Attention
from fsad.clsa import (STRATEGIES, ClsaSpec, ClsaState, clsa_forward,
                       gated_attention, init_clsa)
from fsad.errors import ConfigError, ShapeError
from fsad.numcore import GradTape, Tensor, backward

D, HEADS = 16, 4
PAIRS = [(2, 1), (4, 2)]


def inputs(seed=0, p=5, prompt_rows=4):
    rng = np.random.default_rng(seed)
    visual = {vl: Tensor(rng.normal(size=(p, D))) for vl, _ in PAIRS}
    text = {tl: {cls: Tensor(rng.normal(size=(prompt_rows, D)))
                 for cls in ("normal", "abnormal")} for _, tl in PAIRS}
    return visual, text


def identity_block():
    """A block whose four projections are the identity."""
    block = Attention(D, HEADS, np.random.default_rng(0), learnable=True)
    for w in block.weights().values():
        w.data = np.eye(D)
    return block


def test_single_key_attention_returns_value_row():
    # With identity projections and one key row there is nothing to weigh:
    # every query must come back as exactly that value row.
    block = identity_block()
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(6, D)))
    kv = Tensor(rng.normal(size=(1, D)))
    out = block(q, kv)
    np.testing.assert_allclose(out.data, np.broadcast_to(kv.data, (6, D)),
                               rtol=0, atol=1e-12)


def test_mhca_width_guard_and_head_divisibility():
    block = identity_block()
    with pytest.raises(ShapeError):
        block(Tensor(np.zeros((2, 8))), Tensor(np.zeros((3, D))))
    with pytest.raises(ShapeError):
        Attention(15, 4, np.random.default_rng(0), learnable=True)


def test_closed_gates_are_bit_exact_identity_for_every_strategy():
    state = init_clsa(PAIRS, D, 3, ClsaSpec(heads=HEADS))  # gates default to 0
    visual, text = inputs()
    for strategy in STRATEGIES:
        out = clsa_forward(PAIRS, visual, text, state, strategy)
        for vl, _ in PAIRS:
            np.testing.assert_array_equal(out.visual[vl].data, visual[vl].data)
        for _, tl in PAIRS:
            for cls, t in text[tl].items():
                np.testing.assert_array_equal(out.text_refined[tl][cls].data, t.data)


def test_none_equals_seq_with_zero_gates_bit_exact():
    state = init_clsa(PAIRS, D, 4, ClsaSpec(heads=HEADS, gate_init=0.7))
    zero = ClsaState(v2t_blocks=state.v2t_blocks, t2v_blocks=state.t2v_blocks,
                     beta_t=Tensor(np.zeros(()), requires_grad=True),
                     beta_v=Tensor(np.zeros(()), requires_grad=True))
    visual, text = inputs(seed=2)
    a = clsa_forward(PAIRS, visual, text, zero, "seq")
    b = clsa_forward(PAIRS, visual, text, state, "none")
    for vl, _ in PAIRS:
        np.testing.assert_array_equal(a.visual[vl].data, b.visual[vl].data)
    for cls in ("normal", "abnormal"):
        np.testing.assert_array_equal(a.class_vectors[cls].data,
                                      b.class_vectors[cls].data)


def test_open_gates_change_both_streams():
    state = init_clsa(PAIRS, D, 5, ClsaSpec(heads=HEADS, gate_init=1.0))
    visual, text = inputs(seed=3)
    out = clsa_forward(PAIRS, visual, text, state, "seq")
    for vl, _ in PAIRS:
        assert not np.array_equal(out.visual[vl].data, visual[vl].data)
    for _, tl in PAIRS:
        assert not np.array_equal(out.text_refined[tl]["normal"].data,
                                  text[tl]["normal"].data)


def test_strategy_stage_selection():
    state = init_clsa(PAIRS, D, 6, ClsaSpec(heads=HEADS, gate_init=1.0))
    visual, text = inputs(seed=4)
    v2t = clsa_forward(PAIRS, visual, text, state, "v2t")
    t2v = clsa_forward(PAIRS, visual, text, state, "t2v")
    vl, tl = PAIRS[0]
    # v2t refines text but passes visual through untouched
    assert not np.array_equal(v2t.text_refined[tl]["normal"].data,
                              text[tl]["normal"].data)
    np.testing.assert_array_equal(v2t.visual[vl].data, visual[vl].data)
    assert v2t.guidance_keys[vl] is None
    # t2v is the reverse
    np.testing.assert_array_equal(t2v.text_refined[tl]["normal"].data,
                                  text[tl]["normal"].data)
    assert not np.array_equal(t2v.visual[vl].data, visual[vl].data)
    assert t2v.guidance_keys[vl] is not None


def test_sequential_guidance_keys_track_refined_text():
    # The probe behind the ordering claim: in seq mode the second stage keys
    # are the refined text, so perturbing the visual input moves them; in
    # t2v mode the keys are raw text and stay fixed.
    state = init_clsa(PAIRS, D, 7, ClsaSpec(heads=HEADS, gate_init=0.5))
    visual, text = inputs(seed=5)
    bumped = {vl: Tensor(v.data + 0.25) for vl, v in visual.items()}
    vl = PAIRS[0][0]
    for strategy, moves in (("seq", True), ("t2v", False)):
        k1 = clsa_forward(PAIRS, visual, text, state, strategy).guidance_keys[vl]
        k2 = clsa_forward(PAIRS, bumped, text, state, strategy).guidance_keys[vl]
        assert np.array_equal(k1.data, k2.data) != moves


def test_guidance_keys_stack_both_classes_in_canonical_order():
    state = init_clsa(PAIRS, D, 8, ClsaSpec(heads=HEADS, gate_init=1.0))
    visual, text = inputs(seed=6, prompt_rows=4)
    out = clsa_forward(PAIRS, visual, text, state, "t2v")
    vl, tl = PAIRS[0]
    keys = out.guidance_keys[vl]
    assert keys.shape == (8, D)
    np.testing.assert_array_equal(keys.data[:4], text[tl]["normal"].data)
    np.testing.assert_array_equal(keys.data[4:], text[tl]["abnormal"].data)


def test_class_vectors_come_from_last_pair_last_row():
    state = init_clsa(PAIRS, D, 9, ClsaSpec(heads=HEADS))
    visual, text = inputs(seed=7)
    out = clsa_forward(PAIRS, visual, text, state, "none")
    tl = PAIRS[-1][1]
    for cls in ("normal", "abnormal"):
        np.testing.assert_array_equal(out.class_vectors[cls].data,
                                      text[tl][cls].data[-1])
        assert out.class_vectors[cls].shape == (D,)


def test_bad_strategy_and_missing_layers_rejected():
    state = init_clsa(PAIRS, D, 10, ClsaSpec(heads=HEADS))
    visual, text = inputs()
    with pytest.raises(ConfigError):
        clsa_forward(PAIRS, visual, text, state, "both")
    with pytest.raises(ConfigError):
        clsa_forward(PAIRS, {2: visual[2]}, text, state, "none")
    with pytest.raises(ConfigError):
        clsa_forward(PAIRS, visual, {1: text[1]}, state, "none")


def test_blocks_are_unshared_across_layers_and_directions():
    state = init_clsa(PAIRS, D, 11, ClsaSpec(heads=HEADS))
    assert sorted(state.v2t_blocks) == [2, 4] and sorted(state.t2v_blocks) == [2, 4]
    assert not np.array_equal(state.v2t_blocks[2].wq.data, state.v2t_blocks[4].wq.data)
    assert not np.array_equal(state.v2t_blocks[2].wq.data, state.t2v_blocks[2].wq.data)
    again = init_clsa(PAIRS, D, 11, ClsaSpec(heads=HEADS))
    np.testing.assert_array_equal(state.v2t_blocks[2].wq.data,
                                  again.v2t_blocks[2].wq.data)


def test_gradients_reach_weights_and_closed_gates():
    # Even at beta = 0 the attention term sits on the tape, so the gates get
    # a gradient; the projection weights do too once the gates are open.
    state = init_clsa(PAIRS, D, 12, ClsaSpec(heads=HEADS, gate_init=0.0))
    visual, text = inputs(seed=8)
    with GradTape() as tape:
        out = clsa_forward(PAIRS, visual, text, state, "seq")
        loss = nc.sum_all(out.visual[2])
        for _, tl in PAIRS:
            loss = nc.add(loss, nc.sum_all(out.text_refined[tl]["abnormal"]))
    backward(loss, tape)
    assert state.beta_t.grad is not None and float(state.beta_t.grad) != 0
    assert state.beta_v.grad is not None and float(state.beta_v.grad) != 0

    open_state = init_clsa(PAIRS, D, 12, ClsaSpec(heads=HEADS, gate_init=0.5))
    with GradTape() as tape:
        out = clsa_forward(PAIRS, visual, text, open_state, "seq")
        loss = nc.sum_all(out.visual[2])
    backward(loss, tape)
    for w in open_state.t2v_blocks[2].weights().values():
        assert w.grad is not None and np.any(w.grad != 0)
    for w in open_state.v2t_blocks[2].weights().values():
        assert w.grad is not None and np.any(w.grad != 0)


def test_residual_form_matches_manual_composition():
    block = Attention(D, HEADS, np.random.default_rng(13), learnable=True)
    beta = Tensor(np.asarray(0.6))
    rng = np.random.default_rng(14)
    t = Tensor(rng.normal(size=(3, D)))
    v = Tensor(rng.normal(size=(5, D)))
    got = gated_attention(t, v, block, beta)
    want = t.data + 0.6 * block(t, v).data
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    got_v = gated_attention(v, t, block, beta)
    want_v = v.data + 0.6 * block(v, t).data
    np.testing.assert_allclose(got_v.data, want_v, rtol=0, atol=1e-12)
