"""Episode optimization: loss oracles, schedule, AdamW algebra, determinism."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad import training
from fsad.backbone import BackboneSpec
from fsad.errors import ConfigError, ContractError, DomainError, NumericError
from fsad.model import (Recipe, backbone_checksum, forward, init_model,
                        named_parameters, stack_models, state_checksum)
from fsad.inference import semantic_scores
from fsad.runner import stage_specs
from fsad.numcore import GradTape, Tensor, backward
from fsad.training import (AdamW, TrainConfig, bce_loss, cosine_lr,
                           train_episode, training_scores)
from small_spec import small_spec


def small_model(seed=7):
    return init_model(Recipe(small_spec(), seed=seed))


def support(seed=0, n=8, p=4):
    rng = np.random.default_rng(seed)
    feats = {l: rng.normal(size=(n, p, 16)) for l in (2, 4)}
    labels = np.arange(n) % 2
    return feats, labels


# --- loss -----------------------------------------------------------------

def test_bce_at_half_is_ln_two():
    s = Tensor(np.full(4, 0.5))
    assert np.isclose(bce_loss(s, [1, 0, 1, 0]).item(), np.log(2.0), atol=1e-12)
    assert np.isclose(bce_loss(s, [1, 0, 1, 0]).item(), 0.693147, atol=1e-6)


def test_bce_known_value():
    loss = bce_loss(Tensor(np.array([0.9, 0.2])), [1, 0])
    want = -0.5 * (np.log(0.9) + np.log(0.8))
    assert np.isclose(loss.item(), want, atol=1e-12)
    assert np.isclose(loss.item(), 0.164252, atol=1e-6)


def test_bce_perfect_scores_vanish_and_saturated_stay_finite():
    near = bce_loss(Tensor(np.array([1.0 - 1e-9, 1e-9])), [1, 0]).item()
    assert 0 < near < 1e-8
    hard = bce_loss(Tensor(np.array([1.0, 0.0])), [1, 0]).item()
    assert np.isfinite(hard)
    flipped = bce_loss(Tensor(np.array([0.0, 1.0])), [1, 0]).item()
    assert flipped > 20  # confidently wrong is heavily punished but finite


def test_bce_contract_guards():
    with pytest.raises(ContractError):
        bce_loss(Tensor(np.zeros(0)), [])
    with pytest.raises(ContractError):
        bce_loss(Tensor(np.full(3, 0.5)), [1, 0])


@pytest.mark.parametrize("labels, match", [
    ([2, 0], "labels must be 0 or 1, got 2"),
    ([np.nan, 1], "labels must be 0 or 1, got nan"),
    (["a", "b"], "labels must be 0 or 1, got dtype <U1"),
], ids=["outside", "nan", "str"])
def test_bce_takes_labels_of_0_or_1(labels, match):
    # [2, 0] returned a loss of 0.308, [nan, 1] a NaN loss, and ["a", "b"]
    # raised a bare ValueError from the float cast
    with pytest.raises(ContractError, match=match):
        bce_loss(Tensor(np.array([0.3, 0.6])), labels)


def test_bce_keeps_one_loss_per_episode():
    scores = np.array([[0.3, 0.8, 0.6], [0.9, 0.1, 0.5]])
    labels = np.array([[1, 0, 1], [0, 0, 1]])
    per_episode = bce_loss(Tensor(scores), labels)
    assert per_episode.shape == (2,)
    for e in range(2):
        alone = bce_loss(Tensor(scores[e]), labels[e])
        assert alone.shape == ()
        assert per_episode.data[e] == alone.item()


def test_bce_gradient_matches_closed_form():
    s = Tensor(np.array([0.3, 0.8]), requires_grad=True)
    y = np.array([1.0, 0.0])
    with GradTape() as tape:
        loss = bce_loss(s, y)
    backward(loss, tape)
    want = (-(y / s.data) + (1 - y) / (1 - s.data)) / 2
    np.testing.assert_allclose(s.grad, want, rtol=1e-12)


# --- schedule ---------------------------------------------------------------

def test_cosine_schedule_endpoints():
    assert cosine_lr(2.0, 0, 50) == 2.0
    assert np.isclose(cosine_lr(2.0, 25, 50), 1.0, atol=1e-12)
    assert np.isclose(cosine_lr(1.0, 49, 50), 0.000986636, atol=1e-9)
    with pytest.raises(DomainError):
        cosine_lr(1.0, 50, 50)
    with pytest.raises(DomainError):
        cosine_lr(1.0, -1, 50)


def test_cosine_schedule_is_monotone_decreasing():
    vals = [cosine_lr(1.0, t, 20) for t in range(20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- optimizer ----------------------------------------------------------------

def test_adamw_first_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0))
    opt.step({"p": 0.1})
    assert np.isclose(p.data[0], 0.9, atol=1e-8)


def test_adamw_decoupled_weight_decay():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamW({"p": p}, TrainConfig(weight_decay=0.01))
    opt.step({"p": 0.1})
    assert np.isclose(p.data[0], 1.0 - 0.1 * 0.01 - 0.1, atol=1e-8)

    q = Tensor(np.array([2.0]), requires_grad=True)
    q.grad = np.zeros(1)
    opt2 = AdamW({"q": q}, TrainConfig(weight_decay=0.5))
    opt2.step({"q": 0.1})
    assert np.isclose(q.data[0], 2.0 * (1.0 - 0.1 * 0.5), atol=1e-12)


@pytest.mark.parametrize("setting", [{"beta1": 1.0}, {"eps": 0.0}])
def test_adamw_settings_come_from_a_checked_train_config(setting):
    # beta1=1 or eps=0 used to leave NaN parameters after a step
    p = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ConfigError):
        AdamW({"p": p}, TrainConfig(**setting))
    with pytest.raises(TypeError):
        AdamW({"p": p}, **setting)


def test_adamw_skips_missing_grads_and_frozen_params():
    frozen = Tensor(np.ones(2))
    live = Tensor(np.ones(2), requires_grad=True)
    opt = AdamW({"frozen": frozen, "live": live})
    assert list(opt.params) == ["live"]
    opt.step({"live": 0.1, "frozen": 0.1})  # grad is None: no movement
    np.testing.assert_array_equal(live.data, np.ones(2))


def test_adamw_grad_shape_guard():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.ones(2)
    opt = AdamW({"p": p})
    with pytest.raises(ContractError):
        opt.step({"p": 0.1})


def test_adamw_zero_grad_clears():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    opt = AdamW({"p": p})
    opt.zero_grad()
    assert p.grad is None


# --- config ----------------------------------------------------------------

def test_config_defaults_and_guards():
    cfg = TrainConfig()
    assert cfg.epochs == 50 and cfg.batch_size == 16
    assert cfg.lr_fast == 1e-4 and cfg.lr_slow == 1e-5
    assert np.isclose(cfg.lr_fast / cfg.lr_slow, 10.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(lr_fast=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("setting", [
    {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.5}, {"eps": 0.0},
    {"eps": -1.0}, {"weight_decay": -0.5}])
def test_config_rejects_out_of_range_optimizer_settings(setting):
    with pytest.raises(ConfigError):
        TrainConfig(**setting)


# --- episodes ----------------------------------------------------------------

def test_zero_epochs_leaves_model_bit_identical():
    model = small_model()
    before = state_checksum(model)
    feats, labels = support()
    trace = train_episode(model, feats, labels, TrainConfig(epochs=0))
    assert trace == []
    assert state_checksum(model) == before


def test_training_scores_agree_with_inference_path():
    model = small_model()
    feats, _ = support(seed=1)
    batch = {l: Tensor(f) for l, f in feats.items()}
    got = training_scores(model, batch)
    with nc.no_grad():
        out = forward(model, batch)
        want = semantic_scores(out.visual, out.class_vectors["abnormal"], model.tau())
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


def test_trace_rows_follow_schedule():
    model = small_model()
    feats, labels = support()
    cfg = TrainConfig(epochs=4, lr_fast=1e-3, lr_slow=1e-4)
    trace = train_episode(model, feats, labels, cfg)
    assert [r.epoch for r in trace] == [0, 1, 2, 3]
    assert trace[0].lr_fast == cfg.lr_fast
    for row in trace:
        decay = cosine_lr(1.0, row.epoch, 4)
        assert np.isclose(row.lr_fast, cfg.lr_fast * decay, atol=1e-15)
        assert np.isclose(row.lr_slow, cfg.lr_slow * decay, atol=1e-15)
        assert np.isclose(row.lr_fast / row.lr_slow, 10.0)
        assert np.isfinite(row.loss)


def test_training_is_deterministic():
    feats, labels = support(seed=2)
    cfg = TrainConfig(epochs=3, lr_fast=1e-2, lr_slow=1e-3)
    m1, m2 = small_model(), small_model()
    t1 = train_episode(m1, feats, labels, cfg)
    t2 = train_episode(m2, feats, labels, cfg)
    assert [r.loss for r in t1] == [r.loss for r in t2]
    assert state_checksum(m1) == state_checksum(m2)


def test_training_moves_fast_and_slow_groups():
    model = small_model()
    before = {n: p.data.copy() for n, p in named_parameters(model).items()}
    feats, labels = support(seed=3)
    train_episode(model, feats, labels, TrainConfig(epochs=2, lr_fast=1e-2,
                                                    lr_slow=1e-3))
    after = named_parameters(model)
    for name in ("prompt.context", "logit.rho", "clsa.beta_t", "clsa.beta_v",
                 "rat.alpha", "rav.2.up", "rat.1.up"):
        assert not np.array_equal(before[name], after[name].data), name


def test_training_leaves_backbone_and_class_embeddings_frozen():
    model = small_model()
    bb = backbone_checksum(model)
    embs = {cls: e.data.copy()
            for cls, e in model.adapt.prompts.class_embeddings.items()}
    feats, labels = support(seed=4)
    train_episode(model, feats, labels, TrainConfig(epochs=2, lr_fast=1e-2,
                                                    lr_slow=1e-3))
    assert backbone_checksum(model) == bb
    for cls, want in embs.items():
        np.testing.assert_array_equal(
            model.adapt.prompts.class_embeddings[cls].data, want)


def test_loss_decreases_on_support():
    model = small_model()
    feats, labels = support(seed=5, n=8)
    cfg = TrainConfig(epochs=20, lr_fast=0.03, lr_slow=0.003, batch_size=8)
    trace = train_episode(model, feats, labels, cfg)
    assert trace[-1].loss < trace[0].loss


@pytest.mark.parametrize("labels, match", [
    ([0.7, 0.2, 1.9, 1.2], "labels must be 0 or 1, got 0.7"),
    ([0, 1, 2, 3], "labels must be 0 or 1, got 2"),
    (["0", "1", "0", "1"], "labels must be 0 or 1, got dtype <U1"),
    ([0, 1, 0], r"labels must have shape \(4,\), got \(3,\)"),
], ids=["float", "outside", "str", "short"])
def test_train_episode_takes_labels_of_0_or_1(labels, match):
    # the floats were truncated to [0, 0, 1, 1] and trained, [0, 1, 2, 3]
    # and the strings trained, and 3 labels trained the first 3 of 4 rows
    feats, _ = support(n=4)
    with pytest.raises(ContractError, match=match):
        train_episode(small_model(), feats, labels, TrainConfig(epochs=1))


def test_stacked_training_takes_labels_of_one_episode_row_each():
    stack = stack_models([small_model(seed) for seed in (1, 2)])
    feats, labels = support(n=4)
    stacked = {l: np.stack([f, f]) for l, f in feats.items()}  # [2, 4, P, d]
    with pytest.raises(ContractError, match=r"must have shape \(2, 4\), got \(4,\)"):
        train_episode(stack, stacked, labels, TrainConfig(epochs=1))
    with pytest.raises(ContractError, match="support taps need one batch shape"):
        train_episode(stack, {2: stacked[2], 4: stacked[4][:, :3]},
                      np.stack([labels, labels]), TrainConfig(epochs=1))


def test_support_lacking_a_model_tap_is_a_contract_error():
    # raised a bare KeyError: 4 from the forward pass
    feats, labels = support()
    with pytest.raises(ContractError, match=r"support features at visual taps "
                                            r"\[2\] do not match the model's "
                                            r"taps \[2, 4\]: missing \[4\]"):
        train_episode(small_model(), {2: feats[2]}, labels, TrainConfig(epochs=1))


def test_support_features_as_nested_lists_train_as_their_arrays():
    # raised a bare TypeError from the mini-batch slice
    feats, labels = support()
    config = TrainConfig(epochs=2, batch_size=3)
    model, listed = small_model(), small_model()
    want = train_episode(model, feats, labels, config)
    got = train_episode(listed, {l: f.tolist() for l, f in feats.items()},
                        labels.tolist(), config)
    assert got == want and state_checksum(listed) == state_checksum(model)
    ragged = {2: feats[2].tolist(), 4: feats[4].tolist()}
    ragged[4][0] = ragged[4][0][:-1]
    spread = feats[4].copy()
    spread[1, 2, 3] = np.nan
    for bad, match in ((ragged, "support features at visual tap 4 must be real"),
                       ({2: feats[2], 4: feats[4].astype(str)},
                        "support features at visual tap 4 must be real"),
                       ({2: feats[2], 4: spread},
                        "support features at visual tap 4 must be finite")):
        with pytest.raises(ContractError, match=match):
            train_episode(small_model(), bad, labels, config)


def test_empty_support_rejected():
    model = small_model()
    with pytest.raises(ContractError):
        train_episode(model, {2: np.zeros((0, 4, 16)), 4: np.zeros((0, 4, 16))},
                      [], TrainConfig(epochs=1))


def test_batch_size_caps_at_support_size():
    model = small_model()
    feats, labels = support(seed=6, n=3)
    trace = train_episode(model, feats, labels,
                          TrainConfig(epochs=1, batch_size=16))
    assert len(trace) == 1 and np.isfinite(trace[0].loss)


# --- recorded steps ------------------------------------------------------------

# tape nodes of one seq step at k=4 under the default backbone, per stage spec
K4_SEQ_NODES = {"stage1": 95, "stage2": 121, "stage3": 147, "stage4": 173,
                "all": 308}


def recorded_tape_lengths(monkeypatch, model, feats, labels, config):
    """The tape length of every step train_episode records."""
    lengths = []
    original = training.backward
    monkeypatch.setattr(training, "backward", lambda loss, tape:
                        lengths.append(len(tape)) or original(loss, tape))
    train_episode(model, feats, labels, config)
    return lengths


def k4_support(spec, episodes=()):
    rng = np.random.default_rng(9)
    feats = {l: rng.normal(size=episodes + (8, spec.patches, spec.d))
             for l in spec.selected_visual}
    return feats, np.broadcast_to(np.arange(8) % 2, episodes + (8,))


def test_a_stage_step_records_only_the_text_blocks_its_tap_reads(monkeypatch):
    # the text tower stops at the stage's text tap: stage 1 runs one block
    for name, spec in stage_specs(BackboneSpec()):
        lengths = recorded_tape_lengths(monkeypatch, init_model(Recipe(spec, seed=1)),
                                        *k4_support(spec), TrainConfig(epochs=1))
        assert lengths == [K4_SEQ_NODES[name]], name


def test_a_stacked_step_records_as_many_nodes_as_one_episode(monkeypatch):
    # the per-episode losses are differentiated as they are, with no sum node
    spec = BackboneSpec()
    stack = stack_models([init_model(Recipe(spec, seed=seed)) for seed in (1, 2)])
    lengths = recorded_tape_lengths(monkeypatch, stack,
                                    *k4_support(spec, episodes=(2,)),
                                    TrainConfig(epochs=1))
    assert lengths == [K4_SEQ_NODES["all"]]


# --- divergence ----------------------------------------------------------------

def test_diverging_training_raises_numeric_error():
    # at these rates the loss turns NaN within a few epochs; training must
    # stop there instead of running on with non-finite parameters
    feats, labels = support(seed=7)
    cfg = TrainConfig(epochs=30, lr_fast=1e3, lr_slow=1e3)
    with pytest.raises(NumericError, match=r"non-finite loss at epoch \d+; "
                                           r"first non-finite parameter \S+"):
        train_episode(small_model(), feats, labels, cfg)


def test_divergence_in_the_last_update_is_reported():
    # no loss scores the final step's update; the end-of-training check
    # must catch parameters that it left non-finite
    spec = BackboneSpec()
    rng = np.random.default_rng(0)
    feats = {l: rng.normal(size=(8, spec.patches, spec.d))
             for l in spec.selected_visual}
    cfg = TrainConfig(epochs=3, lr_fast=1e3, lr_slow=1e3)
    with pytest.raises(NumericError, match="non-finite after the last epoch"):
        train_episode(init_model(Recipe(spec, seed=1000)), feats, np.arange(8) % 2,
                      cfg)


def test_non_finite_parameter_stops_training_at_its_first_step():
    model = small_model()
    model.adapt.prompts.context.data[0, 0] = np.inf
    feats, labels = support(seed=8)
    with pytest.raises(NumericError, match=r"epoch 0; first non-finite "
                                           r"parameter prompt\.context"):
        train_episode(model, feats, labels, TrainConfig(epochs=3))
