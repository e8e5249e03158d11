"""Episode stacking: E episodes trained in one tape match each trained alone
bit for bit, and the grids that stack give exactly their unstacked rows."""

import numpy as np
import pytest

from fsad import runner
from fsad.backbone import BackboneSpec
from fsad.clsa import STRATEGIES
from fsad.config import RunConfig
from fsad.errors import ContractError, NumericError
from fsad.model import (init_model, named_parameters, stack_models, stack_size,
                        state_checksum, unstack_model)
from fsad.runner import (RunSpec, beta_sweep, build_feature_store,
                         lambda_sweep, run_episode, run_plan, stack_capacity,
                         stage_grid, strategy_grid)
from fsad.synthdata import generate_dataset
from fsad.training import TrainConfig, train_episode

D = 16
# four epochs at the benchmark rates: the closed gates and zero
# up-projections of step 0 are open by the later steps
TRAIN = TrainConfig(epochs=4, lr_fast=0.03, lr_slow=0.003)


def small_spec(**kw):
    base = dict(d=D, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)
    base.update(kw)
    return BackboneSpec(**base)


def support(seed, taps, n=8, p=4):
    rng = np.random.default_rng(seed)
    feats = {layer: rng.normal(size=(n, p, D)) for layer in taps}
    return feats, rng.permutation(np.arange(n) % 2)


def assert_stack_matches_alone(make, episodes=2, config=TRAIN):
    """make(e) builds episode e's fresh model; the stack and the one-by-one
    trainings must agree on every parameter bit and every trace row."""
    taps = make(0).spec.selected_visual
    sups = [support(100 + e, taps) for e in range(episodes)]
    alone = []
    for e, (feats, labels) in enumerate(sups):
        model = make(e)
        trace = train_episode(model, feats, labels, config)
        alone.append((state_checksum(model), trace))
    models = [make(e) for e in range(episodes)]
    stacked = stack_models(models)
    assert stack_size(stacked) == episodes
    feats = {l: np.stack([f[l] for f, _ in sups]) for l in taps}
    traces = train_episode(stacked, feats, np.stack([y for _, y in sups]), config)
    unstack_model(stacked, models)
    assert len(traces) == episodes
    for model, trace, (checksum, want) in zip(models, traces, alone):
        assert trace == want
        assert state_checksum(model) == checksum


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stack_matches_alone_for_every_strategy(strategy):
    assert_stack_matches_alone(
        lambda e: init_model(small_spec(), seed=10 + e, strategy=strategy))


def test_stack_matches_alone_for_a_single_pair_stage():
    spec = small_spec(selected_visual=(4,), selected_text=(2,))
    assert_stack_matches_alone(lambda e: init_model(spec, seed=20 + e))


def test_stack_matches_alone_with_a_fixed_gate_per_episode():
    gates = (0.25, 1.0, 2.0)
    assert_stack_matches_alone(
        lambda e: init_model(small_spec(), seed=30 + e, gate_init=gates[e],
                             gates_learnable=False), episodes=3)


def test_stack_matches_alone_over_several_batches_per_epoch():
    config = TrainConfig(epochs=3, lr_fast=0.03, lr_slow=0.003, batch_size=3)
    assert_stack_matches_alone(lambda e: init_model(small_spec(), seed=40 + e),
                               config=config)


def test_stack_layout():
    models = [init_model(small_spec(), seed=s) for s in (1, 2, 3)]
    stacked = stack_models(models)
    params = named_parameters(stacked)
    assert params["rav.2.down"].shape == (3, 1, D, D // 4)
    assert params["prompt.context"].shape == (3, 1, 8, D)
    assert params["clsa.2.v2t.wq"].shape == (3, 1, D, D)
    for gate in ("rat.alpha", "clsa.beta_t", "clsa.beta_v"):
        assert params[gate].shape == (3, 1, 1, 1)
    assert params["logit.rho"].shape == (3, 1, 1)
    assert stacked.adapt.prompts.class_embeddings["abnormal"].shape == (3, 1, D)
    assert stacked.text_enc is models[0].text_enc
    for e, model in enumerate(models):
        np.testing.assert_array_equal(params["prompt.context"].data[e, 0],
                                      model.adapt.prompts.context.data)
    assert stack_size(models[0]) is None


def test_unstack_round_trip_and_independence():
    models = [init_model(small_spec(), seed=s) for s in (4, 5)]
    before = [state_checksum(m) for m in models]
    stacked = stack_models(models)
    copies = [init_model(small_spec(), seed=9) for _ in models]
    unstack_model(stacked, copies)
    assert [state_checksum(m) for m in copies] == before
    named_parameters(copies[0])["logit.rho"].data = np.asarray(0.0)
    assert state_checksum(copies[1]) == before[1]
    with pytest.raises(ContractError):
        unstack_model(stacked, copies[:1])


def test_stack_rejects_mixed_structure():
    with pytest.raises(ContractError):
        stack_models([init_model(small_spec(), seed=1, strategy="seq"),
                      init_model(small_spec(), seed=2, strategy="none")])
    frozen = init_model(small_spec(), seed=2, gates_learnable=False)
    with pytest.raises(ContractError):
        stack_models([init_model(small_spec(), seed=1), frozen])


def test_stacked_divergence_names_the_episode():
    models = [init_model(small_spec(), seed=s) for s in (1, 2)]
    named_parameters(models[1])["logit.rho"].data = np.asarray(np.nan)
    sups = [support(s, (2, 4)) for s in (1, 2)]
    feats = {l: np.stack([f[l] for f, _ in sups]) for l in (2, 4)}
    with pytest.raises(NumericError, match=r"epoch 0 in episode 1 of the "
                                           r"stack; first non-finite "
                                           r"parameter logit\.rho"):
        train_episode(stack_models(models), feats,
                      np.stack([y for _, y in sups]), TRAIN)


# --- grids --------------------------------------------------------------------

GRID = {
    "backbone.d": D, "backbone.vision_layers": 4, "backbone.text_layers": 2,
    "backbone.visual_taps": (2, 4), "backbone.text_taps": (1, 2),
    "backbone.patch_grid": (2, 2), "backbone.heads": 4,
    "data.n_normal": 12, "data.n_abnormal": 12, "data.height": 16,
    "data.width": 16, "data.blob_radius_min": 2.0, "data.blob_radius_max": 4.0,
    # k=4 at batch 16: stacks of two, so three episodes split 2 + 1
    "episode.k": 4, "episode.query_per_class": 3, "episode.count": 3,
    "train.epochs": 3, "train.lr_fast": 0.03, "train.lr_slow": 0.003,
    "adapt.prompt_len": 4, "clsa.heads": 4,
}


@pytest.fixture(scope="module")
def world():
    cfg = RunConfig(dict(GRID))
    dataset = generate_dataset(cfg.dataset_spec())
    return cfg, build_feature_store(cfg.backbone_spec(), dataset), dataset


@pytest.fixture
def stack_sizes(monkeypatch):
    """Records the stack size (None: unstacked) of every training."""
    seen = []
    original = runner.train_episode

    def recording(model, support_feats, labels, config):
        seen.append(stack_size(model))
        return original(model, support_feats, labels, config)

    monkeypatch.setattr(runner, "train_episode", recording)
    return seen


def test_stack_capacity_bounds_rows_per_step():
    assert stack_capacity(TrainConfig(), 8) == 2     # k=4
    assert stack_capacity(TrainConfig(), 32) == 1    # k=16
    assert stack_capacity(TrainConfig(batch_size=16), 3) == 5
    assert stack_capacity(TrainConfig(batch_size=4), 8) == 1


def test_three_episodes_train_as_two_plus_one(world, stack_sizes):
    cfg, store, dataset = world
    got = run_plan(cfg, store, dataset, [RunSpec(i) for i in range(3)],
                   lambda run: (state_checksum(run.model), run.trace,
                                run.metrics))
    assert stack_sizes == [2, None]
    for i, (checksum, trace, metrics) in enumerate(got):
        alone = run_episode(cfg, store, dataset, i)
        assert checksum == state_checksum(alone.model)
        assert trace == alone.trace
        assert metrics == alone.metrics


def strategy_rows(*world):
    grid = strategy_grid(*world)
    return grid.rows, grid.loss_first, grid.loss_last


@pytest.mark.parametrize("grid", [
    strategy_rows,
    lambda *world: stage_grid(*world).rows,
    lambda_sweep,
    beta_sweep,
], ids=["strategy", "stage", "lambda", "beta"])
def test_grid_rows_equal_one_episode_at_a_time(world, grid, monkeypatch,
                                               stack_sizes):
    stacked = grid(*world)
    assert 2 in stack_sizes
    monkeypatch.setattr(runner, "stack_capacity", lambda config, support: 1)
    stack_sizes.clear()
    alone = grid(*world)
    assert set(stack_sizes) == {None}
    assert stacked == alone


def test_k16_never_stacks(stack_sizes):
    cfg = RunConfig({**GRID, "episode.k": 16, "episode.count": 2,
                     "data.n_normal": 19, "data.n_abnormal": 19,
                     "train.epochs": 1})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    beta_sweep(cfg, store, dataset, points=(0.0, 1.0))
    lambda_sweep(cfg, store, dataset, points=(0.5,))
    assert stack_sizes == [None] * 6
