"""Episode stacking: E episodes trained in one tape match each trained alone
bit for bit, and the grids that stack give exactly their unstacked rows."""

from dataclasses import replace

import numpy as np
import pytest

from fsad import runner
from fsad.clsa import STRATEGIES, ClsaSpec
from fsad.config import RunConfig
from fsad.errors import ContractError, NumericError
from fsad.model import (Recipe, init_model, named_parameters, stack_models,
                        stack_size, state_checksum, unstack_model)
from fsad.cli import main
from fsad.runner import (RunSpec, ablate, beta_sweep, build_feature_store,
                         lambda_sweep, run_episode, run_plan, stage_grid,
                         strategy_grid)
from fsad.synthdata import generate_dataset
from fsad.training import TrainConfig, train_episode
from small_spec import small_spec

D = 16
# four epochs at the benchmark rates: the closed gates and zero
# up-projections of step 0 are open by the later steps
TRAIN = TrainConfig(epochs=4, lr_fast=0.03, lr_slow=0.003)


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
        lambda e: init_model(Recipe(small_spec(), seed=10 + e,
                                    clsa=ClsaSpec(strategy=strategy))))


def test_stack_matches_alone_for_a_single_pair_stage():
    spec = small_spec(selected_visual=(4,), selected_text=(2,))
    assert_stack_matches_alone(lambda e: init_model(Recipe(spec, seed=20 + e)))


def test_stack_matches_alone_with_a_fixed_gate_per_episode():
    gates = (0.25, 1.0, 2.0)
    assert_stack_matches_alone(
        lambda e: init_model(Recipe(small_spec(), seed=30 + e, clsa=ClsaSpec(
            gate_init=gates[e], gates_learnable=False))),
        episodes=3)


def test_stack_matches_alone_over_several_batches_per_epoch():
    config = TrainConfig(epochs=3, lr_fast=0.03, lr_slow=0.003, batch_size=3)
    assert_stack_matches_alone(lambda e: init_model(Recipe(small_spec(), seed=40 + e)),
                               config=config)


def test_stack_layout():
    models = [init_model(Recipe(small_spec(), seed=s)) for s in (1, 2, 3)]
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
    models = [init_model(Recipe(small_spec(), seed=s)) for s in (4, 5)]
    before = [state_checksum(m) for m in models]
    stacked = stack_models(models)
    copies = [init_model(Recipe(small_spec(), seed=9)) for _ in models]
    unstack_model(stacked, copies)
    assert [state_checksum(m) for m in copies] == before
    named_parameters(copies[0])["logit.rho"].data = np.asarray(0.0)
    assert state_checksum(copies[1]) == before[1]
    with pytest.raises(ContractError):
        unstack_model(stacked, copies[:1])


def test_stack_rejects_mixed_structure():
    with pytest.raises(ContractError):
        stack_models([init_model(Recipe(small_spec(), clsa=ClsaSpec(strategy=s), seed=i))
                      for i, s in ((1, "seq"), (2, "none"))])
    frozen = init_model(Recipe(small_spec(), clsa=ClsaSpec(gates_learnable=False), seed=2))
    with pytest.raises(ContractError):
        stack_models([init_model(Recipe(small_spec(), seed=1)), frozen])


def test_an_empty_stack_is_a_contract_error():
    with pytest.raises(ContractError, match="at least one model"):
        stack_models([])


def test_stacked_divergence_names_the_episode():
    models = [init_model(Recipe(small_spec(), seed=s)) for s in (1, 2)]
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
    # three episodes per cell: each cell's trained runs form one stack of 3
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


@pytest.fixture
def one_at_a_time(monkeypatch):
    """Calling it makes every later run_plan train its episodes alone."""
    return lambda: monkeypatch.setattr(runner, "MAX_STACK", 1)


def test_seven_episodes_train_as_five_plus_two(world, stack_sizes):
    cfg, store, dataset = world
    got = run_plan(cfg, store, dataset, [RunSpec(i) for i in range(7)],
                   lambda run: (state_checksum(run.model), run.trace,
                                run.metrics))
    assert stack_sizes == [5, 2]
    for i, (checksum, trace, metrics) in enumerate(got):
        alone = run_episode(cfg, store, dataset, i)
        assert checksum == state_checksum(alone.model)
        assert trace == alone.trace
        assert metrics == alone.metrics


def test_specs_of_one_key_train_once_and_read_one_run(world, stack_sizes):
    cfg, store, dataset = world
    # the config's clsa recipe and tap spec, given or left unset, are one key
    specs = [RunSpec(0), RunSpec(0, clsa=cfg.section("clsa")),
             RunSpec(0, mspec=cfg.backbone_spec())]
    runs = []

    def read(run):
        runs.append(run)
        return (state_checksum(run.model), run.trace, run.metrics,
                run.report.final.copy())

    got = run_plan(cfg, store, dataset, specs, read)
    assert stack_sizes == [None]
    assert runs[0] is runs[1] is runs[2]
    alone = run_episode(cfg, store, dataset, 0)
    for checksum, trace, metrics, final in got:
        # each reader saw the run as the first one did: none mutated it
        assert checksum == state_checksum(alone.model)
        assert trace == alone.trace
        assert metrics == alone.metrics
        np.testing.assert_array_equal(final, alone.report.final)


def test_fsad_ablate_trains_each_distinct_episode_once(stack_sizes, tmp_path):
    # default taps at episode.count=2: 4 strategies and 5 stage specs per
    # episode are 18 trainings, and the configured seq strategy is the
    # all-stages spec, so 16 of them are distinct
    assert main(["ablate", "--out", str(tmp_path), "--set", "episode.count=2",
                 "--set", "train.epochs=1"]) == 0
    assert sum(size or 1 for size in stack_sizes) == 16


def strategy_rows(*world):
    grid = strategy_grid(*world)
    return grid.rows, grid.cells["seq_dual"].traces


@pytest.mark.parametrize("grid, sizes", [
    (strategy_rows, [3] * 4),              # one stack per trained strategy
    (lambda *world: stage_grid(*world).rows, [3] * 3),   # one per stage
    # one plan for both: the all-stages stack is the seq one
    (ablate, [3] * 6),
    (lambda_sweep, [3]),
    (beta_sweep, [5] * 3),                 # 5 gate values x 3 episodes
], ids=["strategy", "stage", "ablate", "lambda", "beta"])
def test_grid_rows_equal_one_episode_at_a_time(world, grid, sizes, stack_sizes,
                                               one_at_a_time):
    stacked = grid(*world)
    assert stack_sizes == sizes
    one_at_a_time()
    stack_sizes.clear()
    alone = grid(*world)
    assert stack_sizes == [None] * sum(sizes)
    assert stacked == alone


def test_ablate_is_the_two_grids_each_from_its_own_plan(world):
    # one plan over both grids' points, split after the strategy cells,
    # gives exactly each grid's rows and cells, training traces included
    assert ablate(*world) == (strategy_grid(*world), stage_grid(*world))


def test_every_plan_spec_scores_the_model_of_its_recipe(world, monkeypatch):
    cfg = world[0]
    plan, seen = runner.run_plan, []

    def spying(cfg, store, dataset, specs, read):
        runs = plan(cfg, store, dataset, specs, lambda run: (run.model.recipe, read(run)))
        seen.extend(zip(specs, [recipe for recipe, _ in runs]))
        return [value for _, value in runs]

    monkeypatch.setattr(runner, "run_plan", spying)
    strategy_grid(*world)
    beta_sweep(*world)
    assert len(seen) == (len(runner.STRATEGY_CELLS) + len(runner.BETA_POINTS)) * 3
    for spec, recipe in seen:
        assert recipe == spec.recipe(cfg)


def test_keys_share_a_stack_exactly_when_their_recipe_structures_agree(world,
                                                                      monkeypatch):
    cfg = world[0]
    clsa, none = cfg.section("clsa"), replace(cfg.section("clsa"), strategy="none")
    stage = replace(cfg.backbone_spec(), selected_visual=(4,), selected_text=(2,))
    # gate values stack; a strategy or a tap set of its own does not
    specs = [RunSpec(0), RunSpec(1, clsa=replace(clsa, gate_init=0.5)),
             RunSpec(0, clsa=none), RunSpec(1, clsa=none),
             RunSpec(0, mspec=stage), RunSpec(1, mspec=stage)]
    stacks, original = [], runner.stack_models

    def recording(models):
        stacks.append([model.recipe for model in models])
        return original(models)

    monkeypatch.setattr(runner, "stack_models", recording)
    run_plan(cfg, *world[1:], specs, lambda run: None)
    recipes = [spec.recipe(cfg) for spec in specs]
    assert [len(stack) for stack in stacks] == [2, 2, 2]
    assert {r for stack in stacks for r in stack} == set(recipes)
    for a in recipes:
        for b in recipes:
            shared = any(a in stack and b in stack for stack in stacks)
            assert shared == (a.structure() == b.structure())


def test_k16_stacks_and_matches_one_at_a_time(stack_sizes, one_at_a_time):
    # 32 support rows at batch 16: two mini-batches per epoch, so every
    # step after the first sees the Adam state of a step on other rows
    cfg = RunConfig({**GRID, "episode.k": 16, "episode.count": 2,
                     "data.n_normal": 19, "data.n_abnormal": 19,
                     "train.epochs": 2})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)

    def rows():
        return (beta_sweep(cfg, store, dataset, points=(0.0, 1.0)),
                lambda_sweep(cfg, store, dataset, points=(0.5,)))

    stacked = rows()
    assert stack_sizes == [4, 2]
    one_at_a_time()
    stack_sizes.clear()
    alone = rows()
    assert stack_sizes == [None] * 6
    assert stacked == alone
