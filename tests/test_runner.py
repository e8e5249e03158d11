"""Orchestration: feature caching, episode mechanics, grids, gradcheck."""

import numpy as np
import pytest

from fsad.config import RunConfig
from fsad.errors import ConfigError
from fsad.evalmetrics import auc
from fsad.model import named_parameters, state_checksum
from fsad.runner import (BETA_POINTS, LAMBDA_POINTS, RunSpec, beta_sweep,
                         build_feature_store, eval_at_lambda, gradcheck_all,
                         gradcheck_episode, gradcheck_ops, lambda_sweep,
                         model_from_config, run_episode, stage_grid,
                         stage_specs, strategy_grid, take)
from fsad.synthdata import generate_dataset
from fsad.training import TrainConfig

SMALL = {
    "backbone.d": 16, "backbone.vision_layers": 4, "backbone.text_layers": 2,
    "backbone.visual_taps": (2, 4), "backbone.text_taps": (1, 2),
    "backbone.patch_grid": (2, 2), "backbone.heads": 4,
    "data.n_normal": 12, "data.n_abnormal": 12, "data.height": 16,
    "data.width": 16, "data.blob_radius_min": 2.0, "data.blob_radius_max": 4.0,
    "episode.k": 2, "episode.query_per_class": 3, "episode.count": 2,
    "train.epochs": 2, "train.lr_fast": 0.01, "train.lr_slow": 0.001,
    "adapt.prompt_len": 4, "clsa.heads": 4,
}


@pytest.fixture(scope="module")
def world():
    cfg = RunConfig(dict(SMALL))
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    return cfg, store, dataset


def test_feature_store_layout(world):
    cfg, store, dataset = world
    spec = cfg.backbone_spec()
    assert sorted(store.feats) == [2, 4]
    for arr in store.feats.values():
        assert arr.shape == (24, spec.patches, spec.d)
    assert store.labels.tolist() == [0] * 12 + [1] * 12
    again = build_feature_store(spec, dataset)
    np.testing.assert_array_equal(store.feats[2], again.feats[2])


def test_take_slices_and_guards(world):
    _, store, _ = world
    got = take(store, (4,), [5, 1])
    assert sorted(got) == [4]
    np.testing.assert_array_equal(got[4][0], store.feats[4][5])
    np.testing.assert_array_equal(got[4][1], store.feats[4][1])
    with pytest.raises(ConfigError):
        take(store, (6,), [0])


def test_run_episode_fields(world):
    cfg, store, dataset = world
    run = run_episode(cfg, store, dataset, 1)
    assert run.episode_seed == cfg["episode.seed"] + 1
    assert run.model_seed == cfg["model.seed"] + 1
    assert len(run.trace) == cfg["train.epochs"]
    assert run.report.final.shape == (6,)  # 2 classes x 3 queries
    assert set(run.episode.support_ids).isdisjoint(run.episode.query_ids)
    assert 0.0 <= run.metrics.auc <= 1.0
    assert run.strategy == "seq" and run.lam == 0.5


def test_run_episode_untrained_is_fresh_init(world):
    cfg, store, dataset = world
    run = run_episode(cfg, store, dataset, 0, train=False)
    assert run.trace == []
    fresh = model_from_config(cfg, RunSpec(run.index))
    assert state_checksum(run.model) == state_checksum(fresh)


def test_run_episode_deterministic(world):
    cfg, store, dataset = world
    a = run_episode(cfg, store, dataset, 0)
    b = run_episode(cfg, store, dataset, 0)
    assert a.metrics == b.metrics
    np.testing.assert_array_equal(a.report.final, b.report.final)
    assert state_checksum(a.model) == state_checksum(b.model)


def test_eval_at_lambda_endpoints(world):
    cfg, store, dataset = world
    run = run_episode(cfg, store, dataset, 0)
    rep = run.report
    assert eval_at_lambda(rep, 1.0)[0] == auc(rep.sem_norm, rep.labels)
    assert eval_at_lambda(rep, 0.0)[0] == auc(rep.proto_norm, rep.labels)
    assert eval_at_lambda(rep, rep.lam)[0] == auc(rep.final, rep.labels)


def test_strategy_grid_structure(world):
    cfg, store, dataset = world
    grid = strategy_grid(cfg, store, dataset)
    assert [r["row"] for r in grid.rows] == [1, 2, 3, 4, 5, 6]
    assert [r["strategy"] for r in grid.rows] == ["none"] * 3 + ["v2t", "t2v", "seq"]
    assert [r["adapters"] for r in grid.rows] == [False] + [True] * 5
    assert [r["dual"] for r in grid.rows] == [False, False, True, True, True, True]
    for cell in grid.cells.values():
        assert len(cell.aucs) == cfg["episode.count"]
    assert grid.rows[5]["auc"] == grid.cells["seq_dual"].auc
    assert grid.rows[0]["auc"] == grid.cells["untrained_sem"].auc
    assert len(grid.loss_first) == len(grid.loss_last) == cfg["episode.count"]


def test_stage_specs_and_grid(world):
    cfg, store, dataset = world
    names = [n for n, _ in stage_specs(cfg.backbone_spec())]
    assert names == ["stage1", "stage2", "all"]
    _, s1 = stage_specs(cfg.backbone_spec())[0]
    assert s1.selected_visual == (2,) and s1.selected_text == (1,)
    grid = stage_grid(cfg, store, dataset)
    assert [r["stage"] for r in grid.rows] == names
    assert grid.rows[-1]["visual_taps"] == "2,4"
    for cell in grid.cells.values():
        assert len(cell.aucs) == cfg["episode.count"]


def test_lambda_sweep_rows(world):
    cfg, store, dataset = world
    points = (0.0, 0.5, 1.0)
    rows = lambda_sweep(cfg, store, dataset, points=points)
    assert len(rows) == len(points) * (cfg["episode.count"] + 1)
    by_point = {p: [r for r in rows if r["value"] == p] for p in points}
    for p in points:
        seeds = [r for r in by_point[p] if r["seed"] != "mean"]
        mean = [r for r in by_point[p] if r["seed"] == "mean"]
        assert len(mean) == 1
        assert np.isclose(mean[0]["auc"], np.mean([r["auc"] for r in seeds]))
    # endpoint rows equal the single-branch readings of the same trained run
    run = run_episode(cfg, store, dataset, 0)
    first = lambda rows_p: [r for r in rows_p if r["seed"] == run.episode_seed][0]
    assert first(by_point[1.0])["auc"] == auc(run.report.sem_norm, run.report.labels)
    assert first(by_point[0.0])["auc"] == auc(run.report.proto_norm, run.report.labels)
    with pytest.raises(ConfigError):
        lambda_sweep(cfg, store, dataset, points=())


def test_beta_zero_equals_strategy_none_exactly(world):
    cfg, store, dataset = world
    rows = beta_sweep(cfg, store, dataset, points=(0.0,))
    assert len(rows) == cfg["episode.count"] + 1
    none_aucs = [run_episode(cfg, store, dataset, i, model=model_from_config(
                     cfg, RunSpec(i, strategy="none"))).metrics.auc
                 for i in range(cfg["episode.count"])]
    sweep_aucs = [r["auc"] for r in rows if r["seed"] != "mean"]
    assert sweep_aucs == none_aucs


def test_trained_support_scores_improve():
    # default benchmark, seed-averaged: scoring the training support as
    # queries after adaptation should not be worse than before it
    cfg = RunConfig({"episode.count": 3, "train.epochs": 100,
                     "train.lr_fast": 0.03, "train.lr_slow": 0.003})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    trained, untrained = [], []
    for i in range(cfg["episode.count"]):
        ysup = lambda run: store.labels[run.episode.support_ids]
        run = run_episode(cfg, store, dataset, i)
        trained.append(auc(run.support_report.final, ysup(run)))
        base = run_episode(cfg, store, dataset, i, train=False)
        untrained.append(auc(base.support_report.final, ysup(base)))
    assert np.mean(trained) >= np.mean(untrained)


def test_default_sweep_grids():
    assert LAMBDA_POINTS == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert BETA_POINTS == (0.0, 0.25, 0.5, 1.0, 2.0)


def test_gradcheck_ops_cover_engine_and_pass():
    rows = gradcheck_ops()
    names = {r.name for r in rows}
    assert {"add", "sub", "mul", "scale", "mean_axis", "sum_all", "sum_last",
            "matmul", "transpose", "reshape", "concat", "narrow", "sigmoid",
            "silu", "exp", "log", "clip", "softmax_rows", "layernorm_rows",
            "cosine_rows", "attention"} <= names
    assert all(r.ok for r in rows)
    assert max(r.rel_err for r in rows) < 1e-4


def test_gradcheck_episode_covers_every_parameter():
    cfg = RunConfig(dict(SMALL))
    rows = gradcheck_episode(cfg)
    model = model_from_config(cfg)
    assert {r.name for r in rows} == set(named_parameters(model))
    assert all(r.ok for r in rows)
    assert {r.group for r in rows} == {"fast", "slow"}
    slow = {r.name for r in rows if r.group == "slow"}
    assert slow == {n for n in named_parameters(model)
                    if n.startswith(("rav.", "rat."))}


def test_gradcheck_negative_control():
    cfg = RunConfig(dict(SMALL))
    rows = gradcheck_all(cfg, corrupt=True)
    assert any(not r.ok for r in rows)
    sigmoid_row = [r for r in rows if r.name == "sigmoid"][0]
    assert not sigmoid_row.ok
    # corruption toggle must not leak
    clean = gradcheck_ops()
    assert all(r.ok for r in clean)
