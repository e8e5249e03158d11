"""Orchestration: feature caching, episode mechanics, grids, gradcheck."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fsad import model as fmodel
from fsad import numcore as nc
from fsad import runner, synthdata
from fsad.backbone import ToyEncoder, encode_images
from fsad.config import RunConfig, defaults
from fsad.errors import ConfigError, ContractError
from fsad.evalmetrics import auc
from fsad.inference import Aligned, build_prototypes, proto_distance, summaries
from fsad.model import (apply_checkpoint, forward, named_parameters,
                        save_checkpoint, stack_models, state_checksum)
from fsad.runner import (BETA_POINTS, LAMBDA_POINTS, FeatureStore, RunSpec,
                         beta_sweep, build_feature_store, eval_at_lambda, gradcheck_all,
                         gradcheck_episode, gradcheck_ops, lambda_sweep,
                         model_from_config, run_episode, run_plan,
                         stage_grid, stage_specs, strategy_grid)
from fsad.synthdata import generate_dataset, sample_episode
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


# every episode.*, adapt.*, clsa.* and infer.* key but k and count off its
# default (SMALL sets k and count)
RECIPE = {
    "episode.query_per_class": 20, "episode.seed": 5,
    "adapt.prompt_len": 4, "adapt.reduction": 2, "adapt.alpha_init": 0.2,
    "clsa.strategy": "t2v", "clsa.heads": 2, "clsa.gate_init": 0.25,
    "clsa.gates_learnable": False, "infer.lam": 0.3, "infer.eps": 1e-6,
}


def test_every_recipe_key_reaches_what_it_configures():
    cfg = RunConfig({**SMALL, **RECIPE, "data.n_normal": 24, "data.n_abnormal": 24})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    run = run_episode(cfg, store, dataset, 1, train=False)
    model = run.model
    assert state_checksum(model) == state_checksum(model_from_config(cfg, RunSpec(1)))
    clsa = model.clsa
    assert model.strategy == "t2v"
    blocks = [*clsa.v2t_blocks.values(), *clsa.t2v_blocks.values()]
    assert [block.heads for block in blocks] == [2] * 4
    for gate in (clsa.beta_t, clsa.beta_v):
        assert float(gate.data) == 0.25 and not gate.requires_grad
    adapt = model.adapt
    assert adapt.prompts.context.shape == (4, 16)
    adapters = [*adapt.visual_adapters.values(), *adapt.text_adapters.values()]
    assert [a.down.shape for a in adapters] == [(16, 8)] * 4
    assert float(adapt.alpha_t.data) == 0.2
    ep = run.episode
    assert ep.k == 2 and len(ep.support_ids) == 4 and len(ep.query_ids) == 40
    assert run.episode_seed == 6
    assert np.array_equal(ep.query_ids, sample_episode(dataset, 2, 6, 20).query_ids)
    assert run.report.lam == 0.3
    taps = model.spec.selected_visual
    with nc.no_grad():
        sup = forward(model, {l: nc.Tensor(a) for l, a in
                              store.take(taps, ep.support_ids).items()})
        qry = forward(model, {l: nc.Tensor(a) for l, a in
                              store.take(taps, ep.query_ids).items()})

    def batch(out):
        s = {l: summaries(v.data) for l, v in out.visual.items()}
        n = len(next(iter(s.values()))[0])
        return Aligned(unit={l: u for l, (u, _) in s.items()},
                       mean={l: m for l, (_, m) in s.items()},
                       sem=np.zeros(n), ids=np.arange(n))

    protos = build_prototypes(batch(sup), store.labels[ep.support_ids])
    d_norm, d_abn = proto_distance(batch(qry), protos)
    assert np.array_equal(run.report.proto_raw, d_norm / (d_norm + d_abn + 1e-6))


def test_feature_store_layout(world):
    cfg, store, dataset = world
    spec = cfg.backbone_spec()
    assert sorted(store.feats) == [2, 4]
    for arr in store.feats.values():
        assert arr.shape == (24, spec.patches, spec.d)
    assert store.labels.tolist() == [0] * 12 + [1] * 12
    again = build_feature_store(spec, dataset)
    np.testing.assert_array_equal(store.feats[2], again.feats[2])


def test_feature_store_build_peaks_below_one_block_of_transients():
    # the default 400-image corpus, generated and encoded: a 6.25 MB store
    # plus one SCORE_BLOCK block's rendered pixels (0.6 MB at 25 images)
    # and tower buffers, 10.5 MB in all. Blocks of 100 images peaked at
    # 19.3 MB, one pass over the whole corpus at 38.5 MB, and the generated
    # corpus alone held 9.4 MB of pixels
    cfg = RunConfig(defaults())
    tracemalloc.start()
    try:
        dataset = generate_dataset(cfg.dataset_spec())
        store = build_feature_store(cfg.backbone_spec(), dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [arr.shape for arr in store.feats.values()] == [(400, 16, 32)] * 4
    assert peak < 13 * 2**20, f"store build peaked at {peak / 2**20:.1f} MB"


def test_aligning_the_default_corpus_peaks_below_one_block_of_transients():
    # a fresh default model aligning the 400 default images: the 0.8 MB
    # memo plus one SCORE_BLOCK block's forward pass, 4.4 MB in all at 25
    # images a block (bound: that plus 1.6 MB). Blocks of 100 peaked at
    # 12.4 MB
    cfg = RunConfig(defaults())
    store = build_feature_store(cfg.backbone_spec(),
                                generate_dataset(cfg.dataset_spec()))
    model = model_from_config(cfg)
    tracemalloc.start()
    try:
        memo = fmodel.align(model, store, np.arange(400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert memo.filled.all()
    assert peak < 6 * 2**20, f"alignment peaked at {peak / 2**20:.1f} MB"


DEFAULT_STORE_SHA256 = {
    2: "ddf7867bfe014739981bb9cd1e2cf68d8709c4074ce3350de7ec37c77d446785",
    4: "7d106fd5ec55b1e27c90b2467edab3f439189c9cf4d0db2f521f9a0d2c4f4b35",
    6: "d60cc78bea72474ceaf78a3bb3e65de9f5a7269ce19bb39f717cfe2dc6cd16d7",
    8: "4e206e7236015bf8179f49983a0492554dc30cfb9282aea0fe846f56ade609e9",
}


def test_default_store_taps_are_pinned():
    cfg = RunConfig(defaults())
    store = build_feature_store(cfg.backbone_spec(),
                                generate_dataset(cfg.dataset_spec()))
    assert list(store.feats) == sorted(DEFAULT_STORE_SHA256)
    for tap, arr in store.feats.items():
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert hashlib.sha256(arr.tobytes()).hexdigest() == DEFAULT_STORE_SHA256[tap]


def test_feature_store_renders_each_image_once(monkeypatch):
    # 140 images: full SCORE_BLOCK blocks and a partial one
    cfg = RunConfig(dict(SMALL, **{"data.n_normal": 130, "data.n_abnormal": 10}))
    blocks, render = [], synthdata.render

    def counting(samples):
        blocks.append([(s.label, s.index) for s in samples])
        return render(samples)

    monkeypatch.setattr(synthdata, "render", counting)
    dataset = generate_dataset(cfg.dataset_spec())
    assert blocks == []  # generation renders no pixels
    store = build_feature_store(cfg.backbone_spec(), dataset)
    assert [key for block in blocks for key in block] == [
        (s.label, s.index) for s in dataset]
    assert max(map(len, blocks)) == runner.SCORE_BLOCK
    assert store.labels.tolist() == [0] * 130 + [1] * 10


def test_store_blocks_match_each_image_alone(world, monkeypatch):
    # blocks of 2 over 5 samples: two full blocks and a ragged one of 1
    monkeypatch.setattr(runner, "SCORE_BLOCK", 2)
    cfg, _, _ = world
    spec = cfg.backbone_spec()
    dataset = generate_dataset(replace(cfg.dataset_spec(), n_normal=3, n_abnormal=2))
    store = build_feature_store(spec, dataset)
    assert {tap: arr.shape for tap, arr in store.feats.items()} == {
        2: (5, 4, 16), 4: (5, 4, 16)}
    enc = ToyEncoder(spec, "visual")
    for b, sample in enumerate(dataset):
        alone = encode_images(enc, [sample.image])
        for tap, rows in alone.items():
            assert np.array_equal(store.feats[tap][b], rows[0])


def test_take_slices_and_guards(world):
    _, store, _ = world
    got = store.take((4,), [5, 1])
    assert sorted(got) == [4]
    np.testing.assert_array_equal(got[4][0], store.feats[4][5])
    np.testing.assert_array_equal(got[4][1], store.feats[4][1])
    # a stack's [E, B] support ids: one C-contiguous [E, B, P, d] gather
    stacked = store.take((2, 4), np.array([[5, 1], [0, 7], [3, 3]]))
    for tap, arr in stacked.items():
        assert arr.shape == (3, 2) + store.feats[tap].shape[1:]
        assert arr.flags.c_contiguous
        np.testing.assert_array_equal(
            arr, np.stack([store.take((tap,), ids)[tap]
                           for ids in ([5, 1], [0, 7], [3, 3])]))
    with pytest.raises(ConfigError):
        store.take((6,), [0])


@pytest.mark.parametrize("ids, match", [
    ([0.5], "image ids must be an array of integers, got dtype float64"),
    ([-1], r"image id -1 outside \[0, 24\)"),
    (["1"], "image ids must be an array of integers, got dtype <U1"),
    ([True, False], "image ids must be an array of integers, got dtype bool"),
    ([24], r"image id 24 outside \[0, 24\)"),
    ([[0, 1], [2]], "image ids must be an array of integers, got setting"),
], ids=["float", "negative", "str", "bool", "N", "ragged"])
def test_take_and_align_take_image_ids_in_range(world, ids, match):
    # take gathered image 0 for 0.5, wrapped -1 to the last image, cast "1"
    # and the bools to ints, and raised a bare IndexError for 24 and a bare
    # ValueError for the ragged list; align did the same through its cast
    cfg, store, _ = world
    with pytest.raises(ContractError, match=match):
        store.take((2, 4), ids)
    with pytest.raises(ContractError, match=match):
        fmodel.align(model_from_config(cfg), store, ids)


def test_run_episode_fields(world):
    cfg, store, dataset = world
    run = run_episode(cfg, store, dataset, 1)
    assert run.episode_seed == cfg["episode.seed"] + 1
    assert len(run.trace) == cfg["train.epochs"]
    assert run.report.final.shape == (6,)  # 2 classes x 3 queries
    assert set(run.episode.support_ids).isdisjoint(run.episode.query_ids)
    assert 0.0 <= run.metrics.auc <= 1.0
    assert run.model.strategy == "seq" and run.report.lam == 0.5


def test_run_plan_trains_a_lone_episode_as_run_episode(world, monkeypatch):
    cfg, store, dataset = world
    alone = run_episode(cfg, store, dataset, 1)
    seeds = []

    def counted(*args):
        seeds.append(args[2])
        return sample_episode(*args)

    monkeypatch.setattr(runner, "sample_episode", counted)
    run = run_plan(cfg, store, dataset, [RunSpec(1)], lambda r: r)[0]
    assert seeds == [cfg["episode.seed"] + 1]  # sampled once
    assert state_checksum(run.model) == state_checksum(alone.model)
    assert run.trace == alone.trace
    np.testing.assert_array_equal(run.report.final, alone.report.final)


def test_run_episode_untrained_is_fresh_init(world):
    cfg, store, dataset = world
    run = run_episode(cfg, store, dataset, 0, train=False)
    assert run.trace == []
    fresh = model_from_config(cfg, RunSpec(run.index))
    assert state_checksum(run.model) == state_checksum(fresh)


def test_a_negative_episode_seed_is_a_config_error():
    # model.seed + index is the model's seed, and numpy takes no negative one
    with pytest.raises(ConfigError, match="model seed must be >= 0, got -1"):
        model_from_config(RunConfig({"model.seed": 0}), RunSpec(index=-1))


def test_run_episode_deterministic(world):
    cfg, store, dataset = world
    a = run_episode(cfg, store, dataset, 0)
    b = run_episode(cfg, store, dataset, 0)
    assert a.metrics == b.metrics
    np.testing.assert_array_equal(a.report.final, b.report.final)
    assert state_checksum(a.model) == state_checksum(b.model)


# ---------------------------------------------------------------------------
# alignment memo

def counted_alignment(monkeypatch):
    """Counts of text-tower runs and CLSA calls, and the images CLSA saw."""
    calls = {"text": 0, "clsa": 0, "images": 0}
    forward_text, clsa_forward = fmodel.forward_text, fmodel.clsa_forward

    def text(*args):
        calls["text"] += 1
        return forward_text(*args)

    def clsa(pairs, visual, *rest):
        calls["clsa"] += 1
        calls["images"] += next(iter(visual.values())).shape[0]
        return clsa_forward(pairs, visual, *rest)

    monkeypatch.setattr(fmodel, "forward_text", text)
    monkeypatch.setattr(fmodel, "clsa_forward", clsa)
    return calls


def copy_of(cfg, model):
    """A fresh model (empty memo) with ``model``'s parameter values."""
    fresh = model_from_config(cfg)
    source = named_parameters(model)
    for name, p in named_parameters(fresh).items():
        p.data = source[name].data.copy()
    return fresh


def assert_same_scores(got, want):
    for name in ("sem_raw", "proto_raw", "final"):
        assert np.array_equal(getattr(got.report, name), getattr(want.report, name))
        assert np.array_equal(getattr(got.support_report, name),
                              getattr(want.support_report, name))
    assert got.metrics == want.metrics


def test_memo_aligns_only_images_not_yet_aligned(world, monkeypatch):
    cfg, store, dataset = world
    model = model_from_config(cfg)
    calls = counted_alignment(monkeypatch)
    seen: set[int] = set()
    for index, new_images in ((0, 10), (1, None), (0, 0), (1, 0)):
        run = run_episode(cfg, store, dataset, index, train=False, model=model)
        ids = set(run.episode.support_ids) | set(run.episode.query_ids)
        new = len(ids - seen)
        if new_images is None:  # the second episode overlaps the first
            assert 0 < new < len(ids)
        else:
            assert new == new_images
        assert calls == {"text": int(new > 0), "clsa": int(new > 0), "images": new}
        assert_same_scores(run, run_episode(cfg, store, dataset, index,
                                            train=False, model=copy_of(cfg, model)))
        seen |= ids
        calls.update(text=0, clsa=0, images=0)


def test_memo_resets_when_parameters_or_store_change(world, tmp_path, monkeypatch):
    cfg, store, dataset = world
    model = model_from_config(cfg)
    save_checkpoint(run_episode(cfg, store, dataset, 2).model, str(tmp_path / "m.ckpt"))
    scaled = FeatureStore(feats={t: 1.5 * a for t, a in store.feats.items()},
                          labels=store.labels)

    def edit_in_place():
        named_parameters(model)["clsa.beta_v"].data[...] = 0.5
        named_parameters(model)["rav.2.up"].data += 0.1

    changes = [(lambda: None, store, False),
               (edit_in_place, store, False),
               (lambda: apply_checkpoint(model, str(tmp_path / "m.ckpt")), store,
                False),
               (lambda: None, scaled, False),
               (lambda: None, store, True)]  # train on top of the checkpoint
    before = None
    for change, features, train in changes:
        change()
        want_model = copy_of(cfg, model)
        got = run_episode(cfg, features, dataset, 1, train=train, model=model)
        want = run_episode(cfg, features, dataset, 1, train=train, model=want_model)
        assert_same_scores(got, want)
        if before is not None:  # each change moves the scores
            assert not np.array_equal(got.report.sem_raw, before.report.sem_raw)
        before = got

    # the memo's key is the exact bytes of the episode tensors: an in-place
    # edit undone before the next align keeps the memo, one ulp resets it
    forwards = []
    forward = fmodel.forward
    monkeypatch.setattr(fmodel, "forward", lambda *a: forwards.append(1) or forward(*a))
    up = named_parameters(model)["rav.2.up"]
    saved = up.data.copy()
    up.data += 0.1
    up.data[...] = saved
    kept = run_episode(cfg, store, dataset, 1, train=False, model=model)
    assert forwards == []
    assert_same_scores(kept, run_episode(cfg, store, dataset, 1, train=False,
                                         model=copy_of(cfg, model)))
    forwards.clear()
    up.data.flat[0] = np.nextafter(up.data.flat[0], np.inf)
    reset = run_episode(cfg, store, dataset, 1, train=False, model=model)
    assert forwards == [1]  # the episode's 10 images fit one block
    assert_same_scores(reset, run_episode(cfg, store, dataset, 1, train=False,
                                          model=copy_of(cfg, model)))


def test_memo_takes_only_aligned_images(world):
    # an image not aligned yet used to be scored from uninitialized rows
    cfg, store, _ = world
    memo = fmodel.align(model_from_config(cfg), store, [0, 1, 12, 13])
    assert memo.take([13, 0]).ids.tolist() == [13, 0]
    with pytest.raises(ContractError, match="image 2 is not aligned yet"):
        memo.take([0, 2, 14])
    with pytest.raises(ContractError, match=r"image id 24 outside \[0, 24\)"):
        memo.take([24])


def test_stacking_a_scored_model_copies_no_memo(world):
    cfg, store, dataset = world
    scored = run_episode(cfg, store, dataset, 0, train=False).model
    stacked = stack_models([scored, model_from_config(cfg, RunSpec(1))])
    assert stacked._memo is None
    assert scored._memo.store is store


def counted_norms(monkeypatch):
    """Counts of ``nc.cosine_rows`` calls and of row norms: ``np.linalg.norm``
    calls over arrays of rows (a prototype's norm is over one vector)."""
    calls = {"cosine_rows": 0, "row_norms": 0}
    cosine_rows, norm = nc.cosine_rows, np.linalg.norm

    def counted_cosine(*args):
        calls["cosine_rows"] += 1
        return cosine_rows(*args)

    def counted_norm(x, *args, **kwargs):
        calls["row_norms"] += np.ndim(x) > 1
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(nc, "cosine_rows", counted_cosine)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


def test_a_memo_full_episode_computes_no_row_norm(world, monkeypatch, tmp_path):
    cfg, store, dataset = world
    model = model_from_config(cfg)
    save_checkpoint(run_episode(cfg, store, dataset, 2).model, str(tmp_path / "m.ckpt"))
    first = run_episode(cfg, store, dataset, 0, train=False, model=model)
    ids = np.concatenate((first.episode.support_ids, first.episode.query_ids))
    calls = counted_norms(monkeypatch)
    again = run_episode(cfg, store, dataset, 0, train=False, model=model)
    assert calls == {"cosine_rows": 0, "row_norms": 0}
    assert_same_scores(again, first)
    before = None
    for change, train in ((lambda: None, False),
                          (lambda: apply_checkpoint(model, str(tmp_path / "m.ckpt")),
                           False),
                          (lambda: None, True)):  # train on top of the checkpoint
        change()
        run_episode(cfg, store, dataset, 0, train=train, model=model)
        memo = model._memo
        if before is not None:  # each change recomputes every image's norms
            assert calls["row_norms"] == len(memo.unit)  # one block per tap
            assert not np.array_equal(memo.unit[2][ids], before)
        with nc.no_grad():
            out = forward(model, {t: nc.Tensor(a) for t, a in
                                  store.take(list(memo.unit), ids).items()})
        for t, rows in out.visual.items():  # bit for bit, floor included
            unit, mean = summaries(rows.data)
            assert np.array_equal(memo.unit[t][ids], unit), t
            assert np.array_equal(memo.mean[t][ids], mean), t
        before = memo.unit[2][ids].copy()
        calls.update(cosine_rows=0, row_norms=0)


def test_a_memo_full_episode_builds_each_prototype_direction_once(world, monkeypatch):
    # the prototype directions are built once per episode, one 1-D norm per
    # class row and tap, not again for each scored batch (which took 4 per tap)
    cfg, store, dataset = world
    model = model_from_config(cfg)
    first = run_episode(cfg, store, dataset, 0, train=False, model=model)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda x, *a, **k: norms.append(np.ndim(x)) or norm(x, *a, **k))
    again = run_episode(cfg, store, dataset, 0, train=False, model=model)
    assert norms == [1] * 2 * len(model.spec.selected_visual)
    assert_same_scores(again, first)
    for name in ("sem_norm", "proto_norm", "labels"):
        assert np.array_equal(getattr(again.report, name), getattr(first.report, name))


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
    assert len([t for t in grid.cells["seq_dual"].traces if t]) == cfg["episode.count"]


def test_strategy_cells_carry_their_runs_training_traces(world):
    cfg, store, dataset = world
    cells = strategy_grid(cfg, store, dataset).cells
    assert cells["untrained_sem"].traces == cells["untrained_dual"].traces == (
        [[]] * cfg["episode.count"])
    # the two readings of one training read one run, so one trace
    assert cells["none_sem"].traces == cells["none_dual"].traces
    for name in ("none_dual", "v2t_dual", "t2v_dual", "seq_dual"):
        assert [len(t) for t in cells[name].traces] == (
            [cfg["train.epochs"]] * cfg["episode.count"])


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
    none_clsa = replace(cfg.section("clsa"), strategy="none")
    none_aucs = [run_episode(cfg, store, dataset, i, model=model_from_config(
                     cfg, RunSpec(i, clsa=none_clsa))).metrics.auc
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
    sigmoid = nc.sigmoid
    rows = gradcheck_all(cfg, corrupt=True)
    assert any(not r.ok for r in rows)
    sigmoid_row = [r for r in rows if r.name == "sigmoid"][0]
    assert not sigmoid_row.ok
    # the corrupted sigmoid must not leak
    assert nc.sigmoid is sigmoid
    clean = gradcheck_ops()
    assert all(r.ok for r in clean)
