"""The benchmark's tracer wraps fsad functions by name; each must exist, and
its hooks must read the arguments a real run passes. The benchmark's
recorder checks the tape length of one training step before it records."""

import ast
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

from fsad.config import RunConfig
from fsad.numcore import GradTape, Tensor
from fsad.runner import (RunSpec, ablate, build_feature_store,
                         model_from_config, run_plan, stage_grid, strategy_grid)
from fsad.synthdata import generate_dataset, sample_episode
from fsad.training import bce_loss, training_scores

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

TINY = {
    "backbone.d": 16, "backbone.vision_layers": 4, "backbone.text_layers": 2,
    "backbone.visual_taps": (2, 4), "backbone.text_taps": (1, 2),
    "backbone.patch_grid": (2, 2),
    "data.n_normal": 8, "data.n_abnormal": 8, "data.height": 16,
    "data.width": 16, "data.blob_radius_min": 2.0, "data.blob_radius_max": 4.0,
    "episode.k": 2, "episode.query_per_class": 3, "train.epochs": 1,
    "adapt.prompt_len": 4,
}


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_every_traced_function_exists(monkeypatch):
    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_hooks_see_a_stacked_and_a_single_training(monkeypatch):
    cfg = RunConfig(dict(TINY))
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    none = replace(cfg.section("clsa"), strategy="none")
    # a stack of two trains in one call on [E, B] support ids; the spec of
    # another structure trains alone through run_episode
    specs = [RunSpec(0), RunSpec(1), RunSpec(0, clsa=none)]
    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        run_plan(cfg, store, dataset, specs, lambda run: None)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["runner.trainings"] == 2
    assert metrics["numcore.tape_nodes_per_step"] > 0


def test_the_tracer_counts_no_repeated_training_in_one_plan_ablate(monkeypatch):
    cfg = RunConfig({**TINY, "episode.count": 2})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        # the grids one after the other train the seq stack twice, once as
        # the strategy grid's seq row and once as the all-stages row
        strategy_grid(cfg, store, dataset)
        stage_grid(cfg, store, dataset)
        apart = tracer.metrics()
        tracer.reset()
        ablate(cfg, store, dataset)
        together = tracer.metrics()
    finally:
        tracer.uninstall()
    assert apart["runner.trainings"] == apart["runner.distinct_trainings"] + 1
    assert together["runner.trainings"] == together["runner.distinct_trainings"]
    assert together["runner.distinct_trainings"] == apart["runner.distinct_trainings"]


def test_the_grid_seq_k4_step_has_the_recorded_tape_length():
    # perfbench/record.py refuses to record unless one seq step at k=4 on
    # the grid workload's config has this many nodes; the step is built as
    # its seq_k4_tape_nodes() builds it, on perfbench/workloads.py's grid
    # config (the benchmark protocol at episode.count=2)
    cfg = RunConfig({"train.epochs": 100, "train.lr_fast": 0.03,
                     "train.lr_slow": 0.003, "episode.count": 2})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    ep = sample_episode(dataset, 4, 0)
    feats = store.take(cfg.backbone_spec().selected_visual, ep.support_ids)
    with GradTape() as tape:
        scores = training_scores(model_from_config(cfg),
                                 {layer: Tensor(a) for layer, a in feats.items()})
        bce_loss(scores, store.labels[ep.support_ids])
    references = json.loads((PERFBENCH / "references.json").read_text())
    assert len(tape) == references["seq_k4_tape_nodes"]


def _perfbench_reads():
    """Every ``module.name`` that perfbench's sources read from fsad, found
    by parsing them: ``from fsad import M [as A]`` then ``A.name``, and
    ``from fsad.M import name``. Nothing under perfbench/ is imported."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "fsad":
                aliases.update({a.asname or a.name: f"fsad.{a.name}" for a in node.names})
            elif (node.module or "").startswith("fsad."):
                reads.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads.add((aliases[node.value.id], node.attr))
    return reads


def test_every_name_perfbench_reads_exists():
    # the tracer's list is checked above; these are the names that the
    # workloads, the worker and the recorder read directly, and no other
    # test reads some of them (runner.take, for one)
    reads = _perfbench_reads()
    assert ("fsad.runner", "run_episode") in reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_the_run_config_methods_perfbench_calls_exist():
    called = {node.func.attr for path in PERFBENCH.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    for name in ("backbone_spec", "dataset_spec", "hash"):
        assert name in called and callable(getattr(RunConfig, name, None))
