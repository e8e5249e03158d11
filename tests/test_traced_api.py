"""The benchmark's tracer wraps fsad functions by name; each must exist, and
its hooks must read the arguments a real run passes."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from fsad.config import RunConfig
from fsad.runner import RunSpec, build_feature_store, run_plan
from fsad.synthdata import generate_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

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
