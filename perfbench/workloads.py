"""The three benchmark workloads: configs, input pools, set-up and operations.

Every operation calls fsad through module attributes (``runner.run_episode``,
not a name bound at import time), so the tracer's wrappers see each call.

Inputs come from a fixed pool per workload. A run walks a seeded permutation
of its pool, so one seed always gives the same inputs and any seed maps to
pool entries whose AUC and AP are recorded in ``references.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from fsad import model as fmodel
from fsad import runner, synthdata
from fsad.config import RunConfig

# the acceptance-suite training protocol (README "benchmark protocol")
PROTOCOL = {"train.epochs": 100, "train.lr_fast": 0.03, "train.lr_slow": 0.003}

# episode indices of each pool start here, away from episode 0, on which the
# eval_wide checkpoint is trained
GRID_BASE = 9000
TRAIN_BASE = 5000
EVAL_BASE = 1000

STRATEGY_CELLS = ("untrained_sem", "none_sem", "none_dual", "v2t_dual",
                  "t2v_dual", "seq_dual")  # rows 1-6 of the strategy grid


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    pool: int           # entries in the input pool
    trace_ops: int      # operations in each pass of a traced run
    tail_pct: int       # percentile reported as episode_s.tail

    def config(self, **extra) -> RunConfig:
        return RunConfig({**PROTOCOL, **self.overrides, **extra})

    def order(self, seed: int) -> list[int]:
        """The pool entries a run with this seed visits, in order."""
        return random.Random(seed).sample(range(self.pool), self.pool)

    def queries_per_unit(self) -> int:
        return 2 * self.config()["episode.query_per_class"]


WORKLOADS = {w.name: w for w in (
    # fsad ablate + fsad sweep --which all: 2 episodes per cycle, so
    # cross-episode batching has seeds to batch; of the 15 trainings per
    # episode, the seq row, the stage "all" row and the lambda sweep train
    # the same model
    Workload("grid", {"episode.count": 2}, pool=12, trace_ops=1, tail_pct=50),
    # fsad train: one seq training at k=16 (two 16-row batches per epoch)
    # plus its checkpoint save; nothing is shared between operations
    Workload("train_single", {"episode.k": 16}, pool=128, trace_ops=2,
             tail_pct=50),
    # fsad eval: a fixed checkpoint scores 392 queries per episode, all of
    # the corpus outside the support set; no tape, no optimizer. A 15 s run
    # scores 60-100 episodes: p75 always has 10 samples beyond it, while p90
    # would have them only when the host runs fast, so the tail is p75
    Workload("eval_wide", {"episode.query_per_class": 196}, pool=2048,
             trace_ops=24, tail_pct=75),
)}


@dataclass
class World:
    dataset: list
    store: runner.FeatureStore
    model: fmodel.Model | None


def prepare_checkpoint(path: str) -> None:
    """Train and save the fixed seq checkpoint that eval_wide scores with."""
    cfg = WORKLOADS["eval_wide"].config()
    dataset = synthdata.generate_dataset(cfg.dataset_spec())
    store = runner.build_feature_store(cfg.backbone_spec(), dataset)
    run = runner.run_episode(cfg, store, dataset, 0)
    fmodel.save_checkpoint(run.model, path)


def setup(w: Workload, checkpoint: str | None) -> World:
    """What a CLI command does before its first episode."""
    cfg = w.config()
    dataset = synthdata.generate_dataset(cfg.dataset_spec())
    store = runner.build_feature_store(cfg.backbone_spec(), dataset)
    model = None
    if w.name == "eval_wide":
        model = runner.model_from_config(cfg)
        fmodel.apply_checkpoint(model, checkpoint)
    return World(dataset, store, model)


def warm_up(w: Workload, world: World) -> None:
    """One untimed scoring pass so lazy numpy and BLAS set-up is paid."""
    cfg = w.config()
    runner.run_episode(cfg, world.store, world.dataset, 0, train=False)


def grid_parts(w: Workload, entry: int, world: World, count: int | None = None):
    """The four report calls of one grid cycle as (name, units, call) triples.

    Each call returns {episode seed: [[auc, ap], ...]} in report order.
    """
    cfg = w.config()
    count = count or cfg["episode.count"]
    first = GRID_BASE + 2 * entry
    cfg = w.config(**{"episode.count": count, "episode.seed": first,
                      "model.seed": cfg["model.seed"] + first})
    seeds = [first + i for i in range(count)]
    ds, store = world.dataset, world.store
    stages = len(cfg.backbone_spec().selected_visual) + 1

    def strategy():
        g = runner.strategy_grid(cfg, store, ds)
        return {s: [[g.cells[c].aucs[i], g.cells[c].aps[i]] for c in STRATEGY_CELLS]
                for i, s in enumerate(seeds)}

    def stage():
        g = runner.stage_grid(cfg, store, ds)
        return {s: [[cell.aucs[i], cell.aps[i]] for cell in g.cells.values()]
                for i, s in enumerate(seeds)}

    def sweep(fn):
        def call():
            rows = [r for r in fn(cfg, store, ds) if r["seed"] != "mean"]
            return {s: [[r["auc"], r["ap"]] for r in rows if r["seed"] == s]
                    for s in seeds}
        return call

    return [("strategy_grid", len(STRATEGY_CELLS) * count, strategy),
            ("stage_grid", stages * count, stage),
            ("lambda_sweep", len(runner.LAMBDA_POINTS) * count,
             sweep(runner.lambda_sweep)),
            ("beta_sweep", len(runner.BETA_POINTS) * count,
             sweep(runner.beta_sweep))]


def parts(w: Workload, entry: int, world: World, work_dir: str,
          count: int | None = None):
    """One operation of the workload, split into watchdog-sized calls."""
    if w.name == "grid":
        return grid_parts(w, entry, world, count)
    cfg = w.config()
    if w.name == "train_single":
        index = TRAIN_BASE + entry

        def train():
            run = runner.run_episode(cfg, world.store, world.dataset, index)
            fmodel.save_checkpoint(run.model, f"{work_dir}/train.ckpt")
            return {index: [[run.metrics.auc, run.metrics.ap]]}
        return [("train", 1, train)]
    index = EVAL_BASE + entry

    def evaluate():
        run = runner.run_episode(cfg, world.store, world.dataset, index,
                                 train=False, model=world.model)
        return {index: [[run.metrics.auc, run.metrics.ap]]}
    return [("eval", 1, evaluate)]
