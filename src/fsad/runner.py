"""Benchmark orchestration: cached features, episode runs, grids, sweeps.

Frozen visual features are encoded once per corpus, rendered and encoded
``SCORE_BLOCK`` images at a time, and sliced per episode and per tap
subset, so ablation grids never re-run the image tower; a
model aligns each image once while its parameters stay fixed
(``model.align``), so evaluation episodes share alignments. Every grid
and sweep is a list of points, ``(RunSpec, ensemble weight)`` pairs, that
``_cells`` reads through one plan (``run_plan``; ``fsad ablate``'s two
grids are one list, ``ablate``). A plan trains each distinct key once and
reads that run for every spec that asked for it; its trained episodes of
the same structure share one tape (``model.stack_models``), each
bit-identical to training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import inputs, numcore as nc, synthdata
from .backbone import SCORE_BLOCK, BackboneSpec, ToyEncoder, encode_images
from .clsa import ClsaSpec
from .config import RunConfig
from .errors import ConfigError, ContractError
from .evalmetrics import (MetricReport, auc, average_precision, compute_report,
                          threshold_from_support)
from .inference import ScoreReport, build_prototypes, ensemble, score_batch
from .model import (Model, align, init_model, named_parameters,
                    parameter_groups, stack_models, unstack_model)
from .numcore import GradTape, Tensor, backward
from .synthdata import Episode, EpisodeSpec, Sample, sample_episode
from .training import TraceRow, bce_loss, train_episode, training_scores

LAMBDA_POINTS = tuple(round(0.1 * i, 1) for i in range(11))
BETA_POINTS = (0.0, 0.25, 0.5, 1.0, 2.0)
GRADCHECK_TOL = 1e-4
GRADCHECK_COORDS = 8  # sampled coordinates per parameter in the episode check
# Episodes per stack at any k: per-episode step time stops falling beyond
# about five, while each further episode still adds its activations.
MAX_STACK = 5


# ---------------------------------------------------------------------------
# frozen features

@dataclass
class FeatureStore:
    """A corpus's frozen features, per visual tap an [N, P, d] array, and N labels."""

    feats: dict[int, np.ndarray]
    labels: np.ndarray

    def take(self, taps, ids) -> dict[int, np.ndarray]:
        """Rows ``ids`` at each of ``taps``: ids of shape S give [*S, P, d],
        e.g. [B, P, d] for a support set, [E, B, P, d] for a stack's."""
        missing = [t for t in taps if t not in self.feats]
        if missing:
            raise ConfigError(f"taps {missing} not present in feature store "
                              f"(has {sorted(self.feats)})")
        idx = inputs.ids(ids, self.labels.size, ContractError)
        return {t: self.feats[t][idx] for t in taps}


# perfbench/record.py gathers through the module-level name
take = FeatureStore.take


def build_feature_store(spec: BackboneSpec, dataset: list[Sample]) -> FeatureStore:
    """Encode every sample once through the frozen visual tower.

    The samples are rendered ``SCORE_BLOCK`` at a time, each block as one
    [b, H, W, 3] array (``synthdata.render``), encoded in one pass of
    ``encode_images`` and its taps written into [N, P, d] arrays allocated
    once, so at most one block of pixels and tower buffers is alive.
    """
    enc = ToyEncoder(spec, "visual")
    feats = {layer: np.empty((len(dataset), spec.patches, spec.d))
             for layer in sorted(enc.taps)}  # encode_images's order
    for lo in range(0, len(dataset), SCORE_BLOCK):
        block = encode_images(enc, synthdata.render(dataset[lo:lo + SCORE_BLOCK]))
        for layer, rows in block.items():
            feats[layer][lo:lo + len(rows)] = rows
    return FeatureStore(feats=feats,
                        labels=np.array([s.label for s in dataset], dtype=np.int64))


# ---------------------------------------------------------------------------
# single episode

@dataclass
class EpisodeRun:
    """One trained-and-scored episode with everything a report needs."""

    index: int
    episode_seed: int
    model: Model
    episode: Episode
    trace: list[TraceRow]
    report: ScoreReport
    support_report: ScoreReport
    metrics: MetricReport


@dataclass(frozen=True)
class RunSpec:
    """One episode run a report asks for: episode ``index`` under a model
    recipe, trained on its support or scored as initialized. None fields
    take the run config's value (``key``)."""

    index: int = 0
    mspec: BackboneSpec | None = None
    clsa: ClsaSpec | None = None
    train: bool = True

    def key(self, cfg: RunConfig) -> "RunSpec":
        """This spec with its None fields resolved against ``cfg``: specs
        with one key under one config are one training."""
        return replace(self, mspec=self.mspec or cfg.backbone_spec(),
                       clsa=self.clsa or cfg.section("clsa"))

    def structure(self) -> "RunSpec":
        """Keys that agree here may share a stack: they differ only in
        their episode (support set, model seed) and initial gate value."""
        return replace(self, index=0, clsa=replace(self.clsa, gate_init=0.0))


def model_from_config(cfg: RunConfig, spec: RunSpec = RunSpec()) -> Model:
    """The freshly initialized model of one spec, seeded by its episode."""
    key = spec.key(cfg)
    return init_model(key.mspec, cfg["model.seed"] + key.index,
                      cfg.section("adapt"), key.clsa)


def _sample(episode: EpisodeSpec, dataset: list[Sample], index: int) -> Episode:
    return sample_episode(dataset, episode.k, episode.seed + index,
                          episode.query_per_class)


def run_episode(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
                index: int = 0, *, train: bool = True,
                model: Model | None = None) -> EpisodeRun:
    """Sample episode ``index``, optionally train on its support, score its
    queries, and derive metrics with a support-calibrated threshold.

    ``model`` defaults to the config's model for this episode; its taps
    select the features, and ``infer.*`` sets the scoring."""
    infer, episode = cfg.section("infer"), cfg.section("episode")
    ep = _sample(episode, dataset, index)
    if model is None:
        model = model_from_config(cfg, RunSpec(index))
    # the episode's ids become one array here; align checks it and aligns
    # every image, so the memo's batches are its slices, checked no further
    ids = np.asarray(ep.support_ids + ep.query_ids)
    k = len(ep.support_ids)
    labels = store.labels[ids]
    ysup, yq = labels[:k], labels[k:]
    trace = (train_episode(model, store.take(model.spec.selected_visual, ids[:k]),
                           ysup, cfg.train_config())
             if train else [])
    memo = align(model, store, ids)
    sup, qry = memo._take(ids[:k]), memo._take(ids[k:])
    protos = build_prototypes(sup, ysup)
    report = score_batch(qry, yq, protos, infer)
    sup_report = score_batch(sup, ysup, protos, infer)
    thr = threshold_from_support(sup_report.final, ysup)
    metrics = compute_report(report.final, yq, thr)
    return EpisodeRun(index=index, episode_seed=episode.seed + index,
                      model=model, episode=ep, trace=trace, report=report,
                      support_report=sup_report, metrics=metrics)


# ---------------------------------------------------------------------------
# run plans

def run_plan(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
             specs: list[RunSpec], read) -> list:
    """Run every spec, score it through ``run_episode`` and return
    ``read(run)`` for each, in request order.

    Specs with one ``key`` are one run: it is trained and scored once and
    read for each spec that asked for it, so ``read`` must not mutate it.
    Same-structure keys run together, up to ``MAX_STACK`` episodes at a
    time; a trained group of two or more shares one tape, and
    ``run_episode`` trains a group of one. Each run is read as soon as it
    is scored and then dropped, so one stack of models is alive at a time
    and one alignment memo (``model.align``) at most.
    """
    tcfg, episode = cfg.train_config(), cfg.section("episode")
    positions: dict[RunSpec, list[int]] = {}
    for pos, spec in enumerate(specs):
        positions.setdefault(spec.key(cfg), []).append(pos)
    groups: dict[RunSpec, list[RunSpec]] = {}
    for key in positions:
        groups.setdefault(key.structure(), []).append(key)
    out: list = [None] * len(specs)
    for structure, keys in groups.items():
        for lo in range(0, len(keys), MAX_STACK):
            stack = keys[lo:lo + MAX_STACK]
            models = [model_from_config(cfg, key) for key in stack]
            traces = [None] * len(stack)  # None: not trained yet
            if structure.train and len(stack) > 1:
                ids = np.array([_sample(episode, dataset, key.index).support_ids
                                for key in stack])  # [E, B]
                stacked = stack_models(models)
                feats = store.take(stacked.spec.selected_visual, ids)
                traces = train_episode(stacked, feats, store.labels[ids], tcfg)
                unstack_model(stacked, models)
            for key, trace in zip(stack, traces):
                run = run_episode(cfg, store, dataset, key.index,
                                  train=structure.train and trace is None,
                                  model=models.pop(0))
                run = run if trace is None else replace(run, trace=trace)
                for pos in positions[key]:
                    out[pos] = read(run)
                del run  # drops the model and its alignment memo
    return out


def eval_at_lambda(report: ScoreReport, lam: float) -> tuple[float, float]:
    """Re-blend an existing report at a different ensemble weight."""
    final = ensemble(report.sem_norm, report.proto_norm, lam)
    return auc(final, report.labels), average_precision(final, report.labels)


# ---------------------------------------------------------------------------
# grids and sweeps

@dataclass
class Cell:
    """One grid cell or sweep point: the per-seed AUC/AP of its runs and
    each run's training trace (empty if the run was untrained)."""

    seeds: list[int]
    aucs: list[float]
    aps: list[float]
    traces: list[list[TraceRow]]

    @property
    def auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def ap(self) -> float:
        return float(np.mean(self.aps))


def _cells(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
           points: list[tuple[RunSpec, float]]) -> list[Cell]:
    """One cell per point, a ``(spec, ensemble weight)`` pair, from one plan:
    cell j reads every episode of point j's spec at point j's weight."""
    count = cfg.section("episode").count
    runs = run_plan(cfg, store, dataset,
                    [replace(spec, index=i) for spec, _ in points for i in range(count)],
                    lambda run: (run.episode_seed, run.report, run.trace))
    cells = []
    for j, (_, weight) in enumerate(points):
        point = runs[j * count:(j + 1) * count]
        scored = [eval_at_lambda(report, weight) for _, report, _ in point]
        cells.append(Cell([seed for seed, _, _ in point], [a for a, _ in scored],
                          [p for _, p in scored], [trace for _, _, trace in point]))
    return cells


@dataclass
class Grid:
    """A grid's table rows and its per-seed cells by name, in point order."""

    rows: list[dict]
    cells: dict[str, Cell]


def _grid(layout: list[tuple], cells: list[Cell]) -> Grid:
    """A grid from its ``(name, point, row)`` layout and the first cells of
    its points: each row (None: the cell has none) gains the mean AUC and AP."""
    return Grid([{**row, "auc": cell.auc, "ap": cell.ap}
                 for (_, _, row), cell in zip(layout, cells) if row],
                {name: cell for (name, _, _), cell in zip(layout, cells)})


# the strategy grid's cells in row order, each one reading of a training or
# of an untrained model: (cell, table row, trained, strategy, dual branch)
STRATEGY_CELLS = (
    ("untrained_sem", 1, False, "none", False),
    ("untrained_dual", None, False, "none", True),
    ("none_sem", 2, True, "none", False),
    ("none_dual", 3, True, "none", True),
    ("v2t_dual", 4, True, "v2t", True),
    ("t2v_dual", 5, True, "t2v", True),
    ("seq_dual", 6, True, "seq", True),
)


def _strategy_layout(cfg: RunConfig) -> list[tuple]:
    """Grid over adaptation components and alignment strategies, one point
    per ``STRATEGY_CELLS`` entry, read at ``infer.lam`` on the dual branch
    and at 1.0 (semantic only) otherwise.

    Row 1 is the zero-adaptation baseline (nothing trained, semantic branch
    only). Rows 2 and 3 read one training run per seed and differ only in
    the evaluation branch blend.
    """
    lam, clsa = cfg.section("infer").lam, cfg.section("clsa")
    return [(name, (RunSpec(clsa=replace(clsa, strategy=strategy), train=trained),
                    lam if dual else 1.0),
             row and {"row": row, "adapters": trained, "strategy": strategy,
                      "dual": dual})
            for name, row, trained, strategy, dual in STRATEGY_CELLS]


def stage_specs(spec: BackboneSpec) -> list[tuple[str, BackboneSpec]]:
    """One single-pair spec per mapped stage, then the full multi-stage spec."""
    out = []
    for i, (vl, tl) in enumerate(spec.pairs, start=1):
        out.append((f"stage{i}", replace(spec, selected_visual=(vl,),
                                         selected_text=(tl,))))
    out.append(("all", spec))
    return out


def _stage_layout(cfg: RunConfig) -> list[tuple]:
    """Adaptation-depth ablation: one point per ``stage_specs`` entry, at
    the configured strategy and ``infer.lam``."""
    lam = cfg.section("infer").lam
    return [(name, (RunSpec(mspec=mspec), lam),
             {"stage": name, "visual_taps": ",".join(map(str, mspec.selected_visual)),
              "text_taps": ",".join(map(str, mspec.selected_text))})
            for name, mspec in stage_specs(cfg.backbone_spec())]


def strategy_grid(cfg: RunConfig, store: FeatureStore, dataset: list[Sample]) -> Grid:
    """The seed-averaged ``_strategy_layout`` grid."""
    layout = _strategy_layout(cfg)
    return _grid(layout, _cells(cfg, store, dataset, [p for _, p, _ in layout]))


def stage_grid(cfg: RunConfig, store: FeatureStore, dataset: list[Sample]) -> Grid:
    """The seed-averaged ``_stage_layout`` grid."""
    layout = _stage_layout(cfg)
    return _grid(layout, _cells(cfg, store, dataset, [p for _, p, _ in layout]))


def ablate(cfg: RunConfig, store: FeatureStore,
           dataset: list[Sample]) -> tuple[Grid, Grid]:
    """Both grids of ``fsad ablate`` from one plan, so a training both ask
    for (the ``all`` stage is the configured strategy's row) runs once."""
    strategy, stage = _strategy_layout(cfg), _stage_layout(cfg)
    cells = _cells(cfg, store, dataset, [p for _, p, _ in strategy + stage])
    return _grid(strategy, cells), _grid(stage, cells[len(strategy):])


# ---------------------------------------------------------------------------
# sensitivity sweeps

def _sweep_rows(parameter: str, values, cells: list[Cell]) -> list[dict]:
    """One row per seed and a closing mean row per value, from its cell."""
    if not values:
        raise ConfigError("sweep grid is empty")
    rows = []
    for value, cell in zip(values, cells):
        rows += [{"parameter": parameter, "value": value, "seed": seed, "auc": a, "ap": p}
                 for seed, a, p in zip(cell.seeds, cell.aucs, cell.aps)]
        rows.append({"parameter": parameter, "value": value, "seed": "mean",
                     "auc": cell.auc, "ap": cell.ap})
    return rows


def lambda_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
                 points=LAMBDA_POINTS) -> list[dict]:
    """One training run per seed, re-blended at every ensemble weight."""
    return _sweep_rows("lambda", points, _cells(
        cfg, store, dataset, [(RunSpec(), lam) for lam in points]))


def beta_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
               points=BETA_POINTS) -> list[dict]:
    """Fixed, non-learnable gate values; a full training run per point.
    Stacks span gate values: the gate is a value, not a structure."""
    lam, clsa = cfg.section("infer").lam, cfg.section("clsa")
    return _sweep_rows("beta", points, _cells(cfg, store, dataset, [
        (RunSpec(clsa=replace(clsa, gate_init=float(beta), gates_learnable=False)), lam)
        for beta in points]))


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckRow:
    name: str
    group: str
    rel_err: float
    ok: bool


def _rel_errs(loss, tensors: list[Tensor], picks: list[np.ndarray]) -> list[float]:
    """Per tensor, the worst gap between the tape gradient of the scalar
    ``loss()`` and central differences at its flat coordinates ``picks``,
    over the largest difference (floored at 1e-3). Each difference re-runs
    ``loss()`` under ``no_grad`` on a patched copy of the tensor's data."""
    with GradTape() as tape:
        out = loss()
    backward(out, tape)
    errs = []
    for t, picked in zip(tensors, picks, strict=True):
        def patched(probe: Tensor, t=t, picked=picked) -> float:
            orig = t.data
            t.data = orig.copy()
            t.data.reshape(-1)[picked] = probe.data
            try:
                with nc.no_grad():
                    return float(loss().data)
            finally:
                t.data = orig

        fd = nc.finite_diff_grad(patched, Tensor(t.data.reshape(-1)[picked]))
        ag = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)[picked]
        scale = max(float(np.max(np.abs(fd), initial=0.0)), 1e-3)
        errs.append(float(np.max(np.abs(ag - fd), initial=0.0)) / scale)
    return errs


def gradcheck_ops() -> list[GradCheckRow]:
    """Finite-difference check of every differentiable tensor operation."""
    rng = np.random.default_rng(np.random.SeedSequence((0, 77)))
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    pos = np.abs(rng.normal(size=(3, 4))) + 0.5
    # keep clip inputs away from the clamp boundaries where the derivative
    # is undefined and finite differences straddle the kink
    clip_in = rng.uniform(-1.0, 1.0, size=(3, 4))
    clip_in[np.abs(np.abs(clip_in) - 0.5) < 0.02] += 0.05
    q = rng.normal(size=(3, 8))
    k = rng.normal(size=(5, 8))
    v = rng.normal(size=(5, 8))
    checks = [
        ("add", lambda t: nc.add(t[0], t[1]), [a, b]),
        ("sub", lambda t: nc.sub(t[0], t[1]), [a, b]),
        ("mul", lambda t: nc.mul(t[0], t[1]), [a, b]),
        ("scale", lambda t: nc.scale(t[0], 1.7), [a]),
        ("mean_axis", lambda t: nc.mean_axis(t[0], 1), [a]),
        ("sum_all", lambda t: nc.sum_all(t[0]), [a]),
        ("sum_last", lambda t: nc.sum_last(t[0]), [a]),
        ("matmul", lambda t: nc.matmul(t[0], t[1]),
         [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))]),
        ("matmul_batched", lambda t: nc.matmul(t[0], t[1]),
         [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))]),
        ("transpose", lambda t: nc.transpose(t[0]), [a]),
        ("reshape", lambda t: nc.reshape(t[0], (2, 6)), [a]),
        ("concat", lambda t: nc.concat(t, axis=0), [a, b]),
        ("narrow", lambda t: nc.narrow(t[0], 0, 1, 2), [a]),
        ("sigmoid", lambda t: nc.sigmoid(t[0]), [a]),
        ("silu", lambda t: nc.silu(t[0]), [a]),
        ("exp", lambda t: nc.exp(t[0]), [a * 0.5]),
        ("log", lambda t: nc.log(t[0]), [pos]),
        ("clip", lambda t: nc.clip(t[0], -0.5, 0.5), [clip_in]),
        ("softmax_rows", lambda t: nc.softmax_rows(t[0]), [a]),
        ("layernorm_rows", lambda t: nc.layernorm_rows(t[0]), [a]),
        ("cosine_rows", lambda t: nc.cosine_rows(t[0], t[1]),
         [a, rng.normal(size=4) + 0.1]),
        ("attention", lambda t: nc.attention(t[0], t[1], t[2], 2), [q, k, v]),
        ("attention_batched", lambda t: nc.attention(t[0], t[1], t[2], 2),
         [rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 5, 8)),
          rng.normal(size=(2, 5, 8))]),
    ]
    rows = []
    for name, build, args in checks:
        ts = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in args]
        with nc.no_grad():
            proj = Tensor(rng.normal(size=build(ts).shape))
        worst = max(_rel_errs(lambda: nc.sum_all(nc.mul(build(ts), proj)), ts,
                              [np.arange(t.data.size) for t in ts]))
        rows.append(GradCheckRow(name, "op", worst, worst < GRADCHECK_TOL))
    return rows


def gradcheck_episode(cfg: RunConfig) -> list[GradCheckRow]:
    """Sampled-coordinate finite-difference check of the full episode loss
    against every learnable tensor, at a randomized parameter point.

    Parameters are jittered away from their inits first; the zero-initialized
    up-projections and closed gates would otherwise hide entire gradient
    paths behind structural zeros.
    """
    rng = np.random.default_rng(np.random.SeedSequence((0, 78)))
    spec = cfg.backbone_spec()
    model = model_from_config(cfg)
    params = named_parameters(model)
    for name, p in params.items():
        jitter = 0.02 if name == "logit.rho" else 0.05
        p.data = p.data + rng.normal(0.0, jitter, size=p.shape)
    feats = {l: 0.3 * rng.normal(size=(4, spec.patches, spec.d))
             for l in spec.selected_visual}
    labels = np.array([0, 1, 0, 1])
    batch = {l: Tensor(a) for l, a in feats.items()}
    picks = [rng.choice(p.data.size, size=min(GRADCHECK_COORDS, p.data.size),
                        replace=False) for p in params.values()]
    errs = _rel_errs(lambda: bce_loss(training_scores(model, batch), labels),
                     list(params.values()), picks)
    return [GradCheckRow(name, group, rel, rel < GRADCHECK_TOL) for (name, group), rel
            in zip(parameter_groups(model).items(), errs, strict=True)]


def gradcheck_all(cfg: RunConfig, corrupt: bool = False) -> list[GradCheckRow]:
    """Op suite plus episode-loss suite; ``corrupt`` runs both with a wrong
    sigmoid derivative, a negative control the checks must fail."""
    sigmoid = nc.sigmoid

    def corrupted(x: Tensor) -> Tensor:
        # y + 0.01 * (y - y): the same forward, a backward 1.01 times too large
        y = sigmoid(x)
        return nc.add(y, nc.scale(nc.sub(y, Tensor(y.data)), 0.01))

    if corrupt:
        nc.sigmoid = corrupted
    try:
        return gradcheck_ops() + gradcheck_episode(cfg)
    finally:
        nc.sigmoid = sigmoid
