"""Benchmark orchestration: cached features, episode runs, grids, sweeps.

Frozen visual features are encoded once per corpus and sliced per episode
and per tap subset, so ablation grids never re-run the image tower; a
model aligns each image once while its parameters stay fixed
(``model.align``), so evaluation episodes share alignments. A command's
runs are one plan of ``RunSpec`` values (``run_plan``; ``fsad ablate``'s
two grids are one, ``ablate``), which trains each distinct key once and
reads that run for every spec that asked for it; its trained episodes of
the same structure share one tape (``model.stack_models``), each
bit-identical to training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import inputs, numcore as nc
from .backbone import BackboneSpec, ToyEncoder, encode_images
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
    """Encode every sample once through the frozen visual tower."""
    return FeatureStore(
        feats=encode_images(ToyEncoder(spec, "visual"), [s.image for s in dataset]),
        labels=np.array([s.label for s in dataset], dtype=np.int64))


# ---------------------------------------------------------------------------
# single episode

@dataclass
class EpisodeRun:
    """One trained-and-scored episode with everything a report needs."""

    index: int
    episode_seed: int
    model: Model | None  # None in the runs a grid or sweep reads (``_runs``)
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
    ysup = store.labels[ep.support_ids]
    yq = store.labels[ep.query_ids]
    trace = (train_episode(model, store.take(model.spec.selected_visual,
                                             ep.support_ids), ysup, cfg.train_config())
             if train else [])
    memo = align(model, store, ep.support_ids + ep.query_ids)
    sup, qry = memo.take(ep.support_ids), memo.take(ep.query_ids)
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


def _runs(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
          specs: list[RunSpec]) -> list[EpisodeRun]:
    """A plan's runs without their models, as the grids and sweeps read them."""
    return run_plan(cfg, store, dataset, specs, lambda run: replace(run, model=None))


# ---------------------------------------------------------------------------
# grids and sweeps

@dataclass
class Cell:
    """One grid cell or sweep point: the per-seed AUC/AP of its runs."""

    seeds: list[int]
    aucs: list[float]
    aps: list[float]

    @property
    def auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def ap(self) -> float:
        return float(np.mean(self.aps))


def _cells(cfg: RunConfig, runs: list[EpisodeRun], weights) -> list[Cell]:
    """Cell j holds the j-th ``episode.count`` of a plan's runs, each report
    read at ensemble weight ``weights[j]``."""
    count, cells = cfg.section("episode").count, []
    for j, weight in enumerate(weights):
        point = runs[j * count:(j + 1) * count]
        scored = [eval_at_lambda(run.report, weight) for run in point]
        cells.append(Cell([run.episode_seed for run in point],
                          [a for a, _ in scored], [p for _, p in scored]))
    return cells


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


@dataclass
class StrategyGrid:
    """Six-row component/strategy table plus the raw per-seed cells."""

    rows: list[dict]
    cells: dict[str, Cell]
    loss_first: list[float]
    loss_last: list[float]


def strategy_plan(cfg: RunConfig) -> list[RunSpec]:
    """The strategy grid's runs: every episode for each of ``STRATEGY_CELLS``.
    The two readings of one training are one key, so they share its run."""
    count, clsa = cfg.section("episode").count, cfg.section("clsa")
    return [RunSpec(i, clsa=replace(clsa, strategy=strategy), train=trained)
            for _, _, trained, strategy, _ in STRATEGY_CELLS for i in range(count)]


def strategy_table(cfg: RunConfig, runs: list[EpisodeRun]) -> StrategyGrid:
    """Seed-averaged grid over adaptation components and alignment
    strategies, from the runs of ``strategy_plan(cfg)``.

    Row 1 is the zero-adaptation baseline (nothing trained, semantic branch
    only). Rows 2 and 3 read one training run per seed and differ only in
    the evaluation branch blend.
    """
    lam = cfg.section("infer").lam
    cells = dict(zip([name for name, *_ in STRATEGY_CELLS], _cells(
        cfg, runs, [lam if dual else 1.0 for *_, dual in STRATEGY_CELLS])))
    rows = [{"row": row, "adapters": trained, "strategy": strategy, "dual": dual,
             "auc": cells[name].auc, "ap": cells[name].ap}
            for name, row, trained, strategy, dual in STRATEGY_CELLS if row is not None]
    # the last cell's runs: the seq trainings
    seq = [run.trace for run in runs[-cfg.section("episode").count:] if run.trace]
    return StrategyGrid(rows=rows, cells=cells,
                        loss_first=[trace[0].loss for trace in seq],
                        loss_last=[trace[-1].loss for trace in seq])


def stage_specs(spec: BackboneSpec) -> list[tuple[str, BackboneSpec]]:
    """One single-pair spec per mapped stage, then the full multi-stage spec."""
    out = []
    for i, (vl, tl) in enumerate(zip(spec.selected_visual, spec.selected_text),
                                 start=1):
        out.append((f"stage{i}", replace(spec, selected_visual=(vl,),
                                         selected_text=(tl,))))
    out.append(("all", spec))
    return out


@dataclass
class StageGrid:
    """Single-stage rows plus the all-stages row, with per-seed cells."""

    rows: list[dict]
    cells: dict[str, Cell]


def stage_plan(cfg: RunConfig) -> list[RunSpec]:
    """The stage grid's runs: every episode under each of ``stage_specs``,
    at the configured strategy."""
    count = cfg.section("episode").count
    return [RunSpec(i, mspec=mspec) for _, mspec in stage_specs(cfg.backbone_spec())
            for i in range(count)]


def stage_table(cfg: RunConfig, runs: list[EpisodeRun]) -> StageGrid:
    """Seed-averaged adaptation-depth ablation, from the runs of
    ``stage_plan(cfg)``."""
    specs = stage_specs(cfg.backbone_spec())
    cells = dict(zip([name for name, _ in specs],
                     _cells(cfg, runs, [cfg.section("infer").lam] * len(specs))))
    return StageGrid(rows=[{"stage": name,
                            "visual_taps": ",".join(map(str, mspec.selected_visual)),
                            "text_taps": ",".join(map(str, mspec.selected_text)),
                            "auc": cells[name].auc, "ap": cells[name].ap}
                           for name, mspec in specs], cells=cells)


def strategy_grid(cfg: RunConfig, store: FeatureStore,
                  dataset: list[Sample]) -> StrategyGrid:
    """The strategy grid from a plan of its own runs."""
    return strategy_table(cfg, _runs(cfg, store, dataset, strategy_plan(cfg)))


def stage_grid(cfg: RunConfig, store: FeatureStore,
               dataset: list[Sample]) -> StageGrid:
    """The stage grid from a plan of its own runs."""
    return stage_table(cfg, _runs(cfg, store, dataset, stage_plan(cfg)))


def ablate(cfg: RunConfig, store: FeatureStore,
           dataset: list[Sample]) -> tuple[StrategyGrid, StageGrid]:
    """Both grids of ``fsad ablate`` from one plan, so a training both ask
    for (the ``all`` stage is the configured strategy's row) runs once."""
    strategy, stage = strategy_plan(cfg), stage_plan(cfg)
    runs = _runs(cfg, store, dataset, strategy + stage)
    return (strategy_table(cfg, runs[:len(strategy)]),
            stage_table(cfg, runs[len(strategy):]))


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
    specs = [RunSpec(i) for i in range(cfg.section("episode").count)]
    runs = _runs(cfg, store, dataset, specs * len(points))
    return _sweep_rows("lambda", points, _cells(cfg, runs, points))


def beta_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
               points=BETA_POINTS) -> list[dict]:
    """Fixed, non-learnable gate values; a full training run per point.
    Stacks span gate values: the gate is a value, not a structure."""
    count, clsa = cfg.section("episode").count, cfg.section("clsa")
    specs = [RunSpec(i, clsa=replace(clsa, gate_init=float(beta), gates_learnable=False))
             for beta in points for i in range(count)]
    runs = _runs(cfg, store, dataset, specs)
    return _sweep_rows("beta", points,
                       _cells(cfg, runs, [cfg.section("infer").lam] * len(points)))


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckRow:
    name: str
    group: str
    rel_err: float
    ok: bool


def _rel_err(ag: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(fd))) if fd.size else 0.0, 1e-3)
    return float(np.max(np.abs(ag - fd))) / scale if ag.size else 0.0


def _check_op(name: str, build, args: list[np.ndarray], rng) -> GradCheckRow:
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in args]
    with GradTape() as tape:
        out = build(tensors)
        proj = rng.normal(size=out.shape)
        loss = nc.sum_all(nc.mul(out, Tensor(proj)))
    backward(loss, tape)
    worst = 0.0
    for i, t in enumerate(tensors):
        def value(repl: Tensor, i=i) -> float:
            subs = list(tensors)
            subs[i] = repl
            with nc.no_grad():
                return float(np.sum(build(subs).data * proj))
        fd = nc.finite_diff_grad(value, t)
        ag = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, _rel_err(np.asarray(ag), fd))
    return GradCheckRow(name=name, group="op", rel_err=worst,
                        ok=worst < GRADCHECK_TOL)


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
    return [_check_op(name, build, args, rng) for name, build, args in checks]


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
    with GradTape() as tape:
        loss = bce_loss(training_scores(model, batch), labels)
    backward(loss, tape)
    group_of = {name: group for group, names in parameter_groups(model).items()
                for name in names}
    rows = []
    for name, p in params.items():
        ag = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        picked = rng.choice(p.data.size, size=min(GRADCHECK_COORDS, p.data.size),
                            replace=False)

        def loss_at(probe: Tensor) -> float:
            """The loss with the sampled coordinates of ``p`` set to ``probe``."""
            orig = p.data
            p.data = orig.copy()
            p.data.reshape(-1)[picked] = probe.data
            try:
                with nc.no_grad():
                    scores = training_scores(model, batch)
                    return float(bce_loss(scores, labels).data)
            finally:
                p.data = orig

        fd = nc.finite_diff_grad(loss_at, Tensor(p.data.reshape(-1)[picked]))
        rel = _rel_err(ag[picked], fd)
        rows.append(GradCheckRow(name=name, group=group_of[name],
                                 rel_err=rel, ok=rel < GRADCHECK_TOL))
    return rows


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
