"""Benchmark orchestration: cached features, episode runs, grids, sweeps.

Frozen visual features are encoded once per corpus and sliced per episode
and per tap subset, so ablation grids never re-run the image tower; a
model aligns each image once while its parameters stay fixed
(``model.align``), so evaluation episodes share alignments. Grid
cells share trained models wherever only the evaluation side differs (for
example the dual-branch and semantic-only readings of one training run).
Each grid or sweep call is one plan of ``RunSpec`` values (``run_plan``):
its trained episodes of the same structure share one tape
(``model.stack_models``), each bit-identical to training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from .backbone import BackboneSpec, ToyEncoder, encode_images
from .clsa import ClsaSpec
from .config import RunConfig
from .errors import ConfigError
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
        idx = np.asarray(ids, dtype=np.int64)
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
    take the run config's value."""

    index: int = 0
    mspec: BackboneSpec | None = None
    clsa: ClsaSpec | None = None
    train: bool = True

    def structure(self) -> "RunSpec":
        """Specs that agree here may share a stack: they differ only in
        their episode (support set, model seed) and initial gate value."""
        return replace(self, index=0,
                       clsa=self.clsa and replace(self.clsa, gate_init=0.0))


def model_from_config(cfg: RunConfig, spec: RunSpec = RunSpec()) -> Model:
    """The freshly initialized model of one spec, seeded by its episode."""
    return init_model(spec.mspec or cfg.backbone_spec(),
                      cfg["model.seed"] + spec.index, cfg.section("adapt"),
                      spec.clsa or cfg.section("clsa"))


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

    Same-structure specs run together, up to ``MAX_STACK`` episodes at a
    time; a trained group of two or more shares one tape, and
    ``run_episode`` trains a group of one. Each run is read as soon as it
    is scored and then dropped, so one stack of models is alive at a time
    and one alignment memo (``model.align``) at most.
    """
    tcfg, episode = cfg.train_config(), cfg.section("episode")
    groups: dict[RunSpec, list[int]] = {}
    for pos, spec in enumerate(specs):
        groups.setdefault(spec.structure(), []).append(pos)
    out: list = [None] * len(specs)
    for structure, positions in groups.items():
        for lo in range(0, len(positions), MAX_STACK):
            stack = positions[lo:lo + MAX_STACK]
            models = [model_from_config(cfg, specs[pos]) for pos in stack]
            traces = [None] * len(stack)  # None: not trained yet
            if structure.train and len(stack) > 1:
                ids = np.array([_sample(episode, dataset, specs[pos].index).support_ids
                                for pos in stack])  # [E, B]
                stacked = stack_models(models)
                feats = store.take(stacked.spec.selected_visual, ids)
                traces = train_episode(stacked, feats, store.labels[ids], tcfg)
                unstack_model(stacked, models)
            for pos, trace in zip(stack, traces):
                run = run_episode(cfg, store, dataset, specs[pos].index,
                                  train=structure.train and trace is None,
                                  model=models.pop(0))
                out[pos] = read(run if trace is None else replace(run, trace=trace))
                del run  # drops the model and its alignment memo
    return out


def eval_at_lambda(report: ScoreReport, lam: float) -> tuple[float, float]:
    """Re-blend an existing report at a different ensemble weight."""
    final = ensemble(report.sem_norm, report.proto_norm, lam)
    return auc(final, report.labels), average_precision(final, report.labels)


# ---------------------------------------------------------------------------
# ablation grids

@dataclass
class Cell:
    """Per-seed AUC/AP samples for one grid cell."""

    aucs: list[float] = field(default_factory=list)
    aps: list[float] = field(default_factory=list)

    def add(self, a: float, p: float) -> None:
        self.aucs.append(a)
        self.aps.append(p)

    @property
    def auc(self) -> float:
        return float(np.mean(self.aucs))

    @property
    def ap(self) -> float:
        return float(np.mean(self.aps))


# the six strategy-grid rows: (row, adapters trained, strategy, dual branch)
STRATEGY_ROWS = (
    (1, False, "none", False),
    (2, True, "none", False),
    (3, True, "none", True),
    (4, True, "v2t", True),
    (5, True, "t2v", True),
    (6, True, "seq", True),
)


@dataclass
class StrategyGrid:
    """Six-row component/strategy table plus the raw per-seed cells."""

    rows: list[dict]
    cells: dict[str, Cell]
    loss_first: list[float]
    loss_last: list[float]


def strategy_grid(cfg: RunConfig, store: FeatureStore,
                  dataset: list[Sample]) -> StrategyGrid:
    """Seed-averaged grid over adaptation components and alignment strategies.

    Row 1 is the zero-adaptation baseline (nothing trained, semantic branch
    only). Rows 2 and 3 share one training run per seed and differ only in
    the evaluation branch blend.
    """
    lam_dual = cfg.section("infer").lam
    cells = {name: Cell() for name in
             ("untrained_sem", "untrained_dual", "none_sem", "none_dual",
              "v2t_dual", "t2v_dual", "seq_dual")}
    count, clsa = cfg.section("episode").count, cfg.section("clsa")
    specs = [RunSpec(i, clsa=replace(clsa, strategy="none"), train=False)
             for i in range(count)]
    specs += [RunSpec(i, clsa=replace(clsa, strategy=s))
              for s in ("none", "v2t", "t2v", "seq") for i in range(count)]
    runs = run_plan(cfg, store, dataset, specs,
                    lambda run: (run.report, run.trace))
    for spec, (report, _) in zip(specs, runs):
        prefix = spec.clsa.strategy if spec.train else "untrained"
        cells[f"{prefix}_dual"].add(*eval_at_lambda(report, lam_dual))
        if spec.clsa.strategy == "none":
            cells[f"{prefix}_sem"].add(*eval_at_lambda(report, 1.0))
    seq_traces = [trace for spec, (_, trace) in zip(specs, runs)
                  if spec.clsa.strategy == "seq" and trace]
    loss_first = [trace[0].loss for trace in seq_traces]
    loss_last = [trace[-1].loss for trace in seq_traces]
    cell_of = {1: "untrained_sem", 2: "none_sem", 3: "none_dual",
               4: "v2t_dual", 5: "t2v_dual", 6: "seq_dual"}
    rows = [{"row": row, "adapters": adapters, "strategy": strat, "dual": dual,
             "auc": cells[cell_of[row]].auc, "ap": cells[cell_of[row]].ap}
            for row, adapters, strat, dual in STRATEGY_ROWS]
    return StrategyGrid(rows=rows, cells=cells, loss_first=loss_first,
                        loss_last=loss_last)


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


def stage_grid(cfg: RunConfig, store: FeatureStore,
               dataset: list[Sample]) -> StageGrid:
    """Seed-averaged adaptation-depth ablation at the configured strategy."""
    specs = stage_specs(cfg.backbone_spec())
    count = cfg.section("episode").count
    scored = run_plan(cfg, store, dataset,
                      [RunSpec(i, mspec=mspec) for _, mspec in specs
                       for i in range(count)],
                      lambda run: (run.metrics.auc, run.metrics.ap))
    cells: dict[str, Cell] = {}
    rows = []
    for j, (name, mspec) in enumerate(specs):
        cell = cells[name] = Cell()
        for a, p in scored[j * count:(j + 1) * count]:
            cell.add(a, p)
        rows.append({"stage": name,
                     "visual_taps": ",".join(map(str, mspec.selected_visual)),
                     "text_taps": ",".join(map(str, mspec.selected_text)),
                     "auc": cell.auc, "ap": cell.ap})
    return StageGrid(rows=rows, cells=cells)


# ---------------------------------------------------------------------------
# sensitivity sweeps

def _sweep_rows(parameter: str, points, scored) -> list[dict]:
    """One row per seed and a closing mean row per point; scored[j] holds
    the (seed, auc, ap) runs of points[j]."""
    rows = []
    for value, runs in zip(points, scored):
        rows += [{"parameter": parameter, "value": value, "seed": seed,
                  "auc": a, "ap": p} for seed, a, p in runs]
        rows.append({"parameter": parameter, "value": value, "seed": "mean",
                     "auc": float(np.mean([a for _, a, _ in runs])),
                     "ap": float(np.mean([p for _, _, p in runs]))})
    return rows


def lambda_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
                 points=LAMBDA_POINTS) -> list[dict]:
    """One training run per seed, re-blended at every ensemble weight."""
    if not points:
        raise ConfigError("sweep grid is empty")
    runs = run_plan(cfg, store, dataset,
                    [RunSpec(i) for i in range(cfg.section("episode").count)],
                    lambda run: (run.episode_seed, run.report))
    return _sweep_rows("lambda", points,
                       [[(seed, *eval_at_lambda(report, lam))
                         for seed, report in runs] for lam in points])


def beta_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
               points=BETA_POINTS) -> list[dict]:
    """Fixed, non-learnable gate values; a full training run per point.
    Stacks span gate values: the gate is a value, not a structure."""
    if not points:
        raise ConfigError("sweep grid is empty")
    count, clsa = cfg.section("episode").count, cfg.section("clsa")
    runs = run_plan(
        cfg, store, dataset,
        [RunSpec(i, clsa=replace(clsa, gate_init=float(beta), gates_learnable=False))
         for beta in points for i in range(count)],
        lambda run: (run.episode_seed, run.metrics.auc, run.metrics.ap))
    return _sweep_rows("beta", points,
                       [runs[j * count:(j + 1) * count]
                        for j in range(len(points))])


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
