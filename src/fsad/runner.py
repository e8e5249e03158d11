"""Benchmark orchestration: cached features, episode runs, grids, sweeps.

Frozen visual features are encoded once per corpus and sliced per episode
and per tap subset, so ablation grids never re-run the image tower. Grid
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
from .backbone import BackboneSpec, build_backbone, encode_images
from .config import RunConfig
from .errors import ConfigError
from .evalmetrics import (MetricReport, auc, average_precision, compute_report,
                          threshold_from_support)
from .inference import (ScoreReport, build_prototypes, ensemble, score_aligned,
                        score_batch)
from .model import (Model, forward, init_model, named_parameters,
                    parameter_groups, stack_models, unstack_model)
from .numcore import GradTape, Tensor, backward
from .synthdata import Episode, Sample, sample_episode
from .training import (TraceRow, TrainConfig, bce_loss, train_episode,
                       training_scores)

LAMBDA_POINTS = tuple(round(0.1 * i, 1) for i in range(11))
BETA_POINTS = (0.0, 0.25, 0.5, 1.0, 2.0)
GRADCHECK_TOL = 1e-4


# ---------------------------------------------------------------------------
# frozen features

@dataclass
class FeatureStore:
    """Stacked frozen visual features for a whole corpus, keyed by tap."""

    spec: BackboneSpec
    feats: dict[int, np.ndarray]
    labels: np.ndarray


def build_feature_store(spec: BackboneSpec, dataset: list[Sample]) -> FeatureStore:
    """Encode every sample once through the frozen visual tower."""
    visual_enc, _ = build_backbone(spec)
    per_image = encode_images(visual_enc, [s.image for s in dataset])
    feats = {layer: np.stack([f[layer].data for f in per_image])
             for layer in spec.selected_visual}
    labels = np.array([s.label for s in dataset], dtype=np.int64)
    return FeatureStore(spec=spec, feats=feats, labels=labels)


def take(store: FeatureStore, taps, ids) -> dict[int, np.ndarray]:
    """Features for the given sample ids, restricted to the given taps."""
    missing = [t for t in taps if t not in store.feats]
    if missing:
        raise ConfigError(f"taps {missing} not present in feature store "
                          f"(has {sorted(store.feats)})")
    idx = np.asarray(ids, dtype=np.int64)
    return {t: store.feats[t][idx] for t in taps}


# ---------------------------------------------------------------------------
# single episode

@dataclass
class EpisodeRun:
    """One trained-and-scored episode with everything a report needs."""

    index: int
    episode_seed: int
    model_seed: int
    strategy: str
    lam: float
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
    strategy: str | None = None
    gate_init: float | None = None
    gates_learnable: bool | None = None
    train: bool = True

    def structure(self) -> "RunSpec":
        """Specs that agree here may share a stack: they differ only in
        their episode (support set, model seed) and initial gate value."""
        return replace(self, index=0, gate_init=None)


def model_from_config(cfg: RunConfig, spec: RunSpec = RunSpec()) -> Model:
    """The freshly initialized model of one spec, seeded by its episode."""
    return init_model(
        spec.mspec or cfg.backbone_spec(),
        seed=cfg["model.seed"] + spec.index,
        strategy=spec.strategy or cfg["clsa.strategy"],
        prompt_len=cfg["adapt.prompt_len"],
        reduction=cfg["adapt.reduction"],
        gate_init=(cfg["clsa.gate_init"]
                   if spec.gate_init is None else spec.gate_init),
        gates_learnable=(cfg["clsa.gates_learnable"]
                         if spec.gates_learnable is None else spec.gates_learnable),
        alpha_init=cfg["adapt.alpha_init"],
        clsa_heads=cfg["clsa.heads"],
    )


def _sample(cfg: RunConfig, dataset: list[Sample], index: int) -> Episode:
    return sample_episode(dataset, cfg["episode.k"], cfg["episode.seed"] + index,
                          cfg["episode.query_per_class"])


def run_episode(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
                index: int = 0, *, train: bool = True,
                model: Model | None = None) -> EpisodeRun:
    """Sample episode ``index``, optionally train on its support, score its
    queries, and derive metrics with a support-calibrated threshold.

    ``model`` defaults to the config's model for this episode; its taps
    select the features, and ``infer.lam`` blends the two branches."""
    lam = cfg["infer.lam"]
    ep = _sample(cfg, dataset, index)
    if model is None:
        model = model_from_config(cfg, RunSpec(index))
    sup = take(store, model.spec.selected_visual, ep.support_ids)
    qry = take(store, model.spec.selected_visual, ep.query_ids)
    ysup = store.labels[ep.support_ids]
    yq = store.labels[ep.query_ids]
    trace = train_episode(model, sup, ysup, cfg.train_config()) if train else []
    sup_t = {l: Tensor(a) for l, a in sup.items()}
    with nc.no_grad():
        sup_out = forward(model, sup_t)
        protos = build_prototypes(sup_out.visual,
                                  {"normal": ep.idx_norm, "abnormal": ep.idx_abn})
    qry_t = {l: Tensor(a) for l, a in qry.items()}
    report = score_batch(model, qry_t, yq, protos, lam=lam, eps=cfg["infer.eps"])
    sup_report = score_aligned(model, sup_out, ysup, protos, lam=lam,
                               eps=cfg["infer.eps"])
    thr = threshold_from_support(sup_report.final, ysup)
    metrics = compute_report(report.final, yq, thr)
    return EpisodeRun(index=index, episode_seed=cfg["episode.seed"] + index,
                      model_seed=cfg["model.seed"] + index,
                      strategy=model.strategy, lam=lam, model=model, episode=ep,
                      trace=trace, report=report, support_report=sup_report,
                      metrics=metrics)


# ---------------------------------------------------------------------------
# run plans

def stack_capacity(config: TrainConfig, support: int) -> int:
    """Episodes per stack: a step holds at most ``batch_size`` support rows,
    the most a single episode's step can hold."""
    return config.batch_size // min(config.batch_size, support)


def run_plan(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
             specs: list[RunSpec], read) -> list:
    """Run every spec, score it through ``run_episode`` and return
    ``read(run)`` for each, in request order.

    Same-structure specs run together, up to ``stack_capacity`` episodes
    at a time; a trained group of two or more shares one tape, and a
    group of one trains the model itself. Each run is read as soon as it
    is scored, so one stack of models is alive at a time.
    """
    tcfg = cfg.train_config()
    cap = stack_capacity(tcfg, 2 * cfg["episode.k"])
    groups: dict[RunSpec, list[int]] = {}
    for pos, spec in enumerate(specs):
        groups.setdefault(spec.structure(), []).append(pos)
    out: list = [None] * len(specs)
    for structure, positions in groups.items():
        for lo in range(0, len(positions), cap):
            stack = positions[lo:lo + cap]
            models = [model_from_config(cfg, specs[pos]) for pos in stack]
            traces = [[] for _ in stack]
            if structure.train:
                eps = [_sample(cfg, dataset, specs[pos].index) for pos in stack]
                sups = [take(store, models[0].spec.selected_visual, ep.support_ids)
                        for ep in eps]
                labels = [store.labels[ep.support_ids] for ep in eps]
                if len(stack) == 1:
                    traces = [train_episode(models[0], sups[0], labels[0], tcfg)]
                else:
                    stacked = stack_models(models)
                    feats = {layer: np.stack([sup[layer] for sup in sups])
                             for layer in sups[0]}
                    traces = train_episode(stacked, feats, np.stack(labels), tcfg)
                    unstack_model(stacked, models)
            for pos, model, trace in zip(stack, models, traces):
                run = run_episode(cfg, store, dataset, specs[pos].index,
                                  train=False, model=model)
                out[pos] = read(replace(run, trace=trace))
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
    lam_dual = cfg["infer.lam"]
    cells = {name: Cell() for name in
             ("untrained_sem", "untrained_dual", "none_sem", "none_dual",
              "v2t_dual", "t2v_dual", "seq_dual")}
    count = cfg["episode.count"]
    specs = [RunSpec(i, strategy="none", train=False) for i in range(count)]
    specs += [RunSpec(i, strategy=s) for s in ("none", "v2t", "t2v", "seq")
              for i in range(count)]
    runs = run_plan(cfg, store, dataset, specs,
                    lambda run: (run.report, run.trace))
    for spec, (report, _) in zip(specs, runs):
        prefix = spec.strategy if spec.train else "untrained"
        cells[f"{prefix}_dual"].add(*eval_at_lambda(report, lam_dual))
        if spec.strategy == "none":
            cells[f"{prefix}_sem"].add(*eval_at_lambda(report, 1.0))
    seq_traces = [trace for spec, (_, trace) in zip(specs, runs)
                  if spec.strategy == "seq" and trace]
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
    count = cfg["episode.count"]
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

def lambda_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
                 points=LAMBDA_POINTS) -> list[dict]:
    """One training run per seed, re-blended at every ensemble weight.

    Emits one row per (point, seed) and a closing mean row per point.
    """
    if not points:
        raise ConfigError("sweep grid is empty")
    runs = run_plan(cfg, store, dataset,
                    [RunSpec(i) for i in range(cfg["episode.count"])],
                    lambda run: (run.episode_seed, run.report))
    rows = []
    for lam in points:
        scored = [eval_at_lambda(report, lam) for _, report in runs]
        rows += [{"parameter": "lambda", "value": lam, "seed": seed,
                  "auc": a, "ap": p}
                 for (seed, _), (a, p) in zip(runs, scored)]
        rows.append({"parameter": "lambda", "value": lam, "seed": "mean",
                     "auc": float(np.mean([a for a, _ in scored])),
                     "ap": float(np.mean([p for _, p in scored]))})
    return rows


def beta_sweep(cfg: RunConfig, store: FeatureStore, dataset: list[Sample],
               points=BETA_POINTS) -> list[dict]:
    """Fixed, non-learnable gate values; a full training run per point.
    Stacks span gate values: the gate is a value, not a structure."""
    if not points:
        raise ConfigError("sweep grid is empty")
    count = cfg["episode.count"]
    runs = run_plan(
        cfg, store, dataset,
        [RunSpec(i, gate_init=float(beta), gates_learnable=False)
         for beta in points for i in range(count)],
        lambda run: (run.episode_seed, run.metrics.auc, run.metrics.ap))
    rows = []
    for j, beta in enumerate(points):
        block = runs[j * count:(j + 1) * count]
        rows += [{"parameter": "beta", "value": beta, "seed": seed,
                  "auc": a, "ap": p} for seed, a, p in block]
        rows.append({"parameter": "beta", "value": beta, "seed": "mean",
                     "auc": float(np.mean([a for _, a, _ in block])),
                     "ap": float(np.mean([p for _, _, p in block]))})
    return rows


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


def _check_op(name: str, build, args: list[np.ndarray], rng,
              tol: float) -> GradCheckRow:
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
    return GradCheckRow(name=name, group="op", rel_err=worst, ok=worst < tol)


def gradcheck_ops(seed: int = 0, tol: float = GRADCHECK_TOL) -> list[GradCheckRow]:
    """Finite-difference check of every differentiable tensor operation."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
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
    return [_check_op(name, build, args, rng, tol) for name, build, args in checks]


def gradcheck_episode(cfg: RunConfig, coords_per_param: int = 8,
                      h: float = 1e-5, tol: float = GRADCHECK_TOL,
                      seed: int = 0) -> list[GradCheckRow]:
    """Sampled-coordinate finite-difference check of the full episode loss
    against every learnable tensor, at a randomized parameter point.

    Parameters are jittered away from their inits first; the zero-initialized
    up-projections and closed gates would otherwise hide entire gradient
    paths behind structural zeros.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 78)))
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

    def loss_value() -> float:
        with nc.no_grad():
            return float(bce_loss(training_scores(model, batch), labels).data)

    with GradTape() as tape:
        loss = bce_loss(training_scores(model, batch), labels)
    backward(loss, tape)
    group_of = {name: group for group, names in parameter_groups(model).items()
                for name in names}
    rows = []
    for name, p in params.items():
        ag = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        flat = p.data.reshape(-1)
        count = min(coords_per_param, flat.size)
        picked = rng.choice(flat.size, size=count, replace=False)
        fd = np.empty(count)
        for j, i in enumerate(picked):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd[j] = (up - down) / (2.0 * h)
        rel = _rel_err(ag[picked], fd)
        rows.append(GradCheckRow(name=name, group=group_of[name],
                                 rel_err=rel, ok=rel < tol))
    return rows


def gradcheck_all(cfg: RunConfig, corrupt: bool = False) -> list[GradCheckRow]:
    """Op suite plus episode-loss suite; ``corrupt`` flips the test-mode
    backward fault for negative-control runs."""
    nc.set_backward_corruption(corrupt)
    try:
        return gradcheck_ops() + gradcheck_episode(cfg)
    finally:
        nc.set_backward_corruption(False)
