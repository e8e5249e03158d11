"""Dual-branch scoring: parametric semantic branch and prototype branch.

The semantic branch aggregates sigmoid patch logits against the abnormal
text vector; the prototype branch measures relative cosine proximity to
per-class support prototypes. Each branch is min-max normalized over the
query batch and the two are blended by a convex weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .clsa import ClsaOutput, clsa_forward
from .errors import CapacityError, ConfigError, ContractError, DomainError, ShapeError
from .numcore import Tensor

# Queries per block of score_batch. A 100-row block's largest buffer, the
# t2v attention weights, is under 1 MB at the default width and so stays in
# a 2 MB per-core L2 cache; the default episode (100 queries) is one block.
SCORE_BLOCK = 100


@dataclass(frozen=True)
class InferSpec:
    """Scoring recipe: the semantic branch's blend weight and the prototype
    branch's denominator guard."""

    lam: float = 0.5
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"infer.lam must lie in [0, 1], got {self.lam}")
        if self.eps <= 0:
            raise ConfigError(f"infer.eps must be positive, got {self.eps}")


def semantic_scores(visual: dict[int, Tensor], t_abn: Tensor, tau: Tensor) -> Tensor:
    """Mean over layers and patches of sigmoid(tau * <patch, t_abn>).

    visual maps layers to [..., P, d]; t_abn is [d] or [..., d] matching the
    batch shape. Returns a tensor of batch shape (scalar when unbatched).
    """
    if not visual:
        raise ContractError("semantic score needs at least one layer")
    col = nc.reshape(t_abn, t_abn.shape + (1,))
    total = None
    for layer in sorted(visual):
        v = visual[layer]
        dots = nc.reshape(nc.matmul(v, col), v.shape[:-1])
        per_patch = nc.sigmoid(nc.mul(tau, dots))
        per_image = nc.mean_axis(per_patch, per_patch.ndim - 1)
        total = per_image if total is None else nc.add(total, per_image)
    return nc.scale(total, 1.0 / len(visual))


@dataclass
class PrototypeSet:
    """Per class, per visual layer, the mean of support patch means."""

    vectors: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)


def build_prototypes(support_visual: dict[int, Tensor],
                     index_sets: dict[str, list[int]]) -> PrototypeSet:
    """Aggregate aligned support features: class mean of per-image patch means.

    support_visual maps layers to [B, P, d] over the whole support batch;
    index_sets maps each class to its row indices within that batch, each
    in [0, B).
    """
    for cls, idx in index_sets.items():
        if not idx:
            raise CapacityError(f"class {cls!r} has no support samples")
        for layer, v in support_visual.items():
            bad = [i for i in idx if not 0 <= i < v.shape[0]]
            if bad:
                raise ContractError(f"class {cls!r}: support index {bad[0]} "
                                    f"outside [0, {v.shape[0]}) at layer {layer}")
    protos = PrototypeSet()
    for cls, idx in index_sets.items():
        per_layer = {}
        for layer, v in support_visual.items():
            patch_means = v.data.mean(axis=-2)
            per_layer[layer] = patch_means[idx].mean(axis=0)
        protos.vectors[cls] = per_layer
    return protos


def proto_distance(query_visual: dict[int, Tensor], protos: PrototypeSet,
                   cls: str) -> np.ndarray:
    """Sum over layers of one minus the mean patch cosine to the prototype.

    query_visual maps layers to [..., P, d]; returns batch-shaped distances.
    """
    if cls not in protos.vectors:
        raise DomainError(f"no prototype for class {cls!r}")
    total = None
    for layer, v in query_visual.items():
        with nc.no_grad():
            cos = nc.cosine_rows(v, Tensor(protos.vectors[cls][layer])).data
        term = 1.0 - cos.mean(axis=-1)
        total = term if total is None else total + term
    return np.asarray(total)


def proto_scores(d_norm: np.ndarray, d_abn: np.ndarray, eps: float) -> np.ndarray:
    """Relative proximity to the abnormal prototype, in [0, 1)."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    d_norm = np.asarray(d_norm, dtype=np.float64)
    d_abn = np.asarray(d_abn, dtype=np.float64)
    return d_norm / (d_norm + d_abn + eps)


def minmax_normalize(scores) -> np.ndarray:
    """Map to [0, 1] by batch min/max; a constant batch maps to all 0.5."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise ContractError("cannot normalize an empty batch")
    lo, hi = s.min(), s.max()
    if hi == lo:
        return np.full_like(s, 0.5)
    return (s - lo) / (hi - lo)


def ensemble(sem_norm, proto_norm, lam: float) -> np.ndarray:
    """Convex blend of the two normalized branches."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"ensemble weight must lie in [0, 1], got {lam}")
    a = np.asarray(sem_norm, dtype=np.float64)
    b = np.asarray(proto_norm, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"branch lengths differ: {a.shape} vs {b.shape}")
    return lam * a + (1.0 - lam) * b


@dataclass
class ScoreReport:
    """Raw and blended scores for one scored batch."""

    sem_raw: np.ndarray
    proto_raw: np.ndarray
    sem_norm: np.ndarray
    proto_norm: np.ndarray
    final: np.ndarray
    labels: np.ndarray
    lam: float


def score_batch(model, visual_taps: dict[int, Tensor], labels,
                protos: PrototypeSet, infer: InferSpec = InferSpec()) -> ScoreReport:
    """Full dual-branch pass over one batch of frozen visual features.

    The text tower runs once; the queries then go through adaptation,
    alignment and the raw branch scores in blocks of at most SCORE_BLOCK
    along the leading axis, so each block's buffers stay cache-sized. Every
    query meets the same arithmetic in any block, and both branches are
    normalized over the whole batch, so the scores equal one pass over all
    queries bit for bit. An unbatched [P, d] query is one block.
    """
    from .model import forward_text, forward_visual
    missing = [layer for layer in model.spec.selected_visual
               if layer not in visual_taps]
    if missing:
        raise ContractError(f"no query features for visual tap {missing[0]}; "
                            f"got taps {sorted(visual_taps)}")
    lead = {layer: visual_taps[layer].shape[:-2]
            for layer in model.spec.selected_visual}
    shapes = set(lead.values())
    if len(shapes) > 1:
        raise ShapeError(f"query counts differ across visual taps: {lead}")
    (batch,) = shapes
    n = batch[0] if batch else 1
    raws = []
    with nc.no_grad():
        text, tau = forward_text(model), model.tau()
        # an empty batch still runs one empty block, so that normalizing it
        # raises the usual ContractError
        for lo in range(0, max(n, 1), SCORE_BLOCK):
            block = ({layer: Tensor(visual_taps[layer].data[lo:lo + SCORE_BLOCK])
                      for layer in lead} if batch else visual_taps)
            out = clsa_forward(model.pairs, forward_visual(model, block), text,
                               model.clsa, model.strategy)
            raws.append(_raw_scores(out, tau, protos))
    return _report([np.concatenate(parts) for parts in zip(*raws)], labels, infer)


def score_aligned(model, out: ClsaOutput, labels, protos: PrototypeSet,
                  infer: InferSpec = InferSpec()) -> ScoreReport:
    """Dual-branch scores of a batch whose forward pass has already run."""
    with nc.no_grad():
        raw = _raw_scores(out, model.tau(), protos)
    return _report(raw, labels, infer)


def _raw_scores(out: ClsaOutput, tau: Tensor,
                protos: PrototypeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query: the semantic score and the distances to both prototypes."""
    sem = semantic_scores(out.visual, out.class_vectors["abnormal"], tau)
    return (np.atleast_1d(sem.data),
            np.atleast_1d(proto_distance(out.visual, protos, "normal")),
            np.atleast_1d(proto_distance(out.visual, protos, "abnormal")))


def _report(raw, labels, infer: InferSpec) -> ScoreReport:
    """Normalize and blend the raw scores of a whole batch."""
    sem_raw, d_norm, d_abn = raw
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != sem_raw.size:
        raise ContractError(f"{labels.size} labels for {sem_raw.size} queries")
    proto_raw = proto_scores(d_norm, d_abn, infer.eps)
    sem_norm = minmax_normalize(sem_raw)
    proto_norm = minmax_normalize(proto_raw)
    final = ensemble(sem_norm, proto_norm, infer.lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final, labels=labels,
                       lam=infer.lam)
