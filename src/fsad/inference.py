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
from .clsa import ClsaOutput
from .errors import CapacityError, ContractError, DomainError
from .numcore import Tensor

EPS_DEFAULT = 1e-8
LAMBDA_DEFAULT = 0.5


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
    index_sets maps each class to its row indices within that batch.
    """
    for cls, idx in index_sets.items():
        if not idx:
            raise CapacityError(f"class {cls!r} has no support samples")
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


def proto_scores(d_norm: np.ndarray, d_abn: np.ndarray,
                 eps: float = EPS_DEFAULT) -> np.ndarray:
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
                protos: PrototypeSet, lam: float = LAMBDA_DEFAULT,
                eps: float = EPS_DEFAULT) -> ScoreReport:
    """Full dual-branch pass over one batch of frozen visual features."""
    from .model import forward
    with nc.no_grad():
        out = forward(model, visual_taps)
    return score_aligned(model, out, labels, protos, lam, eps)


def score_aligned(model, out: ClsaOutput, labels, protos: PrototypeSet,
                  lam: float = LAMBDA_DEFAULT,
                  eps: float = EPS_DEFAULT) -> ScoreReport:
    """Dual-branch scores of a batch whose forward pass has already run."""
    with nc.no_grad():
        tau = model.tau()
        sem = semantic_scores(out.visual, out.class_vectors["abnormal"], tau)
        sem_raw = np.atleast_1d(sem.data)
        d_norm = np.atleast_1d(proto_distance(out.visual, protos, "normal"))
        d_abn = np.atleast_1d(proto_distance(out.visual, protos, "abnormal"))
    proto_raw = proto_scores(d_norm, d_abn, eps)
    sem_norm = minmax_normalize(sem_raw)
    proto_norm = minmax_normalize(proto_raw)
    final = ensemble(sem_norm, proto_norm, lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final,
                       labels=np.asarray(labels, dtype=np.int64), lam=lam)
