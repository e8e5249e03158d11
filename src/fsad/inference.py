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
from .errors import (CapacityError, ConfigError, ContractError, DomainError,
                     NumericError, ShapeError)
from .numcore import Tensor

# Images per alignment block (``model.align``). A 100-row block's largest
# buffer, the t2v attention weights, is under 1 MB at the default width and
# so stays in a 2 MB per-core L2 cache.
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
        if not self.eps > 0:  # NaN fails this test too
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


@dataclass(frozen=True)
class Aligned:
    """A batch of B aligned images, ready to score: per visual tap, their
    patch rows [B, P, d] and those rows' norms [B, P] (``row_norms``), in
    the model's tap order, and their semantic scores [B]. ``model.align``
    memoizes all three."""

    visual: dict[int, np.ndarray]
    norms: dict[int, np.ndarray]
    sem: np.ndarray


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Norms over the last axis floored at ``NORM_FLOOR``: the row norms
    ``nc.cosine_rows`` divides by, bit for bit."""
    return np.maximum(np.linalg.norm(rows, axis=-1), nc.NORM_FLOOR)


@dataclass
class PrototypeSet:
    """Per class, per visual layer, the mean of support patch means."""

    vectors: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)


def build_prototypes(support_visual: dict[int, np.ndarray],
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
            patch_means = v.mean(axis=-2)
            per_layer[layer] = patch_means[idx].mean(axis=0)
        protos.vectors[cls] = per_layer
    return protos


def proto_distance(batch: Aligned, protos: PrototypeSet, cls: str) -> np.ndarray:
    """Sum over layers of one minus the mean patch cosine to the prototype.

    The cosines are ``nc.cosine_rows``'s IEEE operations on the batch's
    memoized row norms (README "Numerics contract"). Returns [B] distances.
    """
    if cls not in protos.vectors:
        raise DomainError(f"no prototype for class {cls!r}")
    total = None
    for layer, rows in batch.visual.items():
        proto = protos.vectors[cls][layer]
        cos = (rows @ proto) / (batch.norms[layer]
                                * max(np.linalg.norm(proto), nc.NORM_FLOOR))
        term = 1.0 - cos.mean(axis=-1)
        total = term if total is None else total + term
    return np.asarray(total)


def proto_scores(d_norm: np.ndarray, d_abn: np.ndarray, eps: float) -> np.ndarray:
    """Relative proximity to the abnormal prototype, in [0, 1)."""
    if not eps > 0:  # NaN fails this test too
        raise DomainError(f"eps must be positive, got {eps}")
    d_norm = np.asarray(d_norm, dtype=np.float64)
    d_abn = np.asarray(d_abn, dtype=np.float64)
    return d_norm / (d_norm + d_abn + eps)


def minmax_normalize(scores) -> np.ndarray:
    """Map to [0, 1] by batch min/max; a constant batch maps to all 0.5."""
    try:
        if np.iscomplexobj(scores):  # a cast would drop the imaginary parts
            raise TypeError("complex scores")
        s = np.asarray(scores, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise NumericError(f"cannot normalize scores that are not real "
                           f"numbers: {exc}") from None
    if s.size == 0:
        raise ContractError("cannot normalize an empty batch")
    bad = np.count_nonzero(~np.isfinite(s))
    if bad:
        raise NumericError(f"cannot normalize {bad} non-finite scores")
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


def score_batch(batch: Aligned, labels, protos: PrototypeSet,
                infer: InferSpec = InferSpec()) -> ScoreReport:
    """Dual-branch scores of one batch of aligned images.

    The prototype distances sum the batch's taps in dict order. Both
    branches are normalized over the whole batch, then blended.
    """
    taps = {layer for per_layer in protos.vectors.values() for layer in per_layer}
    missing = sorted(taps - set(batch.visual))
    if missing:
        raise ContractError(f"no aligned rows for visual tap {missing[0]}; "
                            f"got taps {sorted(batch.visual)}")
    sem_raw = np.asarray(batch.sem, dtype=np.float64).reshape(-1)
    counts = {layer: v.shape[:-2] for layer, v in batch.visual.items()}
    if set(counts.values()) != {sem_raw.shape}:
        raise ShapeError(f"aligned rows per visual tap {counts} do not match "
                         f"{sem_raw.size} semantic scores")
    for layer, v in batch.visual.items():
        if layer not in batch.norms or batch.norms[layer].shape != v.shape[:-1]:
            raise ShapeError(f"row norms at visual tap {layer} do not match "
                             f"its rows {v.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != sem_raw.size:
        raise ContractError(f"{labels.size} labels for {sem_raw.size} queries")
    proto_raw = proto_scores(proto_distance(batch, protos, "normal"),
                             proto_distance(batch, protos, "abnormal"), infer.eps)
    sem_norm = minmax_normalize(sem_raw)
    proto_norm = minmax_normalize(proto_raw)
    final = ensemble(sem_norm, proto_norm, infer.lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final, labels=labels,
                       lam=infer.lam)
