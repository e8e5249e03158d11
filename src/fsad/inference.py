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

# Images per alignment block (``model.align``) and per row gather of
# ``proto_distance``. A 100-row block's largest alignment buffer, the t2v
# attention weights, is under 1 MB at the default width, and its gathered
# rows take 400 KB per tap, so each stays in a 2 MB per-core L2 cache.
SCORE_BLOCK = 100

# The prototype branch's classes, in the order of ``proto_distance``'s rows.
CLASSES = ("normal", "abnormal")


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
    """A batch of B aligned images, ready to score, named by index: per
    visual tap, in the model's tap order, an [N, P, d] array of patch rows
    and an [N, P] array of their norms (``row_norms``), an [N] array of
    semantic scores, and the batch's B ``ids`` into those N rows, in batch
    order. ``model.AlignMemo.take`` passes the memo's own arrays, so a batch
    copies no rows; a hand-built batch of B images passes ``np.arange(B)``."""

    visual: dict[int, np.ndarray]
    norms: dict[int, np.ndarray]
    sem: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        n = np.size(self.sem)
        counts = {layer: np.shape(v)[:-2] for layer, v in self.visual.items()}
        if np.ndim(self.sem) != 1 or counts and set(counts.values()) != {(n,)}:
            raise ShapeError(f"aligned rows per visual tap {counts} do not match "
                             f"{n} semantic scores")
        for layer, v in self.visual.items():
            if layer not in self.norms or np.shape(self.norms[layer]) != v.shape[:-1]:
                raise ShapeError(f"row norms at visual tap {layer} do not match "
                                 f"its rows {v.shape}")
        ids = np.asarray(self.ids)
        if ids.ndim != 1 or ids.size and ids.dtype.kind not in "iu":
            raise ContractError(f"image ids must be a 1-D array of integers, "
                                f"got {ids.dtype} of shape {ids.shape}")
        ids = ids.astype(np.int64, copy=False)
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise ContractError(f"image id {bad[0]} outside [0, {n})")
        object.__setattr__(self, "ids", ids)


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
    for layer, v in support_visual.items():
        if np.ndim(v) != 3 or v.shape[1] == 0:
            raise ShapeError(f"support rows at layer {layer} must be [B, P, d] "
                             f"with P >= 1, got {np.shape(v)}")
    index_sets = {cls: np.asarray(idx) for cls, idx in index_sets.items()}
    for cls, idx in index_sets.items():
        if not idx.size:
            raise CapacityError(f"class {cls!r} has no support samples")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":  # a bool list would mask
            raise ContractError(f"class {cls!r}: support indices must be a 1-D "
                                f"list of integers, got {idx.tolist()!r}")
        for layer, v in support_visual.items():
            bad = idx[(idx < 0) | (idx >= v.shape[0])]
            if bad.size:
                raise ContractError(f"class {cls!r}: support index {bad[0]} "
                                    f"outside [0, {v.shape[0]}) at layer {layer}")
    patch_means = {layer: v.mean(axis=-2) for layer, v in support_visual.items()}
    return PrototypeSet({cls: {layer: means[idx].mean(axis=0)
                               for layer, means in patch_means.items()}
                         for cls, idx in index_sets.items()})


def proto_distance(batch: Aligned, protos: PrototypeSet) -> np.ndarray:
    """Per class of ``CLASSES``, the sum over the batch's taps of one minus
    the mean patch cosine to the class prototype: [2, B] distances.

    The cosines are ``nc.cosine_rows``'s IEEE operations on the batch's
    memoized row norms (README "Numerics contract"). The rows are gathered
    in blocks of ``SCORE_BLOCK`` images, so a block stays in cache while it
    meets both prototypes; each image's dots are one gemv over its own
    [P, d] rows, as in a pass over the image alone.
    """
    for cls in CLASSES:
        if cls not in protos.vectors:
            raise DomainError(f"no prototype for class {cls!r}")
    if not batch.visual:
        raise ContractError("prototype distance needs at least one visual tap")
    ids, total, block = batch.ids, None, None
    for layer, rows in batch.visual.items():
        vecs = [protos.vectors[cls].get(layer) for cls in CLASSES]
        if any(vec is None for vec in vecs):
            raise ContractError(f"no prototype at visual tap {layer}")
        if any(vec.shape != rows.shape[-1:] for vec in vecs):
            raise ShapeError(f"prototypes {[vec.shape for vec in vecs]} do not "
                             f"match the rows {rows.shape} at visual tap {layer}")
        if 0 in rows.shape[-2:]:  # nc.cosine_rows needs a nonzero width too
            raise ShapeError(f"rows {rows.shape} at visual tap {layer} have no "
                             f"patches or zero width")
        shape = (min(ids.size, SCORE_BLOCK),) + rows.shape[1:]
        if block is None or block.shape != shape or block.dtype != rows.dtype:
            block = np.empty(shape, rows.dtype)  # taps of one shape share it
            dots = np.empty((len(CLASSES), ids.size, rows.shape[-2]))
        for lo in range(0, ids.size, SCORE_BLOCK):
            hi = min(lo + SCORE_BLOCK, ids.size)
            # ids are checked (Aligned), so "clip" clips nothing; it spares
            # the copy that "raise" makes of an out= buffer
            part = np.take(rows, ids[lo:hi], axis=0, out=block[:hi - lo],
                           mode="clip")
            for c, vec in enumerate(vecs):
                np.matmul(part, vec, out=dots[c, lo:hi])
        # per class: dots / (norms * max(|proto|, NORM_FLOOR)), then the mean
        # over the patches, as nc.cosine_rows and the mean of its output
        scale = np.array([max(np.linalg.norm(vec), nc.NORM_FLOOR) for vec in vecs])
        np.divide(dots, batch.norms[layer][ids] * scale[:, None, None], out=dots)
        term = 1.0 - dots.mean(axis=-1)
        total = term if total is None else total + term
    return total


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
    sem_raw = np.asarray(batch.sem, dtype=np.float64)[batch.ids]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != sem_raw.size:
        raise ContractError(f"{labels.size} labels for {sem_raw.size} queries")
    d_norm, d_abn = proto_distance(batch, protos)
    proto_raw = proto_scores(d_norm, d_abn, infer.eps)
    sem_norm = minmax_normalize(sem_raw)
    proto_norm = minmax_normalize(proto_raw)
    final = ensemble(sem_norm, proto_norm, infer.lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final, labels=labels,
                       lam=infer.lam)
