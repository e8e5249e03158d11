"""Dual-branch scoring: parametric semantic branch and prototype branch.

The semantic branch aggregates sigmoid patch logits against the abnormal
text vector; the prototype branch measures relative cosine proximity to
per-class support prototypes. Each branch is min-max normalized over the
query batch and the two are blended by a convex weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs, numcore as nc
from .backbone import CLASSES, SCORE_BLOCK
from .errors import (CapacityError, ConfigError, ContractError, DomainError,
                     NumericError, ShapeError)
from .numcore import Tensor


@dataclass(frozen=True)
class InferSpec:
    """Scoring recipe: the semantic branch's blend weight and the prototype
    branch's denominator guard."""

    lam: float = 0.5
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"infer.lam must lie in [0, 1], got {self.lam}")
        if not 0 < self.eps < np.inf:  # NaN fails this test too
            raise ConfigError(f"infer.eps must be positive and finite, "
                              f"got {self.eps}")


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
        ids = inputs.ids(self.ids, n, ContractError)
        if ids.ndim != 1:
            raise ContractError(f"image ids must be a 1-D array of integers, "
                                f"got shape {ids.shape}")
        object.__setattr__(self, "ids", ids)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Norms over the last axis floored at ``NORM_FLOOR``: the row norms
    ``nc.cosine_rows`` divides by, bit for bit."""
    return np.maximum(np.linalg.norm(rows, axis=-1), nc.NORM_FLOOR)


def build_prototypes(support: Aligned, labels) -> dict[int, np.ndarray]:
    """Per visual tap, a [2, d] array whose row c is the mean, in batch
    order, of the patch means of the support images labelled c."""
    labels = inputs.labels(labels, support.ids.shape, "labels", ContractError)
    members = [np.flatnonzero(labels == c) for c in range(len(CLASSES))]
    for cls, idx in zip(CLASSES, members):
        if not idx.size:
            raise CapacityError(f"class {cls!r} has no support samples")
    protos = {}
    for layer, rows in support.visual.items():
        if rows.shape[1] == 0:
            raise ShapeError(f"support rows at layer {layer} have no patches")
        means = rows[support.ids].mean(axis=-2)
        protos[layer] = np.stack([means[idx].mean(axis=0) for idx in members])
    return protos


def proto_distance(batch: Aligned, protos: dict[int, np.ndarray]) -> np.ndarray:
    """Per class row of the prototypes (``CLASSES`` order), the sum over the
    batch's taps of one minus the mean patch cosine to that row: [2, B]
    distances.

    The cosines are ``nc.cosine_rows``'s IEEE operations on the batch's
    memoized row norms (README "Numerics contract"). The rows are gathered
    in blocks of ``SCORE_BLOCK`` images, so a block stays in cache while it
    meets both prototypes; each image's dots are one gemv over its own
    [P, d] rows, as in a pass over the image alone.
    """
    if not batch.visual or set(batch.visual) != set(protos):
        raise ContractError(f"aligned rows at visual taps {sorted(batch.visual)} "
                            f"do not match the prototypes' taps {sorted(protos)}")
    ids, total, block = batch.ids, None, None
    for layer, rows in batch.visual.items():
        vecs = protos[layer]
        if np.shape(vecs) != (len(CLASSES),) + rows.shape[-1:]:
            raise ShapeError(f"prototypes {np.shape(vecs)} do not match the "
                             f"rows {rows.shape} at visual tap {layer}")
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


def proto_scores(d_norm, d_abn, eps: float) -> np.ndarray:
    """Relative proximity to the abnormal prototype, in [0, 1) up to one
    rounding; a cosine may exceed 1 by an ulp, so a query on the normal
    prototype can score about -1e-16 (not clamped: that would change
    outputs)."""
    if not 0 < eps < np.inf:  # NaN fails this test too
        raise DomainError(f"eps must be positive and finite, got {eps}")
    d_norm, d_abn = (inputs.reals(d, "distances", NumericError) for d in (d_norm, d_abn))
    if d_norm.shape != d_abn.shape:
        raise ContractError(f"distance shapes differ: {d_norm.shape} vs {d_abn.shape}")
    with np.errstate(over="ignore"):
        total = d_norm + d_abn + eps
        # distances are nonnegative up to rounding (a cosine may exceed 1 by
        # an ulp), so only a sum that is not positive is refused
        if not (total > 0).all():
            raise DomainError("distances must sum with eps to a positive number")
        out = d_norm / total
    if not (np.isfinite(total).all() and np.isfinite(out).all()):
        raise NumericError("distances overflow their sum or ratio")
    return out


def minmax_normalize(scores) -> np.ndarray:
    """Map to [0, 1] by batch min/max; a constant batch maps to all 0.5."""
    s = inputs.reals(scores, "scores", NumericError).reshape(-1)
    if s.size == 0:
        raise ContractError("cannot normalize an empty batch")
    lo, hi = s.min(), s.max()
    if hi == lo:
        return np.full_like(s, 0.5)
    span = float(hi) - float(lo)  # Python floats overflow to inf unwarned
    if span == np.inf:
        raise NumericError(f"score range {lo} to {hi} overflows")
    return (s - lo) / span


def ensemble(sem_norm, proto_norm, lam: float) -> np.ndarray:
    """Convex blend of the two normalized branches."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"ensemble weight must lie in [0, 1], got {lam}")
    a, b = (inputs.reals(s, "branch scores", NumericError) for s in (sem_norm, proto_norm))
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


def score_batch(batch: Aligned, labels, protos: dict[int, np.ndarray],
                infer: InferSpec = InferSpec()) -> ScoreReport:
    """Dual-branch scores of one batch of aligned images.

    The prototype distances sum the batch's taps in dict order. Both
    branches are normalized over the whole batch, then blended.
    """
    labels = inputs.labels(labels, batch.ids.shape, "labels", ContractError)
    sem_raw = np.asarray(batch.sem, dtype=np.float64)[batch.ids]
    d_norm, d_abn = proto_distance(batch, protos)
    proto_raw = proto_scores(d_norm, d_abn, infer.eps)
    sem_norm = minmax_normalize(sem_raw)
    proto_norm = minmax_normalize(proto_raw)
    final = ensemble(sem_norm, proto_norm, infer.lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final, labels=labels,
                       lam=infer.lam)
