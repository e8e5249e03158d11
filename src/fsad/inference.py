"""Dual-branch scoring: parametric semantic branch and prototype branch.

The semantic branch aggregates sigmoid patch logits against the abnormal
text vector; the prototype branch measures relative cosine proximity to
per-class support prototypes. Each branch is min-max normalized over the
query batch and the two are blended by a convex weight.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import inputs, numcore as nc
from .backbone import CLASSES
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
    visual tap, in the model's tap order, [N, d] arrays of the images'
    mean unit rows and patch means (``summaries``), an [N] array of
    semantic scores, and the batch's B ``ids`` into those N images, in
    batch order. ``model.AlignMemo.take`` passes the memo's own arrays, so
    a batch copies nothing; a hand-built batch of B images passes
    ``np.arange(B)``."""

    unit: dict[int, np.ndarray]
    mean: dict[int, np.ndarray]
    sem: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        n = np.size(self.sem)
        shapes = {layer: np.shape(u) for layer, u in self.unit.items()}
        counts = {layer: shape[:-1] for layer, shape in shapes.items()}
        if np.ndim(self.sem) != 1 or counts and set(counts.values()) != {(n,)}:
            raise ShapeError(f"aligned rows per visual tap {counts} do not match "
                             f"{n} semantic scores")
        if {layer: np.shape(m) for layer, m in self.mean.items()} != shapes:
            raise ShapeError(f"patch means per visual tap do not match the "
                             f"unit rows {shapes}")
        ids = inputs.ids(self.ids, n, ContractError)
        if ids.ndim != 1:
            raise ContractError(f"image ids must be a 1-D array of integers, "
                                f"got shape {ids.shape}")
        object.__setattr__(self, "ids", ids)

    @classmethod
    def _prechecked(cls, unit, mean, sem, ids) -> Aligned:
        """A batch of arrays that have passed ``__post_init__``'s checks
        already (``model.AlignMemo._take``), built without them."""
        batch = object.__new__(cls)
        batch.__dict__.update(unit=unit, mean=mean, sem=sem, ids=ids)
        return batch


def summaries(rows) -> tuple[np.ndarray, np.ndarray]:
    """The two [..., d] vectors scoring reads of [..., P, d] aligned patch
    rows: ``unit``, the mean over the patches of each row divided by its
    norm floored at ``NORM_FLOOR`` (as ``nc.cosine_rows`` floors it), and
    ``mean``, the mean of the rows. The sums run over a C-contiguous copy,
    so an image's summaries do not depend on the layout or the batch its
    rows came in. Rows with no patches or zero width are a ``ShapeError``,
    and a row whose norm is not finite a ``NumericError``."""
    rows = np.ascontiguousarray(rows)
    if 0 in rows.shape[-2:]:
        raise ShapeError(f"rows {rows.shape} have no patches or zero width")
    with np.errstate(over="ignore"):  # the NumericError below reports it
        norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NumericError(f"rows {rows.shape} have a norm that is not finite")
    unit = (rows / np.maximum(norms, nc.NORM_FLOOR)).mean(axis=-2)
    return unit, rows.mean(axis=-2)


@dataclass(frozen=True)
class Prototypes(Mapping):
    """What ``build_prototypes`` gives: per visual tap, the [2, d] class
    means ``means`` (row c of class c, ``CLASSES`` order), which the
    mapping reads, and ``dirs``, the same rows each divided by its norm
    floored at ``NORM_FLOOR``, which ``proto_distance`` reads."""

    means: dict[int, np.ndarray]
    dirs: dict[int, np.ndarray]

    def __getitem__(self, layer: int) -> np.ndarray:
        return self.means[layer]

    def __iter__(self):
        return iter(self.means)

    def __len__(self) -> int:
        return len(self.means)


def build_prototypes(support: Aligned, labels) -> Prototypes:
    """Per visual tap, a [2, d] array whose row c is the mean, in batch
    order, of the patch means of the support images labelled c, and its
    rows' directions (``Prototypes``), built once for every batch scored
    against them."""
    labels = inputs.labels(labels, support.ids.shape, "labels", ContractError)
    members = [support.ids[labels == c] for c in range(len(CLASSES))]
    for cls, ids in zip(CLASSES, members):
        if not ids.size:
            raise CapacityError(f"class {cls!r} has no support samples")
    # a class row is the sum of its rows over axis 0 divided by their count,
    # as ``ndarray.mean`` computes it, without its Python wrapper
    means = {layer: np.array([np.add.reduce(mean[ids], axis=0) / ids.size
                              for ids in members])
             for layer, mean in support.mean.items()}
    dirs = {}
    for layer, vecs in means.items():
        # each class row's norm is its own call: one norm over the [2, d]
        # array may sum in another order
        scale = np.array([max(np.linalg.norm(vec), nc.NORM_FLOOR) for vec in vecs])
        dirs[layer] = vecs / scale[:, None]
    return Prototypes(means, dirs)


def proto_distance(batch: Aligned, protos: Prototypes) -> np.ndarray:
    """Per class row of the prototypes (``CLASSES`` order), the sum over the
    batch's taps of one minus the mean patch cosine to that row: [2, B]
    distances, read from the prototypes' directions as built.

    The mean cosine of an image's rows to c is ``unit . c / |c|``, with
    ``unit`` its mean unit row (``summaries``) and ``|c|`` floored at
    ``NORM_FLOOR``. Each dot is a sum over a contiguous last axis, not a
    BLAS gemv, so it does not depend on the image's place in the batch
    (README "Numerics contract").
    """
    if not batch.unit or set(batch.unit) != set(protos):
        raise ContractError(f"aligned rows at visual taps {sorted(batch.unit)} "
                            f"do not match the prototypes' taps {sorted(protos)}")
    total = None
    for layer, unit in batch.unit.items():
        vecs = protos[layer]
        if np.shape(vecs) != (len(CLASSES),) + unit.shape[-1:]:
            raise ShapeError(f"prototypes {np.shape(vecs)} do not match the "
                             f"unit rows {unit.shape} at visual tap {layer}")
        rows = unit.take(batch.ids, axis=0)
        term = 1.0 - np.add.reduce(rows * protos.dirs[layer][:, None], axis=-1)
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
    return _proto_scores(d_norm, d_abn, eps)


def _proto_scores(d_norm: np.ndarray, d_abn: np.ndarray, eps: float) -> np.ndarray:
    """``proto_scores`` of finite float64 distances of one shape and a
    valid ``eps``."""
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
    return _minmax(inputs.reals(scores, "scores", NumericError).reshape(-1))


def _minmax(s: np.ndarray) -> np.ndarray:
    """``minmax_normalize`` of a 1-D float64 array of finite scores."""
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
    return _blend(a, b, lam)


def _blend(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """``ensemble`` of two float64 arrays of one shape and a weight in [0, 1]."""
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


def score_batch(batch: Aligned, labels, protos: Prototypes,
                infer: InferSpec = InferSpec()) -> ScoreReport:
    """Dual-branch scores of one batch of aligned images.

    The prototype distances sum the batch's taps in dict order. Both
    branches are normalized over the whole batch, then blended. The
    distances and the semantic scores are each checked once, as
    ``proto_scores`` and ``minmax_normalize`` check them, and no array
    computed from them is checked again.
    """
    labels = inputs.labels(labels, batch.ids.shape, "labels", ContractError)
    sem_raw = np.asarray(batch.sem, dtype=np.float64)[batch.ids]
    d_norm, d_abn = inputs.reals(proto_distance(batch, protos), "distances",
                                 NumericError)
    proto_raw = _proto_scores(d_norm, d_abn, infer.eps)
    sem_norm = _minmax(inputs.reals(sem_raw, "scores", NumericError))
    proto_norm = _minmax(proto_raw)
    final = _blend(sem_norm, proto_norm, infer.lam)
    return ScoreReport(sem_raw=sem_raw, proto_raw=proto_raw, sem_norm=sem_norm,
                       proto_norm=proto_norm, final=final, labels=labels,
                       lam=infer.lam)
