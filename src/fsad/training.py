"""Episode optimization: BCE on semantic scores, AdamW, cosine annealing.

Prompts, alignment blocks and the logit scale train at the fast rate;
adapters train ten times slower. Support features come precomputed from the
frozen visual tower, so each step differentiates only the adaptation stack.
A stacked model (``model.stack_models``) trains several independent
episodes in one tape, each bit-identical to training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs, numcore as nc
from .errors import ConfigError, ContractError, DomainError, NumericError
from .inference import semantic_scores
from .model import (FAST_GROUP, Model, forward, named_parameters,
                    parameter_groups, stack_size)
from .numcore import GradTape, Tensor, backward


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr_fast: float = 1e-4
    lr_slow: float = 1e-5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr_fast <= 0 or self.lr_slow <= 0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"Adam betas must lie in [0, 1), "
                              f"got {self.beta1} and {self.beta2}")
        if not (self.eps > 0 and self.weight_decay >= 0):
            raise ConfigError(f"eps must be positive and weight decay >= 0, "
                              f"got {self.eps} and {self.weight_decay}")


SCORE_FLOOR = 1e-12


def bce_loss(scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over probability scores, per episode.

    Labels are [n] (one episode: a scalar loss) or [E, n] (a stack: one
    loss per episode); scores take the labels' shape. Scores are clamped
    away from {0, 1} so saturated sigmoids cannot produce infinite log
    terms; clamped entries contribute zero gradient.
    """
    y = np.atleast_1d(inputs.labels(labels, None, "labels", ContractError))
    if y.size == 0:
        raise ContractError("empty batch in loss")
    if scores.data.size != y.size:
        raise ContractError(f"{scores.data.size} scores vs {y.size} labels")
    flat = nc.clip(nc.reshape(scores, y.shape), SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    ones = Tensor(np.ones(y.shape))
    pos = nc.mul(Tensor(y), nc.log(flat))
    neg = nc.mul(Tensor(1.0 - y), nc.log(nc.sub(ones, flat)))
    return nc.scale(nc.sum_last(nc.add(pos, neg)), -1.0 / y.shape[-1])


def cosine_lr(base_lr: float, epoch: int, total: int) -> float:
    """Half-cosine decay from base_lr toward zero across the run."""
    if not 0 <= epoch < total:
        raise DomainError(f"epoch {epoch} outside schedule of {total}")
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * epoch / total))


class AdamW:
    """Decoupled-weight-decay Adam over named parameters with per-name rates."""

    def __init__(self, params: dict[str, Tensor],
                 config: TrainConfig = TrainConfig()):
        self.params = {n: p for n, p in params.items() if p.requires_grad}
        self.weight_decay = config.weight_decay
        self.beta1, self.beta2, self.eps = config.beta1, config.beta2, config.eps
        self.step_count = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self, lrs: dict[str, float]) -> None:
        """One update using per-parameter learning rates; skips missing grads."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = 1 - b1 ** t, 1 - b2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractError(f"{name}: grad shape {g.shape} vs {p.data.shape}")
            lr = lrs[name]
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data = (p.data - lr * self.weight_decay * p.data
                      - lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def training_scores(model: Model, visual_taps: dict[int, Tensor]) -> Tensor:
    """Differentiable batch of semantic scores, the quantity BCE trains on."""
    out = forward(model, visual_taps)
    return semantic_scores(out.visual, out.class_vectors["abnormal"], model.tau())


@dataclass
class TraceRow:
    epoch: int
    lr_fast: float
    lr_slow: float
    loss: float


def _first_nonfinite(model: Model, episode: int | None = None) -> str | None:
    """Name of the first parameter, or of its slice for one episode of a
    stack, that holds a non-finite value."""
    return next((name for name, p in named_parameters(model).items()
                 if not np.isfinite(p.data if episode is None
                                    else p.data[episode]).all()), None)


def _loss_error(model: Model, losses: np.ndarray, epoch: int) -> NumericError:
    """Name the epoch, the first diverged episode of a stack and that
    episode's first non-finite parameter."""
    episode = int(np.flatnonzero(~np.isfinite(losses.reshape(-1)))[0])
    stacked = stack_size(model) is not None
    culprit = _first_nonfinite(model, episode if stacked else None)
    return NumericError(
        f"training diverged: non-finite loss at epoch {epoch}"
        + (f" in episode {episode} of the stack" if stacked else "")
        + (f"; first non-finite parameter {culprit}" if culprit
           else "; all parameters still finite"))


def train_episode(model: Model, support_feats: dict[int, np.ndarray], labels,
                  config: TrainConfig) -> list[TraceRow] | list[list[TraceRow]]:
    """Optimize the adaptation stack on one support set.

    support_feats maps visual taps to [B, P, d] frozen features; labels is
    the matching 0/1 vector. Mini-batches are consecutive fixed-order slices
    capped at the configured batch size, so runs are fully deterministic.
    Returns the per-epoch trace.

    A stacked model of E episodes takes [E, B, P, d] features and [E, B]
    labels and returns one trace per episode. The step differentiates the
    [E] vector of per-episode losses, that is their sum, so each episode's
    gradient is the one it would get alone. Raises NumericError at the
    first non-finite loss, or if the last update left a parameter
    non-finite.

    Epoch 0 runs eagerly: ``numcore.backward`` differentiates each
    mini-batch position's tape and returns the ``numcore.Schedule`` it
    compiled. Later epochs replay those schedules, which run the same
    kernels in the same order on the updated parameters.
    """
    stacked = stack_size(model) is not None
    shapes = {np.shape(feats)[:-2] for feats in support_feats.values()}
    if len(shapes) != 1 or () in shapes:
        raise ContractError(f"support taps need one batch shape, got {sorted(shapes)}")
    y = inputs.labels(labels, shapes.pop(), "labels", ContractError)
    n = y.shape[-1]
    if n == 0:
        raise ContractError("empty support set")
    groups = parameter_groups(model)
    rate_key = {name: (config.lr_fast if group == FAST_GROUP else config.lr_slow)
                for group, names in groups.items() for name in names}
    opt = AdamW(named_parameters(model), config)
    bounds = list(range(0, n, min(config.batch_size, n))) + [n]
    traces: list[list[TraceRow]] = [[] for _ in range(y.size // n)]
    schedules: list[nc.Schedule] = []
    # a diverging run overflows before its loss turns non-finite; the
    # NumericError below reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            decay = cosine_lr(1.0, epoch, config.epochs)
            lrs = {name: base * decay for name, base in rate_key.items()}
            total_loss = np.zeros(y.shape[:-1])
            for position, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                if epoch == 0:
                    batch = {layer: Tensor(feats[..., lo:hi, :, :])
                             for layer, feats in support_feats.items()}
                    with GradTape() as tape:
                        loss = bce_loss(training_scores(model, batch), y[..., lo:hi])
                    losses = loss.data
                else:
                    losses = schedules[position].forward()
                if not np.isfinite(losses).all():
                    raise _loss_error(model, losses, epoch)
                opt.zero_grad()
                if epoch == 0:
                    schedules.append(backward(loss, tape))
                    # the replays hold their own context; keep no recorded
                    # step's activations alive across them
                    del tape, loss
                else:
                    schedules[position].backward()
                opt.step(lrs)
                total_loss += losses * (hi - lo)
            for trace, episode_loss in zip(traces, np.reshape(total_loss / n, -1)):
                trace.append(TraceRow(epoch=epoch, lr_fast=config.lr_fast * decay,
                                      lr_slow=config.lr_slow * decay,
                                      loss=float(episode_loss)))
    opt.zero_grad()
    # the last step's update is never scored by a loss
    culprit = _first_nonfinite(model) if config.epochs else None
    if culprit:
        raise NumericError(f"training diverged: parameter {culprit} is "
                           f"non-finite after the last epoch")
    return traces if stacked else traces[0]
