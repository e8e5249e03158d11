"""Residual bottleneck adapters and learnable context prompts.

Visual features get an unscaled residual adapter; text features get one
scaled by a learnable alpha. Up-projections start at zero, so at
initialization the whole adaptation stage is the identity and the model
scores with purely frozen features. Alpha starts small but nonzero: with a
zero alpha the text adapter weights would never receive gradient (their
whole path is multiplied by alpha) and alpha itself would stay stuck at
zero because the zero-init adapter contributes nothing it could scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs, numcore as nc
from .backbone import CLASSES, WEIGHT_STD, BackboneSpec
from .errors import ConfigError, DomainError, ShapeError
from .numcore import Tensor

_TAG_RAV = 21
_TAG_RAT = 22
_TAG_PROMPT = 23


@dataclass(frozen=True)
class AdaptSpec:
    """Adaptation recipe: learnable prompt rows, the adapters' bottleneck
    ratio and the text gate's initial value."""

    prompt_len: int = 8
    reduction: int = 4
    alpha_init: float = 0.1

    def __post_init__(self):
        inputs.integer(self.prompt_len, "adapt.prompt_len", ConfigError)
        inputs.real(self.alpha_init, "adapt.alpha_init", ConfigError)
        if self.prompt_len < 0:
            raise ConfigError("adapt.prompt_len must be >= 0")
        inputs.integer(self.reduction, "adapt.reduction", ConfigError, least=1)


class ResidualAdapter:
    """Bottleneck map d -> d/r -> d added onto its input.

    The up-projection starts at zero, so a fresh adapter contributes
    exactly nothing.
    """

    def __init__(self, d: int, reduction: int, rng):
        if d % reduction != 0:
            raise ShapeError(f"width {d} not divisible by reduction {reduction}")
        hidden = d // reduction
        self.down = Tensor(rng.normal(0.0, WEIGHT_STD, size=(d, hidden)),
                           requires_grad=True)
        self.up = Tensor(np.zeros((hidden, d)), requires_grad=True)

    def contribution(self, x: Tensor) -> Tensor:
        return nc.matmul(nc.silu(nc.matmul(x, self.down)), self.up)


def apply_visual_adapter(v: Tensor, adapter: ResidualAdapter) -> Tensor:
    """Residual update of patch tokens: V + RAV(V)."""
    return nc.add(v, adapter.contribution(v))


def apply_text_adapter(t: Tensor, adapter: ResidualAdapter, alpha_t: Tensor) -> Tensor:
    """Gated residual update of text states: T + alpha_t * RAT(T)."""
    return nc.add(t, nc.mul(alpha_t, adapter.contribution(t)))


class PromptBank:
    """Shared learnable context rows plus one fixed class embedding per class.

    The two class embeddings occupy disjoint coordinate halves, which makes
    them exactly orthogonal unit vectors by construction.
    """

    def __init__(self, d: int, prompt_len: int, rng):
        self.prompt_len = prompt_len
        self.context = Tensor(rng.normal(0.0, WEIGHT_STD, size=(prompt_len, d)),
                              requires_grad=True)
        half = d // 2
        self.class_embeddings: dict[str, Tensor] = {}
        for i, cls in enumerate(CLASSES):
            vec = np.zeros(d)
            lo, hi = (0, half) if i == 0 else (half, d)
            vec[lo:hi] = rng.normal(size=hi - lo)
            vec /= np.linalg.norm(vec)
            self.class_embeddings[cls] = Tensor(vec)

    def assemble(self, cls: str) -> Tensor:
        """Prompt matrix [context rows..., class row] for one class.

        In a stacked model the context is [E, 1, L, d] and the class
        embedding [E, 1, d]; the rows then join on the second-to-last axis.
        At ``prompt_len`` 0 the context is [0, d] ([E, 1, 0, d] stacked)
        and the concat returns the class row alone.
        """
        if cls not in self.class_embeddings:
            raise DomainError(f"unknown class {cls!r}, expected one of {CLASSES}")
        e = self.class_embeddings[cls]
        row = nc.reshape(e, e.shape[:-1] + (1, e.shape[-1]))
        return nc.concat([self.context, row], axis=-2)


@dataclass
class AdaptationState:
    """Everything the adaptation stage owns: adapters, prompts, text gate."""

    visual_adapters: dict[int, ResidualAdapter]
    text_adapters: dict[int, ResidualAdapter]
    prompts: PromptBank
    alpha_t: Tensor


def init_adaptation(spec: BackboneSpec, seed: int,
                    adapt: AdaptSpec) -> AdaptationState:
    """One visual adapter per visual tap, one text adapter per text tap,
    a shared prompt bank, and a small nonzero alpha_t."""
    def rng(tag, *extra):
        return np.random.default_rng(np.random.SeedSequence((seed, tag) + extra))

    visual = {layer: ResidualAdapter(spec.d, adapt.reduction, rng(_TAG_RAV, layer))
              for layer in spec.selected_visual}
    text = {layer: ResidualAdapter(spec.d, adapt.reduction, rng(_TAG_RAT, layer))
            for layer in spec.selected_text}
    prompts = PromptBank(spec.d, adapt.prompt_len, rng(_TAG_PROMPT))
    alpha = Tensor(np.asarray(float(adapt.alpha_init)), requires_grad=True)
    return AdaptationState(visual_adapters=visual, text_adapters=text,
                           prompts=prompts, alpha_t=alpha)
