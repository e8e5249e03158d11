"""Sequential cross-modal alignment between paired visual and text layers.

Step 1 lets text rows attend over the image's patch tokens (context
injection); step 2 reverses direction so patch tokens attend over the
refined text rows of both classes (semantic guidance). Ablation strategies
switch either step off; a shared gate pair scales both residual terms and
starts closed by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .backbone import WEIGHT_STD, class_row
from .errors import ConfigError, ShapeError
from .numcore import Tensor

_TAG_CLSA = 31

STRATEGIES = ("none", "v2t", "t2v", "seq")


@dataclass(frozen=True)
class ClsaSpec:
    """Alignment recipe: the strategy, the heads of every attention block
    and the shared gate pair's initial value and learnability."""

    strategy: str = "seq"
    heads: int = 4
    gate_init: float = 0.0
    gates_learnable: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"clsa.strategy must be one of {STRATEGIES}, "
                              f"got {self.strategy!r}")
        if self.heads < 1:
            raise ConfigError(f"clsa.heads must be >= 1, got {self.heads}")


class CrossAttentionBlock:
    """Projected multi-head cross-attention: softmax(QK'/sqrt)V through W_o."""

    def __init__(self, d: int, heads: int, rng):
        if d % heads != 0:
            raise ShapeError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.wq, self.wk, self.wv, self.wo = (
            Tensor(rng.normal(0.0, WEIGHT_STD, size=(d, d)), requires_grad=True)
            for _ in range(4))

    def weights(self):
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo}


def mhca(q: Tensor, k: Tensor, v: Tensor, block: CrossAttentionBlock) -> Tensor:
    """Cross-attention with learned projections; output matches query shape."""
    att = nc.attention(nc.matmul(q, block.wq), nc.matmul(k, block.wk),
                       nc.matmul(v, block.wv), block.heads)
    return nc.matmul(att, block.wo)


class GatePair:
    """Learnable residual scales for the two alignment directions."""

    def __init__(self, init: float, learnable: bool):
        self.beta_t = Tensor(np.full((), float(init)), requires_grad=learnable)
        self.beta_v = Tensor(np.full((), float(init)), requires_grad=learnable)


def context_injection(t: Tensor, v: Tensor, block: CrossAttentionBlock,
                      beta_t: Tensor) -> Tensor:
    """Text rows absorb visual context: T + beta_t * MHCA(Q=T, K=V=visual)."""
    return nc.add(t, nc.mul(beta_t, mhca(t, v, v, block)))


def semantic_guidance(v: Tensor, t: Tensor, block: CrossAttentionBlock,
                      beta_v: Tensor) -> Tensor:
    """Patch tokens re-weighted by refined text: V + beta_v * MHCA(Q=V, K=V=text)."""
    return nc.add(v, nc.mul(beta_v, mhca(v, t, t, block)))


@dataclass
class ClsaState:
    """Per-pair unshared attention blocks plus the shared gate pair."""

    v2t_blocks: dict[int, CrossAttentionBlock]
    t2v_blocks: dict[int, CrossAttentionBlock]
    gates: GatePair


def init_clsa(pairs: list[tuple[int, int]], d: int, seed: int,
              spec: ClsaSpec) -> ClsaState:
    """Fresh blocks per mapped pair, keyed by the pair's visual layer."""
    def rng(direction, layer):
        return np.random.default_rng(
            np.random.SeedSequence((seed, _TAG_CLSA, direction, layer)))

    v2t = {l: CrossAttentionBlock(d, spec.heads, rng(0, l)) for l, _ in pairs}
    t2v = {l: CrossAttentionBlock(d, spec.heads, rng(1, l)) for l, _ in pairs}
    return ClsaState(v2t_blocks=v2t, t2v_blocks=t2v,
                     gates=GatePair(spec.gate_init, spec.gates_learnable))


@dataclass
class ClsaOutput:
    """Aligned features plus probes into the alignment internals."""

    visual: dict[int, Tensor]
    text_refined: dict[int, dict[str, Tensor]]
    class_vectors: dict[str, Tensor]
    guidance_keys: dict[int, Tensor | None]


def clsa_forward(pairs: list[tuple[int, int]], visual: dict[int, Tensor],
                 text: dict[int, dict[str, Tensor]], state: ClsaState,
                 strategy: str) -> ClsaOutput:
    """Run the chosen alignment strategy over every mapped layer pair.

    visual maps each visual tap to adapted patch tokens [..., P, d]; text
    maps each text tap to per-class adapted prompt states [(L+1), d]. The
    strategy is two switches: v2t lets the visual tokens refine the text,
    and t2v lets the (refined) text guide the visual tokens, its classes'
    rows concatenated in dict order. The class vectors come from the last
    pair's refined text.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}, expected {STRATEGIES}")
    out_visual: dict[int, Tensor] = {}
    out_text: dict[int, dict[str, Tensor]] = {}
    guidance: dict[int, Tensor | None] = {}
    for vl, tl in pairs:
        if vl not in visual:
            raise ConfigError(f"missing visual features for pair layer {vl}")
        if tl not in text:
            raise ConfigError(f"missing text features for pair layer {tl}")
        v, refined = visual[vl], dict(text[tl])
        if strategy in ("v2t", "seq"):
            refined = {cls: context_injection(t, v, state.v2t_blocks[vl],
                                              state.gates.beta_t)
                       for cls, t in refined.items()}
        out_text[tl], guidance[vl], out_visual[vl] = refined, None, v
        if strategy in ("t2v", "seq"):
            guidance[vl] = nc.concat(list(refined.values()), axis=-2)
            out_visual[vl] = semantic_guidance(
                v, guidance[vl], state.t2v_blocks[vl], state.gates.beta_v)
    class_vectors = {cls: class_row(t)
                     for cls, t in out_text[pairs[-1][1]].items()}
    return ClsaOutput(visual=out_visual, text_refined=out_text,
                      class_vectors=class_vectors, guidance_keys=guidance)
