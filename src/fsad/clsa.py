"""Sequential cross-modal alignment between paired visual and text layers.

Alignment is one gated attention step (``gated_attention``) run in two
directions. Step 1 lets text rows attend over the image's patch tokens
(context injection, gate beta_t); step 2 reverses direction so patch
tokens attend over the refined text rows of both classes (semantic
guidance, gate beta_v). Ablation strategies switch either step off; the
shared gate pair starts closed by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .backbone import Attention, class_row
from .errors import ConfigError
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


def gated_attention(x: Tensor, context: Tensor, block: Attention,
                    gate: Tensor) -> Tensor:
    """x + gate * block(x, context): ``x`` absorbs what it attends to in
    ``context``. Context injection runs it on text rows over patch tokens
    under beta_t; semantic guidance on patch tokens over the refined text
    under beta_v."""
    return nc.add(x, nc.mul(gate, block(x, context)))


@dataclass
class ClsaState:
    """Per-pair unshared attention blocks plus the shared gate pair."""

    v2t_blocks: dict[int, Attention]
    t2v_blocks: dict[int, Attention]
    beta_t: Tensor
    beta_v: Tensor


def init_clsa(pairs: list[tuple[int, int]], d: int, seed: int,
              spec: ClsaSpec) -> ClsaState:
    """Fresh blocks per mapped pair, keyed by the pair's visual layer."""
    def block(direction, layer):
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _TAG_CLSA, direction, layer)))
        return Attention(d, spec.heads, rng, learnable=True)

    beta_t, beta_v = (Tensor(np.full((), float(spec.gate_init)),
                             requires_grad=spec.gates_learnable) for _ in range(2))
    return ClsaState(v2t_blocks={l: block(0, l) for l, _ in pairs},
                     t2v_blocks={l: block(1, l) for l, _ in pairs},
                     beta_t=beta_t, beta_v=beta_v)


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
            refined = {cls: gated_attention(t, v, state.v2t_blocks[vl],
                                            state.beta_t)
                       for cls, t in refined.items()}
        out_text[tl], guidance[vl], out_visual[vl] = refined, None, v
        if strategy in ("t2v", "seq"):
            guidance[vl] = nc.concat(list(refined.values()), axis=-2)
            out_visual[vl] = gated_attention(
                v, guidance[vl], state.t2v_blocks[vl], state.beta_v)
    class_vectors = {cls: class_row(t)
                     for cls, t in out_text[pairs[-1][1]].items()}
    return ClsaOutput(visual=out_visual, text_refined=out_text,
                      class_vectors=class_vectors, guidance_keys=guidance)
