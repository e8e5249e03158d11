"""Frozen seeded toy transformers standing in for large pretrained encoders.

The visual tower patchifies an image and reports patch tokens at selected
tap layers; the text tower runs a prompt matrix and reports hidden states at
its own taps plus the class vector at its deepest tap. Each tower stops
after its deepest tap. Weights are drawn once from a seeded Gaussian and
never trained; gradients pass through them to learnable inputs (needed
for prompt tuning). A feature bundle stores one image's visual-tower
features only: the text tower must run on learnable prompts, so text
features cannot be precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inputs, numcore as nc
from .binio import ByteReader, ByteWriter
from .errors import ConfigError, NumericError, ShapeError
from .numcore import Tensor

CLASSES = ("normal", "abnormal")

BUNDLE_MAGIC = b"HAAF"
BUNDLE_VERSION = 2

_TAG_VISUAL = 11
_TAG_TEXT = 12
_TAG_PATCH = 13
_TAG_POS = 14

WEIGHT_STD = 0.02

# Images per block of the frozen visual tower (``runner.build_feature_store``,
# which also renders each block as one array) and of alignment
# (``model.align``), chosen by memory: these two set-up passes set a
# command's peak resident memory, and their transients grow with the block
# (default corpus, tracemalloc peak: store build 19.3 MB at 100 images,
# 10.5 MB at 25; a fresh model aligning 400 images 12.4 MB at 100, 4.4 MB
# at 25). Each extra alignment block costs about 1 ms, since ``forward``
# runs the text tower once per block (README "Numerics contract").
SCORE_BLOCK = 25


@dataclass(frozen=True)
class BackboneSpec:
    """Construction recipe for the frozen encoder pair."""

    d: int = 32
    vision_layers: int = 8
    text_layers: int = 4
    selected_visual: tuple[int, ...] = (2, 4, 6, 8)
    selected_text: tuple[int, ...] = (1, 2, 3, 4)
    patch_grid: tuple[int, int] = (4, 4)
    heads: int = 4
    seed: int = 0

    def __post_init__(self):
        if len(self.selected_visual) != len(self.selected_text):
            raise ConfigError(
                f"tap lists must pair up: {len(self.selected_visual)} visual "
                f"vs {len(self.selected_text)} text")
        if not self.selected_visual:
            raise ConfigError("need at least one tap layer")
        if max(self.selected_visual) > self.vision_layers or min(self.selected_visual) < 1:
            raise ConfigError(f"visual taps {self.selected_visual} outside "
                              f"1..{self.vision_layers}")
        if max(self.selected_text) > self.text_layers or min(self.selected_text) < 1:
            raise ConfigError(f"text taps {self.selected_text} outside "
                              f"1..{self.text_layers}")
        repeated = next((t for i, t in enumerate(self.selected_visual)
                         if t in self.selected_visual[:i]), None)
        if repeated is not None:  # adapters and blocks are keyed by visual tap
            raise ConfigError(f"visual tap {repeated} appears twice in "
                              f"{self.selected_visual}; each pair needs its own")
        if self.d < 2:  # the two class embeddings take disjoint halves
            raise ConfigError(f"width {self.d} must be >= 2")
        if self.heads < 1:
            raise ConfigError(f"heads {self.heads} must be >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"width {self.d} not divisible by {self.heads} heads")
        if len(self.patch_grid) != 2 or min(self.patch_grid) < 1:
            raise ConfigError(f"bad patch grid {self.patch_grid}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"backbone.seed must be >= 0, got {self.seed}")

    @property
    def patches(self) -> int:
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Positional pairing of visual and text tap layers."""
        return list(zip(self.selected_visual, self.selected_text))


class Attention:
    """Projected multi-head attention, softmax(QK'/sqrt)V through W_o: the
    towers' frozen self-attention and CLSA's learnable cross-attention."""

    def __init__(self, d: int, heads: int, rng, learnable: bool):
        if d % heads != 0:
            raise ShapeError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.wq, self.wk, self.wv, self.wo = (
            Tensor(rng.normal(0.0, WEIGHT_STD, size=(d, d)), requires_grad=learnable)
            for _ in range(4))

    def weights(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo}

    def __call__(self, q: Tensor, kv: Tensor) -> Tensor:
        att = nc.attention(nc.matmul(q, self.wq), nc.matmul(kv, self.wk),
                           nc.matmul(kv, self.wv), self.heads)
        return nc.matmul(att, self.wo)


class _Block:
    """Pre-norm biasless transformer block: self-attention then gated FF."""

    def __init__(self, rng, d: int, heads: int):
        self.att = Attention(d, heads, rng, learnable=False)
        self.w1 = Tensor(rng.normal(0.0, WEIGHT_STD, size=(d, 2 * d)))
        self.w2 = Tensor(rng.normal(0.0, WEIGHT_STD, size=(2 * d, d)))

    def forward(self, x: Tensor) -> Tensor:
        h = nc.layernorm_rows(x)
        x = nc.add(x, self.att(h, h))
        h = nc.layernorm_rows(x)
        return nc.add(x, nc.matmul(nc.silu(nc.matmul(h, self.w1)), self.w2))

    def weights(self):
        return (*self.att.weights().values(), self.w1, self.w2)


class ToyEncoder:
    """Stack of frozen blocks plus an input embedding scheme.

    Every block of the configured depth is drawn, so the weights (and
    ``all_weights``) do not depend on the taps, but :meth:`run` stops after
    the deepest tap: the blocks past it feed no output. Taps come out as
    the raw hidden states; :func:`encode_images` centres the visual ones.
    The patch projection depends on the image size, so the tower keeps
    none: :meth:`patch_projection` draws it on each call, and
    ``all_weights`` depends on the spec alone.
    """

    def __init__(self, spec: BackboneSpec, kind: str):
        self.spec = spec
        tag = _TAG_VISUAL if kind == "visual" else _TAG_TEXT
        n = spec.vision_layers if kind == "visual" else spec.text_layers
        self.taps = spec.selected_visual if kind == "visual" else spec.selected_text
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, tag)))
        self.blocks = [_Block(rng, spec.d, spec.heads) for _ in range(n)]
        if kind == "visual":
            pos_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _TAG_POS)))
            self.pos = Tensor(pos_rng.normal(0.0, WEIGHT_STD, size=(spec.patches, spec.d)))
        else:
            self.pos = None

    def patch_projection(self, patch_dim: int) -> Tensor:
        """Patchify projection for a given flattened patch size, seeded by it
        and drawn afresh on each call."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.spec.seed, _TAG_PATCH, patch_dim)))
        return Tensor(rng.normal(0.0, WEIGHT_STD, size=(patch_dim, self.spec.d)))

    def run(self, x: Tensor) -> tuple[dict[int, Tensor], Tensor]:
        """Feed embedded tokens through the blocks up to the deepest tap:
        the tap outputs and that block's output."""
        taps = {}
        for i, block in enumerate(self.blocks[:max(self.taps)], start=1):
            x = block.forward(x)
            if i in self.taps:
                taps[i] = x
        return taps, x

    def all_weights(self):
        out = []
        for b in self.blocks:
            out.extend(b.weights())
        if self.pos is not None:
            out.append(self.pos)
        return out


def encode_images(enc: ToyEncoder, images: list[np.ndarray]) -> dict[int, np.ndarray]:
    """Patch tokens [B, P, d] at each visual tap, row b from images[b]; plain
    arrays, never tracked for gradients.

    Each tap is token-centred: the image's mean token is subtracted, so the
    rows carry only within-image structure. That keeps the shared stream
    component (identical across patches) out of the cosine geometry
    downstream. Text taps stay raw (``encode_prompt``) because the class
    row's absolute content is the point of the prompt.

    The images run through the tower in one pass: a caller that bounds
    memory hands in one block (``runner.build_feature_store``). An empty
    list gives [0, P, d] arrays. Images of different sizes, a ragged image
    and one that is not finite real numbers are refused before the tower
    runs: they would otherwise meet another patch projection, fail the
    float cast or drop imaginary parts, or spread a NaN through the tower.
    The checked images are cast into one [B, H, W, 3] array and patchified
    with one reshape and transpose.
    """
    images = list(images)
    for i, img in enumerate(images):
        try:
            images[i] = img = np.asarray(img)
        except ValueError as exc:  # numpy refuses a ragged nesting
            raise ShapeError(f"image {i} is not a rectangular array: {exc}") from None
        inputs.reals(img, f"image {i}", NumericError)
    bad = next((i for i, img in enumerate(images) if img.shape != images[0].shape), None)
    if bad is not None:
        raise ShapeError(f"image {bad} is {images[bad].shape} but image 0 is "
                         f"{images[0].shape}; a batch needs one image size")
    spec = enc.spec
    if not images:
        return {layer: np.empty((0, spec.patches, spec.d)) for layer in sorted(enc.taps)}
    block = np.asarray(images, dtype=np.float64)
    if block.ndim != 4 or block.shape[3] != 3:
        raise ShapeError(f"image must be [H, W, 3], got {block.shape[1:]}")
    b, h, w, _ = block.shape
    rows, cols = spec.patch_grid
    if h % rows or w % cols:
        raise ShapeError(f"image {h}x{w} not divisible by patch grid {spec.patch_grid}")
    ph, pw = h // rows, w // cols
    flat = (block.reshape(b, rows, ph, cols, pw, 3).transpose(0, 1, 3, 2, 4, 5)
            .reshape(b, rows * cols, ph * pw * 3))
    with nc.no_grad():
        proj = enc.patch_projection(flat.shape[-1])
        taps, _ = enc.run(nc.add(nc.matmul(Tensor(flat), proj), enc.pos))
        for layer, t in taps.items():
            taps[layer] = nc.sub(t, nc.mean_axis(t, -2, keepdims=True))
    return {layer: t.data for layer, t in taps.items()}


def sinusoid_positions(rows: int, d: int) -> np.ndarray:
    """Classic fixed sin/cos position table, valid for any row count."""
    pos = np.arange(rows, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (idx // 2) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return WEIGHT_STD * table


def encode_prompt(enc: ToyEncoder, prompt: Tensor) -> tuple[dict[int, Tensor], Tensor]:
    """Hidden states at each text tap plus the class vector.

    The class embedding sits in the last prompt row; the class vector is that
    row of the hidden states at the deepest text tap, the last block the
    tower runs (the final layer under the default taps). Differentiable
    w.r.t. the prompt.
    Leading axes (a stacked model's [E, 1, rows, d]) pass through.
    """
    if prompt.ndim < 2 or prompt.shape[-1] != enc.spec.d:
        raise ShapeError(f"prompt must be [..., rows, {enc.spec.d}], got {prompt.shape}")
    rows = prompt.shape[-2]
    if rows < 1:
        raise ShapeError("prompt needs at least the class row")
    x = nc.add(prompt, Tensor(sinusoid_positions(rows, enc.spec.d)))
    taps, last = enc.run(x)
    return taps, class_row(last)


def class_row(t: Tensor) -> Tensor:
    """Last row along the token axis, that axis dropped: the class-embedding
    position of a prompt or its hidden states."""
    picked = nc.narrow(t, t.ndim - 2, t.shape[-2] - 1, 1)
    return nc.reshape(picked, t.shape[:-2] + (t.shape[-1],))


# ---------------------------------------------------------------------------
# feature bundles

@dataclass
class FeatureBundle:
    """Frozen visual-tower features for one image, per tap layer."""

    d: int
    visual: dict[int, np.ndarray] = field(default_factory=dict)

    def validate(self) -> None:
        for layer, arr in self.visual.items():
            if arr.ndim != 2 or arr.shape[1] != self.d:
                raise ShapeError(f"visual layer {layer}: shape {arr.shape} "
                                 f"does not match width {self.d}")

    def __eq__(self, other):
        if not isinstance(other, FeatureBundle) or self.d != other.d:
            return False
        if self.visual.keys() != other.visual.keys():
            return False
        return all(np.array_equal(self.visual[k], other.visual[k])
                   for k in self.visual)


def save_feature_bundle(bundle: FeatureBundle, path: str) -> None:
    bundle.validate()
    w = ByteWriter(BUNDLE_MAGIC, BUNDLE_VERSION)
    w.u32(bundle.d)
    w.u32(len(bundle.visual))
    for layer in sorted(bundle.visual):
        arr = bundle.visual[layer]
        w.u32(layer)
        w.u32(arr.shape[0])
        w.f32_array(arr)
    w.save(path)


def load_feature_bundle(path: str) -> FeatureBundle:
    r = ByteReader.open(path, BUNDLE_MAGIC, BUNDLE_VERSION)
    d = r.u32("width")
    bundle = FeatureBundle(d=d)
    for _ in range(r.u32("visual layer count")):
        layer = r.unique(r.u32, bundle.visual, "visual layer id")
        p = r.u32("patch count")
        bundle.visual[layer] = r.f32_array((p, d), f"visual layer {layer}")
    r.expect_exhausted()
    bundle.validate()
    return bundle
