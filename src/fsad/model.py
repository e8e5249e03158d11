"""Full trainable state: adapters, prompts, alignment blocks, logit scale.

One Model owns the frozen text encoder, the tower that gradients pass
through to the prompts, plus every learnable tensor. Visual features arrive
precomputed, so a Model never holds or runs the visual tower. It exposes
the learnable tensors as an ordered name -> tensor mapping split into a fast
group (prompts, alignment, logit scale) and a slow group (adapters), and
serializes exactly that mapping into a checkpoint file. Checkpoints store
64-bit floats so a save/load cycle is bit-exact.

A Model also keeps a private memo of its alignment over one feature store
(``align``): under fixed parameters an image's aligned patch rows depend
on the image alone, so each image is aligned once and kept as what
scoring reads of it, two [d] summaries per tap (``inference.summaries``)
and its semantic score.

A stacked Model holds E independent episodes: every learnable tensor and
class embedding carries a leading episode axis shaped to broadcast against
the activations it meets, so the ordinary forward code runs all E at once.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import inputs, numcore as nc
from .adaptation import (AdaptationState, AdaptSpec, apply_text_adapter,
                         apply_visual_adapter, init_adaptation)
from .backbone import SCORE_BLOCK, BackboneSpec, ToyEncoder, encode_prompt
from .binio import ByteReader, ByteWriter
from .clsa import ClsaOutput, ClsaSpec, ClsaState, clsa_forward, init_clsa
from .errors import CompatError, ConfigError, ContractError, NumericError
from .inference import Aligned, semantic_scores, summaries
from .numcore import Tensor

CHECKPOINT_MAGIC = b"HAAP"
CHECKPOINT_VERSION = 1

RHO_INIT = float(np.log(10.0))

# the most dimensions numpy gives an ndarray
MAX_RANK = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32

FAST_GROUP = "fast"
SLOW_GROUP = "slow"


@dataclass(frozen=True)
class Recipe:
    """What a fresh model is drawn from: the backbone, the adaptation and
    alignment recipes, and the seed of every learnable draw and class
    embedding. Two models of one recipe are equal bit for bit."""

    backbone: BackboneSpec = BackboneSpec()
    adapt: AdaptSpec = AdaptSpec()
    clsa: ClsaSpec = ClsaSpec()
    seed: int = 0

    def __post_init__(self):
        # numpy's SeedSequence takes no negative entropy
        inputs.integer(self.seed, "model seed", ConfigError, least=0)

    def structure(self) -> Recipe:
        """Recipes that agree here may share a stack (``stack_models``):
        they differ only in their seed and initial gate value."""
        return replace(self, seed=0, clsa=replace(self.clsa, gate_init=0.0))


@dataclass
class Model:
    """Frozen text encoder plus every learnable tensor, drawn from ``recipe``."""

    recipe: Recipe
    text_enc: ToyEncoder
    adapt: AdaptationState
    clsa: ClsaState
    rho: Tensor
    _memo: AlignMemo | None = field(default=None, init=False, repr=False,
                                    compare=False)

    # read-only views of the recipe; a stack's recipe is its first model's
    spec = property(lambda self: self.recipe.backbone)
    strategy = property(lambda self: self.recipe.clsa.strategy)

    def tau(self) -> Tensor:
        return nc.exp(self.rho)


def init_model(recipe: Recipe) -> Model:
    spec, seed = recipe.backbone, recipe.seed
    return Model(recipe=recipe, text_enc=ToyEncoder(spec, "text"),
                 adapt=init_adaptation(spec, seed, recipe.adapt),
                 clsa=init_clsa(spec.pairs, spec.d, seed, recipe.clsa),
                 rho=Tensor(np.full((), RHO_INIT), requires_grad=True))


def named_parameters(model: Model) -> dict[str, Tensor]:
    """Every learnable tensor in a stable order; exactly the checkpoint set."""
    out: dict[str, Tensor] = {"prompt.context": model.adapt.prompts.context}
    for layer in sorted(model.adapt.visual_adapters):
        ad = model.adapt.visual_adapters[layer]
        out[f"rav.{layer}.down"] = ad.down
        out[f"rav.{layer}.up"] = ad.up
    for layer in sorted(model.adapt.text_adapters):
        ad = model.adapt.text_adapters[layer]
        out[f"rat.{layer}.down"] = ad.down
        out[f"rat.{layer}.up"] = ad.up
    out["rat.alpha"] = model.adapt.alpha_t
    for layer in sorted(model.clsa.v2t_blocks):
        for direction, block in (("v2t", model.clsa.v2t_blocks[layer]),
                                 ("t2v", model.clsa.t2v_blocks[layer])):
            for wname, w in block.weights().items():
                out[f"clsa.{layer}.{direction}.{wname}"] = w
    out["clsa.beta_t"] = model.clsa.beta_t
    out["clsa.beta_v"] = model.clsa.beta_v
    out["logit.rho"] = model.rho
    return out


def _episode_tensors(model: Model) -> dict[str, Tensor]:
    """Every tensor that differs between episodes: the parameters plus the
    (fixed, seed-drawn) class embeddings."""
    out = named_parameters(model)
    for cls, emb in model.adapt.prompts.class_embeddings.items():
        out[f"class.{cls}"] = emb
    return out


def _stacked_shape(name: str, shape: tuple[int, ...],
                   episodes: int) -> tuple[int, ...]:
    """[E, 1, *shape] for matrices, the prompt context and class embeddings.
    The scalar gates scale [E, B, rows, d] activations, so they become
    [E, 1, 1, 1]; rho scales [E, B, P] patch logits, so [E, 1, 1]."""
    if shape:
        return (episodes, 1) + shape
    return (episodes, 1, 1) if name == "logit.rho" else (episodes, 1, 1, 1)


def stack_size(model: Model) -> int | None:
    """Episodes in a stacked model; None for an ordinary one."""
    return model.rho.shape[0] if model.rho.ndim else None


def stack_models(models: list[Model]) -> Model:
    """One model that trains the given models of one recipe structure side by side.

    The stack shares the first model's recipe and frozen text encoder and
    copies its learnable set; episode e of every stacked tensor is
    models[e]'s tensor.
    """
    if not models:
        raise ContractError("a stack needs at least one model")
    first = models[0]
    structure = first.recipe.structure()
    if any(m.recipe.structure() != structure for m in models):
        raise ContractError("stacked models must share one Recipe.structure()")
    shared = {id(obj): obj for obj in (first.recipe, first.text_enc)}
    stacked = copy.deepcopy(replace(first), shared)  # replace drops the memo
    per_model = [_episode_tensors(m) for m in models]
    for name, t in _episode_tensors(stacked).items():
        t.data = np.stack([tensors[name].data for tensors in per_model]).reshape(
            _stacked_shape(name, t.shape, len(models)))
    return stacked


def unstack_model(stacked: Model, models: list[Model]) -> None:
    """Write episode e of every stacked tensor back into models[e]."""
    if stack_size(stacked) != len(models):
        raise ContractError(f"stack of {stack_size(stacked)} episodes "
                            f"vs {len(models)} models")
    source = _episode_tensors(stacked)
    for e, m in enumerate(models):
        for name, t in _episode_tensors(m).items():
            t.data = source[name].data[e].reshape(t.shape).copy()


def parameter_groups(model: Model) -> dict[str, str]:
    """Each parameter's learning-rate group, name -> group in
    ``named_parameters`` order: adapters slow, everything else fast."""
    return {name: SLOW_GROUP if name.startswith(("rav.", "rat.")) else FAST_GROUP
            for name in named_parameters(model)}


def forward_text(model: Model) -> dict[int, dict[str, Tensor]]:
    """Per-tap, per-class adapted prompt hidden states."""
    out: dict[int, dict[str, Tensor]] = {m: {} for m in model.spec.selected_text}
    for cls in model.adapt.prompts.class_embeddings:
        prompt = model.adapt.prompts.assemble(cls)
        taps, _ = encode_prompt(model.text_enc, prompt)
        for m in model.spec.selected_text:
            out[m][cls] = apply_text_adapter(taps[m], model.adapt.text_adapters[m],
                                             model.adapt.alpha_t)
    return out


def forward_visual(model: Model, visual_taps: dict[int, Tensor]) -> dict[int, Tensor]:
    """Adapted patch tokens per visual tap; accepts [P, d] or [B, P, d]."""
    missing = [t for t in model.spec.selected_visual if t not in visual_taps]
    if missing:
        raise ContractError(f"no features for visual taps {missing}")
    return {layer: apply_visual_adapter(visual_taps[layer],
                                        model.adapt.visual_adapters[layer])
            for layer in model.spec.selected_visual}


def forward(model: Model, visual_taps: dict[int, Tensor]) -> ClsaOutput:
    """Adapt both modalities then align them under the model's strategy."""
    adapted_v = forward_visual(model, visual_taps)
    adapted_t = forward_text(model)
    return clsa_forward(model.spec.pairs, adapted_v, adapted_t, model.clsa,
                        model.strategy)


# ---------------------------------------------------------------------------
# alignment memo

@dataclass
class AlignMemo:
    """A model's per-image alignment summaries and semantic scores over one
    feature store: row i belongs to the store's image i and holds data once
    ``filled[i]`` is set. ``store`` and ``key`` say what the rows were
    computed from."""

    store: object
    key: bytes
    unit: dict[int, np.ndarray]  # tap -> [N, d], in selected_visual order
    mean: dict[int, np.ndarray]  # tap -> [N, d]; both inference.summaries
    sem: np.ndarray  # [N]
    filled: np.ndarray  # [N] bool

    def take(self, ids) -> Aligned:
        """Images ``ids``, each aligned already, as one batch to score: the
        memo's own arrays and ``ids``, so nothing is copied."""
        batch = Aligned(unit=self.unit, mean=self.mean, sem=self.sem, ids=ids)
        missing = batch.ids[~self.filled[batch.ids]]
        if missing.size:  # its rows would be uninitialized memory
            raise ContractError(f"image {missing[0]} is not aligned yet; "
                                f"align it before taking it")
        return batch

    def _take(self, ids: np.ndarray) -> Aligned:
        """``take`` of a 1-D int64 array of ids that ``align`` has just
        checked and aligned (``runner.run_episode``), checked no further."""
        return Aligned._prechecked(self.unit, self.mean, self.sem, ids)


def _memo_key(model: Model) -> bytes:
    """The exact bytes of the values an image's alignment depends on
    besides the image and the model's fixed structure and frozen text
    tower: a snapshot of the episode tensors, about 0.3 MB at the default
    size. Comparing two snapshots with ``==`` is a memcmp, so no digest is
    computed, and any changed bit, a one-ulp edit or a sign of zero,
    starts the memo afresh."""
    return b"".join(np.ascontiguousarray(t.data)
                    for t in _episode_tensors(model).values())


def align(model: Model, store, ids) -> AlignMemo:
    """The model's memo over ``store`` (a ``runner.FeatureStore``) with
    the images ``ids`` aligned.

    Images not in the memo yet run through ``forward`` in blocks of at most
    ``SCORE_BLOCK``, and each block's summaries are written straight into
    the memo; the aligned rows are dropped. The memo starts empty for a
    store it was not filled from, and after any change to an episode
    tensor (training, ``apply_checkpoint``, an in-place edit). An image's
    rows do not depend on the other images in its block (README "Numerics
    contract"), so its summaries equal those of a pass over the image alone.
    """
    n = store.labels.size
    ids = inputs.ids(ids, n, ContractError)
    key = _memo_key(model)
    memo = model._memo
    if memo is None or memo.store is not store or memo.key != key:
        empty = store.take(model.spec.selected_visual, [])  # tap -> [0, P, d]
        memo = model._memo = AlignMemo(
            store=store, key=key,
            unit={t: np.empty((n, a.shape[-1])) for t, a in empty.items()},
            mean={t: np.empty((n, a.shape[-1])) for t, a in empty.items()},
            sem=np.empty(n), filled=np.zeros(n, dtype=bool))
    todo = ids[~memo.filled[ids]]
    if not todo.size:
        return memo
    # the NumericError below reports an overflow; numpy's warnings would repeat it
    with nc.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        tau = model.tau()
        for lo in range(0, todo.size, SCORE_BLOCK):
            block = todo[lo:lo + SCORE_BLOCK]
            out = forward(model, {t: Tensor(a) for t, a in
                                  store.take(memo.unit, block).items()})
            for t in memo.unit:
                try:
                    memo.unit[t][block], memo.mean[t][block] = summaries(
                        out.visual[t].data)
                except NumericError:  # a non-finite entry, or a norm overflow
                    raise NumericError(f"alignment diverged: the aligned rows "
                                       f"at visual tap {t} overflow") from None
            memo.sem[block] = semantic_scores(
                out.visual, out.class_vectors["abnormal"], tau).data
            memo.filled[block] = True
            del out  # its refined text would stay alive through the next block
    return memo


# ---------------------------------------------------------------------------
# checkpoints

# The settings a checkpoint records, in file order: key, the name format
# errors give it, its kind and its value in a model's recipe. An int is one
# u32; a tuple is a u32 count, then its entries.
_SETTINGS = (
    ("d", "width", int, lambda r: r.backbone.d),
    ("prompt_len", "prompt length", int, lambda r: r.adapt.prompt_len),
    ("selected_visual", "visual tap", tuple, lambda r: r.backbone.selected_visual),
    ("selected_text", "text tap", tuple, lambda r: r.backbone.selected_text),
)


def checkpoint_meta(model: Model) -> dict:
    """The recipe settings a checkpoint of this model records and must match."""
    return {key: get(model.recipe) for key, _, _, get in _SETTINGS}


def write_checkpoint(path: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """The exact inverse of :func:`load_checkpoint`."""
    w = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    for key, _, kind, _ in _SETTINGS:
        if kind is tuple:
            w.u32(len(meta[key]))
        for v in meta[key] if kind is tuple else (meta[key],):
            w.u32(v)
    w.u32(len(tensors))
    for name, arr in tensors.items():
        w.string(name)
        w.u32(arr.ndim)
        for dim in arr.shape:
            w.u32(dim)
        w.f64_array(arr)
    w.save(path)


def save_checkpoint(model: Model, path: str) -> None:
    write_checkpoint(path, checkpoint_meta(model),
                     {name: t.data for name, t in named_parameters(model).items()})


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, name -> array); meta holds the settings of `checkpoint_meta`."""
    r = ByteReader.open(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    meta = {key: r.u32(what) if kind is int else
            tuple(r.u32(what) for _ in range(r.u32(f"{what} count")))
            for key, what, kind, _ in _SETTINGS}
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32("entry count")):
        name = r.unique(r.string, tensors, "entry name")
        ndim = r.u32("rank", most=MAX_RANK)
        shape = tuple(r.u32("dim") for _ in range(ndim))
        tensors[name] = r.f64_array(shape, f"entry {name}")
    r.expect_exhausted()
    return meta, tensors


def apply_checkpoint(model: Model, path: str) -> None:
    """Overwrite the model's learnable tensors from a checkpoint file."""
    meta, tensors = load_checkpoint(path)
    for key, want in checkpoint_meta(model).items():
        if meta[key] != want:
            raise CompatError(f"checkpoint field {key}: "
                              f"file has {meta[key]}, model has {want}")
    params = named_parameters(model)
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise CompatError(f"checkpoint entry mismatch: missing {missing}, extra {extra}")
    for name, tensor in params.items():
        arr = tensors[name]
        if arr.shape != tensor.shape:
            raise CompatError(f"checkpoint entry {name}: shape {arr.shape} "
                              f"vs model {tensor.shape}")
        tensor.data = arr
        tensor.grad = None


def state_checksum(model: Model) -> str:
    """sha256 over names, shapes and raw little-endian bytes of all parameters."""
    h = hashlib.sha256()
    for name, tensor in named_parameters(model).items():
        h.update(name.encode())
        h.update(repr(tensor.shape).encode())
        h.update(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    return h.hexdigest()


def backbone_checksum(model: Model) -> str:
    """sha256 over the frozen text encoder weights, for freeze audits: the
    text tower is the one that gradients pass through."""
    h = hashlib.sha256()
    for w in model.text_enc.all_weights():
        h.update(np.ascontiguousarray(w.data, dtype="<f8").tobytes())
    return h.hexdigest()
