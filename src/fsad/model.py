"""Full trainable state: adapters, prompts, alignment blocks, logit scale.

One Model owns the frozen text encoder, the tower that gradients pass
through to the prompts, plus every learnable tensor. Visual features arrive
precomputed, so a Model never holds or runs the visual tower. It exposes
the learnable tensors as an ordered name -> tensor mapping split into a fast
group (prompts, alignment, logit scale) and a slow group (adapters), and
serializes exactly that mapping into a checkpoint file. Checkpoints store
64-bit floats so a save/load cycle is bit-exact.

A stacked Model holds E independent episodes: every learnable tensor and
class embedding carries a leading episode axis shaped to broadcast against
the activations it meets, so the ordinary forward code runs all E at once.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .adaptation import (ALPHA_INIT, DEFAULT_PROMPT_LEN, DEFAULT_REDUCTION,
                         AdaptationState, apply_text_adapter,
                         apply_visual_adapter, init_adaptation)
from .backbone import BackboneSpec, ToyEncoder, encode_prompt, layer_map
from .binio import ByteReader, ByteWriter
from .clsa import ClsaOutput, ClsaState, clsa_forward, init_clsa
from .errors import CompatError, ContractError, FormatError, NumericError
from .numcore import Tensor

CHECKPOINT_MAGIC = b"HAAP"
CHECKPOINT_VERSION = 1

RHO_INIT = float(np.log(10.0))

FAST_GROUP = "fast"
SLOW_GROUP = "slow"


@dataclass
class Model:
    """Frozen text encoder plus every learnable tensor of the adaptation stack."""

    spec: BackboneSpec
    text_enc: ToyEncoder
    adapt: AdaptationState
    clsa: ClsaState
    rho: Tensor
    strategy: str
    seed: int

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return layer_map(self.spec)

    def tau(self) -> Tensor:
        return nc.exp(self.rho)


def init_model(spec: BackboneSpec, seed: int, strategy: str = "seq",
               prompt_len: int = DEFAULT_PROMPT_LEN,
               reduction: int = DEFAULT_REDUCTION,
               gate_init: float = 0.0,
               gates_learnable: bool = True,
               alpha_init: float = ALPHA_INIT,
               clsa_heads: int | None = None) -> Model:
    text_enc = ToyEncoder(spec, "text")
    adapt = init_adaptation(spec, seed, prompt_len=prompt_len, reduction=reduction,
                            alpha_init=alpha_init)
    clsa = init_clsa(layer_map(spec), spec.d, clsa_heads or spec.heads, seed,
                     gate_init=gate_init, gates_learnable=gates_learnable)
    rho = Tensor(np.full((), RHO_INIT), requires_grad=True)
    return Model(spec=spec, text_enc=text_enc, adapt=adapt, clsa=clsa, rho=rho,
                 strategy=strategy, seed=seed)


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
    out["clsa.beta_t"] = model.clsa.gates.beta_t
    out["clsa.beta_v"] = model.clsa.gates.beta_v
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


def _structure(model: Model):
    return (model.strategy, model.spec,
            [(name, p.shape, p.requires_grad)
             for name, p in named_parameters(model).items()])


def stack_size(model: Model) -> int | None:
    """Episodes in a stacked model; None for an ordinary one."""
    return model.rho.shape[0] if model.rho.ndim else None


def stack_models(models: list[Model]) -> Model:
    """One model that trains the given same-structure models side by side.

    The stack shares the first model's spec and frozen text encoder and
    copies its learnable set; episode e of every stacked tensor is
    models[e]'s tensor.
    """
    first = models[0]
    if any(_structure(m) != _structure(first) for m in models):
        raise ContractError("stacked models must share strategy, taps, "
                            "parameter shapes and learnable set")
    shared = {id(obj): obj for obj in (first.spec, first.text_enc)}
    stacked = copy.deepcopy(first, shared)
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


def parameter_groups(model: Model) -> dict[str, list[str]]:
    """Differential learning-rate split: adapters slow, everything else fast."""
    fast, slow = [], []
    for name in named_parameters(model):
        (slow if name.startswith(("rav.", "rat.")) else fast).append(name)
    return {FAST_GROUP: fast, SLOW_GROUP: slow}


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
    return {layer: apply_visual_adapter(visual_taps[layer],
                                        model.adapt.visual_adapters[layer])
            for layer in model.spec.selected_visual}


def forward(model: Model, visual_taps: dict[int, Tensor],
            strategy: str | None = None) -> ClsaOutput:
    """Adapt both modalities then align them under the model's strategy."""
    adapted_v = forward_visual(model, visual_taps)
    adapted_t = forward_text(model)
    return clsa_forward(model.pairs, adapted_v, adapted_t, model.clsa,
                        strategy or model.strategy)


# ---------------------------------------------------------------------------
# checkpoints

def _write_meta(w: ByteWriter, model: Model) -> None:
    w.u32(model.spec.d)
    w.u32(model.adapt.prompts.prompt_len)
    w.u32(len(model.spec.selected_visual))
    for layer in model.spec.selected_visual:
        w.u32(layer)
    w.u32(len(model.spec.selected_text))
    for layer in model.spec.selected_text:
        w.u32(layer)


def save_checkpoint(model: Model, path: str) -> None:
    w = ByteWriter()
    w.raw(CHECKPOINT_MAGIC)
    w.u32(CHECKPOINT_VERSION)
    _write_meta(w, model)
    params = named_parameters(model)
    w.u32(len(params))
    for name, tensor in params.items():
        w.string(name)
        w.u32(tensor.ndim)
        for dim in tensor.shape:
            w.u32(dim)
        w.f64_array(tensor.data)
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, name -> array). Meta carries d, prompt rows and tap lists."""
    with open(path, "rb") as fh:
        r = ByteReader(fh.read(), label=str(path))
    r.magic(CHECKPOINT_MAGIC)
    pos = r.offset
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=pos)
    meta = {
        "d": r.u32("width"),
        "prompt_len": r.u32("prompt length"),
    }
    meta["selected_visual"] = tuple(r.u32("visual tap")
                                    for _ in range(r.u32("visual tap count")))
    meta["selected_text"] = tuple(r.u32("text tap")
                                  for _ in range(r.u32("text tap count")))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32("entry count")):
        name = r.string("entry name")
        ndim = r.u32("rank")
        shape = tuple(r.u32("dim") for _ in range(ndim))
        tensors[name] = r.f64_array(shape, f"entry {name}")
        bad = tensors[name].size - np.count_nonzero(np.isfinite(tensors[name]))
        if bad:
            raise NumericError(f"{path}: entry {name} has {bad} non-finite values")
    r.expect_exhausted()
    return meta, tensors


def apply_checkpoint(model: Model, path: str) -> None:
    """Overwrite the model's learnable tensors from a checkpoint file."""
    meta, tensors = load_checkpoint(path)
    checks = [
        ("d", model.spec.d),
        ("prompt_len", model.adapt.prompts.prompt_len),
        ("selected_visual", model.spec.selected_visual),
        ("selected_text", model.spec.selected_text),
    ]
    for field_name, want in checks:
        if meta[field_name] != want:
            raise CompatError(f"checkpoint field {field_name}: "
                              f"file has {meta[field_name]}, model has {want}")
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
