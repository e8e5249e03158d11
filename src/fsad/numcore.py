"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations record onto the innermost active :class:`GradTape` whenever any
input requires a gradient; :func:`backward` walks the tape's compiled
:class:`Schedule` in exact reverse order, accumulating into ``grad`` buffers.
Everything runs in 64-bit precision so finite-difference checks are decisive.

Each differentiable op is one array-level kernel pair: a forward that
returns its output and the context its backward needs, and a backward that
maps that context and the output gradient to the input gradients. The
eager op and a compiled :class:`Schedule` call the same pair, so a replayed
step runs the same numpy calls in the same order as the step it was
recorded from.

An op raises a :class:`ShapeError` naming itself whenever numpy rejects its
operands: :func:`_apply` translates numpy's ``ValueError``. An op checks its
arguments itself only where numpy would accept them silently or fail with
something other than a ``ValueError``; each such check says why, as the
empty-axis checks of ``mean_axis``, ``layernorm_rows`` and ``cosine_rows`` do.

Every kernel keeps the exact sequence of IEEE operations of its reference
formula, so outputs and gradients are bit-identical however the work is
buffered: training under the benchmark protocol amplifies a last-bit
difference into a visible change of the final metrics.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

Array = np.ndarray

# Norm floor for cosine similarity on (near-)degenerate rows.
NORM_FLOOR = 1e-12


class Tensor:
    """N-d float64 array, optionally tracked for differentiation.

    Data is immutable by convention once constructed; only the training loop
    rewrites parameter buffers, and only ``grad`` accumulates during backward.
    """

    __slots__ = ("_data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def data(self) -> Array:
        return self._data

    @data.setter
    def data(self, value) -> None:
        # normalize on write: numpy returns immutable scalars from 0-d
        # arithmetic, and downstream code mutates parameter buffers in place
        self._data = np.asarray(value, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single value, shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Kernel(NamedTuple):
    """One op's kernel pair, under the op's public ``name``.

    ``forward(*input_arrays, *static)`` returns ``(out, ctx)``;
    ``backward(ctx, g, needs)`` returns one gradient per input, None where
    ``needs`` is false. ``core`` is None when those gradients already have
    their inputs' shapes; otherwise it counts the trailing axes that do not
    broadcast (0 for elementwise ops, 2 for matrix products), and the
    gradients are summed back over the broadcast axes.
    """

    name: str
    forward: Callable
    backward: Callable
    core: int | None = None


class _Node:
    """One recorded op: its kernel pair, static arguments, inputs, which of
    them want a gradient, output and the forward's context."""

    __slots__ = ("kernel", "static", "inputs", "needs", "output", "ctx")

    def __init__(self, kernel, static, inputs, needs, output, ctx):
        self.kernel = kernel
        self.static = static
        self.inputs = inputs
        self.needs = needs
        self.output = output
        self.ctx = ctx


class GradTape:
    """Ordered record of executed differentiable operations."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


_TAPES: list[GradTape | None] = []


@contextlib.contextmanager
def no_grad():
    """Suspend recording; ops inside produce constant tensors."""
    _TAPES.append(None)
    try:
        yield
    finally:
        _TAPES.pop()


def _apply(kernel: _Kernel, inputs: Sequence[Tensor], static: tuple = ()) -> Tensor:
    """Run the kernel's forward on the inputs' data and wrap the output; if a
    tape is live and an input needs grad, record the call."""
    try:
        out_data, ctx = kernel.forward(*[t.data for t in inputs], *static)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        shapes = ", ".join(str(t.shape) for t in inputs)
        args = f", arguments {static}" if static else ""
        raise ShapeError(f"{kernel.name}: shapes {shapes}{args}: {exc}") from None
    out = Tensor(out_data)
    tape = _TAPES[-1] if _TAPES else None
    if tape is not None:
        needs = tuple(t.requires_grad for t in inputs)
        if any(needs):
            out.requires_grad = True
            tape.nodes.append(_Node(kernel, static, tuple(inputs), needs, out, ctx))
    return out


def _reduce_plan(g_shape: tuple[int, ...], shape: tuple[int, ...]):
    """The sums that bring a gradient of ``g_shape`` back to a broadcast
    input of ``shape``: None when the shapes agree, else (leading axes,
    size-1 axes, shape)."""
    if g_shape == shape:
        return None
    extra = len(g_shape) - len(shape)
    lead = tuple(range(extra)) if extra > 0 else ()
    kept = g_shape[extra:] if extra > 0 else g_shape
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and kept[i] != 1)
    return lead, axes, shape


def _reduce(g: Array, plan) -> Array:
    """Apply a :func:`_reduce_plan`."""
    if plan is None:
        return g
    lead, axes, shape = plan
    if lead:
        g = np.add.reduce(g, axis=lead)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# compiled steps

class Schedule:
    """A recorded step compiled into a flat list of kernel calls.

    Each tape node becomes one entry: its kernel pair, static arguments,
    input slots, output slot and ``needs``. Requires-grad leaves (the
    parameters) are read by reference at every run, so each run sees the
    optimizer's latest update. Every other leaf was captured once, when the
    tape was recorded: the batch features, label tensors, frozen weights and
    the outputs of ops whose inputs were all constant. A run therefore
    equals the recorded step only while nothing but the parameters' data
    changes between runs.

    The loss may have any shape: the walk differentiates the sum of its
    entries, seeding every entry's gradient with 1.0. :meth:`forward` runs
    the entries in recorded order and returns the loss's value;
    :meth:`backward` then runs the reverse walk on that forward's context.
    :func:`backward` compiles the tape and runs the same walk on the
    contexts the tape recorded, so eager and replayed steps differentiate
    alike. The broadcast sums are planned once from the recorded shapes.
    """

    def __init__(self, tape: GradTape, loss: Tensor):
        slots: dict[int, int] = {}
        self._init: list[Array | None] = []
        self._params: list[tuple[int, Tensor]] = []

        def slot(t: Tensor) -> int:
            key = id(t)
            if key not in slots:
                slots[key] = len(self._init)
                if t.requires_grad:
                    self._params.append((slots[key], t))
                    self._init.append(None)
                else:
                    self._init.append(t.data)
            return slots[key]

        self._forward = []
        self._backward = []
        for node in tape.nodes:
            kernel, out_shape = node.kernel, node.output.shape
            ins = tuple(slot(t) for t in node.inputs)
            targets = []
            for i, (t, need) in enumerate(zip(node.inputs, node.needs)):
                if not need:
                    continue
                plan = None
                if kernel.core is not None:
                    # the kernel's gradient has the output's broadcast axes
                    # and the input's core axes
                    raw = (out_shape[:len(out_shape) - kernel.core]
                           + t.shape[t.ndim - kernel.core:])
                    plan = _reduce_plan(raw, t.shape)
                targets.append((i, ins[i], plan))
            out = slots[id(node.output)] = len(self._init)
            self._init.append(None)
            self._forward.append((kernel.forward, ins, node.static, out))
            self._backward.append((kernel.backward, out, node.needs, tuple(targets)))
        self._loss = slot(loss)
        self._loss_shape = loss.shape
        self._ctxs: list | None = None

    def forward(self) -> Array:
        """Run every entry on the parameters' current data; returns the
        loss's value and keeps what :meth:`backward` needs."""
        vals = self._init.copy()
        for i, t in self._params:
            vals[i] = t.data
        ctxs = []
        for fwd, ins, static, out in self._forward:
            vals[out], ctx = fwd(*[vals[i] for i in ins], *static)
            ctxs.append(ctx)
        self._ctxs = ctxs
        return vals[self._loss]

    def backward(self) -> None:
        """Differentiate the loss of the last :meth:`forward` into the
        leaves' ``grad``; the forward's context is released."""
        if self._ctxs is None:
            raise ContractError("Schedule.backward needs a forward first")
        ctxs, self._ctxs = self._ctxs, None
        self._walk(ctxs)

    def _walk(self, ctxs: list) -> None:
        """Run the entries' backwards in reverse on their contexts ``ctxs``
        and add each leaf's gradient into its ``grad``. A slot's gradient is
        dropped once its producing entry has used it; several uses add up in
        walk order, and nothing writes into a gradient array in place, so a
        first contribution may stay a view shared with another gradient."""
        grads: list[Array | None] = [None] * len(self._init)
        grads[self._loss] = np.ones(self._loss_shape)
        for (bwd, out, needs, targets), ctx in zip(reversed(self._backward),
                                                   reversed(ctxs)):
            g = grads[out]
            if g is None:
                continue
            grads[out] = None
            raw = bwd(ctx, g, needs)
            for i, s, plan in targets:
                gi = raw[i]
                if gi is None:
                    continue
                if plan is not None:
                    gi = _reduce(gi, plan)
                prev = grads[s]
                grads[s] = np.asarray(gi) if prev is None else prev + gi
        for i, t in self._params:
            g = grads[i]
            if g is not None:
                t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor, tape: GradTape) -> Schedule:
    """Add d(sum of loss's entries)/d(leaf) into the grad of every
    requires_grad leaf reachable from loss, and return the tape's compiled
    :class:`Schedule`, ready to replay the step.

    A leaf is a tensor that no node on this tape produced; intermediates
    keep ``grad=None``. The schedule's reverse walk runs on the contexts
    the tape's nodes recorded.
    """
    schedule = Schedule(tape, loss)
    schedule._walk([node.ctx for node in tape.nodes])
    return schedule


# ---------------------------------------------------------------------------
# elementwise

def _add_fwd(a, b):
    return a + b, None


def _add_bwd(_ctx, g, _needs):
    return g, g


def _sub_fwd(a, b):
    return a - b, None


def _sub_bwd(_ctx, g, needs):
    return g, (-g if needs[1] else None)


def _mul_fwd(a, b):
    return a * b, (a, b)


def _mul_bwd(ctx, g, needs):
    a, b = ctx
    return (g * b if needs[0] else None), (g * a if needs[1] else None)


def _scale_fwd(x, c):
    return x * c, c


def _scale_bwd(c, g, _needs):
    return (g * c,)


def _mean_axis_fwd(x, axis, keepdims):
    return x.mean(axis=axis, keepdims=keepdims), (x.shape, axis, keepdims)


def _mean_axis_bwd(ctx, g, _needs):
    shape, axis, keepdims = ctx
    if not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g / shape[axis], shape).copy(),)


def _sum_all_fwd(x):
    return np.asarray(x.sum()), x.shape


def _sum_all_bwd(shape, g, _needs):
    return (np.broadcast_to(g, shape).copy(),)


def _sum_last_fwd(x):
    return np.asarray(x.sum(axis=-1)), x.shape


def _sum_last_bwd(shape, g, _needs):
    return (np.broadcast_to(np.expand_dims(g, -1), shape).copy(),)


_ADD = _Kernel("add", _add_fwd, _add_bwd, 0)
_SUB = _Kernel("sub", _sub_fwd, _sub_bwd, 0)
_MUL = _Kernel("mul", _mul_fwd, _mul_bwd, 0)
_SCALE = _Kernel("scale", _scale_fwd, _scale_bwd)
_MEAN_AXIS = _Kernel("mean_axis", _mean_axis_fwd, _mean_axis_bwd)
_SUM_ALL = _Kernel("sum_all", _sum_all_fwd, _sum_all_bwd)
_SUM_LAST = _Kernel("sum_last", _sum_last_fwd, _sum_last_bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _apply(_ADD, (a, b))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _apply(_SUB, (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _apply(_MUL, (a, b))


def scale(x: Tensor, c: float) -> Tensor:
    return _apply(_SCALE, (x,), (float(c),))


def mean_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    if -x.ndim <= axis < x.ndim and x.shape[axis] == 0:  # numpy warns and gives NaN
        raise ShapeError(f"mean_axis: axis {axis} of shape {x.shape} is empty")
    return _apply(_MEAN_AXIS, (x,), (axis, keepdims))


def sum_all(x: Tensor) -> Tensor:
    return _apply(_SUM_ALL, (x,))


def sum_last(x: Tensor) -> Tensor:
    """Sum over the last axis; on 1-d input the same reduction as sum_all."""
    if x.ndim < 1:  # numpy sums 0-d input to shape (), which backward cannot expand
        raise ShapeError(f"sum_last needs at least 1-d input, got {x.shape}")
    return _apply(_SUM_LAST, (x,))


# ---------------------------------------------------------------------------
# linear algebra

def _matmul_fwd(a, b):
    return a @ b, (a, b)


def _matmul_bwd(ctx, g, needs):
    a, b = ctx
    return ((g @ b.swapaxes(-1, -2) if needs[0] else None),
            (a.swapaxes(-1, -2) @ g if needs[1] else None))


def _transpose_fwd(x):
    return x.swapaxes(-1, -2), None


def _transpose_bwd(_ctx, g, _needs):
    return (g.swapaxes(-1, -2),)


def _reshape_fwd(x, shape):
    return x.reshape(shape), x.shape


def _reshape_bwd(shape, g, _needs):
    return (g.reshape(shape),)


def _concat_fwd(*args):
    *parts, axis = args
    return np.concatenate(parts, axis=axis), ([p.shape[axis] for p in parts], axis)


def _concat_bwd(ctx, g, _needs):
    sizes, axis = ctx
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))


def _narrow_fwd(x, idx):
    return x[idx], (x, idx)


def _narrow_bwd(ctx, g, _needs):
    x, idx = ctx
    full = np.zeros_like(x)
    full[idx] = g
    return (full,)


_MATMUL = _Kernel("matmul", _matmul_fwd, _matmul_bwd, 2)
_TRANSPOSE = _Kernel("transpose", _transpose_fwd, _transpose_bwd)
_RESHAPE = _Kernel("reshape", _reshape_fwd, _reshape_bwd)
_CONCAT = _Kernel("concat", _concat_fwd, _concat_bwd)
_NARROW = _Kernel("narrow", _narrow_fwd, _narrow_bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:  # np.matmul would take a vector as a matrix
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    return _apply(_MATMUL, (a, b))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _apply(_TRANSPOSE, (x,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _apply(_RESHAPE, (x,), (shape,))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    return _apply(_CONCAT, list(parts), (axis,))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along one axis."""
    if not -x.ndim <= axis < x.ndim:  # idx[axis] would raise an IndexError
        raise ShapeError(f"narrow: axis {axis} out of range for shape {x.shape}")
    if not 0 <= start <= start + length <= x.shape[axis]:  # slicing clamps silently
        raise ShapeError(f"narrow: entries [{start}, {start + length}) out of range "
                         f"on axis {axis} of shape {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    return _apply(_NARROW, (x,), (tuple(idx),))


# ---------------------------------------------------------------------------
# nonlinearities

def _sigmoid_fwd(x):
    # Two-branch form: never exponentiates a positive argument, so large
    # inputs neither overflow nor produce denormal outputs. e = exp(-|x|)
    # is each branch's exponential, and 1 / (e + 1) or e / (e + 1) is its
    # quotient, so one buffer takes both branches with the same IEEE
    # operations per element as two.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= e + 1.0
    return out, out


def _sigmoid_bwd(out, g, _needs):
    return (g * out * (1.0 - out),)


def _exp_fwd(x):
    out = np.exp(x)
    return out, out


def _exp_bwd(out, g, _needs):
    return (g * out,)


def _log_fwd(x):
    return np.log(x), x


def _log_bwd(x, g, _needs):
    return (g / x,)


def _clip_fwd(x, lo, hi):
    return np.clip(x, lo, hi), (x >= lo) & (x <= hi)


def _clip_bwd(inside, g, _needs):
    return (g * inside,)


def _softmax_rows_fwd(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out


def _softmax_rows_bwd(out, g, _needs):
    dot = (g * out).sum(axis=-1, keepdims=True)
    return (out * (g - dot),)


def _layernorm_rows_fwd(x, eps):
    # numpy's own mean and var arithmetic, with the rows centred once
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    out = centred * inv
    return out, (out, inv)


def _layernorm_rows_bwd(ctx, g, _needs):
    out, inv = ctx
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * out).mean(axis=-1, keepdims=True)
    return (inv * (g - gm - out * gym),)


def _cosine_rows_fwd(a, b):
    raw_na = np.linalg.norm(a, axis=-1, keepdims=True)
    raw_nb = np.linalg.norm(b)
    na = np.maximum(raw_na, NORM_FLOOR)
    nb = max(raw_nb, NORM_FLOOR)
    dots = a @ b
    out = dots / (na[..., 0] * nb)
    return out, (a, b, out, raw_na, raw_nb, na, nb)


def _cosine_rows_bwd(ctx, g, _needs):
    a, b, out, raw_na, raw_nb, na, nb = ctx
    ge = g[..., None]
    cos_e = out[..., None]
    live_a = (raw_na > NORM_FLOOR).astype(np.float64)
    da = ge * (b / (na * nb) - live_a * cos_e * a / (na * na))
    live_b = 1.0 if raw_nb > NORM_FLOOR else 0.0
    db_rows = ge * (a / (na * nb))
    db = db_rows.reshape(-1, b.shape[0]).sum(axis=0)
    db -= live_b * float((g * out).sum()) * b / (nb * nb)
    return da, db


_SIGMOID = _Kernel("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
_EXP = _Kernel("exp", _exp_fwd, _exp_bwd)
_LOG = _Kernel("log", _log_fwd, _log_bwd)
_CLIP = _Kernel("clip", _clip_fwd, _clip_bwd)
_SOFTMAX_ROWS = _Kernel("softmax_rows", _softmax_rows_fwd, _softmax_rows_bwd)
_LAYERNORM_ROWS = _Kernel("layernorm_rows", _layernorm_rows_fwd, _layernorm_rows_bwd)
_COSINE_ROWS = _Kernel("cosine_rows", _cosine_rows_fwd, _cosine_rows_bwd)


def sigmoid(x: Tensor) -> Tensor:
    return _apply(_SIGMOID, (x,))


def silu(x: Tensor) -> Tensor:
    """Smooth gated-linear activation x * sigmoid(x)."""
    return mul(x, sigmoid(x))


def exp(x: Tensor) -> Tensor:
    return _apply(_EXP, (x,))


def log(x: Tensor) -> Tensor:
    return _apply(_LOG, (x,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    if not lo < hi:  # np.clip would return hi everywhere
        raise DomainError(f"clip needs lo < hi, got [{lo}, {hi}]")
    return _apply(_CLIP, (x,), (lo, hi))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by row-max subtraction."""
    return _apply(_SOFTMAX_ROWS, (x,))


def layernorm_rows(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalise the last axis to zero mean / unit variance (no affine)."""
    if x.ndim == 0:  # numpy reduces a 0-d array over axis -1
        raise ShapeError(f"layernorm_rows needs at least 1-d input, got {x.shape}")
    if x.shape[-1] == 0:  # numpy warns and gives NaN
        raise ShapeError(f"layernorm_rows: empty last axis in shape {x.shape}")
    return _apply(_LAYERNORM_ROWS, (x,), (eps,))


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of each row of ``a`` (last axis) against vector ``b``.

    Norms are floored at NORM_FLOOR so degenerate rows stay well-defined; at
    the floor the norm is treated as a constant for differentiation.
    """
    if b.ndim != 1:  # with a 2-d b, a @ b would be a silent matrix product
        raise ShapeError(f"cosine_rows reference must be 1-d, got {b.shape}")
    if b.shape[0] == 0:  # backward cannot split zero-width rows back into b
        raise ShapeError(f"cosine_rows needs a nonzero width, got {b.shape}")
    return _apply(_COSINE_ROWS, (a, b))


# ---------------------------------------------------------------------------
# attention

def _split_heads(x: Array, heads: int) -> Array:
    # [..., T, d] -> [..., heads, T, dh]
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-3, -2)


def _join_heads(x: Array) -> Array:
    # [..., heads, T, dh] -> [..., T, d]; the reshape copies the swapped
    # axes into a fresh array, so no further copy is needed
    x = x.swapaxes(-3, -2)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _attention_fwd(q, k, v, heads):
    inv_sqrt = 1.0 / np.sqrt(q.shape[-1] // heads)
    qh, kh, vh = _split_heads(q, heads), _split_heads(k, heads), _split_heads(v, heads)
    # softmax(scores * inv_sqrt) over the last axis, step by step in the one
    # score buffer: the same operations in the same order as the out-of-place
    # chain, without a fresh temporary per step
    weights = qh @ kh.swapaxes(-1, -2)
    weights *= inv_sqrt
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return _join_heads(weights @ vh), (weights, qh, kh, vh, heads, inv_sqrt)


def _attention_bwd(ctx, g, _needs):
    weights, qh, kh, vh, heads, inv_sqrt = ctx
    gh = _split_heads(g, heads)
    dvh = weights.swapaxes(-1, -2) @ gh
    # ds = weights * (dw - rowsum(dw * weights)), in the dw buffer
    ds = gh @ vh.swapaxes(-1, -2)
    ds -= (ds * weights).sum(axis=-1, keepdims=True)
    ds *= weights
    dqh = ds @ kh
    dqh *= inv_sqrt
    dkh = ds.swapaxes(-1, -2) @ qh
    dkh *= inv_sqrt
    return _join_heads(dqh), _join_heads(dkh), _join_heads(dvh)


_ATTENTION = _Kernel("attention", _attention_fwd, _attention_bwd, 2)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention core (no projections).

    Shapes: q [..., Tq, d], k and v [..., Tk, d]; the width d splits into
    ``heads`` equal slices. Leading axes broadcast between q and k/v, which
    lets one query set attend over a batch of key sets (and vice versa).
    """
    if min(q.ndim, k.ndim, v.ndim) < 2:  # q.shape[-1] would raise an IndexError
        raise ShapeError(f"attention needs >=2-d q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    if heads < 1:  # heads=0 would divide by zero
        raise ShapeError(f"attention needs at least one head, got {heads}")
    d = q.shape[-1]
    if d < heads or d % heads:  # a head width of 0 would make 1/sqrt(0) warn
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    if k.shape[-1] != d or v.shape[-1] != d:  # a wrong v width sets the output's
        raise ShapeError(f"attention width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    return _apply(_ATTENTION, (q, k, v), (heads,))


# ---------------------------------------------------------------------------
# gradient oracle

def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Array:
    """Central-difference gradient of scalar ``f`` at ``x``, coordinate by coordinate."""
    if not h > 0:
        raise DomainError(f"finite difference step must be positive, got {h}")
    base = np.array(x.data, dtype=np.float64, copy=True)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(base)))
        flat[i] = orig - h
        fm = float(f(Tensor(base)))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
