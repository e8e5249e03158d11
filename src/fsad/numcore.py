"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations record onto the innermost active :class:`GradTape` whenever any
input requires a gradient; :func:`backward` replays the tape in exact reverse
execution order, accumulating (never overwriting) into ``grad`` buffers.
Everything runs in 64-bit precision so finite-difference checks are decisive.

Every kernel keeps the exact sequence of IEEE operations of its reference
formula, so outputs and gradients are bit-identical however the work is
buffered: training under the benchmark protocol amplifies a last-bit
difference into a visible change of the final metrics.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

Array = np.ndarray

# Norm floor for cosine similarity on (near-)degenerate rows.
NORM_FLOOR = 1e-12

# Test hook: when enabled, sigmoid's backward is deliberately wrong so the
# gradient checker can prove it detects broken derivatives.
_CORRUPT_SIGMOID_BACKWARD = False


def set_backward_corruption(enabled: bool) -> None:
    """Enable or disable the deliberate sigmoid-backward corruption."""
    global _CORRUPT_SIGMOID_BACKWARD
    _CORRUPT_SIGMOID_BACKWARD = bool(enabled)


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

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One recorded op. ``needs[i]`` says whether input i wants a gradient;
    backward closures take it and return None for the inputs that do not."""

    __slots__ = ("inputs", "needs", "output", "backward", "name")

    def __init__(self, name, inputs, needs, output, backward):
        self.name = name
        self.inputs = inputs
        self.needs = needs
        self.output = output
        self.backward = backward


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


def _record(name: str, inputs: Sequence[Tensor], out_data: Array,
            backward: Callable[[Array, Sequence[bool]],
                               Sequence[Array | None]]) -> Tensor:
    """Wrap ``out_data`` and, if a tape is live and an input needs grad, record."""
    out = Tensor(out_data)
    tape = _TAPES[-1] if _TAPES else None
    if tape is not None:
        needs = tuple(t.requires_grad for t in inputs)
        if any(needs):
            out.requires_grad = True
            tape.nodes.append(_Node(name, tuple(inputs), needs, out, backward))
    return out


def backward(loss: Tensor, tape: GradTape) -> None:
    """Populate grad buffers of every requires_grad tensor reachable from loss.

    The tape is replayed in exact reverse execution order; contributions from
    multiple uses of the same tensor are added, never overwritten. Nothing
    writes into a gradient array in place, so a first contribution is kept
    as is, even when it is a view shared with another input's gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        out_grad = grads.get(id(node.output))
        if out_grad is None:
            continue
        for tensor, need, g in zip(node.inputs, node.needs,
                                   node.backward(out_grad, node.needs)):
            if g is None or not need:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.asarray(g)
                holders[key] = tensor
    for key, g in grads.items():
        t = holders[key]
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _shape_error(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise _shape_error("add", a, b) from None

    def bwd(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return _record("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise _shape_error("sub", a, b) from None

    def bwd(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(-g, b.shape) if needs[1] else None)

    return _record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a, b) from None

    def bwd(g, needs):
        return (_unbroadcast(g * b.data, a.shape) if needs[0] else None,
                _unbroadcast(g * a.data, b.shape) if needs[1] else None)

    return _record("mul", (a, b), out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.data * c

    def bwd(g, _needs):
        return (g * c,)

    return _record("scale", (x,), out, bwd)


def mean_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = x.shape[axis]
    out = x.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g, _needs):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _record("mean_axis", (x,), out, bwd)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())

    def bwd(g, _needs):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record("sum_all", (x,), out, bwd)


def sum_last(x: Tensor) -> Tensor:
    """Sum over the last axis; on 1-d input the same reduction as sum_all."""
    out = np.asarray(x.data.sum(axis=-1))

    def bwd(g, _needs):
        return (np.broadcast_to(np.expand_dims(g, -1), x.shape).copy(),)

    return _record("sum_last", (x,), out, bwd)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def bwd(g, needs):
        da = db = None
        if needs[0]:
            da = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if needs[1]:
            db = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return da, db

    return _record("matmul", (a, b), out, bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose needs >=2-d input, got {x.shape}")
    out = np.swapaxes(x.data, -1, -2)

    def bwd(g, _needs):
        return (np.swapaxes(g, -1, -2),)

    return _record("transpose", (x,), out, bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def bwd(g, _needs):
        return (g.reshape(x.shape),)

    return _record("reshape", (x,), out, bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def bwd(g, _needs):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _record("concat", parts, out, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along one axis."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = x.data[idx]

    def bwd(g, _needs):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _record("narrow", (x,), out, bwd)


# ---------------------------------------------------------------------------
# nonlinearities

def sigmoid(x: Tensor) -> Tensor:
    # Two-branch form: never exponentiates a positive argument, so large
    # inputs neither overflow nor produce denormal outputs.
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g, _needs):
        d = g * out * (1.0 - out)
        if _CORRUPT_SIGMOID_BACKWARD:
            d = d * 1.01
        return (d,)

    return _record("sigmoid", (x,), out, bwd)


def silu(x: Tensor) -> Tensor:
    """Smooth gated-linear activation x * sigmoid(x)."""
    return mul(x, sigmoid(x))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g, _needs):
        return (g * out,)

    return _record("exp", (x,), out, bwd)


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def bwd(g, _needs):
        return (g / x.data,)

    return _record("log", (x,), out, bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    if not lo < hi:
        raise DomainError(f"clip needs lo < hi, got [{lo}, {hi}]")
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def bwd(g, _needs):
        return (g * inside,)

    return _record("clip", (x,), out, bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by row-max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, _needs):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax_rows", (x,), out, bwd)


def layernorm_rows(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalise the last axis to zero mean / unit variance (no affine)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = (x.data - mu) * inv

    def bwd(g, _needs):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * out).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - out * gym),)

    return _record("layernorm_rows", (x,), out, bwd)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of each row of ``a`` (last axis) against vector ``b``.

    Norms are floored at NORM_FLOOR so degenerate rows stay well-defined; at
    the floor the norm is treated as a constant for differentiation.
    """
    if b.ndim != 1:
        raise ShapeError(f"cosine_rows reference must be 1-d, got {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"cosine_rows width mismatch: {a.shape} vs {b.shape}")
    raw_na = np.linalg.norm(a.data, axis=-1, keepdims=True)
    raw_nb = np.linalg.norm(b.data)
    na = np.maximum(raw_na, NORM_FLOOR)
    nb = max(raw_nb, NORM_FLOOR)
    dots = a.data @ b.data
    out = dots / (na[..., 0] * nb)

    def bwd(g, _needs):
        ge = g[..., None]
        cos_e = out[..., None]
        live_a = (raw_na > NORM_FLOOR).astype(np.float64)
        da = ge * (b.data / (na * nb) - live_a * cos_e * a.data / (na * na))
        live_b = 1.0 if raw_nb > NORM_FLOOR else 0.0
        db_rows = ge * (a.data / (na * nb))
        db = db_rows.reshape(-1, b.shape[0]).sum(axis=0)
        db -= live_b * float((g * out).sum()) * b.data / (nb * nb)
        return da, db

    return _record("cosine_rows", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# attention

def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention core (no projections).

    Shapes: q [..., Tq, d], k and v [..., Tk, d]; the width d splits into
    ``heads`` equal slices. Leading axes broadcast between q and k/v, which
    lets one query set attend over a batch of key sets (and vice versa).
    """
    d = q.shape[-1]
    if d % heads != 0:
        raise ShapeError(f"width {d} not divisible by {heads} heads")
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError(f"attention width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value row counts differ: {k.shape} vs {v.shape}")
    dh = d // heads
    inv_sqrt = 1.0 / np.sqrt(dh)

    def split(x: Array) -> Array:
        # [..., T, d] -> [..., heads, T, dh]
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, dh)), -3, -2)

    def join(x: Array) -> Array:
        # [..., heads, T, dh] -> [..., T, d]; the reshape copies the swapped
        # axes into a fresh array, so no further copy is needed
        x = np.swapaxes(x, -3, -2)
        return x.reshape(x.shape[:-2] + (d,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # softmax(scores * inv_sqrt) over the last axis, step by step in the one
    # score buffer: the same operations in the same order as the out-of-place
    # chain, without a fresh temporary per step
    weights = qh @ np.swapaxes(kh, -1, -2)
    weights *= inv_sqrt
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = join(weights @ vh)

    def bwd(g, _needs):
        gh = split(g)
        dvh = np.swapaxes(weights, -1, -2) @ gh
        # ds = weights * (dw - rowsum(dw * weights)), in the dw buffer
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds -= (ds * weights).sum(axis=-1, keepdims=True)
        ds *= weights
        dqh = ds @ kh
        dqh *= inv_sqrt
        dkh = np.swapaxes(ds, -1, -2) @ qh
        dkh *= inv_sqrt
        return (_unbroadcast(join(dqh), q.shape),
                _unbroadcast(join(dkh), k.shape),
                _unbroadcast(join(dvh), v.shape))

    return _record("attention", (q, k, v), out, bwd)


# ---------------------------------------------------------------------------
# gradient oracle

def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Array:
    """Central-difference gradient of scalar ``f`` at ``x``, coordinate by coordinate."""
    if h <= 0:
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
