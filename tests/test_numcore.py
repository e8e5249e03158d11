"""Tensor core: forward oracles, finite-difference gradient checks, tape rules."""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.errors import ContractError, DomainError, ShapeError
from fsad.numcore import GradTape, Tensor, backward, finite_diff_grad


def _rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _grad_check(build, tensors, rel_tol=1e-4, h=1e-5):
    """Compare tape gradients of scalar build(*tensors) against central differences."""
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    with GradTape() as tape:
        loss = build(*tensors)
    backward(loss, tape)
    for i, t in enumerate(tensors):
        def f(x, i=i):
            args = [Tensor(u.data) for u in tensors]
            args[i] = x
            with nc.no_grad():
                return build(*args).item()
        fd = finite_diff_grad(f, t, h=h)
        assert t.grad is not None, f"missing grad for input {i}"
        err = _rel_err(t.grad, fd)
        assert err < rel_tol, f"input {i}: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# frozen forward values

def test_softmax_known_row():
    out = nc.softmax_rows(Tensor([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 9))
    a = nc.softmax_rows(Tensor(x)).data
    b = nc.softmax_rows(Tensor(x + 123.456)).data
    np.testing.assert_allclose(a.sum(axis=-1), np.ones(5), atol=1e-9)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_sigmoid_known_values():
    out = nc.sigmoid(Tensor([np.log(3.0), 0.0]))
    np.testing.assert_allclose(out.data, [0.75, 0.5], atol=1e-12)


def test_sigmoid_grad_at_zero():
    x = Tensor([0.0], requires_grad=True)
    with GradTape() as tape:
        y = nc.sum_all(nc.sigmoid(x))
    backward(y, tape)
    np.testing.assert_allclose(x.grad, [0.25], atol=1e-12)


def test_matmul_known_product():
    out = nc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[2.0], [4.0]], atol=0)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 6))
    want = np.zeros((5, 6))
    for i in range(5):
        for j in range(6):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = nc.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        nc.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_mean_axis_known():
    out = nc.mean_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
    np.testing.assert_allclose(out.data, [3.0, 5.0], atol=0)


def test_cosine_rows_known():
    out = nc.cosine_rows(Tensor([[1.0, 0.0]]), Tensor([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1.0 / np.sqrt(2.0)], atol=1e-12)


def test_cosine_rows_zero_row_is_finite():
    out = nc.cosine_rows(Tensor([[0.0, 0.0]]), Tensor([1.0, 1.0]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [0.0], atol=0)


def test_layernorm_rows_moments():
    rng = np.random.default_rng(3)
    y = nc.layernorm_rows(Tensor(rng.normal(size=(4, 16)) * 3 + 2)).data
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(y.var(axis=-1), np.ones(4), atol=1e-4)


def test_concat_narrow_round_trip():
    a, b = Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.arange(9.0).reshape(3, 3))
    cat = nc.concat([a, b], axis=0)
    np.testing.assert_allclose(nc.narrow(cat, 0, 2, 3).data, b.data, atol=0)


# ---------------------------------------------------------------------------
# tape mechanics

def test_finite_diff_on_quadratic():
    grad = finite_diff_grad(lambda t: float((t.data ** 2).sum()), Tensor([3.0]))
    np.testing.assert_allclose(grad, [6.0], atol=1e-6)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(DomainError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = nc.scale(x, 2.0)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_double_use_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = nc.sum_all(nc.add(x, x))
    backward(y, tape)
    np.testing.assert_allclose(x.grad, [2.0, 2.0], atol=0)


def test_grad_accumulates_across_backward_calls():
    x = Tensor([1.0], requires_grad=True)
    for _ in range(2):
        with GradTape() as tape:
            y = nc.sum_all(nc.scale(x, 3.0))
        backward(y, tape)
    np.testing.assert_allclose(x.grad, [6.0], atol=0)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        with nc.no_grad():
            y = nc.scale(x, 2.0)
    assert len(tape) == 0 and not y.requires_grad


def test_no_recording_without_tape():
    y = nc.scale(Tensor([1.0], requires_grad=True), 2.0)
    assert not y.requires_grad


def test_constant_inputs_not_recorded():
    with GradTape() as tape:
        nc.add(Tensor([1.0]), Tensor([2.0]))
    assert len(tape) == 0


def test_corruption_hook_breaks_sigmoid_grad():
    nc.set_backward_corruption(True)
    try:
        x = Tensor([0.3], requires_grad=True)
        with GradTape() as tape:
            y = nc.sum_all(nc.sigmoid(x))
        backward(y, tape)
        fd = finite_diff_grad(lambda t: float(1.0 / (1.0 + np.exp(-t.data[0]))), Tensor([0.3]))
        assert _rel_err(x.grad, fd) > 1e-4
    finally:
        nc.set_backward_corruption(False)


# ---------------------------------------------------------------------------
# finite differences vs tape, per op

def _t(rng, *shape):
    return Tensor(rng.normal(size=shape) * 0.7)


def test_grads_elementwise_and_reductions():
    rng = np.random.default_rng(21)
    _grad_check(lambda a, b: nc.sum_all(nc.mul(nc.add(a, b), nc.sub(a, b))),
                [_t(rng, 3, 4), _t(rng, 3, 4)])
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.mean_axis(a, 0), nc.mean_axis(a, 0))),
                [_t(rng, 4, 3)])
    _grad_check(lambda a, b: nc.sum_all(nc.mul(a, b)), [_t(rng, 3, 1), _t(rng, 3, 5)])


def test_grads_matmul_family():
    rng = np.random.default_rng(22)
    _grad_check(lambda a, b: nc.sum_all(nc.mul(nc.matmul(a, b), nc.matmul(a, b))),
                [_t(rng, 3, 4), _t(rng, 4, 2)])
    _grad_check(lambda a, b: nc.sum_all(nc.matmul(a, nc.transpose(b))),
                [_t(rng, 2, 3, 4), _t(rng, 2, 5, 4)])
    _grad_check(lambda a, b: nc.sum_all(nc.matmul(a, b)),
                [_t(rng, 4, 2, 3), _t(rng, 3, 5)])


def test_grads_shape_ops():
    rng = np.random.default_rng(23)
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.reshape(a, (6, 2)), nc.reshape(a, (6, 2)))),
                [_t(rng, 3, 4)])
    _grad_check(lambda a, b: nc.sum_all(nc.mul(nc.concat([a, b], 0), nc.concat([a, b], 0))),
                [_t(rng, 2, 3), _t(rng, 4, 3)])
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.narrow(a, 1, 1, 2), nc.narrow(a, 1, 0, 2))),
                [_t(rng, 3, 4)])


def test_grads_nonlinearities():
    rng = np.random.default_rng(24)
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.sigmoid(a), a)), [_t(rng, 3, 4)])
    _grad_check(lambda a: nc.sum_all(nc.silu(a)), [_t(rng, 5)])
    _grad_check(lambda a: nc.sum_all(nc.exp(a)), [_t(rng, 3, 3)])
    _grad_check(lambda a: nc.sum_all(nc.log(nc.add(nc.mul(a, a), Tensor(np.ones((3, 3)))))),
                [_t(rng, 3, 3)])
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.softmax_rows(a), a)), [_t(rng, 4, 5)])
    _grad_check(lambda a: nc.sum_all(nc.mul(nc.layernorm_rows(a), a)), [_t(rng, 3, 8)])


def test_grads_cosine_rows():
    rng = np.random.default_rng(25)
    a = Tensor(rng.normal(size=(4, 6)) + 0.5)
    b = Tensor(rng.normal(size=6) + 0.5)
    _grad_check(lambda u, v: nc.sum_all(nc.mul(nc.cosine_rows(u, v), nc.cosine_rows(u, v))),
                [a, b])


def test_grads_attention_all_inputs():
    rng = np.random.default_rng(26)
    q, k, v = _t(rng, 3, 8), _t(rng, 5, 8), _t(rng, 5, 8)
    _grad_check(lambda q, k, v: nc.sum_all(nc.mul(nc.attention(q, k, v, 2),
                                                  nc.attention(q, k, v, 2))),
                [q, k, v])


def test_grads_attention_batched_broadcast():
    rng = np.random.default_rng(27)
    q = _t(rng, 2, 3, 8)
    k, v = _t(rng, 5, 8), _t(rng, 5, 8)
    _grad_check(lambda q, k, v: nc.sum_all(nc.attention(q, k, v, 4)), [q, k, v])


def test_attention_matches_per_head_reference():
    rng = np.random.default_rng(28)
    q, k, v = rng.normal(size=(3, 8)), rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    heads, dh = 2, 4
    want = np.zeros((3, 8))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        want[:, sl] = w @ v[:, sl]
    got = nc.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_shape_errors():
    q = Tensor(np.ones((2, 8)))
    with pytest.raises(ShapeError):
        nc.attention(q, Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))), 2)
    with pytest.raises(ShapeError):
        nc.attention(q, Tensor(np.ones((3, 8))), Tensor(np.ones((4, 8))), 2)
    with pytest.raises(ShapeError):
        nc.attention(q, Tensor(np.ones((3, 8))), Tensor(np.ones((3, 8))), 3)


# ---------------------------------------------------------------------------
# bit-identity against the out-of-place reference formulas
#
# Training under the benchmark protocol turns a last-bit difference into a
# visible metric change, so the kernels must keep every IEEE operation and its
# order. The references below are the plain out-of-place formulas, with a
# backward that computes every input gradient; equality is exact.

def _attention_reference(q, k, v, heads, g):
    """Out-of-place attention forward and (dq, dk, dv) for upstream grad g."""
    d = q.shape[-1]
    dh = d // heads
    inv_sqrt = 1.0 / np.sqrt(dh)

    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, dh)), -3, -2)

    def join(x):
        x = np.swapaxes(x, -3, -2)
        return x.reshape(x.shape[:-2] + (d,)).copy()

    def unbroadcast(x, shape):
        extra = x.ndim - len(shape)
        return x.sum(axis=tuple(range(extra))) if extra > 0 else x

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ np.swapaxes(kh, -1, -2)) * inv_sqrt
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    out = join(weights @ vh)
    gh = split(g)
    dvh = np.swapaxes(weights, -1, -2) @ gh
    dw = gh @ np.swapaxes(vh, -1, -2)
    ds = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
    dqh = (ds @ kh) * inv_sqrt
    dkh = (np.swapaxes(ds, -1, -2) @ qh) * inv_sqrt
    return out, (unbroadcast(join(dqh), q.shape), unbroadcast(join(dkh), k.shape),
                 unbroadcast(join(dvh), v.shape))


# text rows alone; text against a batch of images (context injection, at
# training and at eval_wide batch size); patches against both classes' text
# rows (semantic guidance)
ATTENTION_SHAPES = [((9, 32), (9, 32)), ((9, 32), (8, 16, 32)),
                    ((9, 32), (392, 16, 32)), ((8, 16, 32), (8, 18, 32))]


@pytest.mark.parametrize("q_shape,kv_shape", ATTENTION_SHAPES)
def test_attention_bit_identical_to_reference(q_shape, kv_shape):
    rng = np.random.default_rng(29)
    q, k, v = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in (q_shape, kv_shape, kv_shape))
    with GradTape() as tape:
        out = nc.attention(q, k, v, 4)
        proj = rng.normal(size=out.shape)
        loss = nc.sum_all(nc.mul(out, Tensor(proj)))
    backward(loss, tape)
    # d loss / d out is exactly proj: sum_all seeds ones, and 1.0 * x == x
    want, (dq, dk, dv) = _attention_reference(q.data, k.data, v.data, 4, proj)
    assert np.array_equal(out.data, want)
    assert np.array_equal(q.grad, dq)
    assert np.array_equal(k.grad, dk)
    assert np.array_equal(v.grad, dv)


def test_attention_frozen_inputs_get_no_grad():
    rng = np.random.default_rng(30)
    q = Tensor(rng.normal(size=(9, 32)), requires_grad=True)
    k, v = Tensor(rng.normal(size=(8, 16, 32))), Tensor(rng.normal(size=(8, 16, 32)))
    with GradTape() as tape:
        out = nc.attention(q, k, v, 4)
        proj = rng.normal(size=out.shape)
        loss = nc.sum_all(nc.mul(out, Tensor(proj)))
    backward(loss, tape)
    _, (dq, _, _) = _attention_reference(q.data, k.data, v.data, 4, proj)
    assert np.array_equal(q.grad, dq)
    assert k.grad is None and v.grad is None


@pytest.mark.parametrize("frozen", [0, 1])
def test_binary_ops_skip_frozen_grads_bit_exactly(frozen):
    """A frozen operand gets no gradient and the live one is unchanged."""
    rng = np.random.default_rng(31 + frozen)
    a_data, b_data = rng.normal(size=(8, 16, 32)), rng.normal(size=(32, 32))
    m_data = rng.normal(size=(8, 16, 32))
    g = rng.normal(size=(8, 16, 32))
    cases = [
        (nc.matmul, (a_data, b_data),
         (g @ b_data.T, (np.swapaxes(a_data, -1, -2) @ g).sum(axis=0))),
        (nc.mul, (a_data, m_data), (g * m_data, g * a_data)),
        (nc.add, (a_data, m_data), (g, g)),
        (nc.sub, (a_data, m_data), (g, -g)),
    ]
    for op, (x, y), want in cases:
        ins = [Tensor(x), Tensor(y)]
        live = 1 - frozen
        ins[live].requires_grad = True
        with GradTape() as tape:
            loss = nc.sum_all(nc.mul(op(*ins), Tensor(g)))
        backward(loss, tape)
        assert ins[frozen].grad is None, op.__name__
        assert np.array_equal(ins[live].grad, want[live]), op.__name__


def test_binary_ops_raise_shape_error_on_mismatch():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
    for op in (nc.add, nc.sub, nc.mul):
        with pytest.raises(ShapeError, match=op.__name__):
            op(a, b)


def test_sum_last_on_a_vector_is_sum_all_bit_for_bit():
    rng = np.random.default_rng(31)
    data = rng.normal(size=37) * 10.0 ** rng.integers(-8, 8, size=37)
    a = Tensor(data.copy(), requires_grad=True)
    b = Tensor(data.copy(), requires_grad=True)
    with GradTape() as tape:
        la = nc.scale(nc.sum_last(a), 0.3)
        lb = nc.scale(nc.sum_all(b), 0.3)
    backward(la, tape)
    backward(lb, tape)
    assert la.shape == lb.shape == ()
    assert la.item() == lb.item()
    np.testing.assert_array_equal(a.grad, b.grad)


def test_sum_last_rows_match_each_row_alone():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(3, 4, 19))
    got = nc.sum_last(Tensor(x)).data
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert got[i, j] == nc.sum_all(Tensor(x[i, j])).item()
