"""An independent reverse-mode walk over a GradTape, kept as a test oracle.

numcore differentiates every tape through one walk, the compiled
``Schedule``'s, with gradients in a slot-indexed list and broadcast sums
planned at compile time from the recorded shapes. This walk shares only the
kernel pairs with it: gradients live in a dict keyed by ``id()`` and each
broadcast sum is planned from the gradient the kernel returned. It must
agree with ``numcore.backward`` bit for bit, grads and ``grad is None`` alike.
"""

import numpy as np


def unbroadcast(g, shape):
    """Sum ``g`` over the leading axes it has beyond ``shape`` and then over
    the size-1 axes of ``shape``, in that order."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g.reshape(shape)


def reference_backward(loss, tape):
    """Add d loss / d leaf into the ``grad`` of every requires_grad leaf."""
    assert loss.data.size == 1, "the reference differentiates scalar losses only"
    grads = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for node in reversed(tape.nodes):
        out_grad = grads.pop(id(node.output), None)
        if out_grad is None:
            continue
        kernel = node.kernel
        for tensor, need, g in zip(node.inputs, node.needs,
                                   kernel.backward(node.ctx, out_grad, node.needs)):
            if g is None or not need:
                continue
            if kernel.core is not None:
                g = unbroadcast(g, tensor.shape)
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
