"""Tape ops that only tests use, built on ``emorank.numerics``' own op helpers.

The library keeps exactly the ops the pipeline calls. These are the unfused
pieces the fused ops are checked against (per-head attention from slices, a
transpose, softmax and a concat; a separate ReLU after ``conv1d``; an affine
layer's bias as a separate row-broadcast add; cross-entropy as a
log-softmax and pick chain, or take_rows for 1-D logits, and the rank term as
a sigmoid, clip, log chain) and the elementwise product and full sum that the
finite-difference tests read gradients through. They record their nodes
with ``nm._make`` and send gradients through ``nm._accumulate``, so they join
a library graph like any library op.
"""

import numpy as np

from emorank import numerics as nm


def add(a, b):
    """``nm.add``, which also accepts a 1-D ``b`` broadcast across the rows
    of a 2-D ``a``: a bias added over time as its own op."""
    a, b = nm.as_tensor(a), nm.as_tensor(b)
    if a.shape == b.shape:
        return nm.add(a, b)
    if not (a.data.ndim == 2 and b.shape == a.shape[-1:]):
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        nm._accumulate(a, g)
        nm._accumulate(b, g.sum(axis=0), fresh=True)

    return nm._make(a.data + b.data, (a, b), "add", backward)


def mul(a, b):
    a, b = nm.as_tensor(a), nm.as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        nm._accumulate(a, g * b.data, fresh=True)
        nm._accumulate(b, g * a.data, fresh=True)

    return nm._make(a.data * b.data, (a, b), "mul", backward)


def sum_all(a):
    def backward(g):
        nm._accumulate(a, np.broadcast_to(g, a.shape))

    return nm._make(a.data.sum(), (a,), "sum_all", backward)


def transpose(a):
    def backward(g):
        nm._accumulate(a, g.T)

    return nm._make(a.data.T, (a,), "transpose", backward)


def slice_cols(a, lo: int, hi: int):
    if not (0 <= lo < hi <= a.shape[-1]):
        raise ValueError(f"column slice [{lo}:{hi}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi] = g
        nm._accumulate(a, full, fresh=True)

    return nm._make(a.data[..., lo:hi].copy(), (a,), "slice_cols", backward)


def concat_cols(parts):
    parts = [nm.as_tensor(p) for p in parts]
    offsets = np.concatenate([[0], np.cumsum([p.shape[-1] for p in parts])])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            nm._accumulate(p, g[..., lo:hi])

    return nm._make(np.concatenate([p.data for p in parts], axis=-1), parts,
                    "concat_cols", backward)


def relu(a):
    mask = a.data > 0

    def backward(g):
        nm._accumulate(a, g * mask, fresh=True)

    return nm._make(a.data * mask, (a,), "relu", backward)


def softmax(a, axis: int = -1):
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"softmax axis {axis} out of range for {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        nm._accumulate(a, out_data * (g - inner), fresh=True)

    return nm._make(out_data, (a,), "softmax", backward)


def log_softmax(a, axis: int = -1):
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"log_softmax axis {axis} out of range for {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        nm._accumulate(a, g - soft * g.sum(axis=axis, keepdims=True), fresh=True)

    return nm._make(out_data, (a,), "log_softmax", backward)


def log(a):
    def backward(g):
        nm._accumulate(a, g / a.data, fresh=True)

    return nm._make(np.log(a.data), (a,), "log", backward)


def clip(a, lo: float, hi: float):
    """Clamp values to [lo, hi]; gradient passes only where nothing clipped."""
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        nm._accumulate(a, g * inside, fresh=True)

    return nm._make(np.clip(a.data, lo, hi), (a,), "clip", backward)


def add_const(a, c: float):
    def backward(g):
        nm._accumulate(a, g)

    return nm._make(a.data + c, (a,), "add_const", backward)


def cross_entropy(logits, target):
    """Negative log-softmax of the target class: a scalar for 1-D logits and
    one class, one value per row for (B, n) logits and B classes."""
    logits = nm.as_tensor(logits)
    if logits.data.ndim == 1:
        return nm.neg(nm.take_rows(log_softmax(logits), int(target)))
    return nm.neg(nm.pick(log_softmax(logits), target))


def sigmoid_bce(d, target, clamp: float = 1e-7):
    """The rank term as binary cross-entropy of a clamped probability:
    sigmoid(d), clipped to [clamp, 1 - clamp], then -(target * log p +
    (1 - target) * log(1 - p)). Exact while the clamp is inactive."""
    target = np.asarray(target, dtype=float)
    p = clip(nm.sigmoid(d), clamp, 1.0 - clamp)
    log_1mp = log(add_const(nm.neg(p), 1.0))
    return nm.neg(nm.add(nm.scale(log(p), target), nm.scale(log_1mp, 1.0 - target)))
