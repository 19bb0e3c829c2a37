"""Tape ops that only tests use, built on ``emorank.numerics``' own op helpers.

The library keeps exactly the ops the pipeline calls. These are the unfused
pieces the fused ops are checked against (per-head attention from slices, a
transpose, softmax and a concat; a separate ReLU after ``conv1d``; an affine
layer's bias as a separate row-broadcast add) and the elementwise product
and full sum that the finite-difference tests read gradients through. They
record their nodes with ``nm._make`` and send gradients through
``nm._accumulate``, so they join a library graph like any library op.
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
