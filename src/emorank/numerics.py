"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Every operation that participates in training is defined here as a pure
function over :class:`Tensor` values. Forward calls record their inputs on
the output tensor; :meth:`Tensor.backward` replays the implicit graph in
reverse topological order and accumulates gradients into every leaf that
requires them. The sweep uses the graph up as it goes: each op output drops
its gradient, its backward closure and its inputs once its closure has run,
so only leaves keep gradients afterwards, and a swept graph cannot be
backpropagated again. The op surface is deliberately small: exactly the ops
the intensity extractor and its losses call, each loss term one op. The
unfused ops the fused ones are tested against (per-head softmax attention,
ReLU, log-softmax, and the log, clip and constant add of a sigmoid
cross-entropy) live with the tests.

Gradient ownership: every gradient buffer belongs to exactly one tensor.
:func:`_accumulate` copies a gradient it is handed unless its caller has
just created it, so no two tensors share one, and the sweep hands each
closure its node's own ``grad`` and drops it right after. A closure may
therefore overwrite the gradient it is handed (``conv1d`` masks it in
place), but must not keep it.

Shapes: an op over activations takes a 2-D (rows, C) batch, plus the row
counts of its segments as ``lengths`` if it reads segments. One sequence is
a batch of one segment, one vector a batch of one row. Only the elementwise
ops and the loss terms are shape-generic.

Float64 is the oracle precision (all finite-difference checks run in it);
float32 is supported for training throughput. An op inherits the dtype of
its inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class NonFiniteError(ValueError):
    """A NaN or Inf showed up where only finite values are legal."""


def _promote(data):
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


class Tensor:
    """A dense array plus the bookkeeping for reverse-mode gradients.

    ``requires_grad`` marks a trainable leaf; tensors produced by ops derive
    the flag from their parents so constant subgraphs cost nothing on the
    backward pass. :meth:`backward` leaves a ``grad`` of the same shape and
    dtype as ``data`` on every leaf it reaches; an op output's ``grad`` lives
    only while the sweep passes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=()):
        self.data = _promote(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The value of a tensor of one element, of any shape."""
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def validate_finite(self):
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in tensor from op '{self.op}'")

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into ``grad`` of every reachable leaf.

        ``seed`` defaults to ones, so calling it on a scalar loss gives plain
        gradients. Visits each graph node exactly once and releases the graph
        behind ``self`` (see :meth:`ComputeGraph.backward`).
        """
        ComputeGraph.trace(self).backward(self, seed)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, op={self.op!r})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class ComputeGraph:
    """Topologically ordered record of the ops behind one output tensor.

    Invariants: the backward sweep visits each node exactly once, and a
    tensor that does not feed the traced output keeps a zero (None) grad.
    The sweep consumes the record: afterwards only leaves hold gradients, and
    every op output has let go of its gradient, closure and inputs, so a
    swept graph cannot be backpropagated again. Each closure is handed its
    node's own gradient buffer, which no other tensor shares and which is
    dropped once the closure returns, so the closure may work on it in
    place.
    """

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputeGraph":
        order, seen, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward(self, root: Tensor, seed=None):
        if seed is None:
            seed = np.ones_like(root.data)
        _accumulate(root, np.asarray(seed, dtype=root.data.dtype))
        nodes = self.nodes
        while nodes:
            # popped in reverse topological order: every consumer of this node
            # has already run and released it, so once its own closure has run
            # its activation, closure and gradient can be freed
            node = nodes.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = node._backward = None
                node._parents = ()


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient sent to ``t`` reaches a leaf: a closure may skip
    forming an operand's gradient when it does not."""
    return t.requires_grad or bool(t._parents)


def _accumulate(t: Tensor, g, fresh: bool = False):
    """Add ``g`` into ``t.grad``. The first gradient stored for ``t`` is a
    copy, unless ``fresh`` says the caller has just created ``g`` and keeps
    no other reference to it: then ``g`` itself becomes ``t.grad``. A closure
    that passes on its incoming gradient, or a view of it, leaves ``fresh``
    off, so no two tensors ever share a gradient buffer."""
    if not _needs_grad(t):
        return
    if t.grad is None:
        if fresh and isinstance(g, np.ndarray) and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _make(data, parents, op, backward):
    out = Tensor(data, op=op, parents=tuple(parents))
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._backward = backward
    else:
        out._parents = ()
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), "add", backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g, fresh=True)

    return _make(-a.data, (a,), "neg", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(as_tensor(b)))


def scale(a: Tensor, s) -> Tensor:
    """Multiply by a constant: a float, or an array of ``a``'s shape (cast to
    its dtype), such as one weight per element of a batch of losses."""
    if np.ndim(s) == 0:
        s = float(s)
    else:
        s = np.asarray(s, dtype=a.data.dtype)
        if s.shape != a.shape:
            raise ValueError(f"scale shape mismatch: {a.shape} vs {s.shape}")

    def backward(g):
        _accumulate(a, g * s, fresh=True)

    return _make(a.data * s, (a,), "scale", backward)


# ---------------------------------------------------------------------------
# linear algebra


# rows per partial product of a weight gradient (see _weight_grad); OpenBLAS
# 0.3.31 gave thread-count-independent results up to 448 rows, so 256 leaves
# a margin
_GRAD_CHUNK_ROWS = 256

# elements per block of a weight gradient's partial product: its one reused
# scratch takes at most 8 MB in float32. At the paper width only conv1's
# 2304x1024 kernel gradient splits, into two blocks of 1152 rows
_GRAD_SCRATCH = 1 << 21


def _weight_grad(a, g: np.ndarray) -> np.ndarray:
    """``a.T @ g``, summed over fixed chunks of rows in a fixed order.

    A weight's gradient sums over every frame of a packed batch. Over a long
    inner dimension BLAS may split the sum differently for different thread
    counts, which changes the float rounding; chunks of at most
    ``_GRAD_CHUNK_ROWS`` rows keep gradients, and with them whole training
    runs, bitwise independent of the BLAS thread count.

    Every chunk after the first adds its product through one scratch that
    all chunks reuse, formed in blocks of the result's rows of at most
    ``_GRAD_SCRATCH`` elements: each element is still the dot product over
    the chunk's rows, added in chunk order, and no chunk allocates a
    gradient-sized temporary.

    ``a`` is an array, or a function ``(lo, hi) -> a[lo:hi]`` for a caller
    that builds the rows chunk by chunk instead of holding all of them.
    """
    rows = a if callable(a) else (lambda lo, hi: a[lo:hi])
    n = _GRAD_CHUNK_ROWS
    out = rows(0, n).T @ g[:n]
    if g.shape[0] <= n:
        return out
    n_out, n_cols = out.shape
    n_blocks = -(-out.size // _GRAD_SCRATCH)
    block = -(-n_out // n_blocks)
    scratch = np.empty((block, n_cols), dtype=out.dtype)
    for lo in range(n, g.shape[0], n):
        chunk = rows(lo, lo + n)
        for r in range(0, n_out, block):
            part = scratch[:min(block, n_out - r)]
            np.matmul(chunk[:, r:r + block].T, g[lo:lo + n], out=part)
            out[r:r + block] += part
        del chunk  # before the next chunk's rows are built
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product of a (rows, C) batch and a (C, C_out) matrix.

    ``bias``, a vector with one entry per column of ``b``, is added in place
    to every row of the product: an affine layer is one op, and the graph
    keeps no bare product beside the biased one. The backward pass forms an
    operand's gradient only when some leaf receives it, so a constant input
    (raw features, a one-hot matrix) costs no product.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D x 2-D, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data
    if bias is not None:
        if bias.shape != b.shape[1:]:
            raise ValueError(f"matmul bias must be ({b.shape[1]},), got {bias.shape}")
        out_data += bias.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, g @ b.data.T, fresh=True)
        if _needs_grad(b):
            _accumulate(b, _weight_grad(a.data, g), fresh=True)
        if bias is not None and _needs_grad(bias):
            _accumulate(bias, g.sum(axis=0), fresh=True)

    parents = (a, b) if bias is None else (a, b, bias)
    return _make(out_data, parents, "matmul", backward)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data), fresh=True)

    return _make(out_data, (a,), "tanh", backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function in ``x``'s dtype. Only exp(-|x|) is taken, on
    both branches, so large |x| cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.asarray(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), dtype=x.dtype)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data), fresh=True)

    return _make(out_data, (a,), "sigmoid", backward)


# uniforms drawn per call while building dropout masks: the float64 scratch
# they land in stays 512 KB however many masks one call draws
_MASK_BLOCK = 1 << 16


def dropout_masks(shapes, p: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Inverted-dropout keep masks, one bool array per shape: True (keep)
    where a uniform draw is >= p. Not a tape op.

    One uniform per element is drawn from ``rng``, mask after mask, in
    blocks of ``_MASK_BLOCK`` into one reused scratch array, each block
    compared straight into one flat bool array. A generator fills
    consecutive calls and one call of their total size with the same
    values, so the masks and the generator's end state are those of one
    ``rng.random(total)`` call, and of drawing the masks one by one.
    """
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    keep = np.empty(total, dtype=bool)
    scratch = np.empty(min(total, _MASK_BLOCK))
    for lo in range(0, total, _MASK_BLOCK):
        u = scratch[:min(_MASK_BLOCK, total - lo)]
        rng.random(out=u)
        np.greater_equal(u, p, out=keep[lo:lo + u.size])
    masks, lo = [], 0
    for shape, size in zip(shapes, sizes):
        masks.append(keep[lo:lo + size].reshape(shape))
        lo += size
    return masks


def _keep_scale(p: float, keep: np.ndarray, like: np.ndarray):
    """The inverted-dropout scale ``c = 1/(1-p)`` in ``like``'s dtype, or
    None for ``p`` = 0 (no dropout), after checking the rate and that
    ``keep`` is a bool mask of ``like``'s shape."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    if keep.shape != like.shape:
        raise ValueError(f"dropout mask shape {keep.shape} does not match {like.shape}")
    if keep.dtype != np.bool_:
        raise ValueError(f"dropout mask must be bool, got {keep.dtype}")
    dtype = like.dtype.type
    return dtype(1) / dtype(1 - p)


def dropout(a: Tensor, p: float, *, keep: np.ndarray) -> Tensor:
    """Inverted dropout: keep with probability 1-p and rescale, so eval mode
    needs no correction.

    ``keep`` is a bool mask of ``a``'s shape drawn by :func:`dropout_masks`.
    Kept elements are multiplied by ``c = 1/(1-p)`` in ``a``'s dtype; the
    float mask ``keep * c`` lives only while the forward and the backward
    product are formed, so the graph holds one byte per element.
    """
    c = _keep_scale(p, keep, a.data)
    if c is None:
        return a

    def backward(g):
        _accumulate(a, g * (keep * c), fresh=True)

    return _make(a.data * (keep * c), (a,), "dropout", backward)


# ---------------------------------------------------------------------------
# normalization and attention building blocks


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a (rows, C) batch, then apply per-channel gain
    and bias."""
    if a.data.ndim != 2 or gain.shape != a.shape[1:] or bias.shape != a.shape[1:]:
        raise ValueError(f"layer_norm expects a (rows, C) batch and (C,) gain and bias, "
                         f"got {a.shape}, {gain.shape}, {bias.shape}")
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def backward(g):
        _accumulate(gain, (g * xhat).sum(axis=0), fresh=True)
        _accumulate(bias, g.sum(axis=0), fresh=True)
        gx = g * gain.data
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, term * inv_std, fresh=True)

    return _make(xhat * gain.data + bias.data, (a, gain, bias), "layer_norm", backward)


def _runs(lengths, t_len: int) -> list[tuple[int, int, int, int]]:
    """Split the rows of a packed (T, C) matrix into its segments.

    ``lengths`` lists the consecutive segments' row counts. Neighbouring
    segments of equal length are grouped into one run, so per-segment work
    can be batched: each run is ``(first row, end row, segment count,
    segment length)``.
    """
    runs, lo = [], 0
    for seg in lengths:
        seg = int(seg)
        if seg < 1:
            raise ValueError(f"segment lengths must be >= 1, got {seg}")
        if runs and runs[-1][3] == seg:
            first, _, n, _ = runs[-1]
            runs[-1] = (first, lo + seg, n + 1, seg)
        else:
            runs.append((lo, lo + seg, 1, seg))
        lo += seg
    if lo != t_len:
        raise ValueError(f"segment lengths sum to {lo}, but the input has {t_len} rows")
    return runs


def _cross_taps(lengths, t_len: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(frame, tap) pairs of a "same" convolution over a packed (T, C) matrix
    whose tap reads outside the frame's own segment.

    Frame t's tap j reads row t + j - (k-1)//2. Where that row lies outside
    the segment, a segment convolved alone would read its zero padding.
    """
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths)
    lo = np.repeat(ends - lengths, lengths)[:, None]
    hi = np.repeat(ends, lengths)[:, None]
    src = np.arange(t_len)[:, None] + (np.arange(k) - (k - 1) // 2)[None, :]
    return np.nonzero((src < lo) | (src >= hi))


def _im2col(x: np.ndarray, k: int, cross, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The (T, K*C_in) tap matrix of a "same" convolution over ``x``, or its
    rows [lo, hi): row t holds the K input rows around frame t, zero where a
    tap reads the padding or, at the ``cross`` (frame, tap) pairs, a
    neighbouring segment. A one-tap kernel reads no neighbours: its tap
    matrix is ``x`` itself."""
    t_len, c_in = x.shape
    hi = t_len if hi is None else min(hi, t_len)
    if k == 1:
        return x[lo:hi]
    pad_lo = (k - 1) // 2
    # padded row r holds input row lo - pad_lo + r, zero outside x
    padded = np.zeros((hi - lo + k - 1, c_in), dtype=x.dtype)
    src_lo, src_hi = max(lo - pad_lo, 0), min(hi - pad_lo + k - 1, t_len)
    padded[src_lo - lo + pad_lo:src_hi - lo + pad_lo] = x[src_lo:src_hi]
    # (hi - lo, K, Cin): row t holds the K taps around frame lo + t
    cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)
    cols = cols.transpose(0, 2, 1).copy()
    frames, taps = cross  # sorted by frame
    first, last = np.searchsorted(frames, (lo, hi))
    cols[frames[first:last] - lo, taps[first:last]] = 0.0
    return cols.reshape(hi - lo, k * c_in)


def _conv_input_grad(g: np.ndarray, w2d: np.ndarray, k: int, cross) -> np.ndarray:
    """The (T, C_in) input gradient of a "same" convolution with the
    (K*C_in, C_out) kernel ``w2d``, given its output gradient ``g``: the
    column gradient ``g @ w2d.T`` summed back onto the rows its taps read.
    Taps at the ``cross`` (frame, tap) pairs read padding and send nothing."""
    gcols = g @ w2d.T
    if k == 1:
        return gcols
    t_len, c_in = g.shape[0], w2d.shape[0] // k
    gcols = gcols.reshape(t_len, k, c_in)
    gcols[cross] = 0.0  # padding, not a neighbouring segment's frames
    gpad = np.zeros((t_len + k - 1, c_in), dtype=gcols.dtype)
    for tap in range(k):
        gpad[tap:tap + t_len] += gcols[:, tap, :]
    pad_lo = (k - 1) // 2
    return gpad[pad_lo:pad_lo + t_len]


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None,
           lengths, *, relu: bool = False, p: float = 0.0,
           keep: np.ndarray | None = None) -> Tensor:
    """1-D convolution over time with "same" zero padding.

    ``x`` is (T, C_in), ``kernel`` is (K, C_in, C_out); output is (T, C_out).
    ``lengths`` splits the rows of ``x`` into consecutive segments (``[T]``
    for one sequence) that are convolved independently: each segment is
    zero padded at both ends, so no output frame reads a neighbouring
    segment. Implemented as one im2col
    matmul over all segments so BLAS does the heavy lifting, and the kernel
    gradient is one matmul too. ``bias`` is added to the product in place.
    The backward pass rebuilds the im2col matrix from ``x``, one
    weight-gradient chunk of rows at a time, rather than keeping it alive
    between the passes, and forms only the gradients that some leaf
    receives. It forms the input gradient first and frees its (T, K*C_in)
    column gradient before the kernel gradient is formed, so the two never
    coexist.

    An optional epilogue then works on the product in place: ``relu=True``
    multiplies it by its ReLU mask ``out > 0``, and a dropout rate ``p``
    with a bool ``keep`` mask from :func:`dropout_masks` multiplies it by
    ``keep * c``, ``c = 1/(1-p)`` in its dtype (``keep=None``, as in eval
    mode, drops nothing). These are the products that a separate ReLU op
    and then :func:`dropout` form, so every bit is theirs, but the graph
    keeps one (T, C_out) array where that chain keeps three. The backward reads the
    ReLU mask back from the output: a kept element is positive exactly when
    the product was, and a dropped one has a zero gradient either way.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ValueError(f"conv1d expects (T,Cin) x (K,Cin,Cout), got {x.shape} x {kernel.shape}")
    t_len, c_in = x.shape
    k, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, kernel {kc_in}")
    _runs(lengths, t_len)  # validates the segment lengths
    # taps that would read a neighbouring segment read its padding instead
    cross = _cross_taps(lengths, t_len, k) if k > 1 else None
    w2d = kernel.data.reshape(k * c_in, c_out)
    out_data = _im2col(x.data, k, cross) @ w2d
    if bias is not None:
        if bias.shape != (c_out,):
            raise ValueError(f"conv1d bias must be ({c_out},), got {bias.shape}")
        out_data += bias.data
    if relu:
        out_data *= out_data > 0
    c = None if keep is None else _keep_scale(p, keep, out_data)
    if c is not None:
        out_data *= keep * c

    def backward(g):
        # g is this node's own gradient (see ComputeGraph): mask it in place
        if c is not None:
            g *= keep
            g *= c
        if relu:
            g *= out_data > 0
        # the input gradient first, so that its (T, K*C_in) column gradient
        # is gone before the kernel gradient is formed
        if _needs_grad(x):
            _accumulate(x, _conv_input_grad(g, w2d, k, cross), fresh=True)
        if _needs_grad(kernel):
            # the columns are rebuilt one gradient chunk at a time: the same
            # rows in the same layout as slices of the whole matrix
            cols = functools.partial(_im2col, x.data, k, cross)
            _accumulate(kernel, _weight_grad(cols, g).reshape(k, c_in, c_out), fresh=True)
        if bias is not None and _needs_grad(bias):
            _accumulate(bias, g.sum(axis=0), fresh=True)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out_data, parents, "conv1d", backward)


def _segment_chunked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices whose inner dimension is a segment's
    length (keys or queries), summed over fixed chunks of
    ``_GRAD_CHUNK_ROWS`` frames in a fixed order.

    Like a weight gradient's rows (see :func:`_weight_grad`), a long inner
    dimension may be split differently for different BLAS thread counts; the
    chunks keep attention's output and gradients over a long utterance
    bitwise independent of the thread count. A segment of at most
    ``_GRAD_CHUNK_ROWS`` frames is one product, ``a @ b`` itself.
    """
    n = _GRAD_CHUNK_ROWS
    out = a[..., :n] @ b[..., :n, :]
    for lo in range(n, b.shape[-2], n):
        out += a[..., lo:lo + n] @ b[..., lo:lo + n, :]
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, lengths) -> Tensor:
    """Multi-head scaled dot-product self-attention as one op.

    ``q``, ``k`` and ``v`` are (T, H*d); head h owns columns [h*d, (h+1)*d).
    Every head computes softmax(q_h k_h^T / sqrt(d)) v_h, and the heads'
    outputs sit side by side in a (T, H*d) result. ``lengths`` splits the
    rows into consecutive segments (``[T]`` for one sequence); a frame
    attends only to the frames of its own segment, so each segment sees its
    own T_i x T_i scores.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or not q.shape == k.shape == v.shape:
        raise ValueError(f"attention expects equal (T, C) inputs, got {q.shape}, {k.shape}, {v.shape}")
    t_len, width = q.shape
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"width {width} does not split into {n_heads} heads")
    d_head = width // n_heads
    s = float(1.0 / np.sqrt(d_head))  # a Python float keeps float32 inputs in float32
    runs = _runs(lengths, t_len)

    def heads(a, lo, hi, n, seg):
        # (n, H, seg, d) view of the run's rows: one matrix per segment and head
        return a[lo:hi].reshape(n, seg, n_heads, d_head).transpose(0, 2, 1, 3)

    # the arithmetic of each head is that of the chain matmul, scale,
    # softmax, matmul on the head's own columns, op for op
    out_data = np.empty_like(q.data)
    probs = []
    for run in runs:
        p = heads(q.data, *run) @ heads(k.data, *run).transpose(0, 1, 3, 2)
        p *= s
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        heads(out_data, *run)[...] = _segment_chunked_matmul(p, heads(v.data, *run))
        probs.append(p)

    def backward(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for run, p in zip(runs, probs):
            gh = heads(g, *run)
            heads(gv, *run)[...] = _segment_chunked_matmul(p.transpose(0, 1, 3, 2), gh)
            # softmax backward: p * (gp - rowsum(gp * p)), gp = g v^T
            gs = gh @ heads(v.data, *run).transpose(0, 1, 3, 2)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= s
            heads(gq, *run)[...] = _segment_chunked_matmul(gs, heads(k.data, *run))
            heads(gk, *run)[...] = _segment_chunked_matmul(gs.transpose(0, 1, 3, 2),
                                                           heads(q.data, *run))
        _accumulate(q, gq, fresh=True)
        _accumulate(k, gk, fresh=True)
        _accumulate(v, gv, fresh=True)

    return _make(out_data, (q, k, v), "attention", backward)


def take_rows(a: Tensor, index) -> Tensor:
    """Rows of a 1-D or 2-D tensor: an int picks one row, an integer array
    one row per entry. The gradient scatters back, summed over repeats."""
    index = np.asarray(index)
    if a.data.ndim not in (1, 2) or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"take_rows expects a 1-D/2-D tensor and integer rows, "
                         f"got {a.shape} and {index.dtype}")
    if np.any(index < 0) or np.any(index >= a.shape[0]):
        raise ValueError(f"row index out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        _accumulate(a, full, fresh=True)

    return _make(np.take(a.data, index, axis=0), (a,), "take_rows", backward)


# ---------------------------------------------------------------------------
# reductions


def mean_over_time(x: Tensor, lengths) -> Tensor:
    """Per-segment mean over time: the rows of ``x`` are consecutive segments
    of ``lengths`` rows, and each is averaged on its own: (T, C) -> (B, C)."""
    if x.data.ndim != 2:
        raise ValueError(f"mean_over_time expects a (T, C) matrix, got {x.shape}")
    t_len, c = x.shape
    runs = _runs(lengths, t_len)
    out_data = np.empty((len(lengths), c), dtype=x.data.dtype)
    first = 0  # first output row of the current run
    for lo, hi, n, seg in runs:
        out_data[first:first + n] = x.data[lo:hi].reshape(n, seg, c).mean(axis=1)
        first += n

    def backward(g):
        gx = np.empty_like(x.data)
        first = 0
        for lo, hi, n, seg in runs:
            gx[lo:hi].reshape(n, seg, c)[...] = (g[first:first + n] / seg)[:, None, :]
            first += n
        _accumulate(x, gx, fresh=True)

    return _make(out_data, (x,), "mean_over_time", backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accumulate(a, np.broadcast_to(g / n, a.shape))

    return _make(a.data.mean(), (a,), "mean_all", backward)


def pick(a: Tensor, index) -> Tensor:
    """One element per row of a (rows, C) batch, differentiable: column
    ``index``, or ``index[r]`` for row r."""
    if a.data.ndim != 2:
        raise ValueError(f"pick expects a (rows, C) batch, got {a.shape}")
    rows = np.arange(a.shape[0])
    cols = np.broadcast_to(np.asarray(index), rows.shape)
    if not np.issubdtype(cols.dtype, np.integer) or np.any(cols < 0) \
            or np.any(cols >= a.shape[1]):
        raise ValueError(f"pick columns {index} out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[rows, cols] = g
        _accumulate(a, full, fresh=True)

    return _make(a.data[rows, cols], (a,), "pick", backward)


# ---------------------------------------------------------------------------
# losses


def soft_cross_entropy(logits: Tensor, target) -> Tensor:
    """Cross-entropy of softmax(logits) against a target distribution over
    the last axis: a scalar for (n,) logits, one value per row for (B, n).

    ``target`` has the logits' shape and is cast to their dtype; a one-hot
    target gives the plain cross-entropy of its class. The value is
    ``-(target * log_softmax(logits)).sum(-1)``, and the gradient
    ``softmax(logits) * target.sum(-1) - target``.
    """
    logits = as_tensor(logits)
    z = logits.data
    target = np.asarray(target, dtype=z.dtype)
    if z.ndim not in (1, 2) or target.shape != z.shape:
        raise ValueError(f"need (n,) or (B, n) logits and a target of their shape, "
                         f"got {logits.shape} and {target.shape}")
    shifted = z - z.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(g):
        _accumulate(logits, g[..., None] * (np.exp(ls) * target.sum(axis=-1, keepdims=True)
                                            - target), fresh=True)

    return _make(-(target * ls).sum(axis=-1), (logits,), "soft_cross_entropy", backward)


def bce_with_logits(d: Tensor, target) -> Tensor:
    """Binary cross-entropy of sigmoid(d) against a target probability (one,
    or one per element of ``d``), taken from the logit ``d`` itself:
    ``max(d, 0) + log1p(exp(-|d|)) - target * d``.

    Finite for every finite ``d``, and its gradient ``sigmoid(d) - target``
    tends to -target or 1 - target at large |d|, not to zero.
    """
    d = as_tensor(d)
    x = d.data
    target = np.broadcast_to(np.asarray(target, dtype=x.dtype), x.shape)

    def backward(g):
        _accumulate(d, g * (_sigmoid(x) - target), fresh=True)

    return _make(np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x))) - target * x, (d,),
                 "bce_with_logits", backward)


# ---------------------------------------------------------------------------
# optimizer


# elements per block of an Adam update: its two scratch blocks take 512 KB
# in float32, however large the largest parameter is
_ADAM_BLOCK = 1 << 16


class AdamState:
    """First/second moment buffers plus the bias-correction step counter."""

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.step = 0
        self._work: dict = {}  # dtype -> two scratch blocks reused every step

    def _work_buffers(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch blocks of ``like``'s dtype, sharing memory across steps
        and parameters (grown to at most ``_ADAM_BLOCK`` elements)."""
        size = min(like.size, _ADAM_BLOCK)
        bufs = self._work.get(like.dtype)
        if bufs is None or bufs[0].size < size:
            bufs = self._work[like.dtype] = (np.empty(size, like.dtype),
                                             np.empty(size, like.dtype))
        return bufs


def _flat_view(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a 1-D view, so that writing to it updates ``arr``."""
    if not arr.flags.c_contiguous:
        raise ValueError("Adam updates C-contiguous parameters and moments in place")
    return arr.reshape(-1)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update with bias correction, applied in place.

    ``params`` maps names to Tensors; ``grads`` maps the same names to arrays
    (typically ``tensor.grad``). Raises :class:`NonFiniteError` on a NaN/Inf
    gradient. Returns the mutated ``(params, state)`` pair.

    Every element goes through the same operation sequence as
    ``m += (1 - beta1) * (g - m)``, ``v += (1 - beta2) * (g * g - v)`` and
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, but block by block
    (``_ADAM_BLOCK`` elements) into two reused scratch blocks, so the result
    is bitwise that formula's without its parameter-sized temporaries.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        flat = (np.ravel(g), _flat_view(state.m[name]), _flat_view(state.v[name]),
                _flat_view(p.data))
        work = state._work_buffers(p.data)
        for lo in range(0, g.size, _ADAM_BLOCK):
            gb, m, v, pb = (x[lo:lo + _ADAM_BLOCK] for x in flat)
            a, b = (w[:gb.size] for w in work)
            np.subtract(gb, m, out=a)
            np.multiply(a, 1.0 - beta1, out=a)
            m += a
            np.multiply(gb, gb, out=a)
            np.subtract(a, v, out=a)
            np.multiply(a, 1.0 - beta2, out=a)
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            pb -= a
    return params, state


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_grad(fn, tensor: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued ``fn`` w.r.t. ``tensor``.

    ``fn`` takes no arguments and must read ``tensor.data``; the perturbation
    is applied in place and restored. Independent of the backward pass by
    construction, so it serves as the gradient oracle in tests.
    """
    flat = tensor.data.reshape(-1)
    out = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(fn())
        flat[i] = orig - h
        lo = float(fn())
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return out.reshape(tensor.data.shape)
