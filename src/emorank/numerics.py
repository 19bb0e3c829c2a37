"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Every operation that participates in training is defined here as a pure
function over :class:`Tensor` values. A forward call with an input that
requires a gradient records its inputs on its output; :meth:`Tensor.backward`
replays that graph in reverse topological order, accumulates gradients into
every leaf that requires them and uses the graph up as it goes. The op
surface is deliberately small: exactly the ops the intensity extractor and
its losses call, each loss term one op, and one body (``_affine``) behind
both affine ops, ``matmul`` and ``conv1d``, with their ReLU, dropout,
residual add and layer norm as in-place epilogues: a transformer sublayer's
``LayerNorm(x + dropout(affine(h)))`` is one op, and its graph keeps only
what its backward reads. The unfused ops the fused ones are tested against
(per-head softmax attention, ReLU, dropout, layer norm, log-softmax, and the
log, clip and constant add of a sigmoid cross-entropy) live with the tests.

Shapes: an op over activations takes a 2-D (rows, C) batch, plus the row
counts of its segments as ``lengths`` if it reads segments. One sequence is
a batch of one segment, one vector a batch of one row. Only the elementwise
ops and the loss terms are shape-generic.

Each gradient buffer has one owner: the sweep hands each closure its node's
gradient and lets go of it first, :func:`_accumulate` keeps what it is
handed, and a closure hands one buffer to at most one input.

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

    ``requires_grad`` marks a tensor whose gradient is wanted: a trainable
    leaf, or an op output that depends on one. Only those outputs record
    their inputs and a backward closure (see :func:`_make`), so constant
    subgraphs cost nothing on the backward pass.
    :meth:`backward` leaves a ``grad`` of the same shape and dtype as
    ``data`` on every leaf it reaches; an op output's ``grad`` lives only
    while the sweep passes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = _promote(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = ()
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

        ``seed`` defaults to ones (a given one is copied), so calling it on a
        scalar loss gives plain gradients. The sweep visits each node of
        :meth:`ComputeGraph.trace` exactly once, in reverse topological order;
        a tensor that does not feed ``self`` keeps a zero (None) grad. It
        consumes the graph: each node lets go of its gradient, closure and
        inputs before its closure runs, so afterwards only leaves hold
        gradients and a swept graph cannot be backpropagated again.

        The closure owns the gradient it is handed: it may overwrite it (an
        affine op's epilogue masks it in place) and hand it to at most one
        input, as :func:`_accumulate` keeps what it is handed. So no two
        tensors share a gradient buffer.
        """
        nodes = ComputeGraph.trace(self)
        _accumulate(self, np.ones_like(self.data) if seed is None else np.array(seed, self.dtype))
        while nodes:
            # reverse topological order: every consumer of this node has run
            node = nodes.pop()
            if node._parents:
                g, backward = node.grad, node._backward
                node.grad = node._backward = None
                node._parents = ()
                if g is not None:
                    backward(g)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, op={self.op!r})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class ComputeGraph:
    """Holds :meth:`trace`, which :meth:`Tensor.backward` looks up by name at
    call time, so a profiler can wrap the trace on its own."""

    @classmethod
    def trace(cls, root: Tensor) -> list[Tensor]:
        """Every tensor ``root`` depends on through recorded parents, each
        after all of its inputs, ``root`` last."""
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
        return order


def _accumulate(t: Tensor, g):
    """Add ``g`` into ``t.grad``. The first gradient of ``t`` is ``g`` itself,
    handed over by the caller, unless ``g`` needs a cast to ``t``'s dtype."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if isinstance(g, np.ndarray) and g.dtype == t.data.dtype \
            else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data, parents, op, backward):
    """The output of one op. It joins the tape, recording its inputs and
    its backward closure, exactly when some input requires a gradient; this
    is the only place a tensor gets parents."""
    out = Tensor(data, op=op)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g.copy() if b.requires_grad else g)  # b takes g itself
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), "add", backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

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
        _accumulate(a, g * s)

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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, *, p: float = 0.0,
           keep: np.ndarray | None = None, residual: Tensor | np.ndarray | None = None,
           norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Matrix product of a (rows, C) batch and a (C, C_out) matrix.

    ``bias``, a vector with one entry per column of ``b``, is added in place
    to every row of the product: an affine layer is one op, and the graph
    keeps no bare product beside the biased one. A dropout rate ``p`` with a
    bool ``keep`` mask from :func:`dropout_masks`, a ``residual`` added to
    the result and a layer ``norm=(gain, bias)`` of its rows apply in place
    too (see :func:`_affine`). The backward pass forms an operand's gradient
    only when some leaf receives it, so a constant input (raw features, a
    one-hot matrix) costs no product.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D x 2-D, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != b.shape[1:]:
        raise ValueError(f"matmul bias must be ({b.shape[1]},), got {bias.shape}")
    return _affine(a, b, bias, 1, None, "matmul", p=p, keep=keep, residual=residual,
                   norm=norm)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

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
        _accumulate(a, g * out_data * (1.0 - out_data))

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


# ---------------------------------------------------------------------------
# segments, affine ops and attention


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


# the layer-norm epilogue's epsilon, added to each row's variance
_NORM_EPS = 1e-5


def _affine(x: Tensor, w: Tensor, bias: Tensor | None, k: int, cross, op: str, *,
            relu: bool = False, p: float = 0.0, keep: np.ndarray | None = None,
            residual: Tensor | np.ndarray | None = None,
            norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """The body of both affine ops: ``matmul`` is its one-tap case, whose tap
    matrix is ``x`` itself, and ``conv1d`` its ``k``-tap case.

    The tap matrix times the (K*C_in, C_out) view of ``w``, with ``bias``
    added in place. Optional epilogues work in place too, in this order:
    ``relu=True`` multiplies by the ReLU mask ``out > 0``; a dropout rate
    ``p`` with a bool ``keep`` mask from :func:`dropout_masks` multiplies by
    ``keep * c``, ``c = 1/(1-p)`` in the output's dtype (``keep=None``, as
    in eval mode, drops nothing); a ``residual`` of the output's shape and
    dtype is added; and ``norm=(gain, bias)`` normalizes each row to zero
    mean and unit variance, then applies the per-channel gain and bias. These
    are the products the separate ReLU, dropout, add and layer-norm ops form,
    so every bit is theirs, but the graph keeps only what the backward reads:
    the output, plus the normalized rows under a norm, where that chain keeps
    every intermediate. A ``residual`` that needs no gradient (an array, or a
    constant tensor) is neither an input of the node nor held by it.

    The backward runs the epilogues in reverse, in place on its own
    gradient: the layer-norm backward, then a copy to the residual, then the
    masks. The ReLU mask is read back from the output (a kept element is
    positive exactly when the product was, and a dropped one is 0 there, so
    the ReLU mask zeroes its gradient and the dropout mask is not kept); only
    an output changed by a residual or norm keeps a bool ReLU mask instead.
    It then forms only the gradients some leaf receives: the input gradient
    first, freeing its (T, K*C_in) column gradient before the kernel gradient
    is formed through :func:`_weight_grad` from tap-matrix rows rebuilt one
    chunk at a time, and the bias gradient last.
    """
    w2d = w.data.reshape(-1, w.shape[-1])
    out_data = _im2col(x.data, k, cross) @ w2d
    if bias is not None:
        out_data += bias.data
    if relu:
        out_data *= out_data > 0
    c = None if keep is None else _keep_scale(p, keep, out_data)
    if c is not None:
        out_data *= keep * c
    if relu:
        keep = None  # the ReLU mask zeroes every dropped element's gradient
    active = out_data > 0 if relu and (residual is not None or norm is not None) else None
    res = None
    if residual is not None:
        residual = as_tensor(residual)
        if residual.shape != out_data.shape or residual.dtype != out_data.dtype:
            raise ValueError(f"{op} residual must be {out_data.shape} {out_data.dtype}, "
                             f"got {residual.shape} {residual.dtype}")
        out_data += residual.data
        res = residual if residual.requires_grad else None
    xhat = inv_std = None
    if norm is not None:
        gain, shift = norm
        if gain.shape != out_data.shape[1:] or shift.shape != out_data.shape[1:]:
            raise ValueError(f"{op} norm needs ({out_data.shape[1]},) gain and bias, "
                             f"got {gain.shape}, {shift.shape}")
        xhat = out_data  # normalized in place
        xhat -= xhat.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _NORM_EPS)
        xhat *= inv_std
        out_data = xhat * gain.data + shift.data

    def backward(g):
        # g is this node's own gradient (see Tensor.backward): work in place
        if xhat is not None:
            _accumulate(gain, (g * xhat).sum(axis=0))
            _accumulate(shift, g.sum(axis=0))
            g *= gain.data
            g_mean = g.mean(axis=-1, keepdims=True)
            gx_mean = (g * xhat).mean(axis=-1, keepdims=True)
            g -= g_mean
            g -= xhat * gx_mean
            g *= inv_std
        if res is not None:
            _accumulate(res, g.copy())
        if keep is not None:
            g *= keep
        if c is not None:
            g *= c
        if relu:
            g *= out_data > 0 if active is None else active
        if x.requires_grad:
            _accumulate(x, _conv_input_grad(g, w2d, k, cross))
        if w.requires_grad:
            # the same rows in the same layout as slices of the whole matrix
            cols = functools.partial(_im2col, x.data, k, cross)
            _accumulate(w, _weight_grad(cols, g).reshape(w.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    parents = (x, w) + ((bias,) if bias is not None else ()) \
        + ((res,) if res is not None else ()) + (norm or ())
    return _make(out_data, parents, op, backward)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None,
           lengths, *, relu: bool = False, p: float = 0.0,
           keep: np.ndarray | None = None, residual: Tensor | np.ndarray | None = None,
           norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """1-D convolution over time with "same" zero padding.

    ``x`` is (T, C_in), ``kernel`` is (K, C_in, C_out); output is (T, C_out).
    ``lengths`` splits the rows of ``x`` into consecutive segments (``[T]``
    for one sequence) that are convolved independently: each segment is
    zero padded at both ends, so no output frame reads a neighbouring
    segment. Implemented as one im2col matmul over all segments so BLAS does
    the heavy lifting, with ``bias``, the ``relu``, ``p``/``keep``,
    ``residual`` and ``norm`` epilogues and the backward of :func:`_affine`.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ValueError(f"conv1d expects (T,Cin) x (K,Cin,Cout), got {x.shape} x {kernel.shape}")
    t_len, c_in = x.shape
    k, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, kernel {kc_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"conv1d bias must be ({c_out},), got {bias.shape}")
    _runs(lengths, t_len)  # validates the segment lengths
    # taps that would read a neighbouring segment read its padding instead
    cross = _cross_taps(lengths, t_len, k) if k > 1 else None
    return _affine(x, kernel, bias, k, cross, "conv1d", relu=relu, p=p, keep=keep,
                   residual=residual, norm=norm)


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
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

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
        _accumulate(a, full)

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
        _accumulate(x, gx)

    return _make(out_data, (x,), "mean_over_time", backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accumulate(a, np.broadcast_to(g / n, a.shape).copy())

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
        _accumulate(a, full)

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
                                            - target))

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
        _accumulate(d, g * (_sigmoid(x) - target))

    return _make(np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x))) - target * x, (d,),
                 "bce_with_logits", backward)


# ---------------------------------------------------------------------------
# optimizer


# elements per block of an Adam update: its two scratch blocks take 512 KB
# in float32, however large the largest parameter is
_ADAM_BLOCK = 1 << 16


class AdamState:
    """First/second moment buffers, the bias-correction step counter and two
    reused scratch blocks: zero moments for every tensor of ``params``, or the
    ``m``, ``v`` (given together) and ``step`` a resumed run saved. Parameters
    and moments share one dtype, else ValueError."""

    def __init__(self, params: dict, *, m: dict | None = None, v: dict | None = None,
                 step: int = 0):
        dtype = next(iter(params.values())).dtype
        if m is None:
            # np.zeros takes zeroed pages from the allocator; zeros_like
            # would write every zero
            m = {name: np.zeros(p.shape, dtype) for name, p in params.items()}
            v = {name: np.zeros(p.shape, dtype) for name, p in params.items()}
        dtypes = {str(a.dtype) for a in (*params.values(), *m.values(), *v.values())}
        if len(dtypes) > 1:
            raise ValueError(f"Adam parameters and moments need one dtype, got {sorted(dtypes)}")
        self.m, self.v, self.step = m, v, step
        size = min(max(p.data.size for p in params.values()), _ADAM_BLOCK)
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype))


def _flat_view(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a 1-D view, so that writing to it updates ``arr``."""
    if not arr.flags.c_contiguous:
        raise ValueError("Adam updates C-contiguous parameters and moments in place")
    return arr.reshape(-1)


def adam_step(params: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update with bias correction, applied in place.

    ``params`` maps names to Tensors, each updated from its own ``grad``; a
    tensor whose ``grad`` is None is skipped, moments and all. Raises
    :class:`NonFiniteError` on a NaN/Inf gradient. Returns the mutated
    ``(params, state)`` pair.

    Every element goes through the same operation sequence as
    ``m += (1 - beta1) * (g - m)``, ``v += (1 - beta2) * (g * g - v)`` and
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, but block by block
    (``_ADAM_BLOCK`` elements) into the state's two scratch blocks, so the
    result is bitwise that formula's without its parameter-sized
    temporaries.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        flat = (np.ravel(g), _flat_view(state.m[name]), _flat_view(state.v[name]),
                _flat_view(p.data))
        for lo in range(0, g.size, _ADAM_BLOCK):
            gb, m, v, pb = (x[lo:lo + _ADAM_BLOCK] for x in flat)
            a, b = (w[:gb.size] for w in state._scratch)
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
