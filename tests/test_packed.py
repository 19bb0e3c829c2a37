"""Packed training batches: the one-pass objective against the per-pair path.

The reference below is the per-mixture forward and per-pair objective the
packed path replaced, kept here only as an oracle: per-head attention built
from slice/transpose/softmax/concat ops, one forward per mixture, dropout
masks drawn while the forward runs, affine layers as a product plus a
separate bias add, and the batch mean as a chain of adds. More oracles
cover the memory of a training step: a ``conv1d`` that keeps its im2col
columns for the backward pass and runs its ReLU and dropout epilogue as
separate ``relu`` and ``dropout`` ops, a ``matmul`` that forms both
operands' gradients whether or not a leaf receives them and runs its
dropout as a separate op, a gradient store that always copies, and a
backward sweep that leaves the graph intact.
The unfused ops the library no longer has come from ``oracle_ops``.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import oracle_ops as ops
import pytest

from emorank import numerics as nm
from emorank import training
from emorank.codebook import score_corpus
from emorank.extractor import (ExtractorConfig, classify, draw_dropout_masks,
                               forward_intensity, init_params, pool,
                               positional_encoding, project_score)
from emorank.losses import mixup_ce, rank_loss, total_loss
from emorank.mixup import normalized_lambda_diff
from emorank.numerics import ComputeGraph, Tensor
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import (TrainConfig, _batch_losses, compute_feature_stats,
                              iteration_rng, make_mix_pair, sample_pair)


# ---------------------------------------------------------------------------
# the per-pair reference


def _ref_dropout(x, cfg, train, rng):
    if not (train and cfg.dropout > 0.0):
        return x
    return ops.dropout(x, cfg.dropout, keep=nm.dropout_masks([x.shape], cfg.dropout, rng)[0])


def _ref_attention(params, prefix, x, train, rng):
    cfg = params.config
    q = ops.add(nm.matmul(x, params[prefix + "attn.wq"]), params[prefix + "attn.bq"])
    k = ops.add(nm.matmul(x, params[prefix + "attn.wk"]), params[prefix + "attn.bk"])
    v = ops.add(nm.matmul(x, params[prefix + "attn.wv"]), params[prefix + "attn.bv"])
    d_head = cfg.hidden_dim // cfg.n_heads
    heads = []
    for h in range(cfg.n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        scores = nm.scale(nm.matmul(ops.slice_cols(q, lo, hi),
                                    ops.transpose(ops.slice_cols(k, lo, hi))),
                          1.0 / np.sqrt(d_head))
        heads.append(nm.matmul(ops.softmax(scores, axis=-1), ops.slice_cols(v, lo, hi)))
    out = ops.add(nm.matmul(ops.concat_cols(heads), params[prefix + "attn.wo"]),
                  params[prefix + "attn.bo"])
    return _ref_dropout(out, cfg, train, rng)


def _ref_forward(params, x, emotion_class, train, rng):
    cfg = params.config
    data = (np.asarray(x) - params.feat_mean) / params.feat_std
    h = Tensor(np.asarray(data, dtype=params.dtype))
    h = ops.add(nm.matmul(h, params["in_proj.w"]), params["in_proj.b"])
    h = nm.add(h, Tensor(positional_encoding(data.shape[0], cfg.hidden_dim, params.dtype)))
    lengths = [data.shape[0]]
    for i in range(cfg.n_fft_blocks):
        p = f"block{i}."
        h = ops.layer_norm(nm.add(h, _ref_attention(params, p, h, train, rng)),
                           params[p + "norm1.gain"], params[p + "norm1.bias"])
        c = ops.relu(nm.conv1d(h, params[p + "conv1.w"], params[p + "conv1.b"], lengths))
        c = _ref_dropout(c, cfg, train, rng)
        c = _ref_dropout(nm.conv1d(c, params[p + "conv2.w"], params[p + "conv2.b"], lengths),
                         cfg, train, rng)
        h = ops.layer_norm(nm.add(h, c), params[p + "norm2.gain"], params[p + "norm2.bias"])
    return ops.add(h, nm.take_rows(params["emb.table"], params.class_index(emotion_class)))


def _ref_batch_losses(params, corpus, cfg, rng):
    mix_terms, rank_terms = [], []
    for _ in range(cfg.batch_pairs):
        x_emo, x_neu = sample_pair(corpus, cfg.pair_policy, rng)
        pair = make_mix_pair(x_emo, x_neu, rng)
        y = params.class_index(pair.emotion_label)
        # each mixture alone: a batch of one segment, pooled into one row
        x_i, x_j = pair.x_mix_i, pair.x_mix_j
        h_i = nm.mean_over_time(_ref_forward(params, x_i, y, True, rng), [len(x_i)])
        h_j = nm.mean_over_time(_ref_forward(params, x_j, y, True, rng), [len(x_j)])
        mix_terms.append(mixup_ce(classify(params, h_i), classify(params, h_j),
                                  [pair.lambda_i], [pair.lambda_j], y, 0))
        rank_terms.append(rank_loss(
            project_score(params, h_i), project_score(params, h_j),
            normalized_lambda_diff(pair.lambda_i, pair.lambda_j)))
    l_mix, l_rank = mix_terms[0], rank_terms[0]
    for m, r in zip(mix_terms[1:], rank_terms[1:]):
        l_mix, l_rank = nm.add(l_mix, m), nm.add(l_rank, r)
    inv = 1.0 / cfg.batch_pairs
    return nm.scale(l_mix, inv), nm.scale(l_rank, inv)


def _ref_epilogue(out, *, p, keep, residual, norm):
    """The epilogues after an affine op's ReLU as separate ``dropout``,
    ``add`` and ``layer_norm`` ops."""
    out = out if keep is None else ops.dropout(out, p, keep=keep)
    out = out if residual is None else nm.add(residual, out)
    return out if norm is None else ops.layer_norm(out, *norm)


def _ref_conv1d(x, kernel, bias, lengths, *, relu=False, p=0.0, keep=None, residual=None,
                norm=None):
    """Segmented "same" conv1d that keeps its (T, K*C_in) columns alive until
    the backward pass runs, with its epilogues as separate ``relu``,
    ``dropout``, ``add`` and ``layer_norm`` ops."""
    t_len, c_in = x.shape
    k, _, c_out = kernel.shape
    pad_lo = (k - 1) // 2
    if k == 1:
        cols = x.data
    else:
        padded = np.zeros((t_len + k - 1, c_in), dtype=x.data.dtype)
        padded[pad_lo:pad_lo + t_len] = x.data
        cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)
        cols = cols.transpose(0, 2, 1).copy()
        cross = nm._cross_taps(lengths, t_len, k)
        cols[cross] = 0.0
        cols = cols.reshape(t_len, k * c_in)
    w2d = kernel.data.reshape(k * c_in, c_out)
    out_data = cols @ w2d
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        nm._accumulate(kernel, nm._weight_grad(cols, g).reshape(k, c_in, c_out))
        if bias is not None:
            nm._accumulate(bias, g.sum(axis=0))
        gcols = g @ w2d.T
        if k == 1:
            nm._accumulate(x, gcols)
            return
        gcols = gcols.reshape(t_len, k, c_in)
        gcols[cross] = 0.0
        gpad = np.zeros((t_len + k - 1, c_in), dtype=gcols.dtype)
        for tap in range(k):
            gpad[tap:tap + t_len] += gcols[:, tap, :]
        nm._accumulate(x, gpad[pad_lo:pad_lo + t_len])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = nm._make(out_data, parents, "conv1d", backward)
    if relu:
        out = ops.relu(out)
    return _ref_epilogue(out, p=p, keep=keep, residual=residual, norm=norm)


def _ref_matmul(a, b, bias=None, *, p=0.0, keep=None, residual=None, norm=None):
    """Matrix product that forms both operands' gradients even when no leaf
    receives them, with its bias added by a separate ``add`` op and its
    other epilogues by separate ``dropout``, ``add`` and ``layer_norm``
    ops."""
    def backward(g):
        if a.data.ndim == 1:
            nm._accumulate(a, b.data @ g)
            nm._accumulate(b, np.outer(a.data, g))
        else:
            nm._accumulate(a, g @ b.data.T)
            nm._accumulate(b, nm._weight_grad(a.data, g))

    out = nm._make(a.data @ b.data, (a, b), "matmul", backward)
    out = out if bias is None else ops.add(out, bias)
    return _ref_epilogue(out, p=p, keep=keep, residual=residual, norm=norm)


def _intact_backward(root):
    """The backward sweep that leaves every node's grad, closure and inputs
    in place."""
    nm._accumulate(root, np.ones_like(root.data))
    for node in reversed(ComputeGraph.trace(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# fixtures


def ragged_setup(dtype=np.float64, dropout=0.1):
    spec = SynthSpec(n_speakers=2, n_emotions=2, utterances_per_cell=9,
                     frame_length_range=(5, 17))
    corpus = generate(spec, np.random.default_rng(31)).corpus
    cfg = ExtractorConfig(input_dim=corpus.n_channels, hidden_dim=8, n_fft_blocks=2,
                          n_heads=2, conv_kernel=5, conv_filter_dim=12, dropout=dropout,
                          n_emotion_classes=len(corpus.class_labels), projector_hidden=6)
    params = init_params(cfg, corpus.class_labels, np.random.default_rng(32), dtype=dtype)
    mean, std = compute_feature_stats(corpus)
    params.feat_mean = np.asarray(mean, dtype=dtype)
    params.feat_std = np.asarray(std, dtype=dtype)
    return corpus, params


def grads_of(params, loss, backward=Tensor.backward):
    params.zero_grads()
    backward(loss)
    return {name: t.grad.copy() for name, t in params.tensors.items()}


def assert_grads_bitwise_equal(grads, ref):
    assert grads.keys() == ref.keys()
    for name, g in grads.items():
        assert g.dtype == ref[name].dtype, name
        np.testing.assert_array_equal(g, ref[name], err_msg=name)


# ---------------------------------------------------------------------------
# oracle: the packed objective is the per-pair objective


@pytest.mark.parametrize("iteration", [0, 7])
def test_packed_objective_matches_per_pair_reference_in_train_mode(iteration):
    corpus, params = ragged_setup()
    cfg = TrainConfig(batch_pairs=5, seed=3)
    weights = cfg.loss_weights

    ref_mix, ref_rank = _ref_batch_losses(params, corpus, cfg, iteration_rng(3, iteration))
    ref_grads = grads_of(params, total_loss(ref_mix, ref_rank, weights))
    diag = []
    l_mix, l_rank = _batch_losses(params, corpus, cfg, iteration_rng(3, iteration), diag)
    grads = grads_of(params, total_loss(l_mix, l_rank, weights))

    assert len({d[2] for d in diag}) == 5  # five distinct pairs were drawn
    assert abs(l_mix.item() - ref_mix.item()) <= 1e-10
    assert abs(l_rank.item() - ref_rank.item()) <= 1e-10
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-10, err_msg=name)
    assert any(np.any(g != 0) for g in grads.values())


def test_packed_forward_equals_separate_forwards():
    corpus, params = ragged_setup(dropout=0.0)
    xs = [corpus.utterances[i].frames for i in (0, 3, 4, 9)]
    classes = [1, 2, 2, 0]
    packed = forward_intensity(params, xs, classes)
    assert packed.shape == (sum(len(x) for x in xs), params.config.hidden_dim)
    lo = 0
    for x, c in zip(xs, classes):
        alone = forward_intensity(params, x, c).data
        np.testing.assert_allclose(packed.data[lo:lo + len(x)], alone, rtol=0, atol=1e-12)
        lo += len(x)
    pooled = pool(packed, [len(x) for x in xs])
    assert pooled.shape == (4, params.config.hidden_dim)
    np.testing.assert_allclose(project_score(params, pooled).data[1],
                               project_score(params, pool(forward_intensity(
                                   params, xs[1], 2))).item(), rtol=0, atol=1e-12)


def test_presampled_masks_equal_masks_drawn_by_the_forward():
    corpus, params = ragged_setup()
    cfg = params.config
    xs = [corpus.utterances[i].frames for i in (1, 2)]
    rng = np.random.default_rng(5)
    masks = [draw_dropout_masks(cfg, len(x), rng) for x in xs]
    # the values a forward drawing mask by mask, segment by segment, would use
    rng = np.random.default_rng(5)
    for segment in masks:
        for m in segment:
            np.testing.assert_array_equal(nm.dropout_masks([m.shape], cfg.dropout, rng)[0], m)
    given = forward_intensity(params, xs, [1, 1], dropout_masks=masks).data
    lo = 0
    for x, segment in zip(xs, masks):
        alone = forward_intensity(params, x, 1, dropout_masks=[segment]).data
        np.testing.assert_allclose(given[lo:lo + len(x)], alone, rtol=0, atol=1e-12)
        lo += len(x)
    with pytest.raises(ValueError):
        forward_intensity(params, xs, [1, 1], dropout_masks=masks[:1])


def test_forward_rejects_mismatched_segment_classes():
    corpus, params = ragged_setup()
    with pytest.raises(ValueError):
        forward_intensity(params, [corpus.utterances[0].frames] * 2, [1])


# ---------------------------------------------------------------------------
# segment isolation inside the ops


def test_perturbing_one_segment_leaves_the_others_bitwise_unchanged():
    rng = np.random.default_rng(8)
    lengths = [6, 6, 2, 9]
    x = rng.normal(size=(sum(lengths), 4))
    kernel = Tensor(rng.normal(size=(5, 4, 3)))
    x2 = x.copy()
    x2[12:14] += 100.0  # the third segment only
    keep = np.r_[0:12, 14:23]
    for op in (lambda a: nm.conv1d(Tensor(a), kernel, None, lengths),
               lambda a: nm.attention(Tensor(a), Tensor(a[:, ::-1].copy()),
                                      Tensor(2 * a), 2, lengths)):
        before, after = op(x).data, op(x2).data
        np.testing.assert_array_equal(before[keep], after[keep])
        assert not np.array_equal(before[12:14], after[12:14])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [9, 1])
def test_conv1d_equals_the_kept_columns_conv1d_bitwise(k, dtype):
    rng = np.random.default_rng(40 + k)
    lengths = [7, 7, 1, 300, 3, 9]  # 300 frames: more than one weight-gradient chunk
    t_len, c_in, c_out = sum(lengths), 5, 6
    arrays = [rng.normal(size=shape).astype(dtype)
              for shape in ((t_len, c_in), (k, c_in, c_out), (c_out,))]
    seed = rng.normal(size=(t_len, c_out)).astype(dtype)
    results = []
    for op in (nm.conv1d, _ref_conv1d):
        x, kernel, bias = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = op(x, kernel, bias, lengths)
        out.backward(seed)
        results.append([out.data, kernel.grad, bias.grad, x.grad])
    for new, ref in zip(*results):
        assert new.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(new, ref)


def test_conv1d_output_keeps_no_im2col_columns():
    rng = np.random.default_rng(12)
    lengths = [300, 250, 450]
    t_len, c_in, k, c_out = sum(lengths), 16, 9, 4
    x = Tensor(rng.normal(size=(t_len, c_in)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(k, c_in, c_out)), requires_grad=True)
    cols_nbytes = t_len * k * c_in * x.data.itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = nm.conv1d(x, kernel, None, lengths)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak >= cols_nbytes  # the forward did build the columns
    assert kept - out.data.nbytes < cols_nbytes // 10, (kept, out.data.nbytes)


def test_conv1d_backward_builds_its_columns_one_chunk_at_a_time(monkeypatch):
    rng = np.random.default_rng(13)
    lengths = [300, 250, 450]
    t_len, c_in, k, c_out = sum(lengths), 6, 9, 4
    x = Tensor(rng.normal(size=(t_len, c_in)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(k, c_in, c_out)), requires_grad=True)
    out = nm.conv1d(x, kernel, None, lengths)
    built, im2col = [], nm._im2col

    def recording_im2col(*args):
        cols = im2col(*args)
        built.append(cols.shape[0])
        return cols

    monkeypatch.setattr(nm, "_im2col", recording_im2col)
    out.backward(rng.normal(size=(t_len, c_out)))
    assert sum(built) == t_len and max(built) <= nm._GRAD_CHUNK_ROWS, built


def _closure_high_water(out, seed):
    """Run the backward from ``out`` and return the most traced bytes that
    ``out``'s own closure held beyond those it started with, its incoming
    gradient among them."""
    closure, marks = out._backward, []

    def measured(g):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        closure(g)
        marks.append(tracemalloc.get_traced_memory()[1] - start)

    out._backward = measured
    tracemalloc.start()
    try:
        out.backward(seed)
    finally:
        tracemalloc.stop()
    return marks[0]


def test_conv1d_backward_holds_its_column_and_kernel_gradients_apart():
    # a paper-width first conv: 256 -> 1,024 channels, 9 taps, ReLU and dropout
    rng = np.random.default_rng(14)
    lengths = [400, 350, 250]
    t_len, c_in, k, c_out, p = sum(lengths), 256, 9, 1024, 0.1
    keep = nm.dropout_masks([(t_len, c_out)], p, rng)[0]
    x_data = rng.normal(size=(t_len, c_in)).astype(np.float32)
    w_data = rng.normal(0.0, 0.02, size=(k, c_in, c_out)).astype(np.float32)
    seed = rng.normal(size=(t_len, c_out)).astype(np.float32)
    gcols_nbytes = t_len * k * c_in * 4

    x, kernel, bias = (Tensor(a, requires_grad=True)
                       for a in (x_data, w_data, np.zeros(c_out, np.float32)))
    out = nm.conv1d(x, kernel, bias, lengths, relu=True, p=p, keep=keep)
    high = _closure_high_water(out, seed)
    assert gcols_nbytes <= high < gcols_nbytes + w_data.nbytes, (high, gcols_nbytes)

    # with only the bias to feed, the masks apply to the incoming gradient in
    # place: no second (T, C_out) gradient is formed beside it
    bias = Tensor(np.zeros(c_out, np.float32), requires_grad=True)
    out = nm.conv1d(Tensor(x_data), Tensor(w_data), bias, lengths, relu=True, p=p, keep=keep)
    high = _closure_high_water(out, seed)
    assert high < seed.nbytes, (high, seed.nbytes)


_WEIGHT_GRAD_SCRIPT = """
import hashlib, sys, numpy as np
from emorank import numerics as nm
t_len, n_in, n_out = map(int, sys.argv[1:4])
rng = np.random.default_rng(t_len)
a = rng.normal(size=(t_len, n_in)).astype(np.float32)
g = rng.normal(size=(t_len, n_out)).astype(np.float32)
n = nm._GRAD_CHUNK_ROWS
plain = a[:n].T @ g[:n]
for lo in range(n, t_len, n):
    plain += a[lo:lo + n].T @ g[lo:lo + n]
for rows in (a, lambda lo, hi: a[lo:hi]):
    assert nm._weight_grad(rows, g).tobytes() == plain.tobytes()
print(hashlib.sha256(plain.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("shape", [("1516", "2304", "1024"),  # paper-width conv1: 2 blocks
                                   ("600", "288", "64")])  # gate-width conv1: 1 block
def test_weight_grad_blocks_are_bitwise_the_plain_chunk_sum(shape):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _WEIGHT_GRAD_SCRIPT, *shape], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, shape


# ---------------------------------------------------------------------------
# the backward sweep releases the tape and forms only the gradients it needs


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_epilogue_equals_the_unfused_relu_and_dropout_chain_bitwise(dtype, train):
    rng = np.random.default_rng(21)
    lengths = [7, 300, 1, 12, 5]  # 300 frames: more than one weight-gradient chunk
    t_len, hidden, filt, p = sum(lengths), 6, 10, 0.3
    arrays = [rng.normal(size=shape).astype(dtype) for shape in
              ((t_len, hidden), (5, hidden, filt), (filt,), (1, filt, hidden), (hidden,))]
    keep1, keep2 = (nm.dropout_masks([(t_len, filt), (t_len, hidden)], p, rng)
                    if train else (None, None))
    seed = rng.normal(size=(t_len, hidden)).astype(dtype)
    results = []
    for fused in (True, False):
        x, w1, b1, w2, b2 = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        if fused:
            c = nm.conv1d(x, w1, b1, lengths, relu=True, p=p, keep=keep1)
            out = nm.conv1d(c, w2, b2, lengths, p=p, keep=keep2)
        else:
            c = ops.relu(nm.conv1d(x, w1, b1, lengths))
            c = c if keep1 is None else ops.dropout(c, p, keep=keep1)
            out = nm.conv1d(c, w2, b2, lengths)
            out = out if keep2 is None else ops.dropout(out, p, keep=keep2)
        out.backward(seed)
        results.append([c.data, out.data] + [t.grad for t in (x, w1, b1, w2, b2)])
    for new, ref in zip(*results):
        assert new.dtype == dtype and new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0
    relu_out = results[0][0]
    assert (relu_out == 0).any() and (relu_out > 0).any()


def test_conv1d_epilogue_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    lengths, p = [4, 7], 0.25
    x = Tensor(rng.normal(size=(11, 3)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    keep = nm.dropout_masks([(11, 4)], p, rng)[0]
    weights = rng.normal(size=(11, 4))
    raw = nm.conv1d(x, kernel, bias, lengths).data
    # away from the ReLU's kink: no finite-difference step crosses it
    assert np.abs(raw).min() > 1e-3
    assert (raw < 0).any() and (raw > 0).any() and keep.any() and not keep.all()

    def build():
        return nm.conv1d(x, kernel, bias, lengths, relu=True, p=p, keep=keep)

    build().backward(weights)
    for t in (x, kernel, bias):
        ref = nm.finite_difference_grad(lambda: (build().data * weights).sum(), t)
        np.testing.assert_allclose(t.grad, ref, rtol=1e-6, atol=1e-8)


_EPILOGUES = {  # (residual, norm) after the affine op's ReLU and dropout
    "residual_and_norm": ("tensor", True),
    "input_as_residual_and_norm": ("input", True),
    "constant_residual_and_norm": ("constant", True),
    "residual": ("tensor", False),
    "norm": (None, True),
}


@pytest.mark.parametrize("epilogue", list(_EPILOGUES))
@pytest.mark.parametrize("op", ["matmul", "conv1d", "conv1d_relu"])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_and_norm_epilogues_equal_the_unfused_chain_bitwise(dtype, train, op,
                                                                      epilogue):
    rng = np.random.default_rng(23)
    lengths = [7, 300, 1, 12, 5]  # 300 frames: more than one weight-gradient chunk
    t_len, width, p = sum(lengths), 6, 0.3
    k = 1 if op == "matmul" else 5
    shapes = ((t_len, width), (k, width, width), (width,), (t_len, width), (width,), (width,))
    arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    arrays[4] += 1.0  # gains about one
    keep = nm.dropout_masks([(t_len, width)], p, rng)[0] if train else None
    seed = rng.normal(size=(t_len, width)).astype(dtype)
    residual_kind, with_norm = _EPILOGUES[epilogue]
    relu = op == "conv1d_relu"
    results = []
    for fused in (True, False):
        x, w, b, r, gain, shift = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        norm = (gain, shift) if with_norm else None
        residual = {"tensor": r, "input": x, "constant": arrays[3], None: None}[residual_kind]
        if op == "matmul":
            w = Tensor(w.data[0], requires_grad=True)
        leaves = (x, w, b, r, gain, shift)

        def affine(**epilogue):
            if op == "matmul":
                return nm.matmul(x, w, b, **epilogue)
            return nm.conv1d(x, w, b, lengths, **epilogue)

        if fused:
            out = affine(p=p, keep=keep, residual=residual, norm=norm,
                         **({"relu": True} if relu else {}))
        else:
            out = affine()
            out = ops.relu(out) if relu else out
            out = out if keep is None else ops.dropout(out, p, keep=keep)
            out = out if residual is None else nm.add(nm.as_tensor(residual), out)
            out = out if norm is None else ops.layer_norm(out, gain, shift)
        out.backward(seed)
        results.append([out.data] + [t.grad for t in leaves])
    for new, ref in zip(*results):
        if ref is None:  # a leaf outside this epilogue
            assert new is None
            continue
        assert new.dtype == dtype and new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0


def test_a_constant_residual_is_neither_an_input_nor_held():
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    residual = rng.normal(size=(9, 5))
    for constant in (residual, Tensor(residual)):
        out = nm.matmul(x, w, residual=constant)
        assert out._parents == (x, w)
        assert not any(a is residual for a in _held_arrays(out))
        np.testing.assert_array_equal(out.data, x.data @ w.data + residual)
    with pytest.raises(ValueError):
        nm.matmul(x, w, residual=residual[:, :4])
    with pytest.raises(ValueError):
        nm.matmul(x, w, residual=residual.astype(np.float32))
    with pytest.raises(ValueError):
        nm.matmul(x, w, norm=(Tensor(np.ones(4)), Tensor(np.zeros(4))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_conv_gradient_without_a_kept_mask_equals_the_masked_one_bitwise(
        monkeypatch, dtype):
    rng = np.random.default_rng(25)
    lengths = [40, 9, 30]
    t_len, c_in, k, c_out, p = sum(lengths), 4, 5, 7, 0.4
    keep = nm.dropout_masks([(t_len, c_out)], p, rng)[0]
    x = Tensor(rng.normal(size=(t_len, c_in)).astype(dtype), requires_grad=True)
    kernel = Tensor(rng.normal(size=(k, c_in, c_out)).astype(dtype), requires_grad=True)
    seed = rng.normal(size=(t_len, c_out)).astype(dtype)
    out = nm.conv1d(x, kernel, None, lengths, relu=True, p=p, keep=keep)
    assert not any(a.dtype == np.bool_ for a in _captured(out._backward)
                   if isinstance(a, np.ndarray))
    # the gradient masked by keep, c and the ReLU mask, as the unfused chain
    # masks it: a negative entry on a dropped element becomes -0.0, which
    # only the bytes tell from 0.0
    masked = seed.copy()
    masked *= keep
    masked *= nm._keep_scale(p, keep, seed)
    masked *= out.data > 0
    assert np.signbit(masked[masked == 0]).any() and not keep.all()
    handed, input_grad = [], nm._conv_input_grad

    def recording_input_grad(g, *args):
        handed.append(g.copy())
        return input_grad(g, *args)

    monkeypatch.setattr(nm, "_conv_input_grad", recording_input_grad)
    out.backward(seed)
    assert handed[0].tobytes() == masked.tobytes()


def _captured(closure):
    values = []
    for cell in (closure.__closure__ or ()) if closure else ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # a name the closure's function never bound
            pass
    return values


def _held_arrays(root):
    """Every distinct array a graph holds: its nodes' values and whatever
    their backward closures captured, directly or in a list or tuple."""
    held = {}
    for node in ComputeGraph.trace(root):
        for obj in [node.data] + _captured(node._backward):
            for a in obj if isinstance(obj, (list, tuple)) else (obj,):
                if isinstance(a, np.ndarray):
                    held[id(a)] = a
    return list(held.values())


@pytest.mark.parametrize("fused", [True, False])
def test_training_graph_keeps_one_filter_wide_activation_per_block(monkeypatch, fused):
    corpus, params = ragged_setup(np.float32)
    cfg = params.config
    frames, forward = [], training.forward_intensity

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        frames.append(out.shape[0])
        return out

    monkeypatch.setattr(training, "forward_intensity", recording_forward)
    if not fused:  # the conv1d -> relu -> dropout chain
        monkeypatch.setattr(nm, "conv1d", _ref_conv1d)
    root = _packed_total_loss(params, corpus)
    wide = [a for a in _held_arrays(root)
            if a.shape == (frames[0], cfg.conv_filter_dim) and a.dtype.kind == "f"]
    assert len(wide) == (1 if fused else 3) * cfg.n_fft_blocks


def test_training_graph_holds_only_what_a_backward_reads(monkeypatch):
    corpus, params = ragged_setup(np.float32)
    cfg = params.config
    frames, forward = [], training.forward_intensity

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        frames.append(out.shape[0])
        return out

    monkeypatch.setattr(training, "forward_intensity", recording_forward)
    held = _held_arrays(_packed_total_loss(params, corpus))
    hidden = [a for a in held if a.shape == (frames[0], cfg.hidden_dim) and a.dtype.kind == "f"]
    # per block q, k, v, the attention output, and each norm's normalized
    # rows and output; then the first block's input and the result (29 with
    # separate residual adds and layer norms)
    assert len(hidden) == 8 * cfg.n_fft_blocks + 2
    # the ReLU conv reads its dropout back from its output
    assert not [a for a in held if a.shape == (frames[0], cfg.conv_filter_dim)
                and a.dtype == np.bool_]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradient_buffers_are_never_shared_and_equal_copied_stores(monkeypatch, dtype):
    corpus, params = ragged_setup(dtype)
    accumulate = nm._accumulate
    # the oracle store copies every gradient it is handed
    monkeypatch.setattr(nm, "_accumulate", lambda t, g: accumulate(t, np.array(g)))
    copied = grads_of(params, _packed_total_loss(params, corpus))

    root = _packed_total_loss(params, corpus)
    tensors, stores = ComputeGraph.trace(root), []

    def checking_accumulate(t, g):
        accumulate(t, g)
        if t.grad is not None:
            stores.append(t.grad is g)  # kept as handed, or added into
            assert not any(np.shares_memory(t.grad, u.grad) for u in tensors
                           if u is not t and u.grad is not None), t.op

    monkeypatch.setattr(nm, "_accumulate", checking_accumulate)
    grads = grads_of(params, root)
    assert any(stores) and not all(stores)
    held = [t.grad for t in params.tensors.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1:])
    assert_grads_bitwise_equal(grads, copied)


def _packed_total_loss(params, corpus, iteration=0):
    cfg = TrainConfig(batch_pairs=5, seed=3)
    l_mix, l_rank = _batch_losses(params, corpus, cfg, iteration_rng(3, iteration), [])
    return total_loss(l_mix, l_rank, cfg.loss_weights)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_releases_the_tape_and_keeps_the_leaf_grads(dtype):
    corpus, params = ragged_setup(dtype)
    ref = grads_of(params, _packed_total_loss(params, corpus), _intact_backward)

    root = _packed_total_loss(params, corpus)
    ops = [node for node in ComputeGraph.trace(root) if node._parents]
    # 37 ops (47 with each residual add and layer norm an op of its own),
    # every kind a training step records among them
    assert len(ops) == 37
    assert {node.op for node in ops} >= {"matmul", "attention", "conv1d",
                                         "mean_over_time", "soft_cross_entropy",
                                         "bce_with_logits"}
    grads = grads_of(params, root)
    for node in ops:
        assert node.grad is None and node._backward is None and node._parents == (), node.op
    assert_grads_bitwise_equal(grads, ref)

    # a swept root has nothing left to propagate: the leaf grads stay
    root.backward()
    assert_grads_bitwise_equal({name: t.grad for name, t in params.tensors.items()}, ref)
    # a second forward and backward give the same leaf grads
    assert_grads_bitwise_equal(grads_of(params, _packed_total_loss(params, corpus)), ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaf_grads_equal_the_always_forming_unfolded_ops_bitwise(monkeypatch, dtype):
    corpus, params = ragged_setup(dtype)
    grads = grads_of(params, _packed_total_loss(params, corpus))
    monkeypatch.setattr(nm, "matmul", _ref_matmul)
    monkeypatch.setattr(nm, "conv1d", _ref_conv1d)
    assert_grads_bitwise_equal(grads, grads_of(params, _packed_total_loss(params, corpus)))


def test_constant_matmul_inputs_get_no_gradient(monkeypatch):
    corpus, params = ragged_setup()
    constants, sent = [], []
    matmul, accumulate = nm.matmul, nm._accumulate

    def recording_matmul(a, b, bias=None, **epilogue):
        if not a.requires_grad:
            constants.append(a)
        return matmul(a, b, bias, **epilogue)

    def recording_accumulate(t, g):
        sent.append(t)
        accumulate(t, g)

    monkeypatch.setattr(nm, "matmul", recording_matmul)
    monkeypatch.setattr(nm, "_accumulate", recording_accumulate)
    grads = grads_of(params, _packed_total_loss(params, corpus))
    # the raw features entering in_proj and the one-hot class matrix
    assert [c.shape[1] for c in constants] == [params.config.input_dim,
                                               params.config.n_emotion_classes]
    assert not any(t is c for t in sent for c in constants)
    assert all(c.grad is None for c in constants)
    assert all(g is not None for g in grads.values())


def test_previous_step_gradients_are_released_before_the_forward(monkeypatch):
    corpus, params = ragged_setup(np.float32)
    released, forward = [], training.forward_intensity

    def checking_forward(params, *args, **kwargs):
        released.append(all(t.grad is None for t in params.tensors.values()))
        return forward(params, *args, **kwargs)

    monkeypatch.setattr(training, "forward_intensity", checking_forward)
    result = training.train_rank_model(corpus, params.config, TrainConfig(
        iterations=3, batch_pairs=2, seed=0))
    assert released == [True, True, True]
    assert all(t.grad is not None for t in result.params.tensors.values())


def test_backward_returns_memory_to_the_pre_forward_level():
    # the level counts everything a training process holds between steps:
    # corpus, parameters, leaf grads and caches
    tracemalloc.start()
    try:
        data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=30),
                        np.random.default_rng(100))
        ecfg = ExtractorConfig(input_dim=82, hidden_dim=32, n_fft_blocks=2, n_heads=2,
                               conv_kernel=9, conv_filter_dim=64, dropout=0.1,
                               n_emotion_classes=4, projector_hidden=32)
        params = init_params(ecfg, data.corpus.class_labels, np.random.default_rng(0))
        cfg = TrainConfig(batch_pairs=8, seed=0)

        def step():
            params.zero_grads()
            l_mix, l_rank = _batch_losses(params, data.corpus, cfg, iteration_rng(0, 0), [])
            l_total = total_loss(l_mix, l_rank, cfg.loss_weights)
            l_total.backward()
            return l_total

        step()  # leaf grads and the positional-encoding cache now exist
        before = tracemalloc.get_traced_memory()[0]
        root = step()  # held, as the training loop holds its losses
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert root.grad is None and root._parents == ()
    assert peak - before > 0.5 * before  # the step did build a graph
    assert abs(after - before) <= 0.01 * before, (before, after)


# ---------------------------------------------------------------------------
# the tape stays small


def test_a_tensor_joins_the_tape_exactly_when_it_needs_a_gradient(monkeypatch):
    data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=9),
                    np.random.default_rng(100))
    ecfg = ExtractorConfig(input_dim=82, hidden_dim=32, n_fft_blocks=2, n_heads=2,
                           conv_kernel=9, conv_filter_dim=64, dropout=0.1,
                           n_emotion_classes=4, projector_hidden=32)
    made, tapes = [], []
    init, backward = nm.Tensor.__init__, nm.Tensor.backward

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def checking_backward(self, seed=None):
        # before the sweep releases anything
        for t in made:
            assert bool(t._parents) == (t._backward is not None), t.op
            if t.op != "leaf":
                assert bool(t._parents) == t.requires_grad, t.op
        tapes.append(sum(bool(t._parents) for t in made))
        made.clear()
        backward(self, seed)

    monkeypatch.setattr(nm.Tensor, "__init__", recording_init)
    monkeypatch.setattr(nm.Tensor, "backward", checking_backward)
    result = training.train_rank_model(data.corpus, ecfg, TrainConfig(
        iterations=1, batch_pairs=8, seed=0))
    assert tapes == [37], tapes  # 47 with separate residual adds and layer norms
    made.clear()
    records = score_corpus(result.params, data.corpus)
    assert records and len(made) > 40
    assert not any(t._parents or t._backward is not None or t.requires_grad for t in made)


def test_one_packed_forward_and_a_small_tape_per_iteration(monkeypatch):
    data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=30),
                    np.random.default_rng(100))
    ecfg = ExtractorConfig(input_dim=82, hidden_dim=32, n_fft_blocks=2, n_heads=2,
                           conv_kernel=9, conv_filter_dim=64, dropout=0.1,
                           n_emotion_classes=4, projector_hidden=32)
    calls, tapes = [], []
    real_forward, real_total = training.forward_intensity, training.total_loss

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return real_forward(*args, **kwargs)

    def tape_size(l_mix, l_rank, weights):
        out = real_total(l_mix, l_rank, weights)
        tapes.append(len(ComputeGraph.trace(out)))
        return out

    monkeypatch.setattr(training, "forward_intensity", counting_forward)
    monkeypatch.setattr(training, "total_loss", tape_size)
    training.train_rank_model(data.corpus, ecfg, TrainConfig(
        iterations=2, learning_rate=1e-3, batch_pairs=8, seed=0))
    assert len(calls) == 2
    # 80 nodes, leaves included; separate residual adds and layer norms, and
    # the position table as a leaf, made 91, the attention output's separate
    # dropout 93, the conv1d -> relu -> dropout chain 124, and the unfused
    # log-softmax and clamped-sigmoid losses 118
    assert tapes == [80, 80], tapes


_THREADS_SCRIPT = """
import hashlib, sys, numpy as np
from emorank.extractor import ExtractorConfig
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import TrainConfig, train_rank_model
hidden, filt, proj, frames, iterations = map(int, sys.argv[1:6])
lr = float(sys.argv[6])
data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=30,
                          frame_length_range=(frames // 2, frames)),
                np.random.default_rng(100))
ecfg = ExtractorConfig(input_dim=82, hidden_dim=hidden, n_fft_blocks=2, n_heads=2,
                       conv_kernel=9, conv_filter_dim=filt, dropout=0.1,
                       n_emotion_classes=4, projector_hidden=proj)
r = train_rank_model(data.corpus, ecfg, TrainConfig(iterations=iterations, learning_rate=lr,
                                                    batch_pairs=8, seed=0))
h = hashlib.sha256(r.trace.tobytes())
for name in sorted(r.params.tensors):
    h.update(r.params.tensors[name].data.tobytes())
print(h.hexdigest())
"""


def test_training_is_bitwise_independent_of_blas_threads():
    # a packed batch has far more frames than one weight-gradient chunk
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    widths = [("32", "64", "32", "80", "3", "1e-3"),  # gate width, 40-80 frames
              ("256", "1024", "128", "160", "2", "1e-4")]  # paper width, 80-160 frames
    for width in widths:
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, *width], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, width


_ATTENTION_THREADS_SCRIPT = """
import hashlib, numpy as np
from emorank import numerics as nm
rng = np.random.default_rng(7)
lengths = [1100, 90]
q, k, v = (nm.Tensor(rng.normal(size=(sum(lengths), 256)).astype(np.float32),
                     requires_grad=True) for _ in range(3))
out = nm.attention(q, k, v, 2, lengths)
out.backward(rng.normal(size=out.shape).astype(np.float32))
h = hashlib.sha256(out.data.tobytes())
for t in (q, k, v):
    h.update(t.grad.tobytes())
print(h.hexdigest())
"""


def test_attention_gradients_over_long_segments_are_independent_of_blas_threads():
    # every product over a 1,100-frame segment's length is summed in chunks
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _ATTENTION_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
