"""Autodiff engine: hand-computed forwards, finite-difference gradients."""

import ast
import inspect
import pathlib

import numpy as np
import oracle_ops as ops
import pytest

from emorank import numerics as nm
from emorank.numerics import AdamState, NonFiniteError, Tensor, adam_step


def fd_check(build, tensors, tol=1e-4, h=1e-6):
    """Backward grads vs central differences for every tensor in ``tensors``.

    ``build`` maps the tensors to a scalar Tensor. Relative error is measured
    per tensor in the L2 norm.
    """
    loss = build()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = nm.finite_difference_grad(lambda: build().item(), t, h=h)
        denom = max(np.linalg.norm(fd), 1e-10)
        rel = np.linalg.norm(analytic - fd) / denom
        assert rel < tol, f"gradient mismatch: rel error {rel:.2e}"


def weighted_sum(out: Tensor, seed: int) -> Tensor:
    """Scalar readout with fixed random weights, so no gradient symmetry
    hides a transposition bug. Weights are rebuilt from the seed on every
    call, keeping the loss a fixed function under repeated evaluation."""
    w = Tensor(np.random.default_rng(seed).normal(size=out.shape))
    return ops.sum_all(ops.mul(out, w))


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    out = nm.matmul(Tensor(np.eye(3)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_example():
    out = nm.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        nm.matmul(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))


def test_batch_ops_reject_a_single_vector():
    # one vector is a batch of one row: (1, C), never (C,)
    v = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        nm.matmul(v, Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        ops.layer_norm(v, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        nm.pick(v, 1)


def test_softmax_uniform():
    out = ops.softmax(Tensor([3.0, 3.0, 3.0, 3.0]))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    out = ops.softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)


def test_softmax_axis_out_of_range():
    with pytest.raises(ValueError):
        ops.softmax(Tensor(np.ones((2, 2))), axis=2)


def test_sigmoid_zero():
    assert nm.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5, abs=1e-15)


def test_sigmoid_extreme_inputs_stay_finite():
    out = nm.sigmoid(Tensor([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-30)


def test_mean_over_time_constant():
    c = np.array([1.5, -2.0, 0.25])
    out = nm.mean_over_time(Tensor(np.tile(c, (7, 1))), [7])
    np.testing.assert_allclose(out.data[0], c, atol=1e-12)


def test_layer_norm_forward():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 8)) * 3 + 1
    out = ops.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_conv1d_preserves_length_and_matches_direct():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, 3))
    kernel = rng.normal(size=(5, 3, 4))
    out = nm.conv1d(Tensor(x), Tensor(kernel), None, [9]).data
    assert out.shape == (9, 4)
    pad_lo = 2
    padded = np.zeros((13, 3))
    padded[pad_lo:pad_lo + 9] = x
    direct = np.zeros((9, 4))
    for t in range(9):
        for tap in range(5):
            direct[t] += padded[t + tap] @ kernel[tap]
    np.testing.assert_allclose(out, direct, atol=1e-12)


def test_conv1d_kernel_one_is_pointwise_linear():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    kernel = rng.normal(size=(1, 4, 2))
    out = nm.conv1d(Tensor(x), Tensor(kernel), None, [6]).data
    np.testing.assert_allclose(out, x @ kernel[0], atol=1e-12)


def test_take_rows_forward_and_range():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    np.testing.assert_array_equal(nm.take_rows(table, 2).data, [6.0, 7.0, 8.0])
    np.testing.assert_array_equal(nm.take_rows(table, [3, 0]).data, [[9, 10, 11], [0, 1, 2]])
    with pytest.raises(ValueError):
        nm.take_rows(table, 4)
    with pytest.raises(ValueError):
        nm.take_rows(table, [0, -1])


def test_dropout_eval_identity_and_scaling():
    x = Tensor(np.ones((50, 20)))
    keep = nm.dropout_masks([x.shape], 0.5, np.random.default_rng(0))[0]
    assert ops.dropout(x, 0.0, keep=keep) is x
    out = ops.dropout(x, 0.5, keep=keep).data
    assert set(np.unique(out)) == {0.0, 2.0}


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones((30, 10)))
    a, b = (ops.dropout(x, 0.3, keep=nm.dropout_masks([x.shape], 0.3,
                                                       np.random.default_rng(7))[0]).data
            for _ in range(2))
    np.testing.assert_array_equal(a, b)


def _float_mask(keep, p, dtype):
    """The float keep mask dropout applied before masks were bool: 1/(1-p)
    where kept, else 0."""
    return keep.astype(dtype) / (1.0 - p)


@pytest.mark.parametrize("extra", [-1, 0, 1, "3x+5"])
def test_dropout_masks_equal_one_uniform_draw_across_blocks(extra):
    block = nm._MASK_BLOCK
    total = 3 * block + 5 if extra == "3x+5" else block + extra
    shapes = [(5, 4), (1,), (total - 30, 1), (3, 3)]
    masks = nm.dropout_masks(shapes, 0.3, np.random.default_rng(17))
    rng = np.random.default_rng(17)
    flat = rng.random(total) >= 0.3
    assert [m.shape for m in masks] == shapes
    assert all(m.dtype == np.bool_ for m in masks)
    np.testing.assert_array_equal(np.concatenate([m.reshape(-1) for m in masks]), flat)
    # the generator ends where one rng.random(total) call leaves it
    rng_after = np.random.default_rng(17)
    nm.dropout_masks(shapes, 0.3, rng_after)
    assert rng_after.random() == rng.random()


# at p = 0.09, 1/(1-p) rounded once to float32 differs from the float32
# quotient the float mask held
@pytest.mark.parametrize("p", [0.09, 0.1, 0.3, 0.7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bool_mask_dropout_equals_the_float_mask_product_bitwise(dtype, p):
    rng = np.random.default_rng(23)
    x_data = rng.normal(size=(40, 24)).astype(dtype)
    seed = rng.normal(size=(40, 24)).astype(dtype)
    keep = nm.dropout_masks([x_data.shape], p, rng)[0]
    x = Tensor(x_data.copy(), requires_grad=True)
    out = ops.dropout(x, p, keep=keep)
    out.backward(seed)
    mask = _float_mask(keep, p, dtype)
    assert out.data.dtype == x.grad.dtype == mask.dtype == dtype
    # bytes, not values: the sign of every zero must agree too
    assert out.data.tobytes() == (x_data * mask).tobytes()
    assert x.grad.tobytes() == (seed * mask).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_dropout_epilogue_equals_the_oracle_dropout_bitwise(dtype):
    rng = np.random.default_rng(24)
    # 300 rows: more than one weight-gradient chunk
    arrays = [rng.normal(size=shape).astype(dtype) for shape in ((300, 6), (6, 5), (5,))]
    seed = rng.normal(size=(300, 5)).astype(dtype)
    keep = nm.dropout_masks([(300, 5)], 0.3, rng)[0]
    results = []
    for fused in (True, False):
        a, b, bias = (Tensor(x.copy(), requires_grad=True) for x in arrays)
        if fused:
            out = nm.matmul(a, b, bias, p=0.3, keep=keep)
        else:
            out = ops.dropout(nm.matmul(a, b, bias), 0.3, keep=keep)
        out.backward(seed)
        results.append([out.data, a.grad, b.grad, bias.grad])
    for new, ref in zip(*results):
        assert new.dtype == dtype and new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0
    out = results[0][0]
    assert (np.signbit(out) & (out == 0)).any()  # dropped negative products
    # no mask, as in eval mode, drops nothing; a mask must be a bool array of
    # the product's shape
    a, b = (Tensor(x) for x in arrays[:2])
    assert nm.matmul(a, b, p=0.3).data.tobytes() == nm.matmul(a, b).data.tobytes()
    for wrong in (keep[:, :4], keep.astype(dtype)):
        with pytest.raises(ValueError):
            nm.matmul(a, b, p=0.3, keep=wrong)


# ---------------------------------------------------------------------------
# gradients vs finite differences


@pytest.mark.parametrize("seed", range(5))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    fd_check(lambda: weighted_sum(nm.matmul(a, b), 99),
             [a, b], tol=1e-5)


@pytest.mark.parametrize("a_shape", [(4, 6), (1, 6)])
def test_matmul_bias_grad(a_shape):
    rng = np.random.default_rng(len(a_shape))
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    np.testing.assert_array_equal(nm.matmul(a, b, bias).data, a.data @ b.data + bias.data)
    fd_check(lambda: weighted_sum(nm.matmul(a, b, bias), 98), [a, b, bias], tol=1e-5)
    with pytest.raises(ValueError):
        nm.matmul(a, b, Tensor(np.zeros(6)))


def test_matmul_dropout_epilogue_grads():
    rng = np.random.default_rng(25)
    a = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    keep = nm.dropout_masks([(7, 3)], 0.4, rng)[0]
    assert keep.any() and not keep.all()
    fd_check(lambda: weighted_sum(nm.matmul(a, b, bias, p=0.4, keep=keep), 97),
             [a, b, bias], tol=1e-6)


def test_gradients_nobody_receives_are_not_formed(monkeypatch):
    rng = np.random.default_rng(31)
    const2d, const_row = Tensor(rng.normal(size=(7, 4))), Tensor(rng.normal(size=(1, 4)))
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 4, 3)), requires_grad=True)
    const_kernel = Tensor(kernel.data.copy())
    x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    cases = [
        (lambda: nm.matmul(const2d, w, bias), [const2d], [w, bias]),
        (lambda: nm.matmul(const_row, w, bias), [const_row], [w, bias]),
        (lambda: nm.matmul(x, Tensor(w.data.copy())), [], [x]),
        (lambda: nm.conv1d(const2d, kernel, bias, [3, 4]), [const2d], [kernel, bias]),
        (lambda: nm.conv1d(x, const_kernel, None, [3, 4]), [const_kernel], [x]),
    ]
    accumulate = nm._accumulate
    for build, constants, trainable in cases:
        out = build()
        reference = {id(t): nm.finite_difference_grad(lambda: weighted_sum(build(), 3).item(), t)
                     for t in trainable}
        for t in trainable:
            t.zero_grad()
        sent = []
        monkeypatch.setattr(nm, "_accumulate", lambda t, g: (sent.append(t), accumulate(t, g)))
        weighted_sum(out, 3).backward()
        monkeypatch.setattr(nm, "_accumulate", accumulate)
        assert not any(t is c for t in sent for c in constants)
        assert all(c.grad is None for c in constants)
        for t in trainable:
            np.testing.assert_allclose(t.grad, reference[id(t)], rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_and_reduction_grads(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 8, size=2))
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    b = Tensor(rng.normal(size=shape), requires_grad=True)
    w = seed + 100

    fd_check(lambda: weighted_sum(nm.add(a, b), w), [a, b])
    fd_check(lambda: weighted_sum(ops.mul(a, b), w), [a, b])
    fd_check(lambda: weighted_sum(nm.sub(a, b), w), [a, b])
    fd_check(lambda: weighted_sum(nm.scale(a, -1.7), w), [a])
    fd_check(lambda: weighted_sum(nm.tanh(a), w), [a])
    fd_check(lambda: weighted_sum(nm.sigmoid(a), w), [a])
    fd_check(lambda: nm.mean_all(ops.mul(a, b)), [a, b])
    # two gradients into one leaf: the second adds into the first one stored
    fd_check(lambda: nm.add(nm.mean_all(a), nm.mean_all(a)), [a])


def test_add_row_broadcast_grad():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    fd_check(lambda: weighted_sum(ops.add(a, b), 12), [a, b])
    with pytest.raises(ValueError):  # the library adds equal shapes only
        nm.add(a, b)


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(6, 5))
    vals = np.where(np.abs(vals) < 0.2, 0.5, vals)  # keep FD off the kink
    a = Tensor(vals, requires_grad=True)
    fd_check(lambda: weighted_sum(ops.relu(a), 14), [a])


def test_log_grad():
    rng = np.random.default_rng(15)
    a = Tensor(rng.uniform(0.5, 3.0, size=(4, 4)), requires_grad=True)
    fd_check(lambda: weighted_sum(ops.log(a), 16), [a])


def test_clip_grad_interior():
    rng = np.random.default_rng(17)
    a = Tensor(rng.uniform(-0.8, 0.8, size=(5,)), requires_grad=True)
    fd_check(lambda: weighted_sum(ops.clip(a, -1.0, 1.0), 18), [a])


def test_clip_blocks_gradient_outside():
    a = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
    ops.sum_all(ops.clip(a, -1.0, 1.0)).backward()
    np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("seed", range(5))
def test_softmax_and_log_softmax_grads(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    w = seed + 50
    fd_check(lambda: weighted_sum(ops.softmax(a, axis=-1), w), [a])
    fd_check(lambda: weighted_sum(ops.log_softmax(a, axis=-1), w), [a])


@pytest.mark.parametrize("seed", range(5))
def test_loss_op_grads(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(3, 5)) * 2, requires_grad=True)
    row = Tensor(rng.normal(size=5) * 2, requires_grad=True)
    # any non-negative target: its rows need not sum to one
    target = rng.uniform(size=(3, 5))
    d = Tensor(rng.normal(size=6) * 4, requires_grad=True)
    d_target = rng.uniform(size=6)
    w = seed + 70
    fd_check(lambda: weighted_sum(nm.soft_cross_entropy(logits, target), w), [logits])
    fd_check(lambda: nm.soft_cross_entropy(row, target[0] / target[0].sum()), [row])
    fd_check(lambda: weighted_sum(nm.bce_with_logits(d, d_target), w), [d])


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(4, 6)) * 2 + 1, requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    fd_check(lambda: weighted_sum(ops.layer_norm(a, gain, bias),
                                  seed + 60),
             [a, gain, bias], tol=5e-4)


@pytest.mark.parametrize("seed", range(3))
def test_fused_residual_and_norm_grads(seed):
    # LayerNorm(residual + dropout(affine(x))), the epilogues of one op
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    residual = Tensor(rng.normal(size=(7, 4)) * 2 + 1, requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    shift = Tensor(rng.normal(size=4), requires_grad=True)
    p = 0.25
    keep = nm.dropout_masks([(7, 4)], p, rng)[0]
    epilogue = dict(p=p, keep=keep, residual=residual, norm=(gain, shift))
    fd_check(lambda: weighted_sum(nm.matmul(x, w, bias, **epilogue), seed + 80),
             [x, w, bias, residual, gain, shift], tol=5e-4)
    fd_check(lambda: weighted_sum(nm.conv1d(x, kernel, bias, [3, 4], **epilogue), seed + 90),
             [x, kernel, bias, residual, gain, shift], tol=5e-4)


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_grads(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    fd_check(lambda: weighted_sum(nm.conv1d(x, kernel, bias, [7]),
                                  seed + 70),
             [x, kernel, bias])


@pytest.mark.parametrize("seed", range(3))
def test_segmented_conv1d_grads(seed):
    # equal neighbours share a run; a 2-frame segment is shorter than the kernel
    rng = np.random.default_rng(seed)
    lengths = [4, 4, 2, 5]
    x = Tensor(rng.normal(size=(15, 3)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    fd_check(lambda: weighted_sum(nm.conv1d(x, kernel, bias, lengths), seed + 80),
             [x, kernel, bias])


def test_segmented_conv1d_equals_separate_convolutions():
    rng = np.random.default_rng(4)
    lengths = [7, 3, 3, 1]
    x = rng.normal(size=(14, 3))
    kernel = Tensor(rng.normal(size=(4, 3, 2)))  # even K pads one more row after
    packed = nm.conv1d(Tensor(x), kernel, None, lengths).data
    lo = 0
    for n in lengths:
        alone = nm.conv1d(Tensor(x[lo:lo + n]), kernel, None, [n]).data
        np.testing.assert_allclose(packed[lo:lo + n], alone, rtol=0, atol=1e-12)
        lo += n
    with pytest.raises(ValueError):
        nm.conv1d(Tensor(x), kernel, None, [7, 3])


@pytest.mark.parametrize("seed", range(3))
def test_attention_grads(seed):
    rng = np.random.default_rng(seed)
    lengths = [3, 3, 5, 1]
    q, k, v = (Tensor(rng.normal(size=(12, 4)), requires_grad=True) for _ in range(3))
    fd_check(lambda: weighted_sum(nm.attention(q, k, v, 2, lengths), seed + 90), [q, k, v])


def test_attention_matches_per_head_softmax():
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
    out = nm.attention(Tensor(q), Tensor(k), Tensor(v), 3, [5]).data
    for h in range(3):
        cols = slice(2 * h, 2 * h + 2)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(2)
        p = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out[:, cols], p @ v[:, cols], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        nm.attention(Tensor(q), Tensor(k), Tensor(v), 4, [5])


def test_segment_mean_grads_and_values():
    rng = np.random.default_rng(23)
    a = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    lengths = [2, 2, 4, 1]
    out = nm.mean_over_time(a, lengths).data
    np.testing.assert_allclose(out[2], a.data[4:8].mean(axis=0), atol=1e-12)
    fd_check(lambda: weighted_sum(nm.mean_over_time(a, lengths), 24), [a])


def test_row_pick_and_array_scale_grads():
    rng = np.random.default_rng(25)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    np.testing.assert_array_equal(nm.pick(a, [2, 0, 1, 2]).data,
                                  a.data[[0, 1, 2, 3], [2, 0, 1, 2]])
    fd_check(lambda: weighted_sum(nm.pick(a, [2, 0, 1, 2]), 26), [a])
    fd_check(lambda: weighted_sum(nm.pick(a, 1), 27), [a])
    s = rng.normal(size=(4, 3))
    fd_check(lambda: weighted_sum(nm.scale(a, s), 28), [a])
    with pytest.raises(ValueError):
        nm.pick(a, [0, 3, 0, 0])
    with pytest.raises(ValueError):
        nm.scale(a, np.ones(3))


def test_dropout_masks_draw_like_consecutive_dropouts():
    masks = nm.dropout_masks([(3, 4), (3, 5)], 0.3, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for m in masks:
        np.testing.assert_array_equal(nm.dropout_masks([m.shape], 0.3, rng)[0], m)
    x = Tensor(np.ones((3, 4), dtype=np.float32))
    np.testing.assert_array_equal(ops.dropout(x, 0.3, keep=masks[0]).data,
                                  _float_mask(masks[0], 0.3, np.float32))
    with pytest.raises(ValueError):
        ops.dropout(x, 0.3, keep=masks[1])
    with pytest.raises(ValueError):
        ops.dropout(x, 0.3, keep=_float_mask(masks[0], 0.3, np.float32))


def test_slice_concat_transpose_pick_grads():
    rng = np.random.default_rng(19)
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = 20
    fd_check(lambda: weighted_sum(ops.slice_cols(a, 1, 4), w), [a])
    fd_check(lambda: weighted_sum(ops.transpose(a), w), [a])
    fd_check(lambda: weighted_sum(
        ops.concat_cols([ops.slice_cols(a, 0, 2), ops.slice_cols(a, 2, 6)]), w), [a])
    v = Tensor(rng.normal(size=5), requires_grad=True)
    fd_check(lambda: nm.scale(nm.take_rows(v, 3), 2.5), [v])


def test_take_rows_grad_scatters():
    table = Tensor(np.zeros((4, 3)), requires_grad=True)
    out = nm.take_rows(table, 1)
    ops.sum_all(out).backward()
    expected = np.zeros((4, 3))
    expected[1] = 1.0
    np.testing.assert_array_equal(table.grad, expected)
    # repeated rows sum their gradients
    table.zero_grad()
    ops.sum_all(nm.take_rows(table, [2, 0, 2])).backward()
    np.testing.assert_array_equal(table.grad[:, 0], [1.0, 0.0, 2.0, 0.0])


def test_mean_over_time_grad():
    rng = np.random.default_rng(21)
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    fd_check(lambda: weighted_sum(nm.mean_over_time(a, [5]), 22), [a])


def test_dropout_grad_matches_mask():
    x = Tensor(np.ones((20, 10)), requires_grad=True)
    out = ops.dropout(x, 0.4, keep=nm.dropout_masks([x.shape], 0.4, np.random.default_rng(5))[0])
    ops.sum_all(out).backward()
    # gradient is exactly the applied keep/rescale mask
    np.testing.assert_array_equal(x.grad, out.data)


# ---------------------------------------------------------------------------
# graph mechanics


def test_shared_subexpression_backward_visits_once():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    s = nm.add(x, x)  # used twice below
    out = ops.sum_all(ops.mul(s, s))  # sum((2x)^2) -> d/dx = 8x
    out.backward()
    np.testing.assert_allclose(x.grad, 8.0 * x.data, atol=1e-12)


def test_unused_tensor_gets_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    ops.sum_all(nm.scale(x, 2.0)).backward()
    assert unused.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_constant_subgraph_carries_no_parents():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    out = nm.add(a, b)
    assert out._parents == ()
    assert not out.requires_grad


def test_backward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        loss = nm.mean_all(nm.tanh(nm.matmul(a, b)))
        loss.backward()
        return loss.item(), a.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_validate_finite_raises():
    t = Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        t.validate_finite()


# ---------------------------------------------------------------------------
# op surface


def _numerics_calls(path: pathlib.Path) -> set[str]:
    """Names of the ``emorank.numerics`` functions a module calls, through
    ``from . import numerics as nm`` or ``from .numerics import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name == "numerics":
                    module_aliases.add(alias.asname or alias.name)
                elif node.module == "numerics":
                    imported[alias.asname or alias.name] = alias.name
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases):
            called.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in imported:
            called.add(imported[func.id])
    return called


def _calls_within(path: pathlib.Path) -> dict[str, set[str]]:
    """For each top-level function of a module, the plain names it calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: {call.func.id for call in ast.walk(node)
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_public_numerics_function_is_called_by_the_package():
    # found the way the benchmark's tracer finds tape ops: by inspection
    public = {name for name, fn in vars(nm).items()
              if inspect.isfunction(fn) and fn.__module__ == nm.__name__
              and not name.startswith("_")}
    package = pathlib.Path(nm.__file__).parent
    called = set().union(*(_numerics_calls(path) for path in package.glob("*.py")
                           if path.name != "numerics.py"))
    # an op the package calls may itself be built from public ops (sub from
    # neg and add); what it calls counts as called too
    within = _calls_within(package / "numerics.py")
    frontier = set(called)
    while frontier:
        frontier = set().union(*(within.get(name, set()) for name in frontier)) - called
        called |= frontier
    assert {"matmul", "conv1d", "attention", "adam_step"} <= public
    assert sorted(public - called) == []


# ---------------------------------------------------------------------------
# Adam


def _single_param(value: float):
    p = Tensor(np.array([value]), requires_grad=True)
    return {"w": p}, p


def test_adam_zero_gradient_leaves_params_unchanged():
    params, p = _single_param(1.0)
    state = AdamState(params)
    p.grad = np.zeros(1)
    adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0])


def test_adam_first_step_moves_by_lr_against_gradient_sign():
    # f(w) = w^2 at w=1: grad 2; first bias-corrected step is -lr * sign(g)
    params, p = _single_param(1.0)
    state = AdamState(params)
    p.grad = np.array([2.0])
    adam_step(params, state, lr=0.1)
    assert p.data[0] == pytest.approx(0.9, abs=1e-9)


def test_adam_converges_on_quadratic():
    params, p = _single_param(0.0)
    state = AdamState(params)
    for _ in range(200):
        p.grad = 2.0 * (p.data - 3.0)
        adam_step(params, state, lr=0.1)
    assert abs(p.data[0] - 3.0) < 1e-2


def test_adam_rejects_non_finite_gradient():
    params, p = _single_param(1.0)
    state = AdamState(params)
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteError):
        adam_step(params, state, lr=0.1)


def test_adam_skips_none_gradients():
    params, p = _single_param(2.0)
    state = AdamState(params)
    adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [2.0])
    np.testing.assert_array_equal(state.m["w"], [0.0])


def _adam_reference(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating Adam formula the in-place update must reproduce bitwise."""
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, p in params.items():
        g, m, v = p.grad, state.m[name], state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _assert_adam_is_bitwise_the_formula(shapes, dtype, steps):
    def initial():
        rng_init = np.random.default_rng(12)
        params = {n: Tensor(rng_init.normal(size=s).astype(dtype), requires_grad=True)
                  for n, s in shapes.items()}
        return params, AdamState(params)

    rng = np.random.default_rng(11)
    p_new, s_new = initial()
    p_ref, s_ref = initial()
    for _ in range(steps):
        for n, s in shapes.items():
            g = (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
            p_new[n].grad, p_ref[n].grad = g, g.copy()
        adam_step(p_new, s_new, lr=3e-3)
        _adam_reference(p_ref, s_ref, lr=3e-3)
    for n in shapes:
        assert p_new[n].data.dtype == dtype
        np.testing.assert_array_equal(p_new[n].data, p_ref[n].data)
        np.testing.assert_array_equal(s_new.m[n], s_ref.m[n])
        np.testing.assert_array_equal(s_new.v[n], s_ref.v[n])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_update_is_bitwise_the_formula(dtype):
    _assert_adam_is_bitwise_the_formula({"w": (5, 7), "b": (7,), "k": (3, 2, 4)}, dtype, 29)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_blocks_are_bitwise_the_whole_array_formula(dtype):
    n = nm._ADAM_BLOCK
    shapes = {"below": (n - 1,), "at": (n,), "above": (n + 1,), "many": (3, n // 2 + 3),
              "one": (1,)}
    _assert_adam_is_bitwise_the_formula(shapes, dtype, 5)

    # the scratch pair is allocated once, in the state: one block, not the
    # largest parameter, or the largest parameter when that is smaller
    def scratch_sizes(sizes):
        params = {str(i): Tensor(np.zeros(size, dtype), requires_grad=True)
                  for i, size in enumerate(sizes)}
        state = AdamState(params)
        scratch = state._scratch
        for t in params.values():
            t.grad = np.ones(t.shape, dtype)
        adam_step(params, state, lr=1e-3)
        assert state._scratch is scratch
        assert all(b.dtype == dtype for b in scratch)
        return [b.size for b in scratch]

    assert scratch_sizes([n + 1, 1]) == [n, n]
    assert scratch_sizes([5, 17, 3]) == [17, 17]
    # one dtype per state: mixed parameters, or moments of another dtype, raise
    other = np.float64 if dtype == np.float32 else np.float32
    with pytest.raises(ValueError, match="one dtype"):
        AdamState({"a": Tensor(np.zeros(3, dtype)), "b": Tensor(np.zeros(3, other))})
    with pytest.raises(ValueError, match="one dtype"):
        AdamState({"a": Tensor(np.zeros(3, dtype))}, m={"a": np.zeros(3, other)},
                  v={"a": np.zeros(3, dtype)})


def test_finite_difference_restores_values():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    before = t.data.copy()
    nm.finite_difference_grad(lambda: float((t.data ** 2).sum()), t)
    np.testing.assert_array_equal(t.data, before)
