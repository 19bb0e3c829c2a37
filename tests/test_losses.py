"""Loss oracles: hand-computed values, symmetry laws, and gradient checks."""

import numpy as np
import oracle_ops as ops
import pytest

from emorank import numerics as nm
from emorank.losses import LossWeights, mixup_ce, pair_probability, rank_loss, total_loss
from emorank.numerics import Tensor, finite_difference_grad


def t(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# cross entropy


def onehot(n, k):
    return np.eye(n)[k]


def test_cross_entropy_uniform_two_class():
    # equal logits over 2 classes -> -log(1/2)
    loss = nm.soft_cross_entropy(t([0.0, 0.0]), onehot(2, 0))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_hand_value():
    # softmax([ln 3, 0]) = (3/4, 1/4)
    logits = t([np.log(3.0), 0.0])
    assert nm.soft_cross_entropy(logits, onehot(2, 0)).item() \
        == pytest.approx(-np.log(0.75), abs=1e-12)
    assert nm.soft_cross_entropy(logits, onehot(2, 1)).item() \
        == pytest.approx(-np.log(0.25), abs=1e-12)


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.normal(size=4)
        shift = rng.normal() * 10.0
        a = nm.soft_cross_entropy(t(logits), onehot(4, 2)).item()
        b = nm.soft_cross_entropy(t(logits + shift), onehot(4, 2)).item()
        assert abs(a - b) < 1e-9


def test_cross_entropy_confident_prediction_near_zero():
    logits = t([30.0, 0.0, 0.0])
    assert nm.soft_cross_entropy(logits, onehot(3, 0)).item() < 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = t([0.3, -0.7, 1.1])
    loss = nm.soft_cross_entropy(logits, onehot(3, 1))
    loss.backward()
    p = np.exp(logits.data) / np.exp(logits.data).sum()
    expected = p - np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_cross_entropy_validation():
    # the target is a distribution of the logits' own shape
    with pytest.raises(ValueError):
        nm.soft_cross_entropy(t([[0.0, 1.0]]), onehot(2, 0))
    with pytest.raises(ValueError):
        nm.soft_cross_entropy(t([0.0, 1.0]), onehot(3, 2))
    with pytest.raises(ValueError):
        nm.soft_cross_entropy(t(np.zeros((1, 1, 2))), np.zeros((1, 1, 2)))


@pytest.mark.parametrize("batch", [None, 5])
def test_soft_cross_entropy_matches_the_log_softmax_chain(batch):
    # one fused op per mixture against lambda * CE(emo) + (1 - lambda) * CE(neu)
    # built from log_softmax, pick and scale, in float64, value and gradient
    rng = np.random.default_rng(4)
    shape = (4,) if batch is None else (batch, 4)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=shape)
        lam = rng.uniform(size=shape[:-1])
        y_emo = rng.integers(1, 4, size=shape[:-1])
        target = lam[..., None] * np.eye(4)[y_emo] + (1.0 - lam)[..., None] * np.eye(4)[0]
        seed = rng.normal(size=shape[:-1])
        fused_in, chain_in = t(z), t(z)
        fused = nm.soft_cross_entropy(fused_in, target)
        chain = nm.add(nm.scale(ops.cross_entropy(chain_in, y_emo), lam),
                       nm.scale(ops.cross_entropy(chain_in, np.zeros_like(y_emo)), 1.0 - lam))
        np.testing.assert_allclose(fused.data, chain.data, rtol=0, atol=1e-10)
        fused.backward(seed)
        chain.backward(seed)
        np.testing.assert_allclose(fused_in.grad, chain_in.grad, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# rank loss


def test_rank_loss_maximal_uncertainty_is_log2():
    # p = 0.5 against target 0.5 -> -0.5 log 0.5 - 0.5 log 0.5 = log 2
    loss = rank_loss(t(0.5), t(0.5), 0.5)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-9)


def test_equal_scores_give_half_probability():
    for r in (-3.0, 0.0, 7.5):
        assert pair_probability(t(r), t(r)).item() == 0.5


def test_pair_probability_antisymmetry():
    # p(a, b) + p(b, a) = 1: both orderings share one probability mass
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        r_i, r_j = rng.normal(scale=3.0, size=2)
        s = pair_probability(t(r_i), t(r_j)).item() \
            + pair_probability(t(r_j), t(r_i)).item()
        worst = max(worst, abs(s - 1.0))
    assert worst <= 1e-12


def test_rank_loss_swap_consistency():
    # swapping the pair and flipping the target preserves the loss
    rng = np.random.default_rng(1)
    for _ in range(1000):
        r_i, r_j = rng.normal(scale=3.0, size=2)
        d = rng.uniform()
        a = rank_loss(t(r_i), t(r_j), d).item()
        b = rank_loss(t(r_j), t(r_i), 1.0 - d).item()
        assert abs(a - b) <= 1e-9


def test_rank_loss_hand_value():
    # p = sigmoid(1), d = 0.75
    p = 1.0 / (1.0 + np.exp(-1.0))
    expected = -(0.75 * np.log(p) + 0.25 * np.log(1.0 - p))
    loss = rank_loss(t(2.0), t(1.0), 0.75)
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_rank_loss_minimized_at_matching_probability():
    # BCE against soft target d is minimized when p == d, at the score gap
    # logit(p)
    def logit(p):
        return np.log(p / (1.0 - p))

    d = 0.7
    best = rank_loss(t(logit(d)), t(0.0), d).item()
    for p in (0.3, 0.5, 0.69, 0.71, 0.9):
        assert rank_loss(t(logit(p)), t(0.0), d).item() >= best


def test_rank_loss_finite_at_extreme_scores():
    for gap in (50.0, 500.0):
        for d in (0.0, 1.0):
            loss = rank_loss(t(gap), t(0.0), d)
            assert np.isfinite(loss.item())


@pytest.mark.parametrize("gap", [20.0, 50.0])
def test_wrongly_ordered_pair_keeps_its_gradient_at_large_gaps(gap):
    # target "i outranks j", but j scores higher by `gap`: the loss grows
    # like the gap and its gradient stays near -1 / +1 instead of vanishing
    r_i, r_j = t(0.0), t(gap)
    loss = rank_loss(r_i, r_j, 1.0)
    loss.backward()
    assert abs(loss.item() - gap) < 1e-8
    assert abs(r_i.grad[()] + 1.0) < 1e-8
    assert abs(r_j.grad[()] - 1.0) < 1e-8


def test_rank_loss_gradient_direction():
    # target "i fully outranks j": pushing r_i up must reduce the loss
    r_i, r_j = t(0.2), t(0.4)
    loss = rank_loss(r_i, r_j, 1.0)
    loss.backward()
    assert r_i.grad[()] < 0
    assert r_j.grad[()] > 0
    # and the two gradients mirror each other
    assert r_i.grad[()] == pytest.approx(-r_j.grad[()], abs=1e-15)


def test_rank_loss_gradient_matches_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        vals = rng.normal(size=2)
        d = rng.uniform()
        r_i, r_j = t(vals[0]), t(vals[1])

        def build(ri=r_i, rj=r_j, dd=d):
            return rank_loss(ri, rj, dd)

        build().backward()
        for x in (r_i, r_j):
            fd = finite_difference_grad(lambda: build().item(), x)
            np.testing.assert_allclose(x.grad, fd, rtol=1e-5, atol=1e-8)
        r_i.zero_grad(), r_j.zero_grad()


def test_rank_loss_target_validation():
    with pytest.raises(ValueError):
        rank_loss(t(0.5), t(0.5), -0.1)
    with pytest.raises(ValueError):
        rank_loss(t(0.5), t(0.5), 1.1)


def test_bce_with_logits_matches_the_clamped_sigmoid_chain():
    # for |d| <= 15 the chain's clamp at 1e-7 never engages, so the two agree
    # in float64, value and gradient; the value's tolerance is relative too,
    # because the chain's own 1 - p is off by up to eps / (1 - p), about
    # 4e-10 of a loss near 15 at |d| = 15
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.uniform(-15.0, 15.0, size=8)
        target = rng.uniform(size=8)
        seed = rng.normal(size=8)
        fused_in, chain_in = t(d), t(d)
        fused = nm.bce_with_logits(fused_in, target)
        chain = ops.sigmoid_bce(chain_in, target)
        np.testing.assert_allclose(fused.data, chain.data, rtol=1e-10, atol=1e-10)
        fused.backward(seed)
        chain.backward(seed)
        np.testing.assert_allclose(fused_in.grad, chain_in.grad, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# mixup cross entropy


def ce(logits, k):
    """Plain cross-entropy of class k, as a float."""
    return nm.soft_cross_entropy(t(logits), onehot(len(logits), k)).item()


def test_mixup_ce_pure_mixtures_reduce_to_plain_ce():
    logits_i, logits_j = t([0.4, -0.2, 0.9]), t([-1.0, 0.3, 0.0])
    # lambda = 1 charges only the emotional class, lambda = 0 only neutral
    loss = mixup_ce(logits_i, logits_j, 1.0, 0.0, y_emo=2, y_neu=0)
    expected = ce([0.4, -0.2, 0.9], 2) + ce([-1.0, 0.3, 0.0], 0)
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_mixup_ce_hand_value():
    logits = [0.0, 0.0]
    # both mixtures uniform logits: every CE term is log 2 and the lambda
    # weights sum to 1 per mixture, so the total is exactly 2 log 2
    loss = mixup_ce(t(logits), t(logits), 0.3, 0.8, y_emo=1, y_neu=0)
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_mixup_ce_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        s1, s2 = rng.normal(size=2) * 5.0
        lam_i, lam_j = rng.uniform(size=2)
        base = mixup_ce(t(a), t(b), lam_i, lam_j, 1, 0).item()
        shifted = mixup_ce(t(a + s1), t(b + s2), lam_i, lam_j, 1, 0).item()
        assert abs(base - shifted) < 1e-9


def test_mixup_ce_weights_interpolate():
    logits_i, logits_j = t([1.0, -0.5, 0.2]), t([0.1, 0.7, -0.3])
    lam = 0.35
    loss = mixup_ce(logits_i, logits_j, lam, lam, 2, 0)
    expected = (lam * ce(logits_i.data, 2) + (1 - lam) * ce(logits_i.data, 0)
                + lam * ce(logits_j.data, 2) + (1 - lam) * ce(logits_j.data, 0))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_mixup_ce_validation():
    logits = t([0.0, 0.0])
    with pytest.raises(ValueError):
        mixup_ce(logits, logits, 0.5, 0.5, 1, 1)
    with pytest.raises(ValueError):
        mixup_ce(logits, logits, 1.5, 0.5, 1, 0)
    with pytest.raises(ValueError):
        mixup_ce(logits, logits, 0.5, -0.1, 1, 0)
    with pytest.raises(ValueError):  # class indices must name a logit
        mixup_ce(logits, logits, 0.5, 0.5, 2, 0)
    with pytest.raises(ValueError):
        mixup_ce(logits, logits, 0.5, 0.5, 1, -1)


# ---------------------------------------------------------------------------
# combination


def test_total_loss_weighting():
    lw = LossWeights(alpha=0.1, beta=1.0)
    total = total_loss(t(3.0), t(5.0), lw)
    assert total.item() == pytest.approx(0.1 * 3.0 + 1.0 * 5.0, abs=1e-12)
    custom = total_loss(t(2.0), t(4.0), LossWeights(alpha=0.5, beta=0.25))
    assert custom.item() == pytest.approx(2.0, abs=1e-12)


def test_total_loss_gradients_carry_weights():
    a, b = t(1.0), t(1.0)
    total_loss(a, b, LossWeights(alpha=0.1, beta=1.0)).backward()
    assert a.grad[()] == pytest.approx(0.1, abs=1e-15)
    assert b.grad[()] == pytest.approx(1.0, abs=1e-15)


def test_loss_weights_defaults_and_validation():
    lw = LossWeights()
    assert (lw.alpha, lw.beta) == (0.1, 1.0)
    with pytest.raises(ValueError):
        LossWeights(alpha=-0.1)
    with pytest.raises(ValueError):
        LossWeights(alpha=0.0, beta=0.0)
