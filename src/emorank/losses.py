"""Training objective: weighted mixup cross-entropy plus a pairwise rank loss.

All functions accept Tensors (gradients flow) or plain floats/arrays (they
are wrapped as constants). One pair gives scalar Tensors; the pair losses
also take a batch of pairs and then return one value per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

PROB_CLAMP = 1e-7  # keeps log() finite without disturbing useful gradients


@dataclass
class LossWeights:
    """Weights of the two loss terms in the training objective."""

    alpha: float = 0.1
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"loss weights must be non-negative, got {self}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("at least one loss weight must be positive")


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Negative log-softmax of the target class: a scalar for 1-D logits and
    one target, or one value per row for (B, n) logits and B targets."""
    logits = nm.as_tensor(logits)
    target = np.asarray(target)
    if logits.data.ndim not in (1, 2) or target.shape != logits.shape[:-1]:
        raise ValueError(f"need 1-D logits with one target or (B, n) logits with B "
                         f"targets, got shapes {logits.shape} and {target.shape}")
    if np.any(target < 0) or np.any(target >= logits.shape[-1]):
        raise ValueError(f"class index {target} out of range for {logits.shape[-1]} classes")
    if logits.data.ndim == 1:
        target = int(target)
    return nm.neg(nm.pick(nm.log_softmax(logits), target))


def mixup_ce(logits_i: Tensor, logits_j: Tensor, lambda_i, lambda_j,
             y_emo, y_neu) -> Tensor:
    """Sum of the two weighted cross-entropy terms, one per mixture.

    Each mixture is charged lambda * CE(emotional class) plus
    (1 - lambda) * CE(neutral class). With (B, n) logits, per-pair weights
    and per-pair emotional classes, the result is one loss per pair (B,).
    """
    lambda_i, lambda_j = np.asarray(lambda_i, dtype=float), np.asarray(lambda_j, dtype=float)
    y_emo = np.broadcast_to(y_emo, lambda_i.shape)
    y_neu = np.broadcast_to(y_neu, lambda_i.shape)
    if np.any(y_emo == y_neu):
        raise ValueError("emotional and neutral class indices must differ")
    for lam in (lambda_i, lambda_j):
        if np.any(lam < 0.0) or np.any(lam > 1.0):
            raise ValueError(f"mixing weight must be in [0, 1], got {lam}")
    l_i = nm.add(nm.scale(cross_entropy(logits_i, y_emo), lambda_i),
                 nm.scale(cross_entropy(logits_i, y_neu), 1.0 - lambda_i))
    l_j = nm.add(nm.scale(cross_entropy(logits_j, y_emo), lambda_j),
                 nm.scale(cross_entropy(logits_j, y_neu), 1.0 - lambda_j))
    return nm.add(l_i, l_j)


def pair_probability(r_i: Tensor, r_j: Tensor) -> Tensor:
    """Sigmoid of the score difference: the probability that i outranks j
    (elementwise over a batch of pairs)."""
    return nm.sigmoid(nm.sub(nm.as_tensor(r_i), nm.as_tensor(r_j)))


def rank_loss(p_ij: Tensor, lambda_diff) -> Tensor:
    """Binary cross-entropy between the rank probability and its soft target,
    elementwise over a batch of pairs."""
    lambda_diff = np.asarray(lambda_diff, dtype=float)
    if np.any(lambda_diff < 0.0) or np.any(lambda_diff > 1.0):
        raise ValueError(f"lambda_diff must be in [0, 1], got {lambda_diff}")
    p = nm.clip(nm.as_tensor(p_ij), PROB_CLAMP, 1.0 - PROB_CLAMP)
    log_p = nm.log(p)
    log_1mp = nm.log(nm.add_const(nm.neg(p), 1.0))
    return nm.neg(nm.add(nm.scale(log_p, lambda_diff),
                         nm.scale(log_1mp, 1.0 - lambda_diff)))


def total_loss(l_mixup: Tensor, l_rank: Tensor, w: LossWeights) -> Tensor:
    """alpha * L_mixup + beta * L_rank."""
    return nm.add(nm.scale(nm.as_tensor(l_mixup), w.alpha),
                  nm.scale(nm.as_tensor(l_rank), w.beta))
