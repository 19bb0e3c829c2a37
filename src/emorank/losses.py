"""Training objective: weighted mixup cross-entropy plus a pairwise rank loss.

Each term is one fused tape op per mixture or pair. The mixup term is the
soft-target cross-entropy against lambda * e_emo + (1 - lambda) * e_neu
(``numerics.soft_cross_entropy``, mixup: Zhang et al., arXiv:1710.09412);
the rank term is RankNet's cost ``softplus(d) - lambda_diff * d`` of the
score gap d (``numerics.bce_with_logits``, Burges et al., ICML 2005), whose
gradient stays near +-1 for a wrongly ordered pair however large the gap.

All functions accept Tensors (gradients flow) or plain floats/arrays (they
are wrapped as constants). One pair gives scalar Tensors; the pair losses
also take a batch of pairs and then return one value per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


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


def mixup_ce(logits_i: Tensor, logits_j: Tensor, lambda_i, lambda_j,
             y_emo, y_neu) -> Tensor:
    """Sum of the two weighted cross-entropy terms, one per mixture.

    Each mixture is charged one soft-target cross-entropy against lambda at
    its emotional class and 1 - lambda at the neutral class, which is
    lambda * CE(emotional class) + (1 - lambda) * CE(neutral class). With
    (B, n) logits, per-pair weights and per-pair emotional classes, the
    result is one loss per pair (B,).
    """
    lambda_i, lambda_j = np.asarray(lambda_i, dtype=float), np.asarray(lambda_j, dtype=float)
    y_emo = np.broadcast_to(y_emo, lambda_i.shape)
    y_neu = np.broadcast_to(y_neu, lambda_i.shape)
    if np.any(y_emo == y_neu):
        raise ValueError("emotional and neutral class indices must differ")
    for lam in (lambda_i, lambda_j):
        if np.any(lam < 0.0) or np.any(lam > 1.0):
            raise ValueError(f"mixing weight must be in [0, 1], got {lam}")
    logits_i = nm.as_tensor(logits_i)
    classes = np.arange(logits_i.shape[-1] if logits_i.data.ndim else 0)
    for y in (y_emo, y_neu):
        if np.any(y < 0) or np.any(y >= classes.size):
            raise ValueError(f"class index {y} out of range for {classes.size} classes")

    def target(lam):
        # lambda at the emotional class, 1 - lambda at the neutral one
        return np.where(classes == y_emo[..., None], lam[..., None],
                        np.where(classes == y_neu[..., None], 1.0 - lam[..., None], 0.0))

    return nm.add(nm.soft_cross_entropy(logits_i, target(lambda_i)),
                  nm.soft_cross_entropy(logits_j, target(lambda_j)))


def pair_probability(r_i: Tensor, r_j: Tensor) -> Tensor:
    """Sigmoid of the score difference: the probability that i outranks j
    (elementwise over a batch of pairs)."""
    return nm.sigmoid(nm.sub(nm.as_tensor(r_i), nm.as_tensor(r_j)))


def rank_loss(r_i: Tensor, r_j: Tensor, lambda_diff) -> Tensor:
    """Binary cross-entropy between the rank probability sigmoid(r_i - r_j)
    and its soft target, elementwise over a batch of pairs: RankNet's cost
    ``softplus(d) - lambda_diff * d`` of the score gap d."""
    lambda_diff = np.asarray(lambda_diff, dtype=float)
    if np.any(lambda_diff < 0.0) or np.any(lambda_diff > 1.0):
        raise ValueError(f"lambda_diff must be in [0, 1], got {lambda_diff}")
    return nm.bce_with_logits(nm.sub(r_i, r_j), lambda_diff)


def total_loss(l_mixup: Tensor, l_rank: Tensor, w: LossWeights) -> Tensor:
    """alpha * L_mixup + beta * L_rank."""
    return nm.add(nm.scale(nm.as_tensor(l_mixup), w.alpha),
                  nm.scale(nm.as_tensor(l_rank), w.beta))
