"""Mixup pair construction for rank training.

A training pair takes one emotional and one neutral utterance, crops both to
a shared length, and forms two convex mixtures with independent weights. The
normalized weight difference becomes the soft ranking target: the mixture
holding more of the emotional source must earn the higher score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import is_neutral
from .features import FeatureMatrix


@dataclass
class MixPair:
    """Two mixtures of the same (emotional, neutral) source pair, with the
    emotional source's weight in each."""

    x_mix_i: np.ndarray
    x_mix_j: np.ndarray
    lambda_i: float
    lambda_j: float
    emotion_label: str


def normalized_lambda_diff(lambda_i: float, lambda_j: float) -> float:
    """Map the weight difference from [-1, 1] onto the rank target in [0, 1]:
    (lambda_i - lambda_j + 1) / 2 lands above 0.5 exactly when mixture i
    carries more of the emotional source, at 0.5 when the weights tie, and
    below 0.5 otherwise."""
    return (lambda_i - lambda_j + 1.0) / 2.0


def sample_lambdas(rng: np.random.Generator) -> tuple[float, float]:
    """Two independent mixing weights from Beta(1, 1), i.e. uniform on (0, 1)."""
    out = []
    for _ in range(2):
        v = rng.beta(1.0, 1.0)
        while v <= 0.0 or v >= 1.0:  # keep the open-interval guarantee
            v = rng.beta(1.0, 1.0)
        out.append(float(v))
    return out[0], out[1]


def align_lengths(x_emo: np.ndarray, x_neu: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Crop both matrices to the shorter length at uniform random offsets.

    Cropping (rather than padding) keeps every mixed frame a blend of real
    speech frames instead of diluting the emotional signal with silence.
    """
    t = min(x_emo.shape[0], x_neu.shape[0])
    off_e = int(rng.integers(0, x_emo.shape[0] - t + 1))
    off_n = int(rng.integers(0, x_neu.shape[0] - t + 1))
    return x_emo[off_e:off_e + t], x_neu[off_n:off_n + t]


def _mix(x_emo: np.ndarray, x_neu: np.ndarray, lam: float) -> np.ndarray:
    if lam == 1.0:
        return x_emo.copy()
    if lam == 0.0:
        return x_neu.copy()
    mixed = lam * x_emo + (1.0 - lam) * x_neu
    # float rounding may overshoot by an ulp; pin the convexity invariant
    return np.clip(mixed, np.minimum(x_emo, x_neu), np.maximum(x_emo, x_neu))


def make_mix_pair(x_emo: FeatureMatrix, x_neu: FeatureMatrix,
                  rng: np.random.Generator,
                  lambdas: tuple[float, float] | None = None) -> MixPair:
    """Build one training pair from an emotional and a neutral utterance.

    Draws weights from Beta(1, 1) unless ``lambdas`` pins them explicitly.
    The pitch column mixes linearly like every other channel.
    """
    if is_neutral(x_emo.emotion_label):
        raise ValueError(f"'{x_emo.source_id}' is neutral; the emotional input must not be")
    if not is_neutral(x_neu.emotion_label):
        raise ValueError(f"'{x_neu.source_id}' is labeled '{x_neu.emotion_label}'; "
                         "the second input must be neutral")
    if x_emo.n_channels != x_neu.n_channels:
        raise ValueError(f"channel mismatch: {x_emo.n_channels} vs {x_neu.n_channels}")
    lam_i, lam_j = lambdas if lambdas is not None else sample_lambdas(rng)
    emo, neu = align_lengths(x_emo.frames, x_neu.frames, rng)
    return MixPair(x_mix_i=_mix(emo, neu, lam_i), x_mix_j=_mix(emo, neu, lam_j),
                   lambda_i=lam_i, lambda_j=lam_j, emotion_label=x_emo.emotion_label)
