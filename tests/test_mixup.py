"""Mixup pair construction: endpoints, convexity, targets, and validation."""

import numpy as np
import pytest

from emorank.features import FeatureMatrix
from emorank.mixup import (align_lengths, make_mix_pair, normalized_lambda_diff,
                           sample_lambdas)


def feat(seed, t_len=12, label="angry", speaker="s0", channels=82):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t_len, channels)).astype(np.float32)
    frames[:, -2] = np.abs(frames[:, -2])
    return FeatureMatrix(frames, 40.0, f"u{seed}", label, speaker)


def test_lambda_diff_hand_values():
    assert normalized_lambda_diff(0.8, 0.3) == pytest.approx(0.75, abs=1e-12)
    assert normalized_lambda_diff(0.3, 0.8) == pytest.approx(0.25, abs=1e-12)
    assert normalized_lambda_diff(0.5, 0.5) == 0.5
    assert normalized_lambda_diff(1.0, 0.0) == 1.0
    assert normalized_lambda_diff(0.0, 1.0) == 0.0


def test_endpoint_weights_reproduce_sources_bitwise():
    emo, neu = feat(1, label="angry"), feat(2, label="neutral")
    rng = np.random.default_rng(0)
    pair = make_mix_pair(emo, neu, rng, lambdas=(1.0, 0.0))
    # equal lengths -> crop offsets are forced to zero
    assert pair.x_mix_i.tobytes() == emo.frames.tobytes()
    assert pair.x_mix_j.tobytes() == neu.frames.tobytes()


def test_mixtures_stay_within_elementwise_envelope():
    # convexity: every mixed value sits inside [min, max] of its two sources
    rng = np.random.default_rng(7)
    for trial in range(1000):
        emo, neu = feat(2 * trial, t_len=5), feat(2 * trial + 1, t_len=5,
                                                  label="neutral")
        pair = make_mix_pair(emo, neu, rng)
        lo = np.minimum(emo.frames, neu.frames)
        hi = np.maximum(emo.frames, neu.frames)
        for mixed in (pair.x_mix_i, pair.x_mix_j):
            assert np.all(mixed >= lo) and np.all(mixed <= hi)


def test_mixture_matches_convex_formula():
    emo, neu = feat(3), feat(4, label="neutral")
    pair = make_mix_pair(emo, neu, np.random.default_rng(0), lambdas=(0.25, 0.75))
    np.testing.assert_allclose(pair.x_mix_i,
                               0.25 * emo.frames + 0.75 * neu.frames, atol=1e-6)
    np.testing.assert_allclose(pair.x_mix_j,
                               0.75 * emo.frames + 0.25 * neu.frames, atol=1e-6)
    assert pair.x_mix_i.dtype == np.float32


def test_pair_metadata_comes_from_emotional_source():
    emo = feat(1, label="amused", speaker="spk7")
    neu = feat(2, label="neutral", speaker="spk0")
    pair = make_mix_pair(emo, neu, np.random.default_rng(0))
    assert pair.emotion_label == "amused"


def test_sampled_lambdas_open_interval_and_uniform():
    rng = np.random.default_rng(5)
    draws = np.array([sample_lambdas(rng) for _ in range(4000)]).ravel()
    assert np.all((draws > 0.0) & (draws < 1.0))
    # Beta(1,1) is uniform: mean 0.5 +- 3 sigma, sigma = 1/sqrt(12 n)
    assert abs(draws.mean() - 0.5) < 3.0 / np.sqrt(12 * draws.size)


def test_align_lengths_crops_to_shorter():
    rng = np.random.default_rng(11)
    a = np.arange(40, dtype=np.float64).reshape(10, 4)
    b = np.arange(24, dtype=np.float64).reshape(6, 4) + 100
    for _ in range(50):
        ca, cb = align_lengths(a, b, rng)
        assert ca.shape == cb.shape == (6, 4)
        # crops are contiguous windows of the originals
        start = int(ca[0, 0]) // 4
        np.testing.assert_array_equal(ca, a[start:start + 6])
        np.testing.assert_array_equal(cb, b)


def test_align_lengths_covers_all_offsets():
    rng = np.random.default_rng(3)
    a = np.arange(8, dtype=np.float64).reshape(4, 2)
    b = np.zeros((2, 2))
    offsets = {int(align_lengths(a, b, rng)[0][0, 0]) // 2 for _ in range(200)}
    assert offsets == {0, 1, 2}


def test_same_rng_state_gives_identical_pair():
    emo, neu = feat(8, t_len=9), feat(9, t_len=14, label="neutral")
    p1 = make_mix_pair(emo, neu, np.random.default_rng(42))
    p2 = make_mix_pair(emo, neu, np.random.default_rng(42))
    assert p1.x_mix_i.tobytes() == p2.x_mix_i.tobytes()
    assert p1.x_mix_j.tobytes() == p2.x_mix_j.tobytes()
    assert (p1.lambda_i, p1.lambda_j) == (p2.lambda_i, p2.lambda_j)


def test_label_and_channel_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_mix_pair(feat(1, label="neutral"), feat(2, label="neutral"), rng)
    with pytest.raises(ValueError):
        make_mix_pair(feat(1, label="angry"), feat(2, label="amused"), rng)
    with pytest.raises(ValueError):
        make_mix_pair(feat(1, channels=82), feat(2, label="neutral", channels=10), rng)
