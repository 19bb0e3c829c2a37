"""Synthetic corpus generator: construction laws the trainer relies on."""

import numpy as np
import pytest

from emorank.binio import FileFormatError
from emorank.synthcorpus import (EMOTION_NAMES, SynthSpec, class_signatures,
                                 generate, load_metadata, save_corpus,
                                 spec_digest, speaker_bases)
from emorank.training import load_corpus

SPEC = SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=9,
                 frame_length_range=(5, 9))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_speakers=0)
    with pytest.raises(ValueError):
        SynthSpec(n_emotions=0)
    with pytest.raises(ValueError):
        SynthSpec(n_emotions=len(EMOTION_NAMES) + 1)
    with pytest.raises(ValueError):
        SynthSpec(utterances_per_cell=8)  # below the 3-per-bin floor
    with pytest.raises(ValueError):
        SynthSpec(frame_length_range=(10, 5))
    with pytest.raises(ValueError):
        SynthSpec(intensity_range=(0.5, 0.2))
    with pytest.raises(ValueError):
        SynthSpec(intensity_range=(0.0, 1.5))
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-0.1)
    assert SynthSpec(n_emotions=2).emotions == ["angry", "amused"]


def test_signatures_disjoint_orthogonal_equal_norm():
    sigs = class_signatures(SynthSpec(n_emotions=6))
    assert set(sigs) == set(EMOTION_NAMES)
    names = list(sigs)
    for i, a in enumerate(names):
        support_a = np.nonzero(sigs[a])[0]
        assert len(support_a) == 12
        assert 80 not in support_a  # pitch column stays clean
        np.testing.assert_allclose(np.linalg.norm(sigs[a]), 2.5, atol=1e-12)
        for b in names[i + 1:]:
            assert np.dot(sigs[a], sigs[b]) == 0.0
            assert len(np.intersect1d(support_a, np.nonzero(sigs[b])[0])) == 0


def test_signatures_fixed_by_pattern_seed():
    a = class_signatures(SynthSpec(base_pattern_seed=7))
    b = class_signatures(SynthSpec(base_pattern_seed=7, n_speakers=5))
    c = class_signatures(SynthSpec(base_pattern_seed=8))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
        assert not np.array_equal(a[name], c[name])


def test_speaker_bases_pitch_plateau():
    bases = speaker_bases(SynthSpec(n_speakers=3))
    assert set(bases) == {"spk0", "spk1", "spk2"}
    for base in bases.values():
        assert base.shape == (82,)
        assert 4.0 <= base[80] <= 5.0


def test_generate_counts_and_lengths():
    result = generate(SPEC, np.random.default_rng(0))
    corpus = result.corpus
    # 2 speakers x (neutral + 3 classes) x 9
    assert len(corpus) == 2 * 4 * 9
    labels = {u.emotion_label for u in corpus}
    assert labels == {"neutral", "angry", "amused", "sleepy"}
    for u in corpus:
        assert 5 <= u.n_frames <= 9
        assert u.n_channels == 82
        assert u.frame_rate_hz == 40.0
    assert set(result.true_intensity) == {u.source_id for u in corpus}


def test_generate_deterministic():
    a = generate(SPEC, np.random.default_rng(42))
    b = generate(SPEC, np.random.default_rng(42))
    assert a.true_intensity == b.true_intensity
    for ua, ub in zip(a.corpus, b.corpus):
        assert ua.source_id == ub.source_id
        assert ua.frames.tobytes() == ub.frames.tobytes()
    c = generate(SPEC, np.random.default_rng(43))
    assert a.true_intensity != c.true_intensity


def test_neutral_is_zero_intensity():
    result = generate(SPEC, np.random.default_rng(1))
    for u in result.corpus:
        t = result.true_intensity[u.source_id]
        if u.emotion_label == "neutral":
            assert t == 0.0
        else:
            assert 0.0 <= t <= 1.0


def test_intensity_range_respected():
    spec = SynthSpec(n_speakers=1, n_emotions=1, utterances_per_cell=20,
                     frame_length_range=(5, 6), intensity_range=(0.5, 1.0))
    result = generate(spec, np.random.default_rng(2))
    ts = [t for uid, t in result.true_intensity.items() if "angry" in uid]
    assert all(0.5 <= t <= 1.0 for t in ts)
    assert max(ts) - min(ts) > 0.2  # actually spread, not collapsed


def test_construction_recoverable_from_frames():
    # averaging frames and projecting onto the class signature recovers t
    spec = SynthSpec(n_speakers=1, n_emotions=2, utterances_per_cell=9,
                     frame_length_range=(400, 400), noise_sigma=0.05)
    result = generate(spec, np.random.default_rng(3))
    sigs = class_signatures(spec)
    base = speaker_bases(spec)["spk0"]
    for u in result.corpus:
        if u.emotion_label == "neutral":
            continue
        sig = sigs[u.emotion_label]
        centered = u.frames.mean(axis=0).astype(np.float64) - base
        t_hat = float(centered @ sig / (sig @ sig))
        # estimator noise: sigma / (norm(sig) * sqrt(T)) ~ 0.001
        assert abs(t_hat - result.true_intensity[u.source_id]) < 0.02


def test_save_and_load_round_trip(tmp_path):
    result = generate(SPEC, np.random.default_rng(5))
    paths = save_corpus(result, tmp_path)
    assert len(paths) == len(result.corpus)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == len(result.corpus)
    by_id = {u.source_id: u for u in loaded}
    for u in result.corpus:
        back = by_id[u.source_id]
        assert back.frames.tobytes() == u.frames.tobytes()
        assert back.emotion_label == u.emotion_label
        assert back.speaker_id == u.speaker_id
    truths = load_metadata(tmp_path / "metadata.csv")
    assert truths == result.true_intensity  # repr round-trips floats exactly


def test_metadata_header_validated(tmp_path):
    bad = tmp_path / "metadata.csv"
    bad.write_text("id,spk,emo,t\nx,s,angry,0.5\n")
    with pytest.raises(ValueError):
        load_metadata(bad)


@pytest.mark.parametrize("text, where", [
    ("id,spk,emo,t\nx,s,angry,0.5\n", "metadata.csv:1:"),
    ("utterance_id,speaker,emotion,true_intensity\nx,s,angry,0.5\ny,s,angry\n",
     "metadata.csv:3:"),
    ("utterance_id,speaker,emotion,true_intensity\nx,s,angry,high\n", "metadata.csv:2:"),
], ids=["bad_header", "short_row", "not_a_number"])
def test_malformed_metadata_is_a_format_error(tmp_path, text, where):
    path = tmp_path / "metadata.csv"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=where):
        load_metadata(path)


def test_spec_digest_tracks_fields():
    assert spec_digest(SPEC) == spec_digest(SynthSpec(n_speakers=2, n_emotions=3,
                                                      utterances_per_cell=9,
                                                      frame_length_range=(5, 9)))
    assert spec_digest(SPEC) != spec_digest(SynthSpec())
