"""Feature front end: framing, mel, pitch, energy, and the EMOF format."""

import numpy as np
import pytest
import scipy.io.wavfile

from emorank.binio import ChecksumError, FileFormatError
from emorank.features import (FeatureConfig, FeatureMatrix, LOG_FLOOR,
                              extract_energy, extract_mel, extract_pitch,
                              featurize_audio, load_pitch_csv, load_wav,
                              mel_filterbank, read_emof, read_features,
                              write_emof, write_features)

CFG = FeatureConfig()


def tone(freq, seconds=1.0, sr=16000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------------------
# framing and mel


def test_silence_frame_count_and_floor():
    mel = extract_mel(np.zeros(16000), CFG)
    # T = floor((N - win) / hop) + 1 = floor((16000 - 800) / 400) + 1 = 39
    assert mel.shape == (39, 80)
    np.testing.assert_allclose(mel, np.log(LOG_FLOOR), atol=1e-12)


def test_frame_count_formula_across_lengths():
    for n in (800, 900, 1199, 1200, 4567):
        mel = extract_mel(np.zeros(n), CFG)
        assert mel.shape[0] == (n - 800) // 400 + 1


def test_audio_shorter_than_window_rejected():
    with pytest.raises(ValueError):
        extract_mel(np.zeros(799), CFG)


def test_sine_peaks_in_expected_mel_bin():
    audio = tone(440.0)
    mel = extract_mel(audio, CFG)
    peaks = mel.argmax(axis=1)
    assert len(set(peaks.tolist())) == 1  # constant across frames
    # oracle: the filterbank row with the strongest response at 440 Hz
    fb = mel_filterbank(CFG)
    n_fft_bins = fb.shape[1]
    freq_per_bin = CFG.sample_rate_hz / (2.0 * (n_fft_bins - 1))
    k440 = int(round(440.0 / freq_per_bin))
    assert peaks[0] == int(np.argmax(fb[:, k440]))


def test_doubling_amplitude_shifts_log_mel_by_log2():
    quiet = extract_mel(tone(300.0, amp=0.2), CFG)
    loud = extract_mel(tone(300.0, amp=0.4), CFG)
    # compare only where the signal is well above the floor
    mask = quiet > np.log(LOG_FLOOR) + 6.0
    assert mask.any()
    np.testing.assert_allclose((loud - quiet)[mask], np.log(2.0), atol=1e-6)


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(CFG)
    assert fb.shape[0] == 80
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)  # no empty filter


# ---------------------------------------------------------------------------
# pitch and energy


def test_pitch_on_pure_tone():
    for freq in (110.0, 220.0, 330.0):
        pitch = extract_pitch(tone(freq), CFG)
        voiced = pitch[pitch > 0]
        assert len(voiced) > len(pitch) * 0.9
        np.testing.assert_allclose(voiced, np.log(freq), atol=0.02)


def test_pitch_silence_unvoiced():
    pitch = extract_pitch(np.zeros(16000), CFG)
    np.testing.assert_array_equal(pitch, 0.0)


def test_pitch_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(0)
    pitch = extract_pitch(rng.normal(0, 0.1, 16000), CFG)
    assert (pitch == 0).mean() > 0.9


def _pitch_per_frame_loop(audio, cfg):
    """The per-frame peak refinement extract_pitch vectorizes, kept as its oracle."""
    from emorank.features import (PITCH_FMAX_HZ, PITCH_FMIN_HZ,
                                  PITCH_VOICING_THRESHOLD, _frame_signal)
    frames = _frame_signal(audio, cfg)
    frames = frames - frames.mean(axis=1, keepdims=True)
    win, sr = cfg.window_samples, cfg.sample_rate_hz
    lag_min = max(2, int(sr / PITCH_FMAX_HZ))
    lag_max = min(win - 2, int(np.ceil(sr / PITCH_FMIN_HZ)))
    nfft = 1 << int(np.ceil(np.log2(2 * win)))
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n=nfft, axis=1)[:, :win]
    out = np.zeros((frames.shape[0], 1))
    r0 = acf[:, 0]
    best = np.argmax(acf[:, lag_min:lag_max + 1], axis=1) + lag_min
    for t in range(frames.shape[0]):
        if r0[t] <= LOG_FLOOR:
            continue
        lag = best[t]
        if acf[t, lag] / r0[t] < PITCH_VOICING_THRESHOLD:
            continue
        y0, y1, y2 = acf[t, lag - 1], acf[t, lag], acf[t, lag + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        out[t, 0] = np.log(sr / (lag + shift))
    return out


def test_pitch_bitwise_equals_per_frame_loop():
    rng = np.random.default_rng(17)
    t = np.arange(24000) / 16000
    signals = [np.zeros(16000), rng.normal(0, 0.1, 12000)]
    for _ in range(30):
        f0 = rng.uniform(70.0, 380.0)
        gate = (np.sin(2 * np.pi * rng.uniform(1.0, 4.0) * t) > rng.uniform(-0.5, 0.5))
        signals.append(gate * np.sin(2 * np.pi * f0 * t) * rng.uniform(0.01, 0.9)
                       + rng.normal(0, rng.uniform(0.0, 0.2), t.size))
    for audio in signals:
        fast, slow = extract_pitch(audio, CFG), _pitch_per_frame_loop(audio, CFG)
        assert fast.tobytes() == slow.tobytes()
    assert any((extract_pitch(a, CFG) > 0).any() for a in signals[2:])


def test_filterbank_cached_read_only_and_keyed_by_value():
    fb = mel_filterbank(CFG)
    assert mel_filterbank(FeatureConfig()) is fb
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    other = mel_filterbank(FeatureConfig(fmax_hz=4000.0))
    assert other is not fb and not np.array_equal(other, fb)


def test_energy_doubles_with_amplitude():
    e1 = extract_energy(tone(250.0, amp=0.2), CFG)
    e2 = extract_energy(tone(250.0, amp=0.4), CFG)
    np.testing.assert_allclose(e2 - e1, np.log(2.0), atol=1e-9)


def test_energy_hand_computed_constant_signal():
    audio = np.ones(800)
    e = extract_energy(audio, CFG)
    hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(800) / 800))
    expected = np.log(np.linalg.norm(hann))
    assert e.shape == (1, 1)
    np.testing.assert_allclose(e[0, 0], expected, atol=1e-9)


# ---------------------------------------------------------------------------
# assembly


def test_featurize_layout_and_invariants():
    fm = featurize_audio(tone(220.0), CFG, source_id="t", emotion_label="angry",
                         speaker_id="s1")
    assert fm.frames.shape == (39, 82)
    assert fm.frames.dtype == np.float32
    assert np.all(fm.frames[:, 80] >= 0)  # pitch column
    assert fm.frame_rate_hz == pytest.approx(40.0)
    # mel block of the assembly matches the standalone extractor
    np.testing.assert_allclose(fm.frames[:, :80],
                               extract_mel(tone(220.0), CFG).astype(np.float32),
                               atol=1e-6)


def test_pitch_override():
    audio = tone(220.0)
    override = np.full(39, 123.0)
    override[5] = 0.0
    fm = featurize_audio(audio, CFG, "t", "angry", pitch_override=override)
    assert fm.frames[5, 80] == 0.0
    np.testing.assert_allclose(fm.frames[0, 80], np.log(123.0), atol=1e-5)
    with pytest.raises(ValueError):
        featurize_audio(audio, CFG, "t", "angry", pitch_override=np.ones(7))
    with pytest.raises(ValueError):
        featurize_audio(audio, CFG, "t", "angry", pitch_override=-override)


def test_feature_matrix_validation():
    good = np.abs(np.random.default_rng(0).normal(size=(4, 82))).astype(np.float32)
    FeatureMatrix(good, 40.0, "id", "angry", "s")
    bad_pitch = good.copy()
    bad_pitch[0, 80] = -1.0
    with pytest.raises(ValueError):
        FeatureMatrix(bad_pitch, 40.0, "id", "angry", "s")
    bad_nan = good.copy()
    bad_nan[0, 0] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(bad_nan, 40.0, "id", "angry", "s")
    with pytest.raises(ValueError):
        FeatureMatrix(good[:0], 40.0, "id", "angry", "s")


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(window_ms=0)
    with pytest.raises(ValueError):
        FeatureConfig(overlap_ratio=1.0)
    with pytest.raises(ValueError):
        FeatureConfig(n_mels=0)


# ---------------------------------------------------------------------------
# WAV and pitch CSV input


def test_load_wav_int16_and_float32(tmp_path):
    audio = tone(220.0, seconds=0.1)
    p16 = tmp_path / "a16.wav"
    scipy.io.wavfile.write(p16, 16000, (audio * 32767).astype(np.int16))
    loaded, sr = load_wav(p16)
    assert sr == 16000
    np.testing.assert_allclose(loaded, audio, atol=1e-3)

    pf = tmp_path / "af.wav"
    scipy.io.wavfile.write(pf, 16000, audio.astype(np.float32))
    loaded, _ = load_wav(pf)
    np.testing.assert_allclose(loaded, audio, atol=1e-6)


def test_load_wav_rejects_stereo(tmp_path):
    p = tmp_path / "st.wav"
    scipy.io.wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(FileFormatError):
        load_wav(p)


def test_load_pitch_csv(tmp_path):
    p = tmp_path / "f0.csv"
    p.write_text("120.5\n0\n\n200\n")
    np.testing.assert_allclose(load_pitch_csv(p), [120.5, 0.0, 200.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("abc\n")
    with pytest.raises(FileFormatError):
        load_pitch_csv(bad)


# ---------------------------------------------------------------------------
# EMOF round trips


def random_features(seed=0, t_len=17):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t_len, 82)).astype(np.float32)
    frames[:, 80] = np.abs(frames[:, 80])
    return FeatureMatrix(frames, 40.0, f"utt{seed}", "angry", "spk0")


def test_emof_round_trip_bitwise(tmp_path):
    fm = random_features()
    p = tmp_path / "f.emof"
    write_features(fm, p)
    back = read_features(p)
    assert back.frames.tobytes() == fm.frames.tobytes()
    assert (back.frame_rate_hz, back.source_id, back.emotion_label,
            back.speaker_id) == (40.0, "utt0", "angry", "spk0")


def test_emof_write_deterministic(tmp_path):
    fm = random_features()
    p1, p2 = tmp_path / "a.emof", tmp_path / "b.emof"
    write_features(fm, p1)
    write_features(fm, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emof_unicode_metadata(tmp_path):
    frames = np.abs(np.random.default_rng(1).normal(size=(3, 82)))
    p = tmp_path / "u.emof"
    write_emof(p, frames, 40.0, "злой", "spk-ü", "źrödło")
    _, _, emo, spk, src = read_emof(p)
    assert (emo, spk, src) == ("злой", "spk-ü", "źrödło")


def test_emof_corruption_detected(tmp_path):
    p = tmp_path / "c.emof"
    write_features(random_features(), p)
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        read_features(p)


def test_emof_truncation_detected(tmp_path):
    p = tmp_path / "t.emof"
    write_features(random_features(), p)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(FileFormatError):
        read_features(p)


def test_emof_bad_magic(tmp_path):
    p = tmp_path / "m.emof"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FileFormatError):
        read_features(p)
