"""Shipping gate: every release criterion end to end, one verdict line each.

Each test prints its PASS/FAIL line outside pytest's capture so a plain
`pytest tests/test_acceptance.py` run shows the whole scorecard; a FAIL line
is always accompanied by a failing assertion.
"""

import math
import time

import numpy as np
import pytest

from emorank.cli import run_gradcheck
from emorank.codebook import (PhonemeAlignment, PhonemeInterval,
                              build_codebook, classify_utterance,
                              phoneme_average, score_corpus)
from emorank.evalmetrics import mcd, spearman
from emorank.extractor import ExtractorConfig, pool
from emorank.features import (FeatureConfig, FeatureMatrix, LOG_FLOOR,
                              extract_mel, extract_pitch, mel_filterbank,
                              read_features, write_features)
from emorank.losses import mixup_ce, pair_probability, rank_loss
from emorank.mixup import _mix, align_lengths, make_mix_pair
from emorank.numerics import Tensor
from emorank.runconfig import DEFAULTS
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import TrainConfig, train_rank_model
from params_oracle import params_digest


def report(capsys, label: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


@pytest.fixture(scope="module")
def trained():
    """One full synthetic training run, shared by the model-quality gates."""
    data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=30),
                    np.random.default_rng(100))
    ecfg = ExtractorConfig(input_dim=82, hidden_dim=32, n_fft_blocks=2,
                           n_heads=2, conv_kernel=9, conv_filter_dim=64,
                           dropout=0.1, n_emotion_classes=4,
                           projector_hidden=32)
    tcfg = TrainConfig(iterations=2000, learning_rate=1e-3, batch_pairs=8,
                       seed=0)
    t0 = time.perf_counter()
    result = train_rank_model(data.corpus, ecfg, tcfg)
    return {"params": result.params, "seconds": time.perf_counter() - t0,
            "train_data": data}


def test_gate_01_whole_model_gradients(capsys):
    t0 = time.perf_counter()
    errors, ok = run_gradcheck(dict(DEFAULTS["gradcheck"]), seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = ok and elapsed < 60.0
    report(capsys, "gate 01 whole-model gradients", ok,
           f"worst rel err {worst:.2e} (tol 1e-3) over {len(errors)} "
           f"tensors in {elapsed:.1f}s (limit 60s)")


def test_gate_02_loss_identities(capsys):
    ln2_err = abs(rank_loss(0.5, 0.5, 0.5).item() - math.log(2.0))

    rng = np.random.default_rng(1)
    worst_sym = 0.0
    for _ in range(1000):
        r_i, r_j = rng.normal(scale=3.0, size=2)
        s = pair_probability(t(r_i), t(r_j)).item() \
            + pair_probability(t(r_j), t(r_i)).item()
        worst_sym = max(worst_sym, abs(s - 1.0))

    worst_shift = 0.0
    for _ in range(200):
        a, b = rng.normal(size=4), rng.normal(size=4)
        s1, s2 = rng.normal(size=2) * 5.0
        lam_i, lam_j = rng.uniform(size=2)
        base = mixup_ce(t(a), t(b), lam_i, lam_j, 2, 0).item()
        shifted = mixup_ce(t(a + s1), t(b + s2), lam_i, lam_j, 2, 0).item()
        worst_shift = max(worst_shift, abs(base - shifted))

    ok = ln2_err <= 1e-9 and worst_sym <= 1e-12 and worst_shift <= 1e-6
    report(capsys, "gate 02 loss identities", ok,
           f"rank_loss(.5,.5)-ln2 = {ln2_err:.1e} (tol 1e-9); "
           f"antisymmetry worst {worst_sym:.1e} (tol 1e-12); "
           f"shift invariance worst {worst_shift:.1e} (tol 1e-6)")


def test_gate_03_mixup_endpoints_and_convexity(capsys):
    rng = np.random.default_rng(7)

    def utt(label, n):
        frames = rng.normal(size=(n, 5)).astype(np.float32)
        frames[:, -2] = np.abs(frames[:, -2])
        return FeatureMatrix(frames, 40.0, f"{label}_{n}", label, "s0")

    endpoints_ok = True
    for t_emo, t_neu in ((9, 9), (14, 6), (5, 12)):
        emo, neu = utt("angry", t_emo), utt("neutral", t_neu)
        pair = make_mix_pair(emo, neu, rng, lambdas=(1.0, 0.0))
        t_len = min(t_emo, t_neu)
        # each endpoint must be a bitwise copy of some crop window
        endpoints_ok &= any(
            np.array_equal(pair.x_mix_i, emo.frames[o:o + t_len])
            for o in range(t_emo - t_len + 1))
        endpoints_ok &= any(
            np.array_equal(pair.x_mix_j, neu.frames[o:o + t_len])
            for o in range(t_neu - t_len + 1))

    convex_ok = True
    for _ in range(1000):
        a = rng.normal(size=(int(rng.integers(4, 12)), 5))
        b = rng.normal(size=(int(rng.integers(4, 12)), 5))
        lam = float(rng.uniform(1e-6, 1.0 - 1e-6))
        ca, cb = align_lengths(a, b, rng)
        m = _mix(ca, cb, lam)
        convex_ok &= bool(np.all(m >= np.minimum(ca, cb))
                          and np.all(m <= np.maximum(ca, cb)))

    ok = endpoints_ok and convex_ok
    report(capsys, "gate 03 mixup endpoints/convexity", ok,
           f"endpoint crops bitwise: {endpoints_ok}; "
           f"convex envelope held for 1000 pairs: {convex_ok}")


def test_gate_04_rank_correlation_on_held_out(trained, capsys):
    held_out = generate(SynthSpec(n_speakers=2, n_emotions=3,
                                  utterances_per_cell=15),
                        np.random.default_rng(200))
    records = score_corpus(trained["params"], held_out.corpus)
    rhos = {}
    for emotion in held_out.spec.emotions:
        recs = [r for r in records if r.emotion == emotion]
        assert len(recs) == 30
        scores = np.array([r.score for r in recs])
        truth = np.array([held_out.true_intensity[r.utterance_id] for r in recs])
        rhos[emotion] = spearman(scores, truth)
    ok = all(v >= 0.9 for v in rhos.values()) and trained["seconds"] < 600.0
    detail = ", ".join(f"{e}={v:.4f}" for e, v in sorted(rhos.items()))
    report(capsys, "gate 04 held-out rank correlation", ok,
           f"spearman(score, true intensity) {detail} (floor 0.90); "
           f"trained 2000 iters in {trained['seconds']:.0f}s (limit 600s)")


def test_gate_05_classifier_accuracy(trained, capsys):
    held_out = generate(SynthSpec(n_speakers=2, n_emotions=3,
                                  utterances_per_cell=15,
                                  intensity_range=(0.5, 1.0)),
                        np.random.default_rng(300))
    params = trained["params"]
    hits = 0
    for u in held_out.corpus:
        pred = classify_utterance(params, u.frames, u.emotion_label)
        hits += int(pred == params.class_index(u.emotion_label))
    acc = hits / len(held_out.corpus)
    ok = acc >= 0.95
    report(capsys, "gate 05 classifier accuracy", ok,
           f"{hits}/{len(held_out.corpus)} unmixed held-out utterances "
           f"({acc:.1%}, floor 95%)")


def test_gate_06_codebook_level_ordering(trained, capsys):
    records = score_corpus(trained["params"], trained["train_data"].corpus)
    cb = build_codebook(records, n_bins=3)
    ordered = True
    min_l2 = np.inf
    for entry in cb.emotions.values():
        ms = entry.mean_scores
        ordered &= ms["Min"] < ms["Median"] < ms["Max"]
        vecs = list(entry.levels.values())
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                min_l2 = min(min_l2, float(np.linalg.norm(vecs[i] - vecs[j])))
    ok = ordered and min_l2 > 0.0
    report(capsys, "gate 06 codebook level ordering", ok,
           f"mean score strictly increasing across Min/Median/Max for "
           f"{len(cb.emotions)} emotions; smallest level-vector L2 gap "
           f"{min_l2:.3e} (> 0)")


def test_gate_07_phoneme_average(capsys):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n_frames = int(rng.integers(4, 40))
        rate = float(rng.uniform(20.0, 100.0))
        data = rng.normal(size=(n_frames, 5))
        duration = n_frames / rate
        n_ph = int(rng.integers(1, 8))
        cuts = np.sort(rng.uniform(0.0, duration, size=n_ph - 1))
        edges = np.concatenate([[0.0], cuts, [duration]])
        align = PhonemeAlignment([
            PhonemeInterval(f"P{i}", float(edges[i]), float(edges[i + 1]))
            for i in range(n_ph) if edges[i + 1] > edges[i]])
        got = phoneme_average(data, align, rate)
        centers = (np.arange(n_frames) + 0.5) / rate
        want = []
        for iv in align.intervals:
            mask = (centers >= iv.start_s) & (centers < iv.end_s)
            if mask.any():
                want.append(data[mask].mean(axis=0))
            else:
                mid = (iv.start_s + iv.end_s) / 2.0
                want.append(data[int(np.argmin(np.abs(centers - mid)))])
        worst = max(worst, float(np.max(np.abs(got - np.stack(want)))))

    single = np.random.default_rng(3).normal(size=(11, 4))
    one = PhonemeAlignment([PhonemeInterval("ALL", 0.0, 11 / 40.0)])
    pool_exact = np.array_equal(phoneme_average(Tensor(single), one, 40.0)[0],
                                pool(Tensor(single)).data[0])
    ok = worst <= 1e-6 and pool_exact
    report(capsys, "gate 07 phoneme averaging", ok,
           f"worst interval-mean error {worst:.1e} over 100 instances "
           f"(tol 1e-6); single interval equals pooling exactly: {pool_exact}")


def tiny_cfg() -> ExtractorConfig:
    return ExtractorConfig(input_dim=82, hidden_dim=8, n_fft_blocks=1,
                           n_heads=2, conv_kernel=3, conv_filter_dim=8,
                           dropout=0.1, n_emotion_classes=3,
                           projector_hidden=4)


def test_gate_08_determinism_and_resume(tmp_path, capsys):
    corpus = generate(SynthSpec(n_speakers=1, n_emotions=2,
                                utterances_per_cell=9,
                                frame_length_range=(6, 12)),
                      np.random.default_rng(10)).corpus
    tcfg = TrainConfig(iterations=12, learning_rate=1e-3, batch_pairs=2, seed=5)
    ref = train_rank_model(corpus, tiny_cfg(), tcfg)
    rerun = train_rank_model(corpus, tiny_cfg(), tcfg)
    seed_gap = float(np.max(np.abs(ref.trace - rerun.trace)))

    ckpt_cfg = TrainConfig(iterations=12, learning_rate=1e-3, batch_pairs=2,
                           seed=5, checkpoint_every=6)
    train_rank_model(corpus, tiny_cfg(), ckpt_cfg, checkpoint_dir=tmp_path)
    resumed = train_rank_model(corpus, tiny_cfg(), ckpt_cfg,
                               checkpoint_dir=tmp_path,
                               resume_from=tmp_path / "ckpt_0000006.emom")
    resume_gap = float(np.max(np.abs(ref.trace - resumed.trace)))
    same_params = params_digest(ref.params) == params_digest(resumed.params)

    ok = seed_gap <= 1e-12 and resume_gap <= 1e-12 and same_params
    report(capsys, "gate 08 determinism/resume", ok,
           f"same-seed trace gap {seed_gap:.1e}, resumed-run trace gap "
           f"{resume_gap:.1e} (tol 1e-12); resumed weights identical: "
           f"{same_params}")


def test_gate_09_mel_cepstral_distortion(capsys):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 6))
    self_zero = mcd(a, a) == 0.0

    one_a = np.zeros((1, 3))
    one_b = one_a.copy()
    one_b[0, 1] = 1.0  # unit gap in one coefficient past c0
    hand_err = abs(mcd(one_a, one_b) - (10.0 / math.log(10.0)) * math.sqrt(2.0))

    worst_sym = 0.0
    for _ in range(50):
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 4))
        worst_sym = max(worst_sym, abs(mcd(x, y) - mcd(y, x)))

    ok = self_zero and hand_err <= 1e-9 and worst_sym <= 1e-12
    report(capsys, "gate 09 mel-cepstral distortion", ok,
           f"self-distance zero: {self_zero}; unit single-frame error "
           f"{hand_err:.1e} (tol 1e-9); symmetry worst {worst_sym:.1e}")


def test_gate_10_feature_oracles_and_emof(tmp_path, capsys):
    cfg = FeatureConfig()

    mel = extract_mel(np.zeros(16000), cfg)
    silence_ok = mel.shape == (39, 80) \
        and bool(np.allclose(mel, np.log(LOG_FLOOR), atol=1e-12)) \
        and bool(np.all(extract_pitch(np.zeros(16000), cfg) == 0.0))

    sr = cfg.sample_rate_hz
    audio = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(sr) / sr)
    tone_mel = extract_mel(audio, cfg)
    peaks = tone_mel.argmax(axis=1)
    fb = mel_filterbank(cfg)
    freq_per_bin = sr / (2.0 * (fb.shape[1] - 1))
    k440 = int(round(440.0 / freq_per_bin))
    # pitch is asserted on an in-range tone (tracker covers 60-400 Hz)
    p_audio = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(sr) / sr)
    pitch = extract_pitch(p_audio, cfg)
    voiced = pitch[pitch > 0]
    sine_ok = len(set(peaks.tolist())) == 1 \
        and peaks[0] == int(np.argmax(fb[:, k440])) \
        and len(voiced) > 0.9 * len(pitch) \
        and bool(np.allclose(voiced, np.log(220.0), atol=0.02))

    rng = np.random.default_rng(0)
    noise_ok = (extract_pitch(rng.normal(0, 0.1, 16000), cfg) == 0).mean() > 0.9

    frames = rng.normal(size=(11, 82)).astype(np.float32)
    frames[:, -2] = np.abs(frames[:, -2])
    fm = FeatureMatrix(frames, 40.0, "rt", "angry", "s0")
    path = tmp_path / "rt.emof"
    write_features(fm, path)
    back = read_features(path)
    roundtrip_ok = np.array_equal(back.frames, fm.frames) \
        and back.frames.dtype == np.float32 \
        and (back.source_id, back.emotion_label, back.speaker_id) \
        == ("rt", "angry", "s0") \
        and back.frame_rate_hz == 40.0

    ok = silence_ok and sine_ok and noise_ok and roundtrip_ok
    report(capsys, "gate 10 feature oracles/EMOF", ok,
           f"silence floor: {silence_ok}; tone mel bin + pitch: {sine_ok}; "
           f"noise unvoiced: {noise_ok}; EMOF round-trip bitwise: "
           f"{bool(roundtrip_ok)}")
