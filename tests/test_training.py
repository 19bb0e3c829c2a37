"""Training loop: sampling, determinism, checkpointing, and failure paths."""

import hashlib
import itertools

import numpy as np
import pytest

from emorank.binio import FileFormatError
from emorank.extractor import ExtractorConfig, init_params, load_model, save_model
from emorank.features import FeatureMatrix
from emorank.losses import LossWeights
from emorank.numerics import AdamState
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import (Corpus, TrainConfig, TrainingError, _init_rng,
                              compute_feature_stats, corpus_digest,
                              iteration_rng, load_checkpoint, load_corpus,
                              read_trace_csv, sample_pair, save_checkpoint,
                              train_rank_model, train_steps, write_trace_csv)
from params_oracle import params_digest


def utt(speaker, emotion, k, t_len=8, channels=6, seed=None):
    rng = np.random.default_rng(hash((speaker, emotion, k)) % 2 ** 32 if seed is None else seed)
    fr = rng.normal(size=(t_len, channels)).astype(np.float32)
    fr[:, -2] = np.abs(fr[:, -2])
    return FeatureMatrix(fr, 40.0, f"{speaker}_{emotion}_{k}", emotion, speaker)


def mini_corpus():
    utts = [utt(s, e, k) for s in ("s0", "s1")
            for e in ("neutral", "angry", "Amused") for k in range(2)]
    return Corpus(utts)


def synth_corpus(seed=10):
    spec = SynthSpec(n_speakers=1, n_emotions=2, utterances_per_cell=9,
                     frame_length_range=(6, 12))
    return generate(spec, np.random.default_rng(seed)).corpus


def tiny_cfg(**kw):
    base = dict(input_dim=82, hidden_dim=8, n_fft_blocks=1, n_heads=2,
                conv_kernel=3, conv_filter_dim=8, dropout=0.1,
                n_emotion_classes=3, projector_hidden=4)
    base.update(kw)
    return ExtractorConfig(**base)


# ---------------------------------------------------------------------------
# corpus


def test_corpus_indexes_and_labels():
    c = mini_corpus()
    assert len(c) == 12
    assert c.emotion_labels == ["amused", "angry"]  # sorted, lowercased
    assert c.class_labels == ["neutral", "amused", "angry"]
    assert all(c.utterances[i].emotion_label == "neutral" for i in c.neutral_idx)
    assert len(c.neutral_idx) == 4 and len(c.emotional_idx) == 8
    assert len(c.neutral_for_speaker("s0")) == 2
    assert c.neutral_for_speaker("missing") == []


def test_corpus_validation():
    with pytest.raises(ValueError):
        Corpus([])
    with pytest.raises(ValueError):
        Corpus([utt("s", "angry", 0, channels=6), utt("s", "neutral", 0, channels=8)])
    with pytest.raises(ValueError):
        Corpus([utt("s", "angry", 0)])  # no neutral
    with pytest.raises(ValueError):
        Corpus([utt("s", "neutral", 0)])  # no emotional


def test_corpus_roles_optional_for_scoring():
    c = Corpus([utt("s", "angry", 0)], require_roles=False)
    assert c.neutral_idx == [] and c.emotional_idx == [0]
    # an empty corpus or mixed channel widths stay invalid either way
    with pytest.raises(ValueError):
        Corpus([], require_roles=False)


def test_load_corpus_sorted(tmp_path):
    from emorank.features import write_features
    for name in ("b_neutral", "a_angry", "c_angry"):
        speaker, emo = name.split("_")
        write_features(utt(speaker, emo, 0), tmp_path / f"{name}.emof")
    c = load_corpus(tmp_path)
    assert [u.source_id for u in c] == ["a_angry_0", "b_neutral_0", "c_angry_0"]
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nowhere")


def test_corpus_digest_tracks_content():
    a, b = mini_corpus(), mini_corpus()
    assert corpus_digest(a) == corpus_digest(b)
    b.utterances[0].frames[0, 0] += 1.0
    assert corpus_digest(a) != corpus_digest(b)


def test_feature_stats_hand_check():
    u1 = utt("s", "neutral", 0, t_len=2, seed=1)
    u2 = utt("s", "angry", 0, t_len=3, seed=2)
    mean, std = compute_feature_stats(Corpus([u1, u2]))
    stacked = np.concatenate([u1.frames, u2.frames]).astype(np.float64)
    np.testing.assert_allclose(mean, stacked.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(std, stacked.std(axis=0), atol=1e-12)


def test_feature_stats_constant_channel_floored():
    u1 = utt("s", "neutral", 0)
    u2 = utt("s", "angry", 0)
    u1.frames[:, 3] = 7.0
    u2.frames[:, 3] = 7.0
    mean, std = compute_feature_stats(Corpus([u1, u2]))
    assert mean[3] == pytest.approx(7.0, abs=1e-6)
    assert std[3] == pytest.approx(1e-8)


# ---------------------------------------------------------------------------
# pair sampling


def test_sample_pair_roles_and_same_speaker():
    c = mini_corpus()
    rng = np.random.default_rng(0)
    for _ in range(200):
        emo, neu = sample_pair(c, "same_speaker", rng)
        assert emo.emotion_label.lower() != "neutral"
        assert neu.emotion_label == "neutral"
        assert neu.speaker_id == emo.speaker_id  # both speakers have neutrals


def test_sample_pair_fallback_when_speaker_lacks_neutral():
    utts = [utt("s0", "neutral", k) for k in range(2)] \
        + [utt("s1", "angry", k) for k in range(2)]
    c = Corpus(utts)
    rng = np.random.default_rng(0)
    emo, neu = sample_pair(c, "same_speaker", rng)
    assert emo.speaker_id == "s1" and neu.speaker_id == "s0"


def test_sample_pair_uniform_over_emotional():
    c = mini_corpus()
    rng = np.random.default_rng(3)
    counts = {}
    n = 10000
    for _ in range(n):
        emo, _ = sample_pair(c, "any", rng)
        counts[emo.source_id] = counts.get(emo.source_id, 0) + 1
    assert len(counts) == 8
    expected = n / 8
    sigma = np.sqrt(n * (1 / 8) * (7 / 8))
    for v in counts.values():
        assert abs(v - expected) < 5 * sigma


def test_sample_pair_bad_policy():
    with pytest.raises(ValueError):
        sample_pair(mini_corpus(), "nearest", np.random.default_rng(0))


def test_iteration_rng_history_independent():
    a = iteration_rng(5, 3).uniform(size=4)
    iteration_rng(5, 2).uniform(size=100)  # unrelated draws change nothing
    b = iteration_rng(5, 3).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, iteration_rng(5, 4).uniform(size=4))
    assert not np.array_equal(a, iteration_rng(6, 3).uniform(size=4))


# ---------------------------------------------------------------------------
# training loop


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-6)
    with pytest.raises(ValueError):
        TrainConfig(batch_pairs=0)
    with pytest.raises(ValueError):
        TrainConfig(pair_policy="friends")
    cfg = TrainConfig(loss_weights=LossWeights(alpha=0.2, beta=0.5))
    assert cfg.loss_weights.alpha == 0.2


def test_training_reduces_loss():
    corpus = synth_corpus()
    cfg = TrainConfig(iterations=200, learning_rate=3e-3, batch_pairs=2, seed=0)
    result = train_rank_model(corpus, tiny_cfg(), cfg)
    trace = result.trace
    assert trace.shape == (200, 4)
    np.testing.assert_array_equal(trace[:, 0], np.arange(200))
    # weighted total must drop decisively once the class signal is picked up
    first, last = trace[:20, 3].mean(), trace[-20:, 3].mean()
    assert last < first - 0.05, (first, last)
    # trace columns satisfy the combination identity
    lw = cfg.loss_weights
    np.testing.assert_allclose(trace[:, 3], lw.alpha * trace[:, 1] + lw.beta * trace[:, 2],
                               atol=1e-9)


def test_training_leaves_the_callers_extractor_config_alone():
    spec = SynthSpec(n_speakers=1, n_emotions=3, utterances_per_cell=9,
                     frame_length_range=(6, 8))
    corpus = generate(spec, np.random.default_rng(4)).corpus
    ecfg = tiny_cfg(n_emotion_classes=2)
    result = train_rank_model(corpus, ecfg, TrainConfig(iterations=1, batch_pairs=2, seed=0))
    assert ecfg == tiny_cfg(n_emotion_classes=2)
    # the model still takes its class count from the corpus: neutral plus three
    assert result.params.config.n_emotion_classes == 4
    assert result.params["emb.table"].shape == (4, 8)


def test_zero_learning_rate_is_inert():
    corpus = synth_corpus()
    result = train_rank_model(corpus, tiny_cfg(), TrainConfig(iterations=3, learning_rate=0.0,
                                                              batch_pairs=2, seed=0))
    init = init_params(tiny_cfg(), corpus.class_labels, _init_rng(0))
    init.feat_mean, init.feat_std = (s.astype(init.dtype) for s in compute_feature_stats(corpus))
    assert params_digest(result.params) == params_digest(init)


def test_same_seed_identical_traces():
    corpus = synth_corpus()
    cfg = TrainConfig(iterations=25, learning_rate=1e-3, batch_pairs=2, seed=11)
    r1 = train_rank_model(corpus, tiny_cfg(), cfg)
    r2 = train_rank_model(corpus, tiny_cfg(), cfg)
    assert np.abs(r1.trace - r2.trace).max() <= 1e-12
    assert params_digest(r1.params) == params_digest(r2.params)
    r3 = train_rank_model(corpus, tiny_cfg(),
                          TrainConfig(iterations=25, learning_rate=1e-3,
                                      batch_pairs=2, seed=12))
    assert not np.array_equal(r1.trace, r3.trace)


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    corpus = synth_corpus()

    def cfg(**kw):
        base = dict(iterations=40, learning_rate=1e-3, batch_pairs=2, seed=4)
        base.update(kw)
        return TrainConfig(**base)

    ref = train_rank_model(corpus, tiny_cfg(), cfg())
    ckpt_run = train_rank_model(corpus, tiny_cfg(), cfg(checkpoint_every=20),
                                checkpoint_dir=tmp_path)
    # checkpointing must not perturb the run it happens inside
    assert np.abs(ref.trace - ckpt_run.trace).max() <= 1e-12
    ckpts = sorted(tmp_path.glob("ckpt_*.emom"))
    assert [p.name for p in ckpts] == ["ckpt_0000020.emom"]  # none at the end

    resumed = train_rank_model(corpus, tiny_cfg(), cfg(), resume_from=ckpts[0])
    assert resumed.trace.shape == (40, 4)
    assert np.abs(ref.trace - resumed.trace).max() <= 1e-12
    assert params_digest(resumed.params) == params_digest(ref.params)


def test_checkpoint_appendix_round_trip(tmp_path):
    corpus = synth_corpus()
    result = train_rank_model(corpus, tiny_cfg(),
                              TrainConfig(iterations=10, learning_rate=1e-3,
                                          batch_pairs=2, seed=1,
                                          checkpoint_every=5),
                              checkpoint_dir=tmp_path)
    path = tmp_path / "ckpt_0000005.emom"
    params, adam, meta, trace = load_checkpoint(path)
    assert meta["iteration"] == 5
    assert adam.step == 5
    assert trace.shape == (5, 4)
    for name, m in adam.m.items():
        assert m.shape == params.tensors[name].data.shape
    # the model section of a checkpoint is independently loadable
    loaded, _ = load_model(path)
    assert params_digest(loaded) == params_digest(params)
    # the final result differs from the midpoint snapshot
    assert params_digest(result.params) != params_digest(params)


def test_resume_beyond_target_rejected(tmp_path):
    corpus = synth_corpus()
    train_rank_model(corpus, tiny_cfg(),
                     TrainConfig(iterations=10, learning_rate=1e-3, batch_pairs=2,
                                 seed=1, checkpoint_every=5), checkpoint_dir=tmp_path)
    with pytest.raises(ValueError):
        train_rank_model(corpus, tiny_cfg(),
                         TrainConfig(iterations=5, learning_rate=1e-3,
                                     batch_pairs=2, seed=1),
                         resume_from=tmp_path / "ckpt_0000005.emom")


def test_a_consumer_that_stops_after_k_steps_holds_the_k_iteration_model():
    corpus, k = synth_corpus(), 3
    cfg = dict(learning_rate=1e-3, batch_pairs=2, seed=5)
    for params, rows in itertools.islice(
            train_steps(corpus, tiny_cfg(), TrainConfig(iterations=10, **cfg)), k):
        pass
    ref = train_rank_model(corpus, tiny_cfg(), TrainConfig(iterations=k, **cfg))
    assert params_digest(params) == params_digest(ref.params)
    np.testing.assert_array_equal(np.asarray(rows), ref.trace)


def test_a_due_checkpoint_exists_when_its_step_is_yielded(tmp_path):
    cfg = TrainConfig(iterations=7, learning_rate=1e-3, batch_pairs=2, seed=1,
                      checkpoint_every=3)
    seen = []
    for params, rows in train_steps(synth_corpus(), tiny_cfg(), cfg, checkpoint_dir=tmp_path):
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        if len(rows) % 3 == 0:  # the checkpoint holds the model this step yields
            assert params_digest(load_model(tmp_path / f"ckpt_{len(rows):07d}.emom")[0]) \
                == params_digest(params)
    three, six = "ckpt_0000003.emom", "ckpt_0000006.emom"
    assert seen == [[], [], [three], [three], [three], [three, six], [three, six]]


def test_divergence_raises_training_error():
    corpus = synth_corpus()
    cfg = TrainConfig(iterations=50, learning_rate=1e12, batch_pairs=2, seed=0)
    with np.errstate(all="ignore"):  # overflow is the point here
        with pytest.raises(TrainingError, match="iteration"):
            train_rank_model(corpus, tiny_cfg(), cfg)


def test_channel_mismatch_rejected():
    with pytest.raises(ValueError, match="model expects 16 channels, corpus has 82"):
        train_rank_model(synth_corpus(), tiny_cfg(input_dim=16),
                         TrainConfig(iterations=1, learning_rate=0.0, batch_pairs=1, seed=0))


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_csv_round_trip(tmp_path):
    trace = np.array([[0, 1 / 3, 2 / 7, 0.1 * 1 / 3 + 2 / 7],
                      [1, 0.25, 0.5, 0.525]])
    path = tmp_path / "loss.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back, trace)  # repr round-trips exactly
    header = path.read_text().splitlines()[0]
    assert header == "iteration,l_mixup,l_rank,l_total"


def test_trace_csv_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,1,2,3\n")
    with pytest.raises(FileFormatError):
        read_trace_csv(path)


@pytest.mark.parametrize("row, line", [("1,0.5,zero,0.7", 3), ("1,0.5,0.7", 3)],
                         ids=["not_a_number", "three_fields"])
def test_trace_csv_malformed_row_names_its_line(tmp_path, row, line):
    path = tmp_path / "loss.csv"
    path.write_text(f"iteration,l_mixup,l_rank,l_total\n0,1.5,0.5,0.7\n{row}\n")
    with pytest.raises(FileFormatError, match=f"loss.csv:{line}:"):
        read_trace_csv(path)


def test_checkpoint_and_model_bytes_pinned(tmp_path):
    # the on-disk formats are fixed: same params and state, same bytes
    params = init_params(tiny_cfg(input_dim=6), ["neutral", "angry", "amused"],
                         np.random.default_rng(0))
    params.feat_mean = np.arange(6, dtype=np.float32)
    params.feat_std = np.full(6, 2.0, dtype=np.float32)
    adam = AdamState(params.tensors)
    adam.step = 3
    rng = np.random.default_rng(1)
    for name, t in params.tensors.items():
        adam.m[name] = rng.normal(size=t.data.shape).astype(t.data.dtype)
        adam.v[name] = rng.uniform(size=t.data.shape).astype(t.data.dtype)
    trace = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    model, ckpt = tmp_path / "m.emom", tmp_path / "c.emom"
    save_model(params, model, meta={"iterations": 3})
    save_checkpoint(params, adam, 3, trace,
                    TrainConfig(iterations=9, batch_pairs=2, seed=4, checkpoint_every=3),
                    ckpt)

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert sha(model) == "850fdd0cd594a72eb3a4dcd360e9ea73f84d7a8d30506e5774d1dac51902d3a4"
    assert sha(ckpt) == "53ec273a5c6888ce08e6fd91ae2da8563da83552154303196b7329b0756af31e"
