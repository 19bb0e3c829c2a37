"""Codebook construction, persistence, alignment, and conditioning lookups."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from emorank import codebook
from emorank.binio import FileFormatError
from emorank.codebook import (EmotionEntry, IntensityCodebook, PhonemeAlignment,
                              PhonemeInterval, ScoreRecord, build_codebook,
                              classify_utterance, condition, level_names, load_codebook,
                              phoneme_average, read_alignment,
                              read_phoneme_labels, save_codebook,
                              score_corpus, write_alignment)
from emorank.extractor import (ExtractorConfig, forward_intensity, init_params,
                               pool, project_score)
from emorank.features import FeatureMatrix
from emorank.numerics import NonFiniteError, Tensor
from emorank.training import Corpus


def record(score, emotion="angry", pooled=None, n_frames=4, uid=None):
    if pooled is None:
        pooled = np.full(3, float(score))
    return ScoreRecord(uid or f"{emotion}_{score}", emotion, float(score),
                       np.asarray(pooled, dtype=np.float64), n_frames)


def tiny_model(n_classes=3):
    cfg = ExtractorConfig(input_dim=6, hidden_dim=8, n_fft_blocks=1, n_heads=2,
                          conv_kernel=3, conv_filter_dim=8, dropout=0.0,
                          n_emotion_classes=n_classes, projector_hidden=4)
    labels = ["neutral", "angry", "amused"][:n_classes]
    return init_params(cfg, labels, np.random.default_rng(0))


def mini_corpus():
    utts = []
    rng = np.random.default_rng(1)
    for spk in ("s0",):
        for emo in ("neutral", "angry", "amused"):
            for k in range(3):
                fr = rng.normal(size=(5 + k, 6)).astype(np.float32)
                fr[:, -2] = np.abs(fr[:, -2])
                utts.append(FeatureMatrix(fr, 40.0, f"{spk}_{emo}_{k}", emo, spk))
    return Corpus(utts)


# ---------------------------------------------------------------------------
# scoring


def test_score_corpus_covers_non_neutral_in_order():
    params, corpus = tiny_model(), mini_corpus()
    records = score_corpus(params, corpus)
    assert [r.utterance_id for r in records] == \
        [u.source_id for u in corpus if u.emotion_label != "neutral"]
    assert all(r.i_seq is None for r in records)
    for r in records:
        assert r.pooled.shape == (8,)
        assert r.pooled.dtype == np.float64
        assert np.isfinite(r.score)


def test_score_corpus_refuses_a_non_finite_score():
    # finite weights whose read-out overflows float32: the intensity passes
    # the forward's finiteness check, the score does not
    params, corpus = tiny_model(), mini_corpus()
    params["proj.w1"].data[:] = 0.0
    params["proj.b1"].data[:] = 10.0  # every projector unit reads tanh(10)
    params["proj.w2"].data[:] = np.finfo(np.float32).max
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                   match="angry_0 has a non-finite score"):
        score_corpus(params, corpus)


def test_score_corpus_matches_manual_forward():
    params, corpus = tiny_model(), mini_corpus()
    rec = score_corpus(params, corpus, keep_sequences=True)[0]
    u = next(x for x in corpus if x.source_id == rec.utterance_id)
    i_seq = forward_intensity(params, u.frames, u.emotion_label)
    assert rec.i_seq.shape == (u.n_frames, 8)
    np.testing.assert_array_equal(rec.i_seq, i_seq.data.astype(np.float64))
    assert rec.score == project_score(params, pool(i_seq)).item()
    assert rec.n_frames == u.n_frames


def ragged_corpus(lengths, seed=2):
    """One utterance per length, cycling angry, neutral, amused labels."""
    rng = np.random.default_rng(seed)
    utts = []
    for i, n in enumerate(lengths):
        fr = rng.normal(size=(n, 6)).astype(np.float32)
        fr[:, -2] = np.abs(fr[:, -2])
        emo = ("angry", "neutral", "amused")[i % 3]
        utts.append(FeatureMatrix(fr, 40.0, f"u{i}", emo, "s0"))
    return Corpus(utts, require_roles=False)


def record_chunks(monkeypatch):
    """Wrap the scoring forward; returns the list of (frame counts, output)
    of its calls."""
    calls = []
    real = codebook.forward_intensity

    def counting_forward(params, x, emotion_class, **kw):
        out = real(params, x, emotion_class, **kw)
        calls.append(([len(f) for f in x], out))
        return out

    monkeypatch.setattr(codebook, "forward_intensity", counting_forward)
    return calls


def test_score_corpus_runs_one_tape_free_forward_per_chunk(monkeypatch):
    cap, solo = codebook._SCORE_CHUNK_FRAMES, codebook._SCORE_SOLO_FRAMES
    # neutral utterances (every third) are skipped without ending a chunk
    lengths = [cap - 400, 7, 500, 30, 3, cap + 100, solo, 50, 1, 200, 9, 200]
    params, corpus = tiny_model(), ragged_corpus(lengths)
    calls = record_chunks(monkeypatch)
    records = score_corpus(params, corpus)
    assert [frames for frames, _ in calls] == \
        [[cap - 400], [500, 30], [cap + 100], [solo], [1], [200, 200]]
    assert [r.utterance_id for r in records] == \
        [u.source_id for u in corpus if u.emotion_label != "neutral"]
    for _, out in calls:
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
    assert all(t.grad is None for t in params.tensors.values())
    for r, u in zip(records, (u for u in corpus if u.emotion_label != "neutral")):
        h = pool(forward_intensity(params, u.frames, u.emotion_label))
        assert r.score == project_score(params, h).item()
        assert r.pooled.tobytes() == h.data.astype(np.float64).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_corpus_keeps_each_utterances_own_sequence(monkeypatch, dtype):
    params = tiny_model()
    for t in params.tensors.values():
        t.data = t.data.astype(dtype)
    corpus = ragged_corpus([20, 1, 33, 25, 1, 41])
    calls = record_chunks(monkeypatch)
    records = score_corpus(params, corpus, keep_sequences=True)
    [(frames, chunk)] = calls
    assert frames == [20, 33, 25, 41]
    lo = 0
    for r, u in zip(records, (u for u in corpus if u.emotion_label != "neutral")):
        assert r.i_seq.shape == (u.n_frames, 8) and r.i_seq.dtype == np.float64
        np.testing.assert_array_equal(r.i_seq, chunk.data[lo:lo + u.n_frames])
        np.testing.assert_array_equal(
            r.i_seq, forward_intensity(params, u.frames, u.emotion_label).data)
        # a copy of its rows, not a view that keeps the whole chunk alive
        assert r.i_seq.base is None and not np.shares_memory(r.i_seq, chunk.data)
        assert r.pooled.base is None
        lo += u.n_frames


_SCORE_THREADS_SCRIPT = """
import hashlib
import numpy as np
from emorank.codebook import _SCORE_CHUNK_FRAMES, score_corpus
from emorank.extractor import (ExtractorConfig, forward_intensity, init_params,
                               pool, project_score)
from emorank.features import FeatureMatrix
from emorank.training import Corpus
rng = np.random.default_rng(5)
emotions = ["neutral", "angry", "amused"]
params = init_params(ExtractorConfig(n_emotion_classes=3), emotions, rng)
params.feat_mean = rng.normal(size=82).astype(np.float32)
params.feat_std = rng.uniform(0.5, 2.0, size=82).astype(np.float32)
lengths = [135, 300, 700, 90, 2, 135, _SCORE_CHUNK_FRAMES + 77, 1, 60, 513, 3, 240, 50, 1100]
utts = []
for i, n in enumerate(lengths):
    fr = rng.normal(size=(n, 82)).astype(np.float32)
    fr[:, -2] = np.abs(fr[:, -2])
    utts.append(FeatureMatrix(fr, 40.0, f"u{i}", emotions[i % 3], "s0"))
corpus = Corpus(utts, require_roles=False)
records = score_corpus(params, corpus, keep_sequences=True)
scored = [u for u in utts if u.emotion_label != "neutral"]
assert [r.utterance_id for r in records] == [u.source_id for u in scored]
bad, digest = [], hashlib.sha256()
for r, u in zip(records, scored):
    digest.update(np.float64(r.score).tobytes() + r.pooled.tobytes() + r.i_seq.tobytes())
    i_seq = forward_intensity(params, u.frames, u.emotion_label)
    h = pool(i_seq)
    if not (r.score == project_score(params, h).item()
            and r.pooled.tobytes() == h.data.astype(np.float64).tobytes()
            and r.i_seq.tobytes() == i_seq.data.astype(np.float64).tobytes()):
        bad.append(u.source_id)
print(len(records), "records, mismatched:", bad)
print(digest.hexdigest())
"""


def test_score_corpus_is_bitwise_the_lone_forward_for_1_and_2_blas_threads():
    # paper width, ragged lengths: chunks of several utterances, a chunk
    # boundary, an utterance over the chunk cap and some few-frame ones;
    # every record, those of 300-1,101 frames too, is also the same bytes
    # for both thread counts
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _SCORE_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        *check, digest = out.stdout.split("\n")[:2]
        assert check == ["9 records, mismatched: []"], (threads, out.stdout)
        digests.add(digest)
    assert len(digests) == 1


def test_classify_utterance_returns_class_index():
    params, corpus = tiny_model(), mini_corpus()
    idx = classify_utterance(params, corpus.utterances[0].frames, "angry")
    assert idx in (0, 1, 2)


# ---------------------------------------------------------------------------
# binning


def test_quantile_bins_on_1_to_6():
    records = [record(s) for s in (4, 1, 6, 3, 2, 5)]  # order must not matter
    cb = build_codebook(records, n_bins=3)
    entry = cb.emotions["angry"]
    assert list(entry.levels) == ["Min", "Median", "Max"]
    assert entry.boundaries == [2.5, 4.5]
    assert entry.mean_scores == {"Min": 1.5, "Median": 3.5, "Max": 5.5}
    # pooled vectors were score-valued, so bin means are the score means
    np.testing.assert_allclose(entry.levels["Min"], np.full(3, 1.5))
    np.testing.assert_allclose(entry.levels["Median"], np.full(3, 3.5))
    np.testing.assert_allclose(entry.levels["Max"], np.full(3, 5.5))


def test_level_for_score_boundaries_inclusive_below():
    entry = build_codebook([record(s) for s in (1, 2, 3, 4, 5, 6)],
                           n_bins=3).emotions["angry"]
    assert entry.level_for_score(-10.0) == "Min"
    assert entry.level_for_score(2.5) == "Min"
    assert entry.level_for_score(2.51) == "Median"
    assert entry.level_for_score(4.5) == "Median"
    assert entry.level_for_score(4.51) == "Max"
    assert entry.level_for_score(100.0) == "Max"


def test_uneven_split_puts_extra_in_early_bins():
    cb = build_codebook([record(s) for s in range(7)], n_bins=3)
    sizes = [len([s for s in range(7)
                  if cb.emotions["angry"].level_for_score(float(s)) == name])
             for name in ("Min", "Median", "Max")]
    assert sizes == [3, 2, 2]


def test_multiple_emotions_partition_independently():
    records = [record(s, "angry") for s in (1, 2, 3)] \
        + [record(s, "amused") for s in (10, 20, 30)]
    cb = build_codebook(records, n_bins=3)
    assert set(cb.emotions) == {"angry", "amused"}
    assert cb.emotions["angry"].boundaries == [1.5, 2.5]
    assert cb.emotions["amused"].boundaries == [15.0, 25.0]


def test_frames_weighting():
    records = [record(1.0, pooled=[2.0, 0.0], n_frames=1),
               record(2.0, pooled=[5.0, 0.0], n_frames=3),
               record(3.0, pooled=[0.0, 0.0], n_frames=1)]
    pooled_cb = build_codebook(records, n_bins=1, level_source="pooled")
    np.testing.assert_allclose(pooled_cb.emotions["angry"].levels["L0"],
                               [(2 + 5 + 0) / 3, 0.0])
    frames_cb = build_codebook(records, n_bins=1, level_source="frames")
    np.testing.assert_allclose(frames_cb.emotions["angry"].levels["L0"],
                               [(2 * 1 + 5 * 3 + 0 * 1) / 5, 0.0])


def test_fixed_policy_uses_equal_width():
    records = [record(s) for s in (0.0, 0.1, 0.2, 1.0)]
    cb = build_codebook(records, n_bins=2, policy="fixed")
    entry = cb.emotions["angry"]
    # 0, 0.1, 0.2 land in the lower half, 1.0 alone in the upper
    np.testing.assert_allclose(entry.levels["L0"], np.full(3, 0.1))
    np.testing.assert_allclose(entry.levels["L1"], np.full(3, 1.0))
    with pytest.raises(ValueError):  # middle bin would be empty
        build_codebook([record(s) for s in (0.0, 0.01, 1.0)], n_bins=3,
                       policy="fixed")


def test_degenerate_scores_warn():
    with pytest.warns(UserWarning, match="degenerate"):
        build_codebook([record(2.0, uid=f"u{i}") for i in range(6)], n_bins=3)


def test_build_codebook_validation():
    with pytest.raises(ValueError):
        build_codebook([])
    with pytest.raises(ValueError):
        build_codebook([record(1.0), record(2.0)], n_bins=3)  # too few
    with pytest.raises(ValueError):
        build_codebook([record(1.0, emotion="provenance")] * 3, n_bins=1)
    with pytest.raises(ValueError):
        build_codebook([record(1.0)], n_bins=1, policy="kmeans")
    with pytest.raises(ValueError):
        build_codebook([record(1.0)], n_bins=1, level_source="attention")


def test_level_names():
    assert level_names(3) == ("Min", "Median", "Max")
    assert level_names(2) == ("L0", "L1")
    assert level_names(5)[4] == "L4"


# ---------------------------------------------------------------------------
# lookups and persistence


def build_two_emotion_codebook():
    records = [record(s, "angry", pooled=[s, -s, 0]) for s in (1, 2, 3, 4, 5, 6)] \
        + [record(s, "amused", pooled=[0, s, s]) for s in (2, 4, 6, 8, 10, 12)]
    prov = {"model_hash": "abc", "n_bins": 3}
    return build_codebook(records, n_bins=3, provenance=prov)


def test_vector_lookup_and_neutral_rule():
    cb = build_two_emotion_codebook()
    np.testing.assert_array_equal(cb.vector("neutral"), np.zeros(3))
    np.testing.assert_array_equal(cb.vector("NEUTRAL", "Max"), np.zeros(3))
    np.testing.assert_allclose(cb.vector("angry", "Min"), [1.5, -1.5, 0.0])
    np.testing.assert_allclose(cb.vector(" ANGRY ", "Max"), [5.5, -5.5, 0.0])
    with pytest.raises(KeyError):
        cb.vector("fearful", "Min")
    with pytest.raises(KeyError):
        cb.vector("angry", "Huge")
    with pytest.raises(KeyError):
        cb.vector("angry")


def test_codebook_provenance_records_the_binning_it_used():
    # a caller's record cannot mislabel the levels: build_codebook's own
    # binning settings replace any the record carries
    cb = build_codebook([record(s) for s in range(6)], n_bins=2, policy="fixed",
                        provenance={"seed": 1, "n_bins": 3})
    assert cb.provenance == {"seed": 1, "n_bins": 2, "bin_policy": "fixed",
                             "level_source": "pooled"}


def test_codebook_json_round_trip(tmp_path):
    cb = build_two_emotion_codebook()
    path = tmp_path / "codebook.json"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.hidden_dim == 3
    assert back.provenance == cb.provenance
    assert set(back.emotions) == set(cb.emotions)
    for emotion, entry in cb.emotions.items():
        other = back.emotions[emotion]
        assert other.boundaries == entry.boundaries
        assert list(other.levels) == ["Min", "Median", "Max"]  # order restored
        assert other.mean_scores == entry.mean_scores
        for name in entry.levels:
            np.testing.assert_array_equal(other.levels[name], entry.levels[name])
    # level_for_score still resolves ascending after the round trip
    assert back.emotions["angry"].level_for_score(1.0) == "Min"
    assert back.emotions["angry"].level_for_score(6.0) == "Max"


def test_load_codebook_requires_neutral(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(FileFormatError):
        load_codebook(path)
    good = {"angry": {"boundaries": [0.5], "levels": {"L0": [0.0, 1.0], "L1": [1.0, 2.0]}},
            "neutral": [0.0, 0.0]}
    path.write_text(json.dumps(good))
    assert load_codebook(path).hidden_dim == 2
    no_levels = {"angry": {"boundaries": [0.5]}, "neutral": [0.0, 0.0]}
    wide = {"angry": {"boundaries": [0.5], "levels": {"L0": [0.0, 1.0], "L1": [1.0, 2.0, 3.0]}},
            "neutral": [0.0, 0.0]}
    # level_for_score would index past the levels with these boundaries
    extra_bounds = {"angry": {**good["angry"], "boundaries": [0.1, 0.2, 0.3]},
                    "neutral": [0.0, 0.0]}
    three = {"L0": [0.0, 1.0], "L1": [1.0, 2.0], "L2": [2.0, 3.0]}
    falling = {"angry": {"boundaries": [0.6, 0.4], "levels": three}, "neutral": [0.0, 0.0]}
    for text in ("{nope", "[]", json.dumps({"neutral": 5}), json.dumps(no_levels),
                 json.dumps(wide), json.dumps({**good, "angry": 3}),
                 json.dumps(extra_bounds), json.dumps(falling)):
        path.write_text(text)
        with pytest.raises(FileFormatError):
            load_codebook(path)


# ---------------------------------------------------------------------------
# phoneme alignment


def test_alignment_file_round_trip(tmp_path):
    align = PhonemeAlignment([PhonemeInterval("HH", 0.0, 0.12),
                              PhonemeInterval("AH", 0.12, 0.31),
                              PhonemeInterval("T", 0.31, 0.5)])
    path = tmp_path / "a.align"
    write_alignment(align, path)
    assert path.read_text().splitlines()[0] == "#phonemes v1"
    back = read_alignment(path)
    assert len(back) == 3
    assert back.end_s == 0.5
    for a, b in zip(align.intervals, back.intervals):
        assert (a.symbol, a.start_s, a.end_s) == (b.symbol, b.start_s, b.end_s)


def test_alignment_parse_errors(tmp_path):
    no_header = tmp_path / "x.align"
    no_header.write_text("HH\t0.0\t0.1\n")
    with pytest.raises(FileFormatError):
        read_alignment(no_header)
    bad_cols = tmp_path / "y.align"
    bad_cols.write_text("#phonemes v1\n\nHH 0.0 0.1\n")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(bad_cols))}:3: "):
        read_alignment(bad_cols)
    for start in ("zero", "nan", "-inf"):
        bad_time = tmp_path / "z.align"
        bad_time.write_text(f"#phonemes v1\nHH\t{start}\t0.1\n")
        with pytest.raises(FileFormatError):
            read_alignment(bad_time)


def test_alignment_validation():
    with pytest.raises(ValueError):
        PhonemeAlignment([])
    with pytest.raises(ValueError):
        PhonemeAlignment([PhonemeInterval("A", 0.2, 0.1)])
    with pytest.raises(ValueError):
        PhonemeAlignment([PhonemeInterval("A", -0.1, 0.1)])
    for end in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PhonemeAlignment([PhonemeInterval("A", 0.0, end)])
    with pytest.raises(ValueError):  # overlap
        PhonemeAlignment([PhonemeInterval("A", 0.0, 0.3),
                          PhonemeInterval("B", 0.2, 0.4)])
    # gaps (silence between phonemes) are allowed
    PhonemeAlignment([PhonemeInterval("A", 0.0, 0.3),
                      PhonemeInterval("B", 0.5, 0.7)])


def brute_force_average(data, align, rate):
    rows = []
    centers = [(t + 0.5) / rate for t in range(len(data))]
    for iv in align.intervals:
        members = [data[t] for t, c in enumerate(centers)
                   if iv.start_s <= c < iv.end_s]
        if members:
            rows.append(np.mean(members, axis=0))
        else:
            mid = (iv.start_s + iv.end_s) / 2.0
            rows.append(data[min(range(len(data)),
                                 key=lambda t: abs(centers[t] - mid))])
    return np.stack(rows)


def test_phoneme_average_matches_brute_force():
    rng = np.random.default_rng(9)
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
        out = phoneme_average(data, align, rate)
        np.testing.assert_allclose(out, brute_force_average(data, align, rate),
                                   atol=1e-6)


def test_single_interval_equals_pool():
    data = np.random.default_rng(3).normal(size=(11, 4))
    align = PhonemeAlignment([PhonemeInterval("ALL", 0.0, 11 / 40.0)])
    out = phoneme_average(Tensor(data), align, 40.0)
    np.testing.assert_array_equal(out[0], pool(Tensor(data)).data[0])


def test_empty_interval_takes_nearest_frame():
    data = np.arange(40, dtype=np.float64).reshape(10, 4)
    # centers at 0.0125k + 0.0125; an interval inside (0.0375, 0.05) owns none
    align = PhonemeAlignment([PhonemeInterval("T", 0.04, 0.045)])
    out = phoneme_average(data, align, 80.0)
    centers = (np.arange(10) + 0.5) / 80.0
    nearest = int(np.argmin(np.abs(centers - 0.0425)))
    np.testing.assert_array_equal(out[0], data[nearest])


def test_phoneme_average_validation():
    data = np.zeros((8, 3))
    with pytest.raises(ValueError):  # alignment longer than the sequence
        phoneme_average(data, PhonemeAlignment([PhonemeInterval("A", 0.0, 1.0)]),
                        40.0)
    with pytest.raises(ValueError):
        phoneme_average(np.zeros(8),
                        PhonemeAlignment([PhonemeInterval("A", 0.0, 0.1)]), 40.0)


# ---------------------------------------------------------------------------
# conditioning


def test_condition_rows_and_neutral_zeros():
    cb = build_two_emotion_codebook()
    labels = [("neutral", "-"), ("angry", "Min"), ("amused", "Max"),
              ("neutral", "Max"), ("angry", "Median")]
    out = condition(cb, labels)
    assert out.shape == (5, 3)
    np.testing.assert_array_equal(out[0], 0.0)
    np.testing.assert_array_equal(out[3], 0.0)
    np.testing.assert_allclose(out[1], cb.vector("angry", "Min"))
    np.testing.assert_allclose(out[2], cb.vector("amused", "Max"))
    with pytest.raises(ValueError):
        condition(cb, [])
    with pytest.raises(KeyError):
        condition(cb, [("angry", "Gigantic")])


def test_condition_round_trip_via_level_for_score():
    # scoring an utterance, resolving its level, then conditioning must hand
    # back exactly the stored level vector
    cb = build_two_emotion_codebook()
    entry = cb.emotions["angry"]
    for score in (0.8, 3.3, 7.0):
        level = entry.level_for_score(score)
        row = condition(cb, [("angry", level)])[0]
        np.testing.assert_array_equal(row, entry.levels[level])


def test_read_phoneme_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("#levels v1\nneutral\t-\nangry\tMax\n\namused\tMin\n")
    assert read_phoneme_labels(path) == [("neutral", "-"), ("angry", "Max"),
                                         ("amused", "Min")]
    bad = tmp_path / "bad.txt"
    bad.write_text("angry\tMax\n")
    with pytest.raises(FileFormatError):
        read_phoneme_labels(bad)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("#levels v1\nneutral\t-\nangry Max\n")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(bad2))}:3: "):
        read_phoneme_labels(bad2)
