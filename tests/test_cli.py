"""End-to-end command line coverage: the full pipeline inside a temp dir,
exit-code mapping, provenance sidecars, and seed resolution."""

import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
import scipy.io.wavfile

from emorank.binio import read_table_section, write_table_section
from emorank.cli import main
from emorank.codebook import load_codebook
from emorank.extractor import EMOM_MAGIC, EMOM_VERSION, load_model
from emorank.features import read_emof, read_features, write_emof
from emorank.runconfig import RunConfig, SEED_ENV_VAR
from emorank.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, corpus_digest,
                              load_corpus, read_trace_csv)
from params_oracle import params_digest

# small enough that synthdata + train stay in the low seconds
CFG_DOC = {
    "seed": 3,
    "extractor": {"hidden_dim": 8, "n_fft_blocks": 1, "n_heads": 2,
                  "conv_kernel": 3, "conv_filter_dim": 8, "dropout": 0.1,
                  "projector_hidden": 4},
    "train": {"iterations": 30, "learning_rate": 1e-3, "batch_pairs": 2},
    "synth": {"n_speakers": 1, "n_emotions": 2, "utterances_per_cell": 9,
              "frame_length_range": [6, 10]},
    "gradcheck": {"time_frames": 4, "input_dim": 6, "hidden_dim": 8,
                  "conv_filter_dim": 8, "projector_hidden": 4},
}

HEX64 = set("0123456789abcdef")


def is_hex64(s) -> bool:
    return isinstance(s, str) and len(s) == 64 and set(s) <= HEX64


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_provenance(artifact) -> dict:
    with open(str(artifact) + ".provenance.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synthdata -> train, shared by the downstream command tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(CFG_DOC))
    corpus_dir = tmp / "corpus"
    model = tmp / "model.emom"
    assert main(["synthdata", "--config", str(cfg), str(corpus_dir)]) == 0
    assert main(["train", "--config", str(cfg), str(corpus_dir), str(model)]) == 0
    return {"tmp": tmp, "cfg": str(cfg), "corpus": str(corpus_dir),
            "model": str(model)}


# ---------------------------------------------------------------------------
# pipeline artifacts


def test_synthdata_artifacts(pipeline):
    emofs = sorted(p for p in os.listdir(pipeline["corpus"]) if p.endswith(".emof"))
    assert len(emofs) == 1 * 3 * 9  # speakers x (neutral + 2 emotions) x per cell
    assert os.path.exists(os.path.join(pipeline["corpus"], "metadata.csv"))
    prov = read_provenance(os.path.join(pipeline["corpus"], "corpus"))
    assert prov["command"] == "synthdata"
    assert prov["tool"].startswith("emorank ")
    assert prov["seed"] == 3
    assert prov["config_hash"] == RunConfig(CFG_DOC).config_hash()
    assert is_hex64(prov["inputs"]["spec"])
    assert is_hex64(prov["corpus_hash"])


def test_train_artifacts(pipeline):
    params, meta = load_model(pipeline["model"])
    assert params.config.hidden_dim == 8
    assert len(params.emotions) == 3 and "neutral" in params.emotions
    assert meta["iterations"] == 30 and meta["seed"] == 3
    trace = read_trace_csv(os.path.join(pipeline["tmp"], "model_loss.csv"))
    assert trace.shape == (30, 4)
    prov = read_provenance(pipeline["model"])
    assert prov["command"] == "train"
    assert prov["model_hash"] == file_sha256(pipeline["model"])
    assert prov["inputs"]["corpus_hash"] == corpus_digest(load_corpus(pipeline["corpus"]))
    assert prov["inputs"]["resume_from"] is None


def test_log_every_prints_the_recorded_rows(pipeline, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "m.emom"
    assert main(["train", "--config", pipeline["cfg"], pipeline["corpus"], str(out),
                 "--iterations", "4", "--log-every", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "iter 2/4  l_mixup=2.6335  l_rank=0.6876  l_total=0.9510",
        "iter 4/4  l_mixup=2.5025  l_rank=0.6601  l_total=0.9104",
        f"trained 4 iterations; final l_total=0.910375; model -> {out}; "
        f"loss trace -> {tmp_path / 'm_loss.csv'}"]


def test_train_flag_overrides_and_resume(pipeline, tmp_path):
    out = tmp_path / "short.emom"
    loss = tmp_path / "trace.csv"
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
               str(out), "--iterations", "5", "--checkpoint-every", "2",
               "--checkpoint-dir", str(ckpt), "--loss-csv", str(loss)])
    assert rc == 0
    assert read_trace_csv(loss).shape == (5, 4)
    assert sorted(os.listdir(ckpt)) == ["ckpt_0000002.emom", "ckpt_0000004.emom"]
    resumed = tmp_path / "resumed.emom"
    rc = main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
               str(resumed), "--iterations", "5",
               "--resume", str(ckpt / "ckpt_0000002.emom")])
    assert rc == 0
    # resuming from iteration 2 reproduces the uninterrupted 5-iteration run
    assert params_digest(load_model(resumed)[0]) == params_digest(load_model(out)[0])
    # the checkpoint is named by its content, like every other input
    assert read_provenance(resumed)["inputs"]["resume_from"] == \
        file_sha256(ckpt / "ckpt_0000002.emom")


def rewrite_sections(path, *edits):
    """Apply ``edits[i](header, tables)`` to the i-th table section of a
    model or checkpoint file and write the file back."""
    sections = []
    with open(path, "rb") as fh:
        for magic, version in [(EMOM_MAGIC, EMOM_VERSION),
                               (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)][:len(edits)]:
            sections.append((magic, version, *read_table_section(fh, magic, version)))
    out = io.BytesIO()
    for (magic, version, header, tables), edit in zip(sections, edits):
        edit(header, tables)
        write_table_section(out, magic, version, header, tables)
    path.write_bytes(out.getvalue())


def keep(header, tables):
    pass


@pytest.mark.parametrize("edit, named", [
    (lambda meta, t: t.update({"adam.m.in_proj.w": np.zeros(3, np.float32)}),
     "adam.m.in_proj.w"),
    (lambda meta, t: t.update({"adam.v.in_proj.w": np.zeros((500, 8), np.float32)}),
     "adam.v.in_proj.w"),
    (lambda meta, t: t.pop("adam.m.in_proj.w"), "adam.m.in_proj.w"),
    (lambda meta, t: t.pop("trace"), "'trace' missing"),
    (lambda meta, t: t.update(trace=t["trace"][:, :3]), "'trace' (2, 3)"),
    (lambda meta, t: t.update({"adam.m.extra": np.zeros(1, np.float32)}),
     "unexpected 'adam.m.extra'"),
    (lambda meta, t: meta.pop("iteration"), "iteration"),
    (lambda meta, t: meta.pop("adam_step"), "adam_step"),
    (lambda meta, t: meta.pop("train_config"), "train_config"),
    # moments of the parameters' dtype, not f8 moments for f4 parameters
    (lambda meta, t: t.update({k: v.astype(np.float64) for k, v in t.items()
                               if k.startswith("adam.m.")}), "moments need one dtype"),
], ids=["m_flat", "v_too_tall", "m_missing", "trace_missing", "trace_3_wide",
        "unexpected_table", "no_iteration", "no_adam_step", "no_train_config", "m_f8"])
def test_resume_rejects_malformed_moment_tables(pipeline, tmp_path, capsys, edit, named):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
                 str(tmp_path / "first.emom"), "--iterations", "3",
                 "--checkpoint-every", "2", "--checkpoint-dir", str(ckpt)]) == 0
    path = ckpt / "ckpt_0000002.emom"
    rewrite_sections(path, keep, edit)
    written = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
                 str(tmp_path / "resumed.emom"), "--iterations", "5",
                 "--resume", str(path)]) == 4
    assert named in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == written


@pytest.mark.parametrize("flags, key", [
    (["--seed", "4"], "train.seed: checkpoint 3, this run 4"),
    (["--learning-rate", "0.002"], "train.learning_rate: checkpoint 0.001, this run 0.002"),
])
def test_resume_rejects_a_differently_configured_run(pipeline, tmp_path, capsys, flags, key):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
                 str(tmp_path / "first.emom"), "--iterations", "3",
                 "--checkpoint-every", "2", "--checkpoint-dir", str(ckpt)]) == 0
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
               str(tmp_path / "resumed.emom"), "--iterations", "5",
               "--resume", str(ckpt / "ckpt_0000002.emom"), *flags])
    assert rc == 5
    assert key in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == written


def test_score_to_csv(pipeline, tmp_path):
    out = tmp_path / "scores.csv"
    assert main(["score", pipeline["model"], pipeline["corpus"],
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "utterance_id,emotion,score"
    assert len(lines) == 1 + 18  # every non-neutral utterance
    for line in lines[1:]:
        uid, emotion, score = line.split(",")
        assert emotion != "neutral"
        assert math.isfinite(float(score))
    prov = read_provenance(out)
    assert prov["n_records"] == 18
    assert is_hex64(prov["inputs"]["model"])


def test_score_to_stdout(pipeline, capsys):
    assert main(["score", pipeline["model"], pipeline["corpus"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "utterance_id,emotion,score"
    assert len(lines) == 1 + 18


def test_score_single_file(pipeline, capsys):
    # a lone emotional file has no neutral partner; scoring must not care
    emotional = next(p for p in sorted(os.listdir(pipeline["corpus"]))
                     if p.endswith(".emof")
                     and read_features(os.path.join(pipeline["corpus"], p))
                     .emotion_label != "neutral")
    path = os.path.join(pipeline["corpus"], emotional)
    assert main(["score", pipeline["model"], path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith(os.path.splitext(emotional)[0])


@pytest.fixture(scope="module")
def codebook_path(pipeline):
    out = os.path.join(pipeline["tmp"], "codebook.json")
    assert main(["codebook", "--config", pipeline["cfg"], pipeline["model"],
                 pipeline["corpus"], out]) == 0
    return out


def test_codebook_artifact(pipeline, codebook_path):
    cb = load_codebook(codebook_path)
    assert cb.hidden_dim == 8
    assert set(cb.emotions) == set(load_corpus(pipeline["corpus"]).emotion_labels)
    for entry in cb.emotions.values():
        assert list(entry.levels) == ["Min", "Median", "Max"]
    assert cb.provenance["n_bins"] == 3
    assert cb.provenance["bin_policy"] == "quantile"
    assert cb.provenance["config_hash"] == RunConfig(CFG_DOC).config_hash()


def test_codebook_needs_no_neutral_files(pipeline, codebook_path, tmp_path):
    # only non-neutral utterances are scored, so the neutral ones change nothing
    emotional = tmp_path / "emotional"
    emotional.mkdir()
    for name in sorted(os.listdir(pipeline["corpus"])):
        path = os.path.join(pipeline["corpus"], name)
        if name.endswith(".emof") and read_features(path).emotion_label != "neutral":
            shutil.copy(path, emotional / name)
    out = tmp_path / "cb.json"
    assert main(["codebook", "--config", pipeline["cfg"], pipeline["model"],
                 str(emotional), str(out)]) == 0
    got, want = load_codebook(out), load_codebook(codebook_path)
    assert sorted(got.emotions) == sorted(want.emotions)
    for emotion, entry in want.emotions.items():
        assert got.emotions[emotion].boundaries == entry.boundaries
        assert got.emotions[emotion].mean_scores == entry.mean_scores
        assert list(got.emotions[emotion].levels) == list(entry.levels)
        for level, vector in entry.levels.items():
            np.testing.assert_array_equal(got.emotions[emotion].levels[level], vector)


def test_provenance_names_one_model_through_the_pipeline(pipeline, codebook_path,
                                                         tmp_path):
    # train, score and codebook all name the model by its file's sha256
    model_sha = file_sha256(pipeline["model"])
    assert read_provenance(pipeline["model"])["model_hash"] == model_sha
    scores = tmp_path / "scores.csv"
    assert main(["score", "--config", pipeline["cfg"], pipeline["model"],
                 pipeline["corpus"], "--out", str(scores)]) == 0
    score_prov = read_provenance(scores)
    cb_prov = load_codebook(codebook_path).provenance
    assert score_prov["inputs"]["model"] == model_sha
    assert cb_prov["inputs"]["model"] == model_sha
    assert cb_prov["inputs"]["corpus_hash"] == score_prov["inputs"]["corpus_hash"]
    # the embedded record has the sidecar layout, plus the binning that made it
    assert set(cb_prov) == (set(score_prov) - {"n_records"}) | {"bin_policy",
                                                                "level_source", "n_bins"}
    assert (cb_prov["command"], cb_prov["seed"]) == ("codebook", 3)
    assert cb_prov["config_hash"] == score_prov["config_hash"]
    labels = tmp_path / "utt.labels"
    labels.write_text(f"#levels v1\n{sorted(load_codebook(codebook_path).emotions)[0]}\tMax\n")
    out = tmp_path / "utt.emof"
    assert main(["condition", "--config", pipeline["cfg"], codebook_path, str(labels),
                 str(out)]) == 0
    assert read_provenance(out)["inputs"]["codebook"] == file_sha256(codebook_path)


def test_condition_output(pipeline, codebook_path, tmp_path):
    cb = load_codebook(codebook_path)
    emo_a, emo_b = sorted(cb.emotions)
    labels = tmp_path / "utt1.labels"
    labels.write_text("#levels v1\n"
                      f"neutral\t-\n{emo_a}\tMin\n{emo_b}\tMax\n{emo_a}\tMedian\n")
    out = tmp_path / "utt1.emof"
    assert main(["condition", codebook_path, str(labels), str(out)]) == 0
    frames, frame_rate, label, speaker, source = read_emof(out)
    assert frames.shape == (4, 8)
    assert frame_rate == 1.0 and label == "conditioning" and source == "utt1"
    assert np.all(frames[0] == 0.0)
    np.testing.assert_allclose(frames[1], cb.vector(emo_a, "Min"), rtol=1e-6)
    np.testing.assert_allclose(frames[2], cb.vector(emo_b, "Max"), rtol=1e-6)
    prov = read_provenance(out)
    assert prov["n_phonemes"] == 4 and prov["inputs"]["alignment"] is None


def test_condition_with_alignment(pipeline, codebook_path, tmp_path):
    cb = load_codebook(codebook_path)
    emo_a = sorted(cb.emotions)[0]
    labels = tmp_path / "say.labels"
    labels.write_text(f"#levels v1\nneutral\t-\n{emo_a}\tMax\n")
    align = tmp_path / "say.align"
    align.write_text("#phonemes v1\nsil\t0.0\t0.12\nAH\t0.12\t0.3\n")
    out = tmp_path / "say.emof"
    assert main(["condition", codebook_path, str(labels), str(out),
                 "--alignment", str(align)]) == 0
    prov = read_provenance(out)
    assert prov["alignment_symbols"] == ["sil", "AH"]
    assert prov["alignment_end_s"] == 0.3
    # off-by-one between labels and alignment must be loud, not resampled
    short = tmp_path / "short.align"
    short.write_text("#phonemes v1\nsil\t0.0\t0.3\n")
    assert main(["condition", codebook_path, str(labels), str(out),
                 "--alignment", str(short)]) == 5


@pytest.mark.parametrize("text", [
    "#phonemes v1\n",
    "#phonemes v1\nAH\t0.3\t0.1\n",
    "#phonemes v1\nAH\t0.0\t0.3\nB\t0.2\t0.4\n",
    "#phonemes v1\nA\xff\t0.0\t0.3\nB\t0.3\t0.4\n",
], ids=["header_only", "ends_before_it_starts", "overlapping", "not_utf8"])
def test_malformed_alignment_exits_4_and_writes_nothing(codebook_path, tmp_path, capsys,
                                                        text):
    emotion = sorted(load_codebook(codebook_path).emotions)[0]
    labels = tmp_path / "say.labels"
    labels.write_text(f"#levels v1\n{emotion}\tMin\n{emotion}\tMax\n")
    align = tmp_path / "say.align"
    align.write_bytes(text.encode("latin-1"))  # one byte per character
    assert main(["condition", codebook_path, str(labels), str(tmp_path / "say.emof"),
                 "--alignment", str(align)]) == 4
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["say.align", "say.labels"]


def test_header_only_labels_exit_4_and_write_nothing(codebook_path, tmp_path, capsys):
    labels = tmp_path / "say.labels"
    labels.write_text("#levels v1\n")
    assert main(["condition", codebook_path, str(labels), str(tmp_path / "say.emof")]) == 4
    assert "no phoneme labels" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["say.labels"]


def test_condition_unknown_emotion(codebook_path, tmp_path):
    labels = tmp_path / "bad.labels"
    labels.write_text("#levels v1\nghost\tMin\n")
    out = tmp_path / "bad.emof"
    assert main(["condition", codebook_path, str(labels), str(out)]) == 5


def _label_not_utf8(emof):
    # the label's first byte becomes 0xff, under a valid checksum
    emotion = read_emof(emof)[2].encode()
    body = emof.read_bytes()[:-4].replace(emotion, b"\xff" + emotion[1:], 1)
    emof.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _frames(edit):
    def rewrite(emof):
        frames, *rest = read_emof(emof)
        write_emof(emof, edit(frames), *rest)
    return rewrite


def _raw(edit):
    return lambda emof: emof.write_bytes(edit(emof.read_bytes()))


@pytest.mark.parametrize("command, edit, message", [
    ("mcd", _label_not_utf8, "not UTF-8"),
    ("train", _label_not_utf8, "not UTF-8"),
    ("train", _frames(lambda f: np.vstack([f, np.full((1, f.shape[1]), np.nan)])),
     "non-finite"),
    ("train", _frames(lambda f: np.vstack([f, np.full((1, f.shape[1]), -1.0)])),
     "negative pitch"),
    ("train", _frames(lambda f: f[:, :2]), "C>=3"),
    ("train", _raw(lambda raw: raw[:len(raw) // 2]), "truncated file"),
    ("mcd", _raw(lambda raw: b"JUNK" + raw[4:]), "bad magic"),
    ("train", _raw(lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])), "checksum mismatch"),
], ids=["mcd_label_not_utf8", "label_not_utf8", "nan_frame", "negative_pitch",
        "two_channels", "truncated", "bad_magic", "bad_checksum"])
def test_malformed_emof_exits_4_and_writes_nothing(pipeline, tmp_path, capsys, command,
                                                   edit, message):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(pipeline["corpus"], corpus)
    out.mkdir()
    emof = corpus / sorted(p for p in os.listdir(corpus) if p.endswith(".emof"))[0]
    edit(emof)
    args = {"mcd": [str(emof), str(emof), "--out", str(out / "mcd.json")],
            "train": [str(corpus), str(out / "m.emom"), "--checkpoint-dir",
                      str(out / "ckpt")]}[command]
    capsys.readouterr()
    assert main([command, "--config", pipeline["cfg"], *args]) == 4
    err = capsys.readouterr().err
    assert message in err and str(emof) in err, err
    assert os.listdir(out) == []


# ---------------------------------------------------------------------------
# mcd


def test_mcd_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 82)).astype(np.float32)
    b = a + rng.normal(scale=0.5, size=(6, 82)).astype(np.float32)
    pa, pb = tmp_path / "a.emof", tmp_path / "b.emof"
    write_emof(pa, a, frame_rate_hz=40.0, emotion_label="angry",
               speaker_id="s0", source_id="a")
    write_emof(pb, b, frame_rate_hz=40.0, emotion_label="angry",
               speaker_id="s0", source_id="b")
    report = tmp_path / "mcd.json"
    assert main(["mcd", str(pa), str(pb), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("MCD (dB)")
    doc = json.loads(report.read_text())
    assert doc["metric"] == "MCD" and doc["value"] > 0.0
    assert doc["per_item"][0]["id"] == "a vs b"
    prov = read_provenance(report)
    assert is_hex64(prov["inputs"]["seq_a"]) and is_hex64(prov["inputs"]["seq_b"])
    # self-distance is exactly zero
    assert main(["mcd", str(pa), str(pa)]) == 0
    assert "overall: 0.000000" in capsys.readouterr().out
    # mismatched shapes are a hard error
    pc = tmp_path / "c.emof"
    write_emof(pc, a[:4], frame_rate_hz=40.0, emotion_label="angry",
               speaker_id="s0", source_id="c")
    assert main(["mcd", str(pa), str(pc)]) == 5


# ---------------------------------------------------------------------------
# featurize


def write_wav(path, seconds=0.2, sr=16000, freq=220.0):
    t = np.arange(int(seconds * sr)) / sr
    audio = 0.4 * np.sin(2 * np.pi * freq * t)
    scipy.io.wavfile.write(path, sr, (audio * 32767).astype(np.int16))


def test_featurize_partial_then_complete(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    for name in ("a.wav", "b.wav", "c.wav"):
        write_wav(wav_dir / name)
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\n"
                      "a.wav,s0,angry\nb.wav,s0,neutral\n")
    out_dir = tmp_path / "feat"
    rc = main(["featurize", str(wav_dir), str(labels), str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 6
    assert "2 ok, 1 failed" in captured.out
    assert "c.wav" in captured.err and "no row in labels CSV" in captured.err
    assert sorted(p for p in os.listdir(out_dir) if p.endswith(".emof")) \
        == ["a.emof", "b.emof"]
    prov = read_provenance(out_dir / "featurize")
    assert prov["ok"] == 2 and prov["failed"] == ["c.wav"]

    fm = read_features(out_dir / "a.emof")
    assert fm.frames.shape == (7, 82)  # (3200 - 800) // 400 + 1 windows
    assert (fm.speaker_id, fm.emotion_label) == ("s0", "angry")

    before = (out_dir / "a.emof").read_bytes()
    labels.write_text("filename,speaker,emotion\n"
                      "a.wav,s0,angry\nb.wav,s0,neutral\nc.wav,s1,amused\n")
    rc = main(["featurize", str(wav_dir), str(labels), str(out_dir)])
    assert rc == 0
    assert "3 ok, 0 failed" in capsys.readouterr().out
    assert (out_dir / "c.emof").exists()
    assert (out_dir / "a.emof").read_bytes() == before  # rerun is bitwise stable


def test_featurize_truncated_wav_header_fails_the_file(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    write_wav(wav_dir / "cut.wav")
    (wav_dir / "cut.wav").write_bytes((wav_dir / "cut.wav").read_bytes()[:30])
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\na.wav,s0,angry\ncut.wav,s0,angry\n")
    out_dir = tmp_path / "feat"
    assert main(["featurize", str(wav_dir), str(labels), str(out_dir)]) == 6
    err = capsys.readouterr().err
    assert str(wav_dir / "cut.wav") in err and "truncated WAV header" in err
    assert sorted(p for p in os.listdir(out_dir) if p.endswith(".emof")) == ["a.emof"]


def test_featurize_wav_with_a_cut_data_chunk_fails_the_file(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    write_wav(wav_dir / "cut.wav", seconds=1.0)
    # the 44-byte header, which still declares 1 s, and 0.1 s of samples
    (wav_dir / "cut.wav").write_bytes((wav_dir / "cut.wav").read_bytes()[:44 + 3200])
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\na.wav,s0,angry\ncut.wav,s0,angry\n")
    out_dir = tmp_path / "feat"
    assert main(["featurize", str(wav_dir), str(labels), str(out_dir)]) == 6
    captured = capsys.readouterr()
    assert "1 ok, 1 failed" in captured.out
    assert str(wav_dir / "cut.wav") in captured.err and "truncated WAV data" in captured.err
    assert sorted(p for p in os.listdir(out_dir) if p.endswith(".emof")) == ["a.emof"]


def test_featurize_wav_with_an_unknown_extra_chunk_still_featurizes(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    write_wav(wav_dir / "extra.wav")
    raw = bytearray((wav_dir / "extra.wav").read_bytes())
    raw += b"abcd" + struct.pack("<I", 4) + bytes(4)  # a chunk no reader knows
    raw[4:8] = struct.pack("<I", len(raw) - 8)  # the RIFF size covers the new chunk
    (wav_dir / "extra.wav").write_bytes(bytes(raw))
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\na.wav,s0,angry\nextra.wav,s0,angry\n")
    out_dir = tmp_path / "feat"
    with pytest.warns(scipy.io.wavfile.WavFileWarning, match="not understood"):
        assert main(["featurize", str(wav_dir), str(labels), str(out_dir)]) == 0
    assert "2 ok, 0 failed" in capsys.readouterr().out
    np.testing.assert_array_equal(read_features(out_dir / "extra.emof").frames,
                                  read_features(out_dir / "a.emof").frames)


def test_featurize_bad_rate_and_pitch_override(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "good.wav")
    write_wav(wav_dir / "slow.wav", sr=8000)
    pitch_dir = tmp_path / "pitch"
    pitch_dir.mkdir()
    (pitch_dir / "good.f0.csv").write_text("".join("150.0\n" for _ in range(7)))
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\n"
                      "good.wav,s0,angry\nslow.wav,s0,angry\n")
    out_dir = tmp_path / "feat"
    rc = main(["featurize", str(wav_dir), str(labels), str(out_dir),
               "--pitch-dir", str(pitch_dir)])
    captured = capsys.readouterr()
    assert rc == 6
    assert "slow.wav" in captured.err and "sample rate 8000" in captured.err
    fm = read_features(out_dir / "good.emof")
    np.testing.assert_allclose(fm.frames[:, 80], np.log(150.0), rtol=1e-6)


def test_featurize_bad_labels_header(tmp_path):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    labels = tmp_path / "labels.csv"
    labels.write_text("file,spk,emo\na.wav,s0,angry\n")
    assert main(["featurize", str(wav_dir), str(labels), str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("text,where", [
    ("", "labels.csv:1:"),
    ("filename,speaker,emotion\na.wav,s0,angry\n\nb.wav,s0\n", "labels.csv:4:"),
])
def test_featurize_malformed_labels_exit_4(tmp_path, capsys, text, where):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    assert main(["featurize", str(wav_dir), str(labels), str(tmp_path / "o")]) == 4
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_featurize_non_finite_pitch_csv_fails_the_file(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    write_wav(wav_dir / "b.wav")
    pitch_dir = tmp_path / "pitch"
    pitch_dir.mkdir()
    (pitch_dir / "a.f0.csv").write_text("150.0\n" * 3 + "nan\n" + "150.0\n" * 3)
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\na.wav,s0,angry\nb.wav,s0,angry\n")
    out_dir = tmp_path / "feat"
    rc = main(["featurize", str(wav_dir), str(labels), str(out_dir),
               "--pitch-dir", str(pitch_dir)])
    captured = capsys.readouterr()
    assert rc == 6
    assert "a.f0.csv:4: not a finite number" in captured.err
    assert sorted(p for p in os.listdir(out_dir) if p.endswith(".emof")) == ["b.emof"]


def test_featurize_window_under_one_sample_exits_5(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "a.wav")
    labels = tmp_path / "labels.csv"
    labels.write_text("filename,speaker,emotion\na.wav,s0,angry\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"features": {"window_ms": 0.01}}))
    out_dir = tmp_path / "feat"
    assert main(["featurize", "--config", str(cfg), str(wav_dir), str(labels),
                 str(out_dir)]) == 5
    assert "under one sample" in capsys.readouterr().err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_pass(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gradcheck": CFG_DOC["gradcheck"]}))
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "gradcheck PASS" in out and "rel_err" in out


@pytest.mark.parametrize("seed", range(6))
def test_gradcheck_passes_for_every_seed(seed, capsys):
    # the key bias has an exactly zero true gradient (softmax ignores a
    # per-row shift); its finite-difference noise must not fail the check
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_gradcheck_catches_a_wrong_sign_backward(monkeypatch, capsys):
    from emorank import numerics as nm
    real_tanh = nm.tanh

    def tanh_wrong_sign(a):
        out = real_tanh(a)
        inner = out._backward
        out._backward = lambda g: inner(-g)
        return out

    monkeypatch.setattr(nm, "tanh", tanh_wrong_sign)
    assert main(["gradcheck", "--seed", "1"]) == 8
    out = capsys.readouterr().out
    assert "proj.w1" in out and "FAIL" in out


def test_gradcheck_failure_exit_code(tmp_path, capsys):
    doc = {"gradcheck": dict(CFG_DOC["gradcheck"], tolerance=1e-18)}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["gradcheck", "--config", str(cfg)]) == 8
    assert "gradcheck FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_inputs_exit_3(pipeline, tmp_path, capsys):
    assert main(["score", str(tmp_path / "nope.emom"), pipeline["corpus"]]) == 3
    assert main(["train", str(tmp_path / "nodir"), str(tmp_path / "m.emom")]) == 3
    assert main(["featurize", str(tmp_path), str(tmp_path / "no.csv"),
                 str(tmp_path / "o")]) == 3
    assert "missing input" in capsys.readouterr().err


def test_format_errors_exit_4(pipeline, tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["synthdata", "--config", str(bad_json), str(tmp_path / "c")]) == 4
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"train": {"lerning_rate": 0.1}}))
    assert main(["synthdata", "--config", str(unknown_key),
                 str(tmp_path / "c")]) == 4
    assert "lerning_rate" in capsys.readouterr().err
    junk = tmp_path / "junk.emom"
    junk.write_bytes(b"JUNKJUNKJUNK")
    assert main(["score", str(junk), pipeline["corpus"]]) == 4
    # malformed codebook and alignment files handed to condition
    good = {"angry": {"boundaries": [0.5], "levels": {"L0": [0.0, 1.0], "L1": [1.0, 2.0]}},
            "neutral": [0.0, 0.0]}
    wide = json.loads(json.dumps(good))
    wide["angry"]["levels"]["L1"] = [1.0, 2.0, 3.0]
    no_levels = {"angry": {"boundaries": [0.5]}, "neutral": [0.0, 0.0]}
    extra_bounds = json.loads(json.dumps(good))
    extra_bounds["angry"]["boundaries"] = [0.1, 0.2, 0.3]
    # json parses NaN and Infinity; no codebook value may be either
    non_finite = []
    for path, value in [(("levels", "L1"), [1.0, math.nan]), (("boundaries",), [math.nan]),
                        (("boundaries",), [math.inf]),
                        (("mean_scores",), {"L0": 0.0, "L1": math.nan})]:
        doc = json.loads(json.dumps(good))
        entry = doc["angry"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        non_finite.append(json.dumps(doc))
    labels = tmp_path / "c.labels"
    labels.write_text("#levels v1\nangry\tL1\n")
    align_ok = "#phonemes v1\nAH\t0.0\t0.3\n"
    cases = [("{nope", align_ok), (json.dumps(no_levels), align_ok),
             (json.dumps(wide), align_ok), (json.dumps({"neutral": 5}), align_ok),
             (json.dumps(extra_bounds), align_ok),
             *((text, align_ok) for text in non_finite),
             (json.dumps(good), "#phonemes v1\nAH\tzero\t0.3\n")]
    for cb_text, align_text in cases:
        cb, align, out = tmp_path / "cb.json", tmp_path / "c.align", tmp_path / "c.emof"
        cb.write_text(cb_text)
        align.write_text(align_text)
        assert main(["condition", str(cb), str(labels), str(out),
                     "--alignment", str(align)]) == 4, cb_text
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "c.align", "c.labels", "cb.json",
                                                "junk.emom", "unknown.json"]
    cb.write_text(json.dumps(good))
    align.write_text(align_ok)
    assert main(["condition", str(cb), str(labels), str(out), "--alignment", str(align)]) == 0
    # config values of the wrong JSON type, rejected before anything is written
    typed = tmp_path / "typed"
    typed.mkdir()
    for command, doc, key in [("train", {"train": {"iterations": "5"}}, "train.iterations"),
                              ("train", {"extractor": {"dropout": "0.1"}}, "extractor.dropout"),
                              ("codebook", {"codebook": {"n_bins": "3"}}, "codebook.n_bins")]:
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(doc))
        if command == "train":
            args = [pipeline["corpus"], str(typed / "m.emom"), "--checkpoint-dir",
                    str(typed / "ckpt")]
        else:
            args = [pipeline["model"], pipeline["corpus"], str(typed / "cb.json")]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *args]) == 4, doc
        assert key in capsys.readouterr().err
        assert os.listdir(typed) == []


def rewrite_model_header(path, edit):
    """Replace the JSON header of an EMOM file with ``edit(header)``, a
    string taken as the header's text or an object to serialize, and re-seal
    its CRC."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = edit(json.loads(raw[12:12 + n]))
    text = (header if isinstance(header, str) else json.dumps(header)).encode("utf-8")
    body = raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + n:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda h: {**h, "config": {**h["config"], "n_layers": 2}}, "no valid extractor config"),
    (without("config"), "no valid extractor config"),
    (lambda h: {**h, "config": {**h["config"], "dropout": 2.0}}, "no valid extractor config"),
    (without("emotions"), "needs 3 emotion labels, got None"),
    (lambda h: {**h, "emotions": h["emotions"] + ["sleepy"]}, "needs 3 emotion labels"),
    (lambda h: "{not json", "header is not a JSON object"),
    (lambda h: json.dumps([h]), "header is not a JSON object"),
], ids=["unknown_key", "missing", "dropout_2", "no_emotions", "extra_emotion", "not_json",
        "not_object"])
def test_bad_config_in_model_header_exits_4(pipeline, tmp_path, capsys, edit, message):
    model = tmp_path / "bad.emom"
    shutil.copy(pipeline["model"], model)
    rewrite_model_header(model, edit)
    assert main(["score", str(model), pipeline["corpus"], "--out",
                 str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert message in err and str(model) in err
    assert os.listdir(tmp_path) == ["bad.emom"]


@pytest.mark.parametrize("edit, named", [
    (lambda h, t: t.pop("feat.std"), "'feat.std' missing"),
    (lambda h, t: t.pop("feat.mean"), "'feat.mean' missing"),
    (lambda h, t: t.update({"feat.mean": t["feat.mean"][:5]}), "'feat.mean' (5,)"),
    (lambda h, t: t.update({"feat.std": t["feat.std"][None]}), "'feat.std' (1, 82)"),
    # every table of a model has the model's one dtype
    (lambda h, t: t.update({"cls.b": t["cls.b"].astype(np.float64)}), "one dtype"),
    (lambda h, t: t.update({k: t[k].astype(np.float64) for k in ("feat.mean", "feat.std")}),
     "one dtype"),
], ids=["mean_only", "std_only", "mean_short", "std_2d", "f8_param_table", "f8_feat_stats"])
def test_bad_feature_stats_in_model_exit_4(pipeline, tmp_path, capsys, edit, named):
    model = tmp_path / "bad.emom"
    shutil.copy(pipeline["model"], model)
    rewrite_sections(model, edit)
    assert main(["score", str(model), pipeline["corpus"], "--out",
                 str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert named in err and str(model) in err
    assert os.listdir(tmp_path) == ["bad.emom"]


@pytest.mark.parametrize("bad", ["seed", "config"])
@pytest.mark.parametrize("command", ["featurize", "synthdata", "train", "score", "codebook",
                                     "condition", "mcd", "gradcheck"])
def test_bad_seed_or_config_exits_4_before_writing(pipeline, codebook_path, tmp_path,
                                                   monkeypatch, capsys, command, bad):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    write_wav(inp / "a.wav")
    (inp / "labels.csv").write_text("filename,speaker,emotion\na.wav,s0,angry\n")
    emotion = sorted(load_codebook(codebook_path).emotions)[0]
    (inp / "p.labels").write_text(f"#levels v1\n{emotion}\tMin\n")
    emof = os.path.join(pipeline["corpus"], sorted(os.listdir(pipeline["corpus"]))[0])
    args = {
        "featurize": [str(inp), str(inp / "labels.csv"), str(out / "feat")],
        "synthdata": [str(out / "corpus")],
        "train": [pipeline["corpus"], str(out / "m.emom"), "--checkpoint-dir",
                  str(out / "ckpt")],
        "score": [pipeline["model"], pipeline["corpus"], "--out", str(out / "s.csv")],
        "codebook": [pipeline["model"], pipeline["corpus"], str(out / "cb.json")],
        "condition": [codebook_path, str(inp / "p.labels"), str(out / "c.emof")],
        "mcd": [emof, emof, "--out", str(out / "mcd.json")],
        "gradcheck": [],
    }[command]
    if bad == "seed":
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
    else:
        (inp / "bad.json").write_text(json.dumps({"train": {"lerning_rate": 0.1}}))
        args = ["--config", str(inp / "bad.json"), *args]
    assert main([command, *args]) == 4
    assert ("EMORANK_SEED" if bad == "seed" else "lerning_rate") in capsys.readouterr().err
    assert os.listdir(out) == []


def test_dimension_errors_exit_5(pipeline, tmp_path):
    narrow = tmp_path / "narrow.emof"
    write_emof(narrow, np.zeros((5, 10), dtype=np.float32), frame_rate_hz=40.0,
               emotion_label="angry", speaker_id="s0", source_id="narrow")
    assert main(["score", pipeline["model"], str(narrow)]) == 5
    # 99 quantile bins cannot be filled by 9 records per emotion
    assert main(["codebook", "--config", pipeline["cfg"], pipeline["model"],
                 pipeline["corpus"], str(tmp_path / "cb.json"),
                 "--bins", "99"]) == 5


@pytest.mark.parametrize("command,flags", [
    ("train", ["--iterations", "0"]),
    ("train", ["--learning-rate", "-1"]),
    ("train", ["--checkpoint-every", "-1"]),
    ("codebook", ["--bins", "0"]),
    ("train", ["--log-every", "-1"]),
])
def test_invalid_flag_overrides_exit_5(pipeline, tmp_path, command, flags):
    # flag overrides are validated like config values, before anything is written
    out = tmp_path / "out"
    if command == "train":
        args = [pipeline["corpus"], str(out), "--checkpoint-dir", str(tmp_path / "ckpt")]
    else:
        args = [pipeline["model"], pipeline["corpus"], str(out)]
    assert main([command, "--config", pipeline["cfg"], *args, *flags]) == 5
    assert os.listdir(tmp_path) == []


def test_training_divergence_exit_7(pipeline, tmp_path, capsys):
    with np.errstate(all="ignore"):  # the blow-up itself is the point
        rc = main(["train", "--config", pipeline["cfg"], pipeline["corpus"],
                   str(tmp_path / "diverged.emom"),
                   "--iterations", "5", "--learning-rate", "1e12"])
    assert rc == 7
    assert "iteration" in capsys.readouterr().err


def test_argparse_errors_exit_2(pipeline, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["codebook", pipeline["model"], pipeline["corpus"],
              str(tmp_path / "cb.json"), "--policy", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# seed resolution and help text


def synthdata_seed(tmp_path, name, argv) -> int:
    out = tmp_path / name
    assert main(argv + [str(out)]) == 0
    return read_provenance(out / "corpus")["seed"]


def test_seed_precedence_across_sources(tmp_path, monkeypatch):
    doc = {"synth": {"n_speakers": 1, "n_emotions": 1, "utterances_per_cell": 9,
                     "frame_length_range": [6, 8]}}
    cfg = tmp_path / "noseed.json"
    cfg.write_text(json.dumps(doc))
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(dict(doc, seed=9)))

    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    base = ["synthdata", "--config", str(cfg)]
    assert synthdata_seed(tmp_path, "d0", base) == 0  # nothing set anywhere
    monkeypatch.setenv(SEED_ENV_VAR, "11")
    assert synthdata_seed(tmp_path, "d1", base) == 11
    assert synthdata_seed(tmp_path, "d2",
                          ["synthdata", "--config", str(seeded)]) == 9
    assert synthdata_seed(tmp_path, "d3", base + ["--seed", "5"]) == 5
    monkeypatch.setenv(SEED_ENV_VAR, "eleven")
    assert main(base + [str(tmp_path / "d4")]) == 4  # unparseable env seed


def test_importing_the_cli_loads_no_scipy_fft_or_stats():
    # only `mcd` needs scipy.fft and scipy.stats, and only reading a WAV
    # scipy.io: no scipy module costs every other command its start-up time
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import sys, emorank.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_help_lists_config_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "train.learning_rate" in out
    assert "seed precedence" in out
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    assert "extractor.hidden_dim" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("emorank ")
