"""Models and checkpoints written while the score had a bias still load.

The rank score's read-out bias ``proj.b2`` never left its initial 0.0,
since training reads scores only through pairwise differences, and the
model no longer holds it. A file in the older layout, written here table by
table with ``binio.write_table_section``, loads with the bias and its Adam
moments dropped, and scores and resumes exactly as it did when the bias was
part of the model: the pinned values below are those it gave then.
"""

import hashlib
import re
from dataclasses import asdict

import numpy as np
import pytest

from emorank.binio import FileFormatError, write_table_section
from emorank.codebook import score_corpus
from emorank.extractor import EMOM_MAGIC, EMOM_VERSION, ExtractorConfig, init_params, load_model
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, TrainConfig,
                              compute_feature_stats, load_checkpoint, train_rank_model)

# score_corpus scores of the model file, as float.hex, in corpus order
PINNED_SCORES = [
    "0x1.1be47e0000000p-2", "0x1.46356e0000000p-2", "0x1.fe00120000000p-3",
    "0x1.3808200000000p-2", "0x1.3813260000000p-2", "0x1.43f0fa0000000p-2",
    "0x1.18506c0000000p-2", "0x1.8bce5c0000000p-3", "0x1.19962c0000000p-2",
    "0x1.47a9aa0000000p-3", "0x1.43047a0000000p-7", "0x1.0bb8620000000p-2",
    "0x1.75a8a20000000p-3", "-0x1.a1fd440000000p-8", "0x1.c1fd740000000p-6",
    "0x1.99e34c0000000p-3", "0x1.f58e280000000p-5", "-0x1.2a70240000000p-7",
]
# sha256 of every score_corpus pooled vector's float64 bytes, in corpus order
PINNED_POOLED_SHA256 = "ccb91e258576c3ed5ad09592dfa83e2d11fa9c488f3f0ec5cea3ab572d0006f0"
# the loss rows of iterations 3 and 4, resumed from the checkpoint, as float.hex
PINNED_RESUMED_ROWS = [
    ["0x1.8000000000000p+1", "0x1.00a7940000000p+1",
     "0x1.61ec100000000p-1", "0x1.c8957e0000000p-1"],
    ["0x1.0000000000000p+2", "0x1.7d751c0000000p+1",
     "0x1.5eecd40000000p-1", "0x1.f782140000000p-1"],
]
# sha256 of every parameter but the retired bias after the resumed run, in
# the model's table order
PINNED_RESUMED_PARAMS_SHA256 = "9609db385bb9cfe6e492177fe4eca2c05ed7cab9cc3ddff2e6fd5eed8a17e739"


def _corpus():
    spec = SynthSpec(n_speakers=1, n_emotions=2, utterances_per_cell=9,
                     frame_length_range=(6, 12))
    return generate(spec, np.random.default_rng(10)).corpus


def _train_cfg():
    return TrainConfig(iterations=5, learning_rate=1e-3, batch_pairs=2, seed=4,
                       checkpoint_every=3)


def _write_old_layout(tmp_path, bias=0.0):
    """A model file and a checkpoint at iteration 3 that hold ``proj.b2`` =
    ``bias`` and, in the checkpoint, its two Adam moments."""
    corpus = _corpus()
    cfg = ExtractorConfig(input_dim=corpus.n_channels, hidden_dim=8, n_fft_blocks=1,
                          n_heads=2, conv_kernel=3, conv_filter_dim=8, dropout=0.1,
                          n_emotion_classes=len(corpus.class_labels), projector_hidden=4)
    rng = np.random.default_rng(5)
    params = init_params(cfg, corpus.class_labels, rng)
    tables, moments = {}, {}
    for name, t in params.tensors.items():
        tables[name] = t.data + rng.normal(scale=0.1, size=t.shape).astype(np.float32)
        moments[name] = (rng.normal(scale=1e-3, size=t.shape).astype(np.float32),
                         rng.uniform(1e-8, 1e-6, size=t.shape).astype(np.float32))
    tables["proj.b2"] = np.array([bias], np.float32)
    moments["proj.b2"] = (np.zeros(1, np.float32), np.zeros(1, np.float32))
    mean, std = compute_feature_stats(corpus)
    tables["feat.mean"], tables["feat.std"] = mean.astype(np.float32), std.astype(np.float32)
    header = {"config": asdict(cfg), "emotions": corpus.class_labels,
              "meta": {"checkpoint_iteration": 3}}
    meta = {"iteration": 3, "adam_step": 3, "train_config": asdict(_train_cfg())}
    appendix = {**{"adam.m." + name: m for name, (m, _) in moments.items()},
                **{"adam.v." + name: v for name, (_, v) in moments.items()},
                "trace": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0}
    model, ckpt = tmp_path / "old.emom", tmp_path / "old_ckpt.emom"
    with open(model, "wb") as fh:
        write_table_section(fh, EMOM_MAGIC, EMOM_VERSION, header, tables)
    with open(ckpt, "wb") as fh:
        write_table_section(fh, EMOM_MAGIC, EMOM_VERSION, header, tables)
        write_table_section(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, appendix)
    return corpus, cfg, model, ckpt


def test_an_old_layout_model_scores_bitwise_as_it_did(tmp_path):
    corpus, _, model, _ = _write_old_layout(tmp_path)
    params, _ = load_model(model)
    assert "proj.b2" not in params.tensors
    records = score_corpus(params, corpus)
    assert [r.score.hex() for r in records] == PINNED_SCORES
    pooled = hashlib.sha256(b"".join(r.pooled.tobytes() for r in records)).hexdigest()
    assert pooled == PINNED_POOLED_SHA256


def test_an_old_layout_checkpoint_resumes_bitwise_as_it_did(tmp_path):
    corpus, cfg, _, ckpt = _write_old_layout(tmp_path)
    params, adam, _, _ = load_checkpoint(ckpt)
    assert "proj.b2" not in params.tensors and "proj.b2" not in adam.m
    result = train_rank_model(corpus, cfg, _train_cfg(), resume_from=ckpt)
    assert [[float(x).hex() for x in row] for row in result.trace[3:]] == PINNED_RESUMED_ROWS
    digest = hashlib.sha256()
    for t in result.params.tensors.values():
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == PINNED_RESUMED_PARAMS_SHA256


@pytest.mark.parametrize("bias", [0.25, -1e-30])
def test_a_nonzero_score_bias_is_a_format_error(tmp_path, bias):
    _, _, model, ckpt = _write_old_layout(tmp_path, bias)
    for load, path in ((load_model, model), (load_checkpoint, ckpt)):
        with pytest.raises(FileFormatError, match=re.escape(str(path)) + ".*'proj.b2'"):
            load(path)
