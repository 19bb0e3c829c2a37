"""perfbench's per-layer tracer still installs on the package.

The tracer wraps package functions by name (``--trace 1``), so a package
change that renames or removes one breaks the benchmark; this finds it in
the test suite first.
"""

import importlib
import os

import numpy as np

from emorank import codebook, features, numerics, training
from emorank.extractor import ExtractorConfig
from emorank.synthcorpus import SynthSpec, generate
from emorank.training import TrainConfig

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_installs_counts_ops_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # as perfbench's workloads import it
    tracer_mod = importlib.import_module("tracer")
    owners = (numerics, numerics.Tensor, numerics.ComputeGraph, training, codebook, features)
    before = [dict(vars(owner)) for owner in owners]
    data = generate(SynthSpec(n_speakers=2, n_emotions=3, utterances_per_cell=9,
                              frame_length_range=(20, 40)), np.random.default_rng(5))
    ecfg = ExtractorConfig(input_dim=82, hidden_dim=32, n_fft_blocks=2, n_heads=2,
                           conv_kernel=9, conv_filter_dim=64, dropout=0.1,
                           n_emotion_classes=4, projector_hidden=32)

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        result = training.train_rank_model(data.corpus, ecfg, TrainConfig(
            iterations=2, learning_rate=1e-3, batch_pairs=4, seed=0))
        codebook.score_corpus(result.params, data.corpus)
    finally:
        tracer.uninstall()

    assert tracer.counts["ops"] > 0 and tracer.counts["frames"] > 0
    for op in ("matmul", "conv1d"):
        for phase in ("fwd", "bwd"):
            assert f"numerics.{op}.{phase}" in tracer.spans, (op, phase)
    assert "codebook.score_corpus" in tracer.spans
    # spans exist from install on; each of these must also have been entered,
    # or perfbench's adam_step_ms, backward_ms and trace_ms read 0
    for span in ("numerics.adam_step", "numerics.backward", "numerics.trace"):
        assert tracer.spans[span][1] > 0.0, span
    for owner, attrs in zip(owners, before):
        for name, value in attrs.items():
            assert vars(owner)[name] is value, (owner.__name__, name)
