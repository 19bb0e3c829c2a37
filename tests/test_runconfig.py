"""Run configuration: defaults, merging, hashing, and seed precedence."""

import hashlib
import inspect
import json

import pytest

from emorank.cli import build_parser
from emorank.codebook import build_codebook
from emorank.extractor import ExtractorConfig
from emorank.features import FeatureConfig
from emorank.runconfig import (DEFAULTS, ConfigError, RunConfig, SEED_ENV_VAR,
                               describe_defaults)
from emorank.synthcorpus import SynthSpec, spec_digest
from emorank.training import TrainConfig


def test_empty_document_gives_defaults():
    cfg = RunConfig()
    assert cfg.doc["train"]["iterations"] == 20000
    assert cfg.doc["train"]["learning_rate"] == 1e-6
    assert cfg.doc["extractor"]["hidden_dim"] == 256
    assert cfg.doc["codebook"]["n_bins"] == 3
    assert cfg.doc["seed"] is None


def test_partial_override_keeps_other_defaults():
    cfg = RunConfig({"train": {"iterations": 5}, "seed": 9})
    assert cfg.doc["train"]["iterations"] == 5
    assert cfg.doc["train"]["batch_pairs"] == 8
    assert cfg.doc["seed"] == 9


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="lerning_rate"):
        RunConfig({"train": {"lerning_rate": 0.1}})
    with pytest.raises(ConfigError, match="section 'train'"):
        RunConfig({"train": {"lerning_rate": 0.1}})
    with pytest.raises(ConfigError):
        RunConfig({"trainer": {}})
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig({"train": 5})


def test_values_of_the_wrong_type_rejected_with_key():
    for doc, key in [({"train": {"iterations": "5"}}, "train.iterations"),
                     ({"train": {"iterations": 5.0}}, "train.iterations"),
                     ({"train": {"iterations": True}}, "train.iterations"),
                     ({"extractor": {"dropout": "0.1"}}, "extractor.dropout"),
                     ({"extractor": {"dropout": False}}, "extractor.dropout"),
                     ({"codebook": {"n_bins": "3"}}, "codebook.n_bins"),
                     ({"codebook": {"policy": 3}}, "codebook.policy"),
                     ({"synth": {"frame_length_range": 40}}, "synth.frame_length_range"),
                     ({"seed": "7"}, "seed"),
                     ({"features": {"fmax_hz": "8000"}}, "features.fmax_hz")]:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            RunConfig(doc)
    # a float key takes an integer; a null default takes null or a number
    cfg = RunConfig({"extractor": {"dropout": 0}, "seed": None,
                     "features": {"fmax_hz": 8000}})
    assert cfg.doc["extractor"]["dropout"] == 0
    assert cfg.doc["features"]["fmax_hz"] == 8000
    assert RunConfig({"features": {"fmax_hz": 7999.5}}).doc["features"]["fmax_hz"] == 7999.5


def test_from_file_and_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"codebook": {"n_bins": 5}}))
    cfg = RunConfig.from_file(path)
    assert cfg.doc["codebook"]["n_bins"] == 5
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    assert RunConfig.load(None).doc == RunConfig().doc


def test_config_hash_tracks_resolved_values():
    assert RunConfig().config_hash() == RunConfig({}).config_hash()
    # an override that matches the default resolves to the same document
    assert RunConfig({"train": {"iterations": 20000}}).config_hash() \
        == RunConfig().config_hash()
    assert RunConfig({"train": {"iterations": 3}}).config_hash() \
        != RunConfig().config_hash()


def test_config_hash_pinned():
    # provenance sidecars record these; a refactor of the schema must keep them
    assert RunConfig().config_hash() == \
        "e02e41953d40519a5cfb8afeacc97f6890f056cbf31cc48dd43ac90f40e9c05b"
    doc = {"train": {"iterations": 5}, "synth": {"frame_length_range": [10, 20]},
           "features": {"fmax_hz": 4000}}
    assert RunConfig(doc).config_hash() == \
        "11463a705017102ade3760623673ef355029eb7c5ea30ea201d988cc0630c352"
    assert spec_digest(RunConfig().synth_spec()) == spec_digest(SynthSpec()) == \
        "a72f32bbf3a4450f4877c82e5cb000354755c0c47665a037916fb8899b60a7b1"


def test_codebook_defaults_are_build_codebooks_own():
    keywords = inspect.signature(build_codebook).parameters
    assert DEFAULTS["codebook"] == {name: keywords[name].default
                                    for name in ("n_bins", "policy", "level_source")}
    # the --help epilog is pinned byte for byte, as test_config_hash_pinned
    # pins the defaults' hash
    assert hashlib.sha256(build_parser().epilog.encode("utf-8")).hexdigest() == \
        "0339b89463edc8ec7f84e6ed0daf60e08242ded57b8ca8632ef6c296fa89802e"


def test_empty_document_materializes_dataclass_defaults():
    cfg = RunConfig()
    assert cfg.feature_config() == FeatureConfig()
    assert cfg.extractor_config() == ExtractorConfig()
    assert cfg.train_config(0) == TrainConfig()
    assert cfg.synth_spec() == SynthSpec()


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert RunConfig().resolve_seed(None) == 0
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    assert RunConfig().resolve_seed(None) == 42
    assert RunConfig({"seed": 7}).resolve_seed(None) == 7  # file beats env
    assert RunConfig({"seed": 7}).resolve_seed(3) == 3  # flag beats file
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError):
        RunConfig().resolve_seed(None)


def test_materializers():
    cfg = RunConfig({"features": {"n_mels": 40},
                     "extractor": {"hidden_dim": 64},
                     "train": {"alpha": 0.2, "beta": 0.7},
                     "synth": {"n_speakers": 1}})
    fcfg = cfg.feature_config()
    assert isinstance(fcfg, FeatureConfig) and fcfg.n_mels == 40
    ecfg = cfg.extractor_config(n_emotion_classes=4)
    assert isinstance(ecfg, ExtractorConfig)
    assert ecfg.hidden_dim == 64 and ecfg.n_emotion_classes == 4
    tcfg = cfg.train_config(seed=5)
    assert isinstance(tcfg, TrainConfig) and tcfg.seed == 5
    assert (tcfg.loss_weights.alpha, tcfg.loss_weights.beta) == (0.2, 0.7)
    spec = cfg.synth_spec()
    assert isinstance(spec, SynthSpec) and spec.n_speakers == 1
    assert spec.frame_length_range == (40, 80)


def test_invalid_values_surface_as_value_errors():
    with pytest.raises(ValueError):
        RunConfig({"train": {"iterations": 0}}).train_config(seed=0)
    with pytest.raises(ValueError):
        RunConfig({"extractor": {"hidden_dim": 10, "n_heads": 4}}).extractor_config()


def test_describe_defaults_lists_every_leaf():
    text = describe_defaults()

    def walk(section, prefix):
        for key, value in section.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            else:
                assert f"{prefix}{key} = " in text, f"{prefix}{key}"

    walk(DEFAULTS, "")
    assert "seed precedence" in text
    assert SEED_ENV_VAR in text
