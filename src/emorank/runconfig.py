"""Unified run configuration shared by every command.

One JSON document covers feature extraction, the extractor architecture,
training, codebook construction, synthetic data, and the gradient check.
Unknown keys and values of the wrong JSON type are rejected (typos must not
silently fall back to defaults or fail deep inside a command), every value
has a documented default, and the fully resolved document has a
stable hash that output artifacts record as provenance.

Seed precedence: command-line flag > config file > EMORANK_SEED env > 0.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
import os

from .codebook import build_codebook
from .features import FeatureConfig
from .extractor import ExtractorConfig
from .losses import LossWeights
from .synthcorpus import SynthSpec
from .training import TrainConfig

SEED_ENV_VAR = "EMORANK_SEED"


class ConfigError(ValueError):
    """Unknown key, wrong structure, or an invalid value in a config file."""


def _field_defaults(cls, skip: tuple = ()) -> dict:
    """A config section holding the field defaults of a dataclass.

    A nested dataclass field is flattened into its own fields, and tuples
    become lists, the JSON form a config file supplies.
    """
    section = {}
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        value = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(value):
            section.update(_field_defaults(type(value)))
        else:
            section[f.name] = list(value) if isinstance(value, tuple) else value
    return section


def _keyword_defaults(fn, skip: tuple = ()) -> dict:
    """A config section holding the keyword defaults of a function, in
    signature order."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty and name not in skip}


# the schema: section -> key -> default; None means "no value, optional".
# Sections take the defaults of their dataclass or function; the class count
# comes from the corpus, the seed is resolved on its own and provenance is
# written by the command, so none of them is a config key.
DEFAULTS: dict = {
    "seed": None,
    "features": _field_defaults(FeatureConfig),
    "extractor": _field_defaults(ExtractorConfig, skip=("n_emotion_classes",)),
    "train": _field_defaults(TrainConfig, skip=("seed",)),
    "codebook": _keyword_defaults(build_codebook, skip=("provenance",)),
    "synth": _field_defaults(SynthSpec),
    "gradcheck": {
        "time_frames": 6,
        "input_dim": 8,
        "hidden_dim": 16,
        "n_heads": 2,
        "conv_kernel": 3,
        "conv_filter_dim": 16,
        "projector_hidden": 8,
        "n_emotion_classes": 3,
        "tolerance": 1e-3,
    },
}


def _check_type(default, value, key: str):
    """Raise :class:`ConfigError` unless ``value`` has the JSON type of its
    default: an integer (not a boolean), a number, a string or a list. A key
    whose default is null takes null or a number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None:
        ok, kind = value is None or number, "null or a number"
    elif isinstance(default, int):
        ok, kind = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        ok, kind = number, "a number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        ok, kind = isinstance(value, list), "a list"
    if not ok:
        raise ConfigError(f"config key '{key}' must be {kind}, "
                          f"got {type(value).__name__} {value!r}")


def _merge(defaults, supplied, path: str):
    if not isinstance(supplied, dict):
        raise ConfigError(f"config section '{path or '<root>'}' must be an object, "
                          f"got {type(supplied).__name__}")
    unknown = sorted(set(supplied) - set(defaults))
    if unknown:
        known = ", ".join(sorted(defaults))
        where = f" in section '{path}'" if path else ""
        raise ConfigError(f"unknown config key(s) {unknown}{where}; known: {known}")
    out = {}
    for key, default in defaults.items():
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            out[key] = _merge(default, supplied.get(key, {}), where)
        elif key in supplied:
            _check_type(default, supplied[key], where)
            out[key] = supplied[key]
        else:
            out[key] = copy.deepcopy(default)
    return out


class RunConfig:
    def __init__(self, document: dict | None = None):
        self.doc = _merge(DEFAULTS, document or {}, "")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        return cls(document)

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        return cls.from_file(path) if path else cls()

    def config_hash(self) -> str:
        canonical = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def resolve_seed(self, flag_seed=None) -> int:
        if flag_seed is not None:
            return int(flag_seed)
        if self.doc["seed"] is not None:
            return int(self.doc["seed"])
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
        return 0

    # ---- section materializers -------------------------------------------

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(**self.doc["features"])

    def extractor_config(self, n_emotion_classes: int = 2) -> ExtractorConfig:
        return ExtractorConfig(**self.doc["extractor"],
                               n_emotion_classes=n_emotion_classes)

    def train_config(self, seed: int) -> TrainConfig:
        t = dict(self.doc["train"])
        weights = LossWeights(alpha=t.pop("alpha"), beta=t.pop("beta"))
        return TrainConfig(**t, seed=seed, loss_weights=weights)

    def synth_spec(self) -> SynthSpec:
        # tuples, as in the dataclass defaults, so spec_digest is unchanged
        return SynthSpec(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in self.doc["synth"].items()})


def describe_defaults() -> str:
    """Human-readable config reference for --help output."""
    lines = ["config file keys and defaults (JSON):"]

    def walk(section, prefix):
        for key, value in section.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            else:
                lines.append(f"  {prefix}{key} = {json.dumps(value)}")

    walk(DEFAULTS, "")
    lines.append(f"seed precedence: --seed flag > config 'seed' > "
                 f"{SEED_ENV_VAR} env var > 0")
    return "\n".join(lines)
