"""Synthetic labeled corpus with known scalar emotion intensity.

Each speaker has a fixed base channel pattern; each non-neutral class has a
fixed sparse signature over disjoint channels (hence orthogonal across
classes). An utterance of class c with true intensity t is
base + t * signature(c) + white noise, so intensity is recoverable in
principle and ranking behavior can be verified against ground truth.
The true t never appears in the features except through that additive term.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .binio import read_csv, write_csv
from .features import FeatureConfig, FeatureMatrix, write_features
from .training import Corpus

EMOTION_NAMES = ["angry", "amused", "sleepy", "disgusted", "excited", "fearful"]

# utterances have the layout and frame rate that featurize gives by default
_FEATURES = FeatureConfig()
_N_CHANNELS = _FEATURES.n_channels
_PITCH_COL = _N_CHANNELS - 2
_SIGNATURE_SUPPORT = 12  # channels per class signature


@dataclass
class SynthSpec:
    n_speakers: int = 2
    n_emotions: int = 3  # non-neutral classes
    utterances_per_cell: int = 30  # per (speaker, class), neutral included
    frame_length_range: tuple = (40, 80)
    base_pattern_seed: int = 1234
    intensity_range: tuple = (0.0, 1.0)
    noise_sigma: float = 0.05

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ValueError(f"n_speakers must be >= 1, got {self.n_speakers}")
        if not 1 <= self.n_emotions <= len(EMOTION_NAMES):
            raise ValueError(f"n_emotions must be in [1, {len(EMOTION_NAMES)}], "
                             f"got {self.n_emotions}")
        # 3 utterances per bin x 3 bins, so codebook construction always works
        if self.utterances_per_cell < 9:
            raise ValueError("utterances_per_cell must be >= 9, "
                             f"got {self.utterances_per_cell}")
        lo, hi = self.frame_length_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad frame_length_range {self.frame_length_range}")
        lo, hi = self.intensity_range
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"intensity_range must be within [0, 1] with lo < hi, "
                             f"got {self.intensity_range}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @property
    def emotions(self) -> list[str]:
        return EMOTION_NAMES[: self.n_emotions]


_SIGNATURE_NORM = 2.5  # common L2 so no class is accidentally harder


def class_signatures(spec: SynthSpec) -> dict[str, np.ndarray]:
    """Per-class additive channel patterns, fixed by base_pattern_seed.

    Supports are disjoint slices of a channel permutation, so signatures are
    exactly orthogonal; each is rescaled to the same L2 norm so per-class
    difficulty does not hinge on the amplitude draw. The pitch column is
    excluded: it stays clean of the intensity signal so flooring it at zero
    cannot bias the construction.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.base_pattern_seed, spawn_key=(0,)))
    usable = [c for c in range(_N_CHANNELS) if c != _PITCH_COL]
    perm = rng.permutation(len(usable))
    out = {}
    for k, name in enumerate(spec.emotions):
        support = [usable[i] for i in perm[k * _SIGNATURE_SUPPORT:
                                           (k + 1) * _SIGNATURE_SUPPORT]]
        sig = np.zeros(_N_CHANNELS)
        sig[support] = rng.uniform(0.5, 1.0, size=len(support)) * \
            rng.choice([-1.0, 1.0], size=len(support))
        out[name] = sig * (_SIGNATURE_NORM / np.linalg.norm(sig))
    return out


def speaker_bases(spec: SynthSpec) -> dict[str, np.ndarray]:
    """Per-speaker constant channel offsets, fixed by base_pattern_seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.base_pattern_seed, spawn_key=(1,)))
    out = {}
    for s in range(spec.n_speakers):
        base = rng.normal(0.0, 0.3, size=_N_CHANNELS)
        base[_PITCH_COL] = rng.uniform(4.0, 5.0)  # log-Hz scale, far from zero
        out[f"spk{s}"] = base
    return out


@dataclass
class SynthResult:
    corpus: Corpus
    true_intensity: dict[str, float]  # utterance_id -> t (0.0 for neutral)
    spec: SynthSpec


def _utterance(spec: SynthSpec, base: np.ndarray, sig: np.ndarray | None,
               t: float, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.frame_length_range
    n = int(rng.integers(lo, hi + 1))
    frames = np.tile(base, (n, 1))
    if sig is not None:
        frames = frames + t * sig
    frames = frames + rng.normal(0.0, spec.noise_sigma, size=frames.shape)
    # 0 encodes unvoiced; base pitch sits ~90 sigma above 0 so this floor is
    # a formality, not a distortion of the construction
    frames[:, _PITCH_COL] = np.maximum(frames[:, _PITCH_COL], 0.0)
    return frames


def generate(spec: SynthSpec, rng: np.random.Generator) -> SynthResult:
    """Draw a full corpus; utterance randomness comes from ``rng`` while the
    speaker bases and class signatures are pinned by spec.base_pattern_seed."""
    sigs = class_signatures(spec)
    bases = speaker_bases(spec)
    t_lo, t_hi = spec.intensity_range
    utterances: list[FeatureMatrix] = []
    truths: dict[str, float] = {}
    for speaker in sorted(bases):
        for label in ["neutral"] + spec.emotions:
            for i in range(spec.utterances_per_cell):
                uid = f"{speaker}_{label}_{i:03d}"
                if label == "neutral":
                    t = 0.0
                    frames = _utterance(spec, bases[speaker], None, 0.0, rng)
                else:
                    t = float(rng.uniform(t_lo, t_hi))
                    frames = _utterance(spec, bases[speaker], sigs[label], t, rng)
                utterances.append(FeatureMatrix(
                    frames=frames, frame_rate_hz=_FEATURES.frame_rate_hz, source_id=uid,
                    emotion_label=label, speaker_id=speaker))
                truths[uid] = t
    return SynthResult(Corpus(utterances), truths, spec)


METADATA_HEADER = ["utterance_id", "speaker", "emotion", "true_intensity"]


def save_corpus(result: SynthResult, out_dir) -> list[str]:
    """Write one EMOF file per utterance plus metadata.csv; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for u in result.corpus:
        p = os.path.join(out_dir, u.source_id + ".emof")
        write_features(u, p)
        paths.append(p)
    write_csv(os.path.join(out_dir, "metadata.csv"), METADATA_HEADER,
              ([u.source_id, u.speaker_id, u.emotion_label,
                repr(result.true_intensity[u.source_id])] for u in result.corpus))
    return paths


def load_metadata(path) -> dict[str, float]:
    """Read metadata.csv back into the utterance_id -> true intensity map;
    a malformed file raises :class:`FileFormatError`."""
    return dict(read_csv(path, METADATA_HEADER, lambda row: (row[0], float(row[3]))))


def spec_digest(spec: SynthSpec) -> str:
    payload = repr(sorted(vars(spec).items())).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
