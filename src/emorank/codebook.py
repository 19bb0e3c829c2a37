"""From trained scores to conditioning vectors.

The inference strategy: run every non-neutral utterance through the trained
extractor unmixed, bucket the resulting scalar scores per emotion into
intensity levels (Min/Median/Max for three bins), average the pooled
representations inside each bucket, and expose lookups that map
(emotion, level) labels and phoneme alignments to conditioning vectors.
Neutral always maps to the zero vector.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import is_neutral
from .binio import FileFormatError, atomic_write, open_text
from .extractor import ModelParams, classify, forward_intensity, pool, project_score
from .numerics import NonFiniteError, Tensor
from .training import Corpus

LEVEL_NAMES_3 = ("Min", "Median", "Max")
# build_codebook's bin rules and the vectors a level averages
BIN_POLICIES = ("quantile", "fixed")
LEVEL_SOURCES = ("pooled", "frames")
CODEBOOK_RESERVED_KEYS = ("neutral", "provenance")

# frames per packed scoring forward: enough rows to keep BLAS busy, few
# enough that a chunk's activations stay near one utterance's peak memory
_SCORE_CHUNK_FRAMES = 1024
# utterances this short are scored alone: BLAS computes products of a few
# rows with other kernels than the rows of a large product, rounding them
# differently (numpy sends one row to gemv; OpenBLAS 0.3.31 took its small
# matrix path for up to 3 rows of the paper width's second conv)
_SCORE_SOLO_FRAMES = 16


def level_names(n_bins: int) -> tuple:
    if n_bins == 3:
        return LEVEL_NAMES_3
    return tuple(f"L{i}" for i in range(n_bins))


@dataclass
class ScoreRecord:
    utterance_id: str
    emotion: str
    score: float
    pooled: np.ndarray  # (hidden,) time-averaged representation
    n_frames: int
    i_seq: np.ndarray | None = None  # (T, hidden), kept only on request


def _score_chunks(utterances):
    """Consecutive runs of utterances holding at most ``_SCORE_CHUNK_FRAMES``
    frames. A longer utterance, or one of at most ``_SCORE_SOLO_FRAMES``
    frames, is a run of its own."""
    chunk, frames = [], 0
    for u in utterances:
        # a chunk of at most _SCORE_SOLO_FRAMES frames is one short utterance
        if chunk and (frames + u.n_frames > _SCORE_CHUNK_FRAMES
                      or min(frames, u.n_frames) <= _SCORE_SOLO_FRAMES):
            yield chunk
            chunk, frames = [], 0
        chunk.append(u)
        frames += u.n_frames
    if chunk:
        yield chunk


def score_corpus(params: ModelParams, corpus: Corpus, *,
                 keep_sequences: bool = False) -> list[ScoreRecord]:
    """Score every non-neutral utterance unmixed, in corpus order, eval mode.

    Utterances run in packed chunks (see :func:`forward_intensity`) on a
    tape-free view of the parameters. The projector runs on each pooled row
    alone, a batch of one row as for a single utterance, so every record is
    bitwise the one a forward over that utterance by itself gives. A score
    that is not finite raises :class:`NonFiniteError`, as the forward does.
    """
    const = params.constants()
    records = []
    for chunk in _score_chunks(u for u in corpus if not is_neutral(u.emotion_label)):
        lengths = [u.n_frames for u in chunk]
        i_seq = forward_intensity(const, [u.frames for u in chunk],
                                  [u.emotion_label for u in chunk])
        pooled = pool(i_seq, lengths)
        ends = np.cumsum(lengths)
        for r, (u, end) in enumerate(zip(chunk, ends)):
            score = project_score(const, pooled.data[r:r + 1]).item()
            if not math.isfinite(score):
                raise NonFiniteError(f"utterance {u.source_id} has a non-finite score {score}")
            records.append(ScoreRecord(
                utterance_id=u.source_id,
                emotion=u.emotion_label.strip().lower(),
                score=score,
                pooled=pooled.data[r].astype(np.float64),
                n_frames=u.n_frames,
                i_seq=i_seq.data[end - u.n_frames:end].astype(np.float64)
                if keep_sequences else None,
            ))
    return records


def classify_utterance(params: ModelParams, frames: np.ndarray,
                       emotion_for_embedding) -> int:
    """Argmax class for one unmixed utterance (diagnostic helper)."""
    const = params.constants()
    h = pool(forward_intensity(const, frames, emotion_for_embedding))
    return int(np.argmax(classify(const, h).data))


@dataclass
class EmotionEntry:
    boundaries: list[float]  # n_bins - 1 score thresholds, ascending
    levels: dict[str, np.ndarray]  # level name -> (hidden,) vector
    mean_scores: dict[str, float]  # level name -> mean score inside the bin

    def __post_init__(self):
        if len(self.boundaries) != len(self.levels) - 1:
            raise ValueError(f"{len(self.levels)} levels need {len(self.levels) - 1} "
                             f"boundaries, got {len(self.boundaries)}")
        if not (np.isfinite([*self.boundaries, *self.mean_scores.values()]).all()
                and all(np.isfinite(vec).all() for vec in self.levels.values())):
            raise ValueError("boundaries, level vectors and mean scores must be finite")
        if any(a > b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must be non-decreasing, got {self.boundaries}")

    def level_for_score(self, score: float) -> str:
        names = list(self.levels)
        for k, b in enumerate(self.boundaries):
            if score <= b:
                return names[k]
        return names[-1]


class IntensityCodebook:
    def __init__(self, emotions: dict[str, EmotionEntry], hidden_dim: int,
                 provenance: dict | None = None):
        self.emotions = emotions
        self.hidden_dim = hidden_dim
        self.provenance = provenance or {}

    @property
    def neutral(self) -> np.ndarray:
        return np.zeros(self.hidden_dim)

    def vector(self, emotion: str, level: str | None = None) -> np.ndarray:
        """Conditioning vector for one (emotion, level) label; neutral needs
        no level and is always exactly zero."""
        if is_neutral(emotion):
            return self.neutral
        key = emotion.strip().lower()
        if key not in self.emotions:
            raise KeyError(f"emotion '{emotion}' not in codebook "
                           f"(has {sorted(self.emotions)})")
        entry = self.emotions[key]
        if level is None or level not in entry.levels:
            raise KeyError(f"level '{level}' not in codebook for '{key}' "
                           f"(has {list(entry.levels)})")
        return entry.levels[level]


def _fixed_bins(scores: np.ndarray, order: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Min-max normalize, then cut [0,1] into equal-width intervals."""
    lo, hi = scores.min(), scores.max()
    span = hi - lo if hi > lo else 1.0
    norm = (scores - lo) / span
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    which = np.clip(np.searchsorted(edges, norm, side="right") - 1, 0, n_bins - 1)
    return [order[which[order] == k] for k in range(n_bins)]


def build_codebook(records: list[ScoreRecord], n_bins: int = 3, *,
                   policy: str = "quantile", level_source: str = "pooled",
                   provenance: dict | None = None) -> IntensityCodebook:
    """Bucket scores per emotion and average representations per bucket.

    ``policy`` picks the bin rule: "quantile" (equal-frequency over raw
    scores, the default since scores are unbounded) or "fixed" (equal-width
    after min-max normalization). ``level_source`` picks what gets averaged:
    "pooled" utterance vectors (default) or "frames", which weights each
    utterance by its frame count, matching a mean over all member frames.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if policy not in BIN_POLICIES:
        raise ValueError(f"unknown bin policy '{policy}'")
    if level_source not in LEVEL_SOURCES:
        raise ValueError(f"unknown level_source '{level_source}'")
    if not records:
        raise ValueError("no score records")
    hidden = records[0].pooled.shape[0]
    names = level_names(n_bins)

    by_emotion: dict[str, list[ScoreRecord]] = {}
    for r in records:
        if r.emotion in CODEBOOK_RESERVED_KEYS:
            raise ValueError(f"emotion label '{r.emotion}' collides with a "
                             "reserved codebook key")
        by_emotion.setdefault(r.emotion, []).append(r)

    entries: dict[str, EmotionEntry] = {}
    for emotion in sorted(by_emotion):
        recs = by_emotion[emotion]
        if len(recs) < n_bins:
            raise ValueError(f"emotion '{emotion}' has {len(recs)} records, "
                             f"needs >= {n_bins} for {n_bins} bins")
        scores = np.asarray([r.score for r in recs], dtype=np.float64)
        order = np.argsort(scores, kind="stable")
        bins = (np.array_split(order, n_bins) if policy == "quantile"
                else _fixed_bins(scores, order, n_bins))
        if policy == "fixed" and any(len(b) == 0 for b in bins):
            raise ValueError(f"fixed-width binning left an empty bin for "
                             f"'{emotion}'; use the quantile policy")
        boundaries = []
        for k in range(n_bins - 1):
            hi_k = scores[bins[k]].max()
            lo_next = scores[bins[k + 1]].min()
            boundaries.append(float((hi_k + lo_next) / 2.0))
        levels, mean_scores = {}, {}
        for name, idx in zip(names, bins):
            members = [recs[i] for i in idx]
            if level_source == "pooled":
                vec = np.mean([m.pooled for m in members], axis=0)
            else:
                w = np.asarray([m.n_frames for m in members], dtype=np.float64)
                vec = (np.stack([m.pooled for m in members]) * w[:, None]).sum(0) / w.sum()
            levels[name] = vec
            mean_scores[name] = float(scores[idx].mean())
        ordered = [mean_scores[n] for n in names]
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            warnings.warn(f"degenerate scores for '{emotion}': bin mean scores "
                          f"{ordered} are not strictly increasing", stacklevel=2)
        entries[emotion] = EmotionEntry(boundaries, levels, mean_scores)

    prov = {**(provenance or {}), "bin_policy": policy, "level_source": level_source,
            "n_bins": n_bins}
    return IntensityCodebook(entries, hidden, prov)


# ---------------------------------------------------------------------------
# codebook JSON file


def save_codebook(cb: IntensityCodebook, path):
    doc: dict = {}
    for emotion, entry in sorted(cb.emotions.items()):
        doc[emotion] = {
            "boundaries": [float(b) for b in entry.boundaries],
            "levels": {name: [float(x) for x in vec]
                       for name, vec in entry.levels.items()},
            "mean_scores": {name: float(s) for name, s in entry.mean_scores.items()},
        }
    doc["neutral"] = [0.0] * cb.hidden_dim
    doc["provenance"] = cb.provenance
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ordered_levels(raw: dict) -> list[str]:
    # JSON serialization sorts keys, but level_for_score depends on dict
    # order being ascending-bin order; restore it from the mean scores (or
    # the canonical names) rather than trusting file key order
    names = list(raw["levels"])
    means = raw.get("mean_scores", {})
    if set(means) == set(names):
        return sorted(names, key=lambda n: means[n])
    canonical = level_names(len(names))
    if set(canonical) == set(names):
        return list(canonical)
    return names


def load_codebook(path) -> IntensityCodebook:
    """Read a codebook written by :func:`save_codebook`. A file that is not
    one (not JSON, no ``neutral`` list, an entry without boundaries or
    levels, boundaries that are not one fewer than the levels or that
    decrease, a non-finite boundary, level value or mean score, such as the
    ``NaN`` and ``Infinity`` that Python's JSON parser accepts, a level
    vector not as wide as ``neutral``) raises :class:`FileFormatError`."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"codebook file {path} is not valid JSON: {e}") from e
    neutral = doc.get("neutral") if isinstance(doc, dict) else None
    if not isinstance(neutral, list):
        raise FileFormatError("codebook file lacks the neutral list")
    hidden = len(neutral)
    entries = {}
    for emotion, raw in doc.items():
        if emotion in CODEBOOK_RESERVED_KEYS:
            continue
        try:
            order = _ordered_levels(raw)
            means = raw.get("mean_scores", {})
            entry = EmotionEntry(
                boundaries=[float(b) for b in raw["boundaries"]],
                levels={name: np.asarray(raw["levels"][name], dtype=np.float64)
                        for name in order},
                mean_scores={name: float(means[name]) for name in order
                             if name in means},
            )
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise FileFormatError(f"codebook entry '{emotion}' is malformed: "
                                  f"{type(e).__name__}: {e}") from e
        for name, vec in entry.levels.items():
            if vec.shape != (hidden,):
                raise FileFormatError(f"codebook level '{emotion}'/'{name}' has shape "
                                      f"{vec.shape}, but the neutral entry has ({hidden},)")
        entries[emotion] = entry
    return IntensityCodebook(entries, hidden, doc.get("provenance", {}))


# ---------------------------------------------------------------------------
# phoneme alignment


@dataclass
class PhonemeInterval:
    symbol: str
    start_s: float
    end_s: float


class PhonemeAlignment:
    def __init__(self, intervals: list[PhonemeInterval]):
        if not intervals:
            raise ValueError("alignment has no phonemes")
        prev_end = 0.0
        for iv in intervals:
            if not 0 <= iv.start_s < iv.end_s < math.inf:  # NaN fails too
                raise ValueError(f"bad interval for '{iv.symbol}': "
                                 f"[{iv.start_s}, {iv.end_s})")
            if iv.start_s < prev_end - 1e-9:
                raise ValueError(f"interval for '{iv.symbol}' starts at "
                                 f"{iv.start_s} before previous end {prev_end}")
            prev_end = iv.end_s
        self.intervals = list(intervals)

    def __len__(self):
        return len(self.intervals)

    @property
    def end_s(self) -> float:
        return self.intervals[-1].end_s


ALIGNMENT_HEADER = "#phonemes v1"


def _read_tab_lines(path, header: str, columns: tuple, parse, what: str) -> list:
    """``parse(fields)`` for each non-blank line of ``columns`` tab-separated
    fields after the ``header`` line; a malformed file, or one with no line
    of ``what``, raises :class:`FileFormatError` naming ``path:line``."""
    with open_text(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise FileFormatError(f"{path}:1: expected header '{header}'; got {first!r}")
        out = []
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"expected {'<TAB>'.join(columns)}")
                out.append(parse(fields))
            except ValueError as e:
                raise FileFormatError(f"{path}:{n}: {e}; got {line.rstrip()!r}") from e
    if not out:
        raise FileFormatError(f"{path}: no {what}")
    return out


def read_alignment(path) -> PhonemeAlignment:
    """Parse the tab-separated interval file (header line '#phonemes v1')."""
    intervals = _read_tab_lines(path, ALIGNMENT_HEADER, ("symbol", "start", "end"),
                                lambda f: PhonemeInterval(f[0], float(f[1]), float(f[2])),
                                "phonemes")
    try:
        return PhonemeAlignment(intervals)
    except ValueError as e:  # a negative, empty, non-finite or overlapping interval
        raise FileFormatError(f"{path}: {e}") from e


def write_alignment(align: PhonemeAlignment, path):
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(ALIGNMENT_HEADER + "\n")
        for iv in align.intervals:
            fh.write(f"{iv.symbol}\t{iv.start_s!r}\t{iv.end_s!r}\n")


def phoneme_average(i_seq, align: PhonemeAlignment, frame_rate_hz: float) -> np.ndarray:
    """Average an intensity sequence down to one vector per phoneme.

    Frame t covers center time (t + 0.5) / frame_rate; a phoneme owns the
    frames whose centers fall in [start, end). A phoneme too short to own
    any frame gets the frame nearest its midpoint, so every row is defined.
    """
    data = i_seq.data if isinstance(i_seq, Tensor) else np.asarray(i_seq)
    if data.ndim != 2:
        raise ValueError(f"expected (T, C) sequence, got shape {data.shape}")
    n_frames = data.shape[0]
    duration = n_frames / frame_rate_hz
    if align.end_s > duration + 1e-6:
        raise ValueError(f"alignment ends at {align.end_s:.4f}s but the "
                         f"sequence lasts {duration:.4f}s")
    centers = (np.arange(n_frames) + 0.5) / frame_rate_hz
    out = np.empty((len(align), data.shape[1]), dtype=data.dtype)
    for p, iv in enumerate(align.intervals):
        mask = (centers >= iv.start_s) & (centers < iv.end_s)
        if mask.any():
            out[p] = data[mask].mean(axis=0)
        else:
            mid = (iv.start_s + iv.end_s) / 2.0
            out[p] = data[int(np.argmin(np.abs(centers - mid)))]
    return out


def condition(cb: IntensityCodebook, phoneme_labels: list[tuple]) -> np.ndarray:
    """Map per-phoneme (emotion, level) labels to conditioning rows.

    Neutral rows are exactly zero regardless of the level field; every other
    row is the codebook vector for its (emotion, level). Output shape is
    (len(labels), hidden_dim).
    """
    if not phoneme_labels:
        raise ValueError("no phoneme labels")
    out = np.zeros((len(phoneme_labels), cb.hidden_dim))
    for p, (emotion, level) in enumerate(phoneme_labels):
        if is_neutral(emotion):
            continue
        out[p] = cb.vector(emotion, level)
    return out


LABELS_HEADER = "#levels v1"


def read_phoneme_labels(path) -> list[tuple]:
    """Parse per-phoneme label lines 'emotion<TAB>level'; neutral rows may
    use '-' for the level (header line '#levels v1'). A file without a label
    line raises :class:`FileFormatError`."""
    return _read_tab_lines(path, LABELS_HEADER, ("emotion", "level"), tuple,
                           "phoneme labels")
