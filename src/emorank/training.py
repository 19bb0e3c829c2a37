"""Pair sampling and the rank-model training loop.

Each iteration draws a batch of (emotional, neutral) utterance pairs, builds
two mixtures per pair, runs all mixtures through the extractor as one packed
batch, and minimizes alpha * L_mixup + beta * L_rank with Adam. Per-iteration
randomness is drawn from a stream keyed by (seed, iteration), so a run
checkpointed at iteration k and resumed is bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import is_neutral
from . import numerics as nm
from .binio import (FileFormatError, atomic_write, check_tables, read_csv,
                    read_table_section, write_csv, write_table_section)
from .extractor import (ExtractorConfig, ModelParams, _read_model_section,
                        _write_model_section, classify, draw_dropout_masks,
                        forward_intensity, init_params, pool, project_score)
from .features import FeatureMatrix, read_features
# pair_probability is not called here; perfbench's tracer patches it by name (else KeyError)
from .losses import LossWeights, mixup_ce, pair_probability, rank_loss, total_loss
from .mixup import MixPair, make_mix_pair, normalized_lambda_diff
from .numerics import AdamState, NonFiniteError, Tensor

CHECKPOINT_MAGIC = b"EMOA"  # optimizer appendix section of a checkpoint file
CHECKPOINT_VERSION = 1

# how a neutral partner is picked for an emotional utterance (see sample_pair)
PAIR_POLICIES = ("same_speaker", "any")


class TrainingError(RuntimeError):
    """Raised when optimization cannot continue (non-finite loss/gradient)."""


@dataclass
class TrainConfig:
    iterations: int = 20000
    learning_rate: float = 1e-6
    batch_pairs: int = 8
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    loss_weights: LossWeights = field(default_factory=LossWeights)
    pair_policy: str = "same_speaker"  # one of PAIR_POLICIES

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        # zero is allowed so a no-op run can prove the update path is inert
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_pairs < 1:
            raise ValueError(f"batch_pairs must be >= 1, got {self.batch_pairs}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.pair_policy not in PAIR_POLICIES:
            raise ValueError(f"unknown pair_policy '{self.pair_policy}'")
        if isinstance(self.loss_weights, dict):
            self.loss_weights = LossWeights(**self.loss_weights)


class Corpus:
    """An ordered collection of utterances with neutral/emotional indexes.

    Order is whatever the caller supplies (file loading sorts by name), and
    every derived index preserves it, so sampling is reproducible.
    """

    def __init__(self, utterances: list[FeatureMatrix], *,
                 require_roles: bool = True):
        if not utterances:
            raise ValueError("corpus is empty")
        n_ch = utterances[0].n_channels
        for u in utterances:
            if u.n_channels != n_ch:
                raise ValueError(f"channel mismatch: '{u.source_id}' has "
                                 f"{u.n_channels} channels, expected {n_ch}")
        self.utterances = list(utterances)
        self.n_channels = n_ch
        self.neutral_idx = [i for i, u in enumerate(self.utterances)
                            if is_neutral(u.emotion_label)]
        self.emotional_idx = [i for i, u in enumerate(self.utterances)
                              if not is_neutral(u.emotion_label)]
        # pair sampling needs both roles; scoring-only corpora do not
        if require_roles and not self.neutral_idx:
            raise ValueError("corpus has no neutral utterances")
        if require_roles and not self.emotional_idx:
            raise ValueError("corpus has no non-neutral utterances")
        self._neutral_by_speaker: dict[str, list[int]] = {}
        for i in self.neutral_idx:
            self._neutral_by_speaker.setdefault(self.utterances[i].speaker_id, []).append(i)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    @property
    def emotion_labels(self) -> list[str]:
        """Non-neutral class labels, sorted for a stable class order."""
        return sorted({self.utterances[i].emotion_label.strip().lower()
                       for i in self.emotional_idx})

    @property
    def class_labels(self) -> list[str]:
        """Model class list: neutral always at index 0."""
        return ["neutral"] + self.emotion_labels

    def neutral_for_speaker(self, speaker_id: str) -> list[int]:
        return self._neutral_by_speaker.get(speaker_id, [])


def load_corpus(features_dir, *, require_roles: bool = True) -> Corpus:
    """Read every .emof file under a directory (sorted by name)."""
    paths = sorted(p for p in os.listdir(features_dir) if p.endswith(".emof"))
    if not paths:
        raise FileNotFoundError(f"no .emof files in {features_dir}")
    return Corpus([read_features(os.path.join(features_dir, p)) for p in paths],
                  require_roles=require_roles)


def corpus_digest(corpus: Corpus) -> str:
    """Stable hex digest of corpus content, for provenance stamps."""
    h = hashlib.sha256()
    for u in corpus:
        h.update(u.source_id.encode("utf-8"))
        h.update(u.emotion_label.encode("utf-8"))
        h.update(np.ascontiguousarray(u.frames).tobytes())
    return h.hexdigest()


def compute_feature_stats(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and standard deviation pooled over all frames.

    Accumulated in float64; the std is floored so constant channels (a fully
    unvoiced pitch column, say) stay finite under normalization.
    """
    total = np.zeros(corpus.n_channels)
    total_sq = np.zeros(corpus.n_channels)
    n = 0
    for u in corpus:
        f = u.frames.astype(np.float64)
        total += f.sum(axis=0)
        total_sq += (f * f).sum(axis=0)
        n += f.shape[0]
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    return mean, np.maximum(np.sqrt(var), 1e-8)


def sample_pair(corpus: Corpus, policy: str,
                rng: np.random.Generator) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Uniformly pick a non-neutral utterance, then a neutral partner.

    Under ``same_speaker`` the partner comes from the same speaker whenever
    that speaker has neutral data, otherwise from the whole neutral pool.
    """
    if policy not in PAIR_POLICIES:
        raise ValueError(f"unknown pair_policy '{policy}'")
    emo = corpus.utterances[corpus.emotional_idx[
        int(rng.integers(len(corpus.emotional_idx)))]]
    pool_idx = corpus.neutral_idx
    if policy == "same_speaker":
        same = corpus.neutral_for_speaker(emo.speaker_id)
        if same:
            pool_idx = same
    neu = corpus.utterances[pool_idx[int(rng.integers(len(pool_idx)))]]
    return emo, neu


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """The random stream for one iteration, independent of prior history."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(1, iteration)))


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


@dataclass
class TrainResult:
    params: ModelParams
    trace: np.ndarray  # (iterations, 4): iteration, l_mixup, l_rank, l_total


def pair_losses(params: ModelParams, pairs: list[MixPair], *,
                dropout_masks: list | None = None) -> tuple[Tensor, Tensor]:
    """The two terms of the objective, averaged over a batch of mixture pairs.

    Returns (mean mixup cross-entropy between each pair's emotion and the
    neutral class, mean rank loss on which mixture carries more of the
    emotion). All mixtures run through the extractor as one packed batch in
    the order i_0, j_0, i_1, j_1, ...; a training pass takes its dropout
    masks from ``dropout_masks``, one ``draw_dropout_masks`` list per mixture
    in that order, and a pass without them runs in eval mode.
    """
    y_emo = np.array([params.class_index(p.emotion_label) for p in pairs])
    lambda_i = np.array([p.lambda_i for p in pairs])
    lambda_j = np.array([p.lambda_j for p in pairs])
    mixtures = [x for p in pairs for x in (p.x_mix_i, p.x_mix_j)]
    i_seq = forward_intensity(params, mixtures, np.repeat(y_emo, 2),
                              dropout_masks=dropout_masks)
    h = pool(i_seq, [x.shape[0] for x in mixtures])
    logits, r = classify(params, h), project_score(params, h)
    rows_i, rows_j = np.arange(0, 2 * len(pairs), 2), np.arange(1, 2 * len(pairs), 2)
    l_mix = mixup_ce(nm.take_rows(logits, rows_i), nm.take_rows(logits, rows_j),
                     lambda_i, lambda_j, y_emo, y_neu=0)
    l_rank = rank_loss(nm.take_rows(r, rows_i), nm.take_rows(r, rows_j),
                       normalized_lambda_diff(lambda_i, lambda_j))
    return nm.mean_all(l_mix), nm.mean_all(l_rank)


def _batch_losses(params: ModelParams, corpus: Corpus, cfg: TrainConfig,
                  rng: np.random.Generator, diag: list) -> tuple[Tensor, Tensor]:
    pairs, masks = [], []
    for _ in range(cfg.batch_pairs):
        x_emo, x_neu = sample_pair(corpus, cfg.pair_policy, rng)
        pair = make_mix_pair(x_emo, x_neu, rng)
        diag.append((x_emo.source_id, x_neu.source_id, pair.lambda_i, pair.lambda_j))
        # mixture i's masks, then mixture j's: the draws of a forward per mixture
        t_len = pair.x_mix_i.shape[0]
        masks += [draw_dropout_masks(params.config, t_len, rng) for _ in range(2)]
        pairs.append(pair)
    return pair_losses(params, pairs, dropout_masks=masks)


def train_steps(corpus: Corpus, extractor_cfg: ExtractorConfig, train_cfg: TrainConfig, *,
                checkpoint_dir=None, resume_from=None):
    """Run the optimization loop, yielding ``(params, rows)`` after each
    iteration: the live model and the loss rows so far, this iteration's
    ``(iteration, l_mixup, l_rank, l_total)`` row last. Later steps update
    both in place, so copy what you keep. A checkpoint due at an iteration
    is written before that iteration's step is yielded.

    Pass ``resume_from`` (a checkpoint path) to continue an interrupted run;
    the steps are identical to never having stopped. The run that wrote the
    checkpoint must have had the same train and extractor configs, except
    for ``iterations``, ``checkpoint_every`` and the class count; any other
    difference raises ValueError naming each differing key.
    """
    weights = train_cfg.loss_weights
    start_iter = 0
    trace_rows: list[tuple] = []

    if resume_from is not None:
        params, adam, meta, prev_trace = load_checkpoint(resume_from)
        _check_resume(meta["train_config"], train_cfg, params.config, extractor_cfg,
                      resume_from)
        start_iter = int(meta["iteration"])
        trace_rows = [tuple(row) for row in prev_trace]
        if start_iter >= train_cfg.iterations:
            raise ValueError(f"checkpoint already at iteration {start_iter}, "
                             f"nothing to resume for {train_cfg.iterations}")
    else:
        classes = corpus.class_labels
        cfg = replace(extractor_cfg, n_emotion_classes=len(classes))
        params = init_params(cfg, classes, _init_rng(train_cfg.seed))
        mean, std = compute_feature_stats(corpus)
        params.feat_mean = np.asarray(mean, dtype=params.dtype)
        params.feat_std = np.asarray(std, dtype=params.dtype)
        adam = AdamState(params.tensors)

    if params.config.input_dim != corpus.n_channels:
        raise ValueError(f"model expects {params.config.input_dim} channels, "
                         f"corpus has {corpus.n_channels}")

    for k in range(start_iter, train_cfg.iterations):
        rng = iteration_rng(train_cfg.seed, k)
        diag: list = []
        try:
            # the previous step's gradients go before the forward, not after:
            # nothing reads them once Adam has run, and the forward's end
            # holds every activation
            params.zero_grads()
            l_mix, l_rank = _batch_losses(params, corpus, train_cfg, rng, diag)
            l_total = total_loss(l_mix, l_rank, weights)
            if not np.isfinite(l_total.item()):
                raise NonFiniteError("loss is not finite")
            l_total.backward()
            nm.adam_step(params.tensors, adam, train_cfg.learning_rate)
        except NonFiniteError as e:
            pairs = "; ".join(f"({ei}, {ni}, l_i={li:.4f}, l_j={lj:.4f})"
                              for ei, ni, li, lj in diag)
            raise TrainingError(
                f"non-finite value at iteration {k}: {e}; pairs: {pairs}") from e
        trace_rows.append((k, l_mix.item(), l_rank.item(), l_total.item()))
        if (checkpoint_dir is not None and train_cfg.checkpoint_every
                and (k + 1) % train_cfg.checkpoint_every == 0
                and (k + 1) < train_cfg.iterations):
            path = os.path.join(checkpoint_dir, f"ckpt_{k + 1:07d}.emom")
            save_checkpoint(params, adam, k + 1, np.asarray(trace_rows, dtype=np.float64),
                            train_cfg, path)
        yield params, trace_rows


def train_rank_model(corpus: Corpus, extractor_cfg: ExtractorConfig, train_cfg: TrainConfig, *,
                     checkpoint_dir=None, resume_from=None) -> TrainResult:
    """Run :func:`train_steps` to the end and return the trained model and
    its loss trace."""
    for params, rows in train_steps(corpus, extractor_cfg, train_cfg,
                                    checkpoint_dir=checkpoint_dir, resume_from=resume_from):
        pass
    return TrainResult(params=params, trace=np.asarray(rows, dtype=np.float64).reshape(-1, 4))


# ---------------------------------------------------------------------------
# checkpoints: a regular model file followed by one binio table section, the
# optimizer appendix. Its header is the meta dict, whose keys have these types;
# its tables are the Adam moments, in the parameters' order, and the loss trace
_CHECKPOINT_META = {"iteration": int, "adam_step": int, "train_config": dict}


def save_checkpoint(params: ModelParams, adam: AdamState, iteration: int,
                    trace: np.ndarray, train_cfg: TrainConfig, path):
    meta = {"iteration": iteration, "adam_step": adam.step,
            "train_config": asdict(train_cfg)}
    tables = {**{"adam.m." + name: m for name, m in adam.m.items()},
              **{"adam.v." + name: v for name, v in adam.v.items()},
              "trace": np.asarray(trace, dtype=np.float64).reshape(-1, 4)}
    with atomic_write(path) as fh:
        _write_model_section(fh, params, {"checkpoint_iteration": iteration})
        write_table_section(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, tables)


def load_checkpoint(path) -> tuple[ModelParams, AdamState, dict, np.ndarray]:
    """The parameters, Adam state, ``meta`` dict (iteration, Adam step,
    train config) and loss trace saved by :func:`save_checkpoint`; a
    malformed checkpoint raises :class:`FileFormatError`."""
    with open(path, "rb") as fh:
        params, _ = _read_model_section(fh)
        meta, tables = read_table_section(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    where = f"checkpoint {os.fspath(path)}"
    bad = [key for key, kind in _CHECKPOINT_META.items() if not isinstance(meta.get(key), kind)]
    if bad:
        raise FileFormatError(f"{where} meta lacks a valid {', '.join(bad)}")
    shapes = {f"adam.{kind}.{name}": t.data.shape
              for kind in "mv" for name, t in params.tensors.items()}
    tables = check_tables(tables, {**shapes, "trace": (None, 4)}, where)
    m, v = ({name: tables[f"adam.{kind}.{name}"] for name in params.tensors} for kind in "mv")
    try:
        adam = AdamState(params.tensors, m=m, v=v, step=meta["adam_step"])
    except ValueError as e:  # the shapes are checked above: moments of another dtype
        raise FileFormatError(f"{where}: {e}") from e
    return params, adam, meta, tables["trace"]


# settings a resumed run may change: how long it runs and how often it
# saves, and the class count, which the corpus determines
_RESUME_FREE = {"train.iterations", "train.checkpoint_every", "extractor.n_emotion_classes"}


def _check_resume(stored_train: dict, train_cfg: TrainConfig,
                  stored_extractor: ExtractorConfig, extractor_cfg: ExtractorConfig, path):
    """Raise ValueError, listing every differing key, unless the run that
    wrote the checkpoint at ``path`` was configured like this one."""
    sections = {"train": (stored_train, asdict(train_cfg)),
                "extractor": (asdict(stored_extractor), asdict(extractor_cfg))}
    diffs = [f"{section}.{key}: checkpoint {old.get(key)!r}, this run {new.get(key)!r}"
             for section, (old, new) in sections.items()
             for key in sorted(old.keys() | new.keys())
             if f"{section}.{key}" not in _RESUME_FREE and old.get(key) != new.get(key)]
    if diffs:
        raise ValueError(f"checkpoint {os.fspath(path)} was written by a differently "
                         f"configured run: " + "; ".join(diffs))


# ---------------------------------------------------------------------------
# loss trace CSV

TRACE_HEADER = ["iteration", "l_mixup", "l_rank", "l_total"]


def write_trace_csv(trace: np.ndarray, path):
    write_csv(path, TRACE_HEADER, ([int(row[0]), *(repr(float(x)) for x in row[1:])]
                                   for row in np.asarray(trace).reshape(-1, 4)))


def read_trace_csv(path) -> np.ndarray:
    """Read a loss trace written by :func:`write_trace_csv`; a malformed
    file raises :class:`FileFormatError`."""
    rows = read_csv(path, TRACE_HEADER, lambda row: [float(c) for c in row])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)
