"""The three benchmark workloads: closed loop, one process, generated inputs.

Each workload sets up several times (the median is ``setup_s``), runs its
timed loop for the requested number of seconds, then checks its outputs.
A *step* is one training iteration on ``train_*`` and one full ingest pass
over the WAV set on ``ingest_score``. With tracing on, the loop alternates
untraced and traced blocks of a few seconds after warm-up: the traced steps
run under :class:`tracer.Tracer`, which supplies the per-layer numbers, and
the untraced ones are the reference for the tracing overhead, taken under
the same machine load.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.io.wavfile

from emorank import codebook, extractor, features, is_neutral, synthcorpus, training

from tracer import Tracer

SETUP_REPEATS = 5
TRACE_BLOCK_S = 2.0  # length of each untraced or traced block in a traced run
REPEAT_ITERATIONS = {"train_small": 10, "train_paper": 2}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float]
    step_s: list[float]  # untraced steps after warm-up
    traced_step_s: list[float]
    items_per_step: int
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [attempted, failed]
    tracer: Tracer | None = None
    report: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool):
        cell = self.checks.setdefault(name, [0, 0])
        cell[0] += 1
        cell[1] += 0 if ok else 1

    def totals(self) -> tuple[int, int]:
        """(checks attempted, checks failed) over all check names."""
        return (sum(a for a, _ in self.checks.values()),
                sum(f for _, f in self.checks.values()))


class TooFewSteps(RuntimeError):
    """The loop ended before it measured enough steps for the statistics."""


def _require_steps(out: "Outcome", trace: bool):
    if len(out.step_s) < 2 or (trace and len(out.traced_step_s) < 2):
        raise TooFewSteps(f"measured {len(out.step_s)} untraced and "
                          f"{len(out.traced_step_s)} traced steps; raise --seconds")


class _TimeUp(Exception):
    """Raised from the iteration hook to end a training run on time."""


def _traced_block(elapsed: float) -> bool:
    return int(elapsed / TRACE_BLOCK_S) % 2 == 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7, stream)))


# ---------------------------------------------------------------------------
# training workloads

@dataclass(frozen=True)
class TrainShape:
    extractor: dict
    frame_length_range: tuple
    learning_rate: float
    checkpoint_every: int
    warmup: int


TRAIN_SHAPES = {
    # the acceptance-gate shape: tape overhead dominates
    "train_small": TrainShape(dict(hidden_dim=32, n_fft_blocks=2, conv_filter_dim=64,
                                   projector_hidden=32),
                              (40, 80), 1e-3, 0, 3),
    # the paper width on a longer, more ragged corpus: BLAS bound, and a
    # checkpoint every few iterations so the write shows in the tail
    "train_paper": TrainShape(dict(hidden_dim=256, n_fft_blocks=2, conv_filter_dim=1024,
                                   projector_hidden=128),
                              (60, 160), 1e-4, 3, 1),
}


class _IterationClock:
    """Stands in for ``training.iteration_rng``, which ``train_rank_model``
    calls once at the start of every iteration, and for
    ``training.total_loss``, whose result is that iteration's loss row.

    Housekeeping between iterations (deleting checkpoint files, switching
    tracing on) happens after one iteration's clock stops and before the
    next one's starts, so it is in neither.
    """

    def __init__(self, seconds: float, warmup: int, tracer: Tracer | None,
                 checkpoint_dir: str | None, stop_after_setup: bool = False):
        self.seconds = seconds
        self.warmup = warmup
        self.tracer = tracer
        self.checkpoint_dir = checkpoint_dir
        self.stop_after_setup = stop_after_setup
        self.durations: list[float] = []
        self.traced: list[bool] = []
        self.frames: list[int] = []  # mixture frames per iteration
        self.rows: list[tuple] = []
        self._frames = 0
        self._tracing = False
        self._t0 = None
        self._t_start = None
        self._iteration_rng = training.iteration_rng
        self._total_loss = training.total_loss
        self._make_mix_pair = training.make_mix_pair

    def __enter__(self):
        training.iteration_rng = self.iteration_rng
        training.total_loss = self.total_loss
        training.make_mix_pair = self.make_mix_pair
        return self

    def __exit__(self, *exc):
        if self._tracing:
            self.tracer.uninstall()
            self._tracing = False
        training.iteration_rng = self._iteration_rng
        training.total_loss = self._total_loss
        training.make_mix_pair = self._make_mix_pair
        return exc[0] is _TimeUp

    def make_mix_pair(self, *args, **kwargs):
        pair = self._make_mix_pair(*args, **kwargs)
        self._frames += 2 * pair.x_mix_i.shape[0]
        return pair

    def total_loss(self, l_mix, l_rank, weights):
        out = self._total_loss(l_mix, l_rank, weights)
        self.rows.append((l_mix.item(), l_rank.item(), out.item()))
        return out

    def iteration_rng(self, seed, iteration):
        now = time.perf_counter()
        if self.stop_after_setup:
            raise _TimeUp
        if self._t_start is not None:
            step = now - self._t_start
            self.durations.append(step)
            self.traced.append(self._tracing)
            self.frames.append(self._frames)
            if self._tracing:
                self.tracer.end_step(step)
        else:
            self._t0 = now
        if self.checkpoint_dir is not None:
            for name in os.listdir(self.checkpoint_dir):
                os.remove(os.path.join(self.checkpoint_dir, name))
        elapsed = now - self._t0
        if elapsed >= self.seconds:
            raise _TimeUp
        want = (self.tracer is not None and len(self.durations) >= self.warmup
                and _traced_block(elapsed))
        if want != self._tracing:
            if want:
                self.tracer.install()
            else:
                self.tracer.uninstall()
            self._tracing = want
        if self._tracing:
            self.tracer.begin_step()
        self._frames = 0
        self._t_start = time.perf_counter()
        return self._iteration_rng(seed, iteration)


def _train_configs(shape: TrainShape, seed: int, iterations: int, checkpoint_every: int):
    return (extractor.ExtractorConfig(**shape.extractor),
            training.TrainConfig(iterations=iterations, learning_rate=shape.learning_rate,
                                 batch_pairs=8, seed=seed,
                                 checkpoint_every=checkpoint_every))


def run_train(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    shape = TRAIN_SHAPES[name]
    spec = synthcorpus.SynthSpec(frame_length_range=shape.frame_length_range)
    ckpt_dir = os.path.join(workdir, "ckpt") if shape.checkpoint_every else None
    if ckpt_dir:
        os.makedirs(ckpt_dir)

    # set-up: corpus generation plus train_rank_model up to its first
    # iteration (model init and feature statistics)
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = synthcorpus.generate(spec, _rng(seed, 0)).corpus
        generate_s.append(time.perf_counter() - t0)
        ext_cfg, train_cfg = _train_configs(shape, seed, 10**9, 0)
        with _IterationClock(seconds, 0, None, None, stop_after_setup=True):
            training.train_rank_model(corpus, ext_cfg, train_cfg)
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    ext_cfg, train_cfg = _train_configs(shape, seed, 10**9, shape.checkpoint_every)
    with _IterationClock(seconds, shape.warmup, tracer, ckpt_dir) as clock:
        training.train_rank_model(corpus, ext_cfg, train_cfg, checkpoint_dir=ckpt_dir)

    durations = clock.durations[shape.warmup:]
    traced = clock.traced[shape.warmup:]
    out = Outcome(setup_s=setup_s,
                  step_s=[d for d, t in zip(durations, traced) if not t],
                  traced_step_s=[d for d, t in zip(durations, traced) if t],
                  items_per_step=train_cfg.batch_pairs, tracer=tracer)
    _require_steps(out, trace)
    out.report["synthcorpus.generate_s"] = float(np.median(generate_s))

    rows = np.asarray(clock.rows[:len(clock.durations)], dtype=np.float64)
    for row in rows:
        out.check("loss_finite", bool(np.all(np.isfinite(row))))
    window = max(3, len(rows) // 4)
    first, last = rows[:window, 2].mean(), rows[-window:, 2].mean()
    out.check("loss_decreases", bool(last < first))

    # the same seed must give the same loss trace, bit for bit
    k = min(REPEAT_ITERATIONS[name], len(rows))
    ext_cfg, train_cfg = _train_configs(shape, seed, k, 0)
    again = training.train_rank_model(corpus, ext_cfg, train_cfg).trace[:, 1:]
    out.check("loss_trace_repeats", bool(np.array_equal(again, rows[:k])))

    out.report.update({
        "iterations": len(clock.durations),
        "warmup_iterations": shape.warmup,
        "loss_window": window,
        "l_total_first_window_mean": float(first),
        "l_total_last_window_mean": float(last),
        "final_l_total": float(rows[-1, 2]),
        "loss_trace_prefix_iterations": k,
        "loss_trace_prefix_sha256": hashlib.sha256(rows[:k].tobytes()).hexdigest(),
        "loss_trace_prefix_final_l_total": float(rows[k - 1, 2]),
        "loss_trace_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
        "corpus_frames_per_utterance": float(np.mean([u.n_frames for u in corpus])),
        "checkpoint_every": shape.checkpoint_every,
        "frames_per_iteration": clock.frames[shape.warmup:],
    })
    return out


# ---------------------------------------------------------------------------
# ingest workload

INGEST_SPEAKERS = ("spk0", "spk1")
INGEST_EMOTIONS = ("angry", "amused", "sleepy")
INGEST_PER_CELL = 3  # utterances per (speaker, class); 6 per emotion >= 3 bins
INGEST_DURATION_S = (1.5, 6.0)
_SPEAKER_F0 = {"spk0": 120.0, "spk1": 210.0}
_EMOTION_F0_SCALE = {"neutral": 1.0, "angry": 1.25, "amused": 1.15, "sleepy": 0.85}


def _tone(rng: np.random.Generator, seconds: float, f0: float, sr: int) -> np.ndarray:
    """A voiced harmonic tone with vibrato and syllable-rate gaps, plus noise."""
    n = int(round(seconds * sr))
    t = np.arange(n) / sr
    vib = 1.0 + 0.03 * np.sin(2 * np.pi * rng.uniform(4.0, 6.0) * t)
    phase = 2 * np.pi * np.cumsum(f0 * vib) / sr
    sig = sum((0.6 / h) * np.sin(h * phase + rng.uniform(0, 2 * np.pi)) for h in range(1, 7))
    syllables = np.clip(1.5 * np.sin(2 * np.pi * rng.uniform(2.5, 4.0) * t) + 0.5, 0.0, 1.0)
    audio = sig * syllables + rng.normal(0.0, 0.03, n)
    return audio / np.max(np.abs(audio)) * 0.8


@dataclass
class IngestSet:
    wavs: list[tuple]  # (path, stem, speaker, emotion, n_samples)
    audio_s: float
    params: extractor.ModelParams
    labels: list[tuple]  # per-phoneme (emotion, level) track for condition


def _ingest_setup(seed: int, workdir: str, fcfg: features.FeatureConfig) -> IngestSet:
    rng = _rng(seed, 1)
    wav_dir = os.path.join(workdir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    cells = [(spk, emo) for spk in INGEST_SPEAKERS for emo in ("neutral",) + INGEST_EMOTIONS
             for _ in range(INGEST_PER_CELL)]
    # evenly spread durations, shuffled: every seed gets the same total audio
    lo, hi = INGEST_DURATION_S
    durations = np.linspace(lo, hi, len(cells)) + rng.uniform(-0.05, 0.05, len(cells))
    durations = rng.permutation(np.clip(durations, lo, hi))
    wavs, fms = [], []
    for i, ((spk, emo), dur) in enumerate(zip(cells, durations)):
        f0 = _SPEAKER_F0[spk] * _EMOTION_F0_SCALE[emo] * rng.uniform(0.95, 1.05)
        audio = _tone(rng, float(dur), f0, fcfg.sample_rate_hz)
        stem = f"{spk}_{emo}_{i:03d}"
        path = os.path.join(wav_dir, stem + ".wav")
        scipy.io.wavfile.write(path, fcfg.sample_rate_hz, np.round(audio * 32767).astype(np.int16))
        wavs.append((path, stem, spk, emo, audio.shape[0]))
        fms.append(features.featurize_audio(audio, fcfg, stem, emo, spk))
    mean, std = training.compute_feature_stats(training.Corpus(fms))
    classes = ["neutral"] + sorted(INGEST_EMOTIONS)
    params = extractor.init_params(extractor.ExtractorConfig(n_emotion_classes=len(classes)),
                                   classes, _rng(seed, 2))
    params.feat_mean = np.asarray(mean, dtype=params.dtype)
    params.feat_std = np.asarray(std, dtype=params.dtype)
    levels = codebook.level_names(3)
    labels = [("neutral", "-") if rng.random() < 0.25
              else (str(rng.choice(INGEST_EMOTIONS)), str(rng.choice(levels)))
              for _ in range(48)]
    labels[0] = ("neutral", "-")
    return IngestSet(wavs, sum(w[4] for w in wavs) / fcfg.sample_rate_hz, params, labels)


def _ingest_pass(s: IngestSet, fcfg, emof_dir: str, codebook_path: str) -> dict:
    """The timed pipeline; returns its outputs and the split of its time."""
    t0 = time.perf_counter()
    written = []
    for path, stem, spk, emo, _ in s.wavs:
        audio, _sr = features.load_wav(path)
        fm = features.featurize_audio(audio, fcfg, stem, emo, spk)
        features.write_features(fm, os.path.join(emof_dir, stem + ".emof"))
        written.append(fm)
    t1 = time.perf_counter()
    corpus = training.load_corpus(emof_dir, require_roles=False)
    t2 = time.perf_counter()
    records = codebook.score_corpus(s.params, corpus)
    t3 = time.perf_counter()
    cb = codebook.build_codebook(records)
    codebook.save_codebook(cb, codebook_path)
    cond = codebook.condition(cb, s.labels)
    t4 = time.perf_counter()
    return {"written": written, "corpus": corpus, "records": records, "codebook": cb,
            "cond": cond, "featurize_s": t1 - t0, "score_s": t3 - t2, "wall_s": t4 - t0}


def _check_ingest(out: Outcome, s: IngestSet, fcfg, res: dict, rng: np.random.Generator):
    win, hop = fcfg.window_samples, fcfg.hop_samples
    for (_, _, _, _, n), fm in zip(s.wavs, res["written"]):
        out.check("frame_count", fm.n_frames == (n - win) // hop + 1)
    loaded = {u.source_id: u for u in res["corpus"]}
    for fm in res["written"]:
        back = loaded.get(fm.source_id)
        out.check("emof_round_trip", back is not None
                  and back.frames.dtype == fm.frames.dtype
                  and back.frames.tobytes() == fm.frames.tobytes()
                  and (back.emotion_label, back.speaker_id) == (fm.emotion_label, fm.speaker_id))
    records = res["records"]
    for r in records:
        out.check("score_finite", bool(np.isfinite(r.score)))
    cb = res["codebook"]
    for emo in INGEST_EMOTIONS:
        means = [cb.emotions[emo].mean_scores[lv] for lv in codebook.level_names(3)]
        out.check("levels_increase", means[0] < means[1] < means[2])
    cond = res["cond"]
    neutral = np.array([is_neutral(e) for e, _ in s.labels])
    out.check("neutral_rows_zero", bool(np.all(cond[neutral] == 0.0)))
    out.check("condition_rows", all(np.array_equal(cond[p], cb.vector(e, lv))
                                    for p, (e, lv) in enumerate(s.labels) if not neutral[p]))
    # a fresh unbatched forward pass must give the same score
    for i in rng.choice(len(records), size=2, replace=False):
        r = records[int(i)]
        u = loaded[r.utterance_id]
        h = extractor.pool(extractor.forward_intensity(s.params, u.frames, u.emotion_label))
        fresh = extractor.project_score(s.params, h).item()
        out.check("score_matches_fresh_forward",
                  abs(fresh - r.score) <= 1e-5 * max(abs(fresh), 1e-12))


def run_ingest(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    fcfg = features.FeatureConfig()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        s = _ingest_setup(seed, workdir, fcfg)
        setup_s.append(time.perf_counter() - t0)
    emof_dir = os.path.join(workdir, "emof")
    os.makedirs(emof_dir)
    cb_path = os.path.join(workdir, "codebook.json")

    warmup = 1
    tracer = Tracer() if trace else None
    check_rng = _rng(seed, 3)
    out = Outcome(setup_s=setup_s, step_s=[], traced_step_s=[],
                  items_per_step=len(s.wavs), tracer=tracer)
    featurize_s, score_s, passes = [], [], 0
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < seconds:
        tracing = (tracer is not None and passes >= warmup
                   and _traced_block(time.perf_counter() - t_begin))
        if tracing:
            tracer.install()
            tracer.begin_step()
            try:
                res = _ingest_pass(s, fcfg, emof_dir, cb_path)
            finally:
                tracer.uninstall()
            tracer.end_step(res["wall_s"])
        else:
            res = _ingest_pass(s, fcfg, emof_dir, cb_path)
        passes += 1
        if passes > warmup:
            (out.traced_step_s if tracing else out.step_s).append(res["wall_s"])
            if not tracing:
                featurize_s.append(res["featurize_s"])
                score_s.append(res["score_s"])
        _check_ingest(out, s, fcfg, res, check_rng)
    _require_steps(out, trace)
    n_scored = len(res["records"])
    out.report.update({
        "passes": passes,
        "warmup_passes": warmup,
        "utterances_per_pass": len(s.wavs),
        "scored_per_pass": n_scored,
        "audio_s_per_pass": s.audio_s,
        "featurize_x_realtime": s.audio_s / float(np.median(featurize_s)),
        "score_utts_per_s": n_scored / float(np.median(score_s)),
        "ingest_wall_s": float(np.median(out.step_s)),
    })
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    if name == "ingest_score":
        return run_ingest(seed, seconds, trace, workdir)
    return run_train(name, seed, seconds, trace, workdir)


def cleanup(workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
