"""Command-line surface for the full pipeline.

Subcommands: featurize, synthdata, train, score, codebook, condition, mcd,
gradcheck. Every command is deterministic given its config and seed, writes
a provenance stanza next to its artifact, and maps failure classes to
distinct exit codes:

  0  success
  2  usage error (argparse)
  3  missing input file or directory
  4  unreadable artifact: bad magic/version/checksum, invalid config
  5  dimension or lookup mismatch between otherwise valid artifacts
  6  featurize completed with per-file failures (listed on stderr)
  7  training aborted on a non-finite loss or gradient
  8  gradient check exceeded tolerance
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import numerics as nm
from .binio import FileFormatError, atomic_write
from .codebook import (build_codebook, codebook_provenance, condition,
                       load_codebook, read_alignment, read_phoneme_labels,
                       save_codebook, score_corpus)
from .extractor import (ExtractorConfig, init_params, load_model, params_digest,
                        save_model)
from .features import (featurize_audio, load_pitch_csv, load_wav, read_emof,
                       read_features, write_emof, write_features)
from .losses import LossWeights, total_loss
from .mixup import MixPair
from .evalmetrics import mcd_report, mel_cepstra
from .runconfig import ConfigError, RunConfig, describe_defaults
from .synthcorpus import generate, save_corpus, spec_digest
from .training import (Corpus, TrainingError, corpus_digest, load_corpus,
                       pair_losses, train_rank_model, write_trace_csv)

EXIT_OK = 0
EXIT_MISSING_INPUT = 3
EXIT_FORMAT = 4
EXIT_DIMENSION = 5
EXIT_PARTIAL = 6
EXIT_TRAINING = 7
EXIT_GRADCHECK = 8

# smallest gradient norm a gradcheck error is measured against, as a
# fraction of the largest tensor gradient norm in the model
GRADCHECK_REL_FLOOR = 1e-4


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_provenance(artifact_path, command: str, cfg: RunConfig, seed,
                     inputs: dict, extra: dict | None = None):
    """JSON sidecar recording exactly what produced an artifact."""
    doc = {
        "tool": f"emorank {__version__}",
        "command": command,
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "inputs": inputs,
    }
    if extra:
        doc.update(extra)
    with atomic_write(str(artifact_path) + ".provenance.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _corpus_from_path(features) -> Corpus:
    # scoring does not sample pairs, so neutral/emotional roles are optional
    if os.path.isdir(features):
        return load_corpus(features, require_roles=False)
    return Corpus([read_features(features)], require_roles=False)


# ---------------------------------------------------------------------------
# featurize


def cmd_featurize(args) -> int:
    cfg = RunConfig.load(args.config)
    fcfg = cfg.feature_config()
    labels = {}
    with open(args.labels, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["filename", "speaker", "emotion"]:
            raise FileFormatError(f"{args.labels}:1: labels CSV must start with header "
                                  f"filename,speaker,emotion; got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise FileFormatError(f"{args.labels}:{reader.line_num}: expected "
                                      f"filename,speaker,emotion; got {row}")
            labels[row[0]] = (row[1], row[2])

    wavs = sorted(p for p in os.listdir(args.wav_dir) if p.lower().endswith(".wav"))
    if not wavs:
        raise FileNotFoundError(f"no .wav files in {args.wav_dir}")
    os.makedirs(args.out_dir, exist_ok=True)
    ok, failed = 0, []
    counts: dict[tuple, int] = {}
    for name in wavs:
        if name not in labels:
            failed.append((name, "no row in labels CSV"))
            continue
        speaker, emotion = labels[name]
        stem = os.path.splitext(name)[0]
        try:
            audio, sr = load_wav(os.path.join(args.wav_dir, name))
            if sr != fcfg.sample_rate_hz:
                raise FileFormatError(f"sample rate {sr} does not match "
                                      f"configured {fcfg.sample_rate_hz}")
            pitch = None
            if args.pitch_dir:
                pitch_path = os.path.join(args.pitch_dir, stem + ".f0.csv")
                if os.path.exists(pitch_path):
                    pitch = load_pitch_csv(pitch_path)
            fm = featurize_audio(audio, fcfg, source_id=stem,
                                 emotion_label=emotion, speaker_id=speaker,
                                 pitch_override=pitch)
            out_path = os.path.join(args.out_dir, stem + ".emof")
            write_features(fm, out_path)
            ok += 1
            counts[(speaker, emotion)] = counts.get((speaker, emotion), 0) + 1
        except (FileFormatError, ValueError, OSError) as e:
            failed.append((name, str(e)))
    for speaker, emotion in sorted(counts):
        print(f"  {speaker}/{emotion}: {counts[(speaker, emotion)]}")
    print(f"{ok} ok, {len(failed)} failed")
    for name, reason in failed:
        print(f"failed: {name}: {reason}", file=sys.stderr)
    write_provenance(os.path.join(args.out_dir, "featurize"), "featurize", cfg,
                     cfg.resolve_seed(args.seed),
                     {"wav_dir": os.path.abspath(args.wav_dir),
                      "labels": sha256_file(args.labels)},
                     {"ok": ok, "failed": [n for n, _ in failed]})
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# synthdata


def cmd_synthdata(args) -> int:
    cfg = RunConfig.load(args.config)
    seed = cfg.resolve_seed(args.seed)
    spec = cfg.synth_spec()
    result = generate(spec, np.random.default_rng(seed))
    paths = save_corpus(result, args.out_dir)
    print(f"wrote {len(paths)} utterances "
          f"({spec.n_speakers} speakers x {1 + spec.n_emotions} classes "
          f"x {spec.utterances_per_cell}) to {args.out_dir}")
    write_provenance(os.path.join(args.out_dir, "corpus"), "synthdata", cfg, seed,
                     {"spec": spec_digest(spec)},
                     {"corpus_hash": corpus_digest(result.corpus)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    seed = cfg.resolve_seed(args.seed)
    corpus = load_corpus(args.features_dir)
    # replace() re-runs TrainConfig's validation on the flag overrides
    overrides = {"iterations": args.iterations, "learning_rate": args.learning_rate,
                 "checkpoint_every": args.checkpoint_every}
    tcfg = dataclasses.replace(cfg.train_config(seed),
                               **{k: v for k, v in overrides.items() if v is not None})
    if args.log_every < 0:
        raise ValueError(f"--log-every must be >= 0, got {args.log_every}")
    ecfg = cfg.extractor_config()
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
    result = train_rank_model(corpus, ecfg, tcfg,
                              checkpoint_dir=args.checkpoint_dir,
                              resume_from=args.resume,
                              log_every=args.log_every)
    save_model(result.params, args.out,
               meta={"config_hash": cfg.config_hash(), "seed": seed,
                     "iterations": tcfg.iterations})
    loss_csv = args.loss_csv or (os.path.splitext(args.out)[0] + "_loss.csv")
    write_trace_csv(result.trace, loss_csv)
    print(f"trained {tcfg.iterations} iterations; "
          f"final l_total={result.trace[-1, 3]:.6f}; "
          f"model -> {args.out}; loss trace -> {loss_csv}")
    write_provenance(args.out, "train", cfg, seed,
                     {"corpus_hash": corpus_digest(corpus),
                      "resume_from": args.resume},
                     {"model_hash": params_digest(result.params)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# score


def cmd_score(args) -> int:
    cfg = RunConfig.load(args.config)
    params, _ = load_model(args.model)
    corpus = _corpus_from_path(args.features)
    records = score_corpus(params, corpus)
    rows = [[r.utterance_id, r.emotion, repr(r.score)] for r in records]
    if args.out:
        with atomic_write(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["utterance_id", "emotion", "score"])
            writer.writerows(rows)
        write_provenance(args.out, "score", cfg, cfg.resolve_seed(args.seed),
                         {"model": sha256_file(args.model),
                          "corpus_hash": corpus_digest(corpus)},
                         {"n_records": len(records)})
        print(f"wrote {len(records)} scores to {args.out}")
    else:
        print("utterance_id,emotion,score")
        for row in rows:
            print(",".join(row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# codebook


def cmd_codebook(args) -> int:
    cfg = RunConfig.load(args.config)
    cb_cfg = cfg.doc["codebook"]
    params, _ = load_model(args.model)
    # only non-neutral utterances are scored, so neutral ones are optional
    corpus = load_corpus(args.features_dir, require_roles=False)
    records = score_corpus(params, corpus)
    prov = codebook_provenance(params, corpus,
                               config_hash=cfg.config_hash(),
                               seed=cfg.resolve_seed(args.seed))
    cb = build_codebook(records,
                        n_bins=args.bins if args.bins is not None else cb_cfg["n_bins"],
                        policy=args.policy or cb_cfg["policy"],
                        level_source=args.level_source or cb_cfg["level_source"],
                        provenance=prov)
    save_codebook(cb, args.out)
    print(f"codebook for {sorted(cb.emotions)} "
          f"({cb.provenance['n_bins']} bins, {cb.provenance['bin_policy']}) "
          f"-> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# condition


def cmd_condition(args) -> int:
    cfg = RunConfig.load(args.config)
    cb = load_codebook(args.codebook)
    labels = read_phoneme_labels(args.labels)
    extra = {"n_phonemes": len(labels)}
    if args.alignment:
        align = read_alignment(args.alignment)
        if len(align) != len(labels):
            raise ValueError(f"alignment has {len(align)} phonemes but labels "
                             f"file has {len(labels)}")
        extra["alignment_symbols"] = [iv.symbol for iv in align.intervals]
        extra["alignment_end_s"] = align.end_s
    matrix = condition(cb, labels)
    stem = os.path.splitext(os.path.basename(args.labels))[0]
    write_emof(args.out, matrix.astype(np.float32), frame_rate_hz=1.0,
               emotion_label="conditioning", speaker_id="",
               source_id=stem)
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} conditioning matrix "
          f"to {args.out}")
    write_provenance(args.out, "condition", cfg, cfg.resolve_seed(args.seed),
                     {"codebook": sha256_file(args.codebook),
                      "labels": sha256_file(args.labels),
                      "alignment": sha256_file(args.alignment)
                      if args.alignment else None},
                     extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mcd


def cmd_mcd(args) -> int:
    frames_a, _, _, _, source_a = read_emof(args.seq_a)
    frames_b, _, _, _, source_b = read_emof(args.seq_b)
    if frames_a.shape != frames_b.shape:
        raise ValueError(f"shape mismatch: {args.seq_a} is {frames_a.shape}, "
                         f"{args.seq_b} is {frames_b.shape}")
    # standard feature layout: trailing pitch and energy columns are not mel
    n_mel = frames_a.shape[1] - 2 if frames_a.shape[1] > 2 else frames_a.shape[1]
    cep_a = mel_cepstra(frames_a[:, :n_mel], order=args.order)
    cep_b = mel_cepstra(frames_b[:, :n_mel], order=args.order)
    report = mcd_report([(f"{source_a} vs {source_b}", cep_a, cep_b)])
    print(report.format_table())
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        cfg = RunConfig.load(args.config)
        write_provenance(args.out, "mcd", cfg, cfg.resolve_seed(args.seed),
                         {"seq_a": sha256_file(args.seq_a),
                          "seq_b": sha256_file(args.seq_b)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def run_gradcheck(gc: dict, seed: int) -> tuple[dict, bool]:
    """Analytic vs central-finite-difference gradients through the whole
    training loss on a tiny double-precision model. Returns per-tensor
    relative errors and the overall verdict."""
    rng = np.random.default_rng(seed)
    ecfg = ExtractorConfig(input_dim=gc["input_dim"], hidden_dim=gc["hidden_dim"],
                           n_fft_blocks=1, n_heads=gc["n_heads"],
                           conv_kernel=gc["conv_kernel"],
                           conv_filter_dim=gc["conv_filter_dim"],
                           dropout=0.0,
                           n_emotion_classes=gc["n_emotion_classes"],
                           projector_hidden=gc["projector_hidden"])
    emotions = ["neutral"] + [f"class{i}" for i in range(1, gc["n_emotion_classes"])]
    params = init_params(ecfg, emotions, rng, dtype=np.float64)
    t_len = gc["time_frames"]
    pair = MixPair(x_mix_i=rng.normal(size=(t_len, ecfg.input_dim)),
                   x_mix_j=rng.normal(size=(t_len, ecfg.input_dim)),
                   lambda_i=0.8, lambda_j=0.3, emotion_label=emotions[1], speaker_id="")
    weights = LossWeights()

    def loss_value() -> nm.Tensor:
        l_mix, l_rank = pair_losses(params, [pair], train=False)
        return total_loss(l_mix, l_rank, weights)

    loss = loss_value()
    params.zero_grads()
    loss.backward()
    fd = {name: nm.finite_difference_grad(lambda: loss_value().item(), t)
          for name, t in params.tensors.items()}
    # A tensor whose true gradient is exactly zero (the key bias: softmax
    # ignores a per-row shift) leaves only finite-difference noise, so its
    # error is measured against the model's gradient scale, not itself.
    floor = GRADCHECK_REL_FLOOR * max(float(np.linalg.norm(g)) for g in fd.values())
    errors = {}
    for name, t in params.tensors.items():
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = max(float(np.linalg.norm(fd[name])), floor, 1e-12)
        errors[name] = float(np.linalg.norm(analytic - fd[name]) / denom)
    return errors, all(e < gc["tolerance"] for e in errors.values())


def cmd_gradcheck(args) -> int:
    cfg = RunConfig.load(args.config)
    seed = cfg.resolve_seed(args.seed)
    gc = cfg.doc["gradcheck"]
    errors, ok = run_gradcheck(gc, seed)
    width = max(len(n) for n in errors)
    for name in sorted(errors):
        verdict = "ok" if errors[name] < gc["tolerance"] else "FAIL"
        print(f"  {name:<{width}}  rel_err={errors[name]:.3e}  {verdict}")
    print(f"gradcheck {'PASS' if ok else 'FAIL'} "
          f"(tolerance {gc['tolerance']:g}, {len(errors)} tensors, seed {seed})")
    return EXIT_OK if ok else EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    epilog = describe_defaults()
    parser = argparse.ArgumentParser(
        prog="emorank",
        description="Emotion-intensity rank model: feature extraction, mixup "
                    "pair training, scoring, and intensity-codebook export.",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"emorank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON run-config file (defaults apply)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (highest precedence)")
        return p

    p = add("featurize", "convert labeled WAVs into EMOF feature files")
    p.add_argument("wav_dir")
    p.add_argument("labels", help="CSV with header filename,speaker,emotion")
    p.add_argument("out_dir")
    p.add_argument("--pitch-dir", help="directory of <stem>.f0.csv pitch overrides")
    p.set_defaults(func=cmd_featurize)

    p = add("synthdata", "generate the synthetic oracle corpus")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_synthdata)

    p = add("train", "train the rank model on a directory of EMOF files")
    p.add_argument("features_dir")
    p.add_argument("out", help="output model path (.emom)")
    p.add_argument("--loss-csv", help="loss trace path (default <out>_loss.csv)")
    p.add_argument("--checkpoint-dir", help="directory for periodic checkpoints")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = add("score", "score utterances with a trained model")
    p.add_argument("model")
    p.add_argument("features", help="EMOF file or directory")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_score)

    p = add("codebook", "build the per-emotion intensity codebook")
    p.add_argument("model")
    p.add_argument("features_dir")
    p.add_argument("out", help="output codebook JSON")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--policy", choices=["quantile", "fixed"], default=None)
    p.add_argument("--level-source", choices=["pooled", "frames"], default=None)
    p.set_defaults(func=cmd_codebook)

    p = add("condition", "map per-phoneme (emotion, level) labels to vectors")
    p.add_argument("codebook")
    p.add_argument("labels", help="labels file: '#levels v1' header, emotion<TAB>level")
    p.add_argument("out", help="output EMOF matrix (one row per phoneme)")
    p.add_argument("--alignment", help="optional '#phonemes v1' interval file; "
                                       "must match the label count")
    p.set_defaults(func=cmd_condition)

    p = add("mcd", "mel-cepstral distortion between two aligned feature files")
    p.add_argument("seq_a")
    p.add_argument("seq_b")
    p.add_argument("--order", type=int, default=13)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_mcd)

    p = add("gradcheck", "verify analytic gradients against finite differences")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing input: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ConfigError, FileFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
