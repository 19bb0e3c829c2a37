"""emorank benchmark: one command, three workloads, generated inputs only.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics. Earlier lines print every metric with its unit, the
environment, and a per-workload report. Exit code 0 means the run finished;
the ``correct`` field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_small", "train_paper", "ingest_score")

# BLAS threads are pinned before numpy loads, at a fixed count no higher
# than the cores this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _import_program():
    """Import emorank from this checkout's src/, or exit 3 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import emorank
    except ImportError as exc:
        print(f"perfbench: cannot import emorank from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if Path(emorank.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: emorank resolved to {emorank.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(3)


def tail_stat(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); the percentile is 100 * (n - 10) / n,
    interpolated linearly, and never below the median.
    """
    import numpy as np

    n = len(values)
    q = max(50.0, 100.0 * (n - 10) / n)
    return float(np.percentile(values, q)), q


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "emorank").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(out) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail, _ = tail_stat(out.step_s)
    attempted, failed = out.totals()
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "checks_passed_share": ((attempted - failed) / attempted, "ratio"),
        "step_ms_p50": (1e3 * statistics.median(out.step_s), "ms"),
        "step_ms_tail": (1e3 * tail, "ms"),
        "items_per_s": (out.items_per_step * len(out.step_s) / sum(out.step_s), "1/s"),
    }


def per_layer(name: str, out) -> dict:
    from tracer import INCLUSIVE, OP_KINDS

    tr = out.tracer
    steps = tr.counts["steps"]
    # per-layer values are per training iteration, or per utterance on ingest
    per = steps if name != "ingest_score" else steps * out.items_per_step
    ms = {k: 1e3 * v / per for k, v in tr.self_s.items()}
    incl = {k: 1e3 * v / per for k, v in tr.incl_s.items()}
    traced_step = sum(out.traced_step_s)
    covered = sum(v for k, v in tr.self_s.items() if k != "step.self")
    writes = tr.counts["checkpoint_writes"]
    train = name != "ingest_score"

    m = {
        "numerics.ops_per_iter": (tr.counts["ops"] / per if train else 0, "count"),
        "numerics.ops_per_utt": (0 if train else tr.counts["ops"] / per, "count"),
        "numerics.trace_ms": (ms.get("numerics.trace", 0.0), "ms"),
        "numerics.backward_ms": (ms.get("numerics.backward", 0.0), "ms"),
        "numerics.adam_step_ms": (ms.get("numerics.adam_step", 0.0), "ms"),
    }
    for kind in OP_KINDS + ("other",):
        for d in ("fwd", "bwd"):
            m[f"numerics.{kind}.{d}_ms"] = (ms.get(f"numerics.{kind}.{d}", 0.0), "ms")
    m.update({
        "extractor.forward_intensity_ms": (ms.get("extractor.forward_intensity", 0.0), "ms"),
        "extractor.heads_ms": (ms.get("extractor.heads", 0.0), "ms"),
        "extractor.frames_per_iter": (tr.counts["frames"] / per, "count"),
        "losses.fwd_ms": (ms.get("losses.fwd", 0.0), "ms"),
        "mixup.make_mix_pair_ms": (ms.get("mixup.make_mix_pair", 0.0), "ms"),
        "mixup.frames_kept_ratio": (tr.counts["mix_frames_kept"]
                                    / max(tr.counts["mix_frames_source"], 1), "ratio"),
        "training.sample_pair_ms": (ms.get("training.sample_pair", 0.0), "ms"),
        "training.save_checkpoint_ms": (1e3 * tr.self_s.get("training.save_checkpoint", 0.0)
                                        / max(writes, 1), "ms"),
        "training.checkpoint_bytes": (tr.counts["checkpoint_bytes"] / max(writes, 1), "bytes"),
        "training.iter_self_ms": (ms.get("step.self", 0.0) if train else 0.0, "ms"),
        "training.load_corpus_ms": (ms.get("training.load_corpus", 0.0), "ms"),
    })
    for f in ("load_wav", "extract_mel", "extract_pitch", "extract_energy",
              "write_features", "read_features"):
        m[f"features.{f}_ms"] = (ms.get(f"features.{f}", 0.0), "ms")
    m["features.featurize_self_ms"] = (ms.get("features.featurize_audio", 0.0), "ms")
    for f in ("score_corpus", "build_codebook", "save_codebook", "condition"):
        m[f"codebook.{f}_ms"] = (ms.get(f"codebook.{f}", 0.0), "ms")
    m["ingest.pass_self_ms"] = (0.0 if train else ms.get("step.self", 0.0), "ms")
    for span in INCLUSIVE:
        m[f"{span}.total_ms"] = (incl.get(span, 0.0), "ms")
    m.update({
        "binio.bytes_written": (tr.counts["bytes_written"] / per, "bytes"),
        "binio.bytes_read": (tr.counts["bytes_read"] / per, "bytes"),
        "synthcorpus.generate_ms": (1e3 * out.report.get("synthcorpus.generate_s", 0.0), "ms"),
        "tracing.step_ms_p50": (1e3 * statistics.median(out.traced_step_s), "ms"),
        "tracing.overhead_ms": (1e3 * (statistics.median(out.traced_step_s)
                                       - statistics.median(out.step_s)), "ms"),
        "tracing.coverage_ratio": (covered / traced_step, "ratio"),
        "tracing.traced_steps": (steps, "count"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    import workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        try:
            out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                workdir)
        except workloads.TooFewSteps as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 4
        if args.trace:
            metrics = per_layer(args.workload, out)
            # the spans must account for the step time, within 10%
            out.check("trace_coverage", abs(metrics["tracing.coverage_ratio"][0] - 1.0) <= 0.10)
        else:
            metrics = end_to_end(out)
    finally:
        workloads.cleanup(workdir)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted, failed = out.totals()
    tail, tail_pct = tail_stat(out.step_s)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "checks": {k: {"attempted": a, "failed": f} for k, (a, f) in out.checks.items()},
        "failed_share": failed / attempted,
        "steps_measured": len(out.step_s),
        "step_tail_percentile": tail_pct,
        "setup_s_samples": out.setup_s,
        "step_ms_samples": [round(1e3 * d, 3) for d in out.step_s],
        **out.report,
    }
    if args.workload != "ingest_score":
        report.update({"train_iter_ms_p50": 1e3 * statistics.median(out.step_s),
                       "train_iter_ms_tail": 1e3 * tail,
                       "train_pairs_per_s": out.items_per_step * len(out.step_s)
                       / sum(out.step_s)})
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
