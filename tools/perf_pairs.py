"""Alternating parent/change benchmark pairs, summarized into one JSON file.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload train_paper \\
        --pairs 10 --seconds 35 --seed-base 1 --out BENCH_<pr>.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed, one after the other; the side that goes first alternates from
pair to pair, and pair i uses seed ``seed_base + i``. Every end-to-end metric
that the change checkout's ``BENCHMARK.json`` names is summarized per side
(median and quartiles over the runs, every run kept) with the number of
pairs the change wins, ties counting for neither side; so is whether the two
runs of each pair gave the same ``loss_trace_prefix_sha256`` (null on a
workload that reports none). The environment (nproc, BLAS library and
thread count) is taken from each side's report line.

The file holds one entry per workload: an existing ``--out`` file keeps its
other workloads, and it is rewritten after every pair, so a cut-short
session leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ENV_KEYS = ("nproc", "blas", "blas_threads", "cpu_model", "python", "numpy")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run: its report dict and its end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    report = next((ln["report"] for ln in lines if "report" in ln), None)
    if proc.returncode != 0 or report is None or "metrics" not in lines[-1]:
        sys.exit(f"perf_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return {"report": report,
            "metrics": {k: v["value"] for k, v in lines[-1]["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    metrics = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        per_side = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(per_side["parent"], per_side["change"]))
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         **{side: {**quartiles(v), "runs": v} for side, v in per_side.items()},
                         "change_wins": wins,
                         "ties": sum(p == c for p, c in zip(*per_side.values()))}
    digest = "loss_trace_prefix_sha256"
    return {
        "environment": {side: {k: pairs[0][side]["report"]["environment"].get(k)
                               for k in ENV_KEYS} for side in SIDES},
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "metrics": metrics,
        f"{digest}_match": [None if digest not in p["parent"]["report"] else
                            p["parent"]["report"][digest] == p["change"]["report"].get(digest)
                            for p in pairs],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed-base", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path,
                    help="JSON file to write; its other workloads are kept")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    end_to_end = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        doc.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, **summarize(pairs, end_to_end)}
        tmp = args.out.with_name(args.out.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, args.out)
        print(f"{args.workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{m['name']} {pair['parent']['metrics'][m['name']]:.4g} -> "
            f"{pair['change']['metrics'][m['name']]:.4g}" for m in end_to_end), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
