"""A corruption sweep: every damaged artifact exits with its pinned code.

One valid test-width model, checkpoint, codebook and ``.emof`` are written
by the command line. Each case then changes one field of one of them: a JSON
leaf of a header or codebook replaced by a value of another type or out of
range, or deleted; a table holding NaN, inf or a negative value, stored in
the other dtype, reshaped or left out; a flipped byte of an ``.emof``'s
framing. Binary files are re-sealed (``binio.write_table_section``, or a new
CRC for the ``.emof``), so the change reaches the reader rather than the
checksum.

Every case runs the command that reads the file through ``cli.main``, all
of them in one child process under an address-space limit, so a reader that
lets a header number size an allocation fails as ``MemoryError`` rather than
as a machine out of memory. A case must return its class's pinned exit code
(0, 4 or 5) and never raise.
"""

import itertools
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

import emorank
from emorank.binio import read_table_section, write_table_section
from emorank.cli import main
from emorank.extractor import EMOM_MAGIC, EMOM_VERSION
from emorank.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

SEED = 26
ADDRESS_SPACE_LIMIT = 3 << 30  # bytes: far above the sweep's need, far below HUGE floats
CFG_DOC = {
    "seed": 1,
    "extractor": {"hidden_dim": 32, "n_fft_blocks": 1, "n_heads": 2, "conv_kernel": 3,
                  "conv_filter_dim": 64, "dropout": 0.1, "projector_hidden": 8},
    "train": {"iterations": 2, "learning_rate": 1e-3, "batch_pairs": 2,
              "checkpoint_every": 1},
    "synth": {"n_speakers": 1, "n_emotions": 2, "utterances_per_cell": 9,
              "frame_length_range": [6, 10]},
}
# a JSON leaf's replacements: those of another JSON type than the leaf's (a
# float is one for an integer leaf), then a number's out-of-range values;
# every integer leaf also takes HUGE, which no reader may let size an
# allocation
WRONG_TYPE = [True, "7", 7, 1.5, None, [], {}]
OUT_OF_RANGE = {int: [-1, 0], float: [-1.0, math.nan, math.inf]}
HUGE = 2 ** 40
SUBSTITUTIONS_PER_LEAF = 3
BYTE_FLIPS = 24

CHILD = textwrap.dedent("""
    import json, os, resource, sys
    limit = int(sys.argv[3])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from emorank.cli import main
    codes = []
    with open(os.devnull, "w") as null:
        sys.stdout = sys.stderr = null
        for argv in json.load(open(sys.argv[1])):
            try:
                codes.append(main(argv))
            except BaseException as e:  # a traceback: recorded, not raised
                codes.append(f"{type(e).__name__}: {e}"[:200])
    json.dump(codes, open(sys.argv[2], "w"))
""")


# ---------------------------------------------------------------------------
# file surgery


def _sections(path) -> list:
    """``[[magic, version, header, tables], ...]``: the model section, then
    the checkpoint appendix if the file has one."""
    out = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for magic, version in ((EMOM_MAGIC, EMOM_VERSION),
                               (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)):
            if fh.tell() < size:
                out.append([magic, version, *read_table_section(fh, magic, version)])
    return out


def _write_sections(path, sections):
    with open(path, "wb") as fh:
        for magic, version, header, tables in sections:
            write_table_section(fh, magic, version, header, tables)


def _replaced(sections, index, slot, value) -> list:
    """``sections`` with the header (``slot`` 2) or tables (3) of section
    ``index`` replaced."""
    out = [list(s) for s in sections]
    out[index][slot] = value
    return out


def _leaves(doc, path=()):
    """The path of every JSON leaf of ``doc``; of a list, only the first item."""
    items = doc.items() if isinstance(doc, dict) else [(0, doc[0])]
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_DELETE = object()


def _set(doc, path, value):
    """A deep copy of ``doc`` with the leaf at ``path`` set to ``value``, or
    deleted when ``value`` is ``_DELETE``."""
    doc = json.loads(json.dumps(doc))
    parent = _get(doc, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _case_name(path, kind, value) -> str:
    name = f"{'.'.join(map(str, path))}:{kind}"
    return name if value is _DELETE else f"{name}:{value!r}"


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _substitutions(value, rng) -> list:
    """``(kind, replacement)``: a seeded sample of the replacements of one
    JSON leaf, then HUGE for an integer leaf, then its deletion."""
    pool = [("type", v) for v in WRONG_TYPE if _json_type(v) != _json_type(value)
            or type(value) is int and type(v) is float]
    if _json_type(value) == "number":
        pool += [("range", v) for v in OUT_OF_RANGE[type(value)]]
    picks = rng.choice(len(pool), size=min(SUBSTITUTIONS_PER_LEAF, len(pool)), replace=False)
    huge = [("range", HUGE)] if type(value) is int else []
    return [pool[i] for i in sorted(picks)] + huge + [("missing", _DELETE)]


def _table_mutations(table) -> list:
    """``(kind, replacement)`` of one table; None leaves the table out."""
    def poke(value):
        out = table.copy()
        out[(0,) * table.ndim] = value
        return out

    other = np.float64 if table.dtype == np.float32 else np.float32
    return [("nan", poke(np.nan)), ("inf", poke(np.inf)), ("negative", poke(-1.0)),
            ("dtype", table.astype(other)), ("reshaped", table[..., None]),
            ("missing", None)]


# ---------------------------------------------------------------------------
# the pinned exit code of each case class


def _model_expected(part: str, kind: str) -> int:
    if part == "meta":
        return 0  # free-form provenance: no reader looks at it
    if part == "table":
        return 0 if kind == "negative" else 4  # a finite weight of any sign is valid
    return 4  # the config and the emotion labels: typed, complete, in range


def _checkpoint_expected(part: str, path: tuple, kind: str, value) -> int:
    """Cases of the optimizer appendix; its model section is the model's."""
    if part == "table":
        if kind == "negative":
            return 4 if path[0].startswith("adam.v.") else 0  # a second moment
        return 0 if (kind, path[0]) == ("dtype", "trace") else 4  # the trace's dtype is free
    if kind != "range":
        return 4  # the meta is typed and complete
    if path[0] == "iteration":
        return 4  # the trace holds one row per iteration
    if path[0] == "adam_step":
        return 4 if value < 0 else 0
    # a well-typed train setting is compared with the resuming run's: only
    # the length and the checkpoint interval may differ (exit 5 otherwise)
    return 0 if path[1] in ("iterations", "checkpoint_every") else 5


def _codebook_expected(doc: dict, part: str, path: tuple, kind: str, value) -> int:
    """``condition`` reads the boundaries, the level vectors, the mean
    scores' order and the neutral list's length; never the provenance. The
    loader coerces each number with ``float()``, so ``true`` and ``"7"``
    read as numbers."""
    if part == "provenance" or part == "neutral" and kind != "missing":
        return 0
    if kind == "missing":
        return 0 if part == "mean_scores" else 4  # levels fall back to canonical order
    try:
        number = float(value)
    except (TypeError, ValueError):
        return 4
    if not math.isfinite(number) or part == "mean_scores" and type(value) is str:
        return 4  # a string mean score is sorted among floats
    if part == "boundaries":
        bounds = [float(b) for b in _get(doc, path[:-1])]
        return 0 if all(a <= b for a, b in itertools.pairwise(bounds)) else 4
    return 0


# ---------------------------------------------------------------------------
# the sweep


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(CFG_DOC))
    corpus, ckpt = tmp / "corpus", tmp / "ckpt"
    model, codebook, labels = tmp / "model.emom", tmp / "cb.json", tmp / "p.labels"
    assert main(["synthdata", "--config", str(cfg), str(corpus)]) == 0
    assert main(["train", "--config", str(cfg), str(corpus), str(model),
                 "--checkpoint-dir", str(ckpt)]) == 0
    assert main(["codebook", "--config", str(cfg), str(model), str(corpus),
                 str(codebook)]) == 0
    emotion = sorted(json.loads(codebook.read_text()).keys() - {"neutral", "provenance"})[0]
    labels.write_text(f"#levels v1\nneutral\t-\n{emotion}\tMax\n{emotion}\tMin\n")
    return {"tmp": tmp, "cfg": str(cfg), "corpus": str(corpus), "model": model,
            "checkpoint": ckpt / "ckpt_0000001.emom", "codebook": codebook,
            "labels": str(labels), "emof": sorted(corpus.glob("*.emof"))[0]}


def _cases(a, rng) -> list:
    """``(case, expected code, argv)`` for every mutation, and for each
    artifact unchanged; each file is written under ``a["tmp"] / "cases"``."""
    out_dir = a["tmp"] / "cases"
    out_dir.mkdir()
    scores = str(a["tmp"] / "scores.csv")
    commands = {
        "model": lambda m: ["score", m, a["corpus"], "--out", scores],
        "checkpoint": lambda c: ["train", "--config", a["cfg"], a["corpus"],
                                 str(a["tmp"] / "resumed.emom"), "--resume", c],
        "codebook": lambda c: ["condition", c, a["labels"], str(a["tmp"] / "cond.emof")],
        "emof": lambda f: ["score", str(a["model"]), f, "--out", scores],
    }
    cases = []

    def add(artifact, case, expected, write):
        target = out_dir / f"{len(cases):04d}{a[artifact].suffix}"
        write(target)
        cases.append((f"{artifact}:{case}", expected, commands[artifact](str(target))))

    for artifact in commands:
        add(artifact, "unchanged", 0, lambda t, src=a[artifact]: t.write_bytes(src.read_bytes()))

    for artifact in ("model", "checkpoint"):
        sections = _sections(a[artifact])
        # the last section: a checkpoint's model section goes through the
        # model's reader, swept on the model
        index = len(sections) - 1
        _, _, header, tables = sections[index]
        for path in _leaves(header):
            part = "meta" if artifact == "checkpoint" or path[0] == "meta" else "header"
            for kind, value in _substitutions(_get(header, path), rng):
                expected = (_model_expected(part, kind) if artifact == "model"
                            else _checkpoint_expected(part, path, kind, value))
                edited = _replaced(sections, index, 2, _set(header, path, value))
                add(artifact, _case_name(path, kind, value), expected,
                    lambda t, s=edited: _write_sections(t, s))
        for name in sorted(tables):
            for kind, value in _table_mutations(tables[name]):
                edited_tables = {k: v for k, v in tables.items() if k != name}
                if value is not None:
                    edited_tables[name] = value
                expected = (_model_expected("table", kind) if artifact == "model"
                            else _checkpoint_expected("table", (name,), kind, None))
                edited = _replaced(sections, index, 3, edited_tables)
                add(artifact, f"{name}:{kind}", expected,
                    lambda t, s=edited: _write_sections(t, s))

    doc = json.loads(a["codebook"].read_text())
    for path in _leaves(doc):
        part = path[0] if path[0] in ("neutral", "provenance") else path[1]
        for kind, value in _substitutions(_get(doc, path), rng):
            edited = _set(doc, path, value)
            add("codebook", _case_name(path, kind, value),
                _codebook_expected(edited, part, path, kind, value),
                lambda t, text=json.dumps(edited): t.write_text(text))

    # the framing of an .emof: magic, version and dims, then after the frame
    # rate each string's length and text. A flip there is a format error; the
    # frame rate and the frame values may hold any bits of a finite float.
    raw = a["emof"].read_bytes()
    framing, pos = list(range(16)), 24
    for _ in range(3):
        (n,) = struct.unpack_from("<I", raw, pos)
        framing += range(pos, pos + 4 + n)
        pos += 4 + n
    for pos in rng.choice(framing, size=BYTE_FLIPS, replace=False):
        body = bytearray(raw[:-4])
        body[pos] ^= 0xFF
        sealed = bytes(body) + struct.pack("<I", zlib.crc32(body))
        add("emof", f"byte {pos}", 4, lambda t, b=sealed: t.write_bytes(b))
    return cases


def test_every_corrupted_artifact_exits_with_its_pinned_code(artifacts):
    cases = _cases(artifacts, np.random.default_rng(SEED))
    argv_file, codes_file = artifacts["tmp"] / "argv.json", artifacts["tmp"] / "codes.json"
    argv_file.write_text(json.dumps([argv for _, _, argv in cases]))
    src = str(Path(emorank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", CHILD, str(argv_file), str(codes_file),
                    str(ADDRESS_SPACE_LIMIT)], env=env, check=True, timeout=300)
    codes = json.loads(codes_file.read_text())
    assert len(codes) == len(cases)
    wrong = [f"{case}: exit {code}, expected {want}"
             for (case, want, _), code in zip(cases, codes) if code != want]
    assert wrong == []
