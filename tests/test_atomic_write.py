"""Artifact files are replaced in one step: a writer that fails part way
leaves the previous file byte for byte and no temporary file behind."""

import ast
import dataclasses
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import emorank
from emorank import cli, codebook, features, synthcorpus, training
from emorank.binio import FileFormatError, SectionWriter, atomic_write
from emorank.cli import main, provenance, write_provenance
from emorank.codebook import (IntensityCodebook, PhonemeAlignment, PhonemeInterval,
                              save_codebook, write_alignment)
from emorank.evalmetrics import MetricReport
from emorank.extractor import ExtractorConfig, init_params, save_model
from emorank.features import write_emof
from emorank.numerics import AdamState
from emorank.runconfig import ConfigError, RunConfig
from emorank.training import TrainConfig, save_checkpoint, write_trace_csv


class Boom(RuntimeError):
    pass


def test_atomic_write_replaces_or_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.bin"
    with atomic_write(path) as fh:
        fh.write(b"first")
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write(b"second, half")
            raise Boom
    assert path.read_bytes() == b"first"
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("third")
    assert path.read_text(encoding="utf-8") == "third"
    assert os.listdir(tmp_path) == ["a.bin"]
    with pytest.raises(ValueError):
        with atomic_write(path, "ab"):
            pass


def test_atomic_write_gives_a_plain_open_s_permissions(tmp_path):
    with open(tmp_path / "plain", "wb"):
        pass
    with atomic_write(tmp_path / "atomic"):
        pass
    assert stat.S_IMODE(os.stat(tmp_path / "atomic").st_mode) == \
        stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)


def _params():
    cfg = ExtractorConfig(input_dim=6, hidden_dim=8, n_fft_blocks=1, n_heads=2,
                          conv_kernel=3, conv_filter_dim=8, dropout=0.0,
                          n_emotion_classes=3, projector_hidden=4)
    return init_params(cfg, ["neutral", "angry", "amused"], np.random.default_rng(0))


def _model(path, fail, monkeypatch):
    # an unserializable meta value fails after the magic is written
    save_model(_params(), path, meta={"bad": object()} if fail else {"iterations": 3})


def _checkpoint(path, fail, monkeypatch):
    params = _params()
    if fail:
        # fail in the optimizer section, after the whole model section
        def broken_section(fh, magic, version, header, tables):
            fh.write(b"partial")
            raise Boom

        monkeypatch.setattr(training, "write_table_section", broken_section)
    save_checkpoint(params, AdamState(params.tensors), 3, np.zeros((3, 4)),
                    TrainConfig(iterations=9, batch_pairs=2, seed=4), path)


def _codebook(path, fail, monkeypatch):
    # json.dump streams the document, so an unserializable provenance
    # value fails after the neutral entry is written
    cb = IntensityCodebook({}, 4, {"zz": object()} if fail else {"run": 1})
    save_codebook(cb, path)


def _provenance(path, fail, monkeypatch):
    extra = {"zz": object()} if fail else {"note": "ok"}
    write_provenance(str(path)[:-len(".provenance.json")],
                     provenance("train", RunConfig(), 0, {"corpus": "c"}, **extra))


def _emof(path, fail, monkeypatch):
    if fail:
        # fail at the labels, after the header is written
        def broken_str(self, text):
            raise Boom

        monkeypatch.setattr(SectionWriter, "write_str", broken_str)
    write_emof(path, np.ones((4, 3)), 100.0, "angry", "spk", "u")


def _mcd(path, fail, monkeypatch):
    # the inputs and the provenance sidecar are stubbed: the sidecar has its
    # own case, and only the report is written here
    frames = np.abs(np.random.default_rng(0).normal(size=(6, 24))) + 0.1
    monkeypatch.setattr(cli, "read_emof", lambda p: (frames, 100.0, "angry", "spk", p))
    monkeypatch.setattr(cli, "sha256_file", lambda p: p)
    monkeypatch.setattr(cli, "write_provenance", lambda *args: None)
    if fail:
        # an unserializable item id fails while the report is being written
        monkeypatch.setattr(cli, "mcd_report",
                            lambda pairs: MetricReport("MCD", 1.0, "dB", 1, [(object(), 1.0)]))
    assert main(["mcd", "a.emof", "b.emof", "--out", str(path)]) == 0


class Unprintable:
    def __float__(self):
        raise Boom

    __str__ = __float__


def _trace_csv(path, fail, monkeypatch):
    # the second row fails, after the header and the first row are written
    trace = np.array([[0, 1.5, 0.5, 0.7], [1, Unprintable() if fail else 1.25, 0.5, 0.6]],
                     dtype=object)
    write_trace_csv(trace, path)


class UnprintableFloat(float):
    def __repr__(self):
        raise Boom


def _alignment(path, fail, monkeypatch):
    # the second interval fails, after the header and the first line are written
    end = UnprintableFloat(0.25) if fail else 0.25
    write_alignment(PhonemeAlignment([PhonemeInterval("a", 0.0, 0.125),
                                      PhonemeInterval("b", 0.125, end)]), path)


class FirstOnly(dict):
    """A map that raises for every key it does not hold."""

    def __missing__(self, key):
        raise Boom


def _metadata(path, fail, monkeypatch):
    # the .emof files have their own case: only metadata.csv is written here
    monkeypatch.setattr(synthcorpus, "write_features", lambda u, p: None)
    spec = synthcorpus.SynthSpec(n_speakers=1, n_emotions=1, utterances_per_cell=9,
                                 frame_length_range=(2, 3))
    result = synthcorpus.generate(spec, np.random.default_rng(0))
    if fail:
        # the second row fails, after the header and the first row are written
        first = result.corpus.utterances[0].source_id
        result = dataclasses.replace(
            result, true_intensity=FirstOnly({first: result.true_intensity[first]}))
    synthcorpus.save_corpus(result, path.parent)


@pytest.mark.parametrize("name, write", [
    ("m.emom", _model),
    ("c.emom", _checkpoint),
    ("codebook.json", _codebook),
    ("m.emom.provenance.json", _provenance),
    ("u.emof", _emof),
    ("loss.csv", _trace_csv),
    ("mcd.json", _mcd),
    ("alignment.tsv", _alignment),
    ("metadata.csv", _metadata),
])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(path, False, monkeypatch)
    before = path.read_bytes()
    with pytest.raises((Boom, TypeError)):
        write(path, True, monkeypatch)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_failed_score_csv_keeps_previous_file(tmp_path, monkeypatch):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    save_model(_params(), inputs / "m.emom")
    write_emof(inputs / "u.emof", np.ones((5, 6)), 100.0, "angry", "spk", "u")
    path = out / "scores.csv"
    argv = ["score", str(inputs / "m.emom"), str(inputs / "u.emof"), "--out", str(path)]
    assert main(argv) == 0
    before, names = path.read_bytes(), sorted(os.listdir(out))
    assert names == ["scores.csv", "scores.csv.provenance.json"]
    score_corpus = cli.score_corpus

    def unprintable_ids(params, corpus):
        # the first record's row fails, after the header is written
        return [dataclasses.replace(r, utterance_id=Unprintable())
                for r in score_corpus(params, corpus)]

    monkeypatch.setattr(cli, "score_corpus", unprintable_ids)
    with pytest.raises(Boom):
        main(argv)
    assert path.read_bytes() == before
    assert sorted(os.listdir(out)) == names


@pytest.mark.parametrize("read, text, error", [
    (synthcorpus.load_metadata, ",".join(synthcorpus.METADATA_HEADER) + "\nu\xff,s,angry,0.5\n",
     FileFormatError),
    (codebook.read_phoneme_labels, "#levels v1\nangry\tMin\n\xff\tMax\n", FileFormatError),
    (codebook.load_codebook, '{"neutral": [0.0], "\xff": {}}', FileFormatError),
    (features.load_pitch_csv, "100.0\n\xff\n", FileFormatError),
    (RunConfig.load, '{"seed": "\xff"}', ConfigError),
], ids=["metadata_csv", "phoneme_labels", "codebook", "pitch_csv", "run_config"])
def test_text_readers_reject_bytes_that_are_not_utf8(tmp_path, read, text, error):
    path = tmp_path / "text"
    path.write_bytes(text.encode("latin-1"))  # one byte per character: 0xff stays bare
    with pytest.raises(error, match="UTF-8") as info:
        read(str(path))
    assert str(path) in str(info.value)


def _in_place_writes(source: str) -> list[int]:
    """Lines of ``open`` calls whose mode may write, append or create, and
    of ``write_text``/``write_bytes`` calls, outside a ``def atomic_write``.
    A mode that is not a string literal counts as writing."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_the_write_scanner_flags_every_writing_open():
    source = """
open(p)
open(p, "rb")
open(p, mode="r", newline="")
open(p, "w")
open(p, mode="ab")
open(p, "r+b")
open(p, m)
Path(p).write_text("x")
def atomic_write(path, mode):
    open(path, mode.replace("w", "x"))
"""
    assert _in_place_writes(source) == [5, 6, 7, 8, 9]


def test_the_package_writes_files_only_through_atomic_write():
    src = Path(emorank.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _in_place_writes(path.read_text(encoding="utf-8"))]
    assert found == []


def _print_calls(source: str) -> list[int]:
    """Lines that call ``print``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_the_print_scanner_flags_every_print_call():
    source = """
print("x")
print
log.print("x")
f(print("y", file=sys.stderr))
"""
    assert _print_calls(source) == [2, 5]


def test_the_library_prints_nothing_outside_the_cli():
    src = Path(emorank.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name != "cli.py"
             for line in _print_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def _section_constructions(source: str) -> list[int]:
    """Lines that call ``SectionReader`` or ``SectionWriter``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) in ("SectionReader", "SectionWriter")]


def test_the_section_scanner_flags_every_construction():
    source = """
SectionReader(fh)
binio.SectionWriter(fh)
r.read_str()
SectionReader
"""
    assert _section_constructions(source) == [2, 3]


def test_only_binio_and_features_frame_binary_sections():
    # binio owns the table section of models and checkpoints; features
    # frames the .emof section. Any other module goes through binio's
    # write_table_section and read_table_section.
    src = Path(emorank.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name not in ("binio.py", "features.py")
             for line in _section_constructions(path.read_text(encoding="utf-8"))]
    assert found == []
