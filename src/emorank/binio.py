"""The artifact file formats' shared primitives: binary sections, CSV files.

Binary formats are little-endian, carry a 4-byte magic and a u32 version, and
end each section with a CRC32 over every byte of the section that precedes
it. Strings are u32-length-prefixed UTF-8.

Models and checkpoint appendices are table sections (:func:`write_table_section`):
magic | version u32 | JSON header str | table count u32 | per table: name str,
dtype tag str ("f4" or "f8"), ndim u32, dims u32..., little-endian payload | CRC32.

:func:`atomic_write` replaces an artifact file in one step, so a writer
that fails part way leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import secrets
import struct
import zlib
from typing import BinaryIO

import numpy as np

_DTYPE_TAGS = {"f4": np.float32, "f8": np.float64}
_TAG_OF_DTYPE = {np.dtype(dtype): tag for tag, dtype in _DTYPE_TAGS.items()}


class FileFormatError(ValueError):
    """Bad magic, unsupported version, or a structurally broken file."""


class ChecksumError(FileFormatError):
    """Stored CRC32 does not match the bytes actually read."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a new file beside ``path`` for writing (``mode`` "wb" or "w");
    when the block ends normally it replaces ``path`` with one
    ``os.replace``, and when the block raises it is removed and ``path`` is
    left untouched.

    The temporary file lives in the same directory, so the rename never
    crosses a file system, and is created with the permissions a plain
    ``open`` would give.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_write mode must be 'wb' or 'w', got {mode!r}")
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path, header: list[str], rows):
    """Write a UTF-8 CSV file of ``header`` and then ``rows``, in one step."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def open_text(path, **open_kwargs):
    """Open UTF-8 text to read; bytes that are not UTF-8 raise FileFormatError."""
    with open(path, encoding="utf-8", **open_kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise FileFormatError(f"{path}: not UTF-8 text: {e}") from e


def read_csv(path, header: list[str], parse) -> list:
    """``parse(row)`` for each non-blank row of a CSV file whose first row
    starts with ``header``, the row cut to the header's width. A missing
    header, a row narrower than it, or one that ``parse`` rejects with
    ``ValueError``, raises :class:`FileFormatError` naming ``path:line``."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, [])
        if got[:len(header)] != header:
            raise FileFormatError(f"{path}:1: expected header {','.join(header)}; got {got}")
        out = []
        for row in filter(None, reader):
            try:
                if len(row) < len(header):
                    raise ValueError(f"expected {len(header)} fields")
                out.append(parse(row[:len(header)]))
            except ValueError as e:
                raise FileFormatError(f"{path}:{reader.line_num}: {e}; got {row}") from e
    return out


class SectionWriter:
    """Accumulates one section and appends its CRC32 on finish."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._crc = 0

    def write(self, payload: bytes | memoryview):
        self._fh.write(payload)
        self._crc = zlib.crc32(payload, self._crc)

    def write_u32(self, value: int):
        self.write(struct.pack("<I", value))

    def write_f64(self, value: float):
        self.write(struct.pack("<d", value))

    def write_str(self, text: str):
        raw = text.encode("utf-8")
        self.write_u32(len(raw))
        self.write(raw)

    def finish(self):
        # the CRC itself is outside the checksummed range
        self._fh.write(struct.pack("<I", self._crc))


class SectionReader:
    """Mirror of :class:`SectionWriter`; verifies the CRC on finish, and its
    errors name the file it reads."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._crc = 0
        self._where = f"{fh.name}: " if hasattr(fh, "name") else ""

    def error(self, message: str) -> FileFormatError:
        return FileFormatError(self._where + message)

    def read(self, n: int) -> bytes:
        raw = self._fh.read(n)
        if len(raw) != n:
            raise self.error(f"truncated file: wanted {n} bytes, got {len(raw)}")
        self._crc = zlib.crc32(raw, self._crc)
        return raw

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def read_f64(self) -> float:
        return struct.unpack("<d", self.read(8))[0]

    def read_str(self) -> str:
        raw = self.read(self.read_u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"string is not UTF-8: {e}") from e

    def expect_magic(self, magic: bytes):
        got = self.read(len(magic))
        if got != magic:
            raise self.error(f"bad magic: expected {magic!r}, got {got!r}")

    def finish(self):
        expected = self._crc
        raw = self._fh.read(4)
        if len(raw) != 4:
            raise self.error("truncated file: missing checksum")
        stored = struct.unpack("<I", raw)[0]
        if stored != expected:
            raise ChecksumError(f"{self._where}checksum mismatch: stored {stored:#010x}, "
                                f"computed {expected:#010x}")


def write_table_section(fh: BinaryIO, magic: bytes, version: int, header: dict,
                        tables: dict[str, np.ndarray]):
    """Write ``header`` as sorted-key JSON, then the float32 or float64
    arrays of ``tables`` in the dict's order."""
    w = SectionWriter(fh)
    w.write(magic)
    w.write_u32(version)
    w.write_str(json.dumps(header, sort_keys=True))
    w.write_u32(len(tables))
    for name, arr in tables.items():
        tag = _TAG_OF_DTYPE[arr.dtype]
        w.write_str(name)
        w.write_str(tag)
        for n in (arr.ndim, *arr.shape):
            w.write_u32(n)
        # the array's own buffer, not a bytes copy of it
        w.write(memoryview(np.ascontiguousarray(arr, "<" + tag).reshape(-1)).cast("B"))
    w.finish()


def read_table_section(fh: BinaryIO, magic: bytes, version: int) -> tuple[dict, dict]:
    """``(header, tables)`` of the table section at the file position; any
    malformed content raises :class:`FileFormatError`."""
    r = SectionReader(fh)
    r.expect_magic(magic)
    if (got := r.read_u32()) != version:
        raise r.error(f"unsupported {magic.decode()} version {got}")
    text, tables = r.read_str(), {}
    for _ in range(r.read_u32()):
        name, tag = r.read_str(), r.read_str()
        if tag not in _DTYPE_TAGS or name in tables:
            raise r.error(f"table '{name}' is repeated or has unknown dtype '{tag}'")
        shape = tuple(r.read_u32() for _ in range(r.read_u32()))
        raw = r.read(int(np.prod(shape, dtype=np.int64)) * np.dtype(_DTYPE_TAGS[tag]).itemsize)
        tables[name] = np.frombuffer(raw, dtype="<" + tag).reshape(shape).copy()
    r.finish()
    try:
        header = json.loads(text)
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        raise r.error(f"{magic.decode()} header is not a JSON object: {text[:80]!r}")
    return header, tables


def check_tables(tables: dict[str, np.ndarray], shapes: dict[str, tuple],
                 what: str) -> dict[str, np.ndarray]:
    """``tables`` in the order of ``shapes``, which must name each table and
    its shape (``None``: any length), else :class:`FileFormatError`."""
    wrong = [f"unexpected '{name}'" for name in tables if name not in shapes]
    for name, shape in shapes.items():
        got = tables[name].shape if name in tables else None
        if got is None or len(got) != len(shape) or any(
                want not in (None, n) for n, want in zip(got, shape)):
            wrong.append(f"'{name}' {'missing' if got is None else got}, expected {shape}")
    if wrong:
        raise FileFormatError(f"{what} has bad tables: " + "; ".join(wrong))
    return {name: tables[name] for name in shapes}
