"""Primitives shared by the EMOF feature and EMOM model file formats.

Both formats are little-endian, carry a 4-byte magic and a u32 version, and
end each section with a CRC32 over every byte of the section that precedes
it. Strings are u32-length-prefixed UTF-8.

:func:`atomic_write` replaces an artifact file in one step, so a writer
that fails part way leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct
import zlib
from typing import BinaryIO


class FileFormatError(ValueError):
    """Bad magic, unsupported version, or a structurally broken file."""


class ChecksumError(FileFormatError):
    """Stored CRC32 does not match the bytes actually read."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a fresh file beside ``path`` for writing (``mode`` "wb" or "w");
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
    """Mirror of :class:`SectionWriter`; verifies the CRC on finish."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._crc = 0

    def read(self, n: int) -> bytes:
        raw = self._fh.read(n)
        if len(raw) != n:
            raise FileFormatError(f"truncated file: wanted {n} bytes, got {len(raw)}")
        self._crc = zlib.crc32(raw, self._crc)
        return raw

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def read_f64(self) -> float:
        return struct.unpack("<d", self.read(8))[0]

    def read_str(self) -> str:
        return self.read(self.read_u32()).decode("utf-8")

    def expect_magic(self, magic: bytes):
        got = self.read(len(magic))
        if got != magic:
            raise FileFormatError(f"bad magic: expected {magic!r}, got {got!r}")

    def finish(self):
        expected = self._crc
        raw = self._fh.read(4)
        if len(raw) != 4:
            raise FileFormatError("truncated file: missing checksum")
        stored = struct.unpack("<I", raw)[0]
        if stored != expected:
            raise ChecksumError(f"checksum mismatch: stored {stored:#010x}, computed {expected:#010x}")
