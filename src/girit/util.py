"""Small shared helpers: named inputs and outputs, varint codec, file
checksums, atomic writes."""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager

from .errors import FormatError, IndexStoreError

CHECKSUM_BYTES = 8


@contextmanager
def reading(source):
    """Open a named input. A str or os.PathLike is always a path: it is opened
    binary here, closed on exit, and a FormatError raised inside the block
    gets the path put before its message. Anything else is an open file and
    is yielded as it is."""
    if not isinstance(source, (str, os.PathLike)):
        yield source
        return
    try:
        with open(source, "rb") as fh:
            yield fh
    except FormatError as exc:
        exc.args = (f"{os.fspath(source)}: {exc}",)
        raise


def read_text(source) -> str:
    """Whole text of a named input (see `reading`); bytes are decoded as UTF-8."""
    with reading(source) as fh:
        data = fh.read()
        if isinstance(data, str):
            return data
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"UTF-8 decode failure: {exc.reason} | byte offset {exc.start}") from None


@contextmanager
def writing(out):
    """Text output: a str or os.PathLike is a path, opened UTF-8 here and
    closed on exit; anything else is an open text file, left open."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield out


# single-byte fast path covers the vast majority of gaps and tfs
_ONE_BYTE = [bytes([i]) for i in range(0x80)]


def encode_varints(values) -> bytes:
    buf = bytearray()
    append = buf.append
    one = _ONE_BYTE
    for v in values:
        if v < 0x80:
            buf += one[v]
        else:
            while v >= 0x80:
                append(0x80 | (v & 0x7F))
                v >>= 7
            append(v)
    return bytes(buf)


def read_varint(data, pos: int) -> tuple[int, int]:
    """Decode one varint from `data` at `pos`; returns (value, next_pos)."""
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7


def decode_varints(data, pos: int, count: int) -> tuple[list[int], int]:
    out = []
    append = out.append
    result = 0
    shift = 0
    while count:
        b = data[pos]
        pos += 1
        if b < 0x80 and shift == 0:
            append(b)
            count -= 1
            continue
        result |= (b & 0x7F) << shift
        if b < 0x80:
            append(result)
            result = 0
            shift = 0
            count -= 1
        else:
            shift += 7
    return out, pos


def checksum64(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=CHECKSUM_BYTES).digest()


def write_checksummed(path, payload: bytes) -> None:
    atomic_write_bytes(path, payload + checksum64(payload))


def read_checksummed(path) -> bytes:
    """Read a payload+checksum file, verifying the trailing 64-bit checksum."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < CHECKSUM_BYTES:
        raise IndexStoreError(f"{path}: truncated (no checksum)")
    payload, stored = raw[:-CHECKSUM_BYTES], raw[-CHECKSUM_BYTES:]
    if checksum64(payload) != stored:
        raise IndexStoreError(f"{path}: checksum mismatch (corrupt or truncated)")
    return payload


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
