"""Small shared helpers: named inputs and outputs, varint codec, file
checksums, atomic writes."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

import numpy as np

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


# 9 groups of 7 bits hold any int64 value up to 2**63 - 1
_MAX_VARINT_BYTES = 9


def decode_varints(data, offset: int, count: int, nbytes: int) -> np.ndarray:
    """Decode the `nbytes`-byte block at `offset` of `data`, which must hold
    exactly `count` varints and end on a terminator byte, into int64 values.

    Terminators are the bytes below 0x80; each value is its 7-bit groups
    shifted into place and OR-ed together. A block that breaks the contract
    raises IndexStoreError naming the byte offset.
    """
    if offset + nbytes > len(data):
        raise _block_error(offset, f"{nbytes} bytes overrun the {len(data)}-byte buffer")
    block = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset)
    ends = np.flatnonzero(block < 0x80)
    if nbytes and block[-1] >= 0x80:
        last = offset + (int(ends[-1]) + 1 if ends.size else 0)
        raise _block_error(offset, f"varint at byte offset {last} has no terminator")
    if ends.size != count:
        raise _block_error(offset, f"holds {ends.size} varints, expected {count}")
    if count == nbytes:
        return block.astype(np.int64)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    if widths.max() > _MAX_VARINT_BYTES:
        at = offset + int(starts[np.argmax(widths)])
        raise IndexStoreError(f"varint at byte offset {at} is longer than {_MAX_VARINT_BYTES} bytes")
    shifts = 7 * (np.arange(nbytes) - np.repeat(starts, widths))
    groups = (block & 0x7F).astype(np.int64) << shifts
    return np.bitwise_or.reduceat(groups, starts)


def _block_error(offset: int, detail: str) -> IndexStoreError:
    return IndexStoreError(f"varint block at byte offset {offset}: {detail}")


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
    directory, name = os.path.split(path)
    # created like open() creates files, so the process umask sets its mode
    tmp = os.path.join(directory, f".tmp.{os.urandom(6).hex()}.{name}")
    fh = open(tmp, "xb")
    try:
        with fh:
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
