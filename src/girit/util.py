"""Small shared helpers: named inputs and outputs, all-or-nothing writes,
varint codec, file checksums."""

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
def replacing(path, mode: str = "w"):
    """Write `path` all or nothing: the block writes a temporary file in the
    same directory (UTF-8 text for mode "w", bytes for "wb"), which replaces
    `path` when the block ends and is removed if the block raises."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".tmp.{os.urandom(6).hex()}.{name}")
    # created like open() creates files, so the process umask sets its mode
    fh = open(tmp, "xb") if mode == "wb" else open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def writing(out):
    """Text output: a str or os.PathLike is a path, written through
    `replacing`; anything else is an open text file, left open."""
    if isinstance(out, (str, os.PathLike)):
        with replacing(out) as fh:
            yield fh
    else:
        yield out


def varint_widths(values) -> np.ndarray:
    """Encoded byte count of each value: one test over all of them, then
    one per further byte over the values still wider."""
    values = np.asarray(values, dtype=np.int64)
    widths = (values >= 0x80).astype(np.int64) + 1
    wide = np.flatnonzero(values >= 1 << 14)
    groups = values[wide] >> 14
    while wide.size:
        widths[wide] += 1
        more = groups >= 0x80
        wide, groups = wide[more], groups[more] >> 7
    return widths


def encode_varints(values) -> bytes:
    """Varints of non-negative int64 values, back to back: 7 bits per byte,
    low group first, the high bit set on every byte but a value's last.

    Widths come first; then each byte position is one masked store over the
    values that are at least that wide.
    """
    group = np.asarray(values, dtype=np.int64)
    if group.size and group.min() < 0:
        raise ValueError("varints encode non-negative values only")
    widths = varint_widths(group)
    if not group.size or widths.max() == 1:
        return group.astype(np.uint8).tobytes()
    ends = np.cumsum(widths)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    at = ends - widths
    while True:
        more = widths > 1
        out[at] = (group & 0x7F) | (more << 7)
        if not more.any():
            return out.tobytes()
        group = group[more] >> 7
        at = at[more] + 1
        widths = widths[more] - 1


# 9 groups of 7 bits hold any int64 value up to 2**63 - 1
MAX_VARINT_BYTES = 9


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
    if widths.max() > MAX_VARINT_BYTES:
        at = offset + int(starts[np.argmax(widths)])
        raise IndexStoreError(f"varint at byte offset {at} is longer than {MAX_VARINT_BYTES} bytes")
    shifts = 7 * (np.arange(nbytes) - np.repeat(starts, widths))
    groups = (block & 0x7F).astype(np.int64) << shifts
    return np.bitwise_or.reduceat(groups, starts)


def _block_error(offset: int, detail: str) -> IndexStoreError:
    return IndexStoreError(f"varint block at byte offset {offset}: {detail}")


def checksum64(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=CHECKSUM_BYTES).digest()


def write_checksummed(path, payload: bytes) -> None:
    with replacing(path, "wb") as fh:
        fh.write(payload + checksum64(payload))


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

