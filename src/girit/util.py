"""Small shared helpers: named inputs and outputs, all-or-nothing writes,
file checksums."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

from .errors import ConfigError, FormatError, IndexStoreError

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


def make_directory(directory, output) -> None:
    """Create `directory` and its parents if they do not exist. An OSError
    (a file in the way, say) is a ConfigError naming `output`, the path that
    was to be written there."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        message = f"cannot write {os.fspath(output)}: cannot make directory {exc.filename}: {exc.strerror}"
        raise ConfigError(message) from None


@contextmanager
def replacing(path, mode: str = "w"):
    """Write `path` all or nothing: the block writes a temporary file in the
    same directory (UTF-8 text for mode "w", bytes for "wb"), which replaces
    `path` when the block ends and is removed if the block raises. The
    directory is created first if it does not exist. A path that cannot be
    written (a file in the way of its directory, or a directory at `path`)
    is a ConfigError naming it."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    make_directory(directory or ".", path)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    tmp = os.path.join(directory, f".tmp.{os.urandom(6).hex()}.{name}")
    try:
        # created like open() creates files, so the process umask sets its mode
        fh = open(tmp, "xb") if mode == "wb" else open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
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


def checksum64(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=CHECKSUM_BYTES).digest()


def write_checksummed(path, payload: bytes) -> None:
    with replacing(path, "wb") as fh:
        fh.write(payload + checksum64(payload))


def read_checksummed(path) -> bytes:
    """Read a payload+checksum file, verifying the trailing 64-bit checksum.
    The payload is read into a bytes object of its own size, so the file is
    held once, never as a whole plus a copy without its trailer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < CHECKSUM_BYTES:
            raise IndexStoreError(f"{path}: truncated (no checksum)")
        payload = fh.read(size - CHECKSUM_BYTES)
        stored = fh.read()
    if checksum64(payload) != stored:
        raise IndexStoreError(f"{path}: checksum mismatch (corrupt or truncated)")
    return payload
