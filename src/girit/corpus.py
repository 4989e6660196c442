"""Streaming ingest of TREC-style tagged corpora.

A corpus is a UTF-8 (optionally gzip-compressed) stream of documents:

    <DOC>
    <DOCNO> unique-id </DOCNO>
    <TEXT> body text </TEXT>
    </DOC>

Tag names are matched case-insensitively and may be surrounded by whitespace;
unknown tags inside a document (``<DATE>`` etc.) are skipped; anything outside
``<DOCNO>``/``<TEXT>`` regions is ignored. Parsing is a single streaming pass
whose memory use is bounded by the largest single document, not the corpus.
"""

from __future__ import annotations

import gzip
import logging
import re
import zlib
from dataclasses import dataclass

from .analysis import AnalyzerConfig, analyze
from .errors import CorpusError
from .util import reading, writing

log = logging.getLogger(__name__)

_CHUNK = 1 << 18
_TAG_RE = re.compile(r"<\s*(/?)\s*([A-Za-z][A-Za-z0-9]*)\s*>")
# a buffer tail that may still grow into a complete tag once more input arrives
_PARTIAL_TAG_RE = re.compile(r"<\s*/?\s*[A-Za-z0-9]*\s*$")
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class RawDocument:
    docid: str
    text: str


@dataclass(frozen=True)
class CorpusStats:
    num_documents: int = 0
    vocabulary_size: int = 0
    num_tokens: int = 0
    total_bytes: int = 0

    def as_text(self) -> str:
        return (
            f"num_documents: {self.num_documents}\n"
            f"vocabulary_size: {self.vocabulary_size}\n"
            f"num_tokens: {self.num_tokens}\n"
            f"total_bytes: {self.total_bytes}\n"
        )

    def as_csv(self) -> str:
        return (
            "num_documents,vocabulary_size,num_tokens,total_bytes\n"
            f"{self.num_documents},{self.vocabulary_size},{self.num_tokens},{self.total_bytes}\n"
        )


class _PrefixedReader:
    """Binary reader that replays an already-consumed prefix."""

    def __init__(self, prefix: bytes, stream):
        self._prefix = prefix
        self._stream = stream

    def read(self, n=-1):
        if self._prefix:
            if n is None or n < 0:
                out = self._prefix + self._stream.read()
                self._prefix = b""
                return out
            out, self._prefix = self._prefix[:n], self._prefix[n:]
            if len(out) < n:
                out += self._stream.read(n - len(out))
            return out
        return self._stream.read(n)


class _GzipReader:
    """Gunzipping reader whose corrupt or truncated input is a CorpusError."""

    def __init__(self, raw):
        self._gz = gzip.GzipFile(fileobj=raw)

    def read(self, n=-1):
        try:
            return self._gz.read(n)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise CorpusError(f"corrupt or truncated gzip data: {exc}") from None


def _gunzipped(stream):
    """Binary reader over `stream`, transparently gunzipping."""
    head = stream.read(2)
    raw = _PrefixedReader(head, stream)
    if head == _GZIP_MAGIC:
        return _GzipReader(raw)
    return raw


class _Utf8Stream:
    """Incremental UTF-8 decoder that reports exact byte offsets on failure."""

    def __init__(self, reader):
        self._reader = reader
        self._pending = b""
        self._offset = 0  # stream byte offset of the start of _pending

    def read_text(self) -> str | None:
        chunk = self._reader.read(_CHUNK)
        eof = not chunk
        data = self._pending + chunk
        if not data:
            return None
        try:
            text = data.decode("utf-8")
            self._pending = b""
        except UnicodeDecodeError as exc:
            if not eof and exc.end == len(data):
                # incomplete multi-byte sequence at the chunk boundary
                text = data[: exc.start].decode("utf-8")
                self._pending = data[exc.start :]
            else:
                raise CorpusError(
                    f"UTF-8 decode failure: {exc.reason}", offset=self._offset + exc.start
                ) from None
        self._offset += len(data) - len(self._pending)
        if eof and not text:
            return None
        return text


# parser states
_OUTSIDE, _IN_DOC, _IN_DOCNO, _IN_TEXT = range(4)
_STRUCTURAL = ("DOC", "DOCNO", "TEXT")


def parse_corpus(source, lenient: bool = False):
    """Yield RawDocument records from a tagged corpus, in file order.

    `source` is a named input (see `util.reading`); an open file must be
    binary. Structural problems (missing/duplicate/empty DOCNO, nested or
    unclosed <DOC>, stray closers) raise CorpusError; with ``lenient=True``
    the offending document is skipped and logged instead. UTF-8 decode
    failures always raise, carrying the byte offset of the bad input.
    """
    with reading(source) as stream:
        yield from _documents(_Utf8Stream(_gunzipped(stream)), lenient)


def _documents(decoder: _Utf8Stream, lenient: bool):
    buf = ""
    done = False
    state = _OUTSIDE
    docno_parts: list[str] = []
    text_parts: list[str] = []
    have_docno = False
    have_text = False
    skipping = False  # lenient mode: discard until the next <DOC>
    seen: set[str] = set()

    def reset_doc():
        nonlocal state, docno_parts, text_parts, have_docno, have_text
        state = _OUTSIDE
        docno_parts = []
        text_parts = []
        have_docno = False
        have_text = False

    def recover(err: CorpusError):
        nonlocal skipping
        if not lenient:
            raise err
        log.warning("skipping malformed document: %s", err)
        reset_doc()
        skipping = True

    while True:
        if not done:
            more = decoder.read_text()
            if more is None:
                done = True
            else:
                buf += more
        pos = 0
        for match in _TAG_RE.finditer(buf):
            content = buf[pos : match.start()]
            pos = match.end()
            closing = bool(match.group(1))
            name = match.group(2).upper()
            if skipping:
                if not closing and name == "DOC":
                    skipping = False
                    state = _IN_DOC
                continue
            if state == _IN_DOCNO:
                docno_parts.append(content)
                if closing and name == "DOCNO":
                    state = _IN_DOC
                elif name in _STRUCTURAL:
                    recover(CorpusError("unclosed <DOCNO>"))
                continue  # unknown tags inside DOCNO are skipped
            if state == _IN_TEXT:
                text_parts.append(content)
                if closing and name == "TEXT":
                    state = _IN_DOC
                elif name == "DOC" and not closing:
                    recover(CorpusError("nested <DOC>"))
                elif name in _STRUCTURAL:
                    recover(CorpusError("unclosed <TEXT>"))
                continue
            if state == _OUTSIDE:
                if not closing and name == "DOC":
                    state = _IN_DOC
                continue  # anything else outside <DOC> is ignored
            # state == _IN_DOC; content between regions is ignored
            if not closing and name == "DOC":
                recover(CorpusError("nested <DOC>"))
            elif not closing and name == "DOCNO":
                if have_docno:
                    recover(CorpusError("multiple <DOCNO> in one document"))
                else:
                    have_docno = True
                    state = _IN_DOCNO
            elif not closing and name == "TEXT":
                if have_text:
                    recover(CorpusError("multiple <TEXT> in one document"))
                else:
                    have_text = True
                    state = _IN_TEXT
            elif closing and name == "DOC":
                docid = "".join(docno_parts).strip()
                if not have_docno:
                    recover(CorpusError("missing <DOCNO>"))
                elif not docid:
                    recover(CorpusError("empty <DOCNO>"))
                elif docid in seen:
                    recover(CorpusError("duplicate docid", docid=docid))
                else:
                    seen.add(docid)
                    yield RawDocument(docid=docid, text="".join(text_parts))
                    reset_doc()
            elif closing and name in ("DOCNO", "TEXT"):
                recover(CorpusError(f"stray </{name}>"))
            # unknown tags are skipped

        rest = buf[pos:]
        keep = ""
        if not done and rest:
            tail = rest.rfind("<")
            if tail != -1 and len(rest) - tail < 256 and _PARTIAL_TAG_RE.fullmatch(rest, tail):
                keep = rest[tail:]
                rest = rest[:tail]
        if state == _IN_DOCNO:
            docno_parts.append(rest)
        elif state == _IN_TEXT:
            text_parts.append(rest)
        buf = keep
        if done:
            break

    if state != _OUTSIDE:
        err = CorpusError("unclosed <DOC> at end of input")
        if lenient:
            log.warning("skipping malformed document: %s", err)
        else:
            raise err


def serialize_document(doc: RawDocument) -> str:
    """Inverse of parse_corpus for one record (text emitted verbatim)."""
    return f"<DOC>\n<DOCNO>{doc.docid}</DOCNO>\n<TEXT>{doc.text}</TEXT>\n</DOC>\n"


def write_corpus(docs, out) -> int:
    """Write documents in tag format to a path or an open text file (see
    `util.writing`); returns the number written."""
    n = 0
    with writing(out) as fh:
        for doc in docs:
            fh.write(serialize_document(doc))
            n += 1
    return n


def corpus_stats(docs, cfg: AnalyzerConfig) -> CorpusStats:
    """Collection statistics over normalized tokens (deterministic per config).

    total_bytes counts the UTF-8 encoding of document text fields.
    """
    num_docs = 0
    num_tokens = 0
    total_bytes = 0
    vocab: set[str] = set()
    for doc in docs:
        num_docs += 1
        total_bytes += len(doc.text.encode("utf-8"))
        terms = analyze(doc.text, cfg)
        num_tokens += len(terms)
        vocab.update(terms)
    return CorpusStats(
        num_documents=num_docs,
        vocabulary_size=len(vocab),
        num_tokens=num_tokens,
        total_bytes=total_bytes,
    )
