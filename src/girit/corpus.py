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

import codecs
import gzip
import logging
import os
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

    def read(self, n: int) -> bytes:
        out, self._prefix = self._prefix[:n], self._prefix[n:]
        if len(out) < n:
            out += self._stream.read(n - len(out))
        return out


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


def _decoded(reader):
    """Text of a UTF-8 byte reader, chunk by chunk; a bad byte is a
    CorpusError with its byte offset."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # bytes read so far
    while True:
        chunk = reader.read(_CHUNK)
        try:
            text = decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # exc.start counts from the bytes the decoder still held
            at = offset - len(decoder.getstate()[0]) + exc.start
            raise CorpusError(f"UTF-8 decode failure: {exc.reason}", offset=at) from None
        if text:
            yield text
        if not chunk:
            return
        offset += len(chunk)


# parser states
_OUTSIDE, _IN_DOC, _IN_DOCNO, _IN_TEXT = range(4)
_STRUCTURAL = ("DOC", "DOCNO", "TEXT")


def parse_corpus(source, lenient: bool = False, seen: set[str] | None = None):
    """Yield RawDocument records from a tagged corpus, in file order.

    `source` is a named input (see `util.reading`); an open file must be
    binary. Structural problems (missing/duplicate/empty DOCNO, nested or
    unclosed <DOC>, stray closers) raise CorpusError; with ``lenient=True``
    the offending document is skipped and logged instead. Either way the
    document is named by the 1-based position of its <DOC> tag in the input.
    A docid is a duplicate if it is in `seen`, which collects the docids
    yielded; pass one set to the calls for several files of one corpus.
    UTF-8 decode failures always raise, carrying the byte offset of the bad
    input.
    """
    if isinstance(source, (str, os.PathLike)):
        where = os.fspath(source)
    else:
        where = getattr(source, "name", "<stream>")
    with reading(source) as stream:
        yield from _documents(_decoded(_gunzipped(stream)), lenient, where, set() if seen is None else seen)


def _documents(texts, lenient: bool, where: str, seen: set[str]):
    buf = ""
    state = _OUTSIDE
    docno_parts: list[str] = []
    text_parts: list[str] = []
    have_docno = False
    have_text = False
    skipping = False  # lenient mode: discard until the next <DOC>
    doc_tags = 0  # <DOC> tags seen so far
    doc_at = 0  # position of the current document's <DOC> among them

    def reset_doc():
        nonlocal state, docno_parts, text_parts, have_docno, have_text
        state = _OUTSIDE
        docno_parts = []
        text_parts = []
        have_docno = False
        have_text = False

    def recover(message: str, docid=None):
        nonlocal skipping
        err = CorpusError(f"<DOC> #{doc_at}: {message}", docid=docid)
        if not lenient:
            raise err
        log.warning("%s: skipping malformed document: %s", where, err)
        reset_doc()
        skipping = True

    while True:
        more = next(texts, "")
        done = not more
        buf += more
        pos = 0
        for match in _TAG_RE.finditer(buf):
            content = buf[pos : match.start()]
            pos = match.end()
            closing = bool(match.group(1))
            name = match.group(2).upper()
            if not closing and name == "DOC":
                doc_tags += 1
            if skipping:
                if not closing and name == "DOC":
                    skipping = False
                    state = _IN_DOC
                    doc_at = doc_tags
                continue
            if state == _IN_DOCNO:
                docno_parts.append(content)
                if closing and name == "DOCNO":
                    state = _IN_DOC
                elif name in _STRUCTURAL:
                    recover("unclosed <DOCNO>")
                continue  # unknown tags inside DOCNO are skipped
            if state == _IN_TEXT:
                text_parts.append(content)
                if closing and name == "TEXT":
                    state = _IN_DOC
                elif name == "DOC" and not closing:
                    recover("nested <DOC>")
                elif name in _STRUCTURAL:
                    recover("unclosed <TEXT>")
                continue
            if state == _OUTSIDE:
                if not closing and name == "DOC":
                    state = _IN_DOC
                    doc_at = doc_tags
                continue  # anything else outside <DOC> is ignored
            # state == _IN_DOC; content between regions is ignored
            if not closing and name == "DOC":
                recover("nested <DOC>")
            elif not closing and name == "DOCNO":
                if have_docno:
                    recover("multiple <DOCNO> in one document")
                else:
                    have_docno = True
                    state = _IN_DOCNO
            elif not closing and name == "TEXT":
                if have_text:
                    recover("multiple <TEXT> in one document")
                else:
                    have_text = True
                    state = _IN_TEXT
            elif closing and name == "DOC":
                docid = "".join(docno_parts).strip()
                if not have_docno:
                    recover("missing <DOCNO>")
                elif not docid:
                    recover("empty <DOCNO>")
                elif docid in seen:
                    recover("duplicate docid", docid=docid)
                else:
                    seen.add(docid)
                    yield RawDocument(docid=docid, text="".join(text_parts))
                    reset_doc()
            elif closing and name in ("DOCNO", "TEXT"):
                recover(f"stray </{name}>")
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
        recover("unclosed <DOC> at end of input")


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
