"""Inverted index: build, persist, load, and query term statistics.

On-disk layout (format version 1) is a directory of four files, each ending
in a 64-bit BLAKE2b checksum of the preceding payload:

    header.json   magic, format version, analyzer configuration + fingerprint,
                  collection statistics
    doctable.bin  per document: varint(len(docid)) docid-utf8 varint(dl)
    lexicon.bin   per term, sorted: varint(len(term)) term-utf8 varint(df)
                  varint(cf) varint(offset) varint(nbytes)
    postings.bin  per term: df x (varint id-gap, varint tf); the first gap is
                  the first internal id itself

header.json is removed first and written last, so a directory whose write was
interrupted does not load. Internal ids are dense 0..N-1 in ingestion order.
Building is single-writer; a built or loaded index is immutable and safe to
share across threads.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import logging
import os
import struct
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import AnalyzerConfig, analyze
from .corpus import CorpusStats, RawDocument
from .errors import CorpusError, EmptyCollectionError, IndexStoreError
from .util import (
    CHECKSUM_BYTES,
    decode_varints,
    encode_varints,
    read_checksummed,
    read_varint,
    write_checksummed,
)

log = logging.getLogger(__name__)

MAGIC = "girit-index"
FORMAT_VERSION = 1

HEADER_FILE = "header.json"
DOCTABLE_FILE = "doctable.bin"
LEXICON_FILE = "lexicon.bin"
POSTINGS_FILE = "postings.bin"


@dataclass(frozen=True)
class CollectionStats:
    num_docs: int
    total_tokens: int
    vocabulary_size: int

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.num_docs


class PostingList:
    __slots__ = ("term", "ids", "tfs")

    def __init__(self, term: str, ids, tfs):
        self.term = term
        self.ids = np.asarray(ids, dtype=np.int64)
        self.tfs = np.asarray(tfs, dtype=np.int64)

    @property
    def df(self) -> int:
        return len(self.ids)

    @property
    def cf(self) -> int:
        return int(self.tfs.sum())

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.ids.tolist(), self.tfs.tolist()))

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return (
            isinstance(other, PostingList)
            and self.term == other.term
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.tfs, other.tfs)
        )

    def __repr__(self):
        return f"PostingList({self.term!r}, df={self.df}, cf={self.cf})"


class DocTable:
    def __init__(self, docids: list[str], lengths):
        self.docids = docids
        self.lengths = np.asarray(lengths, dtype=np.int64)

    def __len__(self):
        return len(self.docids)

    def internal_id(self, docid: str) -> int:
        return self._by_docid[docid]

    # built on first use, so loading an index does not pay for them

    @cached_property
    def _by_docid(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.docids)}

    @cached_property
    def docid_rank(self) -> np.ndarray:
        """Each internal id's position in code-point docid order."""
        order = sorted(range(len(self.docids)), key=self.docids.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank

    @cached_property
    def docid_array(self) -> np.ndarray:
        """The docids as a numpy object array, for fancy indexing."""
        return np.array(self.docids, dtype=object)


class Index:
    """Immutable term -> postings map plus the statistics scoring needs."""

    def __init__(self, cfg: AnalyzerConfig, doc_table: DocTable, lexicon, postings: bytes):
        self.cfg = cfg
        self.doc_table = doc_table
        # lexicon: term -> (df, cf, offset, nbytes) into the v1 postings payload
        self._lexicon = lexicon
        self._buf = postings
        total = int(self.doc_table.lengths.sum()) if len(doc_table) else 0
        self.stats = CollectionStats(
            num_docs=len(doc_table),
            total_tokens=total,
            vocabulary_size=len(lexicon),
        )

    @property
    def fingerprint(self) -> str:
        return self.cfg.fingerprint()

    def terms(self):
        return iter(self._lexicon)

    def __contains__(self, term: str) -> bool:
        return term in self._lexicon

    def term_stats(self, term: str) -> tuple[int, int] | None:
        entry = self._lexicon.get(term)
        if entry is None:
            return None
        return entry[0], entry[1]

    def lookup(self, term: str) -> PostingList | None:
        """Exact-match lookup on a normalized term; None when unseen.

        Decodes the term's postings block on every call; nothing is cached.
        """
        entry = self._lexicon.get(term)
        if entry is None:
            return None
        df, _cf, offset, nbytes = entry
        pairs = decode_varints(self._buf, offset, 2 * df, nbytes).reshape(df, 2)
        return PostingList(term, np.cumsum(pairs[:, 0]), pairs[:, 1])

    # -- persistence --------------------------------------------------------

    def persist(self, directory) -> None:
        """Write the versioned on-disk format; deterministic for equal content."""
        buf = self._buf
        blocks = (
            (term, df, cf, buf[offset : offset + nbytes])
            for term, (df, cf, offset, nbytes) in sorted(self._lexicon.items())
        )
        _write_index(directory, self.cfg, self.doc_table.docids, self.doc_table.lengths.tolist(), blocks)

    @classmethod
    def load(cls, directory) -> "Index":
        header = _read_header(directory)
        cfg = _config_from_header(header)
        doc_payload = read_checksummed(os.path.join(directory, DOCTABLE_FILE))
        docids: list[str] = []
        lengths = array("q")
        pos = 0
        end = len(doc_payload)
        while pos < end:
            n, pos = read_varint(doc_payload, pos)
            docids.append(doc_payload[pos : pos + n].decode("utf-8"))
            pos += n
            dl, pos = read_varint(doc_payload, pos)
            lengths.append(dl)
        if len(docids) != header["num_documents"]:
            raise IndexStoreError(f"{directory}: document table does not match header")

        lex_payload = read_checksummed(os.path.join(directory, LEXICON_FILE))
        lexicon: dict[str, tuple[int, int, int, int]] = {}
        pos = 0
        end = len(lex_payload)
        while pos < end:
            n, pos = read_varint(lex_payload, pos)
            term = lex_payload[pos : pos + n].decode("utf-8")
            pos += n
            df, pos = read_varint(lex_payload, pos)
            cf, pos = read_varint(lex_payload, pos)
            offset, pos = read_varint(lex_payload, pos)
            nbytes, pos = read_varint(lex_payload, pos)
            lexicon[term] = (df, cf, offset, nbytes)
        if len(lexicon) != header["vocabulary_size"]:
            raise IndexStoreError(f"{directory}: lexicon does not match header")

        postings_buf = read_checksummed(os.path.join(directory, POSTINGS_FILE))
        index = cls(cfg, DocTable(docids, lengths), lexicon, postings_buf)
        if index.stats.total_tokens != header["total_tokens"]:
            raise IndexStoreError(f"{directory}: token count does not match header")
        return index


def _encode_postings(ids, tfs) -> bytes:
    gaps = np.diff(ids, prepend=0)
    flat = np.empty(2 * len(ids), dtype=np.int64)
    flat[0::2] = gaps
    flat[1::2] = tfs
    return encode_varints(flat.tolist())


def _write_index(directory, cfg: AnalyzerConfig, docids, lengths, blocks) -> int:
    """Write a format-v1 index directory; the one writer of the format.

    `blocks` yields (term, df, cf, v1 postings block) in term order. Postings
    stream to disk, so only the doctable and lexicon are held in memory.
    Returns the vocabulary size written to the header.
    """
    os.makedirs(directory, exist_ok=True)
    header_path = os.path.join(directory, HEADER_FILE)
    if os.path.exists(header_path):
        os.unlink(header_path)
    doc_payload = bytearray()
    for docid, dl in zip(docids, lengths):
        raw = docid.encode("utf-8")
        doc_payload += encode_varints((len(raw),))
        doc_payload += raw
        doc_payload += encode_varints((dl,))
    write_checksummed(os.path.join(directory, DOCTABLE_FILE), bytes(doc_payload))

    lex_payload = bytearray()
    offset = 0
    vocabulary = 0
    post_path = os.path.join(directory, POSTINGS_FILE)
    try:
        with open(post_path + ".tmp", "wb") as fh:
            hasher = hashlib.blake2b(digest_size=CHECKSUM_BYTES)
            for term, df, cf, block in blocks:
                raw = term.encode("utf-8")
                lex_payload += encode_varints((len(raw),))
                lex_payload += raw
                lex_payload += encode_varints((df, cf, offset, len(block)))
                fh.write(block)
                hasher.update(block)
                offset += len(block)
                vocabulary += 1
            fh.write(hasher.digest())
        os.replace(post_path + ".tmp", post_path)
    except BaseException:
        try:
            os.unlink(post_path + ".tmp")
        except OSError:
            pass
        raise
    write_checksummed(os.path.join(directory, LEXICON_FILE), bytes(lex_payload))

    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "analyzer": {
            "lowercase_latin": cfg.lowercase_latin,
            "unicode_normalization": cfg.unicode_normalization,
            "min_token_length": cfg.min_token_length,
            "stopwords": sorted(cfg.stopword_list),
        },
        "fingerprint": cfg.fingerprint(),
        "num_documents": len(docids),
        "total_tokens": int(sum(lengths)),
        "vocabulary_size": vocabulary,
    }
    payload = json.dumps(header, sort_keys=True, ensure_ascii=True).encode("utf-8")
    write_checksummed(header_path, payload)
    return vocabulary


def _read_header(directory) -> dict:
    path = os.path.join(directory, HEADER_FILE)
    if not os.path.exists(path):
        raise IndexStoreError(f"{directory}: not an index directory (no {HEADER_FILE})")
    try:
        header = json.loads(read_checksummed(path).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise IndexStoreError(f"{path}: unreadable header: {exc}") from None
    if header.get("magic") != MAGIC:
        raise IndexStoreError(f"{path}: bad magic {header.get('magic')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise IndexStoreError(
            f"{path}: unsupported format version {header.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return header


def _config_from_header(header: dict) -> AnalyzerConfig:
    a = header["analyzer"]
    return AnalyzerConfig(
        lowercase_latin=a["lowercase_latin"],
        unicode_normalization=a["unicode_normalization"],
        stopword_list=frozenset(a["stopwords"]),
        min_token_length=a["min_token_length"],
    )


def read_config(directory) -> AnalyzerConfig:
    """The analyzer configuration of an index, from its header alone."""
    return _config_from_header(_read_header(directory))


# a spill run is a sequence of segments: this header (term bytes, posting
# count), the term in UTF-8, then the ids and the tfs as native int32 arrays
_RUN_HEADER = struct.Struct("<II")
# spill runs read at once by a merge; far below common open-file limits
_MAX_FAN_IN = 128


class _Builder:
    """Accumulates postings in memory, spilling sorted runs under a byte budget."""

    # rough in-memory cost accounting: 8 bytes per posting, ~120 per new term
    _POSTING_COST = 8
    _TERM_COST = 120

    def __init__(self, cfg: AnalyzerConfig, budget_bytes: int | None, spill_dir: str | None):
        self.cfg = cfg
        self.budget = budget_bytes
        self.spill_dir = spill_dir
        self.docids: list[str] = []
        self.lengths = array("q")
        self.text_bytes = 0
        self.postings: dict[str, tuple[array, array]] = {}
        self.seen: set[str] = set()
        self.approx_bytes = 0
        self.run_paths: list[str] = []

    def add_all(self, docs) -> None:
        for doc in docs:
            self.add(doc)
        if not self.docids:
            raise EmptyCollectionError("empty collection: average document length undefined")

    def add(self, doc: RawDocument) -> None:
        if doc.docid in self.seen:
            raise CorpusError("duplicate docid", docid=doc.docid)
        self.seen.add(doc.docid)
        iid = len(self.docids)
        self.docids.append(doc.docid)
        self.text_bytes += len(doc.text.encode("utf-8"))
        counts = Counter(analyze(doc.text, self.cfg))
        self.lengths.append(sum(counts.values()))
        postings = self.postings
        cost = 0
        for term, tf in counts.items():
            entry = postings.get(term)
            if entry is None:
                entry = postings[term] = (array("i"), array("i"))
                cost += self._TERM_COST
            entry[0].append(iid)
            entry[1].append(tf)
            cost += self._POSTING_COST
        self.approx_bytes += cost
        if self.budget is not None and self.approx_bytes > self.budget:
            self._spill()

    def _spill(self) -> None:
        if not self.postings:
            return
        path = os.path.join(self.spill_dir, f"run{len(self.run_paths):05d}.tmp")
        log.info("spilling %d terms (~%d MB) to %s", len(self.postings), self.approx_bytes >> 20, path)
        self.run_paths.append(path)
        _write_run(path, ((term, *self.postings[term]) for term in sorted(self.postings)))
        self.postings = {}
        self.approx_bytes = 0

    def blocks(self):
        """Merged (term, df, cf, v1 postings block) stream, sorted by term.

        Spill runs were written in document order, so for any term the
        segment ids are strictly increasing across runs in merge order.
        Beyond _MAX_FAN_IN runs, consecutive groups are merged into one run
        first, which keeps that order.
        """
        runs = self.run_paths
        while len(runs) > _MAX_FAN_IN:
            runs = [_merge_runs(runs[i : i + _MAX_FAN_IN]) for i in range(0, len(runs), _MAX_FAN_IN)]
        iters = [_run_segments(p) for p in runs]
        iters.append(
            (term, *self.postings[term]) for term in sorted(self.postings)
        )
        for term, ids, tfs in _merged(iters):
            yield term, len(ids), sum(tfs), _encode_postings(ids, tfs)


def _merged(iters):
    """Merge sorted (term, ids, tfs) segment streams, in stream order per term."""
    merged = heapq.merge(*iters, key=lambda seg: seg[0])
    for term, group in itertools.groupby(merged, key=lambda seg: seg[0]):
        pieces = list(group)
        if len(pieces) == 1:
            yield pieces[0]
            continue
        ids = array("i")
        tfs = array("i")
        for _, seg_ids, seg_tfs in pieces:
            ids.extend(seg_ids)
            tfs.extend(seg_tfs)
        yield term, ids, tfs


def _write_run(path, segments) -> None:
    with open(path, "wb") as fh:
        for term, ids, tfs in segments:
            raw = term.encode("utf-8")
            fh.write(_RUN_HEADER.pack(len(raw), len(ids)))
            fh.write(raw)
            ids.tofile(fh)
            tfs.tofile(fh)


def _run_segments(path):
    """Stream a spill run back, one (term, ids, tfs) segment at a time."""
    with open(path, "rb") as fh:
        while head := fh.read(_RUN_HEADER.size):
            nraw, count = _RUN_HEADER.unpack(head)
            term = fh.read(nraw).decode("utf-8")
            ids = array("i")
            ids.fromfile(fh, count)
            tfs = array("i")
            tfs.fromfile(fh, count)
            yield term, ids, tfs


def _merge_runs(paths) -> str:
    """Merge consecutive spill runs into one run file; the inputs are removed."""
    path = paths[0] + ".merged"
    _write_run(path, _merged([_run_segments(p) for p in paths]))
    for p in paths:
        os.unlink(p)
    return path


def build_index(docs, cfg: AnalyzerConfig) -> Index:
    """In-memory index over `docs`; deterministic for a fixed input order."""
    builder = _Builder(cfg, budget_bytes=None, spill_dir=None)
    builder.add_all(docs)
    lexicon = {}
    payload = bytearray()
    for term, df, cf, block in builder.blocks():
        lexicon[term] = (df, cf, len(payload), len(block))
        payload += block
    return Index(cfg, DocTable(builder.docids, builder.lengths), lexicon, bytes(payload))


def build_index_to_dir(docs, cfg: AnalyzerConfig, directory, memory_budget_mb: int = 512) -> CorpusStats:
    """Stream-build an index into `directory` under a memory budget.

    Returns the statistics of what was written, counted while building; the
    directory is not read back. Produces byte-identical files to
    build_index(...).persist(directory) for the same documents, regardless of
    how many spill runs were needed.
    """
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build.", dir=directory) as spill_dir:
        builder = _Builder(cfg, budget_bytes=memory_budget_mb << 20, spill_dir=spill_dir)
        builder.add_all(docs)
        vocabulary = _write_index(directory, cfg, builder.docids, builder.lengths, builder.blocks())
    return CorpusStats(
        num_documents=len(builder.docids),
        vocabulary_size=vocabulary,
        num_tokens=sum(builder.lengths),
        total_bytes=builder.text_bytes,
    )
