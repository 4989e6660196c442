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
share across threads. `Index.holding` returns a per-query view (a shallow
copy) that holds that query's decoded posting lists; the index itself is
never changed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
import struct
import sys
import tempfile
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .analysis import UNICODE_FORMS, AnalyzerConfig, analyze, memo_bytes
from .corpus import CorpusStats, RawDocument
from .errors import CorpusError, EmptyCollectionError, IndexStoreError
from .util import CHECKSUM_BYTES, read_checksummed, replacing, write_checksummed

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
    __slots__ = ("term", "ids", "tfs", "cf")

    def __init__(self, term: str, ids, tfs):
        self.term = term
        self.ids = np.asarray(ids, dtype=np.int64)
        self.tfs = np.asarray(tfs, dtype=np.int64)
        self.cf = int(self.tfs.sum())

    @property
    def df(self) -> int:
        return len(self.ids)

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

    def __init__(self, cfg: AnalyzerConfig, doc_table: DocTable, terms: list[str], table, postings: bytes):
        self.cfg = cfg
        self.fingerprint = cfg.fingerprint()
        self.doc_table = doc_table
        # lexicon: term -> row of `table`, whose (V, 4) int64 rows are df, cf,
        # offset and nbytes into the v1 postings payload
        self._lexicon = dict(zip(terms, range(len(terms))))
        self._table = table
        self._buf = postings
        # named by a posting block's error; `load` gives the file's path
        self._postings_path = POSTINGS_FILE
        # term -> decoded posting list; empty except in a `holding` view
        self._held: dict[str, PostingList] = {}
        total = int(self.doc_table.lengths.sum()) if len(doc_table) else 0
        self.stats = CollectionStats(
            num_docs=len(doc_table),
            total_tokens=total,
            vocabulary_size=len(self._lexicon),
        )

    def terms(self):
        return iter(self._lexicon)

    def __contains__(self, term: str) -> bool:
        return term in self._lexicon

    def term_stats(self, term: str) -> tuple[int, int] | None:
        row = self._lexicon.get(term)
        if row is None:
            return None
        df, cf = self._table[row, :2].tolist()
        return df, cf

    def lookup(self, term: str) -> PostingList | None:
        """Exact-match lookup on a normalized term; None when unseen.

        A `holding` view hands back the posting list it decoded for one of its
        terms; any other lookup decodes the term's postings block afresh.
        """
        posting = self._held.get(term)
        return posting if posting is not None else self._decode(term)

    def holding(self, terms) -> "Index":
        """A view of this index that decodes each of `terms` once, here, and
        whose `lookup` hands back those posting lists.

        The view is a shallow copy: it shares the lexicon, the doc table and
        the postings bytes, and this index is left as it was. It is meant to
        live for one query, so that every model ranking that query shares the
        decoded lists while nothing outlives the query.
        """
        view = copy.copy(self)
        view._held = {t: p for t in terms if (p := self._decode(t)) is not None}
        return view

    def _decode(self, term: str) -> PostingList | None:
        row = self._lexicon.get(term)
        if row is None:
            return None
        df, cf, offset, nbytes = self._table[row].tolist()
        try:
            values = decode_varints(self._buf, offset, 2 * df, nbytes)
        except IndexStoreError as exc:
            raise IndexStoreError(f"{self._postings_path}: posting block of term {term!r}: {exc}") from None
        gaps, tfs = values[0::2], values[1::2]
        ids = np.cumsum(gaps)
        posting = PostingList(term, ids, tfs)
        # no value after the first gap is 0; no build writes one of 2^31 or
        # more, and below that no sum of gaps overflows; the tfs sum to the
        # lexicon's cf
        n = self.stats.num_docs
        bad = df and (ids[-1] >= n or np.count_nonzero(values[1:]) < 2 * df - 1 or values.max() >> 31)
        if bad or posting.cf != cf:
            raise IndexStoreError(
                f"{self._postings_path}: posting block of term {term!r} at byte offset {offset}: "
                + _block_fault(gaps, tfs, ids, n, cf)
            )
        return posting

    # -- persistence --------------------------------------------------------

    def persist(self, directory) -> None:
        """Write the versioned on-disk format; deterministic for equal content."""
        terms = sorted(self._lexicon)
        df, cf, offsets, nbytes = self._table[[self._lexicon[t] for t in terms]].T
        buf = memoryview(self._buf)
        payload = b"".join(buf[o : o + n] for o, n in zip(offsets.tolist(), nbytes.tolist()))
        batches = [(terms, df, cf, nbytes, payload)] if terms else []
        _write_index(directory, self.cfg, self.doc_table.docids, self.doc_table.lengths, batches)

    @classmethod
    def load(cls, directory) -> "Index":
        header = _read_header(directory)
        cfg = _config_from_header(header)
        # a count that disagrees with the header names both files
        against = f"does not match {os.path.join(directory, HEADER_FILE)}"
        docs_path = os.path.join(directory, DOCTABLE_FILE)
        docids, lengths = _read_records(docs_path, read_checksummed(docs_path), 1)
        if len(docids) != header["num_documents"]:
            raise IndexStoreError(f"{docs_path}: document count {against}")

        path = os.path.join(directory, LEXICON_FILE)
        terms, table = _read_records(path, read_checksummed(path), 4)
        if len(terms) != header["vocabulary_size"]:
            raise IndexStoreError(f"{path}: term count {against}")

        path = os.path.join(directory, POSTINGS_FILE)
        index = cls(cfg, DocTable(docids, lengths[:, 0]), terms, table, read_checksummed(path))
        index._postings_path = path
        if index.stats.total_tokens != header["total_tokens"]:
            raise IndexStoreError(f"{docs_path}: token count {against}")
        return index


def _block_fault(gaps, tfs, ids, n: int, cf: int) -> str:
    """What is wrong with a decoded posting block that fails Index._decode's check."""
    if ids.size and (gaps.max() >= n or ids[-1] >= n):
        return f"internal ids run past the last document, {n - 1}"
    if gaps[1:].min(initial=1) == 0:
        return f"internal id {ids[np.argmin(gaps[1:])]} is listed twice"
    if tfs.min(initial=1) == 0:
        return f"internal id {ids[np.argmin(tfs)]} has a tf of 0"
    if tfs.max(initial=0) >> 31:
        return f"a tf of {tfs.max()} is more than any build writes"
    return f"its tfs sum to {tfs.sum()}, not to the lexicon's cf of {cf}"


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


# candidate records, or payload bytes, a step of _read_records handles at a time
_LOAD_CHUNK = 1 << 14


def _varints(data: np.ndarray, first: np.ndarray, last: np.ndarray):
    """(values, widths) of the varints at data[first:last + 1], where `last`
    is each one's terminator.

    A value is its 7-bit groups folded from the terminator down; only the
    last 9 bytes are read, so a wider varint gets its true width and a wrong
    value.
    """
    widths = last - first + 1
    values = data[last].astype(np.int64)
    wide = np.flatnonzero(widths > 1)
    for k in range(1, MAX_VARINT_BYTES):
        if not wide.size:
            break
        values[wide] = values[wide] << 7 | data[last[wide] - k] & 0x7F
        wide = wide[widths[wide] > k + 1]
    return values, widths


def _after(ends: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The byte after terminator idx - 1 for each of `idx`, 0 for idx 0."""
    return np.where(idx > 0, ends[idx - 1].astype(np.int64) + 1, 0)


def _read_records(path, payload: bytes, count: int) -> tuple[list[str], np.ndarray]:
    """The strings and numbers of a doctable or lexicon payload: per record
    varint(UTF-8 length), the string, then `count` varints.

    Every byte after a terminator (a byte below 0x80) may start a record.
    Each candidate's successor comes from whole-array work: skip its length
    varint, the string and `count` varints. The chain of successors from
    byte 0 is followed one Python step per record, and only its records are
    decoded. A record that breaks the format raises IndexStoreError naming
    `path` and a byte offset.
    """
    size = len(payload)
    data = np.frombuffer(payload, dtype=np.uint8)
    # byte positions and candidate numbers, which stay below the payload size
    dtype = np.int32 if size < 1 << 30 else np.int64
    # 1 at each terminator, in 256-byte blocks padded past the end
    blocks = np.zeros(((size >> 8) + 1, 256), dtype=np.uint8)
    is_end = blocks.reshape(-1)
    is_end[:size] = data < 0x80
    ends = np.empty(int(np.count_nonzero(is_end)), dtype=dtype)
    filled = 0
    for a in range(0, size, _LOAD_CHUNK):
        found = np.flatnonzero(is_end[a : a + _LOAD_CHUNK]) + a
        ends[filled : filled + found.size] = found
        filled += found.size
    total = len(ends)
    # the number of terminators before byte p, for any p <= size, is
    # block_rank[p >> 8] + within[p]: those before p's block and those
    # before p in it, below 256
    block_rank = np.zeros(len(blocks), dtype=dtype)
    np.cumsum(blocks[:-1].sum(axis=1, dtype=dtype), out=block_rank[1:])
    within = np.zeros_like(blocks)
    np.cumsum(blocks[:, :-1], axis=1, dtype=np.uint8, out=within[:, 1:])
    within = within.reshape(-1)
    del blocks, is_end

    # candidate i starts after terminator i - 1, so its length varint ends
    # at terminator i; its successor is the candidate after its last number,
    # or total + 1 when it has none
    successor = np.empty(total, dtype=dtype)
    for a in range(0, total, _LOAD_CHUNK):
        b = min(total, a + _LOAD_CHUNK)
        last = ends[a:b].astype(np.int64)
        first = np.empty_like(last)
        first[0] = ends[a - 1] + 1 if a else 0
        first[1:] = last[:-1] + 1
        length, width = _varints(data, first, last)
        # where its first number starts; a record needs a byte there
        stop = last + 1 + np.minimum(length, size)
        ok = (width <= MAX_VARINT_BYTES) & (stop < size)
        # the first terminator at or after each stop
        at = np.minimum(stop, size)
        found = block_rank[at >> 8] + within[at]
        successor[a:b] = np.where(ok, np.minimum(found + count, total + 1), total + 1)
    del block_rank, within

    chain = array("q")
    append = chain.append
    step = memoryview(successor)
    i = 0
    while i < total:
        append(i)
        i = step[i]
    if i > total:
        raise _record_error(path, data, ends, chain[-1])
    tail = int(ends[-1]) + 1 if total else 0
    if tail != size:
        raise IndexStoreError(f"{path}: varint at byte offset {tail} has no terminator")

    records = np.frombuffer(chain, dtype=np.int64)
    # the terminator index of each record's first number
    at = successor[records].astype(np.int64) - count
    del step, successor
    first = ends[records].astype(np.int64) + 1
    length, _ = _varints(data, _after(ends, records), first - 1)
    # the first number starts right after the string, each later one after a terminator
    start = first + length
    numbers = np.empty((len(records), count), dtype=np.int64)
    for j in range(count):
        last = ends[at + j].astype(np.int64)
        numbers[:, j], widths = _varints(data, start, last)
        if widths.size and widths.max() > MAX_VARINT_BYTES:
            wide = int(start[np.argmax(widths)])
            raise IndexStoreError(f"{path}: varint at byte offset {wide} is longer than {MAX_VARINT_BYTES} bytes")
        start = last + 1
    del ends, at, start, last
    return _strings(path, payload, first, length), numbers


def _record_error(path, data, ends, i: int) -> IndexStoreError:
    """Why candidate record `i` has no successor."""
    idx = np.array([i])
    first = _after(ends, idx)
    length, width = _varints(data, first, ends[idx].astype(np.int64))
    start = int(first[0])
    if width[0] > MAX_VARINT_BYTES:
        return IndexStoreError(f"{path}: varint at byte offset {start} is longer than {MAX_VARINT_BYTES} bytes")
    if int(ends[i]) + 1 + int(length[0]) > len(data):
        return IndexStoreError(
            f"{path}: record at byte offset {start}: a string of {int(length[0])} bytes "
            f"runs past the end of the {len(data)}-byte payload"
        )
    return IndexStoreError(f"{path}: record at byte offset {start} is truncated")


def _strings(path, payload: bytes, first: np.ndarray, length: np.ndarray) -> list[str]:
    """The UTF-8 strings at payload[first:first + length], each decoded on its own."""
    strings = []
    for a, b in zip(first.tolist(), (first + length).tolist()):
        try:
            strings.append(payload[a:b].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexStoreError(
                f"{path}: string at byte offset {a} is not UTF-8: {exc.reason} at byte offset {a + exc.start}"
            ) from None
    return strings


def _records(strings: list[str], numbers: np.ndarray) -> bytearray:
    """Per row: varint(UTF-8 length of the string), the string in UTF-8,
    then that row of `numbers` as varints.

    All the numbers are encoded in one encode_varints call. Each string is
    encoded as it is copied, so no per-row object outlives its row.
    """
    lengths = np.fromiter((len(s.encode("utf-8")) for s in strings), np.int64, len(strings))
    values = np.column_stack([lengths, numbers]).reshape(-1)
    encoded = memoryview(encode_varints(values))
    cuts = np.cumsum(varint_widths(values)).reshape(len(strings), numbers.shape[1] + 1)
    out = bytearray()
    start = 0
    for s, head, end in zip(strings, cuts[:, 0], cuts[:, -1]):
        out += encoded[start:head]
        out += s.encode("utf-8")
        out += encoded[head:end]
        start = end
    return out


def _write_index(directory, cfg: AnalyzerConfig, docids, lengths, batches) -> int:
    """Write a format-v1 index directory; the one writer of the format.

    `batches` yields (terms, df, cf, nbytes, payload) in term order, where
    payload is the v1 postings blocks of the batch's terms back to back,
    nbytes[i] of them for terms[i]. Postings stream to disk, so only the
    doctable and lexicon are held in memory. Returns the vocabulary size
    written to the header.
    """
    header_path = os.path.join(directory, HEADER_FILE)
    if os.path.exists(header_path):
        os.unlink(header_path)
    lengths = np.asarray(lengths, dtype=np.int64)
    doc_payload = _records(docids, lengths[:, None])
    write_checksummed(os.path.join(directory, DOCTABLE_FILE), doc_payload)

    lex_payload = bytearray()
    offset = 0
    vocabulary = 0
    with replacing(os.path.join(directory, POSTINGS_FILE), "wb") as fh:
        hasher = hashlib.blake2b(digest_size=CHECKSUM_BYTES)
        for terms, df, cf, nbytes, payload in batches:
            starts = offset + np.cumsum(nbytes) - nbytes
            lex_payload += _records(terms, np.column_stack([df, cf, starts, nbytes]))
            fh.write(payload)
            hasher.update(payload)
            offset += len(payload)
            vocabulary += len(terms)
        fh.write(hasher.digest())
    write_checksummed(os.path.join(directory, LEXICON_FILE), lex_payload)

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
        "total_tokens": int(lengths.sum()),
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
    if not isinstance(header, dict):
        raise IndexStoreError(f"{path}: unreadable header: not a JSON object")
    if header.get("magic") != MAGIC:
        raise IndexStoreError(f"{path}: bad magic {header.get('magic')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise IndexStoreError(
            f"{path}: unsupported format version {header.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    for prefix, kinds in (("", _HEADER_KEYS), ("analyzer.", _ANALYZER_KEYS)):
        table = header["analyzer"] if prefix else header
        for key, kind in kinds.items():
            if type(table.get(key)) is not kind:  # exactly: a bool is an int too
                raise IndexStoreError(f"{path}: key {prefix + key!r} is missing or not of type {kind.__name__}")
    if not all(isinstance(word, str) for word in header["analyzer"]["stopwords"]):
        raise IndexStoreError(f"{path}: key 'analyzer.stopwords' must hold strings")
    if header["analyzer"]["unicode_normalization"] not in UNICODE_FORMS:
        raise IndexStoreError(f"{path}: key 'analyzer.unicode_normalization' must be one of {', '.join(UNICODE_FORMS)}")
    return header


# the header keys that Index.load and _config_from_header read, and their types
_HEADER_KEYS = {"num_documents": int, "total_tokens": int, "vocabulary_size": int, "analyzer": dict}
_ANALYZER_KEYS = {"lowercase_latin": bool, "unicode_normalization": str, "min_token_length": int, "stopwords": list}


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


# A run file: this header (terms, rows); the rows as (internal id, tf)
# int32 pairs, by term and then by id; then the term table as (term id, df)
# int32 pairs, in term order. Term ids number the builder's term map.
_RUN_HEADER = struct.Struct("<QQ")
# term table entries read from a run at a time
_RUN_TABLE_READ = 64
# runs read at once by a merge; far below common open-file limits
_MAX_FAN_IN = 128
# postings per merge batch: the most (a budget of 40 MiB or more), and the least
_MAX_BATCH = 1 << 16
_MIN_BATCH = 1 << 10
# peak bytes per posting of a batch's temporaries; on 10k-document builds
# tracemalloc measured 102 to encode (int64 values, encode_varints' work)
_BATCH_COST = 160
# merge batches of tokens per slice that a flush sorts; on the 10k-document
# build tracemalloc measured 36 bytes per token of a slice's temporaries (int64
# keys, np.unique's sorted copy, the rows), so a slice fits one batch's share
_SLICE_BATCHES = 2
# a term id in the term map, as the allocator rounds an int object
_INT_BYTES = 32


class _TermIds(dict):
    """term -> term id, numbered in first-seen order."""

    def __missing__(self, term):
        self[term] = n = len(self)
        return n

    def nbytes(self) -> int:
        return sys.getsizeof(self) + _INT_BYTES * len(self)


class _Run:
    """A run file's rows, sorted by term and then internal id, taken front to
    back a few terms at a time. `rank` maps the file's term ids to ranks in
    the sorted term map; `ranks` and `dfs` are the term table entries read
    and not yet taken."""

    def __init__(self, path, rank):
        self._fh = open(path, "rb")
        self._rank = rank
        nterms, self.nrows = _RUN_HEADER.unpack(self._read(0, _RUN_HEADER.size))
        self._rows_at = _RUN_HEADER.size
        self._table_at = self._rows_at + 8 * self.nrows
        self._unread = nterms
        self.ranks = np.empty(0, dtype=rank.dtype)
        self.dfs = np.empty(0, dtype=np.int64)

    def peek(self, limit: int) -> np.ndarray:
        """The next ranks: as many as fit in `limit` postings, at least one."""
        cum = np.cumsum(self.dfs)
        while (not cum.size or cum[-1] < limit) and self._more():
            cum = np.cumsum(self.dfs)
        fit = int(np.searchsorted(cum, limit, side="right"))
        return self.ranks[: max(1, fit)]

    def take(self, count: int):
        """(ranks, dfs, rows) of the next `count` terms."""
        ranks, self.ranks = self.ranks[:count], self.ranks[count:]
        dfs, self.dfs = self.dfs[:count], self.dfs[count:]
        rows = np.frombuffer(self._read(self._rows_at, 8 * int(dfs.sum())), dtype=np.int32)
        self._rows_at += rows.nbytes
        return ranks, dfs, rows.reshape(-1, 2)

    def done(self) -> bool:
        return not self.ranks.size and not self._more()

    def _read(self, at: int, size: int) -> bytes:
        self._fh.seek(at)
        data = self._fh.read(size)
        if len(data) != size:
            raise IndexStoreError(f"{self._fh.name}: spill run is truncated")
        return data

    def _more(self) -> bool:
        count = min(self._unread, _RUN_TABLE_READ)
        if not count:
            return False
        table = np.frombuffer(self._read(self._table_at, 8 * count), dtype=np.int32).reshape(count, 2)
        self.ranks = np.concatenate([self.ranks, self._rank[table[:, 0]]])
        self.dfs = np.concatenate([self.dfs, table[:, 1]])
        self._table_at += 8 * count
        self._unread -= count
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _batches(sources, limit: int):
    """Merge sorted sources into batches of whole terms, in term order.

    Yields (ranks, dfs, rows) with about `limit` postings (but at least a
    table read's worth from each source), or one term if that term alone
    has more. The sources hold consecutive document ranges
    in order, so one stable sort of a batch's rows by term keeps them in
    document order within each term.
    """
    live = [s for s in sources if not s.done()]
    while live:
        # each source's share of the batch is its share of the rows, so that
        # the heads reach about the same term; at least a table read from
        # each, or many sources make tiny batches
        rows = sum(s.nrows for s in live)
        heads = [s.peek(max(_RUN_TABLE_READ, limit * s.nrows // rows)) for s in live]
        cutoff = min(head[-1] for head in heads)
        counts = [int(np.searchsorted(head, cutoff, side="right")) for head in heads]
        taken = [s.take(n) for s, n in zip(live, counts) if n]
        live = [s for s in live if not s.done()]
        if len(taken) == 1:
            yield taken[0]
            continue
        ranks, keys = np.unique(np.concatenate([r for r, _, _ in taken]), return_inverse=True)
        # a stable argsort of 16-bit keys is a radix sort
        dtype = np.uint16 if len(ranks) <= 1 << 16 else np.int64
        keys = np.repeat(keys.astype(dtype), np.concatenate([d for _, d, _ in taken]))
        rows = np.concatenate([r for _, _, r in taken])[np.argsort(keys, kind="stable")]
        yield ranks, np.bincount(keys, minlength=len(ranks)), rows


def _encoded(batches, terms: list[str]):
    """(terms, df, cf, nbytes, payload) for each (ranks, dfs, rows) batch,
    a rank being a position in the sorted `terms`; payload is the v1
    postings blocks of the batch's terms, back to back, from one
    encode_varints call."""
    for ranks, dfs, rows in batches:
        firsts = np.cumsum(dfs) - dfs
        values = rows.astype(np.int64)
        values[1:, 0] -= rows[:-1, 0]
        values[firsts, 0] = rows[firsts, 0]  # gaps reset at each term's first posting
        flat = values.reshape(-1)
        payload = encode_varints(flat)
        nbytes = np.add.reduceat(varint_widths(flat), 2 * firsts)
        yield [terms[r] for r in ranks.tolist()], dfs, np.add.reduceat(values[:, 1], firsts), nbytes, payload


def _write_run(path, batches, ids) -> None:
    """Write (ranks, dfs, rows) batches as a run, a rank r as the term
    id ids[r]; the term table is kept in memory until the rows are written."""
    table = []
    nrows = 0
    with open(path, "wb") as fh:
        fh.seek(_RUN_HEADER.size)
        for ranks, dfs, rows in batches:
            table.append(np.column_stack([ids[ranks], dfs]).astype(np.int32))
            fh.write(rows)
            nrows += len(rows)
        for part in table:
            fh.write(part)
        fh.seek(0)
        fh.write(_RUN_HEADER.pack(sum(map(len, table)), nrows))


def _merge_runs(paths, most: int, limit: int, rank, ids) -> list[str]:
    """Merge consecutive runs until at most `most` are left, which keeps
    document order; merged inputs are removed.

    Beyond _MAX_FAN_IN runs, a pass merges only the fewest leading runs, in
    groups of at most _MAX_FAN_IN, that leave _MAX_FAN_IN, so the runs after
    them are not rewritten before the last merge.
    """
    while len(paths) > most:
        target = _MAX_FAN_IN if len(paths) > _MAX_FAN_IN else most
        merged, rest = [], paths
        while len(rest) > 1 and len(merged) + len(rest) > target:
            size = min(_MAX_FAN_IN, len(merged) + len(rest) - target + 1)
            group, rest = rest[:size], rest[size:]
            merged.append(group[0] + ".merged")
            with ExitStack() as stack:
                _write_run(merged[-1], _batches([stack.enter_context(_Run(p, rank)) for p in group], limit), ids)
            for p in group:
                os.unlink(p)
        paths = merged + rest
    return paths


class _Builder:
    """Accumulates tokens as a column and writes them out as sorted runs.

    Each document appends one int32 term id per token to a column and its
    end to a second. The ids number one term map that lives for the whole
    build, so a run holds ids. A flush (a spill each time the budget is
    passed, and one last flush before the merge) sorts the column into one
    run in `spill_dir`, and only runs are merged. `seen` holds the docids:
    the builder's own set, or the one the documents' parser fills.
    """

    def __init__(self, cfg: AnalyzerConfig, budget_bytes: int, spill_dir: str, seen=None):
        self.cfg = cfg
        self.budget = budget_bytes
        self.spill_dir = spill_dir
        self.docids: list[str] = []
        self.lengths = array("q")
        self.text_bytes = 0
        self.seen: set[str] = set() if seen is None else seen
        self.run_paths: list[str] = []
        self.term_ids = _TermIds()
        self.sorted_terms: list[str] = []  # the term map's terms as of the last _order
        self.below_fixed = False  # warned that the fixed share exceeds the budget
        # postings per merge batch: a quarter of the budget holds its temporaries
        self.batch = min(_MAX_BATCH, max(_MIN_BATCH, budget_bytes // 4 // _BATCH_COST))
        self._reset()

    def _reset(self) -> None:
        self.tids = array("i")
        self.ends = array("q")
        self.first_doc = len(self.docids)

    def fixed_bytes(self) -> int:
        """The share of the budget no spill frees: the analyzer memo, the
        term map and its sorted terms, and the temporaries of one merge
        batch (or of one slice, which fits the same share)."""
        terms = self.term_ids.nbytes() + sys.getsizeof(self.sorted_terms)
        return memo_bytes(self.cfg) + terms + self.batch * _BATCH_COST

    def nbytes(self) -> int:
        """What the budget counts: the columns as allocated and the fixed share."""
        return sys.getsizeof(self.tids) + sys.getsizeof(self.ends) + self.fixed_bytes()

    def add_all(self, docs) -> None:
        for doc in docs:
            self.add(doc)
        if not self.docids:
            raise EmptyCollectionError("empty collection: average document length undefined")

    def add(self, doc: RawDocument) -> None:
        self.seen.add(doc.docid)  # a shared set holds it already, as the parser added it
        if len(self.seen) <= len(self.docids):
            raise CorpusError("duplicate docid", docid=doc.docid)
        self.docids.append(doc.docid)
        self.text_bytes += len(doc.text.encode("utf-8"))
        terms = analyze(doc.text, self.cfg)
        self.lengths.append(len(terms))
        self.tids += array("i", list(map(self.term_ids.__getitem__, terms)))
        self.ends.append(len(self.tids))
        if self.nbytes() > self.budget:
            self._spill()

    def _order(self):
        """The term map's terms, sorted; the id of each; the rank of each id.
        Only terms numbered since the last call are sorted, then merged in."""
        terms = self.sorted_terms
        terms += sorted(islice(self.term_ids, len(terms), None))
        terms.sort()
        ids = np.fromiter(map(self.term_ids.__getitem__, terms), np.int32, len(terms))
        rank = np.empty(len(ids), dtype=np.int32)
        rank[ids] = np.arange(len(ids), dtype=np.int32)
        return terms, ids, rank

    def _flush(self, ids, rank) -> None:
        """Sort the tokens since the last flush into one run and start afresh.

        The column is cut into slices of whole documents, each about
        _SLICE_BATCHES merge batches of tokens; a longer document is a slice
        of its own. One np.unique of a slice's rank << 32 | document keys
        sorts its postings and counts each key's repeats as its tf. Each
        slice is written as a run, and the slices are merged into one.
        """
        column = np.frombuffer(self.tids, dtype=np.int32)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        stem = os.path.join(self.spill_dir, f"run{len(self.run_paths):05d}")
        size = _SLICE_BATCHES * self.batch
        slices = []
        a = d = 0  # the next slice's first token and first document
        while a < len(column):
            # the documents that end within `size` tokens, or else the first with tokens
            first, fit = np.searchsorted(ends, [a, a + size], side="right").tolist()
            e = max(fit, first + 1)
            b = int(ends[e - 1])
            keys = rank[column[a:b]].astype(np.int64)
            keys <<= 32
            keys |= np.repeat(np.arange(self.first_doc + d, self.first_doc + e), np.diff(ends[d:e], prepend=a))
            keys, tfs = np.unique(keys, return_counts=True)
            ranks, dfs = np.unique(keys >> 32, return_counts=True)
            rows = np.column_stack([keys & 0xFFFFFFFF, tfs]).astype(np.int32)
            del keys, tfs
            slices.append(f"{stem}.{len(slices):05d}.tmp")
            _write_run(slices[-1], [(ranks, dfs, rows)], ids)
            a, d = b, e
        del column, ends
        self._reset()
        self.run_paths += _merge_runs(slices, 1, self.batch, rank, ids)

    def _spill(self) -> None:
        if not self.tids:
            return
        fixed = self.fixed_bytes()
        if fixed > self.budget and not self.below_fixed:
            self.below_fixed = True
            log.warning(
                "memory budget of %d KiB is below its fixed share of %d KiB "
                "(the analyzer memo, the term map and one merge batch): every document spills",
                self.budget >> 10, -(-fixed >> 10),
            )
        log.info(
            "spilling %d tokens of %d documents (~%d MB) to run %d",
            len(self.tids), len(self.ends), self.nbytes() >> 20, len(self.run_paths),
        )
        _, ids, rank = self._order()
        self._flush(ids, rank)

    def batches(self):
        """(terms, df, cf, nbytes, payload) per batch of whole terms, in term order.

        The term map is dropped first: the sorted terms and their ids say all
        it held. The last flush writes the tokens still in memory as a run,
        and the runs are merged in flush order; beyond _MAX_FAN_IN runs,
        leading groups are merged first (see _merge_runs).
        """
        terms, ids, rank = self._order()
        del self.term_ids
        self._flush(ids, rank)
        runs = _merge_runs(self.run_paths, _MAX_FAN_IN, self.batch, rank, ids)
        with ExitStack() as stack:
            sources = [stack.enter_context(_Run(p, rank)) for p in runs]
            yield from _encoded(_batches(sources, self.batch), terms)


def build_index(docs, cfg: AnalyzerConfig) -> Index:
    """An index over `docs`, built into a temporary directory and loaded;
    deterministic for a fixed input order."""
    with tempfile.TemporaryDirectory(prefix="girit-") as directory:
        build_index_to_dir(docs, cfg, directory)
        return Index.load(directory)


def build_index_to_dir(docs, cfg: AnalyzerConfig, directory, memory_budget_mb: int = 512, seen=None) -> CorpusStats:
    """Stream-build an index into `directory` under a memory budget.

    Returns the statistics of what was written, counted while building; the
    directory is not read back. The files are the same whatever the budget
    and however many spill runs it took. The runs live in a `.build.*`
    directory inside `directory` until the build ends. `seen` may be the set
    that `parse_corpus` fills as it yields `docs`, so the docids are held once.
    """
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build.", dir=directory) as spill_dir:
        builder = _Builder(cfg, budget_bytes=memory_budget_mb << 20, spill_dir=spill_dir, seen=seen)
        builder.add_all(docs)
        vocabulary = _write_index(directory, cfg, builder.docids, builder.lengths, builder.batches())
    return CorpusStats(
        num_documents=len(builder.docids),
        vocabulary_size=vocabulary,
        num_tokens=sum(builder.lengths),
        total_bytes=builder.text_bytes,
    )
