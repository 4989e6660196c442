import json
import logging
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import girit.analysis
import girit.index
from girit.analysis import AnalyzerConfig, analyze
from girit.cli import main
from girit.corpus import RawDocument, corpus_stats, parse_corpus, write_corpus
from girit.errors import CorpusError, EmptyCollectionError, IndexStoreError
from girit.index import (
    DOCTABLE_FILE,
    HEADER_FILE,
    LEXICON_FILE,
    POSTINGS_FILE,
    DocTable,
    Index,
    build_index,
    build_index_to_dir,
    encode_varints,
)
from girit.retrieval import Topic, write_topics
from girit.synth import synth_corpus
from girit.util import CHECKSUM_BYTES, checksum64, read_checksummed, write_checksummed


TWO_DOCS = [RawDocument("d1", "a b"), RawDocument("d2", "a")]


class TestBuild:
    def test_hand_countable_statistics(self, cfg):
        index = build_index(TWO_DOCS, cfg)
        a = index.lookup("a")
        b = index.lookup("b")
        assert (a.df, a.cf) == (2, 2)
        assert (b.df, b.cf) == (1, 1)
        assert index.stats.num_docs == 2
        assert index.stats.total_tokens == 3
        assert index.stats.avgdl == pytest.approx(1.5)
        assert index.stats.vocabulary_size == 2

    def test_empty_corpus_rejected(self, cfg):
        with pytest.raises(EmptyCollectionError, match="empty collection"):
            build_index([], cfg)

    def test_duplicate_docid_rejected(self, cfg):
        with pytest.raises(CorpusError, match="duplicate docid"):
            build_index([RawDocument("d1", "a"), RawDocument("d1", "b")], cfg)

    def test_a_term_repeated_past_65536_times_in_one_document_keeps_its_tf(self, cfg, tmp_path):
        docs = [
            RawDocument("d1", "b"),
            RawDocument("d2", "aa " * 70_000 + "b"),
            RawDocument("d3", "b aa"),
        ]
        index = build_index(docs, cfg)
        aa = index.lookup("aa")
        assert aa.pairs() == [(1, 70_000), (2, 1)]
        assert (aa.df, aa.cf) == (2, 70_001)
        index.persist(tmp_path / "mem")
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        assert _dir_bytes(tmp_path / "mem") == _dir_bytes(tmp_path / "spill")

    def test_lookup_unknown_term_is_absent(self, cfg):
        index = build_index(TWO_DOCS, cfg)
        assert index.lookup("zzz") is None
        assert "zzz" not in index

    def test_internal_ids_dense_in_ingestion_order(self, cfg):
        index = build_index(TWO_DOCS, cfg)
        assert index.doc_table.docids == ["d1", "d2"]
        assert index.doc_table.internal_id("d2") == 1

    def test_empty_text_document_kept_with_zero_length(self, cfg):
        index = build_index([RawDocument("d1", ""), RawDocument("d2", "a")], cfg)
        assert index.stats.num_docs == 2
        assert index.doc_table.lengths.tolist() == [0, 1]

    def test_stopwords_respected(self):
        cfg = AnalyzerConfig(stopword_list=frozenset({"a"}))
        index = build_index(TWO_DOCS, cfg)
        assert index.lookup("a") is None
        assert index.stats.total_tokens == 1


class TestHoldingView:
    def test_view_hands_back_the_lists_it_decoded(self, cfg, monkeypatch):
        index = build_index(TWO_DOCS, cfg)
        view = index.holding(["a", "zzz"])
        decoded = []
        decode = girit.index.decode_varints
        monkeypatch.setattr(girit.index, "decode_varints", lambda *a: decoded.append(a[1]) or decode(*a))
        assert view.lookup("a") is view.lookup("a")
        assert view.lookup("a") == index.lookup("a")
        assert view.lookup("zzz") is None
        # only the lookup on the index itself decoded; "b" is not held
        assert len(decoded) == 1
        assert view.lookup("b") == index.lookup("b")
        assert len(decoded) == 3

    def test_index_is_left_as_it_was(self, cfg):
        index = build_index(TWO_DOCS, cfg)
        view = index.holding(["a", "b"])
        assert index.lookup("a") is not index.lookup("a")
        assert view.doc_table is index.doc_table and view.stats is index.stats
        assert view.fingerprint == index.fingerprint


class TestCheckedPostingBlocks:
    """Values no build writes, in a block of well-formed varints, are a data
    error naming the term and the block (tests/test_cli.py re-seals the
    cases a build could almost write into a real index)."""

    @pytest.mark.parametrize(
        "values, fault",
        [
            ([0, 1, 2**63 - 1, 1, 2**63 - 1, 1, 3, 1], "internal ids run past the last document, 4"),
            ([0, 2**31], "a tf of 2147483648 is more than any build writes"),
        ],
        ids=["gaps-whose-sum-overflows", "tf-of-2^31"],
    )
    def test_a_value_no_build_writes_is_named(self, cfg, values, fault):
        payload = encode_varints(values)
        table = np.array([[len(values) // 2, 0, 0, len(payload)]], dtype=np.int64)
        index = Index(cfg, DocTable([f"d{i}" for i in range(5)], [1] * 5), ["t"], table, payload)
        with pytest.raises(IndexStoreError) as raised:
            index.lookup("t")
        assert str(raised.value) == f"{POSTINGS_FILE}: posting block of term 't' at byte offset 0: {fault}"

    def test_tfs_that_do_not_sum_to_the_lexicon_cf_are_named(self, cfg):
        payload = encode_varints([0, 2, 3, 1])
        table = np.array([[2, 4, 0, len(payload)]], dtype=np.int64)
        index = Index(cfg, DocTable([f"d{i}" for i in range(5)], [3] * 5), ["t"], table, payload)
        with pytest.raises(IndexStoreError) as raised:
            index.lookup("t")
        assert str(raised.value) == (
            f"{POSTINGS_FILE}: posting block of term 't' at byte offset 0: its tfs sum to 3, not to the lexicon's cf of 4"
        )


class TestRecountOracle:
    """Every statistic in the index equals a brute-force recount over the
    analyzed token streams."""

    def recount(self, docs, cfg):
        df: Counter = Counter()
        cf: Counter = Counter()
        postings: dict[str, list[tuple[int, int]]] = {}
        total = 0
        for iid, doc in enumerate(docs):
            counts = Counter(analyze(doc.text, cfg))
            total += sum(counts.values())
            for term, tf in counts.items():
                df[term] += 1
                cf[term] += tf
                postings.setdefault(term, []).append((iid, tf))
        return df, cf, postings, total

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_against_generated_corpora(self, cfg, seed):
        rng = random.Random(seed)
        docs = synth_corpus(rng, 1000, vocab_size=120)
        index = build_index(docs, cfg)
        df, cf, postings, total = self.recount(docs, cfg)
        assert index.stats.total_tokens == total
        assert index.stats.vocabulary_size == len(df)
        assert set(index.terms()) == set(df)
        for term in df:
            posting = index.lookup(term)
            assert posting.df == df[term]
            assert posting.cf == cf[term]
            assert posting.pairs() == postings[term]

    def test_global_invariants(self, cfg, rng):
        docs = synth_corpus(rng, 300, vocab_size=80)
        index = build_index(docs, cfg)
        n = index.stats.num_docs
        total_cf = 0
        for term in index.terms():
            posting = index.lookup(term)
            assert 1 <= posting.df <= n
            assert posting.df <= posting.cf
            assert np.all(np.diff(posting.ids) > 0)  # sorted, no duplicates
            assert np.all(posting.tfs >= 1)
            total_cf += posting.cf
        assert total_cf == index.stats.total_tokens
        assert int(index.doc_table.lengths.sum()) == index.stats.total_tokens


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


class TestPersistence:
    def test_round_trip_small(self, cfg, tmp_path):
        index = build_index(TWO_DOCS, cfg)
        index.persist(tmp_path / "idx")
        loaded = Index.load(tmp_path / "idx")
        assert loaded.stats == index.stats
        assert loaded.fingerprint == index.fingerprint
        assert loaded.doc_table.docids == index.doc_table.docids
        assert loaded.lookup("a") == index.lookup("a")
        assert loaded.lookup("zzz") is None

    def test_double_round_trip_is_byte_identical(self, cfg, rng, tmp_path):
        docs = synth_corpus(rng, 1000, vocab_size=150)
        index = build_index(docs, cfg)
        index.persist(tmp_path / "one")
        Index.load(tmp_path / "one").persist(tmp_path / "two")
        assert _dir_bytes(tmp_path / "one") == _dir_bytes(tmp_path / "two")

    def test_build_is_order_deterministic(self, cfg, tmp_path):
        docs = synth_corpus(random.Random(5), 200)
        build_index(docs, cfg).persist(tmp_path / "one")
        build_index(docs, cfg).persist(tmp_path / "two")
        assert _dir_bytes(tmp_path / "one") == _dir_bytes(tmp_path / "two")

    def test_spill_build_matches_in_memory_build(self, cfg, tmp_path):
        docs = synth_corpus(random.Random(9), 400, vocab_size=100)
        build_index(docs, cfg).persist(tmp_path / "mem")
        # zero budget forces a spill run per document; bytes must not change
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        mem_bytes = _dir_bytes(tmp_path / "mem")
        spill_bytes = _dir_bytes(tmp_path / "spill")
        assert mem_bytes == spill_bytes
        spilled = Index.load(tmp_path / "spill")
        assert spilled.lookup(next(iter(spilled.terms()))) is not None

    def test_many_spill_runs_merge_in_groups(self, cfg, tmp_path, monkeypatch):
        docs = synth_corpus(random.Random(9), 60, vocab_size=100)
        build_index(docs, cfg).persist(tmp_path / "mem")
        opened = []
        run = girit.index._Run

        def counted(path, *args):
            opened.append(path)
            return run(path, *args)

        monkeypatch.setattr(girit.index, "_MAX_FAN_IN", 4)
        monkeypatch.setattr(girit.index, "_Run", counted)
        # a spill run per document: 60 runs merge into 15, those into 4, then the final merge
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        assert _dir_bytes(tmp_path / "mem") == _dir_bytes(tmp_path / "spill")
        assert len(opened) == 60 + 15 + 4
        assert not list((tmp_path / "spill").rglob("*.tmp*"))

    def test_a_flush_of_more_slices_than_a_merge_reads_writes_the_bytes_of_a_budget_0_build(
        self, cfg, tmp_path, monkeypatch
    ):
        # short documents share a slice; "long" is longer than a slice, so it is one of its own
        docs = synth_corpus(random.Random(17), 120, vocab_size=50, doc_len=(2, 12))
        docs.insert(60, RawDocument("long", "zz " * 100 + docs[0].text))
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        slices = []
        write_run = girit.index._write_run

        def counted(path, *args):
            if path.endswith(".tmp"):  # a slice; a merged run's name ends in ".merged"
                slices.append(path)
            return write_run(path, *args)

        # 16-posting batches cut 32-token slices, merged 4 at a time
        monkeypatch.setattr(girit.index, "_MAX_BATCH", 16)
        monkeypatch.setattr(girit.index, "_MAX_FAN_IN", 4)
        monkeypatch.setattr(girit.index, "_write_run", counted)
        build_index_to_dir(docs, cfg, tmp_path / "one-flush")
        assert len(slices) > 4 * 4
        assert _dir_bytes(tmp_path / "spill") == _dir_bytes(tmp_path / "one-flush")
        zz = Index.load(tmp_path / "one-flush").lookup("zz")
        assert zz.pairs() == [(60, 100)]

    def test_a_flush_of_more_slices_than_a_merge_reads_rewrites_only_the_leading_ones_first(
        self, cfg, tmp_path, monkeypatch
    ):
        # ten 32-token documents, one per 32-token slice, merged 4 at a time
        docs = [RawDocument(f"d{i}", " ".join(f"t{(i * 7 + j) % 45}" for j in range(32))) for i in range(10)]
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        slices, merged = [], []
        write_run = girit.index._write_run

        def counted(path, batches, ids):
            rows = slices if path.endswith(".tmp") else merged
            rows.append(0)

            def counting():
                for batch in batches:
                    rows[-1] += len(batch[2])
                    yield batch

            return write_run(path, counting(), ids)

        monkeypatch.setattr(girit.index, "_MAX_BATCH", 16)
        monkeypatch.setattr(girit.index, "_MAX_FAN_IN", 4)
        monkeypatch.setattr(girit.index, "_write_run", counted)
        build_index_to_dir(docs, cfg, tmp_path / "one-flush")
        assert len(slices) == 10
        # the first 8 slices merge into 2 runs, which leaves 4 for the last
        # merge; two passes over all 10 would write 2 * sum(slices) rows
        assert merged == [sum(slices[:4]), sum(slices[4:8]), sum(slices)]
        assert _dir_bytes(tmp_path / "spill") == _dir_bytes(tmp_path / "one-flush")

    def test_each_term_is_numbered_once_however_often_the_build_spills(self, cfg, tmp_path, monkeypatch):
        docs = synth_corpus(random.Random(9), 60, vocab_size=100)
        numbered = []
        missing = girit.index._TermIds.__missing__

        def counted(term_ids, term):
            numbered.append(term)
            return missing(term_ids, term)

        monkeypatch.setattr(girit.index._TermIds, "__missing__", counted)
        # zero budget: a spill run per document
        build_index_to_dir(docs, cfg, tmp_path / "spill", memory_budget_mb=0)
        assert sorted(numbered) == sorted(Index.load(tmp_path / "spill").terms())

    def test_a_seen_set_shared_with_the_parser_gives_no_false_duplicate(self, cfg, tmp_path):
        docs = synth_corpus(random.Random(11), 120, vocab_size=200)
        paths = [tmp_path / "one.trec", tmp_path / "two.trec"]
        write_corpus(docs[:70], paths[0])
        write_corpus(docs[70:], paths[1])
        seen: set[str] = set()
        parsed = (doc for path in paths for doc in parse_corpus(path, seen=seen))
        stats = build_index_to_dir(parsed, cfg, tmp_path / "idx", memory_budget_mb=0, seen=seen)
        assert stats.num_documents == 120
        assert seen == {d.docid for d in docs}
        build_index(docs, cfg).persist(tmp_path / "mem")
        assert _dir_bytes(tmp_path / "mem") == _dir_bytes(tmp_path / "idx")

    def test_a_seen_set_the_parser_did_not_fill_still_catches_a_duplicate(self, cfg, tmp_path):
        seen: set[str] = set()
        with pytest.raises(CorpusError, match="duplicate docid"):
            build_index_to_dir([RawDocument("d1", "a"), RawDocument("d1", "b")], cfg, tmp_path / "idx", seen=seen)

    @pytest.mark.parametrize("budget", [{"memory_budget_mb": 0}, {}], ids=["budget-0", "default-budget"])
    def test_build_to_dir_returns_the_stats_of_what_it_wrote(self, cfg, tmp_path, budget):
        docs = synth_corpus(random.Random(13), 150, vocab_size=200)
        stats = build_index_to_dir(docs, cfg, tmp_path / "idx", **budget)
        assert stats == corpus_stats(docs, cfg)
        # the spill directory is gone once the build is done
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == sorted(
            [DOCTABLE_FILE, HEADER_FILE, LEXICON_FILE, POSTINGS_FILE]
        )

    def test_analyzer_config_round_trips(self, tmp_path):
        cfg = AnalyzerConfig(
            lowercase_latin=False,
            unicode_normalization="NFKC",
            stopword_list=frozenset({"x", "y"}),
            min_token_length=2,
        )
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        loaded = Index.load(tmp_path / "idx")
        assert loaded.cfg == cfg

    @pytest.mark.parametrize("victim", [HEADER_FILE, DOCTABLE_FILE, LEXICON_FILE, POSTINGS_FILE])
    def test_single_byte_corruption_detected(self, cfg, rng, tmp_path, victim):
        docs = synth_corpus(rng, 50)
        build_index(docs, cfg).persist(tmp_path / "idx")
        target = tmp_path / "idx" / victim
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(IndexStoreError):
            Index.load(tmp_path / "idx")

    def test_truncation_detected(self, cfg, tmp_path):
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        target = tmp_path / "idx" / POSTINGS_FILE
        target.write_bytes(target.read_bytes()[:-3])
        with pytest.raises(IndexStoreError):
            Index.load(tmp_path / "idx")

    @pytest.mark.parametrize("size", [0, 1, CHECKSUM_BYTES - 1])
    def test_file_shorter_than_a_checksum_is_truncated(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes(bytes(size))
        with pytest.raises(IndexStoreError, match=r"short\.bin: truncated \(no checksum\)"):
            read_checksummed(path)

    def test_checksummed_read_holds_the_file_once(self, tmp_path):
        path = tmp_path / "big.bin"
        payload = random.Random(3).randbytes(1 << 20)
        write_checksummed(path, payload)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            got = read_checksummed(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == payload
        assert peak < size + (64 << 10)

    def test_version_mismatch_rejected(self, cfg, tmp_path):
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        header_path = tmp_path / "idx" / HEADER_FILE
        payload = header_path.read_bytes()[:-8]
        tampered = payload.replace(b'"version": 1', b'"version": 99')
        header_path.write_bytes(tampered + checksum64(tampered))
        with pytest.raises(IndexStoreError, match="unsupported format version"):
            Index.load(tmp_path / "idx")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(IndexStoreError, match="not an index directory"):
            Index.load(tmp_path / "nowhere")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda h: h.pop("num_documents"), "key 'num_documents' is missing or not of type int"),
            (lambda h: h.pop("total_tokens"), "key 'total_tokens' is missing or not of type int"),
            (lambda h: h.pop("vocabulary_size"), "key 'vocabulary_size' is missing or not of type int"),
            (lambda h: h.pop("analyzer"), "key 'analyzer' is missing or not of type dict"),
            (lambda h: h["analyzer"].pop("stopwords"), "key 'analyzer.stopwords' is missing or not of type list"),
            (lambda h: h["analyzer"].pop("min_token_length"), "key 'analyzer.min_token_length' is missing or not of type int"),
            (lambda h: h.update(num_documents="2"), "key 'num_documents' is missing or not of type int"),
            (lambda h: h.update(total_tokens=True), "key 'total_tokens' is missing or not of type int"),
            (lambda h: h.update(analyzer=[]), "key 'analyzer' is missing or not of type dict"),
            (lambda h: h["analyzer"].update(lowercase_latin=1), "key 'analyzer.lowercase_latin' is missing or not of type bool"),
            (lambda h: h["analyzer"].update(unicode_normalization=None), "key 'analyzer.unicode_normalization' is missing or not of type str"),
            (lambda h: h["analyzer"].update(stopwords=[1]), "key 'analyzer.stopwords' must hold strings"),
            (
                lambda h: h["analyzer"].update(unicode_normalization="XYZ"),
                "key 'analyzer.unicode_normalization' must be one of NFC, NFD, NFKC, NFKD",
            ),
            (lambda h: h.pop("fingerprint"), "key 'fingerprint' is missing or not of type str"),
            (lambda h: h.update(fingerprint=7), "key 'fingerprint' is missing or not of type str"),
            # the settings change and the stored fingerprint does not
            (
                lambda h: h["analyzer"].update(lowercase_latin=False),
                "stored fingerprint '7b6de6e5361cdb0b' is not that of the analyzer settings it records "
                "('1a32fdd90151fc46')",
            ),
            (
                lambda h: h["analyzer"].update(stopwords=["a"]),
                "stored fingerprint '7b6de6e5361cdb0b' is not that of the analyzer settings it records "
                "('fec7c5144a34340d')",
            ),
        ],
        ids=[
            "no-num_documents", "no-total_tokens", "no-vocabulary_size", "no-analyzer", "no-stopwords",
            "no-min_token_length", "str-num_documents", "bool-total_tokens", "list-analyzer",
            "int-lowercase_latin", "null-unicode_normalization", "int-stopword", "unknown-unicode_normalization",
            "no-fingerprint", "int-fingerprint", "flipped-lowercase_latin", "added-stopword",
        ],
    )
    def test_header_key_missing_or_of_the_wrong_type_is_named(self, cfg, tmp_path, damage, message):
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        path = tmp_path / "idx" / HEADER_FILE
        header = json.loads(read_checksummed(path))
        damage(header)
        write_checksummed(path, json.dumps(header).encode("utf-8"))
        with pytest.raises(IndexStoreError) as exc_info:
            Index.load(tmp_path / "idx")
        assert str(exc_info.value) == f"{path}: {message}"
        with pytest.raises(IndexStoreError, match=re.escape(message)):
            girit.index.read_config(tmp_path / "idx")


    def test_header_that_is_not_an_object_is_unreadable(self, cfg, tmp_path):
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        write_checksummed(tmp_path / "idx" / HEADER_FILE, b"[]")
        with pytest.raises(IndexStoreError, match="unreadable header: not a JSON object"):
            Index.load(tmp_path / "idx")


class TestCrashSafety:
    def test_rebuild_removes_what_a_killed_build_left(self, cfg, tmp_path):
        """A killed build leaves its spill runs in `.build.*` and a temporary
        `.tmp.*` file; the next build into the directory removes both."""
        docs = synth_corpus(random.Random(1), 80)
        build_index_to_dir(docs, cfg, tmp_path / "clean")
        directory = tmp_path / "idx"
        build_index_to_dir(docs, cfg, directory)
        (directory / ".build.stale").mkdir()
        (directory / ".build.stale" / "run00000").write_bytes(b"\0" * 4096)
        (directory / ".tmp.0123456789ab.postings.bin").write_bytes(b"")
        build_index_to_dir(docs, cfg, directory, memory_budget_mb=0)
        assert not [f.name for f in directory.iterdir() if f.name.startswith(".")]
        for name in (HEADER_FILE, DOCTABLE_FILE, LEXICON_FILE, POSTINGS_FILE):
            assert (directory / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_interrupted_rebuild_does_not_load(self, cfg, tmp_path, monkeypatch):
        directory = tmp_path / "idx"
        build_index_to_dir(synth_corpus(random.Random(1), 80), cfg, directory)
        encode = girit.index.encode_varints
        calls = []

        def interrupted(values):
            # the doctable, then a batch's postings; the next call is mid-write
            calls.append(1)
            if len(calls) > 2:
                raise KeyboardInterrupt
            return encode(values)

        monkeypatch.setattr(girit.index, "encode_varints", interrupted)
        # same document count, different content; zero budget leaves spill runs to clean up
        with pytest.raises(KeyboardInterrupt):
            build_index_to_dir(synth_corpus(random.Random(2), 80), cfg, directory, memory_budget_mb=0)
        with pytest.raises(IndexStoreError, match="not an index directory"):
            Index.load(directory)
        assert not list(directory.rglob("*.tmp"))
        assert not list(directory.rglob(".tmp.*"))
        assert {f.name for f in directory.iterdir()} == {DOCTABLE_FILE, LEXICON_FILE, POSTINGS_FILE}


class TestBudget:
    def test_traced_peak_stays_within_the_budget(self, cfg, tmp_path, monkeypatch):
        """A build at 1 MiB peaks, as tracemalloc sees it, under the budget
        plus 256 KiB: the per-document state the budget does not count
        (docids, the seen set, lengths) and the doctable written at the end,
        for these 1500 documents. The build spills several runs."""
        monkeypatch.setattr(girit.analysis, "_MEMOS", {}, raising=False)
        docs = synth_corpus(random.Random(7), 1500, vocab_size=3000, doc_len=(100, 300))
        tracemalloc.start()
        try:
            build_index_to_dir(docs, cfg, tmp_path / "idx", memory_budget_mb=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1 << 20) + (256 << 10)

    def test_the_columns_cost_four_bytes_per_token_and_eight_per_document(self, cfg, tmp_path):
        """What the budget counts beyond its fixed share: one int32 term id
        per token and one int64 end per document, with the slack arrays
        leave when they grow. Most tokens here are distinct in their
        document, so a (term id, tf) row per distinct term would cost twice
        as much."""
        docs = [RawDocument(f"d{i}", " ".join(f"t{i}x{j % 190}" for j in range(200))) for i in range(300)]
        # a budget these documents never reach, so nothing spills
        builder = girit.index._Builder(cfg, budget_bytes=1 << 30, spill_dir=str(tmp_path))
        builder.add_all(docs)
        tokens = sum(builder.lengths)
        assert tokens == 60_000
        assert builder.nbytes() - builder.fixed_bytes() <= 1.125 * (4 * tokens + 8 * len(docs)) + 256

    @pytest.mark.parametrize("budget_mb", [0, 1])
    def test_a_budget_below_the_fixed_share_warns_once(self, cfg, tmp_path, caplog, monkeypatch, budget_mb):
        """At budget 0 the memo and one merge batch already exceed the budget,
        so every document spills: the build still completes and warns once,
        naming the budget and the fixed share. At 1 MiB nothing is said."""
        monkeypatch.setattr(girit.analysis, "_MEMOS", {}, raising=False)
        with caplog.at_level(logging.WARNING, logger="girit.index"):
            build_index_to_dir(synth_corpus(random.Random(3), 40), cfg, tmp_path / "idx", memory_budget_mb=budget_mb)
        messages = [r.getMessage() for r in caplog.records if r.name == "girit.index"]
        if budget_mb:
            assert messages == []
        else:
            assert len(messages) == 1
            assert re.fullmatch(
                r"memory budget of 0 KiB is below its fixed share of \d+ KiB "
                r"\(the analyzer memo, the term map and one merge batch\): every document spills",
                messages[0],
            )


def _reference_varint(data, pos):
    result = shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7


def _reference_records(payload: bytes, count: int) -> list[tuple[int, str, list[int]]]:
    """(start, string, numbers) per record: the scalar loop `Index.load` ran
    before it read in bulk, one call per varint."""
    records = []
    pos = 0
    while pos < len(payload):
        start = pos
        n, pos = _reference_varint(payload, pos)
        string = payload[pos : pos + n].decode("utf-8")
        pos += n
        numbers = []
        for _ in range(count):
            value, pos = _reference_varint(payload, pos)
            numbers.append(value)
        records.append((start, string, numbers))
    return records


def _write_dir(directory: Path, docs, lexicon) -> None:
    """An index directory holding exactly `docs` ((docid, length) pairs) and
    `lexicon` (term -> (df, cf, offset, nbytes)); postings.bin is empty, so
    only the tables are real."""
    girit.index._write_index(directory, AnalyzerConfig(), [d for d, _ in docs], [n for _, n in docs], [])
    terms = sorted(lexicon)
    numbers = np.array([lexicon[t] for t in terms], dtype=np.int64).reshape(-1, 4)
    write_checksummed(directory / LEXICON_FILE, bytes(girit.index._records(terms, numbers)))
    header = json.loads(read_checksummed(directory / HEADER_FILE))
    header["vocabulary_size"] = len(terms)
    write_checksummed(directory / HEADER_FILE, json.dumps(header, sort_keys=True).encode("utf-8"))


def _assert_loads_as_the_reference(directory: Path) -> None:
    index = Index.load(directory)
    doc_records = _reference_records(read_checksummed(directory / DOCTABLE_FILE), 1)
    lex_records = _reference_records(read_checksummed(directory / LEXICON_FILE), 4)
    assert index.doc_table.docids == [s for _, s, _ in doc_records]
    assert index.doc_table.lengths.tolist() == [n for _, _, (n,) in doc_records]
    assert list(index.terms()) == [s for _, s, _ in lex_records]
    assert index._table.tolist() == [n for _, _, n in lex_records]
    for _, term, (df, cf, _, _) in lex_records:
        assert index.term_stats(term) == (df, cf)


GUJARATI = "ગુજરાતીભાષા"
INT64_MAX = 2**63 - 1
# any text; Gujarati words, whose UTF-8 bytes hold no byte below 0x80 for
# more than 9 bytes; strings of 128 or more bytes, whose lengths take two
# varint bytes, with newlines in them
STRINGS = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from(GUJARATI), min_size=4, max_size=60),
    st.text(st.sampled_from("ab\n"), min_size=128, max_size=300),
)


class TestLoadMatchesTheScalarReference:
    @settings(max_examples=80, deadline=None)
    @given(
        docs=st.lists(st.tuples(STRINGS, st.integers(0, 2**40)), min_size=1, max_size=20, unique_by=lambda d: d[0]),
        lexicon=st.dictionaries(STRINGS, st.tuples(*[st.integers(0, INT64_MAX)] * 4), max_size=20),
    )
    @example(docs=[("a\nb", 3), ("c", 0)], lexicon={})
    @example(docs=[("d1", 1)], lexicon={GUJARATI: (1, 2, 2**40, 3), "b" * 200: (3, 4, INT64_MAX, 1)})
    # the walk's edges: an empty string; a Gujarati string, whose bytes hold
    # no terminator, followed by a 9-byte number; a one-record lexicon
    @example(docs=[("", 0), ("x", 1)], lexicon={"": (0, 0, 0, 0)})
    @example(docs=[(GUJARATI, INT64_MAX)], lexicon={GUJARATI: (INT64_MAX, 1, INT64_MAX, 2)})
    @example(docs=[("d1", 1)], lexicon={"t": (1, 1, 0, 2)})
    def test_tables(self, docs, lexicon):
        with tempfile.TemporaryDirectory() as tmp:
            _write_dir(Path(tmp), docs, lexicon)
            _assert_loads_as_the_reference(Path(tmp))

    def test_long_strings(self, cfg, tmp_path):
        docs = synth_corpus(random.Random(4), 200, vocab_size=300)
        docs.append(RawDocument("long\n" * 40, f"{'x' * 300} {GUJARATI * 40}"))
        build_index(docs, cfg).persist(tmp_path / "idx")
        _assert_loads_as_the_reference(tmp_path / "idx")

    def test_an_all_stopword_corpus_has_an_empty_lexicon(self, tmp_path):
        cfg = AnalyzerConfig(stopword_list=frozenset({"a", "b"}))
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        assert read_checksummed(tmp_path / "idx" / LEXICON_FILE) == b""
        loaded = Index.load(tmp_path / "idx")
        assert list(loaded.terms()) == []
        assert loaded.lookup("a") is None
        assert loaded.doc_table.lengths.tolist() == [0, 0]


def _record_starts(payload: bytes, count: int) -> list[int]:
    return [start for start, _, _ in _reference_records(payload, count)]


# each damage: (damaged payload, the message after the path), from a valid
# payload of records with `count` numbers
DAMAGES = {
    "truncated record": lambda p, count: (p[:-1], f"record at byte offset {_record_starts(p, count)[-1]} is truncated"),
    "trailing continuation byte": lambda p, count: (p + b"\x80", f"varint at byte offset {len(p)} has no terminator"),
    "bad UTF-8": lambda p, count: (
        p[:1] + b"\xff" + p[2:],
        "string at byte offset 1 is not UTF-8: invalid start byte at byte offset 1",
    ),
    "string past the end": lambda p, count: (
        p + b"\x05ab",
        f"record at byte offset {len(p)}: a string of 5 bytes runs past the end of the {len(p) + 3}-byte payload",
    ),
    "10-byte number": lambda p, count: (
        p + b"\x01x" + b"\x80" * 9 + b"\x01" + b"\x00" * (count - 1),
        f"varint at byte offset {len(p) + 2} is longer than 9 bytes",
    ),
    "10-byte length": lambda p, count: (
        p + b"\x80" * 9 + b"\x01" + b"x" + b"\x00" * count,
        f"varint at byte offset {len(p)} is longer than 9 bytes",
    ),
}


class TestMalformedRecords:
    """A record the format cannot hold, in a file whose checksum is valid,
    is a data error naming the file and a byte offset."""

    @pytest.mark.parametrize("damage", DAMAGES)
    @pytest.mark.parametrize("victim, count", [(DOCTABLE_FILE, 1), (LEXICON_FILE, 4)])
    def test_load_raises_and_the_cli_exits_2(self, cfg, tmp_path, capsys, victim, count, damage):
        build_index(TWO_DOCS, cfg).persist(tmp_path / "idx")
        path = tmp_path / "idx" / victim
        payload, detail = DAMAGES[damage](read_checksummed(path), count)
        write_checksummed(path, payload)
        with pytest.raises(IndexStoreError) as raised:
            Index.load(tmp_path / "idx")
        assert str(raised.value) == f"{path}: {detail}"

        write_topics([Topic("1", "a b")], tmp_path / "topics.txt")
        code = main([str(a) for a in (
            "run", "--index-dir", tmp_path / "idx", "--topics", tmp_path / "topics.txt",
            "--models", "BM25", "--output-dir", tmp_path / "runs",
        )])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {detail}\n"
