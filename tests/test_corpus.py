import gzip
import io
import logging
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girit.corpus as corpus_mod
from girit.corpus import (
    CorpusStats,
    RawDocument,
    corpus_stats,
    parse_corpus,
    serialize_document,
    write_corpus,
)
from girit.errors import CorpusError


def parse_all(text, **kw):
    return list(parse_corpus(io.BytesIO(text.encode("utf-8")), **kw))


class TestParse:
    def test_single_document(self):
        docs = parse_all("<DOC><DOCNO>d1</DOCNO><TEXT>hello</TEXT></DOC>")
        assert docs == [RawDocument(docid="d1", text="hello")]

    def test_empty_text(self):
        docs = parse_all("<DOC><DOCNO>d1</DOCNO><TEXT></TEXT></DOC>")
        assert docs == [RawDocument(docid="d1", text="")]

    def test_two_documents_with_whitespace(self):
        text = (
            "\n  <DOC>\n<DOCNO> d1 </DOCNO>\n<TEXT>one</TEXT>\n</DOC>\n\n"
            "<DOC><DOCNO>d2</DOCNO><TEXT>two</TEXT></DOC>  \n"
        )
        docs = parse_all(text)
        assert [d.docid for d in docs] == ["d1", "d2"]
        assert [d.text for d in docs] == ["one", "two"]

    def test_docno_is_trimmed_text_is_not(self):
        docs = parse_all("<DOC><DOCNO>  d1\n</DOCNO><TEXT>\n a \n</TEXT></DOC>")
        assert docs[0].docid == "d1"
        assert docs[0].text == "\n a \n"

    def test_tags_case_insensitive(self):
        docs = parse_all("<doc><docno>d1</docno><text>hi</text></doc>")
        assert docs == [RawDocument(docid="d1", text="hi")]

    def test_tags_with_inner_whitespace(self):
        docs = parse_all("< DOC >< DOCNO >d1</ DOCNO >< TEXT >hi</ TEXT ></ DOC >")
        assert docs == [RawDocument(docid="d1", text="hi")]

    def test_unknown_tags_skipped(self):
        docs = parse_all(
            "<DOC><DATE>2010-01-01</DATE><DOCNO>d1</DOCNO><TEXT>a <p> b</TEXT></DOC>"
        )
        assert docs[0].text == "a  b"

    def test_literal_angle_brackets_kept(self):
        docs = parse_all("<DOC><DOCNO>d1</DOCNO><TEXT>2 < 3 and 4 > 1</TEXT></DOC>")
        assert docs[0].text == "2 < 3 and 4 > 1"

    def test_content_between_regions_ignored(self):
        docs = parse_all("<DOC>junk<DOCNO>d1</DOCNO>more junk<TEXT>t</TEXT>tail</DOC>")
        assert docs == [RawDocument(docid="d1", text="t")]

    def test_content_outside_documents_ignored(self):
        docs = parse_all("preamble<DOC><DOCNO>d1</DOCNO><TEXT>t</TEXT></DOC>trailer")
        assert len(docs) == 1

    def test_small_chunks_do_not_change_results(self, monkeypatch):
        text = (
            "<DOC><DOCNO>daybreak-01</DOCNO><TEXT>some longer text body × unicode</TEXT></DOC>"
            "<DOC><DOCNO>d2</DOCNO><TEXT>two</TEXT></DOC>"
        )
        expected = parse_all(text)
        monkeypatch.setattr(corpus_mod, "_CHUNK", 3)
        assert parse_all(text) == expected


class TestParseErrors:
    def test_missing_docno(self):
        with pytest.raises(CorpusError, match="missing <DOCNO>"):
            parse_all("<DOC><TEXT>t</TEXT></DOC>")

    def test_empty_docno(self):
        with pytest.raises(CorpusError, match="empty <DOCNO>"):
            parse_all("<DOC><DOCNO>  </DOCNO><TEXT>t</TEXT></DOC>")

    def test_duplicate_docid(self):
        text = "<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT></DOC>" * 2
        with pytest.raises(CorpusError, match="duplicate docid"):
            parse_all(text)

    def test_nested_doc(self):
        with pytest.raises(CorpusError, match="nested <DOC>"):
            parse_all("<DOC><DOC><DOCNO>d1</DOCNO></DOC>")

    def test_unclosed_doc(self):
        with pytest.raises(CorpusError, match="unclosed <DOC>"):
            parse_all("<DOC><DOCNO>d1</DOCNO><TEXT>t</TEXT>")

    def test_unclosed_docno(self):
        with pytest.raises(CorpusError, match="unclosed <DOCNO>"):
            parse_all("<DOC><DOCNO>d1<TEXT>t</TEXT></DOC>")

    def test_multiple_text_regions(self):
        with pytest.raises(CorpusError, match="multiple <TEXT>"):
            parse_all("<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT><TEXT>b</TEXT></DOC>")

    def test_stray_closer(self):
        with pytest.raises(CorpusError, match="stray </TEXT>"):
            parse_all("<DOC><DOCNO>d1</DOCNO></TEXT></DOC>")

    def test_utf8_failure_reports_byte_offset(self):
        payload = b"<DOC><DOCNO>d1</DOCNO><TEXT>ab\xffcd</TEXT></DOC>"
        with pytest.raises(CorpusError) as exc_info:
            list(parse_corpus(io.BytesIO(payload)))
        assert exc_info.value.offset == payload.index(b"\xff")

    def test_utf8_failure_offset_beyond_first_chunk(self, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_CHUNK", 8)
        payload = b"<DOC><DOCNO>d1</DOCNO><TEXT>" + b"x" * 50 + b"\xff" + b"</TEXT></DOC>"
        with pytest.raises(CorpusError) as exc_info:
            list(parse_corpus(io.BytesIO(payload)))
        assert exc_info.value.offset == payload.index(b"\xff")

    @pytest.mark.parametrize("chunk", range(1, 9))
    @pytest.mark.parametrize(
        "tail",
        [b"\xff</TEXT></DOC>", b"\xe0\xaax</TEXT></DOC>", b"</TEXT></DOC>\xe0\xaa"],
        ids=["bad-byte", "sequence-broken-after-a-cut", "sequence-cut-at-eof"],
    )
    def test_utf8_failure_offset_at_any_chunk_size(self, monkeypatch, chunk, tail):
        """The offset and the reason are those of decoding the whole input at
        once, wherever the chunks cut a multi-byte sequence."""
        monkeypatch.setattr(corpus_mod, "_CHUNK", chunk)
        payload = "<DOC><DOCNO>d1</DOCNO><TEXT>ગુજરાતી ×".encode("utf-8") + tail
        with pytest.raises(UnicodeDecodeError) as whole:
            payload.decode("utf-8")
        with pytest.raises(CorpusError) as exc_info:
            list(parse_corpus(io.BytesIO(payload)))
        assert exc_info.value.offset == whole.value.start
        assert str(exc_info.value) == f"UTF-8 decode failure: {whole.value.reason} | byte offset {whole.value.start}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<DOC><DOCNO>a</DOCNO></DOC><DOC><TEXT>x</TEXT></DOC>", "<DOC> #2: missing <DOCNO>"),
            ("<DOC><DOCNO>a</DOCNO><TEXT>x<DOC></TEXT></DOC>", "<DOC> #1: nested <DOC>"),
            ("<DOC><DOCNO>a</DOCNO></DOC><DOC><DOCNO>b</DOCNO></DOC><DOC><DOCNO>c</DOCNO>",
             "<DOC> #3: unclosed <DOC> at end"),
        ],
        ids=["missing-docno", "nested", "unclosed-at-end"],
    )
    def test_error_names_the_position_of_its_doc(self, text, message):
        with pytest.raises(CorpusError, match=message):
            parse_all(text)


class TestLenient:
    def test_skips_bad_documents_and_logs(self, caplog):
        text = (
            "<DOC><DOCNO>good1</DOCNO><TEXT>a</TEXT></DOC>"
            "<DOC><TEXT>no docno</TEXT></DOC>"
            "<DOC><DOCNO>good1</DOCNO><TEXT>duplicate</TEXT></DOC>"
            "<DOC><DOCNO>good2</DOCNO><TEXT>b</TEXT></DOC>"
        )
        with caplog.at_level(logging.WARNING, logger="girit.corpus"):
            docs = parse_all(text, lenient=True)
        assert [d.docid for d in docs] == ["good1", "good2"]
        assert sum("skipping malformed document" in r.message for r in caplog.records) == 2

    def test_strict_is_default(self):
        with pytest.raises(CorpusError):
            parse_all("<DOC><TEXT>no docno</TEXT></DOC>")


class TestGzip:
    def test_gzip_detected_by_magic_bytes(self, tmp_path):
        text = "<DOC><DOCNO>d1</DOCNO><TEXT>zipped</TEXT></DOC>"
        path = tmp_path / "corpus.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8")))
        docs = list(parse_corpus(path))
        assert docs == [RawDocument(docid="d1", text="zipped")]

    def test_gzip_detected_on_a_stream_that_yields_one_byte_per_read(self):
        """Like a pipe whose writer sends one byte at a time: the buffered
        reader that `reading` opens still hands over the whole magic."""

        class OneByteAtATime(io.RawIOBase):
            def __init__(self, data):
                self._data = data

            def readable(self):
                return True

            def readinto(self, buf):
                if not self._data:
                    return 0
                buf[0], self._data = self._data[0], self._data[1:]
                return 1

        text = "<DOC><DOCNO>d1</DOCNO><TEXT>zipped ગુજરાતી</TEXT></DOC>"
        stream = io.BufferedReader(OneByteAtATime(gzip.compress(text.encode("utf-8"))))
        assert list(parse_corpus(stream)) == [RawDocument(docid="d1", text="zipped ગુજરાતી")]

    def test_plain_file_path(self, tmp_path):
        path = tmp_path / "corpus.trec"
        path.write_text("<DOC><DOCNO>d1</DOCNO><TEXT>plain</TEXT></DOC>", encoding="utf-8")
        assert list(parse_corpus(path))[0].text == "plain"


docid_strategy = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)
text_strategy = st.text(
    alphabet=st.characters(blacklist_characters="<", blacklist_categories=("Cs",)),
    max_size=80,
)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(st.lists(st.tuples(docid_strategy, text_strategy), max_size=6, unique_by=lambda t: t[0]))
    def test_serialize_then_parse_is_identity(self, records):
        docs = [RawDocument(docid=d, text=t) for d, t in records]
        blob = "".join(serialize_document(doc) for doc in docs)
        assert parse_all(blob) == docs

    def test_write_corpus_file(self, tmp_path):
        docs = [RawDocument("d1", "one"), RawDocument("d2", "two")]
        path = tmp_path / "c.trec"
        assert write_corpus(docs, path) == 2
        assert list(parse_corpus(path)) == docs

    @settings(max_examples=80)
    @given(st.lists(st.tuples(docid_strategy, text_strategy), max_size=6, unique_by=lambda t: t[0]))
    def test_yield_count_equals_doc_openings(self, records):
        docs = [RawDocument(docid=d, text=t) for d, t in records]
        blob = "".join(serialize_document(doc) for doc in docs)
        openings = len(re.findall(r"<\s*DOC\s*>", blob, flags=re.IGNORECASE))
        parsed = parse_all(blob)
        assert len(parsed) == openings
        assert len({d.docid for d in parsed}) == len(parsed)


class TestStats:
    def test_hand_countable(self, cfg):
        docs = [RawDocument("d1", "a b"), RawDocument("d2", "b c")]
        stats = corpus_stats(docs, cfg)
        assert stats == CorpusStats(
            num_documents=2, vocabulary_size=3, num_tokens=4, total_bytes=6
        )

    def test_empty_corpus(self, cfg):
        assert corpus_stats([], cfg) == CorpusStats(0, 0, 0, 0)

    def test_vocabulary_never_exceeds_tokens(self, cfg):
        docs = [RawDocument("d1", "x y x z"), RawDocument("d2", "x")]
        stats = corpus_stats(docs, cfg)
        assert stats.vocabulary_size <= stats.num_tokens

    def test_text_and_csv_emission(self, cfg):
        stats = corpus_stats([RawDocument("d1", "a b")], cfg)
        assert "num_documents: 1" in stats.as_text()
        assert stats.as_csv().splitlines()[1] == "1,2,2,3"


@pytest.mark.slow
def test_streaming_memory_is_bounded_by_document_size(tmp_path):
    """Peak allocation while parsing a ~100 MB corpus stays under a fixed cap."""
    path = tmp_path / "big.trec"
    body = "word " * 600  # ~3 KB per document
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(33000):
            fh.write(f"<DOC><DOCNO>d{i}</DOCNO><TEXT>{body}</TEXT></DOC>\n")
    corpus_bytes = path.stat().st_size
    assert corpus_bytes > 98_000_000

    tracemalloc.start()
    count = 0
    for _doc in parse_corpus(path):
        count += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 33000
    # docid bookkeeping aside, memory tracks one document + one read chunk
    assert peak < corpus_bytes / 8
    assert peak < 12_000_000
