"""Named inputs: a str or Path is always a path, text goes through a stream,
and a format error from a path names that path. Outputs to a path are
written all or nothing."""

import io

import pytest

from girit.analysis import AnalyzerConfig, load_stopwords
from girit.errors import FormatError, QrelsError, ThesaurusError, TopicError
from girit.evaluation import parse_qrels, parse_run
from girit.expansion import load_thesaurus
from girit.retrieval import RankedList, Topic, parse_topics, write_run, write_topics
from girit.util import read_text, replacing

SAMPLES = {
    "topics": "<top>\n<num>1</num>\n<title>tv news</title>\n</top>\n",
    "qrels": "q1 0 d1 1\nq1 0 d2 0\n",
    "run": "q1 Q0 d1 1 2.500000 t\nq1 Q0 d2 2 1.000000 t\n",
    "thesaurus": "tv\ttelevision|telly\n",
    "stopwords": "the\nand\n",
}


def parse(kind, source):
    """The parsed value of one named input, in a form that compares by value."""
    if kind == "topics":
        return parse_topics(source)
    if kind == "qrels":
        return parse_qrels(source).judgments
    if kind == "run":
        return parse_run(source)
    if kind == "thesaurus":
        return load_thesaurus(source, AnalyzerConfig())
    return load_stopwords(source)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_str_path_under_a_directory_with_a_space(kind, tmp_path):
    path = tmp_path / "t dir" / f"{kind}.txt"
    path.parent.mkdir()
    path.write_text(SAMPLES[kind], encoding="utf-8")
    expected = parse(kind, io.StringIO(SAMPLES[kind]))
    assert expected
    assert parse(kind, str(path)) == expected
    assert parse(kind, path) == expected
    assert parse(kind, io.BytesIO(SAMPLES[kind].encode("utf-8"))) == expected


def test_short_text_in_a_stream_is_text_not_a_path():
    with pytest.raises(ThesaurusError, match="line 1: no TAB separator"):
        load_thesaurus(io.StringIO("tv"), AnalyzerConfig())


def test_a_str_is_never_parsed_as_text():
    with pytest.raises(FileNotFoundError):
        parse_qrels("q1 0 d1 1\n")


def test_caller_stream_is_left_open():
    stream = io.StringIO(SAMPLES["qrels"])
    parse_qrels(stream)
    assert not stream.closed


def test_format_error_from_a_path_names_the_path(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq1 0 d2\n", encoding="utf-8")
    with pytest.raises(QrelsError) as from_path:
        parse_qrels(path)
    assert str(from_path.value) == f"{path}: line 2: expected 4 fields, got 3"
    with pytest.raises(QrelsError) as from_stream:
        parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d2\n"))
    assert str(from_stream.value) == "line 2: expected 4 fields, got 3"


def test_topic_errors_carry_the_line_of_their_top(tmp_path):
    path = tmp_path / "topics.txt"
    path.write_text(SAMPLES["topics"] + "<top>\n<title>no num</title>\n</top>\n", encoding="utf-8")
    with pytest.raises(TopicError) as exc_info:
        parse_topics(str(path))
    assert str(exc_info.value) == f"{path}: line 5: topic without <num>"


def test_bad_utf8_names_the_path_and_byte_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ab\xffcd")
    with pytest.raises(FormatError) as from_path:
        read_text(path)
    assert str(from_path.value) == f"{path}: UTF-8 decode failure: invalid start byte | byte offset 2"
    with pytest.raises(FormatError) as from_stream:
        read_text(io.BytesIO(b"ab\xffcd"))
    assert str(from_stream.value) == "UTF-8 decode failure: invalid start byte | byte offset 2"


def test_writers_take_a_path_or_an_open_file(tmp_path):
    topics = [Topic(qid="1", title="tv news")]
    lists = [RankedList(qid="q1", entries=[("d1", 1, 2.5)])]
    for write, value in ((write_topics, topics), (lambda v, out: write_run(v, "t", out), lists)):
        buf = io.StringIO()
        write(value, buf)
        assert not buf.closed
        path = tmp_path / "t dir" / "out.txt"
        path.parent.mkdir(exist_ok=True)
        write(value, str(path))
        assert path.read_text(encoding="utf-8") == buf.getvalue() != ""


@pytest.mark.parametrize("mode, new", [("w", "new ×\n"), ("wb", b"new\n")], ids=["text", "binary"])
def test_replacing_replaces_the_target_when_the_block_ends(mode, new, tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    with replacing(path, mode) as fh:
        fh.write(new)
        assert path.read_bytes() == b"old"
    assert path.read_bytes() == (new.encode("utf-8") if mode == "w" else new)
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("mode, new", [("w", "new"), ("wb", b"new")], ids=["text", "binary"])
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_replacing_block_that_raises_keeps_the_target_and_leaves_no_temporary(mode, new, error, tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    with pytest.raises(error):
        with replacing(path, mode) as fh:
            fh.write(new)
            raise error
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_run_whose_ranked_lists_raise_partway_leaves_no_file(tmp_path):
    def lists():
        yield RankedList(qid="q1", entries=[("d1", 1, 2.5)])
        raise RuntimeError("ranking failed")

    with pytest.raises(RuntimeError, match="ranking failed"):
        write_run(lists(), "t", tmp_path / "t.BM25.run")
    assert list(tmp_path.iterdir()) == []
