import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girit.errors import QrelsError, RunFileError
from girit.evaluation import (
    CANONICAL_MODEL_ORDER,
    EvalResult,
    EvalSummary,
    QueryEval,
    compare,
    evaluate_run,
    format_percentage,
    parse_qrels,
    parse_run,
    read_eval_summary,
)
from girit.evaluation import _parse_regular_run, _parse_run_lines
from girit.models import MODEL_IDS
from girit.retrieval import RankedList


def make_run(qid, docids):
    return RankedList(qid=qid, entries=[(d, i + 1, float(len(docids) - i)) for i, d in enumerate(docids)])


class TestParseQrels:
    def test_single_relevant_judgment(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\n"))
        assert qrels.relevant("q1") == {"d1"}

    def test_grade_zero_is_judged_nonrelevant(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 0\n"))
        assert qrels.relevant("q1") == set()
        assert "q1" in qrels.qids()

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(QrelsError, match="line 2"):
            parse_qrels(io.StringIO("q1 0 d1 1\nq2 0 d2\n"))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(QrelsError, match="duplicate judgment"):
            parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d1 0\n"))

    def test_negative_grade_rejected(self):
        with pytest.raises(QrelsError, match="negative"):
            parse_qrels(io.StringIO("q1 0 d1 -2\n"))

    def test_collection_scale_totals(self):
        # 50 queries holding 1659 relevant pairs in total
        counts = [33] * 41 + [34] * 9
        assert len(counts) == 50 and sum(counts) == 1659
        lines = []
        for q, n in enumerate(counts):
            lines.extend(f"q{q:02d} 0 doc{q:02d}x{i:03d} 1" for i in range(n))
        qrels = parse_qrels(io.StringIO("\n".join(lines)))
        assert len(qrels.qids()) == 50
        assert qrels.total_relevant() == 1659


class TestRecall:
    def qrels(self):
        return parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d2 1\nq1 0 d3 1\nq1 0 d9 0\n"))

    def test_nothing_retrieved(self):
        result = evaluate_run({}, self.qrels(), cutoff=10)
        assert result.per_query["q1"].recall == 0.0

    def test_everything_retrieved(self):
        run = {"q1": make_run("q1", ["d1", "d2", "d3"])}
        result = evaluate_run(run, self.qrels(), cutoff=10)
        assert result.per_query["q1"].recall == 1.0

    def test_fraction(self):
        run = {"q1": make_run("q1", ["d1", "dx", "d2"])}
        result = evaluate_run(run, self.qrels(), cutoff=10)
        assert result.per_query["q1"].recall == pytest.approx(2 / 3)

    def test_cutoff_applies(self):
        run = {"q1": make_run("q1", ["dx", "d1", "d2"])}
        result = evaluate_run(run, self.qrels(), cutoff=2)
        assert result.per_query["q1"].relevant_retrieved == 1

    def test_unjudged_run_qid_warned_and_excluded(self, caplog):
        import logging

        run = {"q9": make_run("q9", ["d1"])}
        with caplog.at_level(logging.WARNING, logger="girit.evaluation"):
            result = evaluate_run(run, self.qrels(), cutoff=10)
        assert "q9" not in result.per_query
        assert any("absent from qrels" in r.message for r in caplog.records)

    def test_qid_with_no_relevant_documents_excluded(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq2 0 d2 0\n"))
        result = evaluate_run({}, qrels, cutoff=10)
        assert set(result.per_query) == {"q1"}

    def test_micro_recall_sums_counts(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d2 1\nq2 0 d3 1\n"))
        run = {"q1": make_run("q1", ["d1"]), "q2": make_run("q2", ["d3"])}
        result = evaluate_run(run, qrels, cutoff=10)
        assert result.total_relevant == 3
        assert result.total_relevant_retrieved == 2
        assert result.micro_recall == pytest.approx(2 / 3)


class TestAveragePrecision:
    def test_hand_enumerated_fixture(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d3 1\n"))
        run = {"q1": make_run("q1", ["d1", "dx", "d3"])}
        result = evaluate_run(run, qrels, cutoff=10)
        assert result.per_query["q1"].average_precision == pytest.approx((1 + 2 / 3) / 2, abs=1e-9)

    def test_no_relevant_retrieved(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\n"))
        run = {"q1": make_run("q1", ["dx", "dy"])}
        result = evaluate_run(run, qrels, cutoff=10)
        assert result.per_query["q1"].average_precision == 0.0

    def test_perfect_run(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d2 1\nq1 0 d3 1\n"))
        run = {"q1": make_run("q1", ["d1", "d2", "d3"])}
        result = evaluate_run(run, qrels, cutoff=10)
        assert result.per_query["q1"].average_precision == 1.0

    def brute_force(self, docids, relevant, cutoff):
        """Independent rank-walk oracle."""
        ap = 0.0
        recall_hits = 0
        for r, docid in enumerate(docids[:cutoff], start=1):
            if docid in relevant:
                recall_hits += 1
                ap += recall_hits / r
        return recall_hits / len(relevant), ap / len(relevant)

    def test_matches_brute_force_on_random_runs(self):
        rng = random.Random(123)
        for _ in range(300):
            universe = [f"d{i}" for i in range(rng.randint(5, 50))]
            relevant = set(rng.sample(universe, rng.randint(1, len(universe) // 2 + 1)))
            retrieved = rng.sample(universe, rng.randint(0, len(universe)))
            cutoff = rng.randint(1, 60)
            qrels = parse_qrels(io.StringIO("\n".join(f"q1 0 {d} 1" for d in sorted(relevant))))
            run = {"q1": make_run("q1", retrieved)}
            result = evaluate_run(run, qrels, cutoff=cutoff)
            expected_recall, expected_ap = self.brute_force(retrieved, relevant, cutoff)
            q = result.per_query["q1"]
            assert q.recall == pytest.approx(expected_recall, abs=1e-12)
            assert q.average_precision == pytest.approx(expected_ap, abs=1e-12)

    def test_metrics_invariant_under_monotone_score_transform(self):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d5 1\n"))
        base = "q1 Q0 d1 1 3.000000 t\nq1 Q0 d4 2 2.000000 t\nq1 Q0 d5 3 1.000000 t\n"
        shifted = "q1 Q0 d1 1 7.500000 t\nq1 Q0 d4 2 5.400000 t\nq1 Q0 d5 3 2.100000 t\n"
        r1 = evaluate_run(parse_run(io.StringIO(base)), qrels, cutoff=10)
        r2 = evaluate_run(parse_run(io.StringIO(shifted)), qrels, cutoff=10)
        assert r1.per_query == r2.per_query


class TestRunParser:
    def test_six_columns_required(self):
        with pytest.raises(RunFileError, match="expected 6 fields"):
            parse_run(io.StringIO("q1 Q0 d1 1 1.0\n"))

    def test_rank_order_enforced(self):
        with pytest.raises(RunFileError, match="out of order"):
            parse_run(io.StringIO("q1 Q0 d1 2 1.000000 t\n"))

    def test_bad_score_rejected(self):
        with pytest.raises(RunFileError, match="bad rank/score"):
            parse_run(io.StringIO("q1 Q0 d1 1 xyz t\n"))

    def test_docid_listed_twice_for_a_qid_names_both_lines(self):
        """Counted twice, it would be relevant retrieved twice: recall over 1."""
        text = "q1 Q0 d1 1 2.0 t\nq2 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\nq1 Q0 d1 3 0.5 t\n"
        with pytest.raises(RunFileError, match=r"^line 4: docid 'd1' listed twice for qid 'q1' \(first at line 1\)$"):
            parse_run(io.StringIO(text))
        regular = "".join(f"q01 Q0 d000000 {r} 1.000000 x\n" for r in range(1, 11))
        with pytest.raises(RunFileError, match=r"^line 2: docid 'd000000' listed twice for qid 'q01' \(first at line 1\)$"):
            parse_run(io.BytesIO(regular.encode("ascii")))

    def test_ranks_are_one_to_n_after_a_file_with_a_longer_qid(self):
        def text(sizes):
            return "".join(f"{qid} Q0 d{r} {r} {1 / r:.6f} t\n" for qid, n in sizes.items() for r in range(1, n + 1))

        for sizes in ({"q1": 700}, {"q1": 3, "q2": 900, "q3": 1}, {"q1": 2}):
            runs = parse_run(io.StringIO(text(sizes)))
            assert {qid: [r for _, r, _ in rl.entries] for qid, rl in runs.items()} == {
                qid: list(range(1, n + 1)) for qid, n in sizes.items()
            }


def _outcome(parse, text):
    """What a parser makes of `text`: its lists as (qid, entries repr), or
    its RunFileError message (repr keeps a NaN score comparable)."""
    try:
        runs = parse(text)
    except RunFileError as exc:
        return ("error", str(exc))
    return ("runs", [(qid, rl.qid, repr(rl.entries)) for qid, rl in runs.items()])


def _parse_bytes(text):
    return parse_run(io.BytesIO(text.encode("utf-8")))


_DOCIDS = st.text(alphabet="abcXYZ0189-_.%", min_size=1, max_size=8)
_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["-0.000000", "1e5", "nan", "1e999"]),
)


def _render(lines, end="\n"):
    return "".join(" ".join(fields) + end for fields in lines)


@st.composite
def _regular_runs(draw):
    """Lines of a run file as `write_run` writes them: each qid once, its
    lines contiguous, ranked 1..n and of distinct docids."""
    lines = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "301", "q%s", "Q0"]), unique=True, max_size=4)):
        for r, docid in enumerate(draw(st.lists(_DOCIDS, min_size=1, max_size=4, unique=True)), start=1):
            lines.append([qid, "Q0", docid, str(r), draw(_SCORES), "girit"])
    return lines


def _edit_field(i, value):
    def edit(fields):
        if len(fields) > i:
            fields[i] = value(fields[i])
    return edit


def _separate(sep):
    def edit(fields):
        fields[:2] = [sep.join(fields[:2])]
    return edit


# each edit makes one line irregular; the line loop accepts some of them
_LINE_EDITS = {
    "tab": _separate("\t"),
    "unit separator": _separate("\x1f"),
    "double space": _separate("  "),
    "zero-padded rank": _edit_field(3, lambda r: "0" + r),
    "signed rank": _edit_field(3, lambda r: "+" + r),
    "skipped rank": _edit_field(3, lambda r: r + "0"),
    "non-ASCII docid": _edit_field(2, lambda d: "d\u00e9" + d),
    "bad score": _edit_field(4, lambda s: s + "x"),
    "missing field": lambda f: f.pop() if len(f) > 1 else None,
    "extra field": lambda f: f.append("x"),
}
def _qid_comes_back(lines, i):
    """One more line for the qid of line i, ranked next and put last: the
    line loop accepts it wherever that qid's other lines are."""
    if lines and lines[i]:
        qid = lines[i][0]
        rank = sum(fields[:1] == [qid] for fields in lines) + 1
        lines.append([qid, "Q0", "dx", str(rank), "1.000000", "girit"])


def _docid_repeated(lines, i):
    """The docid of line i once more for its qid, ranked next, right after
    that qid's last line: a text regular but for the repeat."""
    if lines and len(lines[i]) > 2:
        qid = lines[i][0]
        last = max(j for j, fields in enumerate(lines) if fields[:1] == [qid])
        rank = sum(fields[:1] == [qid] for fields in lines) + 1
        lines.insert(last + 1, [qid, "Q0", lines[i][2], str(rank), "1.000000", "girit"])


_TEXT_EDITS = {
    "blank line": lambda lines, i: lines.insert(i, []),
    "spaces line": lambda lines, i: lines.insert(i, ["", ""]),
    "qid comes back": _qid_comes_back,
    "line repeated last": lambda lines, i: lines.append(list(lines[i])) if lines else None,
    "docid repeated": _docid_repeated,
}


@st.composite
def _irregular_texts(draw):
    lines = draw(_regular_runs())
    for name in draw(st.lists(st.sampled_from(sorted(_LINE_EDITS) + sorted(_TEXT_EDITS)), max_size=3)):
        i = draw(st.integers(0, max(0, len(lines) - 1)))
        if name in _TEXT_EDITS:
            _TEXT_EDITS[name](lines, i)
        elif lines:
            _LINE_EDITS[name](lines[i])
    text = _render(lines, end=draw(st.sampled_from(["\n", "\r\n", "\x1c", "\u2028"])))
    if draw(st.booleans()):
        text = text[:-1]  # no final line end
    return text


class TestBulkRunParser:
    """`parse_run` parses a regular text in bulk and anything else line by
    line; both give the line loop's lists, or its error."""

    @settings(max_examples=300)
    @given(_regular_runs())
    def test_regular_text_takes_the_bulk_path(self, lines):
        text = _render(lines)
        if lines:
            assert _parse_regular_run(text) is not None
        assert _outcome(_parse_bytes, text) == _outcome(_parse_run_lines, text)

    @settings(max_examples=500)
    @given(_irregular_texts())
    def test_any_text_parses_as_the_line_loop_does(self, text):
        assert _outcome(_parse_bytes, text) == _outcome(_parse_run_lines, text)

    @pytest.mark.parametrize(
        "text",
        [
            "q1\tQ0 d1 1 1.0 t\n",
            "q1 Q0  d1 1 1.0 t\n",
            " q1 Q0 d1 1 1.0 t\n",
            "q1 Q0 d1 01 1.0 t\n",
            "q1 Q0 d1 1 1.0 t\n\nq1 Q0 d2 2 0.5 t\n",
            "q1 Q0 d1 1 1.0 t\r\n",
            "q1 Q0 d1 1 1.0 t",
            "q1 Q0 d\u00e9 1 1.0 t\n",
            "q1 Q0 d1 1 1.0 t\nq2 Q0 d2 1 1.0 t\nq1 Q0 d3 2 0.5 t\n",
            "q1 Q0 d1 1 1.0 t\nq2 Q0 d2 1 1.0 t\nq1 Q0 d3 1 0.5 t\n",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d2 3 0.5 t\n",
            "q1 Q0 d1 1 xyz t\n",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5\n",
            "q1  Q0 d1 1 1.0\n",
            "",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5 t\nq1 Q0 d1 3 0.2 t\n",
        ],
        ids=[
            "tab", "double-space", "leading-space", "zero-padded-rank", "blank-line", "crlf",
            "no-final-newline", "non-ascii-docid", "qid-comes-back", "qid-restarts", "skipped-rank", "bad-score",
            "five-fields", "five-fields-five-spaces", "empty", "docid-repeated",
        ],
    )
    def test_irregular_text_takes_the_line_loop(self, text):
        assert _parse_regular_run(text) is None
        assert _outcome(_parse_bytes, text) == _outcome(_parse_run_lines, text)

    def test_error_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "girit.BM25.run"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 3 0.5 t\n", encoding="utf-8")
        with pytest.raises(RunFileError, match=r"girit\.BM25\.run: line 2: rank 3 out of order \(expected 2\)"):
            parse_run(path)


class TestPercentageFormatter:
    @pytest.mark.parametrize(
        "part,whole,expected",
        [
            (1195, 1659, "72"),
            (1202, 1659, "72.5"),
            (1244, 1659, "75"),
            (1252, 1659, "75.5"),
            (1178, 1659, "71"),
            (1145, 1659, "69"),
            (1066, 1659, "64.3"),
            (1, 2, "50"),
            (1, 8, "12.5"),
            (1, 16, "6.3"),       # 6.25 rounds half-up
            (1449, 2000, "72.5"),  # 72.45 rounds half-up
            (0, 10, "0"),
            (10, 10, "100"),
        ],
    )
    def test_half_up_one_decimal_trimmed(self, part, whole, expected):
        assert format_percentage(part, whole) == expected

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            format_percentage(1, 0)


def summary(model, retrieved, relevant=1659):
    return EvalSummary(model=model, total_relevant=relevant, total_relevant_retrieved=retrieved)


class TestCompare:
    def test_improvement_requires_strict_increase(self):
        report = compare(
            {"BM25": summary("BM25", 100, 200), "PL2": summary("PL2", 100, 200)},
            {"BM25": summary("BM25", 101, 200), "PL2": summary("PL2", 100, 200)},
        )
        verdicts = {r.model: r.verdict for r in report.rows}
        assert verdicts == {"BM25": "Improvement", "PL2": "Fail"}

    def test_decrease_is_fail(self):
        report = compare({"BM25": summary("BM25", 100, 200)}, {"BM25": summary("BM25", 99, 200)})
        assert report.rows[0].verdict == "Fail"

    def test_identical_sides_all_fail(self):
        before = {m: summary(m, 50, 100) for m in ("BM25", "PL2", "DPH")}
        report = compare(before, dict(before))
        assert all(r.verdict == "Fail" for r in report.rows)

    def test_example_rows(self):
        report = compare(
            {"BB2": summary("BB2", 1195), "Hiemstra_LM": summary("Hiemstra_LM", 1164),
             "Js_KLs": summary("Js_KLs", 1076)},
            {"BB2": summary("BB2", 1202), "Hiemstra_LM": summary("Hiemstra_LM", 1158),
             "Js_KLs": summary("Js_KLs", 1076)},
        )
        rows = {r.model: r for r in report.rows}
        assert (rows["BB2"].before_pct, rows["BB2"].after_pct) == ("72", "72.5")
        assert rows["BB2"].verdict == "Improvement"
        assert (rows["Hiemstra_LM"].before_pct, rows["Hiemstra_LM"].after_pct) == ("70.2", "69.8")
        assert rows["Hiemstra_LM"].verdict == "Fail"
        assert rows["Js_KLs"].verdict == "Fail"

    def test_model_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="model sets differ"):
            compare({"BM25": summary("BM25", 1)}, {"PL2": summary("PL2", 1)})

    def test_relevant_totals_must_agree(self):
        with pytest.raises(ValueError, match="relevant totals differ"):
            compare({"BM25": summary("BM25", 1, 100)}, {"BM25": summary("BM25", 1, 101)})

    def test_canonical_order_when_model_sets_match(self):
        before = {m: summary(m, 10, 100) for m in MODEL_IDS}
        after = {m: summary(m, 11, 100) for m in MODEL_IDS}
        report = compare(before, after)
        assert tuple(r.model for r in report.rows) == CANONICAL_MODEL_ORDER

    def test_lexicographic_order_otherwise(self):
        before = {m: summary(m, 10, 100) for m in ("PL2", "BM25", "DPH")}
        after = {m: summary(m, 11, 100) for m in ("PL2", "BM25", "DPH")}
        report = compare(before, after)
        assert [r.model for r in report.rows] == ["BM25", "DPH", "PL2"]

    def test_text_and_csv_rendering(self):
        report = compare({"BM25": summary("BM25", 1195)}, {"BM25": summary("BM25", 1202)})
        text = report.as_text()
        assert "BM25" in text and "Improvement" in text
        csv = report.as_csv()
        assert csv.splitlines()[1] == "BM25,1659,1195,72,1202,72.5,Improvement"


class TestEvalResultFiles:
    def test_round_trip_through_key_value_text(self, tmp_path):
        result = EvalResult(model="BM25", cutoff=100)
        result.per_query["q1"] = QueryEval(3, 2, 2 / 3, 0.02, 0.5)
        result.per_query["q2"] = QueryEval(5, 5, 1.0, 0.05, 1.0)
        path = tmp_path / "BM25.eval"
        path.write_text(result.as_text(), encoding="utf-8")
        loaded = read_eval_summary(path)
        assert loaded == EvalSummary(model="BM25", total_relevant=8, total_relevant_retrieved=7)

    def test_csv_lists_queries(self):
        result = EvalResult(model="BM25", cutoff=100)
        result.per_query["q1"] = QueryEval(3, 2, 2 / 3, 0.02, 0.5)
        lines = result.as_csv().splitlines()
        assert lines[0].startswith("qid,")
        assert lines[1].startswith("q1,3,2,")

    def test_unreadable_eval_file_rejected(self, tmp_path):
        path = tmp_path / "junk.eval"
        path.write_text("not: an eval file\n", encoding="utf-8")
        with pytest.raises(RunFileError):
            read_eval_summary(path)
