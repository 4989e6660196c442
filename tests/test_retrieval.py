import io
import logging
import random
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import girit.retrieval as retrieval
from girit.analysis import AnalyzerConfig, analyze
from girit.corpus import RawDocument
from girit.errors import AnalyzerMismatchError, ScoringDomainError, TopicError, UnknownModelError
from girit.evaluation import parse_run
from girit.index import build_index
from girit.models import MODEL_IDS, ModelParams
from girit.retrieval import (
    QueryBag,
    RankedList,
    Topic,
    build_query,
    format_run_line,
    oracle_rank,
    parse_topics,
    rank,
    write_run,
    write_topics,
)
from girit.synth import pick_query_terms, synth_corpus

WELL_FORMED = """
<top>
<num> 26 </num>
<title> ગુજરાત વિધાનસભા </title>
<desc> one sentence description </desc>
<narr> relevance assessment criteria here </narr>
</top>
"""


class TestParseTopics:
    def test_well_formed_topic(self):
        topics = parse_topics(io.StringIO(WELL_FORMED))
        assert topics == [
            Topic(
                qid="26",
                title="ગુજરાત વિધાનસભા",
                description="one sentence description",
                narrative="relevance assessment criteria here",
            )
        ]

    def test_missing_narrative_defaults_empty(self, caplog):
        with caplog.at_level(logging.WARNING, logger="girit.retrieval"):
            topics = parse_topics(io.StringIO("<top><num>1</num><title>t</title><desc>d</desc></top>"))
        assert topics[0].narrative == ""
        assert any("no <narr>" in r.message for r in caplog.records)

    def test_unclosed_narr_recovered_at_top_close(self):
        topics = parse_topics(
            io.StringIO("<top><num>1</num><title>t</title><desc>d</desc><narr>left open here</top>")
        )
        assert topics[0].narrative == "left open here"

    def test_duplicated_narr_opener(self):
        topics = parse_topics(
            io.StringIO("<top><num>1</num><title>t</title><desc>d</desc><narr> a <narr> b </top>")
        )
        assert topics[0].narrative == "a  b"

    def test_tags_case_insensitive(self):
        topics = parse_topics(io.StringIO("<TOP><NUM>1</NUM><TITLE>t</TITLE></TOP>"))
        assert topics[0].qid == "1"

    def test_fifty_generated_topics_round_trip(self):
        original = [
            Topic(qid=f"q{i}", title=f"title {i}", description=f"desc {i}", narrative=f"narr {i}")
            for i in range(50)
        ]
        buf = io.StringIO()
        write_topics(original, buf)
        parsed = parse_topics(io.StringIO(buf.getvalue()))
        assert parsed == original
        assert [t.qid for t in parsed] == [t.qid for t in original]

    def test_missing_num_rejected(self):
        with pytest.raises(TopicError, match="without <num>"):
            parse_topics(io.StringIO("<top><title>t</title></top>"))

    def test_missing_title_rejected(self):
        with pytest.raises(TopicError, match="without <title>"):
            parse_topics(io.StringIO("<top><num>1</num><desc>d</desc></top>"))

    def test_qid_with_whitespace_rejected(self):
        with pytest.raises(TopicError, match=r"^line 2: qid 'Number: 401' holds whitespace$"):
            parse_topics(io.StringIO("\n<top><num> Number:\t401 </num><title>t</title></top>"))

    def test_duplicate_qid_rejected(self):
        block = "<top><num>1</num><title>t</title></top>"
        with pytest.raises(TopicError, match="duplicate qid"):
            parse_topics(io.StringIO(block + block))

    def test_unclosed_top_rejected(self):
        with pytest.raises(TopicError, match="unclosed <top>"):
            parse_topics(io.StringIO("<top><num>1</num><title>t</title>"))

    FULL = "<top><num>1</num><title>t</title><desc>d</desc><narr>n</narr></top>"

    @pytest.mark.parametrize(
        "text, expected, warnings",
        [
            (FULL + "\n</top>", "line 2: stray </top>", []),
            ("<top><num>1</num>\n<top><num>2</num></top>", "line 2: unclosed <top> (nested <top> found)", []),
            (FULL + "\n\n<top><num>2</num><title>t</title>", "line 3: unclosed <top> at end of input", []),
            ("\n<top><title>t</title></top>", "line 2: topic without <num>", []),
            ("<top><num>1</num><desc>d</desc></top>", "line 1: topic '1' without <title>", []),
            (FULL + "\n\n" + FULL, "line 3: duplicate qid '1'", []),
            ("<top><num>1</num><title>t</title><narr>n</narr></top>", [Topic("1", "t", "", "n")],
             ["topic 1 has no <desc>; defaulting to empty"]),
            ("<top><num>1</num><title>t</title><desc></desc><narr>n</narr></top>", [Topic("1", "t", "", "n")], []),
            ("<top><num>1</num><title>a</desc>b</title><desc>d</desc><narr>n</narr></top>",
             [Topic("1", "a", "d", "n")], []),
            ("x <num>9</num><title>u</title>\n" + FULL + " y </desc><narr>z", [Topic("1", "t", "d", "n")], []),
            ("<top><num>1</num><title>t</title></desc><narr>n</narr></top>", [Topic("1", "t", "", "n")],
             ["topic 1 has no <desc>; defaulting to empty"]),
        ],
        ids=["stray-close", "nested-top", "unclosed-top", "no-num", "no-title", "duplicate-qid", "no-desc-warns",
             "empty-desc-is-silent", "field-ended-by-another-closer", "outside-top-ignored",
             "a-closer-opens-no-field"],
    )
    def test_each_outcome_with_its_message(self, text, expected, warnings, caplog):
        with caplog.at_level(logging.WARNING, logger="girit.retrieval"):
            if isinstance(expected, str):
                with pytest.raises(TopicError) as info:
                    parse_topics(io.StringIO(text))
                assert str(info.value) == expected
            else:
                assert parse_topics(io.StringIO(text)) == expected
        assert [r.getMessage() for r in caplog.records] == warnings


class TestBuildQuery:
    def test_title_only_multiplicity(self, cfg):
        topic = Topic(qid="1", title="a b a", description="c", narrative="d")
        bag = build_query(topic, "T", cfg)
        assert bag.terms == {"a": 2, "b": 1}

    def test_td_sums_across_fields(self, cfg):
        topic = Topic(qid="1", title="apple pie", description="apple crumble", narrative="x")
        bag = build_query(topic, "TD", cfg)
        assert bag.terms == {"apple": 2, "pie": 1, "crumble": 1}

    def test_tdn_equals_analyzing_concatenation(self, cfg, rng):
        for _ in range(25):
            words = lambda: " ".join(rng.choice(["a", "b", "cc", "dd", "e1"]) for _ in range(rng.randint(1, 6)))
            topic = Topic(qid="1", title=words(), description=words(), narrative=words())
            bag = build_query(topic, "TDN", cfg)
            oracle = Counter(analyze(f"{topic.title} {topic.description} {topic.narrative}", cfg))
            assert bag.terms == dict(oracle)

    def test_empty_bag_warns(self, caplog):
        stopping = AnalyzerConfig(stopword_list=frozenset({"a"}))
        with caplog.at_level(logging.WARNING, logger="girit.retrieval"):
            bag = build_query(Topic(qid="1", title="a"), "T", stopping)
        assert bag.terms == {}
        assert any("empty after analysis" in r.message for r in caplog.records)

    def test_invalid_field_selection(self, cfg):
        with pytest.raises(ValueError):
            build_query(Topic(qid="1", title="a"), "TN", cfg)


class TestRank:
    def docs(self):
        return [
            RawDocument("d1", "apple banana apple"),
            RawDocument("d2", "apple cherry"),
            RawDocument("d3", "banana banana cherry"),
            RawDocument("d4", "durian"),
        ]

    def bag(self, cfg, terms):
        return QueryBag(qid="q1", terms=terms, fingerprint=cfg.fingerprint())

    def test_unmatched_query_is_empty(self, cfg):
        index = build_index(self.docs(), cfg)
        out = rank(index, self.bag(cfg, {"zzz": 1}), "BM25")
        assert out.entries == []

    def test_empty_bag_is_empty(self, cfg):
        index = build_index(self.docs(), cfg)
        assert rank(index, self.bag(cfg, {}), "BM25").entries == []

    def test_only_matching_documents_returned(self, cfg):
        index = build_index(self.docs(), cfg)
        out = rank(index, self.bag(cfg, {"apple": 1}), "BM25", k=None)
        assert sorted(out.docids()) == ["d1", "d2"]

    def test_ties_broken_by_ascending_docid(self, cfg):
        docs = [RawDocument("dz", "same text"), RawDocument("da", "same text")]
        index = build_index(docs, cfg)
        out = rank(index, self.bag(cfg, {"same": 1}), "BM25", k=None)
        assert out.docids() == ["da", "dz"]
        assert out.entries[0][2] == out.entries[1][2]

    def test_ranks_contiguous_from_one(self, cfg):
        index = build_index(self.docs(), cfg)
        out = rank(index, self.bag(cfg, {"apple": 1, "banana": 1}), "TF_IDF", k=None)
        assert [r for _, r, _ in out.entries] == list(range(1, len(out.entries) + 1))

    def test_ranks_are_one_to_n_past_every_earlier_cutoff(self, cfg, rng, monkeypatch):
        short = [1, 2]
        monkeypatch.setattr(retrieval, "_RANKS", short)  # as after calls that ranked at most two
        docs = synth_corpus(rng, 400)
        index = build_index(docs, cfg)
        bag = self.bag(cfg, {t: 1 for t in pick_query_terms(docs, cfg, rng, 4)})
        first = rank(index, bag, "BM25", k=2)
        for k in (5, 300, 3, None):
            out = rank(index, bag, "BM25", k=k)
            assert [r for _, r, _ in out.entries] == list(range(1, len(out.entries) + 1))
        assert len(out.entries) > 300
        assert [r for _, r, _ in first.entries] == [1, 2]
        assert short == [1, 2]  # replaced, never extended

    def test_cutoff_is_prefix_of_larger_cutoff(self, cfg, rng):
        docs = synth_corpus(rng, 120)
        index = build_index(docs, cfg)
        terms = pick_query_terms(docs, cfg, rng, 3)
        bag = self.bag(cfg, {t: 1 for t in terms})
        small = rank(index, bag, "DPH", k=5)
        big = rank(index, bag, "DPH", k=50)
        assert big.entries[:5] == small.entries

    def test_exhaustive_cutoff_returns_every_matching_document(self, cfg, rng):
        docs = synth_corpus(rng, 80)
        index = build_index(docs, cfg)
        terms = pick_query_terms(docs, cfg, rng, 2)
        bag = self.bag(cfg, {t: 1 for t in terms})
        out = rank(index, bag, "InL2", k=None)
        expected = {
            d.docid for d in docs if set(analyze(d.text, cfg)) & set(terms)
        }
        assert set(out.docids()) == expected

    def test_analyzer_mismatch_rejected(self, cfg):
        index = build_index(self.docs(), cfg)
        other = AnalyzerConfig(min_token_length=2)
        bag = QueryBag(qid="q1", terms={"apple": 1}, fingerprint=other.fingerprint())
        with pytest.raises(AnalyzerMismatchError):
            rank(index, bag, "BM25")

    def test_unknown_model_rejected(self, cfg):
        index = build_index(self.docs(), cfg)
        with pytest.raises(UnknownModelError):
            rank(index, self.bag(cfg, {"apple": 1}), "PageRank")

    def test_scoring_domain_error_carries_context(self, cfg):
        # one short document holding the term's entire collection mass
        docs = [RawDocument("tiny", "rare rare"), RawDocument("pad", "x " * 40)]
        index = build_index(docs, cfg)
        bag = self.bag(cfg, {"rare": 1})
        with pytest.raises(ScoringDomainError) as exc_info:
            rank(index, bag, "BB2", k=None)
        assert exc_info.value.qid == "q1"
        assert exc_info.value.docid == "tiny"
        assert "rare" in str(exc_info.value)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_score_raises_with_context(self, cfg, monkeypatch, bad):
        score_postings = retrieval.score_postings

        def forced(model, tfs, dls, **kw):
            scores = score_postings(model, tfs, dls, **kw)
            if kw["term"] == "banana":
                scores = scores.copy()
                scores[1] = bad  # d3, the second document holding banana
            return scores

        monkeypatch.setattr(retrieval, "score_postings", forced)
        index = build_index(self.docs(), cfg)
        with pytest.raises(ScoringDomainError) as exc_info:
            rank(index, self.bag(cfg, {"apple": 1, "banana": 1, "cherry": 1}), "BM25", k=2)
        err = exc_info.value
        assert (err.model, err.term, err.qid, err.docid) == ("BM25", "banana", "q1", "d3")
        assert "non-finite score" in str(err)

    def test_deterministic_output(self, cfg, rng):
        docs = synth_corpus(rng, 100)
        index = build_index(docs, cfg)
        terms = pick_query_terms(docs, cfg, rng, 3)
        bag = self.bag(cfg, {t: 1 for t in terms})
        assert rank(index, bag, "PL2", k=20).entries == rank(index, bag, "PL2", k=20).entries

    def test_order_invariant_under_positive_scaling(self, cfg, rng):
        docs = synth_corpus(rng, 60)
        index = build_index(docs, cfg)
        terms = pick_query_terms(docs, cfg, rng, 2)
        bag = self.bag(cfg, {t: 1 for t in terms})
        out = rank(index, bag, "BM25", k=None)
        rescaled = sorted(
            ((docid, score * 37.5) for docid, _, score in out.entries),
            key=lambda t: (-t[1], t[0]),
        )
        assert [d for d, _ in rescaled] == out.docids()


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_rank_matches_reference_scorer(self, cfg, seed):
        rng = random.Random(seed)
        docs = synth_corpus(rng, rng.randint(50, 200))
        terms = pick_query_terms(docs, cfg, rng, rng.randint(1, 5))
        assert terms
        bag = QueryBag(
            qid=f"q{seed}",
            terms={t: rng.randint(1, 2) for t in terms},
            fingerprint=cfg.fingerprint(),
        )
        index = build_index(docs, cfg)
        for model in MODEL_IDS:
            fast = rank(index, bag, model, k=None)
            slow = oracle_rank(docs, bag, model, cfg, k=None)
            assert fast.docids() == slow.docids(), model
            for a, b in zip(fast.entries, slow.entries):
                assert a[2] == pytest.approx(b[2], rel=1e-9, abs=1e-12), model

    @pytest.mark.parametrize("model", ["BM25", "TF_IDF", "DirichletLM", "PL2"])
    def test_ties_at_the_cutoff_follow_docid_order(self, cfg, model):
        # equal texts score equally; docids are ingested out of code-point order
        names = [f"d{i}" for i in range(40)] + ["D7", "Z", "_x", "é1", "ß", "d"]
        random.Random(5).shuffle(names)
        docs = [
            RawDocument(name, "tie tie common" if i % 3 else "tie common filler")
            for i, name in enumerate(names)
        ]
        assert names != sorted(names)
        bag = QueryBag(qid="q1", terms={"tie": 1, "common": 1}, fingerprint=cfg.fingerprint())
        index = build_index(docs, cfg)
        full = rank(index, bag, model, k=None)
        splitting = [k for k in range(1, len(full)) if full.entries[k - 1][2] == full.entries[k][2]]
        assert len(splitting) == len(docs) - 2  # every cutoff but the one between the groups
        for k in splitting:
            fast = rank(index, bag, model, k=k)
            slow = oracle_rank(docs, bag, model, cfg, k=k)
            assert fast.docids() == slow.docids() == full.docids()[:k]
            for a, b in zip(fast.entries, slow.entries):
                assert a[2] == pytest.approx(b[2], rel=1e-9, abs=1e-12)

    def test_single_document_corpus(self, cfg):
        docs = [RawDocument("only", "apple pie recipe " * 4)]
        bag = QueryBag(qid="q1", terms={"apple": 1}, fingerprint=cfg.fingerprint())
        out = oracle_rank(docs, bag, "TF_IDF", cfg)
        assert out.docids() == ["only"]
        assert out.entries[0][1] == 1

    def test_empty_query(self, cfg):
        docs = [RawDocument("d1", "a")]
        bag = QueryBag(qid="q1", terms={}, fingerprint=cfg.fingerprint())
        assert oracle_rank(docs, bag, "BM25", cfg).entries == []

    def test_nondefault_params_respected(self, cfg, rng):
        docs = synth_corpus(rng, 60)
        terms = pick_query_terms(docs, cfg, rng, 2)
        bag = QueryBag(qid="q1", terms={t: 1 for t in terms}, fingerprint=cfg.fingerprint())
        index = build_index(docs, cfg)
        params = ModelParams(c=4.0, k1=2.0, b=0.4, mu=100.0, lambda_=0.7)
        for model in ("BM25", "PL2", "Hiemstra_LM", "DirichletLM", "InL2"):
            fast = rank(index, bag, model, params, k=None)
            slow = oracle_rank(docs, bag, model, cfg, params, k=None)
            assert fast.docids() == slow.docids()
            for a, b in zip(fast.entries, slow.entries):
                assert a[2] == pytest.approx(b[2], rel=1e-9, abs=1e-12)


class TestRunFiles:
    def test_line_format_pin(self):
        assert format_run_line("q1", "d7", 1, 1.2345674, "girit") == "q1 Q0 d7 1 1.234567 girit"

    def test_write_run_single_entry(self):
        buf = io.StringIO()
        n = write_run([RankedList(qid="q1", entries=[("d7", 1, 1.2345674)])], "girit", buf)
        assert n == 1
        assert buf.getvalue() == "q1 Q0 d7 1 1.234567 girit\n"

    def test_empty_ranked_list_writes_nothing(self):
        buf = io.StringIO()
        assert write_run([RankedList(qid="q1")], "tag", buf) == 0
        assert buf.getvalue() == ""

    @given(
        st.lists(
            st.builds(
                lambda qid, docids, scores: RankedList(
                    qid=qid, entries=[(d, r, s) for r, (d, s) in enumerate(zip(docids, scores), start=1)]
                ),
                st.text(alphabet="q1%sd\u00e9", min_size=1, max_size=4),
                st.lists(st.text(alphabet="d7%-\u00e9", min_size=1, max_size=5), max_size=6),
                st.lists(st.floats(), min_size=6, max_size=6),
            ),
            max_size=4,
        ),
        st.text(alphabet="girt%sd", min_size=1, max_size=5),
    )
    @example([RankedList(qid="q%d", entries=[("d%s", 1, -0.0), ("d2", 2, 1e300), ("d3", 3, -1e20)])], "t%%")
    def test_write_run_is_format_run_line_per_line(self, lists, tag):
        buf = io.StringIO()
        n = write_run(lists, tag, buf)
        lines = [format_run_line(rl.qid, d, r, s, tag) + "\n" for rl in lists for d, r, s in rl.entries]
        assert n == len(lines)
        assert buf.getvalue() == "".join(lines)

    def test_round_trip_through_run_parser(self, cfg, rng):
        docs = synth_corpus(rng, 80)
        index = build_index(docs, cfg)
        terms = pick_query_terms(docs, cfg, rng, 3)
        lists = [
            rank(index, QueryBag(qid=f"q{i}", terms={t: 1 for t in terms}, fingerprint=cfg.fingerprint()), "BM25", k=10)
            for i in range(3)
        ]
        buf = io.StringIO()
        write_run(lists, "tag", buf)
        parsed = parse_run(io.StringIO(buf.getvalue()))
        assert set(parsed) == {"q0", "q1", "q2"}
        for rl in lists:
            got = parsed[rl.qid]
            assert got.docids() == rl.docids()
            for a, b in zip(got.entries, rl.entries):
                assert a[2] == pytest.approx(b[2], abs=5e-7)  # six printed decimals
