import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girit.errors import ThesaurusError
from girit.expansion import (
    ExpansionPolicy,
    Thesaurus,
    expand_query,
    expand_topic,
    expansion_stats,
    load_thesaurus,
)
from girit.index import build_index
from girit.retrieval import QueryBag, Topic, build_query, rank
from girit.synth import synth_experiment


class TestLoadThesaurus:
    def test_single_entry(self, cfg):
        th = load_thesaurus(io.StringIO("tv\ttelevision"), cfg)
        assert th.entries == {"tv": ("television",)}

    def test_multiple_synonyms_pipe_separated(self, cfg):
        th = load_thesaurus(io.StringIO("fast\tquick|rapid|speedy"), cfg)
        assert th.synonyms("fast") == ("quick", "rapid", "speedy")

    def test_duplicate_headwords_merge_in_first_seen_order(self, cfg):
        th = load_thesaurus(io.StringIO("a\tb\na\tc\n"), cfg)
        assert th.entries == {"a": ("b", "c")}

    def test_self_synonym_dropped(self, cfg):
        th = load_thesaurus(io.StringIO("a\ta|b"), cfg)
        assert th.entries == {"a": ("b",)}

    def test_duplicate_synonym_dropped(self, cfg):
        th = load_thesaurus(io.StringIO("a\tb|b|c"), cfg)
        assert th.entries == {"a": ("b", "c")}

    def test_entries_normalized(self, cfg):
        th = load_thesaurus(io.StringIO("TV\tTelevision"), cfg)
        assert th.entries == {"tv": ("television",)}

    def test_missing_tab_rejected(self, cfg):
        with pytest.raises(ThesaurusError, match="line 2: no TAB"):
            load_thesaurus(io.StringIO("a\tb\nbroken line\n"), cfg)

    def test_empty_headword_rejected(self, cfg):
        with pytest.raises(ThesaurusError, match="empty headword"):
            load_thesaurus(io.StringIO("\tb"), cfg)

    def test_blank_lines_skipped(self, cfg):
        th = load_thesaurus(io.StringIO("\na\tb\n\n"), cfg)
        assert len(th) == 1

    def test_file_source(self, cfg, tmp_path):
        path = tmp_path / "th.tsv"
        path.write_text("tv\ttelevision\n", encoding="utf-8")
        assert load_thesaurus(path, cfg).synonyms("tv") == ("television",)


class TestExpandQuery:
    def bag(self, terms):
        return QueryBag(qid="q1", terms=terms, fingerprint="f")

    def test_no_entry_leaves_bag_unchanged(self):
        out = expand_query(self.bag({"x": 1}), Thesaurus({}))
        assert out.terms == {"x": 1}

    def test_tv_television(self):
        out = expand_query(self.bag({"tv": 1}), Thesaurus({"tv": ("television",)}))
        assert out.terms == {"tv": 1, "television": 1}

    def test_existing_terms_never_duplicated(self):
        out = expand_query(
            self.bag({"tv": 1, "television": 2}), Thesaurus({"tv": ("television",)})
        )
        assert out.terms == {"tv": 1, "television": 2}

    def test_original_bag_not_mutated(self):
        bag = self.bag({"tv": 1})
        expand_query(bag, Thesaurus({"tv": ("television",)}))
        assert bag.terms == {"tv": 1}

    def test_cap_respected_with_pinned_selection_order(self):
        # brute-force reimplementation of the selection rule as the oracle
        terms = {"a": 3, "b": 3, "c": 1}
        entries = {
            "a": tuple(f"sa{i}" for i in range(4)),
            "b": tuple(f"sb{i}" for i in range(4)),
            "c": tuple(f"sc{i}" for i in range(4)),
        }
        policy = ExpansionPolicy(max_added_per_query=6)

        def oracle(terms, entries, cap):
            chosen = []
            present = set(terms)
            for term in sorted(terms, key=lambda t: (-terms[t], t)):
                for syn in entries.get(term, ()):
                    if syn in present:
                        continue
                    chosen.append(syn)
                    present.add(syn)
                    if len(chosen) == cap:
                        return chosen
            return chosen

        expected_added = oracle(terms, entries, 6)
        assert expected_added == ["sa0", "sa1", "sa2", "sa3", "sb0", "sb1"]
        out = expand_query(self.bag(terms), Thesaurus(entries), policy)
        assert [t for t in out.terms if t not in terms] == expected_added

    def test_max_synonyms_per_term(self):
        out = expand_query(
            self.bag({"a": 1}),
            Thesaurus({"a": ("s1", "s2", "s3")}),
            ExpansionPolicy(max_synonyms_per_term=2),
        )
        assert set(out.terms) == {"a", "s1", "s2"}

    def test_expanded_term_weight_ceiling(self):
        out = expand_query(
            self.bag({"a": 5}),
            Thesaurus({"a": ("s",)}),
            ExpansionPolicy(expanded_term_weight=2.3),
        )
        assert out.terms["s"] == 3
        assert out.terms["a"] == 5

    def test_zero_budget_is_identity(self):
        out = expand_query(
            self.bag({"a": 1}), Thesaurus({"a": ("s",)}), ExpansionPolicy(max_added_per_query=0)
        )
        assert out.terms == {"a": 1}

    @settings(max_examples=150)
    @given(
        st.dictionaries(st.from_regex(r"[a-d]", fullmatch=True), st.integers(1, 4), min_size=1),
        st.dictionaries(
            st.from_regex(r"[a-f]", fullmatch=True),
            st.lists(st.from_regex(r"[g-m]", fullmatch=True), max_size=4, unique=True).map(tuple),
        ),
        st.integers(0, 5),
    )
    def test_expansion_is_additive_and_bounded(self, terms, entries, cap):
        bag = self.bag(dict(terms))
        out = expand_query(bag, Thesaurus(entries), ExpansionPolicy(max_added_per_query=cap))
        for term, qtf in terms.items():
            assert out.terms[term] == qtf
        assert len(out.terms) - len(terms) <= cap

    @settings(max_examples=60)
    @given(st.dictionaries(st.from_regex(r"[a-e]{1,3}", fullmatch=True), st.integers(1, 4), min_size=1))
    def test_empty_thesaurus_is_identity(self, terms):
        out = expand_query(self.bag(dict(terms)), Thesaurus({}))
        assert out.terms == terms

    def test_idempotent_when_added_terms_have_no_entries(self):
        th = Thesaurus({"a": ("s1", "s2")})
        once = expand_query(self.bag({"a": 1}), th)
        twice = expand_query(once, th)
        assert twice.terms == once.terms

    @pytest.mark.parametrize(
        "kwargs", [{"max_added_per_query": -1}, {"expanded_term_weight": 0.0}, {"max_synonyms_per_term": -1}]
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExpansionPolicy(**kwargs)


class TestSupersetRetrieval:
    def test_expanded_query_retrieves_superset_at_exhaustive_cutoff(self, cfg):
        rng = random.Random(99)
        exp = synth_experiment(rng, num_docs=120, num_topics=4)
        index = build_index(exp.docs, cfg)
        thesaurus = load_thesaurus(io.StringIO(exp.thesaurus_text), cfg)
        for topic in exp.topics:
            bag = build_query(topic, "TD", cfg)
            expanded = expand_query(bag, thesaurus)
            for model in ("BM25", "DPH", "InL2"):
                before = set(rank(index, bag, model, k=None).docids())
                after = set(rank(index, expanded, model, k=None).docids())
                assert before <= after


class TestExpandTopic:
    def test_rebuilt_bag_equals_expanded_bag(self, cfg):
        rng = random.Random(5)
        exp = synth_experiment(rng, num_docs=108, num_topics=6)
        thesaurus = load_thesaurus(io.StringIO(exp.thesaurus_text), cfg)
        for fields in ("T", "TD", "TDN"):
            for topic in exp.topics:
                bag = build_query(topic, fields, cfg)
                expanded = expand_query(bag, thesaurus)
                new_topic = expand_topic(topic, bag, expanded)
                assert build_query(new_topic, fields, cfg).terms == expanded.terms

    def test_untouched_when_nothing_added(self, cfg):
        topic = Topic(qid="1", title="plain", description="words")
        bag = build_query(topic, "TD", cfg)
        assert expand_topic(topic, bag, bag) is topic


class TestExpansionStats:
    def topics(self, titles):
        return [Topic(qid=f"q{i}", title=t) for i, t in enumerate(titles)]

    def test_no_expansion_means_zero(self, cfg):
        ts = self.topics(["a", "b"])
        stats = expansion_stats(ts, ts, "T", cfg)
        assert stats.mean_added == 0.0

    def test_mean_of_four_and_eight_is_six(self, cfg):
        original = self.topics(["a", "b"])
        expanded = [
            Topic(qid="q0", title="a w1 w2 w3 w4"),
            Topic(qid="q1", title="b x1 x2 x3 x4 x5 x6 x7 x8"),
        ]
        stats = expansion_stats(original, expanded, "T", cfg)
        assert stats.added_per_query == {"q0": 4, "q1": 8}
        assert stats.mean_added == pytest.approx(6.0)

    def test_matches_direct_recount(self, cfg):
        rng = random.Random(31)
        exp = synth_experiment(rng, num_docs=108, num_topics=6)
        thesaurus = load_thesaurus(io.StringIO(exp.thesaurus_text), cfg)
        expanded_topics = []
        expected = {}
        for topic in exp.topics:
            bag = build_query(topic, "TD", cfg)
            expanded = expand_query(bag, thesaurus)
            expanded_topics.append(expand_topic(topic, bag, expanded))
            expected[topic.qid] = len(expanded.terms) - len(bag.terms)
        stats = expansion_stats(exp.topics, expanded_topics, "TD", cfg)
        assert stats.added_per_query == expected
        assert stats.mean_added == pytest.approx(sum(expected.values()) / len(expected))

    def test_qid_mismatch_rejected(self, cfg):
        with pytest.raises(ThesaurusError, match="qid mismatch"):
            expansion_stats(self.topics(["a"]), [Topic(qid="other", title="a")], "T", cfg)
