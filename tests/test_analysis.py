import io
import random
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girit.analysis import (
    ZWJ,
    ZWNJ,
    AnalyzerConfig,
    analyze,
    load_stopwords,
    normalize,
    tokenize,
)
import girit.analysis
from girit.corpus import RawDocument
from girit.index import build_index_to_dir
from girit.synth import synth_corpus


def token_chars_ok(token: str) -> bool:
    """Character-class oracle: walk code points and check each is a letter,
    mark or decimal digit; joiners only pass flanked by letters."""
    for i, ch in enumerate(token):
        if ch in (ZWJ, ZWNJ):
            if i == 0 or i == len(token) - 1:
                return False
            before = unicodedata.category(token[i - 1])[0]
            after = unicodedata.category(token[i + 1])[0]
            if before != "L" or after != "L":
                return False
            continue
        cat = unicodedata.category(ch)
        if cat[0] not in "LM" and cat != "Nd":
            return False
    return True


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("tv, television.") == ["tv", "television"]

    def test_empty(self):
        assert tokenize("") == []

    def test_gujarati_with_digits(self):
        tokens = tokenize("ગુજરાત સમાચાર 2010")
        assert tokens == ["ગુજરાત", "સમાચાર", "2010"]
        assert all(token_chars_ok(t) for t in tokens)

    def test_digits_are_tokens(self):
        assert tokenize("in 2010, 45 items") == ["in", "2010", "45", "items"]

    def test_underscore_and_symbols_separate(self):
        assert tokenize("a_b c+d e=f") == ["a", "b", "c", "d", "e", "f"]

    def test_joiner_kept_between_letters(self):
        assert tokenize(f"ab{ZWJ}cd") == [f"ab{ZWJ}cd"]
        assert tokenize(f"ab{ZWNJ}cd") == [f"ab{ZWNJ}cd"]

    def test_joiner_dropped_when_not_flanked_by_letters(self):
        assert tokenize(f"ab{ZWJ} cd") == ["ab", "cd"]
        assert tokenize(f"{ZWJ}ab") == ["ab"]
        assert tokenize(f"ab{ZWNJ}1") == ["ab1"]  # dropped, not a separator
        assert tokenize(f", {ZWNJ},") == []

    def test_combining_marks_stay_in_token(self):
        # base + matra (category Mc) form one token
        assert tokenize("કા ખી") == ["કા", "ખી"]

    @settings(max_examples=300)
    @given(st.text(max_size=60))
    def test_tokens_satisfy_character_class_oracle(self, text):
        for token in tokenize(text):
            assert token
            assert token_chars_ok(token)

    @settings(max_examples=200)
    @given(st.text(max_size=60))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestNormalize:
    def test_lowercase(self, cfg):
        assert normalize("Television", cfg) == "television"

    def test_fixed_point(self, cfg):
        assert normalize("tv", cfg) == "tv"

    def test_composed_and_decomposed_forms_agree(self, cfg):
        # e acute: precomposed vs base + combining acute
        assert normalize("é", cfg) == normalize("é", cfg)
        # Devanagari qa: the precomposed code point decomposes canonically
        assert normalize("क़", cfg) == normalize("क़", cfg)

    def test_gujarati_base_plus_matra_stable(self, cfg):
        token = "કા"
        assert normalize(token, cfg) == token

    def test_lowercase_disabled(self):
        cfg = AnalyzerConfig(lowercase_latin=False)
        assert normalize("Television", cfg) == "Television"

    @settings(max_examples=400)
    @given(st.text(min_size=1, max_size=30))
    def test_idempotent(self, token):
        cfg = AnalyzerConfig()
        once = normalize(token, cfg)
        assert normalize(once, cfg) == once

    @settings(max_examples=200)
    @given(st.text(min_size=1, max_size=30))
    def test_idempotent_nfkc(self, token):
        cfg = AnalyzerConfig(unicode_normalization="NFKC")
        once = normalize(token, cfg)
        assert normalize(once, cfg) == once


class TestAnalyze:
    def test_plain(self, cfg):
        assert analyze("a b a", cfg) == ["a", "b", "a"]

    def test_stopword_removed(self):
        cfg = AnalyzerConfig(stopword_list=frozenset({"a"}))
        assert analyze("a b a", cfg) == ["b"]

    def test_min_token_length(self):
        cfg = AnalyzerConfig(min_token_length=3)
        assert analyze("an apple a day", cfg) == ["apple", "day"]

    @settings(max_examples=200)
    @given(st.text(max_size=80), st.sets(st.text(min_size=1, max_size=4), max_size=4))
    def test_matches_stagewise_composition(self, text, raw_stopwords):
        base = AnalyzerConfig()
        stopwords = frozenset(normalize(w, base) for w in raw_stopwords)
        cfg = AnalyzerConfig(stopword_list=stopwords, min_token_length=2)
        staged = [
            term
            for term in (normalize(tok, cfg) for tok in tokenize(text))
            if term not in stopwords and len(term) >= cfg.min_token_length
        ]
        assert analyze(text, cfg) == staged

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_never_longer_than_tokenize(self, text):
        cfg = AnalyzerConfig(stopword_list=frozenset({"the", "a"}))
        assert len(analyze(text, cfg)) <= len(tokenize(text))

    @settings(max_examples=100)
    @given(st.text(max_size=80))
    def test_never_emits_stopwords(self, text):
        stopwords = frozenset({"the", "a", "and"})
        cfg = AnalyzerConfig(stopword_list=stopwords)
        assert not set(analyze(text, cfg)) & stopwords


class TestStopwordLoading:
    def test_comments_and_blanks(self):
        loaded = load_stopwords(io.StringIO("# a comment\nthe\n\nand # trailing\n"))
        assert loaded == frozenset({"the", "and"})

    def test_entries_normalized(self):
        loaded = load_stopwords(io.StringIO("The\nAND\n"))
        assert loaded == frozenset({"the", "and"})

    def test_renormalizing_is_fixed_point(self, cfg):
        loaded = load_stopwords(io.StringIO("The\nÉtude\n"))
        assert all(normalize(w, cfg) == w for w in loaded)

    def test_fingerprint_covers_stopwords(self):
        a = AnalyzerConfig()
        b = AnalyzerConfig(stopword_list=frozenset({"x"}))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == AnalyzerConfig().fingerprint()


@pytest.mark.parametrize("text", ["tv and television", "ગુજરાત સમાચાર", ""])
def test_analyze_deterministic(text, cfg):
    assert analyze(text, cfg) == analyze(text, cfg)


class TestMemo:
    """analyze keeps one memo per configuration for the life of the process."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self, monkeypatch):
        monkeypatch.setattr(girit.analysis, "_MEMOS", {}, raising=False)

    def test_a_build_normalizes_each_raw_token_once(self, monkeypatch, tmp_path):
        calls = Counter()
        normalize_once = girit.analysis.normalize

        def counted(token, cfg):
            calls[token] += 1
            return normalize_once(token, cfg)

        monkeypatch.setattr(girit.analysis, "normalize", counted)
        docs = synth_corpus(random.Random(3), 300, vocab_size=500)
        docs.append(RawDocument("cased", "Alpha ALPHA alpha Ｆｕｌｌ"))
        # a spill per document: the memo outlives every spill
        build_index_to_dir(docs, AnalyzerConfig(), tmp_path / "idx", memory_budget_mb=0)
        assert calls == Counter({t: 1 for doc in docs for t in tokenize(doc.text)})

    def test_memos_of_different_configurations_never_mix(self):
        text = "The Cat saw THE cat and a Dog"
        plain = AnalyzerConfig()
        cased = AnalyzerConfig(lowercase_latin=False, stopword_list=frozenset({"The", "a"}))
        stopped = AnalyzerConfig(stopword_list=frozenset({"the", "a"}))
        for _ in range(2):  # the second round is served from the memos
            assert analyze(text, plain) == ["the", "cat", "saw", "the", "cat", "and", "a", "dog"]
            assert analyze(text, cased) == ["Cat", "saw", "THE", "cat", "and", "Dog"]
            assert analyze(text, stopped) == ["cat", "saw", "cat", "and", "dog"]
