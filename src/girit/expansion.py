"""Thesaurus-driven query expansion.

The thesaurus is a TSV file, one headword per line:

    headword<TAB>synonym1|synonym2|...

All entries are normalized with the analyzer configuration so lookups against
query bags are exact. Expansion is purely additive: original terms and their
frequencies are never touched, added terms are appended deterministically
(original terms visited by descending qtf then lexicographic order, synonyms
in thesaurus order) until the per-query cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analysis import AnalyzerConfig, analyze
from .errors import ThesaurusError
from .retrieval import QueryBag, Topic, build_query
from .util import read_text, reading


@dataclass(frozen=True)
class Thesaurus:
    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def synonyms(self, term: str) -> tuple[str, ...]:
        return self.entries.get(term, ())

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class ExpansionPolicy:
    max_added_per_query: int = 6
    max_synonyms_per_term: int | None = None
    expanded_term_weight: float = 1.0

    def __post_init__(self):
        if self.max_added_per_query < 0:
            raise ValueError("max_added_per_query must be >= 0")
        if self.max_synonyms_per_term is not None and self.max_synonyms_per_term < 0:
            raise ValueError("max_synonyms_per_term must be >= 0")
        if not 0 < self.expanded_term_weight < math.inf:
            raise ValueError(f"expanded_term_weight must be > 0 and finite: {self.expanded_term_weight}")


def load_thesaurus(source, cfg: AnalyzerConfig) -> Thesaurus:
    """Parse thesaurus TSV from a named input (see `util.reading`); duplicate
    headword lines merge in first-seen order, self-synonyms and duplicates are
    dropped."""
    entries: dict[str, list[str]] = {}
    with reading(source) as fh:
        for lineno, line in enumerate(read_text(fh).splitlines(), start=1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise ThesaurusError(f"line {lineno}: no TAB separator")
            head_raw, rest = line.split("\t", 1)
            head_terms = analyze(head_raw, cfg)
            if not head_terms:
                raise ThesaurusError(f"line {lineno}: empty headword")
            if len(head_terms) != 1:
                raise ThesaurusError(f"line {lineno}: headword must be a single term: {head_raw!r}")
            head = head_terms[0]
            bucket = entries.setdefault(head, [])
            for cell in rest.split("|"):
                for syn in analyze(cell, cfg):
                    if syn != head and syn not in bucket:
                        bucket.append(syn)
    return Thesaurus(entries={h: tuple(s) for h, s in entries.items()})


def expand_query(bag: QueryBag, thesaurus: Thesaurus, policy: ExpansionPolicy | None = None) -> QueryBag:
    """Additively expand a query bag with thesaurus synonyms.

    Original terms are visited by (qtf desc, term asc); each contributes its
    synonyms in thesaurus order (capped by max_synonyms_per_term) that are not
    already in the bag, until max_added_per_query terms have been added. Each
    added term gets qtf = ceil(expanded_term_weight).
    """
    policy = policy or ExpansionPolicy()
    terms = dict(bag.terms)
    budget = policy.max_added_per_query
    added_qtf = math.ceil(policy.expanded_term_weight)
    for term in sorted(bag.terms, key=lambda t: (-bag.terms[t], t)):
        if budget <= 0:
            break
        synonyms = thesaurus.synonyms(term)
        if policy.max_synonyms_per_term is not None:
            synonyms = synonyms[: policy.max_synonyms_per_term]
        for syn in synonyms:
            if syn in terms:
                continue
            terms[syn] = added_qtf
            budget -= 1
            if budget <= 0:
                break
    return QueryBag(qid=bag.qid, terms=terms, fingerprint=bag.fingerprint)


def expand_topic(topic: Topic, bag: QueryBag, expanded: QueryBag) -> Topic:
    """Re-emit a topic whose title carries the added terms, so rebuilding the
    query bag from the expanded topic reproduces `expanded` for any field
    selection that includes the title."""
    additions = []
    for term in expanded.terms:
        if term not in bag.terms:
            additions.extend([term] * expanded.terms[term])
    if not additions:
        return topic
    return Topic(
        qid=topic.qid,
        title=topic.title + " " + " ".join(additions),
        description=topic.description,
        narrative=topic.narrative,
    )


@dataclass(frozen=True)
class ExpansionStats:
    added_per_query: dict[str, int]
    mean_added: float

    def as_text(self) -> str:
        lines = [f"{qid}: {n}" for qid, n in self.added_per_query.items()]
        lines.append(f"mean_added: {self.mean_added:.4f}")
        return "\n".join(lines) + "\n"


def expansion_stats(original, expanded, fields: str, cfg: AnalyzerConfig) -> ExpansionStats:
    """Per-query added-term counts between two topic sets, plus the mean."""
    orig_by_qid = {t.qid: t for t in original}
    exp_by_qid = {t.qid: t for t in expanded}
    if orig_by_qid.keys() != exp_by_qid.keys():
        missing = orig_by_qid.keys() ^ exp_by_qid.keys()
        raise ThesaurusError(f"qid mismatch between topic sets: {sorted(missing)}")
    added: dict[str, int] = {}
    for qid in orig_by_qid:
        before = build_query(orig_by_qid[qid], fields, cfg)
        after = build_query(exp_by_qid[qid], fields, cfg)
        added[qid] = len(after.terms) - len(before.terms)
    mean = sum(added.values()) / len(added) if added else 0.0
    return ExpansionStats(added_per_query=added, mean_added=mean)
