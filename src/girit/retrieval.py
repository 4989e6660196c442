"""Topic parsing, query construction, and ranked retrieval.

Topics follow the TREC layout: <top> blocks holding <num>, <title>, <desc>
and <narr> fields. Real topic files are sloppy, so a field is also terminated
by the next field opener or by </top> (this recovers the classic unclosed
<narr>). Queries are bags of analyzed terms from the chosen field combination
(T, TD or TDN); matching is disjunctive and documents are ordered by
(score desc, docid asc) with ranks 1..k.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .analysis import AnalyzerConfig, analyze
from .errors import AnalyzerMismatchError, ScoringDomainError, TopicError
from .models import (
    ModelParams,
    TermEvidence,
    check_model_id,
    score_document,
    score_postings,
    score_term,
)
from .util import read_text, reading, writing

log = logging.getLogger(__name__)

FIELD_SELECTIONS = ("T", "TD", "TDN")

_TOPIC_TAG_RE = re.compile(r"<\s*(/?)\s*(top|num|title|desc|narr)\s*>", re.IGNORECASE)


@dataclass(frozen=True)
class Topic:
    qid: str
    title: str
    description: str = ""
    narrative: str = ""


@dataclass
class QueryBag:
    qid: str
    terms: dict[str, int]
    fingerprint: str | None = None


@dataclass
class RankedList:
    qid: str
    entries: list[tuple[str, int, float]] = field(default_factory=list)  # (docid, rank, score)

    def docids(self) -> list[str]:
        return [docid for docid, _, _ in self.entries]

    def __len__(self):
        return len(self.entries)


_RANKS: list[int] = []


def shared_ranks(n: int) -> list[int]:
    """The ints 1..m, for some m >= n, shared by every ranked list so that a
    rank above 256 is not a new int in each. A list too short is replaced,
    never extended, so a caller zipping against an earlier one is unaffected."""
    global _RANKS
    ranks = _RANKS
    if len(ranks) < n:
        ranks = _RANKS = list(range(1, n + 1))
    return ranks


def check_fields(fields: str) -> str:
    if fields not in FIELD_SELECTIONS:
        raise ValueError(f"field selection must be one of {FIELD_SELECTIONS}: {fields!r}")
    return fields


def parse_topics(source) -> list[Topic]:
    """Parse <top> blocks from a named input (see `util.reading`) into Topic
    records, in file order.

    Missing <desc>/<narr> default to empty with a warning; a field left
    unclosed is ended by the next field opener or </top>. Missing or empty
    <num>/<title>, duplicate qids and an unclosed <top> are errors.
    """
    with reading(source) as fh:
        text = read_text(fh)
        topics: list[Topic] = []
        seen: set[str] = set()
        in_top = False
        current: str | None = None
        fields: dict[str, list[str]] = {}
        pos = 0
        top_at = 0  # offset of the open <top>

        def error(message: str, at: int) -> TopicError:
            line = text.count("\n", 0, at) + 1
            return TopicError(f"line {line}: {message}")

        def flush(upto: int) -> None:
            if in_top and current is not None:
                fields.setdefault(current, []).append(text[pos:upto])

        def finalize() -> None:
            qid = " ".join("".join(fields.get("num", [])).split())
            title = "".join(fields.get("title", [])).strip()
            desc = "".join(fields.get("desc", [])).strip()
            narr = "".join(fields.get("narr", [])).strip()
            if not qid:
                raise error("topic without <num>", top_at)
            if qid in seen:
                raise error(f"duplicate qid {qid!r}", top_at)
            if not title:
                raise error(f"topic {qid!r} without <title>", top_at)
            if "desc" not in fields:
                log.warning("topic %s has no <desc>; defaulting to empty", qid)
            if "narr" not in fields:
                log.warning("topic %s has no <narr>; defaulting to empty", qid)
            seen.add(qid)
            topics.append(Topic(qid=qid, title=title, description=desc, narrative=narr))

        for match in _TOPIC_TAG_RE.finditer(text):
            closing = bool(match.group(1))
            name = match.group(2).lower()
            if name == "top":
                if not closing:
                    if in_top:
                        raise error("unclosed <top> (nested <top> found)", match.start())
                    in_top = True
                    top_at = match.start()
                    current = None
                    fields = {}
                else:
                    if not in_top:
                        raise error("stray </top>", match.start())
                    flush(match.start())
                    finalize()
                    in_top = False
                    current = None
            elif in_top:
                flush(match.start())
                current = None if closing else name
            pos = match.end()
        if in_top:
            raise error("unclosed <top> at end of input", top_at)
        return topics


def write_topics(topics, out) -> None:
    """Write <top> blocks to a path or an open text file (see `util.writing`)."""
    with writing(out) as fh:
        for t in topics:
            fh.write(
                f"<top>\n<num>{t.qid}</num>\n<title>{t.title}</title>\n"
                f"<desc>{t.description}</desc>\n<narr>{t.narrative}</narr>\n</top>\n"
            )


def build_query(topic: Topic, fields: str, cfg: AnalyzerConfig) -> QueryBag:
    """Bag-of-terms for the selected fields, with per-term query frequencies."""
    check_fields(fields)
    parts = [topic.title]
    if "D" in fields:
        parts.append(topic.description)
    if "N" in fields:
        parts.append(topic.narrative)
    terms = Counter(analyze("\n".join(parts), cfg))
    if not terms:
        log.warning("query %s is empty after analysis (all terms stopped?)", topic.qid)
    return QueryBag(qid=topic.qid, terms=dict(terms), fingerprint=cfg.fingerprint())


def rank(index, bag: QueryBag, model: str, params: ModelParams | None = None, k: int | None = 1000) -> RankedList:
    """Top-k documents matching >=1 query term, by (score desc, docid asc).

    The query bag must have been built with the same analyzer configuration
    as the index (checked via fingerprint).
    """
    check_model_id(model)
    params = params or ModelParams()
    if bag.fingerprint is not None and bag.fingerprint != index.fingerprint:
        raise AnalyzerMismatchError(
            f"query {bag.qid!r} was analyzed with fingerprint {bag.fingerprint}, "
            f"index has {index.fingerprint}"
        )
    num_docs = index.stats.num_docs
    acc = np.zeros(num_docs, dtype=np.float64)
    matched = np.zeros(num_docs, dtype=bool)
    for term in sorted(bag.terms):
        posting = index.lookup(term)
        if posting is None:
            continue
        try:
            scores = _term_scores(index, bag, posting, model, params)
        except ScoringDomainError:
            _raise_with_doc_context(index, bag, posting, model, params)
            raise
        acc[posting.ids] += scores
        matched[posting.ids] = True

    cand = np.nonzero(matched)[0]
    if cand.size == 0:
        return RankedList(qid=bag.qid)
    scores = acc[cand]
    finite = np.isfinite(scores)
    if not finite.all():
        _raise_non_finite(index, bag, model, params, int(cand[np.argmin(finite)]))
    if k is not None and cand.size > k:
        # keep everything tying with the k-th score so the final sort can
        # break boundary ties by docid
        thresh = np.partition(scores, scores.size - k)[scores.size - k]
        keep = scores >= thresh
        cand = cand[keep]
        scores = scores[keep]
    table = index.doc_table
    order = np.lexsort((table.docid_rank[cand], -scores))[:k]
    docids = table.docid_array[cand[order]].tolist()
    return RankedList(qid=bag.qid, entries=list(zip(docids, shared_ranks(order.size), scores[order].tolist())))


def _term_scores(index, bag: QueryBag, posting, model: str, params: ModelParams) -> np.ndarray:
    """One query term's score for every document in its posting list."""
    stats = index.stats
    return score_postings(
        model,
        posting.tfs,
        index.doc_table.lengths[posting.ids],
        qtf=bag.terms[posting.term],
        df=posting.df,
        cf=posting.cf,
        avgdl=stats.avgdl,
        num_docs=stats.num_docs,
        total_tokens=stats.total_tokens,
        params=params,
        term=posting.term,
    )


def _raise_with_doc_context(index, bag: QueryBag, posting, model: str, params: ModelParams):
    """Replay a failed posting list with the scalar scorer to name the document."""
    term = posting.term
    stats = index.stats
    for iid, tf in zip(posting.ids.tolist(), posting.tfs.tolist()):
        ev = TermEvidence(
            tf=tf,
            qtf=bag.terms[term],
            df=posting.df,
            cf=posting.cf,
            dl=int(index.doc_table.lengths[iid]),
            avgdl=stats.avgdl,
            num_docs=stats.num_docs,
            total_tokens=stats.total_tokens,
        )
        try:
            score_term(model, ev, params)
        except ScoringDomainError as exc:
            raise ScoringDomainError(
                exc.model, term, exc.detail, qid=bag.qid, docid=index.doc_table.docids[iid]
            ) from None


def _raise_non_finite(index, bag: QueryBag, model: str, params: ModelParams, iid: int):
    """Replay the query's posting lists for one document whose accumulated
    score is not finite, to name the term at which it stopped being finite."""
    total = 0.0
    for term in sorted(bag.terms):
        posting = index.lookup(term)
        if posting is None:
            continue
        at = int(np.searchsorted(posting.ids, iid))
        if at == posting.df or posting.ids[at] != iid:
            continue
        total += float(_term_scores(index, bag, posting, model, params)[at])
        if not math.isfinite(total):
            break
    raise ScoringDomainError(
        model, term, f"non-finite score {total!r}", qid=bag.qid, docid=index.doc_table.docids[iid]
    )


def oracle_rank(docs, bag: QueryBag, model: str, cfg: AnalyzerConfig, params: ModelParams | None = None, k: int | None = 1000) -> RankedList:
    """Reference ranker: recompute all statistics from raw documents and score
    every matching document by direct formula evaluation. Test/verification use."""
    check_model_id(model)
    params = params or ModelParams()
    analyzed: list[tuple[str, Counter]] = []
    term_stats: dict[str, list[int]] = {}
    total_tokens = 0
    for doc in docs:
        counts = Counter(analyze(doc.text, cfg))
        analyzed.append((doc.docid, counts))
        total_tokens += sum(counts.values())
        for term, tf in counts.items():
            entry = term_stats.setdefault(term, [0, 0])
            entry[0] += 1
            entry[1] += tf
    num_docs = len(analyzed)
    if num_docs == 0:
        return RankedList(qid=bag.qid)
    avgdl = total_tokens / num_docs
    stats = {t: (df, cf) for t, (df, cf) in term_stats.items()}
    scored: list[tuple[float, str]] = []
    for docid, counts in analyzed:
        if not any(term in counts for term in bag.terms):
            continue
        try:
            value = score_document(
                model,
                bag.terms,
                counts,
                stats,
                dl=sum(counts.values()),
                avgdl=avgdl,
                num_docs=num_docs,
                total_tokens=total_tokens,
                params=params,
            )
        except ScoringDomainError as exc:
            raise exc.with_context(qid=bag.qid, docid=docid) from None
        scored.append((value, docid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    if k is not None:
        scored = scored[:k]
    return RankedList(
        qid=bag.qid,
        entries=[(docid, r, value) for r, (value, docid) in enumerate(scored, start=1)],
    )


def format_run_line(qid: str, docid: str, rank_: int, score: float, tag: str) -> str:
    return f"{qid} Q0 {docid} {rank_} {score:.6f} {tag}"


def write_run(ranked_lists, tag: str, out) -> int:
    """Write standard 6-column run lines to a path or an open text file (see
    `util.writing`); returns the number of lines.

    Each ranked list is one `%` format of its `format_run_line` lines and one
    write; the whole run is never built as one string. A path is written all
    or nothing: if `ranked_lists` raises partway, the path is left as it was.
    """
    n = 0
    tag = tag.replace("%", "%%")
    with writing(out) as fh:
        for rl in ranked_lists:
            line = rl.qid.replace("%", "%%") + " Q0 %s %d %.6f " + tag + "\n"
            fh.write(line * len(rl.entries) % tuple(chain.from_iterable(rl.entries)))
            n += len(rl.entries)
    return n
