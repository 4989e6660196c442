"""Seeded benchmark inputs: corpus, topics, qrels and a thesaurus.

The corpus and topics come from `girit.synth`. Qrels and the thesaurus are
derived here from term co-occurrence in the generated corpus text, so the
same seed always gives the same files, byte for byte.
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict

from girit import synth
from girit.analysis import AnalyzerConfig, analyze
from girit.retrieval import write_topics

# a topic's relevant documents: the ones sharing the most distinct TD terms
# with it, at least two, at most this many
RELEVANT_PER_TOPIC = 100
SYNONYMS_PER_TERM = 2
# topic terms and synonyms come from this rank band of the 60k vocabulary,
# where every weighting model stays inside its numeric domain
BAND = (50, 3000)

_DOC_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>\n<TEXT>(.*?)</TEXT>", re.S)


def write_corpus(path, num_docs: int, seed: int) -> int:
    """`synth.write_large_corpus` (60k vocabulary); returns tokens written."""
    return synth.write_large_corpus(path, num_docs, seed)


def write_topic_file(path, seed: int, num_topics: int, band=BAND):
    topics = synth.synth_topics_for_vocab(seed, num_topics, band=band)
    write_topics(topics, path)
    return topics


def topic_terms(topics, cfg: AnalyzerConfig) -> list[list[str]]:
    """Distinct TD terms per topic, in first-seen order."""
    return [
        list(dict.fromkeys(analyze(f"{t.title}\n{t.description}", cfg))) for t in topics
    ]


def write_judgments(corpus_path, seed: int, topics, qrels_path, thesaurus_path) -> dict:
    """Qrels and thesaurus from co-occurrence in the corpus text.

    Relevant documents of a topic are those containing the most distinct TD
    terms of the topic (at least two; ties by docid). Each TD term becomes a
    thesaurus headword. Its synonyms are band terms, other than the topic's
    own, that occur in at least two of the topic's relevant documents, taken
    by how much more often they occur there than in the whole collection.
    So expansion adds terms with real postings that lead to relevant documents.
    """
    cfg = AnalyzerConfig()
    terms = topic_terms(topics, cfg)
    wanted = {t for own in terms for t in own}
    band = set(synth.make_words(60000, random.Random(seed))[BAND[0] : BAND[1]])
    with open(corpus_path, encoding="utf-8") as fh:
        text = fh.read()
    docids = []
    banded = []
    df = Counter()
    docs_with = defaultdict(list)  # topic term -> indices of the documents holding it
    for m in _DOC_RE.finditer(text):
        docids.append(m.group(1))
        banded.append(band.intersection(m.group(2).split()))
        df.update(banded[-1])
        for t in banded[-1] & wanted:
            docs_with[t].append(len(docids) - 1)

    qrels = []
    thesaurus = []
    relevant_total = 0
    for topic, own in zip(topics, terms):
        own_set = set(own)
        overlap = Counter(i for t in own_set for i in docs_with[t])
        scored = sorted((-n, docids[i], i) for i, n in overlap.items() if n >= 2)
        relevant = [(docid, i) for _, docid, i in scored[:RELEVANT_PER_TOPIC]]
        relevant_total += len(relevant)
        qrels.extend(f"{topic.qid} 0 {docid} 1" for docid, _ in relevant)
        cooccur = Counter()
        for _, i in relevant:
            cooccur.update(banded[i] - own_set)
        synonyms = sorted(
            (t for t, n in cooccur.items() if n >= 2),
            key=lambda t: (-cooccur[t] / df[t], -cooccur[t], t),
        )
        for j, head in enumerate(own):
            picked = synonyms[j * SYNONYMS_PER_TERM : (j + 1) * SYNONYMS_PER_TERM]
            if picked:
                thesaurus.append(f"{head}\t{'|'.join(picked)}")
    with open(qrels_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(qrels) + "\n")
    with open(thesaurus_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(thesaurus) + "\n")
    return {"relevant": relevant_total, "thesaurus_lines": len(thesaurus)}
