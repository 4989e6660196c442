"""Spans around the girit functions each layer exposes, recorded from outside.

`install` replaces a public function at every name its callers use (for
example `girit.cli.rank` and `girit.retrieval.rank`) with a wrapper that
records a span: name, start, end, parent span and request id. `normalize`
runs millions of times per build, so it is counted, not spanned. Spans stay
in flat arrays until `Tracer.save` writes them out; `Summary` derives self
times from them (a span's duration minus the durations of its children).
"""

from __future__ import annotations

import json
import logging
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, request: str):
        self.names: list[str] = []
        self.requests: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.normalized_types: set[str] = set()
        # (posting ids, scores) of the rank call in progress
        self.pending_ids = None
        self.pending: list = []
        self.set_request(request)

    def _intern(self, table: list[str], kind: str, value: str) -> int:
        key = (kind, value)
        if key not in self._ids:
            self._ids[key] = len(table)
            table.append(value)
        return self._ids[key]

    def set_request(self, request_id: str) -> None:
        self.request = self._intern(self.requests, "req", request_id)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.req.append(self.request)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span around each call; `observe(args, kwargs, result)`
        runs after the span is closed."""
        name_id = self._intern(self.names, "name", name)

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn, observe_item):
        """`fn` returns an iterator; each step of it becomes one span."""
        name_id = self._intern(self.names, "name", name)

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def steps():
                while True:
                    sid = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    observe_item(item)
                    yield item

            return steps()

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        meta = {
            "names": self.names,
            "requests": self.requests,
            "counts": self.counts,
            "normalized_types": len(self.normalized_types),
        }
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            req=np.frombuffer(self.req, dtype=np.int32),
            meta=np.array(json.dumps(meta)),
        )


class _SpillCounter(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("spilling"):
            self.tracer.add("index.spill_runs")


def install(tracer: Tracer) -> None:
    """Put the tracing wrappers in place; call before `girit.cli.main`."""
    import girit.analysis as analysis
    import girit.cli as cli
    import girit.expansion as expansion
    import girit.index as index
    import girit.retrieval as retrieval
    import girit.util as util

    def patch(name, targets, observe=None, iterator=None):
        owner, attr = targets[0]
        original = getattr(owner, attr)
        if iterator is not None:
            wrapper = tracer.wrap_iter(name, original, iterator)
        else:
            wrapper = tracer.wrap(name, original, observe)
        for owner, attr in targets:
            setattr(owner, attr, wrapper)

    add = tracer.add

    def parsed_doc(doc):
        add("corpus.docs")
        add("corpus.bytes", len(doc.text.encode("utf-8")))

    patch("corpus.parse_corpus", [(cli, "parse_corpus")], iterator=parsed_doc)
    patch(
        "analysis.analyze",
        [(index, "analyze"), (retrieval, "analyze"), (expansion, "analyze")],
        lambda a, k, r: add("analysis.tokens", len(r)),
    )
    patch("analysis.tokenize", [(analysis, "tokenize")])

    normalize = analysis.normalize
    types = tracer.normalized_types

    def counted_normalize(token, cfg):
        tracer.counts["analysis.normalize_calls"] = tracer.counts.get("analysis.normalize_calls", 0) + 1
        types.add(token)
        return normalize(token, cfg)

    analysis.normalize = counted_normalize

    patch("index.build_index_to_dir", [(cli, "build_index_to_dir")])
    load = index.Index.load.__func__
    index.Index.load = classmethod(tracer.wrap("index.load", load))

    def looked_up(args, kwargs, posting):
        if posting is not None:
            tracer.pending_ids = posting.ids

    patch("index.lookup", [(index.Index, "lookup")], looked_up)
    patch(
        "util.encode_varints",
        [(index, "encode_varints")],
        lambda a, k, r: add("util.encoded_values", len(a[0])),
    )
    patch(
        "util.decode_varints",
        [(index, "decode_varints")],
        lambda a, k, r: add("util.decoded_values", a[2]),
    )
    patch(
        "util.checksum64",
        [(util, "checksum64")],
        lambda a, k, r: add("util.checksum_bytes", len(a[0])),
    )

    def scored(args, kwargs, scores):
        add("models.postings_scored", len(scores))
        tracer.pending.append((tracer.pending_ids, scores))

    patch("models.score_postings", [(retrieval, "score_postings")], scored)

    def ranked(args, kwargs, result):
        # Candidates and the partition's survivors, re-derived from the
        # postings and scores the call looked up, in the order it added them.
        idx, k = args[0], kwargs.get("k", 1000)
        acc = np.zeros(idx.stats.num_docs, dtype=np.float64)
        matched = np.zeros(idx.stats.num_docs, dtype=bool)
        for ids, scores in tracer.pending:
            acc[ids] += scores
            matched[ids] = True
        tracer.pending = []
        candidates = int(np.count_nonzero(matched))
        kept = candidates
        if k is not None and candidates > k and len(result.entries):
            kept = int(np.count_nonzero(acc[matched] >= result.entries[-1][2]))
        add("retrieval.rank_calls")
        add("retrieval.candidates", candidates)
        add("retrieval.kept", kept)
        add("retrieval.returned", len(result.entries))

    patch("retrieval.rank", [(cli, "rank"), (retrieval, "rank")], ranked)
    patch(
        "retrieval.build_query",
        [(cli, "build_query"), (retrieval, "build_query"), (expansion, "build_query")],
    )
    patch("retrieval.parse_topics", [(cli, "parse_topics"), (retrieval, "parse_topics")])
    patch(
        "retrieval.write_run",
        [(cli, "write_run"), (retrieval, "write_run")],
        lambda a, k, r: add("retrieval.run_lines", r),
    )
    patch("expansion.load_thesaurus", [(cli, "load_thesaurus")])
    patch(
        "expansion.expand_query",
        [(cli, "expand_query")],
        lambda a, k, r: add("expansion.added_terms", len(r.terms) - len(a[0].terms)),
    )
    patch(
        "evaluation.parse_run",
        [(cli, "parse_run")],
        lambda a, k, r: add("evaluation.run_lines_parsed", sum(len(rl) for rl in r.values())),
    )
    patch("evaluation.parse_qrels", [(cli, "parse_qrels")])
    patch("evaluation.evaluate_run", [(cli, "evaluate_run")])
    patch("evaluation.compare", [(cli, "compare")])

    index_log = logging.getLogger("girit.index")
    index_log.setLevel(logging.INFO)
    index_log.addHandler(_SpillCounter(tracer))


class Summary:
    """Per-name totals over the spans of one or more traced processes."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.spans: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.rank_ms: list[float] = []

    def add_file(self, path) -> None:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            start, end = data["start"], data["end"]
            name, parent = data["name"], data["parent"]
        dur = end - start
        inner = parent >= 0
        children = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        own = dur - children
        nnames = len(meta["names"])
        own_by_name = np.bincount(name, weights=own, minlength=nnames)
        spans_by_name = np.bincount(name, minlength=nnames)
        for i, n in enumerate(meta["names"]):
            self.self_s[n] = self.self_s.get(n, 0.0) + float(own_by_name[i])
            self.spans[n] = self.spans.get(n, 0) + int(spans_by_name[i])
        for key, value in meta["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.counts["analysis.normalized_types"] = (
            self.counts.get("analysis.normalized_types", 0) + meta["normalized_types"]
        )
        if "retrieval.rank" in meta["names"]:
            rank_id = meta["names"].index("retrieval.rank")
            self.rank_ms.extend((dur[name == rank_id] * 1e3).tolist())

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.spans.get(name, 0)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)
