"""The benchmark's three workloads, their output checks and their metrics.

One client drives everything as a closed loop: each stage runs in its own
child process (`child.py`), one at a time, and the next starts only when the
previous one has exited. Each child's own peak RSS comes from `os.wait4` in
`launcher.py`; `RUSAGE_CHILDREN` would give the running maximum over all
children instead. Outputs are checked outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
from tracer import Summary

from girit.analysis import AnalyzerConfig
from girit.index import Index
from girit.models import MODEL_IDS, ModelParams, score_document
from girit.retrieval import build_query, rank

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
INDEX_FILES = ("header.json", "doctable.bin", "lexicon.bin", "postings.bin")
RUN_LIMIT_S = 175

# all three workloads index the same seeded corpus
DOCS = 10_000
REPLICATE_TOPICS = 50
SPILL_BUDGET_MB = 16
COLD_TOPICS = 1000
# a wide band, so that most of the cold loop's lookups decode a posting list
COLD_BAND = (50, 20_000)
SETUP_REPEATS = 7
LEDGER_TOPICS = {"replicate": 3, "query-cold": 20}
LEDGER_TOP = 10
STAGES = ("index", "run_before", "expand", "run_after", "eval_before", "eval_after", "compare")

# contract metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "bytes_per_posting": ("B", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

PER_LAYER = {
    "corpus.parse_s": ("s", "lower"),
    "corpus.docs": ("count", "higher"),
    "corpus.bytes": ("B", "higher"),
    "analysis.tokenize_s": ("s", "lower"),
    "analysis.analyze_s": ("s", "lower"),
    "analysis.tokens": ("count", "higher"),
    "analysis.normalize_calls": ("count", "lower"),
    "analysis.normalize_per_type": ("ratio", "lower"),
    "index.build_s": ("s", "lower"),
    "index.spill_runs": ("count", "lower"),
    "index.postings": ("count", "higher"),
    "index.load_s": ("s", "lower"),
    "index.lookups": ("count", "lower"),
    "index.lookup_s": ("s", "lower"),
    "index.decode_ratio": ("ratio", "lower"),
    "index.dir_bytes": ("B", "lower"),
    "util.encode_s": ("s", "lower"),
    "util.encoded_values": ("count", "lower"),
    "util.decode_s": ("s", "lower"),
    "util.decoded_values": ("count", "lower"),
    "util.checksum_s": ("s", "lower"),
    "util.checksum_bytes": ("B", "lower"),
    "models.score_s": ("s", "lower"),
    "models.postings_scored": ("count", "lower"),
    "models.ns_per_posting": ("ns", "lower"),
    "retrieval.rank_self_s": ("s", "lower"),
    "retrieval.candidates": ("count", "lower"),
    "retrieval.kept_per_returned": ("ratio", "lower"),
    "retrieval.build_query_s": ("s", "lower"),
    "retrieval.parse_topics_s": ("s", "lower"),
    "retrieval.write_run_s": ("s", "lower"),
    "retrieval.run_lines": ("count", "higher"),
    "retrieval.query_ms_p50": ("ms", "lower"),
    "retrieval.query_ms_p95": ("ms", "lower"),
    "retrieval.query_ms_p99": ("ms", "lower"),
    "expansion.load_thesaurus_s": ("s", "lower"),
    "expansion.expand_s": ("s", "lower"),
    "expansion.added_terms": ("count", "higher"),
    "evaluation.parse_run_s": ("s", "lower"),
    "evaluation.run_lines_parsed": ("count", "higher"),
    "evaluation.parse_qrels_s": ("s", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.compare_s": ("s", "lower"),
    **{f"cli.{stage}_s": ("s", "lower") for stage in STAGES},
    **{f"cli.{stage}_peak_rss_mb": ("MiB", "lower") for stage in STAGES},
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Child:
    """One finished child process. `ok` is exit code 0, or, for a `girit run`
    stage, exit code 2 because some models aborted on a scoring-domain error."""

    def __init__(self, stage, ok, wall_s, rss_mb, result, spans, err):
        self.stage = stage
        self.ok = ok
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.result = result
        self.spans = spans
        self.err = err


class Bench:
    """One benchmark run: its work directory, child processes and checks.

    Children are started one at a time through `launcher.py`; close the
    bench to stop the launcher."""

    def __init__(self, root, work, seed, seconds):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        paths = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.launcher = subprocess.Popen(
            [sys.executable, LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=root, text=True,
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        self._children = 0

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def check(self, ok: bool, what: str) -> bool:
        return self.tally(1, 0 if ok else 1, what) == 0

    def tally(self, attempted: int, failed: int, what: str) -> int:
        """Count `attempted` operations of which `failed` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what} ({failed} of {attempted})")
        return failed

    def note(self, name: str, value, unit: str = "") -> None:
        self.lines.append(f"{name} {value} {unit}".rstrip())

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def child(self, stage: str, mode: str, args, traced: bool = False) -> Child:
        """Run one child to its end; a failed exit counts as a failed operation."""
        base = self.path(f"{self._children:03d}-{stage}")
        self._children += 1
        spans = base + ".npz" if traced else "-"
        request = {
            "cmd": [sys.executable, CHILD, base + ".json", spans, stage, mode, *args],
            "out": base + ".out",
            "err": base + ".err",
            "limit_s": max(1.0, self.deadline - time.monotonic()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        code = reply["code"]
        result = {}
        if os.path.exists(base + ".json"):
            with open(base + ".json", encoding="utf-8") as fh:
                result = json.load(fh)
        with open(base + ".err", encoding="utf-8", errors="replace") as fh:
            err_text = fh.read()
        # `girit run` exits 2 when a model aborts; the caller counts those models
        ok = code == 0 or (code == 2 and args[:1] == ["run"] and ": aborted:" in err_text)
        self.check(ok, f"{stage}: exit code {code}: {err_text[-500:]}")
        return Child(stage, ok, reply["wall_s"], reply["rss_mb"], result, spans if traced else None, err_text)

    def repeat(self, op, traced: bool) -> list:
        """Untraced: `op` again and again until the measured seconds are
        used up; an operation is never cut short. Traced: once untraced,
        then once traced."""
        if traced:
            return [op(0, False), op(1, True)]
        results = []
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            results.append(op(len(results), False))
        return results

    def setup_s(self, index_dir: str) -> float:
        """Median wall time of a fresh process that imports girit and loads the index."""
        return statistics.median(
            self.child("setup", "setup", [index_dir]).wall_s for _ in range(SETUP_REPEATS)
        )


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digests(path) -> dict[str, str]:
    """SHA-256 of a file, or of the index files / all files of a directory."""
    if not os.path.isdir(path):
        return {"": _digest(path)}
    names = INDEX_FILES if os.path.exists(os.path.join(path, INDEX_FILES[0])) else sorted(os.listdir(path))
    return {name: _digest(os.path.join(path, name)) for name in names}


def _index_stats(index_dir) -> dict[str, int]:
    stats = {}
    with open(os.path.join(index_dir, "stats.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, value = line.split(":")
            stats[key] = int(value)
    return stats


def _index_shape(bench: Bench, index_dir) -> dict:
    """Exact posting count and on-disk size of an index, plus its collection stats."""
    idx = Index.load(index_dir)
    postings = sum(idx.term_stats(t)[0] for t in idx.terms())
    stats = _index_stats(index_dir)
    shape = {
        "docs": stats["num_documents"],
        "tokens": stats["num_tokens"],
        "vocabulary": stats["vocabulary_size"],
        "postings": postings,
        "postings_bytes": os.path.getsize(os.path.join(index_dir, "postings.bin")),
        "dir_bytes": sum(os.path.getsize(os.path.join(index_dir, n)) for n in INDEX_FILES),
    }
    for key in ("docs", "tokens", "vocabulary", "postings"):
        bench.note(f"input.{key}", shape[key], "count")
    return shape


def _spills(child: Child) -> int:
    return sum(1 for line in child.err.splitlines() if "girit.index: spilling" in line)


def _run_file(path, qids) -> dict[str, list[tuple[str, str]]]:
    """(docid, score text) per qid in `qids`, in file order."""
    out: dict[str, list[tuple[str, str]]] = {q: [] for q in qids}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid = line.split(" ", 1)[0]
            if qid in out:
                _, _, docid, _, score, _ = line.split()
                out[qid].append((docid, score))
    return out


def _ledger_check(bench: Bench, index_dir, topics, run_files: dict[str, str], count: int) -> None:
    """For a seeded sample of topics and every model in `run_files`: the ranking
    follows (score desc, docid asc), its top scores match the scalar ledger
    path (`score_document` over index statistics) within 1e-9 relative (with
    the floor of 1 that `girit verify` uses), and the run file written by the
    program holds exactly that ranking."""
    idx = Index.load(index_dir)
    stats = idx.stats
    params = ModelParams()
    sample = random.Random(bench.seed).sample(topics, count)
    files = {m: _run_file(p, {t.qid for t in sample}) for m, p in run_files.items()}
    for topic in sample:
        bag = build_query(topic, "TD", idx.cfg)
        postings = {t: idx.lookup(t) for t in bag.terms if t in idx}
        term_stats = {t: idx.term_stats(t) for t in postings}
        for model in run_files:
            ranked = rank(idx, bag, model, params, k=1000)
            keys = [(-score, docid) for docid, _, score in ranked.entries]
            ok = bool(keys) and all(a < b for a, b in zip(keys, keys[1:]))
            for docid, _, score in ranked.entries[:LEDGER_TOP]:
                iid = idx.doc_table.internal_id(docid)
                doc_tfs = {}
                for term, posting in postings.items():
                    j = int(np.searchsorted(posting.ids, iid))
                    if j < len(posting.ids) and posting.ids[j] == iid:
                        doc_tfs[term] = int(posting.tfs[j])
                ref = score_document(
                    model, bag.terms, doc_tfs, term_stats,
                    dl=int(idx.doc_table.lengths[iid]), avgdl=stats.avgdl,
                    num_docs=stats.num_docs, total_tokens=stats.total_tokens, params=params,
                )
                ok = ok and abs(score - ref) <= 1e-9 * max(1.0, abs(ref))
            written = [(docid, f"{score:.6f}") for docid, _, score in ranked.entries]
            ok = ok and files[model][topic.qid] == written
            bench.check(ok, f"ledger/order/run-file check failed: {topic.qid} {model}")


def _median(values) -> float:
    return float(statistics.median(values))


def _percentiles(samples) -> dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = np.percentile(np.asarray(samples), [50, 95, 99])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _layers(children: list[Child], shape: dict, stages: dict[str, Child], query_ms=None) -> dict:
    """Per-layer metrics of one traced operation. Every `_s` is self time:
    a span's duration minus that of the spans it called."""
    s = Summary()
    for c in children:
        if c.spans:
            s.add_file(c.spans)
    lookups = s.calls("index.lookup")
    score_s = s.seconds("models.score_postings")
    scored = s.count("models.postings_scored")
    latency = _percentiles(query_ms if query_ms is not None else s.rank_ms)
    layers = {
        "corpus.parse_s": s.seconds("corpus.parse_corpus"),
        "corpus.docs": s.count("corpus.docs"),
        "corpus.bytes": s.count("corpus.bytes"),
        "analysis.tokenize_s": s.seconds("analysis.tokenize"),
        "analysis.analyze_s": s.seconds("analysis.analyze"),
        "analysis.tokens": s.count("analysis.tokens"),
        "analysis.normalize_calls": s.count("analysis.normalize_calls"),
        "analysis.normalize_per_type": _ratio(
            s.count("analysis.normalize_calls"), s.count("analysis.normalized_types")
        ),
        "index.build_s": s.seconds("index.build_index_to_dir"),
        "index.spill_runs": s.count("index.spill_runs"),
        "index.postings": shape["postings"],
        "index.load_s": s.seconds("index.load"),
        "index.lookups": lookups,
        "index.lookup_s": s.seconds("index.lookup"),
        "index.decode_ratio": _ratio(s.calls("util.decode_varints"), lookups),
        "index.dir_bytes": shape["dir_bytes"],
        "util.encode_s": s.seconds("util.encode_varints"),
        "util.encoded_values": s.count("util.encoded_values"),
        "util.decode_s": s.seconds("util.decode_varints"),
        "util.decoded_values": s.count("util.decoded_values"),
        "util.checksum_s": s.seconds("util.checksum64"),
        "util.checksum_bytes": s.count("util.checksum_bytes"),
        "models.score_s": score_s,
        "models.postings_scored": scored,
        "models.ns_per_posting": _ratio(score_s * 1e9, scored),
        "retrieval.rank_self_s": s.seconds("retrieval.rank"),
        "retrieval.candidates": _ratio(s.count("retrieval.candidates"), s.count("retrieval.rank_calls")),
        "retrieval.kept_per_returned": _ratio(s.count("retrieval.kept"), s.count("retrieval.returned")),
        "retrieval.build_query_s": s.seconds("retrieval.build_query"),
        "retrieval.parse_topics_s": s.seconds("retrieval.parse_topics"),
        "retrieval.write_run_s": s.seconds("retrieval.write_run"),
        "retrieval.run_lines": s.count("retrieval.run_lines"),
        "retrieval.query_ms_p50": latency["p50"],
        "retrieval.query_ms_p95": latency["p95"],
        "retrieval.query_ms_p99": latency["p99"],
        "expansion.load_thesaurus_s": s.seconds("expansion.load_thesaurus"),
        "expansion.expand_s": s.seconds("expansion.expand_query"),
        "expansion.added_terms": s.count("expansion.added_terms"),
        "evaluation.parse_run_s": s.seconds("evaluation.parse_run"),
        "evaluation.run_lines_parsed": s.count("evaluation.run_lines_parsed"),
        "evaluation.parse_qrels_s": s.seconds("evaluation.parse_qrels"),
        "evaluation.evaluate_s": s.seconds("evaluation.evaluate_run"),
        "evaluation.compare_s": s.seconds("evaluation.compare"),
        "cli.import_s": _median(c.result.get("import_s", 0.0) for c in children),
    }
    for stage in STAGES:
        child = stages.get(stage)
        layers[f"cli.{stage}_s"] = child.wall_s if child else 0.0
        layers[f"cli.{stage}_peak_rss_mb"] = child.rss_mb if child else 0.0
    return layers


class Outcome:
    """What a workload measured: the contract metrics it owns, the metrics
    named after the stages they come from, and the index set-up loads."""

    def __init__(self, index_dir, shape, wall_s, items_per_s, peak_rss_mb, report, layers=None):
        self.index_dir = index_dir
        self.shape = shape
        self.wall_s = wall_s
        self.items_per_s = items_per_s
        self.peak_rss_mb = peak_rss_mb
        self.report = report
        self.layers = layers


# -- replicate ---------------------------------------------------------------


def replicate(bench: Bench, traced: bool) -> Outcome | None:
    """index -> run -> expand -> run -> eval x2 -> compare through `girit.cli.main`."""
    corpus = bench.path("corpus.trec")
    topics_path = bench.path("topics.txt")
    qrels = bench.path("qrels.txt")
    thesaurus = bench.path("thesaurus.tsv")
    inputs.write_corpus(corpus, DOCS, bench.seed)
    topics = inputs.write_topic_file(topics_path, bench.seed, REPLICATE_TOPICS)
    judged = inputs.write_judgments(corpus, bench.seed, topics, qrels, thesaurus)
    _note_topics(bench, topics)
    bench.note("input.relevant", judged["relevant"], "count")
    bench.note("input.thesaurus_lines", judged["thesaurus_lines"], "count")
    cutoff = ["--cutoff", "1000"]
    run = ["--fields", "TD", "--models", "all", *cutoff, "--tag", "girit"]

    def sequence(rep: int, trace_it: bool) -> dict:
        out = bench.path(f"seq{rep}")
        d = lambda name: os.path.join(out, name)  # noqa: E731
        stages = [
            ("index", ["index", "--corpus", corpus, "--index-dir", d("idx"), "--verbose"]),
            ("run_before", ["run", "--index-dir", d("idx"), "--topics", topics_path, *run,
                            "--output-dir", d("runs_before")]),
            ("expand", ["expand", "--topics", topics_path, "--thesaurus", thesaurus,
                        "--index-dir", d("idx"), "--fields", "TD", "--output", d("topics.expanded.txt")]),
            ("run_after", ["run", "--index-dir", d("idx"), "--topics", d("topics.expanded.txt"), *run,
                           "--output-dir", d("runs_after")]),
            ("eval_before", ["eval", "--runs", d("runs_before"), "--qrels", qrels, *cutoff,
                             "--output-dir", d("eval_before")]),
            ("eval_after", ["eval", "--runs", d("runs_after"), "--qrels", qrels, *cutoff,
                            "--output-dir", d("eval_after")]),
            ("compare", ["compare", "--before", d("eval_before"), "--after", d("eval_after"),
                         "--output-dir", d("report")]),
        ]
        os.makedirs(out)
        children = {}
        start = time.perf_counter()
        for stage, args in stages:
            children[stage] = bench.child(stage, "cli", args, trace_it)
            if not children[stage].ok:
                return {}
        return {"dir": out, "stages": stages, "children": children, "total_s": time.perf_counter() - start}

    seqs = bench.repeat(sequence, traced)
    if not all(seqs):
        return None
    first = seqs[0]
    index_dir = os.path.join(first["dir"], "idx")
    before = os.path.join(first["dir"], "runs_before")
    for s in seqs:
        for stage in ("run_before", "run_after"):
            aborted = s["children"][stage].err.count(": aborted:")
            bench.tally(len(MODEL_IDS), aborted, f"{stage}: models aborted by a scoring-domain error")
        with open(os.path.join(s["dir"], "report", "comparison.csv"), encoding="utf-8") as fh:
            rows = len(fh.read().splitlines()) - 1
        bench.check(rows == len(MODEL_IDS), f"comparison.csv has {rows} model rows")
    # a later (or traced) sequence repeats the first one's outputs
    for s in seqs[1:]:
        for part in ("idx", "runs_before", "runs_after", "topics.expanded.txt", "report"):
            bench.check(_digests(os.path.join(s["dir"], part)) == _digests(os.path.join(first["dir"], part)),
                        f"{part} differs between sequences")
    # determinism: the first sequence's `run` (all models) and `expand` stages,
    # run again untimed on its index, write the same files
    stages = dict(first["stages"])
    again = bench.path("again")
    os.makedirs(again)
    for stage, out in (("run_before", "runs_before"), ("expand", "topics.expanded.txt")):
        args = [os.path.join(again, out) if a == os.path.join(first["dir"], out) else a for a in stages[stage]]
        if bench.child(f"{stage}_again", "cli", args).ok:
            bench.check(_digests(os.path.join(again, out)) == _digests(os.path.join(first["dir"], out)),
                        f"{out} differs when its stage runs again")
    written = {m: os.path.join(before, f"girit.{m}.run") for m in MODEL_IDS}
    _ledger_check(bench, index_dir, topics, {m: p for m, p in written.items() if os.path.exists(p)},
                  LEDGER_TOPICS["replicate"])

    shape = _index_shape(bench, index_dir)
    bench.note("input.spill_runs", _spills(first["children"]["index"]), "count")
    run_lines = 0
    run_files = 0
    for runs in ("runs_before", "runs_after"):
        for name in os.listdir(os.path.join(first["dir"], runs)):
            run_files += 1
            with open(os.path.join(first["dir"], runs, name), "rb") as fh:
                run_lines += fh.read().count(b"\n")
    pairs = len(topics) * run_files
    plain = seqs[:1] if traced else seqs

    def med(fn) -> float:
        return _median(fn(s["children"]) for s in plain)

    def wall(c, *stages):
        return sum(c[n].wall_s for n in stages)

    report = {
        "replicate_s": (_median(s["total_s"] for s in plain), "s"),
        "index_tokens_per_s": (med(lambda c: shape["tokens"] / c["index"].wall_s), "tok/s"),
        "index_peak_rss_mb": (med(lambda c: c["index"].rss_mb), "MiB"),
        "run_qm_per_s": (med(lambda c: pairs / wall(c, "run_before", "run_after")), "1/s"),
        "run_peak_rss_mb": (med(lambda c: max(c["run_before"].rss_mb, c["run_after"].rss_mb)), "MiB"),
        "eval_lines_per_s": (med(lambda c: run_lines / wall(c, "eval_before", "eval_after")), "1/s"),
    }
    for stage in STAGES:
        report[f"stage.{stage}_s"] = (med(lambda c: c[stage].wall_s), "s")
    layers = None
    if traced:
        children = seqs[1]["children"]
        layers = _layers(list(children.values()), shape, children)
        layers["trace.overhead_ratio"] = seqs[1]["total_s"] / seqs[0]["total_s"] - 1
    return Outcome(
        index_dir, shape,
        wall_s=report["replicate_s"][0],
        items_per_s=report["run_qm_per_s"][0],
        peak_rss_mb=med(lambda c: max(x.rss_mb for x in c.values())),
        report=report, layers=layers,
    )


# -- index-spill -------------------------------------------------------------


def index_spill(bench: Bench, traced: bool) -> Outcome | None:
    """`girit index` alone, under a budget low enough to spill several runs."""
    corpus = bench.path("corpus.trec")
    inputs.write_corpus(corpus, DOCS, bench.seed)
    reference = _default_index(bench, corpus)
    if reference is None:
        return None
    reference = _digests(reference)

    def build(rep: int, trace_it: bool) -> Child:
        out = bench.path(f"spill{rep}")
        return bench.child("index", "cli", ["index", "--corpus", corpus, "--index-dir", out,
                                            "--memory-budget-mb", str(SPILL_BUDGET_MB), "--verbose"], trace_it)

    builds = bench.repeat(build, traced)
    if not all(c.ok for c in builds):
        return None
    for rep, c in enumerate(builds):
        bench.check(_digests(bench.path(f"spill{rep}")) == reference,
                    "spilled index differs from the default-budget build")
        bench.check(_spills(c) >= 2, f"only {_spills(c)} spill runs at {SPILL_BUDGET_MB} MiB")
    index_dir = bench.path("spill0")
    shape = _index_shape(bench, index_dir)
    bench.note("input.spill_runs", _spills(builds[0]), "count")
    plain = builds[:1] if traced else builds
    report = {
        "index_s": (_median(c.wall_s for c in plain), "s"),
        "index_tokens_per_s": (_median(shape["tokens"] / c.wall_s for c in plain), "tok/s"),
        "index_peak_rss_mb": (_median(c.rss_mb for c in plain), "MiB"),
    }
    layers = None
    if traced:
        layers = _layers(builds[1:], shape, {"index": builds[1]})
        layers["trace.overhead_ratio"] = builds[1].wall_s / builds[0].wall_s - 1
    return Outcome(
        index_dir, shape,
        wall_s=report["index_s"][0],
        items_per_s=report["index_tokens_per_s"][0],
        peak_rss_mb=report["index_peak_rss_mb"][0],
        report=report, layers=layers,
    )


def _default_index(bench: Bench, corpus) -> str | None:
    """A default-budget build of the corpus by the program under test, made
    untimed in this run's work directory."""
    out = bench.path("default-index")
    if not bench.child("build", "cli", ["index", "--corpus", corpus, "--index-dir", out]).ok:
        return None
    return out


# -- query-cold --------------------------------------------------------------


def query_cold(bench: Bench, traced: bool) -> Outcome | None:
    """One process ranks many topics under BM25, in passes that each start
    with a fresh `Index.load`."""
    corpus = bench.path("corpus.trec")
    topics_path = bench.path("topics.txt")
    inputs.write_corpus(corpus, DOCS, bench.seed)
    topics = inputs.write_topic_file(topics_path, bench.seed, COLD_TOPICS, band=COLD_BAND)
    _note_topics(bench, topics)
    index_dir = _default_index(bench, corpus)
    if index_dir is None:
        return None

    def loop(rep: int, trace_it: bool) -> Child:
        # a traced child makes one pass; an untraced one passes for the whole run
        seconds = 0 if trace_it else bench.seconds
        return bench.child("query", "query", [index_dir, topics_path, bench.path(f"cold{rep}.run"), str(seconds)],
                           trace_it)

    loops = bench.repeat(loop, traced)
    if not all(c.ok for c in loops):
        return None
    for rep, c in enumerate(loops):
        for p in c.result["passes"]:
            bench.tally(len(topics), len(topics) - p["topics"], "topics not ranked")
            bench.check(p["same"], "a pass ranks differently from the first pass")
        bench.check(_digests(bench.path(f"cold{rep}.run")) == _digests(bench.path("cold0.run")),
                    "run file differs between repetitions")
    _ledger_check(bench, index_dir, topics, {"BM25": bench.path("cold0.run")}, LEDGER_TOPICS["query-cold"])
    shape = _index_shape(bench, index_dir)
    plain = loops[:1] if traced else loops
    plain_passes = [p for c in plain for p in c.result["passes"]]
    latency = _percentiles([ms for c in plain for ms in c.result["query_ms"]])
    report = {
        "query_per_s": (sum(p["topics"] for p in plain_passes) / sum(p["loop_s"] for p in plain_passes), "1/s"),
        "query_ms_p50": (latency["p50"], "ms"),
        "query_ms_p95": (latency["p95"], "ms"),
        "query_samples": (sum(p["topics"] for p in plain_passes), "count"),
        "run_peak_rss_mb": (_median(c.rss_mb for c in plain), "MiB"),
        "pass_s": (sum(p["pass_s"] for p in plain_passes) / len(plain_passes), "s"),
    }
    layers = None
    if traced:
        layers = _layers(loops[1:], shape, {}, query_ms=loops[1].result["query_ms"])
        layers["trace.overhead_ratio"] = loops[1].result["passes"][0]["pass_s"] / report["pass_s"][0] - 1
    return Outcome(
        index_dir, shape,
        wall_s=report["pass_s"][0],
        items_per_s=report["query_per_s"][0],
        peak_rss_mb=report["run_peak_rss_mb"][0],
        report=report, layers=layers,
    )


def _note_topics(bench: Bench, topics) -> None:
    terms = {t for ts in inputs.topic_terms(topics, AnalyzerConfig()) for t in ts}
    bench.note("input.topics", len(topics), "count")
    bench.note("input.topic_terms", len(terms), "count")


WORKLOADS = {"replicate": replicate, "index-spill": index_spill, "query-cold": query_cold}
