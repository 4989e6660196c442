"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time

import pytest

import girit
from girit.analysis import AnalyzerConfig
from girit.cli import main as cli_main
from girit.corpus import RawDocument, parse_corpus, serialize_document, write_corpus
from girit.errors import IndexStoreError
from girit.evaluation import (
    CANONICAL_MODEL_ORDER,
    EvalSummary,
    compare,
    evaluate_run,
    parse_qrels,
    parse_run,
)
from girit.expansion import expand_query, load_thesaurus
from girit.index import Index, build_index
from girit.models import (
    DF_DECREASING_MODELS,
    MODEL_IDS,
    QTF_LINEAR_MODELS,
    ModelParams,
    TermEvidence,
    score_term,
)
from girit.retrieval import (
    QueryBag,
    RankedList,
    Topic,
    build_query,
    oracle_rank,
    parse_topics,
    rank,
    write_run,
    write_topics,
)
from girit.synth import (
    evidence_draws,
    pick_query_terms,
    synth_corpus,
    synth_experiment,
    synth_topics_for_vocab,
    write_large_corpus,
)


class _criterion:
    def __init__(self, label):
        self.label = label
        self.t0 = time.time()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.label}: {status} ({time.time() - self.t0:.1f}s)")
        return False


# Starts the command in argv with its output discarded, then prints its exit
# code and its peak RSS in KiB. A child's ru_maxrss starts at the high-water
# mark of the process that forked it, so this runs as a small process of its
# own between the test process and the command.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_measured(cmd):
    """Exit code and peak RSS in MiB of `cmd`, the girit sources importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(girit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *cmd], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    code, rss_kib = out.stdout.split()
    return int(code), int(rss_kib) / 1024


# (model, relevant-retrieved before, pct, after, pct, verdict)
RECALL_COMPARISON_FIXTURE = [
    ("BB2", 1195, "72", 1202, "72.5", "Improvement"),
    ("BM25", 1169, "70.5", 1176, "70.9", "Improvement"),
    ("DFI0", 1092, "65.8", 1107, "66.7", "Improvement"),
    ("DFR_BM25", 1172, "70.6", 1178, "71", "Improvement"),
    ("DFRee", 1058, "63.8", 1066, "64.3", "Improvement"),
    ("DirichletLM", 1138, "68.6", 1143, "68.9", "Improvement"),
    ("DLH", 1130, "68.1", 1145, "69", "Improvement"),
    ("DLH13", 1104, "66.5", 1108, "66.8", "Improvement"),
    ("DPH", 1109, "66.8", 1143, "68.9", "Improvement"),
    ("IFB2", 1236, "74.5", 1244, "75", "Improvement"),
    ("In_expB2", 1218, "73.4", 1225, "73.8", "Improvement"),
    ("In_expC2", 1226, "73.9", 1231, "74.2", "Improvement"),
    ("LemurTF_IDF", 1250, "75.3", 1252, "75.5", "Improvement"),
    ("PL2", 1150, "69.3", 1159, "69.9", "Improvement"),
    ("XSqrA_M", 1070, "64.5", 1084, "65.3", "Improvement"),
    ("TF_IDF", 1152, "69.4", 1164, "70.2", "Improvement"),
    ("Hiemstra_LM", 1164, "70.2", 1158, "69.8", "Fail"),
    ("InB2", 1195, "72", 1176, "70.9", "Fail"),
    ("InL2", 1159, "69.9", 1151, "69.4", "Fail"),
    ("Js_KLs", 1076, "64.9", 1076, "64.9", "Fail"),
    ("LGD", 1089, "65.6", 1089, "65.6", "Fail"),
]

RELEVANT_TOTAL = 1659


def test_c1_comparison_table_arithmetic():
    """All 42 percentages and the full verdict column, exact string match."""
    with _criterion("C1 comparison-table arithmetic"):
        before = {
            m: EvalSummary(model=m, total_relevant=RELEVANT_TOTAL, total_relevant_retrieved=b)
            for m, b, _, _, _, _ in RECALL_COMPARISON_FIXTURE
        }
        after = {
            m: EvalSummary(model=m, total_relevant=RELEVANT_TOTAL, total_relevant_retrieved=a)
            for m, _, _, a, _, _ in RECALL_COMPARISON_FIXTURE
        }
        report = compare(before, after)
        rows = {r.model: r for r in report.rows}
        assert len(report.rows) == 21
        for model, b, b_pct, a, a_pct, verdict in RECALL_COMPARISON_FIXTURE:
            row = rows[model]
            assert row.before_retrieved == b
            assert row.after_retrieved == a
            assert row.before_pct == b_pct, (model, row.before_pct, b_pct)
            assert row.after_pct == a_pct, (model, row.after_pct, a_pct)
            assert row.verdict == verdict, model
        verdicts = [r.verdict for r in report.rows]
        assert verdicts.count("Improvement") == 16
        assert verdicts.count("Fail") == 5
        assert {r.model for r in report.rows if r.verdict == "Fail"} == {
            "Hiemstra_LM", "InB2", "InL2", "Js_KLs", "LGD",
        }
        # rows come out in the canonical report order
        assert tuple(r.model for r in report.rows) == CANONICAL_MODEL_ORDER


def test_c2_ranker_matches_oracle_on_randomized_instances():
    """rank() equals the from-scratch reference scorer for all 21 models."""
    with _criterion("C2 oracle equivalence (100 instances x 21 models)"):
        cfg = AnalyzerConfig()
        rng = random.Random(90125)
        instances = 0
        while instances < 100:
            docs = synth_corpus(rng, rng.randint(50, 200), vocab_size=rng.randint(40, 90))
            terms = pick_query_terms(docs, cfg, rng, rng.randint(1, 5))
            if not terms:
                continue
            instances += 1
            bag = QueryBag(
                qid=f"i{instances}",
                terms={t: rng.randint(1, 2) for t in terms},
                fingerprint=cfg.fingerprint(),
            )
            index = build_index(docs, cfg)
            for model in MODEL_IDS:
                fast = rank(index, bag, model, k=None)
                slow = oracle_rank(docs, bag, model, cfg, k=None)
                assert fast.docids() == slow.docids(), (model, instances)
                for a, b in zip(fast.entries, slow.entries):
                    assert abs(a[2] - b[2]) <= 1e-9 * max(1.0, abs(b[2])), (model, instances)


def test_c3_scoring_properties_on_randomized_evidence():
    """Monotonicity, qtf-linearity, finiteness and exact defaults."""
    with _criterion("C3 scoring properties (10k draws per model)"):
        params = ModelParams()
        assert (params.c, params.k1, params.b, params.k3, params.mu, params.lambda_) == (
            1.0, 1.2, 0.75, 8.0, 2500.0, 0.15,
        )
        draws = list(evidence_draws(random.Random(5150), 10_000))
        dirichlet_gain = lambda e: e.qtf * math.log(params.mu / (e.dl + params.mu))
        for model in MODEL_IDS:
            qtf_linear = model in QTF_LINEAR_MODELS
            df_decreasing = model in DF_DECREASING_MODELS
            for e in draws:
                s = score_term(model, e, params)
                assert math.isfinite(s), (model, e)
                bumped_tf = TermEvidence(
                    tf=e.tf + 1, qtf=e.qtf, df=e.df, cf=e.cf, dl=e.dl,
                    avgdl=e.avgdl, num_docs=e.num_docs, total_tokens=e.total_tokens,
                )
                s_tf = score_term(model, bumped_tf, params)
                lhs, rhs = s, s_tf
                if model == "DirichletLM":
                    lhs, rhs = s - dirichlet_gain(e), s_tf - dirichlet_gain(e)
                assert rhs >= lhs - 1e-12 * max(1.0, abs(lhs)), (model, e, lhs, rhs)
                if df_decreasing and e.df + 1 <= min(e.cf, e.num_docs):
                    bumped_df = TermEvidence(
                        tf=e.tf, qtf=e.qtf, df=e.df + 1, cf=e.cf, dl=e.dl,
                        avgdl=e.avgdl, num_docs=e.num_docs, total_tokens=e.total_tokens,
                    )
                    s_df = score_term(model, bumped_df, params)
                    assert s_df <= s + 1e-12 * max(1.0, abs(s)), (model, e, s, s_df)
                if qtf_linear:
                    unit = TermEvidence(
                        tf=e.tf, qtf=1, df=e.df, cf=e.cf, dl=e.dl,
                        avgdl=e.avgdl, num_docs=e.num_docs, total_tokens=e.total_tokens,
                    )
                    s1 = score_term(model, unit, params)
                    assert abs(s - e.qtf * s1) <= 1e-9 * max(1.0, abs(s)), (model, e)


def _recall(ranked: RankedList, relevant: set[str], cutoff: int | None = None) -> float:
    docids = ranked.docids() if cutoff is None else ranked.docids()[:cutoff]
    return len(set(docids) & relevant) / len(relevant)


def test_c4_expansion_recall_laws():
    """Superset law at exhaustive cutoff for all models; a constructed
    adversarial fixture shows recall@10 strictly dropping after expansion."""
    with _criterion("C4 expansion recall laws"):
        cfg = AnalyzerConfig()
        exp = synth_experiment(random.Random(777), num_docs=180, num_topics=6)
        index = build_index(exp.docs, cfg)
        thesaurus = load_thesaurus(io.StringIO(exp.thesaurus_text), cfg)
        qrels = parse_qrels(io.StringIO(exp.qrels_text))
        improved_somewhere = False
        for model in MODEL_IDS:
            for topic in exp.topics:
                bag = build_query(topic, "TD", cfg)
                expanded = expand_query(bag, thesaurus)
                before = rank(index, bag, model, k=None)
                after = rank(index, expanded, model, k=None)
                assert set(before.docids()) <= set(after.docids()), (model, topic.qid)
                relevant = qrels.relevant(topic.qid)
                r_before = _recall(before, relevant)
                r_after = _recall(after, relevant)
                assert r_after >= r_before - 1e-12, (model, topic.qid)
                improved_somewhere = improved_somewhere or r_after > r_before
        assert improved_somewhere

        # adversarial: the synonym floods the top ranks with non-relevant noise
        docs = []
        filler = "calm quiet steady gentle mild soft low fine"
        for i in range(10):
            docs.append(RawDocument(f"rel{i:02d}", f"storm {filler}"))
        for i in range(15):
            docs.append(RawDocument(f"noise{i:02d}", "tempest tempest tempest tempest tempest low fine mild"))
        for i in range(35):
            docs.append(RawDocument(f"pad{i:02d}", f"{filler} extra{i % 7}"))
        adv_index = build_index(docs, cfg)
        adv_thesaurus = load_thesaurus(io.StringIO("storm\ttempest"), cfg)
        bag = build_query(Topic(qid="adv", title="storm"), "T", cfg)
        expanded = expand_query(bag, adv_thesaurus)
        relevant = {f"rel{i:02d}" for i in range(10)}
        dropped = []
        for model in MODEL_IDS:
            r_before = _recall(rank(adv_index, bag, model, k=10), relevant, 10)
            r_after = _recall(rank(adv_index, expanded, model, k=10), relevant, 10)
            if r_after < r_before:
                dropped.append(model)
        assert dropped, "expected recall@10 to drop for at least one model"


def test_c5_metric_oracles():
    """AP/recall match a brute-force rank walk on 1000 random run/qrels pairs."""
    with _criterion("C5 metric oracles (1000 random pairs)"):
        qrels = parse_qrels(io.StringIO("q1 0 d1 1\nq1 0 d3 1\n"))
        run = {"q1": RankedList(qid="q1", entries=[("d1", 1, 3.0), ("dx", 2, 2.0), ("d3", 3, 1.0)])}
        ap = evaluate_run(run, qrels, cutoff=10).per_query["q1"].average_precision
        assert abs(ap - (1 + 2 / 3) / 2) <= 1e-9
        assert abs(ap - 0.83333) <= 5e-6

        rng = random.Random(60648)
        for trial in range(1000):
            universe = [f"d{i}" for i in range(rng.randint(3, 50))]
            relevant = sorted(rng.sample(universe, rng.randint(1, max(1, len(universe) // 2))))
            retrieved = rng.sample(universe, rng.randint(0, len(universe)))
            cutoff = rng.randint(1, 55)
            qrels = parse_qrels(io.StringIO("\n".join(f"q 0 {d} 1" for d in relevant)))
            entries = [(d, i + 1, float(100 - i)) for i, d in enumerate(retrieved)]
            result = evaluate_run({"q": RankedList(qid="q", entries=entries)}, qrels, cutoff=cutoff)
            hits = 0
            ap_sum = 0.0
            for r, docid in enumerate(retrieved[:cutoff], start=1):
                if docid in set(relevant):
                    hits += 1
                    ap_sum += hits / r
            q = result.per_query["q"]
            assert abs(q.recall - hits / len(relevant)) <= 1e-12, trial
            assert abs(q.average_precision - ap_sum / len(relevant)) <= 1e-12, trial
            assert result.mean_average_precision == q.average_precision


def test_c6_format_round_trips(tmp_path):
    """Every interchange format round-trips; index corruption is detected."""
    with _criterion("C6 format round trips"):
        cfg = AnalyzerConfig()
        # corpus tags
        docs = [
            RawDocument("doc-1", "ગુજરાત સમાચાર all the news"),
            RawDocument("doc-2", ""),
            RawDocument("doc.3", "line one\nline two > one"),
        ]
        blob = "".join(serialize_document(d) for d in docs)
        assert list(parse_corpus(io.BytesIO(blob.encode("utf-8")))) == docs

        # topic tags, including an unclosed <narr> recovered at </top>
        topics = [Topic("t1", "title one", "desc one", "narr one"), Topic("t2", "title two")]
        buf = io.StringIO()
        write_topics(topics, buf)
        assert parse_topics(io.StringIO(buf.getvalue())) == topics
        recovered = parse_topics(
            io.StringIO("<top><num>x</num><title>tt</title><desc>dd</desc><narr>open ended</top>")
        )
        assert recovered[0].narrative == "open ended"

        # run files: write -> parse -> write is byte-stable
        lists = [
            RankedList(qid="q1", entries=[("d7", 1, 1.2345674), ("d2", 2, 0.5)]),
            RankedList(qid="q2", entries=[("d9", 1, 10.0)]),
        ]
        buf = io.StringIO()
        write_run(lists, "girit", buf)
        first = buf.getvalue()
        assert "q1 Q0 d7 1 1.234567 girit" in first.splitlines()[0]
        reparsed = parse_run(io.StringIO(first))
        buf2 = io.StringIO()
        write_run([reparsed["q1"], reparsed["q2"]], "girit", buf2)
        assert buf2.getvalue() == first

        # qrels: parse -> re-emit is byte-stable
        qrels_text = "q1 0 d1 1\nq1 0 d2 0\nq2 0 d9 2\n"
        qrels = parse_qrels(io.StringIO(qrels_text))
        emitted = "".join(f"{q} 0 {d} {g}\n" for (q, d), g in qrels.judgments.items())
        assert emitted == qrels_text

        # thesaurus TSV: load -> emit -> load preserves every entry
        th_text = "tv\ttelevision|telly\nfast\tquick\n"
        th = load_thesaurus(io.StringIO(th_text), cfg)
        emitted = "".join(f"{h}\t{'|'.join(s)}\n" for h, s in th.items())
        assert load_thesaurus(io.StringIO(emitted), cfg) == th

        # index: persist/load value-exact, re-persist byte-exact, corruption detected
        corpus = synth_corpus(random.Random(4), 120)
        index = build_index(corpus, cfg)
        index.persist(tmp_path / "one")
        loaded = Index.load(tmp_path / "one")
        assert loaded.stats == index.stats
        for term in list(index.terms())[:25]:
            assert loaded.lookup(term) == index.lookup(term)
        loaded.persist(tmp_path / "two")
        bytes_one = {p.name: p.read_bytes() for p in sorted((tmp_path / "one").iterdir())}
        bytes_two = {p.name: p.read_bytes() for p in sorted((tmp_path / "two").iterdir())}
        assert bytes_one == bytes_two
        victim = tmp_path / "two" / "postings.bin"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        victim.write_bytes(bytes(raw))
        with pytest.raises(IndexStoreError):
            Index.load(tmp_path / "two")


@pytest.mark.slow
def test_c7_scale_smoke(tmp_path):
    """100k documents (~50M tokens) indexed under a memory budget, then
    50 TD topics x 21 models at cutoff 1000, with byte-stable reruns.

    The first build runs as a child process, and its measured peak RSS stays
    within the 256 MiB budget plus a fixed 48 MiB: about 34 MiB of that is
    the interpreter and its imports (numpy among them), the rest is what the
    budget does not count (the docids, their seen set, the lengths)."""
    with _criterion("C7 scale smoke (100k docs, ~50M tokens)"):
        corpus_path = tmp_path / "corpus.trec"
        t0 = time.time()
        total_tokens = write_large_corpus(corpus_path, 100_000, seed=4242)
        print(f"\n  corpus: {total_tokens / 1e6:.1f}M tokens, "
              f"{corpus_path.stat().st_size >> 20} MiB ({time.time() - t0:.0f}s)")
        assert total_tokens > 45_000_000

        topics_path = tmp_path / "topics.txt"
        with open(topics_path, "w", encoding="utf-8") as fh:
            write_topics(synth_topics_for_vocab(4242, 50), fh)

        t0 = time.time()
        code, peak_mb = _run_measured([
            sys.executable, "-m", "girit.cli", "index", "--corpus", str(corpus_path),
            "--index-dir", str(tmp_path / "idx"), "--memory-budget-mb", "256",
        ])
        assert code == 0
        print(f"  indexed under 256 MiB budget ({time.time() - t0:.0f}s, peak RSS {peak_mb:.1f} MiB)")
        assert peak_mb <= 256 + 48

        def run_stage(out_dir):
            t = time.time()
            assert cli_main([
                "run", "--index-dir", str(tmp_path / "idx"), "--topics", str(topics_path),
                "--fields", "TD", "--cutoff", "1000",
                "--output-dir", str(out_dir), "--tag", "scale",
            ]) == 0
            print(f"  ran 50 topics x 21 models ({time.time() - t:.0f}s)")
            digest = hashlib.blake2b(digest_size=16)
            for f in sorted(out_dir.iterdir()):
                digest.update(f.name.encode())
                digest.update(f.read_bytes())
            return digest.hexdigest()

        first = run_stage(tmp_path / "runs1")
        second = run_stage(tmp_path / "runs2")
        assert first == second, "rerun must be byte-stable"
        run_files = list((tmp_path / "runs1").glob("*.run"))
        assert len(run_files) == 21
        for f in run_files:
            with open(f, encoding="utf-8") as fh:
                assert sum(1 for _ in fh) == 50 * 1000

        t0 = time.time()
        assert cli_main([
            "index", "--corpus", str(corpus_path), "--index-dir", str(tmp_path / "idx2"),
            "--memory-budget-mb", "256",
        ]) == 0
        print(f"  re-indexed ({time.time() - t0:.0f}s)")
        for name in ("header.json", "doctable.bin", "lexicon.bin", "postings.bin"):
            a = (tmp_path / "idx" / name).read_bytes()
            b = (tmp_path / "idx2" / name).read_bytes()
            assert a == b, f"{name} differs between index builds"


def test_c8_replication_harness(tmp_path):
    """The documented index -> run -> expand -> run -> eval -> compare
    sequence produces the comparison report and expansion statistics."""
    with _criterion("C8 replication harness"):
        exp = synth_experiment(random.Random(31337), num_docs=189, num_topics=7)
        corpus = tmp_path / "corpus.trec"
        topics = tmp_path / "topics.txt"
        qrels = tmp_path / "qrels.txt"
        thesaurus = tmp_path / "thesaurus.tsv"
        write_corpus(exp.docs, corpus)
        with open(topics, "w", encoding="utf-8") as fh:
            write_topics(exp.topics, fh)
        qrels.write_text(exp.qrels_text, encoding="utf-8")
        thesaurus.write_text(exp.thesaurus_text, encoding="utf-8")

        # the exact command sequence from the README, via the CLI entry point
        steps = [
            ["index", "--corpus", str(corpus), "--index-dir", str(tmp_path / "idx")],
            ["run", "--index-dir", str(tmp_path / "idx"), "--topics", str(topics),
             "--fields", "TD", "--cutoff", "1000",
             "--output-dir", str(tmp_path / "runs_before"), "--tag", "girit"],
            ["expand", "--topics", str(topics), "--thesaurus", str(thesaurus),
             "--index-dir", str(tmp_path / "idx"), "--fields", "TD",
             "--output", str(tmp_path / "topics.expanded.txt")],
            ["run", "--index-dir", str(tmp_path / "idx"),
             "--topics", str(tmp_path / "topics.expanded.txt"),
             "--fields", "TD", "--cutoff", "1000",
             "--output-dir", str(tmp_path / "runs_after"), "--tag", "girit"],
            ["eval", "--runs", str(tmp_path / "runs_before"), "--qrels", str(qrels),
             "--cutoff", "1000", "--output-dir", str(tmp_path / "eval_before")],
            ["eval", "--runs", str(tmp_path / "runs_after"), "--qrels", str(qrels),
             "--cutoff", "1000", "--output-dir", str(tmp_path / "eval_after")],
            ["compare", "--before", str(tmp_path / "eval_before"),
             "--after", str(tmp_path / "eval_after"), "--output-dir", str(tmp_path / "report")],
        ]
        for step in steps:
            assert cli_main(step) == 0, step

        report = (tmp_path / "report" / "comparison.txt").read_text(encoding="utf-8")
        lines = report.strip().splitlines()
        assert len(lines) == 1 + 21  # header plus one row per model
        assert lines[0].split()[-1] == "RESULT"
        assert all(line.split()[-1] in ("Improvement", "Fail") for line in lines[1:])
        csv_rows = (tmp_path / "report" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split(",")[0] for row in csv_rows} == set(MODEL_IDS)
        # the constructed thesaurus recovers synonym-only relevant documents
        assert any(row.endswith("Improvement") for row in csv_rows)

        stats_text = (tmp_path / "topics.expanded.txt.stats.txt").read_text(encoding="utf-8")
        assert "mean_added:" in stats_text
        mean = float(stats_text.strip().splitlines()[-1].split(":")[1])
        assert mean > 0
