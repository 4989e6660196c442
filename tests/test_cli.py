import gzip
import hashlib
import json
import logging
import os
import random
import shutil
import stat

import pytest

from girit.analysis import AnalyzerConfig
from girit.cli import main
from girit.corpus import CorpusStats, corpus_stats, parse_corpus, write_corpus
from girit.index import Index, decode_varints, encode_varints, read_config
from girit.models import MODEL_IDS
from girit.retrieval import Topic, parse_topics, write_topics
from girit.synth import synth_experiment
from girit.util import checksum64, read_checksummed, write_checksummed


def run_cli(*args):
    return main([str(a) for a in args])


def dir_hash(path, suffix=None):
    digest = hashlib.blake2b(digest_size=16)
    for f in sorted(path.iterdir()):
        if f.is_file() and (suffix is None or f.name.endswith(suffix)):
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("experiment")
    exp = synth_experiment(random.Random(2024), num_docs=126, num_topics=6)
    write_corpus(exp.docs, base / "corpus.trec")
    with open(base / "topics.txt", "w", encoding="utf-8") as fh:
        write_topics(exp.topics, fh)
    (base / "qrels.txt").write_text(exp.qrels_text, encoding="utf-8")
    (base / "thesaurus.tsv").write_text(exp.thesaurus_text, encoding="utf-8")
    return base


class TestIndexCommand:
    def test_builds_index_and_reports_stats(self, fixture_dir, tmp_path, capsys):
        code = run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx")
        assert code == 0
        out = capsys.readouterr().out
        assert "num_documents: 126" in out
        for name in ("header.json", "lexicon.bin", "postings.bin", "doctable.bin", "stats.txt", "stats.csv"):
            assert (tmp_path / "idx" / name).exists()

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "a")
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "b")
        assert dir_hash(tmp_path / "a") == dir_hash(tmp_path / "b")

    def test_missing_corpus_is_validation_error(self, tmp_path):
        assert run_cli("index", "--corpus", tmp_path / "nope.trec", "--index-dir", tmp_path / "idx") == 1

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.trec"
        bad.write_text("<DOC><TEXT>no docno</TEXT></DOC>", encoding="utf-8")
        assert run_cli("index", "--corpus", bad, "--index-dir", tmp_path / "idx") == 2

    def test_directory_corpus_processed_lexicographically(self, fixture_dir, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "b.trec").write_text(
            "<DOC><DOCNO>z2</DOCNO><TEXT>beta</TEXT></DOC>", encoding="utf-8"
        )
        (corpus_dir / "a.trec").write_text(
            "<DOC><DOCNO>z1</DOCNO><TEXT>alpha</TEXT></DOC>", encoding="utf-8"
        )
        assert run_cli("index", "--corpus", corpus_dir, "--index-dir", tmp_path / "idx") == 0
        loaded = Index.load(tmp_path / "idx")
        assert loaded.doc_table.docids == ["z1", "z2"]

    def test_rebuild_uses_its_own_analyzer_flags(self, fixture_dir, tmp_path):
        corpus = fixture_dir / "corpus.trec"
        assert run_cli("index", "--corpus", corpus, "--index-dir", tmp_path / "idx") == 0
        assert read_config(tmp_path / "idx").min_token_length == 1
        assert (
            run_cli("index", "--corpus", corpus, "--index-dir", tmp_path / "idx",
                    "--min-token-length", 4, "--no-lowercase")
            == 0
        )
        cfg = Index.load(tmp_path / "idx").cfg
        assert cfg.min_token_length == 4
        assert not cfg.lowercase_latin

    def test_stats_come_from_the_build_not_a_reload(self, fixture_dir, tmp_path, monkeypatch):
        corpus = fixture_dir / "corpus.trec"

        def no_load(directory):
            raise AssertionError(f"girit index read {directory} back")

        with monkeypatch.context() as m:
            m.setattr(Index, "load", no_load)
            assert run_cli("index", "--corpus", corpus, "--index-dir", tmp_path / "idx") == 0
        loaded = Index.load(tmp_path / "idx").stats
        expected = CorpusStats(
            num_documents=loaded.num_docs,
            vocabulary_size=loaded.vocabulary_size,
            num_tokens=loaded.total_tokens,
            total_bytes=corpus_stats(parse_corpus(corpus), AnalyzerConfig()).total_bytes,
        )
        assert (tmp_path / "idx" / "stats.txt").read_text(encoding="utf-8") == expected.as_text()

    def test_lenient_warnings_name_the_file_and_the_document(self, tmp_path, caplog):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "a.trec").write_text(
            "<DOC><DOCNO>a1</DOCNO><TEXT>alpha</TEXT></DOC>\n"
            "<DOC><TEXT>no docno</TEXT></DOC>\n",
            encoding="utf-8",
        )
        (corpus_dir / "b.trec").write_text(
            "<DOC><DOCNO>b1</DOCNO><TEXT>beta</TEXT></DOC>\n"
            "<DOC><DOCNO>b2</DOCNO><TEXT>gamma</TEXT></DOC>\n"
            "<DOC><DOCNO>b1</DOCNO><TEXT>again</TEXT></DOC>\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="girit.corpus"):
            code = run_cli("index", "--lenient", "--corpus", corpus_dir, "--index-dir", tmp_path / "idx")
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.name == "girit.corpus"] == [
            f"{corpus_dir / 'a.trec'}: skipping malformed document: <DOC> #2: missing <DOCNO>",
            f"{corpus_dir / 'b.trec'}: skipping malformed document: <DOC> #3: duplicate docid | docid='b1'",
        ]
        assert Index.load(tmp_path / "idx").doc_table.docids == ["a1", "b1", "b2"]

    @pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
    def test_docid_repeated_in_a_later_file_is_named_by_file_and_position(
        self, tmp_path, caplog, capsys, lenient
    ):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "a.trec").write_text("<DOC><DOCNO>x</DOCNO><TEXT>alpha</TEXT></DOC>\n", encoding="utf-8")
        (corpus_dir / "b.trec").write_text(
            "<DOC><DOCNO>b1</DOCNO><TEXT>beta</TEXT></DOC>\n"
            "<DOC><DOCNO>x</DOCNO><TEXT>again</TEXT></DOC>\n",
            encoding="utf-8",
        )
        where = f"{corpus_dir / 'b.trec'}: "
        problem = "<DOC> #2: duplicate docid | docid='x'"
        flags = ["--lenient"] if lenient else []
        with caplog.at_level(logging.WARNING, logger="girit.corpus"):
            code = run_cli("index", *flags, "--corpus", corpus_dir, "--index-dir", tmp_path / "idx")
        if not lenient:
            assert code == 2
            assert f"error: {where}{problem}" in capsys.readouterr().err
            return
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.name == "girit.corpus"] == [
            f"{where}skipping malformed document: {problem}"
        ]
        assert Index.load(tmp_path / "idx").doc_table.docids == ["x", "b1"]


@pytest.fixture(scope="module")
def workspace(fixture_dir, tmp_path_factory):
    ws = tmp_path_factory.mktemp("pipeline")
    models = "BM25,PL2,DPH,InL2,Js_KLs"
    assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", ws / "idx") == 0
    assert (
        run_cli(
            "run", "--index-dir", ws / "idx", "--topics", fixture_dir / "topics.txt",
            "--models", models, "--cutoff", 50, "--output-dir", ws / "runs_before", "--tag", "exp",
        )
        == 0
    )
    assert (
        run_cli(
            "expand", "--topics", fixture_dir / "topics.txt", "--thesaurus",
            fixture_dir / "thesaurus.tsv", "--index-dir", ws / "idx",
            "--output", ws / "topics.expanded.txt",
        )
        == 0
    )
    assert (
        run_cli(
            "run", "--index-dir", ws / "idx", "--topics", ws / "topics.expanded.txt",
            "--models", models, "--cutoff", 50, "--output-dir", ws / "runs_after", "--tag", "exp",
        )
        == 0
    )
    for phase in ("before", "after"):
        assert (
            run_cli(
                "eval", "--runs", ws / f"runs_{phase}", "--qrels", fixture_dir / "qrels.txt",
                "--cutoff", 50, "--output-dir", ws / f"eval_{phase}",
            )
            == 0
        )
    assert (
        run_cli("compare", "--before", ws / "eval_before", "--after", ws / "eval_after",
                "--output-dir", ws / "cmp")
        == 0
    )
    return ws


class TestPipeline:
    def test_run_files_written_per_model(self, workspace):
        names = {f.name for f in (workspace / "runs_before").iterdir()}
        assert names == {f"exp.{m}.run" for m in ("BM25", "PL2", "DPH", "InL2", "Js_KLs")}

    def test_expanded_topics_carry_added_terms(self, workspace, fixture_dir):
        before = parse_topics(fixture_dir / "topics.txt")
        after = parse_topics(workspace / "topics.expanded.txt")
        assert [t.qid for t in after] == [t.qid for t in before]
        assert any(len(a.title) > len(b.title) for a, b in zip(after, before))
        assert (workspace / "topics.expanded.txt.stats.txt").exists()

    def test_comparison_report_shape(self, workspace):
        text = (workspace / "cmp" / "comparison.txt").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0].split() == ["MODEL", "RELEVANT", "BEFORE", "BEFORE%", "AFTER", "AFTER%", "RESULT"]
        assert len(lines) == 1 + 5
        csv = (workspace / "cmp" / "comparison.csv").read_text(encoding="utf-8")
        assert csv.splitlines()[0].startswith("model,relevant,")

    def test_expansion_improves_recall_on_fixture(self, workspace):
        csv_lines = (workspace / "cmp" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1:]
        improvements = [line for line in csv_lines if line.endswith("Improvement")]
        assert improvements, "constructed fixture must show expansion gains"

    def test_rerun_runs_byte_identical(self, workspace, fixture_dir):
        first = dir_hash(workspace / "runs_before", suffix=".run")
        assert (
            run_cli(
                "run", "--index-dir", workspace / "idx", "--topics", fixture_dir / "topics.txt",
                "--models", "BM25,PL2,DPH,InL2,Js_KLs", "--cutoff", 50,
                "--output-dir", workspace / "runs_before", "--tag", "exp",
            )
            == 0
        )
        assert dir_hash(workspace / "runs_before", suffix=".run") == first


class TestRunCommand:
    def test_all_models_by_default(self, fixture_dir, tmp_path):
        assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
        assert (
            run_cli(
                "run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
                "--cutoff", 20, "--output-dir", tmp_path / "runs", "--tag", "all",
            )
            == 0
        )
        assert len(list((tmp_path / "runs").glob("*.run"))) == 21
        assert {f.name for f in (tmp_path / "runs").glob("*.run")} == {
            f"all.{m}.run" for m in MODEL_IDS
        }

    def test_unknown_model_is_validation_error(self, fixture_dir, tmp_path):
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx")
        code = run_cli(
            "run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
            "--models", "BM26", "--output-dir", tmp_path / "runs",
        )
        assert code == 1

    def test_scoring_domain_abort_spares_other_models(self, tmp_path, capsys):
        # a short document owning a term's whole collection mass breaks BB2;
        # the first topic ranks under BB2, so its run file is partly written
        corpus = tmp_path / "c.trec"
        corpus.write_text(
            "<DOC><DOCNO>tiny</DOCNO><TEXT>rare rare</TEXT></DOC>"
            "<DOC><DOCNO>pad</DOCNO><TEXT>" + "x " * 40 + "</TEXT></DOC>",
            encoding="utf-8",
        )
        topics = tmp_path / "t.txt"
        topics.write_text(
            "<top><num>1</num><title>x</title></top><top><num>2</num><title>rare</title></top>",
            encoding="utf-8",
        )
        run_cli("index", "--corpus", corpus, "--index-dir", tmp_path / "idx")
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "t.BB2.run").write_bytes(b"an earlier run\n")
        capsys.readouterr()
        code = run_cli(
            "run", "--index-dir", tmp_path / "idx", "--topics", topics, "--fields", "T",
            "--models", "BB2,BM25", "--output-dir", runs, "--tag", "t",
        )
        assert code == 2
        assert (runs / "t.BB2.run").read_bytes() == b"an earlier run\n"
        assert (runs / "t.BM25.run").read_text(encoding="utf-8").split("\n")[0].startswith("1 Q0 ")
        assert sorted(f.name for f in runs.iterdir()) == ["t.BB2.run", "t.BM25.run"]
        out, err = capsys.readouterr()
        assert "BB2: aborted: " in err and "qid='2'" in err
        assert err.endswith("models aborted by scoring-domain errors: BB2\n")
        assert out == f"BM25: wrote 2 lines to {runs / 't.BM25.run'}\n"

    def test_other_error_mid_stage_replaces_no_run_file(self, fixture_dir, tmp_path, monkeypatch, capsys):
        import girit.cli
        from girit.errors import IndexStoreError

        assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "t.BM25.run").write_bytes(b"an earlier run\n")
        capsys.readouterr()
        second = parse_topics(fixture_dir / "topics.txt")[1].qid
        rank = girit.cli.rank

        def failing(index, bag, *args, **kwargs):
            if bag.qid == second:
                raise IndexStoreError("postings block unreadable")
            return rank(index, bag, *args, **kwargs)

        monkeypatch.setattr(girit.cli, "rank", failing)
        code = run_cli(
            "run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
            "--models", "BM25,PL2", "--output-dir", runs, "--tag", "t",
        )
        assert code == 2
        assert [f.name for f in runs.iterdir()] == ["t.BM25.run"]
        assert (runs / "t.BM25.run").read_bytes() == b"an earlier run\n"
        out, err = capsys.readouterr()
        assert out == "" and err == "error: postings block unreadable\n"

    def test_repeated_model_id_is_ranked_once(self, fixture_dir, tmp_path, capsys):
        assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
        outs = {}
        for spec, out in (("BM25,BM25", "twice"), ("BM25", "once")):
            capsys.readouterr()
            assert run_cli("run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
                           "--models", spec, "--output-dir", tmp_path / out, "--tag", "t") == 0
            outs[out] = capsys.readouterr().out
        assert [f.name for f in (tmp_path / "twice").iterdir()] == ["t.BM25.run"]
        assert (tmp_path / "twice" / "t.BM25.run").read_bytes() == (tmp_path / "once" / "t.BM25.run").read_bytes()
        assert len(outs["twice"].splitlines()) == 1
        assert outs["twice"].replace("twice", "once") == outs["once"]

    @pytest.mark.parametrize("cutoff", [5, 1000])
    def test_run_files_match_ranking_each_model_over_every_query(self, fixture_dir, tmp_path, cutoff):
        # the reference ranks model by model, each over every topic, and
        # writes each run file in one call
        from girit.models import ModelParams
        from girit.retrieval import build_query, rank, write_run

        assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
        assert run_cli("run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
                       "--cutoff", cutoff, "--output-dir", tmp_path / "runs", "--tag", "t") == 0
        index = Index.load(tmp_path / "idx")
        bags = [build_query(t, "TD", index.cfg) for t in parse_topics(fixture_dir / "topics.txt")]
        (tmp_path / "ref").mkdir()
        lengths = []
        for model in MODEL_IDS:
            lists = [rank(index, bag, model, ModelParams(), k=cutoff) for bag in bags]
            lengths.extend(len(rl) for rl in lists)
            write_run(lists, "t", tmp_path / "ref" / f"t.{model}.run")
        if cutoff == 5:
            assert set(lengths) == {5}
        else:
            assert max(lengths) < index.stats.num_docs < cutoff
        assert dir_hash(tmp_path / "runs") == dir_hash(tmp_path / "ref")

    def test_output_and_index_files_follow_the_umask(self, fixture_dir, tmp_path):
        old = os.umask(0o027)
        try:
            assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
            assert run_cli("run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
                           "--models", "BM25", "--output-dir", tmp_path / "runs", "--tag", "t") == 0
        finally:
            os.umask(old)
        files = sorted((tmp_path / "idx").iterdir()) + [tmp_path / "runs" / "t.BM25.run"]
        assert {"header.json", "doctable.bin", "lexicon.bin", "postings.bin"} <= {f.name for f in files}
        assert {f.name: oct(stat.S_IMODE(f.stat().st_mode)) for f in files} == {f.name: oct(0o640) for f in files}

    def test_param_flags_change_scores(self, fixture_dir, tmp_path):
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx")
        for mu, out in (("2500", "runs_a"), ("50", "runs_b")):
            assert (
                run_cli(
                    "run", "--index-dir", tmp_path / "idx", "--topics", fixture_dir / "topics.txt",
                    "--models", "DirichletLM", "--cutoff", 10, "--mu", mu,
                    "--output-dir", tmp_path / out, "--tag", "p",
                )
                == 0
            )
        a = (tmp_path / "runs_a" / "p.DirichletLM.run").read_text()
        b = (tmp_path / "runs_b" / "p.DirichletLM.run").read_text()
        assert a != b


class TestConfigFile:
    def test_config_supplies_options_and_flags_win(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(
            f"""# experiment configuration
corpus={fixture_dir / 'corpus.trec'}
index_dir={tmp_path / 'idx'}
cutoff=7
tag=fromconfig
""",
            encoding="utf-8",
        )
        assert run_cli("index", "--config", config) == 0
        assert (
            run_cli(
                "run", "--config", config, "--topics", fixture_dir / "topics.txt",
                "--models", "BM25", "--output-dir", tmp_path / "runs",
            )
            == 0
        )
        run_file = tmp_path / "runs" / "fromconfig.BM25.run"
        assert run_file.exists()
        ranks = [int(line.split()[3]) for line in run_file.read_text().splitlines()]
        assert max(ranks) <= 7
        # flag overrides the config cutoff
        assert (
            run_cli(
                "run", "--config", config, "--topics", fixture_dir / "topics.txt",
                "--models", "BM25", "--output-dir", tmp_path / "runs2", "--cutoff", 3,
            )
            == 0
        )
        ranks = [
            int(line.split()[3])
            for line in (tmp_path / "runs2" / "fromconfig.BM25.run").read_text().splitlines()
        ]
        assert max(ranks) <= 3

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("cuttoff=9\n", encoding="utf-8")
        assert run_cli("index", "--config", config) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert run_cli("index", "--config", tmp_path / "nope.conf") == 1

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_bytes(b"cutoff=9\n\xff\n")
        assert run_cli("eval", "--config", config) == 1
        expected = f"error: {config}: UTF-8 decode failure: invalid start byte | byte offset 9"
        assert expected in capsys.readouterr().err


    @pytest.mark.parametrize("key", ["corpus", "runs"])
    def test_a_repeated_flag_replaces_the_config_files_list(self, key, fixture_dir, workspace, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text(f"{key}={tmp_path / 'nope'},{tmp_path / 'nope2'}\n", encoding="utf-8")
        if key == "corpus":
            for name, docid in (("a.trec", "z1"), ("b.trec", "z2")):
                (tmp_path / name).write_text(f"<DOC><DOCNO>{docid}</DOCNO><TEXT>alpha</TEXT></DOC>", encoding="utf-8")
            flags = ("--corpus", tmp_path / "a.trec", "--corpus", tmp_path / "b.trec", "--index-dir", tmp_path / "idx")
            assert run_cli("index", "--config", config, *flags) == 0
            assert Index.load(tmp_path / "idx").doc_table.docids == ["z1", "z2"]
        else:
            runs = workspace / "runs_before"
            flags = ("--runs", runs / "exp.BM25.run", "--runs", runs / "exp.PL2.run", "--qrels",
                     fixture_dir / "qrels.txt", "--output-dir", tmp_path / "eval")
            assert run_cli("eval", "--config", config, *flags) == 0
            assert sorted(f.name for f in (tmp_path / "eval").glob("*.eval")) == ["BM25.eval", "PL2.eval"]

    def test_a_key_of_another_subcommand_is_ignored_even_when_malformed(self, fixture_dir, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text(
            f"corpus={fixture_dir / 'corpus.trec'}\nindex_dir={tmp_path / 'idx'}\n"
            "cutoff=abc\nfields=X\nmu=much\nseed=x\nmax_added_per_query=-1\n",
            encoding="utf-8",
        )
        assert run_cli("index", "--config", config) == 0
        assert Index.load(tmp_path / "idx").stats.num_docs == 126

    @pytest.mark.parametrize(
        "word, lowercase",
        [("1", True), ("true", True), ("Yes", True), ("ON", True),
         ("0", False), ("false", False), ("No", False), ("OFF", False), ("maybe", None), ("", None)],
    )
    def test_config_booleans(self, word, lowercase, fixture_dir, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(f"lowercase={word}\n", encoding="utf-8")
        code = run_cli("index", "--config", config, "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx")
        if lowercase is None:
            assert code == 1
            assert f"error: config key lowercase: expected boolean, got {word!r}" in capsys.readouterr().err
        else:
            assert code == 0
            assert read_config(tmp_path / "idx").lowercase_latin is lowercase


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--cutoff", "abc"), "argument --cutoff: invalid int value: 'abc'"),
        (("run", "--fields", "X"), "argument --fields: invalid choice: 'X'"),
        (("eval", "--no-such-flag"), "unrecognized arguments: --no-such-flag"),
        (("index", "--lenient=yes"), "argument --lenient/--no-lenient: ignored explicit argument 'yes'"),
        ((), "the following arguments are required: command"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
    ],
    ids=["cutoff-abc", "fields-X", "unknown-flag", "switch-with-a-value", "no-subcommand", "unknown-subcommand"],
)
def test_a_usage_error_is_a_validation_error_naming_the_option(argv, message, capsys):
    assert run_cli(*argv) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli("--help")
    assert exited.value.code == 0
    assert "verify" in capsys.readouterr().out


class TestExpandCommand:
    def test_empty_thesaurus_is_identity(self, fixture_dir, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        assert (
            run_cli("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus", empty,
                    "--output", out)
            == 0
        )
        assert parse_topics(out) == parse_topics(fixture_dir / "topics.txt")
        stats = (tmp_path / "expanded.txt.stats.txt").read_text(encoding="utf-8")
        assert "mean_added: 0.0000" in stats

    def test_cap_honored(self, fixture_dir, tmp_path, capsys):
        rich = tmp_path / "rich.tsv"
        topics = parse_topics(fixture_dir / "topics.txt")
        head = topics[0].title.split()[0].lower()
        rich.write_text(
            head + "\t" + "|".join(f"extra{i}" for i in range(10)) + "\n", encoding="utf-8"
        )
        out = tmp_path / "expanded.txt"
        assert (
            run_cli("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus", rich,
                    "--output", out, "--fields", "T")
            == 0
        )
        stats_text = capsys.readouterr().out
        assert f"{topics[0].qid}: 6" in stats_text

    @pytest.mark.parametrize(
        "outputs, stats",
        [
            ({"--output": "new/x.txt"}, "new/x.txt.stats.txt"),
            ({"--output": "x.txt", "--stats-output": "new/s.txt"}, "new/s.txt"),
        ],
        ids=["output", "stats-output"],
    )
    def test_output_directories_are_created(self, outputs, stats, fixture_dir, tmp_path, capsys):
        paths = [arg for flag, path in outputs.items() for arg in (flag, tmp_path / path)]
        assert run_cli("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus",
                       fixture_dir / "thesaurus.tsv", *paths) == 0
        expanded = parse_topics(tmp_path / outputs["--output"])
        assert [t.qid for t in expanded] == [t.qid for t in parse_topics(fixture_dir / "topics.txt")]
        assert (tmp_path / stats).read_text(encoding="utf-8") in capsys.readouterr().out

    def test_index_dir_borrows_analyzer_from_header_only(self, fixture_dir, tmp_path, monkeypatch):
        assert (
            run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx",
                    "--no-lowercase")
            == 0
        )
        topics = tmp_path / "topics.txt"
        topics.write_text("<top><num>1</num><title>Alpha beta</title></top>", encoding="utf-8")
        thesaurus = tmp_path / "thesaurus.tsv"
        thesaurus.write_text("alpha\tgamma\n", encoding="utf-8")

        def no_load(directory):
            raise AssertionError("expand loaded the whole index")

        monkeypatch.setattr(Index, "load", no_load)
        expand = ("expand", "--topics", topics, "--thesaurus", thesaurus, "--fields", "T")
        assert run_cli(*expand, "--index-dir", tmp_path / "idx", "--output", tmp_path / "borrowed.txt") == 0
        assert run_cli(*expand, "--no-lowercase", "--output", tmp_path / "flags.txt") == 0
        assert run_cli(*expand, "--output", tmp_path / "default.txt") == 0
        borrowed = (tmp_path / "borrowed.txt").read_text(encoding="utf-8")
        assert borrowed == (tmp_path / "flags.txt").read_text(encoding="utf-8")
        assert "gamma" not in borrowed
        assert "gamma" in (tmp_path / "default.txt").read_text(encoding="utf-8")


class TestExpandAgainstTheIndex:
    """With --index-dir, `expand` analyzes as the index does; an analyzer
    option that disagrees with the index is an error, one that agrees is not."""

    @pytest.fixture
    def case(self, fixture_dir, tmp_path):
        (tmp_path / "stop.txt").write_text("The\nof\n", encoding="utf-8")
        assert run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx",
                       "--stopwords", tmp_path / "stop.txt") == 0
        expand = ("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus", fixture_dir / "thesaurus.tsv",
                  "--index-dir", tmp_path / "idx", "--output", tmp_path / "out" / "topics.txt")
        return tmp_path, expand

    DISAGREES = "disagrees with the analyzer settings of the index in {idx}"

    @pytest.mark.parametrize(
        "given, message",
        [
            (["--no-lowercase"], f"--lowercase: False {DISAGREES}"),
            (["--unicode-form", "NFKD"], f"--unicode-form: 'NFKD' {DISAGREES}"),
            (["--min-token-length", "2"], f"--min-token-length: 2 {DISAGREES}"),
            (["--stopwords", "{other}"], f"--stopwords: '{{other}}' {DISAGREES}"),
            (["--stopwords", "/nonexistent"], "--stopwords: path does not exist: /nonexistent"),
            (["--config", "{conf}"], f"--lowercase: False {DISAGREES}"),
        ],
        ids=["lowercase", "unicode-form", "min-token-length", "stopwords", "missing-stopwords", "config-key"],
    )
    def test_a_disagreeing_analyzer_option_exits_1_naming_it(self, case, capsys, given, message):
        tmp_path, expand = case
        (tmp_path / "other.txt").write_text("the\n", encoding="utf-8")
        (tmp_path / "exp.conf").write_text("lowercase=no\n", encoding="utf-8")
        places = {"other": tmp_path / "other.txt", "conf": tmp_path / "exp.conf", "idx": tmp_path / "idx"}
        assert run_cli(*expand, *(arg.format(**places) for arg in given)) == 1
        assert capsys.readouterr().err == f"error: {message.format(**places)}\n"
        assert not (tmp_path / "out").exists()

    def test_a_config_file_shared_with_index_is_accepted(self, case, capsys):
        tmp_path, expand = case
        assert run_cli(*expand) == 0
        alone = (tmp_path / "out" / "topics.txt").read_bytes()
        (tmp_path / "exp.conf").write_text(
            f"lowercase=yes\nunicode_form=NFC\nmin_token_length=1\nstopwords={tmp_path / 'stop.txt'}\n",
            encoding="utf-8",
        )
        shutil.rmtree(tmp_path / "out")
        assert run_cli(*expand, "--config", tmp_path / "exp.conf") == 0
        assert (tmp_path / "out" / "topics.txt").read_bytes() == alone


def test_inputs_under_a_directory_with_a_space(fixture_dir, tmp_path):
    ws = tmp_path / "my dir"
    ws.mkdir()
    for name in ("corpus.trec", "topics.txt", "qrels.txt", "thesaurus.tsv"):
        shutil.copy(fixture_dir / name, ws / name)
    assert run_cli("index", "--corpus", ws / "corpus.trec", "--index-dir", ws / "idx") == 0
    assert (
        run_cli("expand", "--topics", ws / "topics.txt", "--thesaurus", ws / "thesaurus.tsv",
                "--index-dir", ws / "idx", "--output", ws / "expanded.txt")
        == 0
    )
    assert (
        run_cli("run", "--index-dir", ws / "idx", "--topics", ws / "expanded.txt", "--models", "BM25",
                "--cutoff", 20, "--output-dir", ws / "runs", "--tag", "t")
        == 0
    )
    for runs in (ws / "runs", ws / "runs" / "t.BM25.run"):
        assert (
            run_cli("eval", "--runs", runs, "--qrels", ws / "qrels.txt", "--cutoff", 20,
                    "--output-dir", ws / "eval")
            == 0
        )
    assert (ws / "eval" / "BM25.eval").exists()


class TestCompareCommand:
    def test_identical_directories_all_fail(self, fixture_dir, tmp_path, capsys):
        ws = tmp_path
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", ws / "idx")
        run_cli("run", "--index-dir", ws / "idx", "--topics", fixture_dir / "topics.txt",
                "--models", "BM25,DPH", "--cutoff", 30, "--output-dir", ws / "runs", "--tag", "t")
        run_cli("eval", "--runs", ws / "runs", "--qrels", fixture_dir / "qrels.txt",
                "--cutoff", 30, "--output-dir", ws / "eval")
        assert run_cli("compare", "--before", ws / "eval", "--after", ws / "eval",
                       "--output-dir", ws / "cmp") == 0
        csv_lines = (ws / "cmp" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(line.endswith("Fail") for line in csv_lines)

    def test_model_set_mismatch_is_validation_error(self, fixture_dir, tmp_path):
        ws = tmp_path
        run_cli("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", ws / "idx")
        run_cli("run", "--index-dir", ws / "idx", "--topics", fixture_dir / "topics.txt",
                "--models", "BM25", "--cutoff", 10, "--output-dir", ws / "runs_a", "--tag", "t")
        run_cli("run", "--index-dir", ws / "idx", "--topics", fixture_dir / "topics.txt",
                "--models", "DPH", "--cutoff", 10, "--output-dir", ws / "runs_b", "--tag", "t")
        run_cli("eval", "--runs", ws / "runs_a", "--qrels", fixture_dir / "qrels.txt",
                "--cutoff", 10, "--output-dir", ws / "eval_a")
        run_cli("eval", "--runs", ws / "runs_b", "--qrels", fixture_dir / "qrels.txt",
                "--cutoff", 10, "--output-dir", ws / "eval_b")
        assert run_cli("compare", "--before", ws / "eval_a", "--after", ws / "eval_b") == 1


@pytest.mark.parametrize("where", ["in-the-directory", "given-apart"])
def test_two_run_files_of_one_model_exit_1_naming_both(workspace, fixture_dir, tmp_path, capsys, where):
    """`eval` names its outputs by model, so a second run file of a model
    would replace the first one's; it is an error before any output."""
    runs = tmp_path / "runs"
    shutil.copytree(workspace / "runs_before", runs)
    other = (runs if where == "in-the-directory" else tmp_path) / "other.BM25.run"
    shutil.copy(workspace / "runs_after" / "exp.BM25.run", other)
    given = ("--runs", runs) if where == "in-the-directory" else ("--runs", runs, "--runs", other)
    assert run_cli("eval", *given, "--qrels", fixture_dir / "qrels.txt", "--output-dir", tmp_path / "eval") == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --runs: {runs / 'exp.BM25.run'} and {other} are both run files of model BM25\n"
    assert captured.out == ""
    assert not (tmp_path / "eval").exists()


class TestDotNamedFilesAreNotInputs:
    """`replacing` writes `.tmp.<hex>.<name>` and renames it when the file is
    whole, so a killed `run` or `eval` leaves such a file behind; a
    directory given as an input never stands for it."""

    TMP = ".tmp.0123456789ab."

    def _plant_partial_run(self, workspace, runs):
        lines = (workspace / "runs_before" / "exp.BM25.run").read_text(encoding="utf-8").splitlines(keepends=True)
        (runs / (self.TMP + "exp.BM25.run")).write_text("".join(lines[: len(lines) // 3]), encoding="utf-8")

    def test_a_runs_directory_holding_only_a_temporary_has_no_run_files(self, workspace, fixture_dir, tmp_path,
                                                                        capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        self._plant_partial_run(workspace, runs)
        assert run_cli("eval", "--runs", runs, "--qrels", fixture_dir / "qrels.txt",
                       "--output-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err == f"error: --runs: no run files to evaluate in {runs}\n"
        assert not (tmp_path / "eval").exists()

    def test_a_temporary_beside_the_run_files_changes_no_output(self, workspace, fixture_dir, tmp_path, capsys):
        reports = {}
        for name in ("clean", "planted"):
            shutil.copytree(workspace / "runs_before", tmp_path / name)
            if name == "planted":
                self._plant_partial_run(workspace, tmp_path / name)
            assert run_cli("eval", "--runs", tmp_path / name, "--qrels", fixture_dir / "qrels.txt", "--cutoff", 50,
                           "--output-dir", tmp_path / f"{name}-eval") == 0
            reports[name] = capsys.readouterr().out
        assert reports["planted"] == reports["clean"]
        assert reports["clean"].count("BM25:") == 1
        assert dir_hash(tmp_path / "planted-eval") == dir_hash(tmp_path / "clean-eval") == dir_hash(
            workspace / "eval_before")

    def test_compare_reads_no_temporary_eval_file(self, workspace, tmp_path, capsys):
        before = tmp_path / "eval_before"
        shutil.copytree(workspace / "eval_before", before)
        (before / "BM25.eval").rename(before / (self.TMP + "BM25.eval"))
        assert run_cli("compare", "--before", before, "--after", workspace / "eval_after",
                       "--output-dir", tmp_path / "cmp") == 1
        assert capsys.readouterr().err == (
            f"error: {before} and {workspace / 'eval_after'}: model sets differ between the two sides: ['BM25']\n"
        )
        assert not (tmp_path / "cmp").exists()

    def test_compare_reads_an_eval_file_given_as_it_is(self, workspace, tmp_path, capsys):
        """As `eval` reads a run file given by name, `compare` reads an .eval
        file; its name does not matter."""
        named = tmp_path / (self.TMP + "BM25.eval")
        shutil.copy(workspace / "eval_before" / "BM25.eval", named)
        assert run_cli("compare", "--before", named, "--after", workspace / "eval_after" / "BM25.eval",
                       "--output-dir", tmp_path / "cmp") == 0
        rows = (tmp_path / "cmp" / "comparison.csv").read_text(encoding="utf-8").splitlines()
        whole = (workspace / "cmp" / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert rows == [whole[0], *(row for row in whole if row.startswith("BM25,"))]


class TestVerifyCommand:
    def test_ranker_agrees_with_reference(self, capsys):
        assert run_cli("verify", "--instances", 3, "--seed", 5, "--models", "BM25,DPH,InL2") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3


@pytest.mark.parametrize("name", ["topics.txt", "qrels.txt", "thesaurus.tsv", "stopwords.txt"])
def test_bad_utf8_input_is_a_data_error_naming_the_file(name, fixture_dir, workspace, tmp_path, capsys):
    good = b"the\nand\n" if name == "stopwords.txt" else (fixture_dir / name).read_bytes()
    bad = tmp_path / name
    bad.write_bytes(good[:5] + b"\xff" + good[5:])
    commands = {
        "topics.txt": ("run", "--index-dir", workspace / "idx", "--topics", bad, "--models", "BM25",
                       "--output-dir", tmp_path / "runs"),
        "qrels.txt": ("eval", "--runs", workspace / "runs_before", "--qrels", bad,
                      "--output-dir", tmp_path / "eval"),
        "thesaurus.tsv": ("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus", bad,
                          "--output", tmp_path / "expanded.txt"),
        "stopwords.txt": ("index", "--corpus", fixture_dir / "corpus.trec", "--index-dir", tmp_path / "idx",
                          "--stopwords", bad),
    }
    assert run_cli(*commands[name]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: UTF-8 decode failure: invalid start byte | byte offset 5" in err


class TestFormatErrorsNameTheFile:
    def test_bad_run_file_in_a_directory(self, workspace, fixture_dir, tmp_path, capsys):
        runs = tmp_path / "runs"
        shutil.copytree(workspace / "runs_before", runs)
        bad = runs / "exp.zz.run"
        bad.write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 3 1.000000 t\n", encoding="utf-8")
        code = run_cli("eval", "--runs", runs, "--qrels", fixture_dir / "qrels.txt",
                       "--output-dir", tmp_path / "eval")
        assert code == 2
        assert f"error: {bad}: line 2: rank 3 out of order (expected 2)" in capsys.readouterr().err

    def test_a_directory_of_runs_holds_only_run_files(self, workspace, fixture_dir, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(workspace / "runs_before", runs)
        (runs / "notes.txt").write_text("not a run\n", encoding="utf-8")
        (runs / "nested.run").mkdir()
        code = run_cli("eval", "--runs", runs, "--qrels", fixture_dir / "qrels.txt",
                       "--output-dir", tmp_path / "eval")
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "eval").glob("*.eval")) == sorted(
            p.name.split(".")[1] + ".eval" for p in (workspace / "runs_before").glob("*.run")
        )

    def test_bad_topics_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "topics.txt"
        bad.write_text("<top>\n<num>1</num>\n<title>a</title>\n</top>\n<top>\n<title>b</title>\n</top>\n",
                       encoding="utf-8")
        code = run_cli("run", "--index-dir", workspace / "idx", "--topics", bad, "--models", "BM25",
                       "--output-dir", tmp_path / "runs")
        assert code == 2
        assert f"error: {bad}: line 5: topic without <num>" in capsys.readouterr().err

    def test_qid_with_whitespace_is_rejected_naming_the_line(self, workspace, tmp_path, capsys):
        """Such a qid would give run lines of more than six fields."""
        bad = tmp_path / "topics.txt"
        bad.write_text("<top>\n<num>1</num>\n<title>a</title>\n</top>\n<top>\n<num> Number: 401 </num>\n"
                       "<title>b</title>\n</top>\n", encoding="utf-8")
        code = run_cli("run", "--index-dir", workspace / "idx", "--topics", bad, "--models", "BM25",
                       "--output-dir", tmp_path / "runs")
        assert code == 2
        assert f"error: {bad}: line 5: qid 'Number: 401' holds whitespace" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
    def test_docid_with_whitespace_is_rejected_naming_its_doc(self, tmp_path, capsys, caplog, lenient):
        """Such a docid would give run lines of more than six fields."""
        corpus = tmp_path / "c.trec"
        corpus.write_text("<DOC><DOCNO>a</DOCNO><TEXT>alpha</TEXT></DOC>\n"
                          "<DOC><DOCNO> d 1 </DOCNO><TEXT>beta</TEXT></DOC>\n", encoding="utf-8")
        where = f"{corpus}: "
        problem = "<DOC> #2: docid holds whitespace | docid='d 1'"
        flags = ["--lenient"] if lenient else []
        with caplog.at_level(logging.WARNING, logger="girit.corpus"):
            code = run_cli("index", *flags, "--corpus", corpus, "--index-dir", tmp_path / "idx")
        if not lenient:
            assert code == 2
            assert f"error: {where}{problem}" in capsys.readouterr().err
            return
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.name == "girit.corpus"] == [
            f"{where}skipping malformed document: {problem}"
        ]
        assert Index.load(tmp_path / "idx").doc_table.docids == ["a"]

    def test_bad_file_in_a_corpus_directory(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "a.trec").write_text("<DOC><DOCNO>z1</DOCNO><TEXT>alpha</TEXT></DOC>", encoding="utf-8")
        payload = b"<DOC><DOCNO>z2</DOCNO><TEXT>be\xffta</TEXT></DOC>"
        (corpus_dir / "b.trec").write_bytes(payload)
        assert run_cli("index", "--corpus", corpus_dir, "--index-dir", tmp_path / "idx") == 2
        offset = payload.index(b"\xff")
        expected = f"error: {corpus_dir / 'b.trec'}: UTF-8 decode failure: invalid start byte | byte offset {offset}"
        assert expected in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["garbage", "truncated", "corrupt", "bad-crc"])
def test_broken_gzip_corpus_file_is_a_data_error_naming_the_file(damage, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.trec").write_text("<DOC><DOCNO>z1</DOCNO><TEXT>alpha</TEXT></DOC>", encoding="utf-8")
    good = gzip.compress(b"<DOC><DOCNO>z2</DOCNO><TEXT>beta gamma</TEXT></DOC>" * 20, mtime=0)
    payload = {
        "garbage": b"\x1f\x8b\x08\x00garbage",  # EOFError
        "truncated": good[: len(good) // 2],  # EOFError
        "corrupt": good[:10] + bytes(b ^ 0xFF for b in good[10:20]) + good[20:],  # zlib.error
        "bad-crc": good[:-8] + bytes(4) + good[-4:],  # gzip.BadGzipFile
    }[damage]
    (corpus_dir / "b.trec.gz").write_bytes(payload)
    assert run_cli("index", "--corpus", corpus_dir, "--index-dir", tmp_path / "idx") == 2
    err = capsys.readouterr().err
    assert f"error: {corpus_dir / 'b.trec.gz'}: corrupt or truncated gzip data: " in err


@pytest.mark.parametrize(
    "command, option",
    [
        (("run", "--cutoff", 0), "--cutoff: must be at least 1, got 0"),
        (("run", "--cutoff", -5), "--cutoff: must be at least 1, got -5"),
        (("eval", "--cutoff", 0), "--cutoff: must be at least 1, got 0"),
        (("run", "--config", "fields=X"), "config key fields: bad value 'X'"),
        (("expand", "--max-added-per-query", -1), "max_added_per_query must be >= 0"),
        (("expand", "--max-synonyms-per-term", -1), "max_synonyms_per_term must be >= 0"),
        (("index", "--memory-budget-mb", -1), "--memory-budget-mb: must be at least 0, got -1"),
        (("verify", "--instances", 0), "--instances: must be at least 1, got 0"),
        (("index", "--unicode-form", "XYZ"), "--unicode-form: must be one of NFC, NFD, NFKC, NFKD, got 'XYZ'"),
        (("expand", "--unicode-form", "nfc"), "--unicode-form: must be one of NFC, NFD, NFKC, NFKD, got 'nfc'"),
        (("index", "--config", "unicode_form=XYZ"), "--unicode-form: must be one of NFC, NFD, NFKC, NFKD, got 'XYZ'"),
        (("index", "--min-token-length", -3), "--min-token-length: must be at least 0, got -3"),
        (("expand", "--config", "min_token_length=-1"), "--min-token-length: must be at least 0, got -1"),
        (("run", "--mu", -500), "mu must be > 0: -500.0"),
        (("run", "--config", "mu=-500"), "mu must be > 0: -500.0"),
        (("run", "--k3", -1), "k3 must be >= 0: -1.0"),
        (("verify", "--c", 0), "c must be > 0: 0.0"),
        (("run", "--k3", "inf"), "k3 must be finite: inf"),
        (("run", "--mu", "inf"), "mu must be finite: inf"),
        (("run", "--config", "c=inf"), "c must be finite: inf"),
        (("verify", "--k1", "inf"), "k1 must be finite: inf"),
        (("expand", "--expanded-term-weight", "nan"), "expanded_term_weight must be > 0 and finite: nan"),
        (("expand", "--expanded-term-weight", "inf"), "expanded_term_weight must be > 0 and finite: inf"),
        (("expand", "--expanded-term-weight", "1e5"), "expanded_term_weight must be at most 1000: 100000.0"),
        (("expand", "--expanded-term-weight", "1e19"), "expanded_term_weight must be at most 1000: 1e+19"),
        (("run", "--tag", "my tag"), "--tag: must be non-empty and hold no whitespace, got 'my tag'"),
        (("run", "--tag", ""), "--tag: must be non-empty and hold no whitespace, got ''"),
        (("run", "--config", "tag=a\tb"), "--tag: must be non-empty and hold no whitespace, got 'a\\tb'"),
        (("run", "--models", ",,"), "--models: names no model: ',,'"),
        (("verify", "--models", ",,"), "--models: names no model: ',,'"),
        (("run", "--tag", "a/b"), "--tag: must hold no path separator, got 'a/b'"),
        (("run", "--config", "tag=x/y"), "--tag: must hold no path separator, got 'x/y'"),
    ],
    ids=["run-cutoff-0", "run-cutoff-negative", "eval-cutoff-0", "config-fields-X",
         "expand-max-added-negative", "expand-max-synonyms-negative", "index-budget-negative",
         "verify-no-instances", "index-unicode-form-XYZ", "expand-unicode-form-lowercase",
         "config-unicode-form-XYZ", "index-min-token-length-negative", "config-min-token-length-negative",
         "run-mu-negative", "config-mu-negative", "run-k3-negative", "verify-c-0", "run-k3-inf",
         "run-mu-inf", "config-c-inf", "verify-k1-inf", "expand-weight-nan", "expand-weight-inf",
         "expand-weight-1e5", "expand-weight-1e19", "run-tag-with-space", "run-tag-empty", "config-tag-with-tab",
         "run-models-none", "verify-models-none", "run-tag-with-slash", "config-tag-with-slash"],
)
def test_out_of_range_option_is_a_validation_error_naming_it(command, option, fixture_dir, workspace, tmp_path, capsys):
    name, flag, value = command
    if flag == "--config":
        (tmp_path / "exp.conf").write_text(value + "\n", encoding="utf-8")
        value = tmp_path / "exp.conf"
    out = tmp_path / "out"
    assert run_cli(name, *_required_args(name, fixture_dir, workspace, out), flag, value) == 1
    assert f"error: {option}" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def _required_args(command, fixture_dir, workspace, out):
    """Flags that make `command` succeed on the fixture, writing under `out`."""
    return {
        "run": ("--index-dir", workspace / "idx", "--topics", fixture_dir / "topics.txt", "--models", "BM25",
                "--output-dir", out),
        "eval": ("--runs", workspace / "runs_before", "--qrels", fixture_dir / "qrels.txt", "--output-dir", out),
        "expand": ("--topics", fixture_dir / "topics.txt", "--thesaurus", fixture_dir / "thesaurus.tsv",
                   "--output", out),
        "index": ("--corpus", fixture_dir / "corpus.trec", "--index-dir", out),
        "compare": ("--before", workspace / "eval_before", "--after", workspace / "eval_after", "--output-dir", out),
        "verify": (),
    }[command]


@pytest.mark.parametrize("command", ["run", "eval", "compare"])
@pytest.mark.parametrize("through", ["flag", "config"])
def test_empty_output_dir_is_a_validation_error_naming_it(
    command, through, fixture_dir, workspace, tmp_path, monkeypatch, capsys
):
    """An empty value (a config line left blank, say) names no directory,
    not the working one."""
    monkeypatch.chdir(tmp_path)
    args = _required_args(command, fixture_dir, workspace, tmp_path / "out")[:-2]  # all but --output-dir
    if through == "flag":
        args += ("--output-dir", "")
    else:
        (tmp_path / "exp.conf").write_text("output_dir=\n", encoding="utf-8")
        args += ("--config", tmp_path / "exp.conf")
    assert run_cli(command, *args) == 1
    assert capsys.readouterr().err == "error: missing required option: --output-dir\n"
    assert [p.name for p in tmp_path.iterdir()] == (["exp.conf"] if through == "config" else [])


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("run", "--topics", "adir", "--topics: is a directory: {adir}"),
        ("expand", "--topics", "adir", "--topics: is a directory: {adir}"),
        ("expand", "--thesaurus", "adir", "--thesaurus: is a directory: {adir}"),
        ("eval", "--qrels", "adir", "--qrels: is a directory: {adir}"),
        ("index", "--stopwords", "adir", "--stopwords: is a directory: {adir}"),
        ("expand", "--stopwords", "adir", "--stopwords: is a directory: {adir}"),
        ("run", "--config", "adir", "--config: is a directory: {adir}"),
        ("run", "--config", "tag=a\0b", "{conf}:2: config key tag: value holds a NUL byte"),
        ("run", "--config", "output_dir=o\0x", "{conf}:2: config key output_dir: value holds a NUL byte"),
        ("expand", "--config", "output=o\0x", "{conf}:2: config key output: value holds a NUL byte"),
    ],
    ids=["run-topics-dir", "expand-topics-dir", "expand-thesaurus-dir", "eval-qrels-dir", "index-stopwords-dir",
         "expand-stopwords-dir", "run-config-dir", "config-tag-with-nul", "config-output-dir-with-nul",
         "config-output-with-nul"],
)
def test_unreadable_input_or_config_value_is_a_validation_error_naming_it(
    command, flag, value, message, fixture_dir, workspace, tmp_path, capsys
):
    adir, conf, out = tmp_path / "adir", tmp_path / "exp.conf", tmp_path / "out"
    adir.mkdir()
    if value == "adir":
        value = adir
    else:
        conf.write_text("# one setting\n" + value + "\n", encoding="utf-8")
        value = conf
    # a flag given last wins over the same required flag
    assert run_cli(command, *_required_args(command, fixture_dir, workspace, out), flag, value) == 1
    err = capsys.readouterr().err
    assert f"error: {message.format(adir=adir, conf=conf)}" in err
    assert "internal error" not in err
    assert not out.exists()
    assert not list(tmp_path.rglob(".tmp.*"))


@pytest.mark.parametrize(
    "command, output, named",
    [
        ("run", "afile/r", "afile/r"),
        ("expand", "afile/x.txt", "afile/x.txt"),
        ("expand", "somedir", "somedir"),
        ("index", "afile", "afile"),
        ("index", "afile/i", "afile/i"),
    ],
    ids=["run-dir-under-a-file", "expand-dir-under-a-file", "expand-output-is-a-directory",
         "index-dir-is-a-file", "index-dir-under-a-file"],
)
def test_unwritable_output_path_is_a_validation_error_naming_it(
    command, output, named, fixture_dir, workspace, tmp_path, capsys
):
    (tmp_path / "afile").write_text("in the way\n", encoding="utf-8")
    (tmp_path / "somedir").mkdir()
    args = {
        "run": ("--index-dir", workspace / "idx", "--topics", fixture_dir / "topics.txt", "--models", "BM25",
                "--output-dir"),
        "expand": ("--topics", fixture_dir / "topics.txt", "--thesaurus", fixture_dir / "thesaurus.tsv",
                   "--output"),
        "index": ("--corpus", fixture_dir / "corpus.trec", "--index-dir"),
    }[command]
    assert run_cli(command, *args, tmp_path / output) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / named}")
    assert "internal error" not in err
    assert not list(tmp_path.rglob(".tmp.*"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "somedir"]


def test_a_bad_run_file_replaces_no_eval_file(workspace, fixture_dir, tmp_path, capsys):
    runs, out = tmp_path / "runs", tmp_path / "eval"
    shutil.copytree(workspace / "runs_before", runs)
    (runs / "exp.ZZZ.run").write_text("junk\n", encoding="utf-8")  # evaluated after the good ones
    shutil.copytree(workspace / "eval_before", out)
    before = dir_hash(out)
    # a cutoff of 1 would change every .eval and .csv file
    assert run_cli("eval", "--runs", runs, "--qrels", fixture_dir / "qrels.txt", "--cutoff", 1,
                   "--output-dir", out) == 2
    assert f"error: {runs / 'exp.ZZZ.run'}: line 1: expected 6 fields, got 1" in capsys.readouterr().err
    assert dir_hash(out) == before
    assert not list(tmp_path.rglob(".tmp.*"))


def test_expand_writes_its_topics_and_stats_or_neither(fixture_dir, tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    assert run_cli("expand", "--topics", fixture_dir / "topics.txt", "--thesaurus", fixture_dir / "thesaurus.tsv",
                   "--output", tmp_path / "new" / "x.txt", "--stats-output", tmp_path / "adir") == 1
    assert f"error: cannot write {tmp_path / 'adir'}: Is a directory" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.txt"))
    assert not list(tmp_path.rglob(".tmp.*"))


def test_index_header_missing_a_key_is_a_data_error_naming_it(workspace, fixture_dir, tmp_path, capsys):
    idx = tmp_path / "idx"
    shutil.copytree(workspace / "idx", idx)
    payload = (idx / "header.json").read_bytes()[:-8]
    header = json.loads(payload)
    del header["num_documents"]
    payload = json.dumps(header).encode("utf-8")
    (idx / "header.json").write_bytes(payload + checksum64(payload))
    code = run_cli("run", "--index-dir", idx, "--topics", fixture_dir / "topics.txt", "--models", "BM25",
                   "--output-dir", tmp_path / "runs")
    assert code == 2
    assert f"error: {idx / 'header.json'}: key 'num_documents' is missing or not of type int" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "expand"])
def test_index_header_whose_settings_lost_their_fingerprint_is_a_data_error(
    command, workspace, fixture_dir, tmp_path, capsys
):
    """A header edited and re-sealed passes its checksum; the fingerprint it
    stores must still be that of the analyzer settings it records."""
    idx = tmp_path / "idx"
    shutil.copytree(workspace / "idx", idx)
    header = json.loads((idx / "header.json").read_bytes()[:-8])
    header["analyzer"]["lowercase_latin"] = False
    write_checksummed(idx / "header.json", json.dumps(header, sort_keys=True).encode("utf-8"))
    args = {
        "run": ("--topics", fixture_dir / "topics.txt", "--models", "BM25", "--output-dir", tmp_path / "out"),
        "expand": ("--topics", fixture_dir / "topics.txt", "--thesaurus", fixture_dir / "thesaurus.tsv",
                   "--output", tmp_path / "out" / "x.txt"),
    }[command]
    assert run_cli(command, "--index-dir", idx, *args) == 2
    assert capsys.readouterr().err == (
        f"error: {idx / 'header.json'}: stored fingerprint '7b6de6e5361cdb0b' is not that of the analyzer settings "
        "it records ('1a32fdd90151fc46')\n"
    )
    assert not (tmp_path / "out").exists()


def _last_id_past_the_end(gaps, tfs, n):
    gaps[-1] += n - gaps.sum()


def _a_gap_of_zero(gaps, tfs, n):
    gaps[1] = 0


def _a_tf_of_zero(gaps, tfs, n):
    tfs[0] = 0


def _fixture_index(tmp_path):
    """The index of the corpus of `scripts/make_corpus.py fixture`, in which
    "bgdumare" is in 199 of the 200 documents, and a topic of that term."""
    exp = synth_experiment(random.Random(7), num_docs=200, num_topics=8)
    write_corpus(exp.docs, tmp_path / "corpus.trec")
    assert run_cli("index", "--corpus", tmp_path / "corpus.trec", "--index-dir", tmp_path / "idx") == 0
    write_topics([Topic("1", "bgdumare")], tmp_path / "topics.txt")
    return tmp_path / "idx"


@pytest.mark.parametrize(
    "damage, fault",
    [
        (_last_id_past_the_end, "internal ids run past the last document, 199"),
        (_a_gap_of_zero, "is listed twice"),
        (_a_tf_of_zero, "has a tf of 0"),
    ],
    ids=["id-past-the-end", "gap-of-0", "tf-of-0"],
)
def test_a_resealed_posting_block_with_impossible_values_is_a_data_error(damage, fault, tmp_path, capsys):
    """A posting block rewritten in place and re-sealed with a valid checksum
    passes the checksum; its values must still name the file, the term and
    the block when every model ranks a topic of that term."""
    idx = _fixture_index(tmp_path)
    index = Index.load(idx)
    df, _cf, offset, nbytes = index._table[index._lexicon["bgdumare"]].tolist()
    assert df == 199
    payload = bytearray(read_checksummed(idx / "postings.bin"))
    pairs = decode_varints(payload, offset, 2 * df, nbytes).reshape(df, 2)
    damage(pairs[:, 0], pairs[:, 1], index.stats.num_docs)
    block = encode_varints(pairs.reshape(-1))
    assert len(block) == nbytes  # so every other block keeps its offset
    payload[offset : offset + nbytes] = block
    write_checksummed(idx / "postings.bin", bytes(payload))

    code = run_cli("run", "--index-dir", idx, "--topics", tmp_path / "topics.txt", "--output-dir", tmp_path / "runs")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {idx / 'postings.bin'}: posting block of term 'bgdumare' at byte offset {offset}: " in err
    assert fault in err
    assert not list((tmp_path / "runs").iterdir())


def test_a_resealed_lexicon_cf_the_tfs_do_not_sum_to_is_a_data_error(tmp_path, capsys):
    idx = _fixture_index(tmp_path)
    index = Index.load(idx)
    row = index._lexicon["bgdumare"]
    _df, cf, offset, _nbytes = index._table[row].tolist()
    assert cf == 1515
    index._table[row, 1] = cf + 1
    index.persist(idx)  # lexicon.bin re-sealed; the other files keep their bytes
    assert Index.load(idx).term_stats("bgdumare")[1] == cf + 1

    code = run_cli("run", "--index-dir", idx, "--topics", tmp_path / "topics.txt", "--models", "BM25",
                   "--output-dir", tmp_path / "runs")
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {idx / 'postings.bin'}: posting block of term 'bgdumare' at byte offset {offset}: "
        f"its tfs sum to {cf}, not to the lexicon's cf of {cf + 1}\n"
    )
    assert not list((tmp_path / "runs").iterdir())
