"""A standing mutation gate: every input kind and every index file, damaged
at random, goes through the command that reads it.

Whatever the damage, the command exits 0, 1 or 2, never 3; on 1 or 2 its
error names the damaged file; it leaves no temporary file; and when it
fails, an output that existed before is left as it was. Index files are
damaged both as they are (the checksum catches it) and re-sealed with a
valid checksum (the readers' own checks must). Some re-sealed damage keeps
every invariant a reader can check, and such a run exits 0 with other
rankings; the gate asks no more of it.
"""

import contextlib
import io
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from girit.cli import main
from girit.corpus import write_corpus
from girit.retrieval import write_topics
from girit.synth import synth_experiment
from girit.util import write_checksummed

MODELS = "BM25,PL2,DLH,DirichletLM,In_expC2,LGD"
INDEX_FILES = ("header.json", "doctable.bin", "lexicon.bin", "postings.bin")


def cli(*args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The inputs and outputs of one small experiment, none of them damaged."""
    c = tmp_path_factory.mktemp("clean")
    exp = synth_experiment(random.Random(11), num_docs=60, num_topics=4)
    write_corpus(exp.docs, c / "corpus.trec")
    write_topics(exp.topics, c / "topics.txt")
    (c / "qrels.txt").write_text(exp.qrels_text, encoding="utf-8")
    (c / "thesaurus.tsv").write_text(exp.thesaurus_text, encoding="utf-8")
    (c / "exp.conf").write_text("# run settings\nmodels=BM25,PL2\nfields=TD\ncutoff=20\nmu=2500\n", encoding="utf-8")
    steps = [
        ("index", "--corpus", c / "corpus.trec", "--index-dir", c / "idx"),
        ("run", "--index-dir", c / "idx", "--topics", c / "topics.txt", "--models", MODELS,
         "--cutoff", 20, "--output-dir", c / "runs", "--tag", "t"),
        ("eval", "--runs", c / "runs", "--qrels", c / "qrels.txt", "--output-dir", c / "eval"),
        ("expand", "--topics", c / "topics.txt", "--thesaurus", c / "thesaurus.tsv", "--index-dir", c / "idx",
         "--output", c / "expanded" / "topics.txt"),
        ("compare", "--before", c / "eval", "--after", c / "eval", "--output-dir", c / "cmp"),
    ]
    (c / "expanded").mkdir()
    for step in steps:
        assert cli(*step)[0] == 0, step
    return c


def _case(c: Path, w: Path, target: str):
    """For one target: the path under `w` of the file to damage, the command
    that reads it, and the directory of outputs the command replaces."""
    out = w / "out"
    run_flags = ("--models", MODELS, "--cutoff", 20, "--output-dir", out, "--tag", "t")
    if target in INDEX_FILES:
        shutil.copytree(c / "idx", w / "idx")
        shutil.copytree(c / "runs", out)
        return w / "idx" / target, ("run", "--index-dir", w / "idx", "--topics", c / "topics.txt", *run_flags), out
    if target == "corpus":
        shutil.copytree(c / "idx", out)
        return w / "corpus.trec", ("index", "--corpus", w / "corpus.trec", "--index-dir", out), out
    if target == "topics":
        shutil.copytree(c / "runs", out)
        return w / "topics.txt", ("run", "--index-dir", c / "idx", "--topics", w / "topics.txt", *run_flags), out
    if target == "config":
        shutil.copytree(c / "runs", out)
        command = ("run", "--config", w / "exp.conf", "--index-dir", c / "idx", "--topics", c / "topics.txt",
                   "--output-dir", out, "--tag", "t")
        return w / "exp.conf", command, out
    if target == "qrels":
        shutil.copytree(c / "eval", out)
        return w / "qrels.txt", ("eval", "--runs", c / "runs", "--qrels", w / "qrels.txt", "--output-dir", out), out
    if target == "run":
        shutil.copytree(c / "eval", out)
        return w / "t.BM25.run", ("eval", "--runs", w / "t.BM25.run", "--qrels", c / "qrels.txt",
                                  "--output-dir", out), out
    if target == "eval":
        shutil.copytree(c / "eval", w / "eval")
        shutil.copytree(c / "cmp", out)
        return w / "eval" / "BM25.eval", ("compare", "--before", w / "eval", "--after", c / "eval",
                                          "--output-dir", out), out
    assert target == "thesaurus"
    shutil.copytree(c / "expanded", out)
    return w / "thesaurus.tsv", ("expand", "--topics", c / "topics.txt", "--thesaurus", w / "thesaurus.tsv",
                                 "--index-dir", c / "idx", "--output", out / "topics.txt"), out


_SOURCES = {"corpus": "corpus.trec", "topics": "topics.txt", "config": "exp.conf", "qrels": "qrels.txt",
            "run": "runs/t.BM25.run", "eval": "eval/BM25.eval", "thesaurus": "thesaurus.tsv"}


def _damage(data: bytes, kind: str, at: int, blob: bytes) -> bytes:
    at %= len(data) + 1
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (blob[0] or 0x80)]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + len(blob) :]
    if kind == "insert":
        return data[:at] + blob + data[at:]
    return data[:at]  # truncate


def _snapshot(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from([*_SOURCES, *INDEX_FILES]),
    resealed=st.booleans(),
    kind=st.sampled_from(["flip", "delete", "insert", "truncate"]),
    at=st.integers(min_value=0, max_value=1 << 20),
    blob=st.binary(min_size=1, max_size=4),
)
@example(target="corpus", resealed=False, kind="truncate", at=0, blob=b"\0")  # an empty corpus
def test_damaged_input_fails_cleanly_or_not_at_all(clean, target, resealed, kind, at, blob):
    with tempfile.TemporaryDirectory() as tmp:
        w = Path(tmp)
        victim, command, out = _case(clean, w, target)
        if target in INDEX_FILES:
            data = victim.read_bytes()
            if resealed:
                write_checksummed(victim, _damage(data[:-8], kind, at, blob))
            else:
                victim.write_bytes(_damage(data, kind, at, blob))
        else:
            victim.write_bytes(_damage((clean / _SOURCES[target]).read_bytes(), kind, at, blob))
        before = _snapshot(out)

        code, err = cli(*command)

        assert code in (0, 1, 2), err
        if code:
            named = str(victim) in err
            if target == "lexicon.bin":
                # a row gives its term's block, which is checked as it is decoded
                named = named or f"{victim.parent / 'postings.bin'}: posting block of term" in err
            if target == "eval":
                # a disagreement between the two sides names both directories
                named = named or f"{victim.parent} and " in err
            if target == "config":
                # a bad value the file sets is named by its key or its option
                named = named or re.search(r"\b(model|models|fields|cutoff|mu)\b|--[a-z]", err)
            assert named, err
        assert not list(w.rglob(".tmp.*"))
        if code:
            aborted = re.search(r"models aborted by scoring-domain errors: (.*)", err)
            if aborted:
                # the other models' files are written; each aborted one is left as it was
                kept = {f"t.{m}.run" for m in aborted.group(1).split(", ")}
                before = {k: v for k, v in before.items() if k.name in kept}
                assert {k: v for k, v in _snapshot(out).items() if k in before} == before
            else:
                assert _snapshot(out) == before
