"""Two standing mutation gates. The first damages every input kind and
every index file at random and runs the command that reads it; the second
gives every subcommand's options boundary values, as flags or in a config
file.

Whatever the damage or the value, the command exits 0, 1 or 2, never 3; on 1
or 2 its error names the damaged file, or the option, key or path; it leaves
no temporary file; and when it fails, an output that existed before is left
as it was. Index files are damaged both as they are (the checksum catches
it) and re-sealed with a valid checksum (the readers' own checks must). Some
re-sealed damage keeps every invariant a reader can check, and such a run
exits 0 with other rankings; the gate asks no more of it.
"""

import contextlib
import io
import os
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from girit.cli import _OPTIONS, main
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


# boundary values for each option key, as its config value would read; a
# `{name}` is a path under the example's directory, or the command's good input
_BIG = str(2**63)
_FLOATS = ["0", "-1", "1e-300", "0.5", "1", "1e300", "nan", "inf", "-inf", "", "x"]
_FILE_IN = ["{good}", "{adir}", "{missing}", "", "{nonascii}"]
_DIR_IN = ["{good}", "{afile}", "{missing}", "{adir}", ""]
_DIR_OUT = ["{out}", "{new}", "{afile}", "{afile}/x", "", "{nonascii}", "o\0x"]
_FILE_OUT = ["{out}/topics.txt", "{new}/x.txt", "{adir}", "{afile}/x", "", "{nonascii}.txt", "o\0x"]
_VALUES = {
    "corpus": ["{good}", "{adir}", "{missing}", "", "{good},{adir}", "{good},{missing}"],
    "runs": ["{good}", "{adir}", "{missing}", "", "{good},{afile}"],
    "index_dir": _DIR_IN,  # an input directory, but `index` writes it: `_DIR_OUT` there
    "memory_budget_mb": ["-1", "0", "1", _BIG, "", "1.5"],
    "lenient": ["yes", "no", "maybe", ""],
    "lowercase": ["yes", "no", "maybe", ""],
    "unicode_form": ["NFC", "NFKD", "nfc", "", "\u0a97"],
    "min_token_length": ["-1", "0", "3", _BIG, ""],
    "stopwords": _FILE_IN,
    "topics": _FILE_IN,
    "fields": ["T", "TDN", "X", ""],
    "models": ["BM25", "PL2,BM25,PL2", "", ",,", "nope", "\u0a97", "all"],
    "cutoff": ["-1", "0", "1", _BIG, "x"],
    "output_dir": _DIR_OUT,
    "tag": ["t", "", "a/b", "a b", "\u0a97\u0ac1", "%d", "a\0b"],
    **{k: _FLOATS for k in ("c", "k1", "b", "k3", "mu", "lambda", "expanded_term_weight")},
    "thesaurus": _FILE_IN,
    "output": _FILE_OUT,
    "stats_output": _FILE_OUT,
    "max_added_per_query": ["-1", "0", "1", _BIG],
    "max_synonyms_per_term": ["-1", "0", "1", _BIG],
    "qrels": _FILE_IN,
    "before": _DIR_IN,
    "after": _DIR_IN,
    "instances": ["-1", "0", "1", "2"],  # small, so that no example starts a large build
    "seed": ["-1", "0", _BIG],
    "max_docs": ["-5", "0", "1", "60"],
}
_COMMANDS = ("index", "run", "expand", "eval", "compare", "verify")


def _base(c: Path, command: str) -> dict:
    """Option values under which `command` succeeds; `{out}` holds its earlier outputs."""
    return {
        "index": {"corpus": str(c / "corpus.trec"), "index_dir": "{out}"},
        "run": {"index_dir": str(c / "idx"), "topics": str(c / "topics.txt"), "models": "BM25,PL2",
                "cutoff": "20", "output_dir": "{out}", "tag": "t"},
        "expand": {"topics": str(c / "topics.txt"), "thesaurus": str(c / "thesaurus.tsv"),
                   "index_dir": str(c / "idx"), "output": "{out}/topics.txt"},
        "eval": {"runs": str(c / "runs"), "qrels": str(c / "qrels.txt"), "output_dir": "{out}"},
        "compare": {"before": str(c / "eval"), "after": str(c / "eval"), "output_dir": "{out}"},
        "verify": {"instances": "1", "max_docs": "50", "models": "BM25"},
    }[command]


_EARLIER = {"index": "idx", "run": "runs", "expand": "expanded", "eval": "eval", "compare": "cmp"}
_GOOD = {"corpus": "corpus.trec", "runs": "runs", "index_dir": "idx", "topics": "topics.txt",
         "thesaurus": "thesaurus.tsv", "qrels": "qrels.txt", "before": "eval", "after": "eval",
         "stopwords": "exp.conf"}  # any text file is a stopword list


@st.composite
def _settings(draw):
    """A subcommand, and some of its options each with a value and where it
    is given: True for the config file, False for a flag."""
    command = draw(st.sampled_from(_COMMANDS))
    keys = [o.key for o in _OPTIONS if command in o.commands.split()]
    drawn = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    values = {}
    for key in drawn:
        choices = _DIR_OUT if (command, key) == ("index", "index_dir") else _VALUES[key]
        value = draw(st.sampled_from(choices))
        # a NUL byte cannot pass through argv, and a switch's flag is on or off
        in_config = "\0" in value or key in ("lenient", "lowercase") and value not in ("yes", "no")
        values[key] = (value, in_config or draw(st.booleans()))
    config_at = draw(st.sampled_from(["file", "file", "{adir}", "{missing}"]))
    return command, values, config_at


@settings(max_examples=800, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setting=_settings())
def test_option_values_fail_cleanly_or_not_at_all(clean, setting):
    command, values, config_at = setting
    by_key = {o.key: o for o in _OPTIONS}
    with tempfile.TemporaryDirectory() as tmp:
        w = Path(tmp)
        (w / "adir").mkdir()
        (w / "afile").write_text("in the way\n", encoding="utf-8")
        if command in _EARLIER:
            shutil.copytree(clean / _EARLIER[command], w / "out")
        places = {"out": w / "out", "new": w / "new" / "o", "adir": w / "adir", "afile": w / "afile",
                  "missing": w / "missing", "nonascii": w / "\u0a97\u0ac1"}

        def path(template: str, key: str) -> str:
            return template.format(good=clean / _GOOD.get(key, ""), **places)

        given = {k: (v, False) for k, v in _base(clean, command).items()}
        given.update(values)
        flags, lines = [], []
        for key, (template, in_config) in given.items():
            value = ",".join(path(t, key) for t in template.split(",")) if template else ""
            option = by_key[key]
            if in_config:
                lines.append(f"{key}={value}")
            elif option.convert is None:
                flags.append(option.flag if value == "yes" else "--no-" + option.flag[2:])
            elif option.many:
                flags += [x for part in value.split(",") for x in (option.flag, part)]
            else:
                flags += [option.flag, value]
        config = w / "exp.conf"
        config_flag = str(config) if config_at == "file" else path(config_at, "config")
        if lines:
            config.write_text("\n".join(lines) + "\n", encoding="utf-8")
            flags += ["--config", config_flag]
        before = _snapshot(w)
        cwd = os.getcwd()
        os.chdir(w)  # a relative output path (an empty one, say) would land here, where the snapshot sees it
        try:
            code, err = cli(command, *flags)
        finally:
            os.chdir(cwd)

        assert code in (0, 1, 2), err
        assert not list(w.rglob(".tmp.*"))
        if not code:
            return
        assert "internal error" not in err
        named = {"--config", config_flag} if lines else set()
        for key, (template, _) in given.items():
            named |= {by_key[key].flag, key} if key in values else set()
            named |= {path(t, key) for t in template.split(",") if t}
        aborted = re.search(r"models aborted by scoring-domain errors: (.*)", err)
        assert aborted or any(name in err for name in named), err
        after = _snapshot(w)
        if aborted:
            # each model that was not aborted has written its run file
            gone = set(aborted.group(1).split(", "))
            kept = lambda k: k.suffix != ".run" or k.stem.split(".")[-1] in gone  # noqa: E731
            before, after = ({k: v for k, v in d.items() if kept(k)} for d in (before, after))
        assert after == before, err
