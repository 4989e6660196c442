"""Command-line driver for the full experiment pipeline.

Subcommands: index, run, expand, eval, compare, verify. Every option can also
come from a line-oriented ``key=value`` config file (``--config``); explicit
flags win over the file. Exit codes: 0 success, 1 validation error, 2
data/format error, 3 internal error.
"""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys
from contextlib import ExitStack
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import UNICODE_FORMS, AnalyzerConfig, load_stopwords
from .corpus import parse_corpus
from .errors import (
    ConfigError,
    EmptyCollectionError,
    FormatError,
    ScoringDomainError,
    ToolkitError,
)
from .evaluation import (
    compare,
    evaluate_run,
    parse_qrels,
    parse_run,
    read_eval_summary,
)
from .expansion import (
    ExpansionPolicy,
    expand_query,
    expand_topic,
    expansion_stats,
    load_thesaurus,
)
from .index import Index, build_index, build_index_to_dir, read_config
from .models import MODEL_IDS, ModelParams, check_model_id
from .retrieval import FIELD_SELECTIONS, build_query, oracle_rank, parse_topics, rank, write_run, write_topics
from .util import read_text, replacing

log = logging.getLogger(__name__)


class _Option(NamedTuple):
    """An option: `--some-name` as a flag, `some_name` as a config key."""

    flag: str
    commands: str  # the subcommands that take it
    convert: Callable | None = str  # None: an on/off switch
    default: object = None  # the command's default; None leaves it to the library
    dest: str | None = None  # the library's name for it, where that differs
    choices: tuple | None = None
    many: bool = False  # a repeatable flag, or a comma-separated config value
    help: str | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def name(self) -> str:
        return self.dest or self.key


_OPTIONS = (
    _Option("--corpus", "index", many=True, help="corpus file or directory (repeatable)"),
    _Option("--index-dir", "index run expand", help="the index (expand borrows its analyzer configuration)"),
    _Option("--memory-budget-mb", "index", int),
    _Option("--lenient", "index", None, False),
    _Option("--lowercase", "index expand", None, dest="lowercase_latin"),
    _Option("--unicode-form", "index expand", dest="unicode_normalization"),
    _Option("--min-token-length", "index expand", int),
    _Option("--stopwords", "index expand"),
    _Option("--topics", "run expand"),
    _Option("--fields", "run expand", default="TD", choices=FIELD_SELECTIONS),
    _Option("--models", "run verify", default="all", help="'all' or comma-separated model ids"),
    _Option("--cutoff", "run eval", int, 1000),
    _Option("--output-dir", "run eval compare", default="."),
    _Option("--tag", "run", default="girit"),
    *(_Option(f"--{name}", "run verify", float) for name in ("c", "k1", "b", "k3", "mu")),
    _Option("--lambda", "run verify", float, dest="lambda_"),
    _Option("--thesaurus", "expand"),
    _Option("--output", "expand", help="path for the expanded topics file"),
    _Option("--stats-output", "expand"),
    _Option("--max-added-per-query", "expand", int),
    _Option("--max-synonyms-per-term", "expand", int),
    _Option("--expanded-term-weight", "expand", float),
    _Option("--runs", "eval", many=True, help="run file or directory (repeatable)"),
    _Option("--qrels", "eval"),
    _Option("--before", "compare", help=".eval file or directory, without expansion"),
    _Option("--after", "compare", help=".eval file or directory, with expansion"),
    _Option("--instances", "verify", int, 20),
    _Option("--seed", "verify", int, 7),
    _Option("--max-docs", "verify", int, 150),
)


def _convert(option: _Option, raw: str):
    """A config file's value, read as the option's flag reads it."""
    if option.many:
        return [p.strip() for p in raw.split(",") if p.strip()]
    if option.convert is None:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {option.key}: expected boolean, got {raw!r}")
    try:
        value = option.convert(raw)
        if option.choices and value not in option.choices:
            raise ValueError(raw)
        return value
    except ValueError:
        raise ConfigError(f"config key {option.key}: bad value {raw!r}") from None


def _read_config(path, taken: list[_Option]) -> dict:
    """The options in `taken` that the config file at `path` sets. Any key of
    the table is accepted; one that `taken` lacks is not read further."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"--config: is a directory: {path}")
    try:
        text = read_text(path)
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    known = {option.key for option in _OPTIONS}
    values: dict[str, str] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if "\0" in value:  # no path or tag can hold one
            raise ConfigError(f"{path}:{lineno}: config key {key}: value holds a NUL byte")
        values[key] = value.strip()
    return {o.name: _convert(o, values[o.key]) for o in taken if o.key in values}


def _options(args: argparse.Namespace) -> dict:
    """The options of `args.command`: its flags over its config file over its
    defaults. One that none of them sets is absent, so the library's
    default holds."""
    taken = [o for o in _OPTIONS if args.command in o.commands.split()]
    given = vars(args)
    opts = {o.name: o.default for o in taken if o.default is not None}
    if "config" in given:
        opts.update(_read_config(given["config"], taken))
    opts.update((o.name, given[o.name]) for o in taken if o.name in given)
    return opts


def _given(opts: dict, names) -> dict:
    return {name: opts[name] for name in names if name in opts}


def _make(cls, opts: dict):
    """`cls` from the options named as its fields; the rest keep its defaults."""
    try:
        return cls(**_given(opts, (f.name for f in fields(cls))))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _need(opts: dict, name: str):
    if not opts.get(name):
        raise ConfigError(f"missing required option: {_flag(name)}")
    return opts[name]


def _need_path(opts: dict, name: str) -> Path:
    path = _need(opts, name)
    if not os.path.exists(path):
        raise ConfigError(f"{_flag(name)}: path does not exist: {path}")
    return Path(path)


def _need_file(opts: dict, name: str) -> Path:
    path = _need_path(opts, name)
    if path.is_dir():
        raise ConfigError(f"{_flag(name)}: is a directory: {path}")
    return path


def _at_least(opts: dict, name: str, least: int) -> None:
    if opts.get(name, least) < least:
        raise ConfigError(f"{_flag(name)}: must be at least {least}, got {opts[name]}")


def _analyzer(opts: dict) -> AnalyzerConfig:
    form = opts.get("unicode_normalization")
    if form is not None and form not in UNICODE_FORMS:
        raise ConfigError(f"--unicode-form: must be one of {', '.join(UNICODE_FORMS)}, got {form!r}")
    _at_least(opts, "min_token_length", 0)
    cfg = _make(AnalyzerConfig, opts)
    if opts.get("stopwords"):
        cfg = replace(cfg, stopword_list=load_stopwords(_need_file(opts, "stopwords"), cfg))
    return cfg


# the analyzer options; each sets the AnalyzerConfig field of its name, but
# `stopwords`, a file, sets stopword_list
_ANALYZER_OPTIONS = ("lowercase_latin", "unicode_normalization", "min_token_length", "stopwords")


def _index_analyzer(opts: dict) -> AnalyzerConfig:
    """The analyzer configuration the index in --index-dir records. An
    analyzer option given as well must agree with it: a config file shared
    with `index` is accepted, a setting that would analyze otherwise is not."""
    index_dir = opts["index_dir"]
    cfg = read_config(index_dir)
    for option in _OPTIONS:
        if option.name not in _ANALYZER_OPTIONS or option.name not in opts:
            continue
        given = opts[option.name]
        if option.name == "stopwords":
            words = load_stopwords(_need_file(opts, "stopwords"), cfg) if given else frozenset()
            agrees = words == cfg.stopword_list
        else:
            agrees = given == getattr(cfg, option.name)
        if not agrees:
            raise ConfigError(f"{option.flag}: {given!r} disagrees with the analyzer settings of the index in {index_dir}")
    return cfg


def _models(opts: dict) -> tuple[str, ...]:
    spec = opts["models"]
    if spec in ("all", ""):
        return MODEL_IDS
    # a repeated id names the same model once, where it first appears
    models = tuple(dict.fromkeys(check_model_id(name.strip()) for name in spec.split(",") if name.strip()))
    if not models:
        raise ConfigError(f"--models: names no model: {spec!r}")
    return models


def _files_of(opts: dict, name: str, kind: str, purpose: str, suffix: str = "") -> list[Path]:
    """Each path of option `name` (one or a list) as given; a directory stands
    for its regular files ending in `suffix` whose names do not start with
    ".", in name order, so that no temporary `replacing` left is an input."""
    paths = _need(opts, name)
    paths = [paths] if isinstance(paths, str) else paths
    files: list[Path] = []
    for path in paths:
        if not os.path.exists(path):
            raise ConfigError(f"{_flag(name)}: {kind} path does not exist: {path}")
        if os.path.isdir(path):
            found = (Path(path, n) for n in sorted(os.listdir(path)) if n.endswith(suffix) and not n.startswith("."))
            files.extend(f for f in found if f.is_file())
        else:
            files.append(Path(path))
    if not files:
        raise ConfigError(f"{_flag(name)}: no {kind} files to {purpose} in {', '.join(paths)}")
    return files


def _write_each(directory, texts: dict[str, str]) -> None:
    """Write each named file in `directory`; none replaces its target unless
    all were written."""
    with ExitStack() as stack:
        for name, text in texts.items():
            stack.enter_context(replacing(os.path.join(directory, name))).write(text)


def cmd_index(opts: dict) -> int:
    files = _files_of(opts, "corpus", "corpus", "index")
    index_dir = _need(opts, "index_dir")
    cfg_analyzer = _analyzer(opts)
    _at_least(opts, "memory_budget_mb", 0)
    seen: set[str] = set()  # docids across all the files; the builder checks against it too
    docs = (doc for f in files for doc in parse_corpus(f, lenient=opts["lenient"], seen=seen))
    try:
        stats = build_index_to_dir(docs, cfg_analyzer, index_dir, seen=seen, **_given(opts, ["memory_budget_mb"]))
    except EmptyCollectionError as exc:
        raise EmptyCollectionError(f"{', '.join(map(str, opts['corpus']))}: {exc}") from None
    _write_each(index_dir, {"stats.txt": stats.as_text(), "stats.csv": stats.as_csv()})
    sys.stdout.write(stats.as_text())
    sys.stdout.write(f"index written to {index_dir}\n")
    return 0


def cmd_run(opts: dict) -> int:
    """Rank every topic under each selected model, queries as the outer loop.

    Each query's terms are decoded once (`Index.holding`) for all the models.
    Each model's run file is one `replacing` writer for the whole stage, fed
    one ranked list at a time. A model whose scoring hits a
    ScoringDomainError has its writer discarded and its file left as it was;
    the others go on. Any other error discards every writer.
    """
    index = Index.load(_need_path(opts, "index_dir"))
    topics = parse_topics(_need_file(opts, "topics"))
    _at_least(opts, "cutoff", 1)
    cutoff = opts["cutoff"]
    tag = opts["tag"]
    if tag.split() != [tag]:  # a run line's sixth field
        raise ConfigError(f"--tag: must be non-empty and hold no whitespace, got {tag!r}")
    if any(sep and sep in tag for sep in ("/", os.sep, os.altsep)):  # it names a file in --output-dir
        raise ConfigError(f"--tag: must hold no path separator, got {tag!r}")
    out_dir = _need(opts, "output_dir")
    params = _make(ModelParams, opts)
    models = _models(opts)
    bags = [build_query(t, opts["fields"], index.cfg) for t in topics]
    paths = {model: os.path.join(out_dir, f"{tag}.{model}.run") for model in models}
    lines = dict.fromkeys(models, 0)
    aborted: dict[str, ScoringDomainError] = {}
    with ExitStack() as stack:
        # each writer sits in a stack of its own, so that one model's abort
        # can discard it while the outer stack commits or discards the rest
        writers = {}
        for model in models:
            own = stack.enter_context(ExitStack())
            writers[model] = (own, own.enter_context(replacing(paths[model])))
        for bag in bags:
            view = index.holding(bag.terms)
            for model in list(writers):
                try:
                    ranked = rank(view, bag, model, params, k=cutoff)
                except ScoringDomainError as exc:
                    aborted[model] = exc
                    writers.pop(model)[0].__exit__(type(exc), exc, exc.__traceback__)
                    continue
                lines[model] += write_run([ranked], tag, writers[model][1])
    for model in models:
        if model in aborted:
            sys.stderr.write(f"{model}: aborted: {aborted[model]}\n")
        else:
            sys.stdout.write(f"{model}: wrote {lines[model]} lines to {paths[model]}\n")
    if aborted:
        failed = ", ".join(model for model in models if model in aborted)
        sys.stderr.write(f"models aborted by scoring-domain errors: {failed}\n")
        return 2
    return 0


def cmd_expand(opts: dict) -> int:
    topics = parse_topics(_need_file(opts, "topics"))
    fields = opts["fields"]
    cfg_analyzer = _index_analyzer(opts) if opts.get("index_dir") else _analyzer(opts)
    thesaurus = load_thesaurus(_need_file(opts, "thesaurus"), cfg_analyzer)
    policy = _make(ExpansionPolicy, opts)
    output = _need(opts, "output")
    expanded_topics = []
    for topic in topics:
        bag = build_query(topic, fields, cfg_analyzer)
        expanded = expand_query(bag, thesaurus, policy)
        expanded_topics.append(expand_topic(topic, bag, expanded))
    stats = expansion_stats(topics, expanded_topics, fields, cfg_analyzer)
    # both files or neither
    with replacing(output) as fh, replacing(opts.get("stats_output") or output + ".stats.txt") as stats_fh:
        write_topics(expanded_topics, fh)
        stats_fh.write(stats.as_text())
    sys.stdout.write(stats.as_text())
    sys.stdout.write(f"expanded topics written to {output}\n")
    return 0


def _model_of_run_file(path: Path) -> str:
    name = path.name
    if name.endswith(".run"):
        name = name[: -len(".run")]
    if "." in name:
        return name.split(".")[-1]
    return name


def cmd_eval(opts: dict) -> int:
    runs: dict[str, Path] = {}  # model -> its one run file; outputs are named by model
    for path in _files_of(opts, "runs", "run", "evaluate", suffix=".run"):
        model = _model_of_run_file(path)
        if model in runs:
            raise ConfigError(f"--runs: {runs[model]} and {path} are both run files of model {model}")
        runs[model] = path
    qrels = parse_qrels(_need_file(opts, "qrels"))
    _at_least(opts, "cutoff", 1)
    cutoff = opts["cutoff"]
    out_dir = _need(opts, "output_dir")
    texts: dict[str, str] = {}
    report = []
    for model, path in runs.items():
        result = evaluate_run(parse_run(path), qrels, cutoff, model=model)
        texts.update({f"{model}.eval": result.as_text(), f"{model}.csv": result.as_csv()})
        report.append(
            f"{model}: relevant_retrieved={result.total_relevant_retrieved}"
            f"/{result.total_relevant} map={result.mean_average_precision:.6f}\n"
        )
    _write_each(out_dir, texts)  # no output is replaced if any run file fails
    sys.stdout.write("".join(report))
    return 0


def cmd_compare(opts: dict) -> int:
    # a later file for a model wins
    before, after = (
        {s.model: s for s in map(read_eval_summary, _files_of(opts, side, "eval", "compare", ".eval"))}
        for side in ("before", "after")
    )
    out_dir = _need(opts, "output_dir")
    try:
        report = compare(before, after)
    except ValueError as exc:
        raise ConfigError(f"{opts['before']} and {opts['after']}: {exc}") from None
    _write_each(out_dir, {"comparison.txt": report.as_text(), "comparison.csv": report.as_csv()})
    sys.stdout.write(report.as_text())
    return 0


def cmd_verify(opts: dict) -> int:
    import random

    from .synth import pick_query_terms, synth_corpus
    from .retrieval import QueryBag

    _at_least(opts, "instances", 1)
    models = _models(opts)
    params = _make(ModelParams, opts)
    cfg_analyzer = AnalyzerConfig()
    rng = random.Random(opts["seed"])
    mismatches: dict[str, int] = {m: 0 for m in models}
    for _ in range(opts["instances"]):
        docs = synth_corpus(rng, rng.randint(50, max(51, opts["max_docs"])))
        terms = pick_query_terms(docs, cfg_analyzer, rng, rng.randint(1, 5))
        if not terms:
            continue
        bag = QueryBag(
            qid="v1",
            terms={t: rng.randint(1, 2) for t in terms},
            fingerprint=cfg_analyzer.fingerprint(),
        )
        index = build_index(docs, cfg_analyzer)
        for model in models:
            fast = rank(index, bag, model, params, k=50)
            slow = oracle_rank(docs, bag, model, cfg_analyzer, params, k=50)
            same = fast.docids() == slow.docids() and all(
                abs(a[2] - b[2]) <= 1e-9 * max(1.0, abs(b[2]))
                for a, b in zip(fast.entries, slow.entries)
            )
            if not same:
                mismatches[model] += 1
    bad = False
    for model in models:
        status = "PASS" if mismatches[model] == 0 else f"FAIL ({mismatches[model]} instances)"
        sys.stdout.write(f"{model}: {status}\n")
        bad = bad or mismatches[model] > 0
    return 3 if bad else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a validation error, as a bad config value is."""
        raise ConfigError(message)


_COMMANDS = (
    ("index", cmd_index, "build and persist an inverted index"),
    ("run", cmd_run, "rank topics under one or more models"),
    ("expand", cmd_expand, "expand topics through a thesaurus"),
    ("eval", cmd_eval, "score run files against qrels"),
    ("compare", cmd_compare, "before/after expansion comparison report"),
    ("verify", cmd_verify, "cross-check the ranker against the reference scorer"),
)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the flags of the options it takes.
    A flag not given is absent from the parsed namespace."""
    parser = _Parser(prog="girit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help in _COMMANDS:
        p = sub.add_parser(command, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--verbose", action="store_true", default=False, help="log progress to stderr")
        for o in _OPTIONS:
            if command not in o.commands.split():
                continue
            if o.convert is None:
                p.add_argument(o.flag, dest=o.name, action=argparse.BooleanOptionalAction, help=o.help)
            else:
                action = "append" if o.many else "store"
                p.add_argument(o.flag, dest=o.name, action=action, type=o.convert, choices=o.choices,
                               metavar=o.key.upper(), help=o.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(_options(args))
    except ToolkitError as exc:
        sys.stderr.write(f"{'internal error' if exc.exit_code == 3 else 'error'}: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
