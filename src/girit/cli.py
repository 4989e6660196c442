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
    EvalSummary,
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
    _Option("--before", "compare", help="directory of .eval files without expansion"),
    _Option("--after", "compare", help="directory of .eval files with expansion"),
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


def _at_least(opts: dict, name: str, least: int) -> None:
    if opts.get(name, least) < least:
        raise ConfigError(f"{_flag(name)}: must be at least {least}, got {opts[name]}")


def _analyzer(opts: dict) -> AnalyzerConfig:
    form = opts.get("unicode_normalization")
    if form is not None and form not in UNICODE_FORMS:
        raise ConfigError(f"--unicode-form: must be one of {', '.join(UNICODE_FORMS)}, got {form!r}")
    _at_least(opts, "min_token_length", 0)
    cfg = _make(AnalyzerConfig, opts)
    stopword_path = opts.get("stopwords")
    if stopword_path:
        if not os.path.exists(stopword_path):
            raise ConfigError(f"stopword file does not exist: {stopword_path}")
        cfg = replace(cfg, stopword_list=load_stopwords(stopword_path, cfg))
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


def _files_of(paths: list[str], kind: str, purpose: str, suffix: str = "") -> list[Path]:
    """Each path as given; a directory stands for its files ending in
    `suffix`, in name order."""
    files: list[Path] = []
    for path in paths:
        if not os.path.exists(path):
            raise ConfigError(f"{kind} path does not exist: {path}")
        if os.path.isdir(path):
            found = (Path(path, n) for n in sorted(os.listdir(path)) if n.endswith(suffix))
            files.extend(f for f in found if f.is_file())
        else:
            files.append(Path(path))
    if not files:
        raise ConfigError(f"no {kind} files to {purpose}")
    return files


def _write_each(directory, texts: dict[str, str]) -> None:
    for name, text in texts.items():
        with replacing(os.path.join(directory, name)) as fh:
            fh.write(text)


def cmd_index(opts: dict) -> int:
    files = _files_of(_need(opts, "corpus"), "corpus", "index")
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
    topics = parse_topics(_need_path(opts, "topics"))
    _at_least(opts, "cutoff", 1)
    cutoff = opts["cutoff"]
    tag = opts["tag"]
    out_dir = opts["output_dir"]
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
    topics = parse_topics(_need_path(opts, "topics"))
    fields = opts["fields"]
    index_dir = opts.get("index_dir")
    cfg_analyzer = read_config(index_dir) if index_dir else _analyzer(opts)
    thesaurus = load_thesaurus(_need_path(opts, "thesaurus"), cfg_analyzer)
    policy = _make(ExpansionPolicy, opts)
    output = _need(opts, "output")
    expanded_topics = []
    for topic in topics:
        bag = build_query(topic, fields, cfg_analyzer)
        expanded = expand_query(bag, thesaurus, policy)
        expanded_topics.append(expand_topic(topic, bag, expanded))
    write_topics(expanded_topics, output)
    stats = expansion_stats(topics, expanded_topics, fields, cfg_analyzer)
    with replacing(opts.get("stats_output", output + ".stats.txt")) as fh:
        fh.write(stats.as_text())
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
    files = _files_of(_need(opts, "runs"), "run", "evaluate", suffix=".run")
    qrels = parse_qrels(_need_path(opts, "qrels"))
    _at_least(opts, "cutoff", 1)
    cutoff = opts["cutoff"]
    out_dir = opts["output_dir"]
    for path in files:
        model = _model_of_run_file(path)
        result = evaluate_run(parse_run(path), qrels, cutoff, model=model)
        _write_each(out_dir, {f"{model}.eval": result.as_text(), f"{model}.csv": result.as_csv()})
        sys.stdout.write(
            f"{model}: relevant_retrieved={result.total_relevant_retrieved}"
            f"/{result.total_relevant} map={result.mean_average_precision:.6f}\n"
        )
    return 0


def _summaries_of_dir(directory: str) -> dict[str, EvalSummary]:
    if not os.path.isdir(directory):
        raise ConfigError(f"not a directory: {directory}")
    summaries: dict[str, EvalSummary] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".eval"):
            summary = read_eval_summary(os.path.join(directory, name))
            summaries[summary.model] = summary
    if not summaries:
        raise ConfigError(f"no .eval files in {directory}")
    return summaries


def cmd_compare(opts: dict) -> int:
    before = _need(opts, "before")
    after = _need(opts, "after")
    try:
        report = compare(_summaries_of_dir(before), _summaries_of_dir(after))
    except ValueError as exc:
        raise ConfigError(f"{before} and {after}: {exc}") from None
    out_dir = opts["output_dir"]
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
