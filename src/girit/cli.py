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
from pathlib import Path

from .analysis import AnalyzerConfig, load_stopwords
from .corpus import parse_corpus
from .errors import (
    AnalyzerMismatchError,
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
from .retrieval import build_query, check_fields, oracle_rank, parse_topics, rank, write_run, write_topics
from .util import read_text, replacing

log = logging.getLogger(__name__)

_CONFIG_KEYS = {
    "corpus", "index_dir", "topics", "fields", "models", "cutoff", "output_dir",
    "tag", "qrels", "thesaurus", "runs", "before", "after", "output", "stats_output",
    "stopwords", "lowercase", "unicode_form", "min_token_length",
    "max_added_per_query", "max_synonyms_per_term", "expanded_term_weight",
    "c", "k1", "b", "k3", "mu", "lambda", "memory_budget_mb", "lenient",
    "instances", "seed", "max_docs",
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_text(path)
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


_KEY_ATTR = {"lambda": "lambda_"}


class Settings:
    """Merged view over CLI flags (which win) and the config file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, _KEY_ATTR.get(key, key), None)
        if flag is not None:
            return flag
        if key in self.file:
            raw = self.file[key]
            if cast is bool:
                lowered = raw.lower()
                if lowered in _TRUE:
                    return True
                if lowered in _FALSE:
                    return False
                raise ConfigError(f"config key {key}: expected boolean, got {raw!r}")
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"config key {key}: bad value {raw!r}") from None
        return default

    def at_least(self, key: str, least: int, default: int) -> int:
        value = self.get(key, default, int)
        if value < least:
            raise ConfigError(f"--{key.replace('_', '-')}: must be at least {least}, got {value}")
        return value

    def need(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise ConfigError(f"missing required option: --{key.replace('_', '-')}")
        return value

    def need_path(self, key: str) -> Path:
        path = self.need(key)
        if not os.path.exists(path):
            raise ConfigError(f"--{key.replace('_', '-')}: path does not exist: {path}")
        return Path(path)

    def analyzer(self) -> AnalyzerConfig:
        stopwords = frozenset()
        stopword_path = self.get("stopwords")
        if stopword_path:
            if not os.path.exists(stopword_path):
                raise ConfigError(f"stopword file does not exist: {stopword_path}")
            base = AnalyzerConfig(
                lowercase_latin=self.get("lowercase", True, bool),
                unicode_normalization=self.get("unicode_form", "NFC"),
            )
            stopwords = load_stopwords(stopword_path, base)
        return AnalyzerConfig(
            lowercase_latin=self.get("lowercase", True, bool),
            unicode_normalization=self.get("unicode_form", "NFC"),
            stopword_list=stopwords,
            min_token_length=self.get("min_token_length", 1, int),
        )

    def model_params(self) -> ModelParams:
        try:
            return ModelParams(
                c=self.get("c", 1.0, float),
                k1=self.get("k1", 1.2, float),
                b=self.get("b", 0.75, float),
                k3=self.get("k3", 8.0, float),
                mu=self.get("mu", 2500.0, float),
                lambda_=self.get("lambda", 0.15, float),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def models(self) -> tuple[str, ...]:
        spec = self.get("models", "all")
        if spec in ("all", ""):
            return MODEL_IDS
        # a repeated id names the same model once, where it first appears
        return tuple(dict.fromkeys(check_model_id(name.strip()) for name in spec.split(",") if name.strip()))

    def expansion_policy(self) -> ExpansionPolicy:
        try:
            return ExpansionPolicy(
                max_added_per_query=self.get("max_added_per_query", 6, int),
                max_synonyms_per_term=self.get("max_synonyms_per_term", None, int),
                expanded_term_weight=self.get("expanded_term_weight", 1.0, float),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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


def _path_list(settings: Settings, key: str) -> list[str]:
    """Repeatable flag wins; otherwise a comma-separated config value."""
    flag = getattr(settings.args, key, None)
    if flag:
        return list(flag)
    raw = settings.file.get(key, "")
    return [p.strip() for p in raw.split(",") if p.strip()]


def _write_each(directory, texts: dict[str, str]) -> None:
    for name, text in texts.items():
        with replacing(os.path.join(directory, name)) as fh:
            fh.write(text)


def cmd_index(settings: Settings) -> int:
    paths = _path_list(settings, "corpus")
    if not paths:
        raise ConfigError("missing required option: --corpus")
    files = _files_of(paths, "corpus", "index")
    index_dir = settings.need("index_dir")
    cfg_analyzer = settings.analyzer()
    lenient = settings.get("lenient", False, bool)
    budget = settings.at_least("memory_budget_mb", 0, 512)
    seen: set[str] = set()  # docids across all the files; the builder checks against it too
    docs = (doc for f in files for doc in parse_corpus(f, lenient=lenient, seen=seen))
    stats = build_index_to_dir(docs, cfg_analyzer, index_dir, memory_budget_mb=budget, seen=seen)
    _write_each(index_dir, {"stats.txt": stats.as_text(), "stats.csv": stats.as_csv()})
    sys.stdout.write(stats.as_text())
    sys.stdout.write(f"index written to {index_dir}\n")
    return 0


def cmd_run(settings: Settings) -> int:
    """Rank every topic under each selected model, queries as the outer loop.

    Each query's terms are decoded once (`Index.holding`) for all the models.
    Each model's run file is one `replacing` writer for the whole stage, fed
    one ranked list at a time. A model whose scoring hits a
    ScoringDomainError has its writer discarded and its file left as it was;
    the others go on. Any other error discards every writer.
    """
    index = Index.load(settings.need_path("index_dir"))
    topics = parse_topics(settings.need_path("topics"))
    fields = settings.get("fields", "TD", check_fields)
    cutoff = settings.at_least("cutoff", 1, 1000)
    tag = settings.get("tag", "girit")
    out_dir = settings.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    params = settings.model_params()
    models = settings.models()
    bags = [build_query(t, fields, index.cfg) for t in topics]
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


def cmd_expand(settings: Settings) -> int:
    topics = parse_topics(settings.need_path("topics"))
    fields = settings.get("fields", "TD", check_fields)
    index_dir = settings.get("index_dir")
    cfg_analyzer = read_config(index_dir) if index_dir else settings.analyzer()
    thesaurus = load_thesaurus(settings.need_path("thesaurus"), cfg_analyzer)
    policy = settings.expansion_policy()
    output = settings.need("output")
    expanded_topics = []
    for topic in topics:
        bag = build_query(topic, fields, cfg_analyzer)
        expanded = expand_query(bag, thesaurus, policy)
        expanded_topics.append(expand_topic(topic, bag, expanded))
    write_topics(expanded_topics, output)
    stats = expansion_stats(topics, expanded_topics, fields, cfg_analyzer)
    with replacing(settings.get("stats_output", output + ".stats.txt")) as fh:
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


def cmd_eval(settings: Settings) -> int:
    paths = _path_list(settings, "runs")
    if not paths:
        raise ConfigError("missing required option: --runs")
    files = _files_of(paths, "run", "evaluate", suffix=".run")
    qrels = parse_qrels(settings.need_path("qrels"))
    cutoff = settings.at_least("cutoff", 1, 1000)
    out_dir = settings.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
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


def cmd_compare(settings: Settings) -> int:
    before = _summaries_of_dir(settings.need("before"))
    after = _summaries_of_dir(settings.need("after"))
    try:
        report = compare(before, after)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = settings.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    _write_each(out_dir, {"comparison.txt": report.as_text(), "comparison.csv": report.as_csv()})
    sys.stdout.write(report.as_text())
    return 0


def cmd_verify(settings: Settings) -> int:
    import random

    from .synth import pick_query_terms, synth_corpus
    from .retrieval import QueryBag

    instances = settings.at_least("instances", 1, 20)
    seed = settings.get("seed", 7, int)
    max_docs = settings.get("max_docs", 150, int)
    models = settings.models()
    params = settings.model_params()
    cfg_analyzer = AnalyzerConfig()
    rng = random.Random(seed)
    mismatches: dict[str, int] = {m: 0 for m in models}
    for _ in range(instances):
        docs = synth_corpus(rng, rng.randint(50, max(51, max_docs)))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="girit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--verbose", action="store_true", help="log progress to stderr")

    def analyzer_flags(p):
        p.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=None)
        p.add_argument("--unicode-form", dest="unicode_form")
        p.add_argument("--min-token-length", dest="min_token_length", type=int)
        p.add_argument("--stopwords")

    def param_flags(p):
        p.add_argument("--c", type=float)
        p.add_argument("--k1", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--k3", type=float)
        p.add_argument("--mu", type=float)
        p.add_argument("--lambda", dest="lambda_", type=float)

    p = sub.add_parser("index", help="build and persist an inverted index")
    common(p)
    analyzer_flags(p)
    p.add_argument("--corpus", action="append", help="corpus file or directory (repeatable)")
    p.add_argument("--index-dir", dest="index_dir")
    p.add_argument("--memory-budget-mb", dest="memory_budget_mb", type=int)
    p.add_argument("--lenient", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("run", help="rank topics under one or more models")
    common(p)
    param_flags(p)
    p.add_argument("--index-dir", dest="index_dir")
    p.add_argument("--topics")
    p.add_argument("--fields", choices=("T", "TD", "TDN"))
    p.add_argument("--models", help="'all' or comma-separated model ids")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--tag")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("expand", help="expand topics through a thesaurus")
    common(p)
    analyzer_flags(p)
    p.add_argument("--topics")
    p.add_argument("--thesaurus")
    p.add_argument("--fields", choices=("T", "TD", "TDN"))
    p.add_argument("--output", help="path for the expanded topics file")
    p.add_argument("--stats-output", dest="stats_output")
    p.add_argument("--index-dir", dest="index_dir", help="borrow the analyzer configuration of this index")
    p.add_argument("--max-added-per-query", dest="max_added_per_query", type=int)
    p.add_argument("--max-synonyms-per-term", dest="max_synonyms_per_term", type=int)
    p.add_argument("--expanded-term-weight", dest="expanded_term_weight", type=float)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("eval", help="score run files against qrels")
    common(p)
    p.add_argument("--runs", action="append", help="run file or directory (repeatable)")
    p.add_argument("--qrels")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="before/after expansion comparison report")
    common(p)
    p.add_argument("--before", help="directory of .eval files without expansion")
    p.add_argument("--after", help="directory of .eval files with expansion")
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="cross-check the ranker against the reference scorer")
    common(p)
    param_flags(p)
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-docs", dest="max_docs", type=int)
    p.add_argument("--models", help="'all' or comma-separated model ids")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        settings = Settings(args)
        return args.func(settings)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AnalyzerMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (FormatError, EmptyCollectionError, ScoringDomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ToolkitError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
