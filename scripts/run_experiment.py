#!/usr/bin/env python3
"""Run the full before/after query-expansion experiment in one go.

Given a data directory containing corpus.trec, topics.txt, qrels.txt and
thesaurus.tsv (for instance from `scripts/make_corpus.py fixture`), this
drives: index -> run -> expand -> run -> eval x2 -> compare, and prints the
final comparison table.

    python scripts/make_corpus.py fixture --out data/
    python scripts/run_experiment.py --data data/ --work work/ --models all
"""

import argparse
import os
import sys

from girit.cli import main as girit
from girit.retrieval import FIELD_SELECTIONS


def given(args, *names):
    """The flags among `names` that the user gave, each with its value."""
    flags = []
    for name in names:
        if name in vars(args):
            flags += [f"--{name}", str(vars(args)[name])]
    return flags


def sh(args):
    print("$ girit " + " ".join(args))
    code = girit(args)
    if code != 0:
        print(f"step failed with exit code {code}", file=sys.stderr)
        sys.exit(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="directory with corpus/topics/qrels/thesaurus")
    parser.add_argument("--work", required=True, help="output directory for index, runs, reports")
    # passed on only when given, so that girit's own defaults hold
    parser.add_argument("--models", default=argparse.SUPPRESS, help="as for girit run")
    parser.add_argument("--fields", default=argparse.SUPPRESS, choices=FIELD_SELECTIONS, help="as for girit run")
    parser.add_argument("--cutoff", default=argparse.SUPPRESS, type=int, help="as for girit run")
    parser.add_argument("--tag", default=argparse.SUPPRESS, help="as for girit run")
    args = parser.parse_args(argv)

    data = lambda name: os.path.join(args.data, name)
    work = lambda name: os.path.join(args.work, name)
    os.makedirs(args.work, exist_ok=True)

    sh(["index", "--corpus", data("corpus.trec"), "--index-dir", work("idx")])
    sh(["run", "--index-dir", work("idx"), "--topics", data("topics.txt"),
        *given(args, "fields", "models", "cutoff"), "--output-dir", work("runs_before"), *given(args, "tag")])
    sh(["expand", "--topics", data("topics.txt"), "--thesaurus", data("thesaurus.tsv"),
        "--index-dir", work("idx"), *given(args, "fields"),
        "--output", work("topics.expanded.txt")])
    sh(["run", "--index-dir", work("idx"), "--topics", work("topics.expanded.txt"),
        *given(args, "fields", "models", "cutoff"), "--output-dir", work("runs_after"), *given(args, "tag")])
    sh(["eval", "--runs", work("runs_before"), "--qrels", data("qrels.txt"),
        *given(args, "cutoff"), "--output-dir", work("eval_before")])
    sh(["eval", "--runs", work("runs_after"), "--qrels", data("qrels.txt"),
        *given(args, "cutoff"), "--output-dir", work("eval_after")])
    sh(["compare", "--before", work("eval_before"), "--after", work("eval_after"),
        "--output-dir", work("report")])
    print(f"\nreport: {work('report/comparison.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
