"""Run/qrels parsing, recall / precision / AP metrics, and the before/after
query-expansion comparison report.

Aggregate "retrieval percentage" columns are micro-averaged (summed retrieved
over summed relevant); percentages print with half-up rounding to one decimal
and a trimmed trailing ".0". A model row's verdict is "Improvement" exactly
when its relevant-retrieved count strictly increased, otherwise "Fail".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from .errors import QrelsError, RunFileError
from .retrieval import RankedList, shared_ranks
from .util import read_text, reading

log = logging.getLogger(__name__)

# canonical report row order (alphabetical improvement block, then the
# regression block); used when the compared model set matches it exactly
CANONICAL_MODEL_ORDER = (
    "BB2",
    "BM25",
    "DFI0",
    "DFR_BM25",
    "DFRee",
    "DirichletLM",
    "DLH",
    "DLH13",
    "DPH",
    "IFB2",
    "In_expB2",
    "In_expC2",
    "LemurTF_IDF",
    "PL2",
    "XSqrA_M",
    "TF_IDF",
    "Hiemstra_LM",
    "InB2",
    "InL2",
    "Js_KLs",
    "LGD",
)


class QrelSet:
    def __init__(self, judgments: dict[tuple[str, str], int]):
        self.judgments = judgments
        self._relevant: dict[str, set[str]] = {}
        self._qids: set[str] = set()
        for (qid, docid), grade in judgments.items():
            self._qids.add(qid)
            if grade >= 1:
                self._relevant.setdefault(qid, set()).add(docid)

    def qids(self) -> set[str]:
        return set(self._qids)

    def relevant(self, qid: str) -> set[str]:
        return self._relevant.get(qid, set())

    def total_relevant(self) -> int:
        return sum(len(v) for v in self._relevant.values())

    def __len__(self):
        return len(self.judgments)


def parse_qrels(source) -> QrelSet:
    """Parse whitespace-separated 'qid 0 docid grade' lines from a named input
    (see `util.reading`)."""
    judgments: dict[tuple[str, str], int] = {}
    with reading(source) as fh:
        for lineno, line in enumerate(read_text(fh).splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise QrelsError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            qid, _iter, docid, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                raise QrelsError(f"line {lineno}: bad relevance grade {grade_s!r}") from None
            if grade < 0:
                raise QrelsError(f"line {lineno}: negative relevance grade {grade}")
            key = (qid, docid)
            if key in judgments:
                raise QrelsError(f"line {lineno}: duplicate judgment for {key}")
            judgments[key] = grade
    return QrelSet(judgments)


def parse_run(source) -> dict[str, RankedList]:
    """Parse a 6-column run file (a named input, see `util.reading`) back into
    per-query ranked lists.

    A plainly regular text is parsed in bulk (`_parse_regular_run`); anything
    else goes through the line loop, which gives every error its line number.
    """
    with reading(source) as fh:
        text = read_text(fh)
        runs = _parse_regular_run(text)
        return runs if runs is not None else _parse_run_lines(text)


# the ASCII bytes other than those str.split() and str.splitlines() break on
_NOT_WHITESPACE = bytes(c for c in range(128) if not chr(c).isspace())


def _parse_regular_run(text: str) -> dict[str, RankedList] | None:
    """One split and strided columns, or None unless the text is ASCII and
    every line is six fields and one space between each, each qid's lines are
    contiguous, ranked "1".."n" and of distinct docids, and every score is a
    float. The result is what `_parse_run_lines` gives for such a text."""
    if not text.isascii() or not text.endswith("\n"):
        return None
    lines = text.count("\n")
    # whitespace is exactly five spaces and a newline per line ...
    if text.encode("ascii").translate(None, _NOT_WHITESPACE) != b"     \n" * lines:
        return None
    tokens = text.split()
    # ... and no field is empty
    if len(tokens) != 6 * lines:
        return None
    qids, docids, ranks, score_tokens = tokens[0::6], tokens[2::6], tokens[3::6], tokens[4::6]
    del tokens
    try:
        scores = list(map(float, score_tokens))
    except ValueError:
        return None
    runs: dict[str, RankedList] = {}
    rank_tokens: list[str] = []
    start = 0
    while start < lines:
        try:
            end = ranks.index("1", start + 1)
        except ValueError:
            end = lines
        qid, n = qids[start], end - start
        if len(rank_tokens) < n:
            rank_tokens = list(map(str, range(1, n + 1)))
        if qid in runs or qids[start:end].count(qid) != n or ranks[start:end] != rank_tokens[:n]:
            return None
        if len(set(docids[start:end])) != n:
            return None
        runs[qid] = RankedList(qid=qid, entries=list(zip(docids[start:end], shared_ranks(n), scores[start:end])))
        start = end
    return runs


def _parse_run_lines(text: str) -> dict[str, RankedList]:
    runs: dict[str, RankedList] = {}
    lines_of: dict[str, dict[str, int]] = {}  # qid -> docid -> the line listing it
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise RunFileError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        qid, _q0, docid, rank_s, score_s, _tag = parts
        try:
            rank_ = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise RunFileError(f"line {lineno}: bad rank/score") from None
        rl = runs.setdefault(qid, RankedList(qid=qid))
        expected = len(rl.entries) + 1
        if rank_ != expected:
            raise RunFileError(f"line {lineno}: rank {rank_} out of order (expected {expected})")
        first = lines_of.setdefault(qid, {}).setdefault(docid, lineno)
        if first != lineno:
            raise RunFileError(f"line {lineno}: docid {docid!r} listed twice for qid {qid!r} (first at line {first})")
        rl.entries.append((docid, rank_, score))
    return runs


@dataclass(frozen=True)
class QueryEval:
    relevant_count: int
    relevant_retrieved: int
    recall: float
    precision_at_cutoff: float
    average_precision: float


@dataclass
class EvalResult:
    model: str
    cutoff: int
    per_query: dict[str, QueryEval] = field(default_factory=dict)

    @property
    def total_relevant(self) -> int:
        return sum(q.relevant_count for q in self.per_query.values())

    @property
    def total_relevant_retrieved(self) -> int:
        return sum(q.relevant_retrieved for q in self.per_query.values())

    @property
    def micro_recall(self) -> float:
        total = self.total_relevant
        return self.total_relevant_retrieved / total if total else 0.0

    @property
    def mean_recall(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.recall for q in self.per_query.values()) / len(self.per_query)

    @property
    def mean_average_precision(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.average_precision for q in self.per_query.values()) / len(self.per_query)

    @property
    def mean_precision_at_cutoff(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.precision_at_cutoff for q in self.per_query.values()) / len(self.per_query)

    def as_text(self) -> str:
        return (
            f"model: {self.model}\n"
            f"cutoff: {self.cutoff}\n"
            f"queries_evaluated: {len(self.per_query)}\n"
            f"total_relevant: {self.total_relevant}\n"
            f"total_relevant_retrieved: {self.total_relevant_retrieved}\n"
            f"micro_recall: {self.micro_recall:.6f}\n"
            f"mean_recall: {self.mean_recall:.6f}\n"
            f"mean_precision_at_cutoff: {self.mean_precision_at_cutoff:.6f}\n"
            f"map: {self.mean_average_precision:.6f}\n"
        )

    def as_csv(self) -> str:
        lines = ["qid,relevant,relevant_retrieved,recall,precision_at_cutoff,average_precision"]
        for qid in sorted(self.per_query):
            q = self.per_query[qid]
            lines.append(
                f"{qid},{q.relevant_count},{q.relevant_retrieved},"
                f"{q.recall:.6f},{q.precision_at_cutoff:.6f},{q.average_precision:.6f}"
            )
        return "\n".join(lines) + "\n"


def evaluate_run(
    run: dict[str, RankedList],
    qrels: QrelSet,
    cutoff: int,
    model: str = "",
) -> EvalResult:
    """Recall, precision@cutoff and AP per query, over the qids judged relevant.

    Queries with zero relevant documents are flagged and excluded; run entries
    for qids absent from the qrels are warned about and ignored. Judged qids
    missing from the run count as zero retrieved.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    result = EvalResult(model=model, cutoff=cutoff)
    judged = qrels.qids()
    for qid in run:
        if qid not in judged:
            log.warning("run contains qid %s absent from qrels; excluded", qid)
    for qid in sorted(judged):
        relevant = qrels.relevant(qid)
        if not relevant:
            log.warning("qid %s has no relevant documents; excluded from averages", qid)
            continue
        ranked = run.get(qid)
        entries = ranked.entries[:cutoff] if ranked is not None else []
        rel_ret = 0
        ap_sum = 0.0
        for i, (docid, _, _) in enumerate(entries):
            if docid in relevant:
                rel_ret += 1
                ap_sum += rel_ret / (i + 1)
        result.per_query[qid] = QueryEval(
            relevant_count=len(relevant),
            relevant_retrieved=rel_ret,
            recall=rel_ret / len(relevant),
            precision_at_cutoff=(rel_ret / cutoff),
            average_precision=ap_sum / len(relevant),
        )
    return result


def format_percentage(part: int, whole: int) -> str:
    """100*part/whole, half-up to one decimal, trailing '.0' trimmed."""
    if whole <= 0:
        raise ValueError("percentage of a non-positive total")
    pct = (Decimal(100 * part) / Decimal(whole)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    text = str(pct)
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    relevant: int
    before_retrieved: int
    before_pct: str
    after_retrieved: int
    after_pct: str
    verdict: str


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    def as_text(self) -> str:
        headers = ("MODEL", "RELEVANT", "BEFORE", "BEFORE%", "AFTER", "AFTER%", "RESULT")
        table = [headers]
        for r in self.rows:
            table.append(
                (
                    r.model,
                    str(r.relevant),
                    str(r.before_retrieved),
                    r.before_pct,
                    str(r.after_retrieved),
                    r.after_pct,
                    r.verdict,
                )
            )
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = []
        for row in table:
            cells = [row[0].ljust(widths[0])]
            cells += [row[i].rjust(widths[i]) for i in range(1, len(headers) - 1)]
            cells.append(row[-1])
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        lines = ["model,relevant,before_retrieved,before_pct,after_retrieved,after_pct,result"]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.relevant},{r.before_retrieved},{r.before_pct},"
                f"{r.after_retrieved},{r.after_pct},{r.verdict}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EvalSummary:
    """The slice of an EvalResult the comparison needs."""

    model: str
    total_relevant: int
    total_relevant_retrieved: int


def compare(before: dict[str, EvalSummary], after: dict[str, EvalSummary]) -> ComparisonReport:
    """Build the before/after expansion report, one row per model."""
    if before.keys() != after.keys():
        only = sorted(before.keys() ^ after.keys())
        raise ValueError(f"model sets differ between the two sides: {only}")
    models = list(before)
    if set(models) == set(CANONICAL_MODEL_ORDER):
        ordered = list(CANONICAL_MODEL_ORDER)
    else:
        ordered = sorted(models)
    rows = []
    for model in ordered:
        b, a = before[model], after[model]
        if b.total_relevant != a.total_relevant:
            raise ValueError(
                f"{model}: relevant totals differ ({b.total_relevant} vs {a.total_relevant}); "
                "were both sides evaluated against the same qrels?"
            )
        rows.append(
            ComparisonRow(
                model=model,
                relevant=b.total_relevant,
                before_retrieved=b.total_relevant_retrieved,
                before_pct=format_percentage(b.total_relevant_retrieved, b.total_relevant),
                after_retrieved=a.total_relevant_retrieved,
                after_pct=format_percentage(a.total_relevant_retrieved, a.total_relevant),
                verdict="Improvement" if a.total_relevant_retrieved > b.total_relevant_retrieved else "Fail",
            )
        )
    return ComparisonReport(rows=tuple(rows))


def read_eval_summary(path) -> EvalSummary:
    """Read the key:value eval file back into the fields compare() needs."""
    fields: dict[str, str] = {}
    for line in read_text(path).splitlines():
        if ":" in line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    try:
        return EvalSummary(
            model=fields["model"],
            total_relevant=int(fields["total_relevant"]),
            total_relevant_retrieved=int(fields["total_relevant_retrieved"]),
        )
    except (KeyError, ValueError) as exc:
        raise RunFileError(f"{path}: not an eval result file ({exc})") from None
