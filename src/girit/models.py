"""The 21 term-weighting models behind a single term-evidence interface.

Every model maps per-term evidence (tf, qtf, df, cf, dl, avgdl, N, T) to a
real-valued contribution; a document's score is the sum over query terms that
occur in it. The exact formula pinned for each model is written out in
MODEL_LEDGER.md at the repository root; the implementations here follow that
ledger line for line.

Conventions shared by the DFR group:
    tfn        = tf * log2(1 + c * avgdl / dl)           (Normalization 2)
    tfn_e      = tf * ln(1 + c * avgdl / dl)             (natural-log variant)
    lambda     = cf / N                                  (Poisson rate)
    ne         = N * (1 - (1 - df/N) ** cf)              (expected doc frequency)
    stirling(n, m) = (m + 0.5) * log2(n/m) + (n - m) * log2(n)

Scalar scorers raise ScoringDomainError instead of returning NaN/inf when a
formula is evaluated outside its numeric domain (e.g. BB2 with cf <= tfn).
A batched numpy path mirrors the scalar arithmetic for ranking throughput;
both paths use 64-bit floats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScoringDomainError, UnknownModelError

LOG2_E = math.log2(math.e)
_2PI = 2.0 * math.pi

MODEL_IDS = (
    "TF_IDF",
    "LemurTF_IDF",
    "BM25",
    "DFR_BM25",
    "Hiemstra_LM",
    "DirichletLM",
    "BB2",
    "IFB2",
    "In_expB2",
    "In_expC2",
    "InB2",
    "InL2",
    "PL2",
    "LGD",
    "DLH",
    "DLH13",
    "DPH",
    "DFRee",
    "DFI0",
    "XSqrA_M",
    "Js_KLs",
)


def check_model_id(name: str) -> str:
    if name not in MODEL_IDS:
        raise UnknownModelError(name)
    return name


@dataclass(frozen=True)
class ModelParams:
    """Tunable constants; the defaults are the ones used throughout."""

    c: float = 1.0
    k1: float = 1.2
    b: float = 0.75
    k3: float = 8.0
    mu: float = 2500.0
    lambda_: float = 0.15

    def __post_init__(self):
        # each rule is one that NaN fails; infinity fails the finite test after it
        for name, value, ok, rule in (
            ("c", self.c, self.c > 0, "> 0"),
            ("k1", self.k1, self.k1 > 0, "> 0"),
            ("b", self.b, 0 <= self.b <= 1, "in [0, 1]"),
            ("k3", self.k3, self.k3 >= 0, ">= 0"),
            ("mu", self.mu, self.mu > 0, "> 0"),
            ("lambda", self.lambda_, 0 < self.lambda_ < 1, "in (0, 1)"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}: {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")


@dataclass(frozen=True)
class TermEvidence:
    """Everything a weighting formula may consume for one (term, document) pair."""

    tf: int
    qtf: int
    df: int
    cf: int
    dl: int
    avgdl: float
    num_docs: int
    total_tokens: int

    def validate(self) -> "TermEvidence":
        ok = (
            self.tf >= 1
            and self.qtf >= 1
            and 1 <= self.df <= self.num_docs
            and self.df <= self.cf
            and self.dl >= 1
            and self.avgdl > 0
            and self.total_tokens >= self.num_docs
        )
        if not ok:
            raise ValueError(f"inconsistent term evidence: {self}")
        return self


def norm2_tfn(tf: float, dl: float, avgdl: float, c: float = 1.0, base: float = 2.0) -> float:
    """Normalization 2: tf * log_base(1 + c * avgdl / dl)."""
    x = 1.0 + c * avgdl / dl
    return tf * (math.log2(x) if base == 2.0 else math.log(x) / math.log(base))


def _rtf(tf, dl, avgdl, k1, b):
    # Robertson tf saturation with document-length penalty
    return k1 * tf / (tf + k1 * ((1.0 - b) + b * dl / avgdl))


def score_tfidf_family(model: str, ev: TermEvidence, params: ModelParams) -> float:
    if ev.tf == 0:
        return 0.0
    rtf = _rtf(ev.tf, ev.dl, ev.avgdl, params.k1, params.b)
    if model == "TF_IDF":
        return ev.qtf * rtf * math.log(1.0 + ev.num_docs / ev.df)
    # LemurTF_IDF
    return ev.qtf * rtf * math.log(ev.num_docs / ev.df) ** 2


def score_bm25_family(model: str, ev: TermEvidence, params: ModelParams) -> float:
    if ev.tf == 0:
        return 0.0
    k1, b, k3 = params.k1, params.b, params.k3
    K = k1 * ((1.0 - b) + b * ev.dl / ev.avgdl)
    ratio = (ev.num_docs - ev.df + 0.5) / (ev.df + 0.5)
    idf = math.log(ratio) if model == "BM25" else math.log2(ratio)
    qw = ((k3 + 1.0) * ev.qtf) / (k3 + ev.qtf)
    return qw * idf * ((k1 + 1.0) * ev.tf) / (K + ev.tf)


def score_lm_family(model: str, ev: TermEvidence, params: ModelParams) -> float:
    if ev.tf == 0:
        return 0.0
    if model == "Hiemstra_LM":
        lam = params.lambda_
        return ev.qtf * math.log(
            1.0 + (lam * ev.tf * ev.total_tokens) / ((1.0 - lam) * ev.cf * ev.dl)
        )
    # DirichletLM; may legitimately be negative
    mu = params.mu
    return ev.qtf * (
        math.log(1.0 + ev.tf / (mu * ev.cf / ev.total_tokens))
        + math.log(mu / (ev.dl + mu))
    )


def _stirling(n: float, m: float) -> float:
    return (m + 0.5) * math.log2(n / m) + (n - m) * math.log2(n)


def score_dfr_parametric(model: str, ev: TermEvidence, params: ModelParams) -> float:
    if ev.tf == 0:
        return 0.0
    N, df, cf = ev.num_docs, ev.df, ev.cf
    tfn = norm2_tfn(ev.tf, ev.dl, ev.avgdl, params.c, base=math.e if model == "In_expC2" else 2.0)
    if model == "InL2":
        return ev.qtf * (1.0 / (tfn + 1.0)) * tfn * math.log2((N + 1.0) / (df + 0.5))
    if model == "InB2":
        return ev.qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (df + 0.5))
    if model in ("In_expB2", "In_expC2"):
        ne = N * (1.0 - (1.0 - df / N) ** cf)
        return ev.qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (ne + 0.5))
    if model == "IFB2":
        return ev.qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (cf + 0.5))
    if model == "PL2":
        if tfn <= 0:
            raise ScoringDomainError(model, None, f"tfn={tfn} outside log domain")
        lam = cf / N
        return (
            ev.qtf
            * (1.0 / (tfn + 1.0))
            * (tfn * math.log2(tfn / lam) + (lam - tfn) * LOG2_E + 0.5 * math.log2(_2PI * tfn))
        )
    if model == "BB2":
        if N < 2:
            raise ScoringDomainError(model, None, "needs at least 2 documents")
        if cf - tfn <= 0 or N + cf - tfn - 2.0 <= 0:
            raise ScoringDomainError(model, None, f"cf={cf} too small for tfn={tfn:.4f}")
        return (
            ev.qtf
            * ((cf + 1.0) / (df * (tfn + 1.0)))
            * (
                -math.log2(N - 1.0)
                - LOG2_E
                + _stirling(N + cf - 1.0, N + cf - tfn - 2.0)
                - _stirling(cf, cf - tfn)
            )
        )
    # LGD
    lam_d = df / N
    return ev.qtf * math.log2((lam_d + tfn) / lam_d)


def score_dfr_parameter_free(model: str, ev: TermEvidence) -> float:
    if ev.tf == 0:
        return 0.0
    tf, dl, avgdl = ev.tf, ev.dl, ev.avgdl
    N, cf, T = ev.num_docs, ev.cf, ev.total_tokens
    if model in ("DLH", "DLH13", "DPH"):
        # guard: a term filling the whole document would make log2(1-f) blow up
        f = tf / dl if tf < dl else tf / (dl + 1.0)
        info = tf * math.log2((tf * avgdl / dl) * (N / cf))
        tail = 0.5 * math.log2(_2PI * tf * (1.0 - f))
        if model == "DLH13":
            return ev.qtf * (info + tail) / (tf + 0.5)
        if model == "DLH":
            return ev.qtf * (info + (dl - tf) * math.log2(1.0 - f) + tail) / (tf + 0.5)
        return ev.qtf * ((1.0 - f) ** 2 / (tf + 1.0)) * (info + tail)
    if model == "DFI0":
        expected = cf * dl / T
        if tf <= expected:
            return 0.0
        return ev.qtf * math.log2(1.0 + (tf - expected) / math.sqrt(expected))
    prior = tf / dl
    posterior = (tf + 1.0) / (dl + 1.0)
    if model == "DFRee":
        norm = tf * math.log2(posterior / prior)
        return (
            ev.qtf
            * norm
            * (
                tf * -math.log2(prior * T / cf)
                + (tf + 1.0) * math.log2(posterior * T / cf)
                + 0.5 * math.log2(posterior / prior)
            )
        )
    mle_c = cf / T
    if model == "XSqrA_M":
        return (
            ev.qtf
            * tf
            * ((1.0 - prior) ** 2 / (tf + 1.0))
            * (
                (tf + 1.0) * math.log2(posterior / mle_c)
                - tf * math.log2(prior / mle_c)
                + 0.5 * math.log2(posterior / prior)
            )
        )
    # Js_KLs
    gap = math.log2(prior / mle_c)
    return ev.qtf * dl * 0.25 * (prior * prior - mle_c * mle_c) * gap * gap


_TFIDF = ("TF_IDF", "LemurTF_IDF")
_BM25 = ("BM25", "DFR_BM25")
_LM = ("Hiemstra_LM", "DirichletLM")
_DFR_PARAMETRIC = ("BB2", "IFB2", "In_expB2", "In_expC2", "InB2", "InL2", "PL2", "LGD")
_DFR_FREE = ("DLH", "DLH13", "DPH", "DFRee", "DFI0", "XSqrA_M", "Js_KLs")

# models whose pinned form is qtf * g(...); BM25's query weight saturates instead
QTF_LINEAR_MODELS = tuple(m for m in MODEL_IDS if m not in _BM25)
# models whose per-term score never increases with df, all else fixed
DF_DECREASING_MODELS = ("InL2", "InB2", "IFB2", "In_expB2", "BM25", "TF_IDF", "LemurTF_IDF")


def score_term(model: str, ev: TermEvidence, params: ModelParams) -> float:
    """Per-term contribution of `model` for the given evidence."""
    if model in _TFIDF:
        return score_tfidf_family(model, ev, params)
    if model in _BM25:
        return score_bm25_family(model, ev, params)
    if model in _LM:
        return score_lm_family(model, ev, params)
    if model in _DFR_PARAMETRIC:
        return score_dfr_parametric(model, ev, params)
    if model in _DFR_FREE:
        return score_dfr_parameter_free(model, ev)
    raise UnknownModelError(model)


def score_document(
    model: str,
    query_terms: dict[str, int],
    doc_tfs: dict[str, int],
    term_stats: dict[str, tuple[int, int]],
    dl: int,
    avgdl: float,
    num_docs: int,
    total_tokens: int,
    params: ModelParams,
) -> float:
    """Sum of per-term scores over query terms present in the document.

    `term_stats` maps term -> (df, cf); terms missing from it (unseen in the
    collection) or absent from the document contribute nothing. Terms are
    visited in sorted order so float accumulation is deterministic.
    """
    total = 0.0
    for term in sorted(query_terms):
        tf = doc_tfs.get(term, 0)
        if tf < 1:
            continue
        stats = term_stats.get(term)
        if stats is None:
            continue
        df, cf = stats
        ev = TermEvidence(
            tf=tf,
            qtf=query_terms[term],
            df=df,
            cf=cf,
            dl=dl,
            avgdl=avgdl,
            num_docs=num_docs,
            total_tokens=total_tokens,
        )
        try:
            total += score_term(model, ev, params)
        except ScoringDomainError as exc:
            raise ScoringDomainError(exc.model, term, exc.detail) from None
    return total


def score_postings(
    model: str,
    tfs: np.ndarray,
    dls: np.ndarray,
    *,
    qtf: int,
    df: int,
    cf: int,
    avgdl: float,
    num_docs: int,
    total_tokens: int,
    params: ModelParams,
    term: str | None = None,
) -> np.ndarray:
    """Vectorized twin of score_term over one posting list.

    `tfs`/`dls` are parallel arrays for the documents containing the term.
    The arithmetic mirrors the scalar path expression for expression.
    """
    tf = tfs.astype(np.float64, copy=False)
    dl = dls.astype(np.float64, copy=False)
    N = float(num_docs)
    T = float(total_tokens)
    if model in _TFIDF:
        rtf = params.k1 * tf / (tf + params.k1 * ((1.0 - params.b) + params.b * dl / avgdl))
        if model == "TF_IDF":
            return qtf * rtf * math.log(1.0 + N / df)
        return qtf * rtf * math.log(N / df) ** 2
    if model in _BM25:
        k1, b, k3 = params.k1, params.b, params.k3
        K = k1 * ((1.0 - b) + b * dl / avgdl)
        ratio = (N - df + 0.5) / (df + 0.5)
        idf = math.log(ratio) if model == "BM25" else math.log2(ratio)
        qw = ((k3 + 1.0) * qtf) / (k3 + qtf)
        return qw * idf * ((k1 + 1.0) * tf) / (K + tf)
    if model == "Hiemstra_LM":
        lam = params.lambda_
        return qtf * np.log(1.0 + (lam * tf * T) / ((1.0 - lam) * cf * dl))
    if model == "DirichletLM":
        mu = params.mu
        return qtf * (np.log(1.0 + tf / (mu * cf / T)) + np.log(mu / (dl + mu)))
    if model in _DFR_PARAMETRIC:
        if model == "In_expC2":
            tfn = tf * np.log(1.0 + params.c * avgdl / dl)
        else:
            tfn = tf * np.log2(1.0 + params.c * avgdl / dl)
        if model == "InL2":
            return qtf * (1.0 / (tfn + 1.0)) * tfn * math.log2((N + 1.0) / (df + 0.5))
        if model == "InB2":
            return qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (df + 0.5))
        if model in ("In_expB2", "In_expC2"):
            ne = N * (1.0 - (1.0 - df / N) ** cf)
            return qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (ne + 0.5))
        if model == "IFB2":
            return qtf * ((cf + 1.0) / (df * (tfn + 1.0))) * tfn * math.log2((N + 1.0) / (cf + 0.5))
        if model == "PL2":
            if np.any(tfn <= 0):
                raise ScoringDomainError(model, term, "tfn outside log domain")
            lam = cf / N
            return (
                qtf
                * (1.0 / (tfn + 1.0))
                * (tfn * np.log2(tfn / lam) + (lam - tfn) * LOG2_E + 0.5 * np.log2(_2PI * tfn))
            )
        if model == "BB2":
            if N < 2:
                raise ScoringDomainError(model, term, "needs at least 2 documents")
            if np.any(cf - tfn <= 0) or np.any(N + cf - tfn - 2.0 <= 0):
                raise ScoringDomainError(model, term, f"cf={cf} too small for this tfn range")
            s1 = _stirling_vec(N + cf - 1.0, N + cf - tfn - 2.0)
            s2 = _stirling_vec(float(cf), cf - tfn)
            return (
                qtf
                * ((cf + 1.0) / (df * (tfn + 1.0)))
                * (-math.log2(N - 1.0) - LOG2_E + s1 - s2)
            )
        lam_d = df / N
        return qtf * np.log2((lam_d + tfn) / lam_d)
    if model in ("DLH", "DLH13", "DPH"):
        f = np.where(tf < dl, tf / dl, tf / (dl + 1.0))
        info = tf * np.log2((tf * avgdl / dl) * (N / cf))
        tail = 0.5 * np.log2(_2PI * tf * (1.0 - f))
        if model == "DLH13":
            return qtf * (info + tail) / (tf + 0.5)
        if model == "DLH":
            return qtf * (info + (dl - tf) * np.log2(1.0 - f) + tail) / (tf + 0.5)
        return qtf * ((1.0 - f) ** 2 / (tf + 1.0)) * (info + tail)
    if model == "DFI0":
        expected = cf * dl / T
        with np.errstate(invalid="ignore"):
            out = qtf * np.log2(1.0 + (tf - expected) / np.sqrt(expected))
        return np.where(tf > expected, out, 0.0)
    prior = tf / dl
    posterior = (tf + 1.0) / (dl + 1.0)
    if model == "DFRee":
        norm = tf * np.log2(posterior / prior)
        return (
            qtf
            * norm
            * (
                tf * -np.log2(prior * T / cf)
                + (tf + 1.0) * np.log2(posterior * T / cf)
                + 0.5 * np.log2(posterior / prior)
            )
        )
    mle_c = cf / T
    if model == "XSqrA_M":
        return (
            qtf
            * tf
            * ((1.0 - prior) ** 2 / (tf + 1.0))
            * (
                (tf + 1.0) * np.log2(posterior / mle_c)
                - tf * np.log2(prior / mle_c)
                + 0.5 * np.log2(posterior / prior)
            )
        )
    if model == "Js_KLs":
        gap = np.log2(prior / mle_c)
        return qtf * dl * 0.25 * (prior * prior - mle_c * mle_c) * gap * gap
    raise UnknownModelError(model)


def _stirling_vec(n, m):
    return (m + 0.5) * np.log2(n / m) + (n - m) * np.log2(n)
