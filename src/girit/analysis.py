"""Text analysis: Unicode tokenization and normalization for Gujarati and Latin script.

Tokens are maximal runs of Unicode letters, marks (so Indic matras and other
combining signs stay attached) and decimal digits. The zero-width joiners
U+200C/U+200D are kept inside a token when both neighbours are letters and
silently dropped everywhere else. No stemming is applied anywhere.
"""

from __future__ import annotations

import hashlib
import json
import sys
import unicodedata
from dataclasses import dataclass, field

from .util import read_text

ZWNJ = "‌"
ZWJ = "‍"
_JOINERS = (ZWNJ, ZWJ)


@dataclass(frozen=True)
class AnalyzerConfig:
    lowercase_latin: bool = True
    unicode_normalization: str = "NFC"
    stopword_list: frozenset[str] = field(default_factory=frozenset)
    min_token_length: int = 1

    def fingerprint(self) -> str:
        """Stable digest of everything that affects term output."""
        blob = json.dumps(
            {
                "lowercase_latin": self.lowercase_latin,
                "unicode_normalization": self.unicode_normalization,
                "min_token_length": self.min_token_length,
                "stopwords": sorted(self.stopword_list),
            },
            sort_keys=True,
            ensure_ascii=True,
        )
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def _is_token_char(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat[0] in "LM" or cat == "Nd"


def _is_letter(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "L"


class _SeparatorTable(dict):
    """str.translate table computed lazily per distinct code point."""

    def __missing__(self, cp):
        ch = chr(cp)
        out = cp if (_is_token_char(ch) or ch in _JOINERS) else 0x20
        self[cp] = out
        return out


_SEPARATORS = _SeparatorTable()


def _resolve_joiners(text: str) -> str:
    out = []
    last = len(text) - 1
    for i, ch in enumerate(text):
        if ch in _JOINERS:
            if 0 < i and i < last and _is_letter(text[i - 1]) and _is_letter(text[i + 1]):
                out.append(ch)
            # otherwise dropped: the joiner neither splits nor joins
        else:
            out.append(ch)
    return "".join(out)


def tokenize(text: str) -> list[str]:
    """Split text into tokens of letters/marks/digits (plus retained joiners)."""
    if ZWNJ in text or ZWJ in text:
        text = _resolve_joiners(text)
    return text.translate(_SEPARATORS).split()


def normalize(token: str, cfg: AnalyzerConfig) -> str:
    """Apply the configured Unicode normalization form, then lowercasing."""
    out = unicodedata.normalize(cfg.unicode_normalization, token)
    if cfg.lowercase_latin:
        out = out.lower()
    return out


class _Memo(dict):
    """Raw token -> its term, or None when the analyzer drops it.

    A missing token is normalized once and remembered; `nbytes` is the
    memory the memo holds, its table and the strings it keeps alive.
    """

    __slots__ = ("cfg", "strings")

    def __init__(self, cfg: AnalyzerConfig):
        super().__init__()
        self.cfg = cfg
        self.strings = 0

    def __missing__(self, raw: str):
        cfg = self.cfg
        term = normalize(raw, cfg)
        self.strings += sys.getsizeof(raw)
        if term in cfg.stopword_list or len(term) < cfg.min_token_length:
            term = None
        elif term == raw:
            term = raw  # one string, not two equal ones
        else:
            self.strings += sys.getsizeof(term)
        self[raw] = term
        return term

    def nbytes(self) -> int:
        return sys.getsizeof(self) + self.strings


# one memo per analyzer configuration, for the life of the process
_MEMOS: dict[AnalyzerConfig, _Memo] = {}


def _memo(cfg: AnalyzerConfig) -> _Memo:
    memo = _MEMOS.get(cfg)
    if memo is None:
        memo = _MEMOS[cfg] = _Memo(cfg)
    return memo


def analyze(text: str, cfg: AnalyzerConfig) -> list[str]:
    """tokenize -> normalize -> drop stopwords -> drop short tokens, order kept.

    Each distinct raw token is normalized once per process and
    configuration. A term is never empty, so `filter(None, ...)` drops
    exactly the tokens the memo maps to None.
    """
    return [*filter(None, map(_memo(cfg).__getitem__, tokenize(text)))]


def memo_bytes(cfg: AnalyzerConfig) -> int:
    """Bytes held by the analyzer memo of `cfg` (0 before its first use)."""
    memo = _MEMOS.get(cfg)
    return memo.nbytes() if memo is not None else 0


def load_stopwords(source, cfg: AnalyzerConfig | None = None) -> frozenset[str]:
    """Read a stopword list from a named input (see `util.reading`): UTF-8, one
    term per line, '#' comments allowed.

    Entries are normalized with `cfg` (sans stopwords) so that membership tests
    against analyzer output are exact.
    """
    base = cfg or AnalyzerConfig()
    norm_cfg = AnalyzerConfig(
        lowercase_latin=base.lowercase_latin,
        unicode_normalization=base.unicode_normalization,
    )
    terms = set()
    for line in read_text(source).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            terms.add(normalize(line, norm_cfg))
    return frozenset(terms)
