"""Exception types shared across the toolkit.

Format errors carry enough location context (file, line or byte offset)
to be actionable from the command line.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors. `exit_code` is the CLI's exit code
    for it; 3 (internal error) unless a subclass says otherwise."""

    exit_code = 3


class ConfigError(ToolkitError):
    """Invalid configuration or command-line usage."""

    exit_code = 1


class FormatError(ToolkitError):
    """Malformed input data."""

    exit_code = 2


class CorpusError(FormatError):
    def __init__(self, message, offset=None, docid=None):
        parts = [message]
        if docid is not None:
            parts.append(f"docid={docid!r}")
        if offset is not None:
            parts.append(f"byte offset {offset}")
        super().__init__(" | ".join(parts))
        self.offset = offset
        self.docid = docid


class TopicError(FormatError):
    pass


class QrelsError(FormatError):
    pass


class ThesaurusError(FormatError):
    pass


class RunFileError(FormatError):
    pass


class IndexStoreError(FormatError):
    """Persisted index is unreadable: bad magic, version, checksum or truncation."""


class EmptyCollectionError(ToolkitError):
    """An index cannot be built over zero documents (average length undefined)."""

    exit_code = 2


class AnalyzerMismatchError(ToolkitError):
    """Query and index were produced under different analyzer configurations."""

    exit_code = 1


class UnknownModelError(ConfigError):
    def __init__(self, name):
        super().__init__(f"unknown weighting model: {name!r}")
        self.name = name


class ScoringDomainError(ToolkitError):
    """A weighting formula was evaluated outside its numeric domain.

    Raised instead of silently producing NaN/inf; identifies the model and
    term, plus query/document context when available.
    """

    exit_code = 2

    def __init__(self, model, term, detail, qid=None, docid=None):
        ctx = ""
        if qid is not None or docid is not None:
            ctx = f" (qid={qid!r}, docid={docid!r})"
        super().__init__(f"{model}: term {term!r}: {detail}{ctx}")
        self.model = model
        self.term = term
        self.detail = detail
        self.qid = qid
        self.docid = docid

    def with_context(self, qid=None, docid=None):
        return ScoringDomainError(self.model, self.term, self.detail, qid=qid, docid=docid)
