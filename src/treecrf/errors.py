"""Exception types shared across the package."""


class TreecrfError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLabel(TreecrfError):
    """An annotation names a label that is not in the schema."""


class OutOfBounds(TreecrfError):
    """A span's offsets fall outside the sentence."""


class EmptySpan(TreecrfError):
    """A span is empty under the end-exclusive file convention."""


class CrossingSpans(TreecrfError):
    """Two annotated spans overlap without nesting."""


class DimensionMismatch(TreecrfError):
    """Array shapes of chart, mask, or parameters disagree."""


class DegenerateChart(TreecrfError):
    """A chart over zero tokens cannot be processed."""


class TooLarge(TreecrfError):
    """An exhaustive-enumeration guard was exceeded."""


class BadConfig(TreecrfError):
    """A configuration value is invalid or inconsistent."""


class EmptySentence(TreecrfError):
    """An operation received a sentence with no tokens."""


class EmptyCorpus(TreecrfError):
    """An operation received a corpus with no records."""


class NonFiniteLoss(TreecrfError):
    """Span scores, their spread, or a training loss became NaN or infinite.

    ``position`` is the 0-based position of the sentence in the input of
    the call that raised it, else ``None``.  For a batched scorer forward
    or a structured entry point it is the batch position.  For
    ``batch_predict`` (and so ``evaluate``) it counts the sentences given,
    and for ``train`` the corpus's records; the message names it as
    ``sentence {position} (length {n})``.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ParseError(TreecrfError):
    """A corpus file line could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModelFormatError(TreecrfError):
    """A model file is corrupt or has an unsupported format version."""
