"""Exception hierarchy shared across the package."""


class EssenceMapError(Exception):
    """Base class for all errors raised by this package."""


class CorpusSyntaxError(EssenceMapError):
    """Malformed corpus, lexicon or annotation file.

    Carries the source name and 1-based line number so command-line
    output can point at the offending line.
    """

    def __init__(self, message: str, *, source: str = "<input>", line: int = 0):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


class UnknownReferenceError(EssenceMapError):
    """A context/concept/attribute reference does not resolve.

    From a file it carries the source and line as :class:`CorpusSyntaxError`
    does; without a source (a command-line argument) the message is the reason.
    """

    def __init__(self, message: str, *, source: str | None = None, line: int = 0):
        super().__init__(message if source is None else f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


class UnannotatedPairError(EssenceMapError):
    """Annotated scoring asked for a pair that is not in the table."""


class NoAttributesError(EssenceMapError):
    """Similarity is undefined when both attribute sets are empty."""


class EmptyContextError(EssenceMapError):
    """Context-level mapping requires at least one concept per side."""
