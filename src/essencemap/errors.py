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
    """A context/concept/attribute reference does not resolve."""


class UnannotatedPairError(EssenceMapError):
    """Annotated scoring asked for a pair that is not in the table."""


class NoAttributesError(EssenceMapError):
    """Similarity is undefined when both attribute sets are empty."""


class EmptyContextError(EssenceMapError):
    """Context-level mapping requires at least one concept per side."""
