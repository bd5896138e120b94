"""Exception hierarchy shared across the package."""


class EssenceMapError(Exception):
    """Base class for all errors raised by this package."""


class _SourcedError(EssenceMapError):
    """An error that can carry the source name and 1-based line it was found at.

    The message is ``<source>:<line>: <reason>``, or the bare reason when
    ``source`` is ``None``, so command-line output can point at the line.
    """

    def __init__(self, message: str, *, source: str | None = None, line: int = 0):
        super().__init__(message if source is None else f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


class CorpusSyntaxError(_SourcedError):
    """Malformed corpus, lexicon or annotation file."""


class UnknownReferenceError(_SourcedError):
    """A context/concept/attribute reference does not resolve.

    From a file it carries its source and line; from a command-line
    argument or the API (two different concepts under one
    ``context/name``) it has no source, so the message is the reason.
    """


class NoAttributesError(EssenceMapError):
    """A concept pair cannot be mapped: one of its concepts has no attributes."""


class EmptyContextError(EssenceMapError):
    """Context-level mapping requires at least one concept per side."""
