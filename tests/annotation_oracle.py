"""Reference for ``essencemap.parse_annotations``; test use only.

:func:`reference_parse_annotations` is the checked line parse with no fast
path: split the level off at the last ``=`` (``rpartition``), split the
references on whitespace (``split``), read the level with ``int``, resolve
each reference by walking the contexts, and keep the levels in a dict keyed
by unordered pairs.  It shares no code with ``essencemap.corpus`` and writes
every message the parser writes.
"""

from __future__ import annotations

from typing import Iterable

from essencemap import AttrRef, CorpusSyntaxError, SemanticContext, UnknownReferenceError


def reference_parse_annotations(
    text: str, contexts: Iterable[SemanticContext], name: str = "<input>"
) -> dict[frozenset[AttrRef], int]:
    """``{frozenset((left, right)): level}`` for the ``pair:`` lines of ``text``.

    Raises :class:`CorpusSyntaxError` or :class:`UnknownReferenceError`
    with the source, line and message ``parse_annotations`` gives.
    """
    by_id = {ctx.id: ctx for ctx in contexts}
    levels: dict[frozenset[AttrRef], int] = {}

    def resolve(number: int, ref_text: str) -> AttrRef:
        ref = AttrRef.parse(ref_text)
        context = by_id.get(ref.context)
        if context is None:
            part = "context"
        else:
            try:
                concept = context.concept(ref.concept)
            except KeyError:
                part = "concept"
            else:
                if any(attr.id == ref.attr for attr in concept.attributes):
                    return ref
                part = "attribute"
        raise UnknownReferenceError(f"unknown {part} in reference {ref}", source=name, line=number)

    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.startswith("pair:"):
                raise ValueError("expected 'pair: <ref> <ref> = <level>'")
            body, sep, level_text = line[len("pair:"):].rpartition("=")
            if not sep:
                raise ValueError("expected '= <level>' at end of pair line")
            ref_texts = body.split()
            if len(ref_texts) != 2:
                raise ValueError(f"expected exactly two references, got {len(ref_texts)}")
            try:
                level = int(level_text.strip())
            except ValueError:
                raise ValueError(f"level must be an integer, got {level_text.strip()!r}") from None
            left, right = resolve(number, ref_texts[0]), resolve(number, ref_texts[1])
            if not 0 <= level <= 3:
                raise ValueError(f"level must be between 0 and 3 (0..3), got {level!r} for {left} / {right}")
            if left == right:
                raise ValueError(f"cannot annotate {left} against itself")
            key = frozenset((left, right))
            if key in levels:
                raise ValueError(f"duplicate annotation for pair {left} / {right}")
            levels[key] = level
        except ValueError as exc:
            raise CorpusSyntaxError(str(exc), source=name, line=number) from None
    return levels
