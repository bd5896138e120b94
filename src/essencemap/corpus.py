"""Line-oriented corpus, lexicon and annotation file handling.

All three formats share the same conventions: UTF-8, lines are trimmed,
blank lines are skipped, and a line whose first non-space character is
``#`` is a comment.  Parse errors always carry the source name and a
1-based line number, and no partially built value ever escapes a failed
parse.

Concept files::

    context: EF
    concept: Requirements
    attr a1: are the definition of what needs to be achieved
    obj o1: release 2 requirement set
    rel-in: EF/Opportunity
    rel-out: EF/SoftwareSystem
    end

Lexicon files hold ``syn:``, ``stop:`` and ``verb:`` lines with
comma-separated tokens; annotation files hold lines of the form
``pair: EF/Requirements.a3 Scrum/ProductBacklog.b3 = 2``.

The parsers own line shape (keywords, separators, token lists, integer
levels) and block structure (one header, blocks opened before use and
closed once), plus the duplicate checks across lines, since only they know
the line of the second occurrence.  Every value rule lives in the model:
each line builds its model object (:class:`SemanticContext`,
:class:`Concept`, :class:`AttributeStatement`, :class:`ObjectInstance`,
:func:`relation_ref`, :func:`~essencemap.lta.add_synonym_group`,
:meth:`AnnotationTable.add`) and a ``ValueError`` it raises becomes a
:class:`CorpusSyntaxError` at that line.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, TypeVar, Union

from importlib import resources

from .concepts import (
    AttrRef,
    AttributeStatement,
    Concept,
    ObjectInstance,
    SemanticContext,
    relation_ref,
)
from .errors import CorpusSyntaxError, UnknownReferenceError
from .lta import LEVEL_RANGE, Lexicon, add_synonym_group

T = TypeVar("T")


class AnnotationTable:
    """Curated levels keyed by unordered pairs of distinct attribute references."""

    def __init__(self, entries: Iterable[tuple[AttrRef, AttrRef, int]] = ()):
        self._levels: dict[frozenset[AttrRef], int] = {}
        for left, right, level in entries:
            self.add(left, right, level)

    def add(self, left: AttrRef, right: AttrRef, level: int) -> None:
        """Record one level; raises ValueError for a bad level or pair."""
        if type(level) is not int or level not in LEVEL_RANGE:
            raise ValueError(f"level must be between 0 and 3 (0..3), got {level!r} for {left} / {right}")
        if left == right:
            # A row against itself always scores 3, so such a level is never read.
            raise ValueError(f"cannot annotate {left} against itself")
        key = frozenset((left, right))
        if key in self._levels:
            raise ValueError(f"duplicate annotation for pair {left} / {right}")
        self._levels[key] = level

    def level_for(self, left: AttrRef, right: AttrRef) -> Optional[int]:
        return self._levels.get(frozenset((left, right)))

    def __len__(self) -> int:
        return len(self._levels)


def _logical_lines(text: str):
    """Yield (line_number, trimmed_line) skipping blanks and comments."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _build(source: str, line: int, make: Callable[..., T], *args) -> T:
    """``make(*args)``, with a ``ValueError`` from the model reported at ``source:line``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise CorpusSyntaxError(str(exc), source=source, line=line) from None


# Line keyword inside a concept block -> the Concept field it adds to.
_BLOCK_FIELDS = {"attr": "attributes", "obj": "objects",
                 "rel-in": "input_relations", "rel-out": "output_relations"}


def parse_concepts(text: str, name: str = "<input>") -> SemanticContext:
    """Parse the text of a concept file into a validated context."""
    header: Optional[SemanticContext] = None
    concepts: list[Concept] = []
    concept_names: set[str] = set()
    current: Optional[Concept] = None  # the open block, holding only its name
    opened_at = 0
    parts: dict[str, list] = {}

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    for number, line in _logical_lines(text):
        if line.startswith("context:"):
            if header is not None:
                fail(number, "duplicate 'context:' header")
            header = _build(name, number, SemanticContext, line[len("context:"):].strip())
        elif line.startswith("concept:"):
            if header is None:
                fail(number, "missing context header before first concept")
            if current is not None:
                fail(number, f"concept block opened at line {opened_at} is still open")
            current = _build(name, number, Concept, line[len("concept:"):])
            if current.name in concept_names:
                fail(number, f"duplicate concept name {current.name!r}")
            opened_at, parts = number, {field: [] for field in _BLOCK_FIELDS.values()}
        elif line == "end":
            if current is None:
                fail(number, "'end' without an open concept block")
            concepts.append(replace(current, **parts))
            concept_names.add(current.name)
            current = None
        elif line.startswith("attr ") or line.startswith("obj "):
            kind, rest = line.split(" ", 1)
            if current is None:
                fail(number, f"'{kind}' line outside a concept block")
            # The id ends at the first ': ', so a ':' inside it is reported, not read as text.
            ident, sep, body = rest.partition(": " if ": " in rest else ":")
            if not sep:
                fail(number, f"expected '{kind} <id>: <text>'")
            make, what = (AttributeStatement, "attribute") if kind == "attr" else (ObjectInstance, "object")
            item = _build(name, number, make, ident, body)
            siblings = parts[_BLOCK_FIELDS[kind]]
            if any(other.id == item.id for other in siblings):
                fail(number, f"duplicate {what} id {item.id!r}")
            siblings.append(item)
        elif line.startswith("rel-in:") or line.startswith("rel-out:"):
            key, _, value = line.partition(":")
            if current is None:
                fail(number, f"'{key}:' line outside a concept block")
            parts[_BLOCK_FIELDS[key]].append(_build(name, number, relation_ref, key, value.strip()))
        else:
            fail(number, "unrecognized line; expected one of context:, concept:, "
                         "attr, obj, rel-in:, rel-out:, end")

    if current is not None:
        fail(opened_at, f"concept block {current.name!r} is never closed with 'end'")
    if header is None:
        fail(1, "missing context header")
    return replace(header, concepts=concepts)


def serialize_concepts(context: SemanticContext) -> str:
    """Canonical text form; parsing it back reproduces the context."""
    lines = [f"context: {context.id}", ""]
    for concept in context.concepts:
        lines.append(f"concept: {concept.name}")
        for attr in concept.attributes:
            lines.append(f"attr {attr.id}: {attr.text}")
        for obj in concept.objects:
            lines.append(f"obj {obj.id}: {obj.text}")
        for ref in concept.input_relations:
            lines.append(f"rel-in: {ref}")
        for ref in concept.output_relations:
            lines.append(f"rel-out: {ref}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def parse_lexicon(text: str, name: str = "<input>") -> Lexicon:
    """Parse ``syn:``/``stop:``/``verb:`` lines into a lexicon.

    Tokens are lowercased.  Each ``syn:`` line is checked against the
    groups before it with :func:`~essencemap.lta.add_synonym_group`.
    """
    groups: list[tuple[str, ...]] = []
    stopwords: set[str] = set()
    verbs: set[str] = set()
    synonyms: dict[str, str] = {}

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    for number, line in _logical_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("syn", "stop", "verb"):
            fail(number, "expected 'syn:', 'stop:' or 'verb:' line")
        tokens = tuple(t.strip().lower() for t in rest.split(","))
        if any(not t for t in tokens):
            fail(number, "empty token in list")
        if key == "stop":
            stopwords.update(tokens)
        elif key == "verb":
            verbs.update(tokens)
        else:
            _build(name, number, add_synonym_group, synonyms, tokens)
            groups.append(tokens)

    return Lexicon(tuple(groups), frozenset(stopwords), frozenset(verbs))


def parse_annotations(
    text: str,
    contexts: Iterable[SemanticContext],
    name: str = "<input>",
) -> AnnotationTable:
    """Parse ``pair:`` lines, resolving every reference against ``contexts``.

    When two contexts share an id, the last one wins.  A reference resolves
    with one lookup in a map from ``str(ref)`` to ``ref`` over every attribute
    of those contexts; since ``AttrRef.parse(str(ref)) == ref`` for every ref
    the model accepts, a hit is what the checked path would return.  A miss
    falls back to that path, which names the part that does not resolve.
    """
    by_id: Mapping[str, SemanticContext] = {ctx.id: ctx for ctx in contexts}
    known: dict[str, AttrRef] = {}
    for context in by_id.values():
        for concept in context.concepts:
            for attr in concept.attributes:
                ref = AttrRef(context.id, concept.name, attr.id)
                known[str(ref)] = ref
    table = AnnotationTable()

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    def resolve(line: int, ref_text: str) -> AttrRef:
        ref = known.get(ref_text)
        if ref is not None:
            return ref
        ref = _build(name, line, AttrRef.parse, ref_text)
        context = by_id.get(ref.context)
        if context is None:
            raise UnknownReferenceError(f"{name}:{line}: unknown context in reference {ref}")
        try:
            concept = context.concept(ref.concept)
        except KeyError:
            raise UnknownReferenceError(f"{name}:{line}: unknown concept in reference {ref}") from None
        try:
            concept.attribute(ref.attr)
        except KeyError:
            raise UnknownReferenceError(f"{name}:{line}: unknown attribute in reference {ref}") from None
        return ref

    for number, line in _logical_lines(text):
        if not line.startswith("pair:"):
            fail(number, "expected 'pair: <ref> <ref> = <level>'")
        body, sep, level_text = line[len("pair:"):].rpartition("=")
        if not sep:
            fail(number, "expected '= <level>' at end of pair line")
        ref_texts = body.split()
        if len(ref_texts) != 2:
            fail(number, f"expected exactly two references, got {len(ref_texts)}")
        try:
            level = int(level_text.strip())
        except ValueError:
            fail(number, f"level must be an integer, got {level_text.strip()!r}")
        left = resolve(number, ref_texts[0])
        right = resolve(number, ref_texts[1])
        _build(name, number, table.add, left, right, level)

    return table


def _read_utf8(path: Path) -> str:
    """Text of ``path``; a byte that is not UTF-8 is a syntax error on its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusSyntaxError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02X}", source=str(path), line=line
        ) from None


def load_concepts(path: Union[str, Path]) -> SemanticContext:
    path = Path(path)
    return parse_concepts(_read_utf8(path), name=str(path))


def load_lexicon(path: Union[str, Path]) -> Lexicon:
    path = Path(path)
    return parse_lexicon(_read_utf8(path), name=str(path))


def load_annotations(
    path: Union[str, Path], contexts: Iterable[SemanticContext]
) -> AnnotationTable:
    path = Path(path)
    return parse_annotations(_read_utf8(path), contexts, name=str(path))


def bundled_path(filename: str) -> Path:
    """Filesystem path of a bundled corpus file (see ``essencemap/data``)."""
    path = Path(str(resources.files("essencemap").joinpath("data", filename)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled corpus file named {filename!r}")
    return path
