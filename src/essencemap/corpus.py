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
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Union

from importlib import resources

from .concepts import (
    ATTR_ID_PATTERN,
    RELATION_REF_PATTERN,
    AttrRef,
    AttributeStatement,
    Concept,
    ObjectInstance,
    SemanticContext,
)
from .errors import CorpusSyntaxError, UnknownReferenceError
from .lta import LEVEL_RANGE, Lexicon, stem

TextSource = Union[str, IO[str]]


class AnnotationTable:
    """Curated levels keyed by unordered attribute-reference pairs."""

    def __init__(self, entries: Iterable[tuple[AttrRef, AttrRef, int]] = ()):
        self._levels: dict[frozenset[AttrRef], int] = {}
        for left, right, level in entries:
            if level not in LEVEL_RANGE:
                raise ValueError(f"level must be 0..3, got {level!r} for {left} / {right}")
            key = frozenset((left, right))
            if key in self._levels:
                raise ValueError(f"duplicate annotation for pair {left} / {right}")
            self._levels[key] = level

    def level_for(self, left: AttrRef, right: AttrRef) -> Optional[int]:
        return self._levels.get(frozenset((left, right)))

    def __len__(self) -> int:
        return len(self._levels)

    def items(self) -> list[tuple[AttrRef, AttrRef, int]]:
        """Entries as (left, right, level), deterministically ordered."""
        out = []
        for key, level in self._levels.items():
            refs = sorted(key)
            left, right = (refs[0], refs[-1]) if len(refs) > 1 else (refs[0], refs[0])
            out.append((left, right, level))
        out.sort()
        return out


def _read(source: TextSource) -> str:
    if hasattr(source, "read"):
        return source.read()
    return source


def _logical_lines(text: str):
    """Yield (line_number, trimmed_line) skipping blanks and comments."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_concepts(source: TextSource, name: str = "<input>") -> SemanticContext:
    """Parse a concept file into a validated context."""
    text = _read(source)
    context_id: Optional[str] = None
    concepts: list[Concept] = []
    concept_names: set[str] = set()
    current: Optional[dict] = None

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    for number, line in _logical_lines(text):
        if line.startswith("context:"):
            value = line[len("context:"):].strip()
            if context_id is not None:
                fail(number, "duplicate 'context:' header")
            if not value or "/" in value or any(c.isspace() for c in value):
                fail(number, "expected 'context: <id>' with no whitespace or '/' in the id")
            context_id = value
        elif line.startswith("concept:"):
            if context_id is None:
                fail(number, "missing context header before first concept")
            if current is not None:
                fail(number, f"concept block opened at line {current['line']} is still open")
            value = line[len("concept:"):].strip()
            if not value:
                fail(number, "expected 'concept: <Name>'")
            if value in concept_names:
                fail(number, f"duplicate concept name {value!r}")
            current = {"name": value, "line": number, "attrs": [], "objs": [],
                       "rel_in": [], "rel_out": []}
        elif line == "end":
            if current is None:
                fail(number, "'end' without an open concept block")
            concepts.append(
                Concept(
                    current["name"],
                    tuple(current["attrs"]),
                    tuple(current["objs"]),
                    tuple(current["rel_in"]),
                    tuple(current["rel_out"]),
                )
            )
            concept_names.add(current["name"])
            current = None
        elif line.startswith("attr ") or line.startswith("obj "):
            kind, rest = line.split(" ", 1)
            if current is None:
                fail(number, f"'{kind}' line outside a concept block")
            ident, sep, body = rest.partition(":")
            ident = ident.strip()
            body = body.strip()
            if not sep:
                fail(number, f"expected '{kind} <id>: <text>'")
            if not body:
                fail(number, f"empty text in '{kind} {ident}:' line")
            if kind == "attr":
                if not ATTR_ID_PATTERN.match(ident):
                    fail(number, f"attribute id must match [a-z][a-z0-9]*, got {ident!r}")
                if any(a.id == ident for a in current["attrs"]):
                    fail(number, f"duplicate attribute id {ident!r}")
                current["attrs"].append(AttributeStatement(ident, body))
            else:
                if not ident or any(c.isspace() for c in ident):
                    fail(number, f"object id must be a single token, got {ident!r}")
                if any(o.id == ident for o in current["objs"]):
                    fail(number, f"duplicate object id {ident!r}")
                current["objs"].append(ObjectInstance(ident, body))
        elif line.startswith("rel-in:") or line.startswith("rel-out:"):
            key, _, value = line.partition(":")
            if current is None:
                fail(number, f"'{key}:' line outside a concept block")
            value = value.strip()
            if not RELATION_REF_PATTERN.match(value):
                fail(number, f"expected '{key}: <ctx>/<ConceptName>' with neither part empty "
                             "and no whitespace")
            current["rel_in" if key == "rel-in" else "rel_out"].append(value)
        else:
            fail(number, "unrecognized line; expected one of context:, concept:, "
                         "attr, obj, rel-in:, rel-out:, end")

    if current is not None:
        fail(current["line"], f"concept block {current['name']!r} is never closed with 'end'")
    if context_id is None:
        fail(1, "missing context header")
    return SemanticContext(context_id, tuple(concepts))


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


def parse_lexicon(source: TextSource, name: str = "<input>") -> Lexicon:
    """Parse ``syn:``/``stop:``/``verb:`` lines into a lexicon.

    Tokens are lowercased.  Synonym groups must stay disjoint, also after
    stemming, since group lookup happens on stemmed forms.
    """
    text = _read(source)
    groups: list[tuple[str, ...]] = []
    stopwords: set[str] = set()
    verbs: set[str] = set()
    member_owner: dict[str, int] = {}
    stem_owner: dict[str, int] = {}

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    for number, line in _logical_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("syn", "stop", "verb"):
            fail(number, "expected 'syn:', 'stop:' or 'verb:' line")
        tokens = [t.strip().lower() for t in rest.split(",")]
        if any(not t for t in tokens):
            fail(number, "empty token in list")
        if key == "stop":
            stopwords.update(tokens)
            continue
        if key == "verb":
            verbs.update(tokens)
            continue
        if len(set(tokens)) != len(tokens):
            duplicate = next(t for t in tokens if tokens.count(t) > 1)
            fail(number, f"duplicate token {duplicate!r} within the group")
        group_index = len(groups)
        for token in tokens:
            if token in member_owner:
                fail(number, f"token {token!r} already belongs to another synonym group")
            stemmed = stem(token)
            if stem_owner.get(stemmed, group_index) != group_index:
                fail(number, f"token {token!r} collides with another synonym group "
                             f"via stemmed form {stemmed!r}")
        for token in tokens:
            member_owner[token] = group_index
            stem_owner[stem(token)] = group_index
        groups.append(tuple(tokens))

    return Lexicon(tuple(groups), frozenset(stopwords), frozenset(verbs))


def parse_annotations(
    source: TextSource,
    contexts: Iterable[SemanticContext],
    name: str = "<input>",
) -> AnnotationTable:
    """Parse ``pair:`` lines, resolving every reference against ``contexts``."""
    text = _read(source)
    by_id: Mapping[str, SemanticContext] = {ctx.id: ctx for ctx in contexts}
    entries: list[tuple[AttrRef, AttrRef, int]] = []
    seen: set[frozenset[AttrRef]] = set()

    def fail(line: int, message: str):
        raise CorpusSyntaxError(message, source=name, line=line)

    def resolve(line: int, ref_text: str) -> AttrRef:
        try:
            ref = AttrRef.parse(ref_text)
        except ValueError:
            fail(line, f"expected '<ctx>/<Concept>.<attrId>', got {ref_text!r}")
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
        if level not in LEVEL_RANGE:
            fail(number, f"level must be between 0 and 3, got {level}")
        left = resolve(number, ref_texts[0])
        right = resolve(number, ref_texts[1])
        key = frozenset((left, right))
        if key in seen:
            fail(number, f"duplicate annotation for pair {left} / {right}")
        seen.add(key)
        entries.append((left, right, level))

    return AnnotationTable(entries)


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
