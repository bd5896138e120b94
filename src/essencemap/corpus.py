"""Line-oriented corpus, lexicon and annotation file handling.

All three formats share the same conventions: UTF-8, with a leading
byte-order mark skipped when a file is loaded; lines are trimmed, blank
lines are skipped, and a line whose first non-space character is ``#``
is a comment.  Parse errors always carry the source name and a
1-based line number, and no partially built value ever escapes a failed
parse.

Concept files::

    context: EF
    concept: Requirements
    attr a1: are the definition of what needs to be achieved
    obj o1: release 2 requirement set
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
:func:`~essencemap.lta.add_synonym_group`, an :class:`AnnotationTable`
entry, ...), which raises ``ValueError`` as the shape checks do; one handler
per parser loop turns that error into a :class:`CorpusSyntaxError` at that line.

Every parser reads its text one piece of lines at a time
(:func:`_line_pieces`), so the extra memory of a parse is about one piece.
"""

from __future__ import annotations

from itertools import chain
from operator import length_hint
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from .concepts import (
    AttrRef,
    AttributeStatement,
    Concept,
    ObjectInstance,
    SemanticContext,
)
from .errors import CorpusSyntaxError, UnknownReferenceError
from .lta import LEVEL_RANGE, NO_LEVELS, Lexicon, add_synonym_group, check_one_token


class AnnotationTable:
    """Curated levels for unordered pairs of distinct attribute references, built once.

    A table is made from ``entries`` or by :func:`parse_annotations`, and
    nothing changes it afterwards.  Each reference keys a row dict from
    another reference to the level.  A context ranks where it is first
    named: in the parser's context order, or in entry order, the left
    reference first.  A pair of two contexts sits once, in the row of the
    reference whose context ranks first, and a pair within one context in
    both rows, so :meth:`level_for` reads the other row only on a miss.  A
    row may be empty: the parser makes one for every known reference.
    ``len`` counts the pairs.
    """

    def __init__(self, entries: Iterable[tuple[AttrRef, AttrRef, int]] = ()):
        self._rows: dict[AttrRef, dict[AttrRef, int]] = {}
        self._ranks: dict[str, int] = {}  # context id -> rank
        self._size = 0
        for left, right, level in entries:
            self._add(left, right, level)

    def _add(self, left: AttrRef, right: AttrRef, level: int) -> None:
        """Record one entry of a table being built; raises ValueError for a bad level or pair before it writes."""
        if type(level) is not int or level not in LEVEL_RANGE:
            raise ValueError(f"level must be between 0 and 3 (0..3), got {level!r} for {left} / {right}")
        if left == right:
            # Never read: StatementScorer.level scores a row 3 against its own reference.
            raise ValueError(f"cannot annotate {left} against itself")
        rows, ranks = self._rows, self._ranks
        if right in rows.get(left, NO_LEVELS) or left in rows.get(right, NO_LEVELS):
            raise ValueError(f"duplicate annotation for pair {left} / {right}")
        first = ranks.setdefault(left.context, len(ranks))
        second = ranks.setdefault(right.context, len(ranks))
        if first <= second:
            rows.setdefault(left, {})[right] = level
        if first >= second:
            rows.setdefault(right, {})[left] = level
        self._size += 1

    def row(self, ref: AttrRef) -> Mapping[AttrRef, int]:
        """Read-only view of the levels of ``ref``: other reference -> level.

        When ``ref``'s context ranks after another, a copy that adds the
        levels of ``ref`` that earlier rows hold, found by a scan of every row.
        """
        rows, ranks = self._rows, self._ranks
        row, rank = rows.get(ref), ranks.get(ref.context)
        if rank:
            row = dict(row or ())
            for other, levels in rows.items():
                if ref in levels and ranks[other.context] < rank:
                    row[other] = levels[ref]
        return NO_LEVELS if row is None else MappingProxyType(row)

    def level_for(self, left: AttrRef, right: AttrRef) -> Optional[int]:
        level = self._rows.get(left, NO_LEVELS).get(right)
        return self._rows.get(right, NO_LEVELS).get(left) if level is None else level

    def __len__(self) -> int:
        """The number of pairs, however many rows each sits in."""
        return self._size


# About how many characters :func:`_line_pieces` cuts at a time.
_PIECE_CHARS = 1 << 16


def _line_pieces(text: str):
    """Yield the lines of ``text``, one piece's ``splitlines()`` at a time.

    One leading byte-order mark (U+FEFF) is dropped; anywhere else it is
    text.  A piece ends just after the first ``\\n`` that makes it at least
    :data:`_PIECE_CHARS` characters long, or at the end of the text, so a
    ``\\r\\n`` is never split and the pieces' lines, in order, are exactly
    ``text.removeprefix("\\ufeff").splitlines()``.  A text with no ``\\n``
    is one piece when it is still non-empty after its mark is dropped, and
    no piece otherwise.  Only one piece and its lines are held at a time,
    not a list of every line.
    """
    start = 1 if text.startswith("\ufeff") else 0
    end = len(text)
    while start < end:
        cut = text.find("\n", start + _PIECE_CHARS - 1) + 1 or end
        yield text[start:cut].splitlines()
        start = cut


def _logical_lines(text: str):
    """Yield (line_number, trimmed_line) of the lines of :func:`_line_pieces`, skipping blanks and comments."""
    for number, raw in enumerate(chain.from_iterable(_line_pieces(text)), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


# Line keyword inside a concept block -> the Concept field it adds to.
_BLOCK_FIELDS = {"attr": "attributes", "obj": "objects"}


def parse_concepts(text: str, name: str = "<input>") -> SemanticContext:
    """Parse the text of a concept file into a validated context."""
    header: Optional[SemanticContext] = None
    concepts: list[Concept] = []
    concept_names: set[str] = set()
    current: Optional[Concept] = None  # the open block, holding only its name
    opened_at = 0
    parts: dict[str, dict] = {}  # field -> {id: item} of the open block, in line order

    for number, line in _logical_lines(text):
        try:
            if line.startswith("context:"):
                if header is not None:
                    raise ValueError("duplicate 'context:' header")
                header = SemanticContext(line[len("context:"):].strip())
            elif line.startswith("concept:"):
                if header is None:
                    raise ValueError("missing context header before first concept")
                if current is not None:
                    raise ValueError(f"concept block opened at line {opened_at} is still open")
                current = Concept(line[len("concept:"):])
                if current.name in concept_names:
                    raise ValueError(f"duplicate concept name {current.name!r}")
                opened_at, parts = number, {field: {} for field in _BLOCK_FIELDS.values()}
            elif line == "end":
                if current is None:
                    raise ValueError("'end' without an open concept block")
                concepts.append(Concept(current.name, **{f: items.values() for f, items in parts.items()}))
                concept_names.add(current.name)
                current = None
            elif line.startswith("attr ") or line.startswith("obj "):
                kind, rest = line.split(" ", 1)
                if current is None:
                    raise ValueError(f"'{kind}' line outside a concept block")
                # The id ends at the first ': ', so a ':' inside it is reported, not read as text.
                ident, sep, body = rest.partition(": " if ": " in rest else ":")
                if not sep:
                    raise ValueError(f"expected '{kind} <id>: <text>'")
                make, what = (AttributeStatement, "attribute") if kind == "attr" else (ObjectInstance, "object")
                item = make(ident, body)
                siblings = parts[_BLOCK_FIELDS[kind]]
                if item.id in siblings:
                    raise ValueError(f"duplicate {what} id {item.id!r}")
                siblings[item.id] = item
            else:
                raise ValueError("unrecognized line; expected one of context:, concept:, attr, obj, end")
        except ValueError as exc:
            raise CorpusSyntaxError(str(exc), source=name, line=number) from None

    if current is not None:
        raise CorpusSyntaxError(f"concept block {current.name!r} is never closed with 'end'",
                                source=name, line=opened_at)
    if header is None:
        raise CorpusSyntaxError("missing context header", source=name, line=1)
    return SemanticContext(header.id, concepts)


def serialize_concepts(context: SemanticContext) -> str:
    """Canonical text form; parsing it back reproduces the context."""
    lines = [f"context: {context.id}", ""]
    for concept in context.concepts:
        lines.append(f"concept: {concept.name}")
        for attr in concept.attributes:
            lines.append(f"attr {attr.id}: {attr.text}")
        for obj in concept.objects:
            lines.append(f"obj {obj.id}: {obj.text}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def parse_lexicon(text: str, name: str = "<input>") -> Lexicon:
    """Parse ``syn:``/``stop:``/``verb:`` lines into a lexicon.

    Tokens are lowercased.  Each ``syn:`` line is checked against the
    groups before it with :func:`~essencemap.lta.add_synonym_group`, and
    each ``stop:``/``verb:`` token with :func:`~essencemap.lta.check_one_token`.
    """
    groups: list[tuple[str, ...]] = []
    stopwords: set[str] = set()
    verbs: set[str] = set()
    synonyms: dict[str, str] = {}

    for number, line in _logical_lines(text):
        try:
            key, sep, rest = line.partition(":")
            key = key.strip()
            if not sep or key not in ("syn", "stop", "verb"):
                raise ValueError("expected 'syn:', 'stop:' or 'verb:' line")
            tokens = tuple(t.strip().lower() for t in rest.split(","))
            if any(not t for t in tokens):
                raise ValueError("empty token in list")
            if key == "syn":
                add_synonym_group(synonyms, tokens)
                groups.append(tokens)
            else:
                what, bucket = ("stopword", stopwords) if key == "stop" else ("verb", verbs)
                for token in tokens:
                    check_one_token(token, what)
                bucket.update(tokens)
        except ValueError as exc:
            raise CorpusSyntaxError(str(exc), source=name, line=number) from None

    return Lexicon(tuple(groups), frozenset(stopwords), frozenset(verbs))


_LEVEL_TEXTS = {str(level): level for level in LEVEL_RANGE}  # "0" -> 0, ..., "3" -> 3


def parse_annotations(
    text: str,
    contexts: Iterable[SemanticContext],
    name: str = "<input>",
) -> AnnotationTable:
    """Parse ``pair:`` lines, resolving every reference against ``contexts``.

    Each context ranks where its id first comes in ``contexts`` (see
    :class:`AnnotationTable`); when two share an id, the last one wins.  A
    reference resolves with one lookup in a map from ``str(ref)`` to
    ``ref``, its row and its context's rank, over every attribute of those
    contexts; since ``AttrRef.parse(str(ref)) == ref`` for every ref the
    model accepts, a hit is what the checked path would return.  A miss
    names the part that does not resolve: as ``str(AttrRef.parse(t)) ==
    t``, the attribute when the context and concept resolve.

    One loop reads the lines a piece at a time (:func:`_line_pieces`).  A
    line that splits on whitespace into exactly ``pair:``, two references
    that hit, ``=`` and a level text of :data:`_LEVEL_TEXTS` reads as the
    checked path would read it.  It writes its level into the row of its
    first-ranked reference, and the other row too when the ranks are equal,
    and goes on when its references differ and that first row grew, so the
    pair is new.  Any other line that is not blank or a comment takes the
    checked path, which ends in ``AnnotationTable._add``, the only place
    that rejects a self pair or a repeat, at its own line; a table a repeat
    wrote into is discarded.
    """
    by_id: Mapping[str, SemanticContext] = {ctx.id: ctx for ctx in contexts}
    table = AnnotationTable()
    known: dict[str, tuple[AttrRef, dict[AttrRef, int], int]] = {}
    for rank, context in enumerate(by_id.values()):
        table._ranks[context.id] = rank
        for concept in context.concepts:
            for attr in concept.attributes:
                ref = AttrRef(context.id, concept.name, attr.id)
                known[str(ref)] = (ref, table._rows.setdefault(ref, {}), rank)

    def resolve(line: int, ref_text: str) -> AttrRef:
        found = known.get(ref_text)
        if found is not None:
            return found[0]
        ref = AttrRef.parse(ref_text)
        context = by_id.get(ref.context)
        if context is None:
            part = "context"
        else:
            try:
                context.concept(ref.concept)
                part = "attribute"
            except KeyError:
                part = "concept"
        raise UnknownReferenceError(f"unknown {part} in reference {ref}", source=name, line=line)

    end, fast, hit, level_of = 0, 0, known.get, _LEVEL_TEXTS.get
    # Only the iterator of a piece is held, and it lets go of the piece's lines once read.
    for rest in map(iter, _line_pieces(text)):
        end += length_hint(rest)  # the number of the piece's last line
        for line in rest:
            fields = line.split()
            if len(fields) == 5 and fields[0] == "pair:" and fields[3] == "=":
                left, right, level = hit(fields[1]), hit(fields[2]), level_of(fields[4])
                if left is not None and right is not None and level is not None and left is not right:
                    if left[2] > right[2]:
                        left, right = right, left
                    row = left[1]
                    size = len(row)
                    row[right[0]] = level
                    if len(row) != size:
                        if left[2] == right[2]:
                            right[1][left[0]] = level
                        fast += 1
                        continue
            elif not fields or fields[0].startswith("#"):
                continue
            number = end - length_hint(rest)
            line = line.strip()
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
                table._add(resolve(number, ref_texts[0]), resolve(number, ref_texts[1]), level)
            except ValueError as exc:
                raise CorpusSyntaxError(str(exc), source=name, line=number) from None
    table._size += fast
    return table


def _read_utf8(path: Path) -> str:
    """Text of ``path``; the parsers drop a leading byte-order mark.

    A byte that is not UTF-8 is a syntax error on its line, numbered as
    the parsers number lines, by ``str.splitlines``.
    """
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; "x" stands for the byte itself.
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise CorpusSyntaxError(
            f"invalid UTF-8 byte 0x{exc.object[exc.start]:02X}", source=str(path), line=line
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
    # Imported here: on Python 3.12 it pulls in ``inspect``, which start-up otherwise avoids.
    from importlib import resources

    path = Path(str(resources.files("essencemap").joinpath("data", filename)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled corpus file named {filename!r}")
    return path
