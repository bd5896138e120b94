"""Concept model and the relational operations over matched attribute sets.

A semantic context is a named knowledge domain holding concepts; a concept
carries attribute statements (its intension) and object instances (its
extension).  These are immutable namedtuples: equal to a plain tuple of
their items, with ``len`` and iteration.  The constructors hold every value
rule (ids, one-token names, single-line texts, duplicates in a concept or
context) and raise ``ValueError``; ``_replace`` copies through them, so it
checks too.  The corpus parsers rely on them rather than repeating the rules.

The relational predicates (:func:`related`, :func:`similarity`, ...) never
look at raw attribute text: two attributes count as shared only when they
appear as a pair in a :class:`~essencemap.matching.MatchSet`, which is how
the natural-language intersection is made computable.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import NoAttributesError

if TYPE_CHECKING:
    from .matching import MatchSet

ATTR_ID_PATTERN = re.compile(r"[a-z][a-z0-9]*\Z")


class AttrRef(NamedTuple):
    """Fully qualified attribute reference: ``context/Concept.attrId``."""

    context: str
    concept: str
    attr: str

    def __str__(self) -> str:
        return f"{self.context}/{self.concept}.{self.attr}"

    @classmethod
    def parse(cls, text: str) -> "AttrRef":
        head, sep, attr = text.rpartition(".")
        context, sep2, concept = head.partition("/")
        if not sep or not sep2 or not context or not concept or not attr:
            raise ValueError(f"expected '<ctx>/<Concept>.<attrId>', got {text!r}")
        return cls(context, concept, attr)


def _clean_line_text(value: str, what: str) -> str:
    """``value`` stripped; non-empty and one line by ``str.splitlines``, as the parsers split."""
    value = value.strip()
    if not value:
        raise ValueError(f"empty text in {what}")
    if len(value.splitlines()) > 1:
        raise ValueError(f"text of {what} must be a single line")
    return value


def _check_unique(ids: Iterable[str], what: str, owner: str) -> None:
    seen: set[str] = set()
    for ident in ids:
        if ident in seen:
            raise ValueError(f"duplicate {what} {ident!r} in {owner}")
        seen.add(ident)


class Checked:
    """Namedtuple mixin: ``_make``, and so ``_replace``, build through the checking ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AttributeStatement(Checked, namedtuple("AttributeStatement", "id text")):
    """One attribute of a concept: an id plus a sentence fragment."""

    __slots__ = ()

    def __new__(cls, id: str, text: str):
        id = id.strip()
        text = _clean_line_text(text, f"attribute {id!r}")
        if not ATTR_ID_PATTERN.match(id):
            raise ValueError(f"attribute id must match [a-z][a-z0-9]*, got {id!r}")
        return tuple.__new__(cls, (id, text))


class ObjectInstance(Checked, namedtuple("ObjectInstance", "id text")):
    """A concrete instance extended from a concept."""

    __slots__ = ()

    def __new__(cls, id: str, text: str):
        id = id.strip()
        text = _clean_line_text(text, f"object {id!r}")
        # ':' ends the id in ``obj <id>: <text>`` lines, so it cannot be part of one.
        if not id or ":" in id or any(c.isspace() for c in id):
            raise ValueError(f"object id must be a single token with no ':', got {id!r}")
        return tuple.__new__(cls, (id, text))


class Concept(Checked, namedtuple("Concept", "name attributes objects")):
    """A named cognitive unit: attributes and objects."""

    __slots__ = ()

    def __new__(cls, name: str, attributes: Iterable[AttributeStatement] = (),
                objects: Iterable[ObjectInstance] = ()):
        name = _clean_line_text(name, "concept name")
        # References split on whitespace (``pair:`` lines), so a name is one token.
        if any(c.isspace() for c in name):
            raise ValueError(f"concept name must be a single token with no whitespace, got {name!r}")
        self = tuple.__new__(cls, (name, tuple(attributes), tuple(objects)))
        _check_unique((a.id for a in self.attributes), "attribute id", f"concept {name!r}")
        _check_unique((o.id for o in self.objects), "object id", f"concept {name!r}")
        return self


class SemanticContext(Checked, namedtuple("SemanticContext", "id concepts")):
    """A knowledge domain: an identifier plus its member concepts."""

    __slots__ = ()

    def __new__(cls, id: str, concepts: Iterable[Concept] = ()):
        concepts = tuple(concepts)
        if not id or "/" in id or any(c.isspace() for c in id):
            raise ValueError(f"context id must be non-empty with no whitespace or '/', got {id!r}")
        _check_unique((c.name for c in concepts), "concept name", f"context {id!r}")
        return tuple.__new__(cls, (id, concepts))

    def concept(self, name: str) -> Concept:
        for c in self.concepts:
            if c.name == name:
                return c
        raise KeyError(name)


def _normalize_label(text: str) -> str:
    return " ".join(text.lower().split())


def related(c1: Concept, c2: Concept, m: "MatchSet") -> bool:
    """True when the two concepts share at least one matched attribute."""
    return len(m.pairs) > 0


def independent(c1: Concept, c2: Concept, m: "MatchSet") -> bool:
    """Negation of :func:`related`: no attribute pair survived matching."""
    return not related(c1, c2, m)


def similarity(c1: Concept, c2: Concept, m: "MatchSet") -> Fraction:
    """Shared-attribute ratio as an exact percentage in [0, 100].

    Computes ``100 * k / (|A1| + |A2| - k)`` where ``k`` is the number of
    matched pairs; each matched pair counts once in the union.  Raises
    :class:`NoAttributesError` when both attribute sets are empty, since
    0/0 has no meaningful value.
    """
    k = len(m.pairs)
    n1, n2 = len(c1.attributes), len(c2.attributes)
    if n1 == 0 and n2 == 0:
        raise NoAttributesError(
            f"no attributes to compare between {c1.name!r} and {c2.name!r}"
        )
    return _percentage(k, n1 + n2 - k)


@lru_cache(maxsize=None)
def _percentage(k: int, union: int) -> Fraction:
    """``100 * k / union``, one shared (immutable) ``Fraction`` per argument pair.

    The cache is never pruned; it holds one entry per distinct ``(k, union)``
    a process sees, and both are bounded by the attribute counts mapped.
    """
    return Fraction(100 * k, union)


def equivalent(c1: Concept, c2: Concept, m: "MatchSet") -> bool:
    """True when attributes are fully matched and object labels coincide.

    Object labels are compared after lowercasing and whitespace collapsing;
    two empty object sets are equal.
    """
    k = len(m.pairs)
    if not (k == len(c1.attributes) == len(c2.attributes)):
        return False
    labels1 = {_normalize_label(o.text) for o in c1.objects}
    labels2 = {_normalize_label(o.text) for o in c2.objects}
    return labels1 == labels2


def sub_concept(c1: Concept, c2: Concept, m: "MatchSet") -> bool:
    """True when c1's intension strictly contains c2's.

    Every attribute of ``c2`` must be matched while ``c1`` carries strictly
    more attributes; containment is strict, so a concept is never a
    sub-concept of itself.
    """
    k = len(m.pairs)
    return k == len(c2.attributes) and len(c1.attributes) > len(c2.attributes)


def super_concept(c1: Concept, c2: Concept, m: "MatchSet") -> bool:
    """Mirror of :func:`sub_concept`: c2's intension strictly contains c1's."""
    k = len(m.pairs)
    return k == len(c1.attributes) and len(c2.attributes) > len(c1.attributes)
