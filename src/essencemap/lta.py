"""Typological scoring of attribute statements on a 0-3 scale.

Every attribute statement is treated as a simple sentence with a subject,
a predicate and an object part.  Two statements are compared part by part
and score one point per similar part, so levels range from 0 (nothing in
common) to 3 (all three parts similar).  A part is similar when the
canonical token sets of the two sides overlap; canonicalization removes
stopwords, strips inflection suffixes and folds synonym groups.

Scoring runs in one of three modes: ``heuristic`` (computed from the text
alone), ``annotated`` (levels read from a curated table, errors on gaps)
and ``hybrid`` (annotation wins when present, heuristic otherwise).

:class:`StatementScorer` splits and canonicalizes each concept's
statements once, caching one row of part sets per attribute under
``(context, concept)``; scoring a pair is then three set-overlap tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .concepts import AttrRef, AttributeStatement, Concept
from .errors import UnannotatedPairError

if TYPE_CHECKING:
    from .corpus import AnnotationTable

MODES = ("heuristic", "annotated", "hybrid")

LEVEL_RANGE = (0, 1, 2, 3)

#: Placeholder predicate for statements in which no verb could be found.
#: It never matches anything, including itself.
NO_VERB_MARKER = "‹none›"

BUILTIN_STOPWORDS = frozenset(
    """
    a an the
    to be of and what it
    in on at by for with from into within through as about between among
    over under after before during without
    or but nor so yet if then than because while whereas
    its this that these those they them their theirs he him his she her
    hers we us our ours you your yours i me my mine who whom whose which
    """.split()
)

BUILTIN_VERBS = frozenset(
    """
    am is are was were be been being
    must shall should will would can could may might
    need needs progress progresses continue continues provide provides
    refer refers address addresses satisfy satisfies meet meets
    stay stays evolve evolves
    """.split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_APOSTROPHES = str.maketrans("", "", "'’")

_SUFFIX_RULES = (("ies", "y"), ("ing", ""), ("ed", ""), ("es", ""), ("s", ""))
_MIN_STEM = 3
_MIN_STEMMABLE = 4


def tokenize(text: str) -> list[str]:
    """Lowercase, drop apostrophes, split on anything non-alphanumeric."""
    return _TOKEN_RE.findall(text.lower().translate(_APOSTROPHES))


def stem(token: str) -> str:
    """Strip plural/participle suffixes until no rule applies.

    Rules are tried longest first (-ies>y, -ing, -ed, -es, -s); a rule only
    fires when at least three characters remain, and tokens shorter than
    four characters are never touched.  Iterating to a fixed point keeps
    canonicalization idempotent.
    """
    while len(token) >= _MIN_STEMMABLE:
        for suffix, replacement in _SUFFIX_RULES:
            if token.endswith(suffix):
                candidate = token[: -len(suffix)] + replacement
                if len(candidate) >= _MIN_STEM:
                    token = candidate
                    break
        else:
            break
    return token


@dataclass(frozen=True)
class Lexicon:
    """Synonym groups plus stopword and verb extensions.

    Each synonym group canonicalizes to its first member.  Lookup keys are
    the stemmed forms of all members, so inflected corpus tokens reach
    their group without every inflection being listed.
    """

    synonym_groups: tuple[tuple[str, ...], ...] = ()
    extra_stopwords: frozenset[str] = frozenset()
    extra_verbs: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "synonym_groups", tuple(tuple(g) for g in self.synonym_groups)
        )
        object.__setattr__(self, "extra_stopwords", frozenset(self.extra_stopwords))
        object.__setattr__(self, "extra_verbs", frozenset(self.extra_verbs))
        seen: set[str] = set()
        for group in self.synonym_groups:
            if not group:
                raise ValueError("empty synonym group")
            for token in group:
                if token in seen:
                    raise ValueError(f"token {token!r} appears in two synonym groups")
            duplicates = len(group) - len(set(group))
            if duplicates:
                raise ValueError(f"duplicate token within synonym group {group!r}")
            seen.update(group)
        self.synonym_map  # force stem-collision validation at construction

    @cached_property
    def synonym_map(self) -> dict[str, str]:
        """Stemmed member form -> canonical form (the group's first member)."""
        table: dict[str, str] = {}
        for group in self.synonym_groups:
            canonical = group[0]
            for member in group:
                key = stem(member)
                if table.get(key, canonical) != canonical:
                    raise ValueError(
                        f"token {member!r} collides with another synonym group"
                        f" via stemmed form {key!r}"
                    )
                table[key] = canonical
        return table

    @cached_property
    def stopwords(self) -> frozenset[str]:
        return BUILTIN_STOPWORDS | self.extra_stopwords

    @cached_property
    def _verbs(self) -> frozenset[str]:
        return BUILTIN_VERBS | self.extra_verbs

    @cached_property
    def _verb_stems(self) -> frozenset[str]:
        return frozenset(stem(v) for v in self._verbs)

    def canonical(self, stemmed_token: str) -> str:
        return self.synonym_map.get(stemmed_token, stemmed_token)

    def is_verb(self, token: str) -> bool:
        """Verb lexicon membership, matching inflections through stems."""
        return token in self._verbs or stem(token) in self._verb_stems


EMPTY_LEXICON = Lexicon()


@dataclass(frozen=True)
class SpoTriple:
    """Subject/predicate/object token runs of one statement."""

    subject: tuple[str, ...]
    predicate: tuple[str, ...]
    object_part: tuple[str, ...]
    owner: str

    @property
    def has_verb(self) -> bool:
        return self.predicate != (NO_VERB_MARKER,)


def extract_spo(
    statement: AttributeStatement, owner: str, lexicon: Lexicon = EMPTY_LEXICON
) -> SpoTriple:
    """Split a statement into subject, predicate and object token runs.

    The predicate is the first maximal run of verb-lexicon tokens in the
    first sentence; the subject is whatever precedes it, falling back to
    the owning concept's name when the statement opens with its verb
    ("are the definition of ..." reads as "<owner> are ...").  Everything
    after the predicate, plus any text beyond the first period, forms the
    object part.  When no verb is found the predicate becomes a marker
    token that never matches, the subject falls back to the owner and all
    tokens join the object part; scoring proceeds, it is not an error.
    """
    head, _, tail = statement.text.partition(".")
    tokens = tokenize(head)
    trailing = tokenize(tail)
    owner_tokens = tuple(tokenize(owner))
    start = next((i for i, t in enumerate(tokens) if lexicon.is_verb(t)), None)
    if start is None:
        return SpoTriple(owner_tokens, (NO_VERB_MARKER,), tuple(tokens + trailing), owner)
    end = start
    while end < len(tokens) and lexicon.is_verb(tokens[end]):
        end += 1
    subject = tuple(tokens[:start]) or owner_tokens
    return SpoTriple(subject, tuple(tokens[start:end]), tuple(tokens[end:] + trailing), owner)


def canonicalize_part(
    tokens: Iterable[str], lexicon: Lexicon = EMPTY_LEXICON
) -> frozenset[str]:
    """Canonical token set of one sentence part.

    Drops stopwords, stems the rest, folds synonym groups, and finally
    drops canonical forms that are themselves stopwords so that the result
    is a fixed point of this function.
    """
    stop = lexicon.stopwords
    out: set[str] = set()
    for token in tokens:
        if token == NO_VERB_MARKER or token in stop:
            continue
        canonical = lexicon.canonical(stem(token))
        if canonical in stop:
            continue
        out.add(canonical)
    return frozenset(out)


def part_similar(
    part1: Sequence[str], part2: Sequence[str], lexicon: Lexicon = EMPTY_LEXICON
) -> bool:
    """True when the canonical token sets overlap; two empty sets do not."""
    return bool(canonicalize_part(part1, lexicon) & canonicalize_part(part2, lexicon))


def score_pair(
    left: AttrRef,
    s1: AttributeStatement,
    right: AttrRef,
    s2: AttributeStatement,
    lexicon: Lexicon = EMPTY_LEXICON,
    annotations: Optional["AnnotationTable"] = None,
    mode: str = "heuristic",
) -> int:
    """Level of one statement pair under the given mode.

    A one-off :class:`StatementScorer` scores each statement as the only
    attribute of its concept, so this is :meth:`StatementScorer.level`
    itself: symmetric, and 3 for a statement against itself.
    """
    scorer = StatementScorer(lexicon, annotations, mode)
    (a,) = scorer.profile(left.context, Concept(left.concept, (replace(s1, id=left.attr),)))
    (b,) = scorer.profile(right.context, Concept(right.concept, (replace(s2, id=right.attr),)))
    return scorer.level(a, b)


class AttrProfile(NamedTuple):
    """One attribute as the scorer compares it: its canonical part sets."""

    ref: AttrRef
    subject: frozenset[str]
    predicate: frozenset[str]
    object_part: frozenset[str]
    has_verb: bool


class StatementScorer:
    """Scoring front-end bundling lexicon, annotations and mode.

    :meth:`profile` splits and canonicalizes a concept's statements once
    and caches the rows under ``(context, concept)``, so equal concepts
    share the same row objects; :meth:`level` compares two rows with no
    parsing or hashing per pair.  Caching is idempotent, so scores do not
    depend on the order in which pairs are visited.
    """

    def __init__(
        self,
        lexicon: Lexicon = EMPTY_LEXICON,
        annotations: Optional["AnnotationTable"] = None,
        mode: str = "heuristic",
    ):
        if mode not in MODES:
            raise ValueError(f"unknown scoring mode {mode!r}")
        if mode == "annotated" and annotations is None:
            raise ValueError("annotated mode requires an annotation table")
        self.lexicon = lexicon
        self.mode = mode
        self._table = None if mode == "heuristic" else annotations
        self._profiles: dict[tuple[str, Concept], tuple[AttrProfile, ...]] = {}
        self._seen: dict[tuple[str, int], tuple[Concept, tuple[AttrProfile, ...]]] = {}

    def profile(self, context: str, concept: Concept) -> tuple[AttrProfile, ...]:
        """One row per attribute of ``concept``, in attribute order.

        Repeat calls with the same object skip hashing every statement: an
        entry keyed on its id answers them, and holds the concept alive.
        """
        seen = self._seen.get((context, id(concept)))
        if seen is not None:
            return seen[1]
        key = (context, concept)
        rows = self._profiles.get(key)
        if rows is None:
            built = []
            for attr in concept.attributes:
                ref = AttrRef(context, concept.name, attr.id)
                spo = extract_spo(attr, concept.name, self.lexicon)
                parts = (spo.subject, spo.predicate, spo.object_part)
                built.append(AttrProfile(
                    ref, *(canonicalize_part(part, self.lexicon) for part in parts), spo.has_verb
                ))
            rows = self._profiles[key] = tuple(built)
        self._seen[context, id(concept)] = (concept, rows)
        return rows

    def level(self, a: AttrProfile, b: AttrProfile) -> int:
        """Level of one attribute pair; symmetric in ``a`` and ``b``.

        A row against itself scores 3.  Otherwise the table, outside
        heuristic mode, answers first (a gap is an error in annotated mode),
        then each part whose canonical sets overlap scores one point.
        """
        if a is b:
            return 3
        if self._table is not None:
            level = self._table.level_for(a.ref, b.ref)
            if level is not None:
                return level
            if self.mode == "annotated":
                raise UnannotatedPairError(f"unannotated pair: {a.ref} / {b.ref}")
        return (
            (not a.subject.isdisjoint(b.subject))
            + (not a.predicate.isdisjoint(b.predicate))
            + (not a.object_part.isdisjoint(b.object_part))
        )

    @property
    def verbless_refs(self) -> frozenset[AttrRef]:
        """Attributes profiled so far whose statement has no detectable verb."""
        rows = (row for profile in self._profiles.values() for row in profile)
        return frozenset(row.ref for row in rows if not row.has_verb)
