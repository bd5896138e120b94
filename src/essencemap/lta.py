"""Typological scoring of attribute statements on a 0-3 scale.

Every attribute statement is treated as a simple sentence with a subject,
a predicate and an object part.  Two statements are compared part by part
and score one point per similar part, so levels range from 0 (nothing in
common) to 3 (all three parts similar).  A part is similar when the
canonical token sets of the two sides overlap; canonicalization removes
stopwords, strips inflection suffixes and folds synonym groups.  A
statement with no verb gets an empty predicate, which overlaps nothing.

Scoring runs in one of three modes: ``heuristic`` (computed from the text
alone), ``annotated`` (levels read from a curated table, errors on gaps)
and ``hybrid`` (annotation wins when present, heuristic otherwise).

:class:`StatementScorer` splits and canonicalizes each concept's
statements once, caching one row of part sets per attribute; scoring a
pair is then three set-overlap tests.  The reference is a row's identity:
a row scores 3 against the row with its own reference, whatever its text.
When no annotation table is in use it also keeps, per part, a map from
canonical token to the bitmask of the rows holding it, so a caller can
find the cells that can reach a threshold without scoring the others (see
:func:`~essencemap.matching.candidate_pairs`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .concepts import AttrRef, AttributeStatement, Concept
from .errors import UnannotatedPairError

if TYPE_CHECKING:
    from .corpus import AnnotationTable

MODES = ("heuristic", "annotated", "hybrid")

LEVEL_RANGE = (0, 1, 2, 3)

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
    their group without every inflection being listed.  Every stopword,
    verb and group member must pass :func:`check_one_token`.
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
        for what, tokens in (("stopword", self.extra_stopwords), ("verb", self.extra_verbs)):
            for token in sorted(tokens):
                check_one_token(token, what)
        self.synonym_map  # validate the groups at construction

    @cached_property
    def synonym_map(self) -> dict[str, str]:
        """Stemmed member form -> canonical form (the group's first member)."""
        table: dict[str, str] = {}
        for group in self.synonym_groups:
            add_synonym_group(table, group)
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


def check_one_token(token: str, what: str) -> None:
    """Raise ``ValueError`` unless ``tokenize(token) == [token]``; ``what`` names the entry's kind."""
    tokens = tokenize(token)
    if tokens != [token]:
        raise ValueError(f"{what} {token!r} can never match: text tokenizes to {tokens!r}")


EMPTY_LEXICON = Lexicon()


def add_synonym_group(table: dict[str, str], group: Sequence[str]) -> None:
    """Add ``group`` to ``table``, mapping each member's stemmed form to ``group[0]``.

    Raises ``ValueError``, leaving ``table`` as it was, when the group is
    empty, lists a token twice, holds a member that fails
    :func:`check_one_token`, or holds a stemmed form that an earlier group
    already maps; the last rule also covers a token listed in two groups,
    and keeps lookup by stemmed form unambiguous.
    """
    if not group:
        raise ValueError("empty synonym group")
    if len(set(group)) != len(group):
        duplicate = next(t for t in group if group.count(t) > 1)
        raise ValueError(f"duplicate token {duplicate!r} within synonym group {tuple(group)!r}")
    for member in group:
        check_one_token(member, "synonym")
    keys = [stem(member) for member in group]
    for member, key in zip(group, keys):
        if key in table:
            raise ValueError(
                f"token {member!r} collides with another synonym group via stemmed form"
                f" {key!r}; no two synonym groups may share a stemmed form"
            )
    table.update(dict.fromkeys(keys, group[0]))


@dataclass(frozen=True)
class SpoTriple:
    """Subject/predicate/object token runs of one statement."""

    subject: tuple[str, ...]
    predicate: tuple[str, ...]
    object_part: tuple[str, ...]

    @property
    def has_verb(self) -> bool:
        return bool(self.predicate)


def extract_spo(
    statement: AttributeStatement, owner: str, lexicon: Lexicon = EMPTY_LEXICON
) -> SpoTriple:
    """Split a statement into subject, predicate and object token runs.

    The predicate is the first maximal run of verb-lexicon tokens in the
    first sentence; the subject is whatever precedes it, falling back to
    the owning concept's name when the statement opens with its verb
    ("are the definition of ..." reads as "<owner> are ...").  Everything
    after the predicate, plus any text beyond the first period, forms the
    object part.  When no verb is found the predicate is empty, so it
    matches nothing, the subject falls back to the owner and all tokens
    join the object part; scoring proceeds, it is not an error.
    """
    head, _, tail = statement.text.partition(".")
    tokens = tokenize(head)
    trailing = tokenize(tail)
    owner_tokens = tuple(tokenize(owner))
    start = next((i for i, t in enumerate(tokens) if lexicon.is_verb(t)), None)
    if start is None:
        return SpoTriple(owner_tokens, (), tuple(tokens + trailing))
    end = start
    while end < len(tokens) and lexicon.is_verb(tokens[end]):
        end += 1
    subject = tuple(tokens[:start]) or owner_tokens
    return SpoTriple(subject, tuple(tokens[start:end]), tuple(tokens[end:] + trailing))


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
        if token in stop:
            continue
        canonical = lexicon.canonical(stem(token))
        if canonical in stop:
            continue
        out.add(canonical)
    return frozenset(out)


class AttrProfile(NamedTuple):
    """One attribute as the scorer compares it: its canonical part sets."""

    ref: AttrRef
    subject: frozenset[str]
    predicate: frozenset[str]
    object_part: frozenset[str]
    has_verb: bool


#: A profile's rows and, with no table in use, one dict per part (subject,
#: predicate, object) from canonical token to the bitmask of the rows holding it.
_Entry = tuple[tuple[AttrProfile, ...], Optional[tuple[dict[str, int], ...]]]


class StatementScorer:
    """Scoring front-end bundling lexicon, annotations and mode.

    :meth:`profile` splits and canonicalizes a concept's statements once
    and caches the rows; :meth:`level` compares two rows with no parsing per
    pair.  A row scores 3 against the row with its own reference.  Caching
    is idempotent, so scores do not depend on the order in which pairs are
    visited.

    Next to each profile, :meth:`indexed_profile` keeps one dict per part
    (subject, predicate, object) mapping a canonical token to the bitmask of
    the rows that hold it.  ORing the masks of one row's tokens per part
    gives, bit by bit, the rows whose part overlaps it, so the three results
    add up to the heuristic level of every cell of the row; a caller can
    thus pick out the cells that can reach a threshold before scoring them.
    The masks do not show the row with a row's own reference (3 even with no
    content words), which the caller adds.  They know nothing of the
    table either, so when one is in use (annotated mode, and hybrid mode
    with a table) there are none and every cell must be scored.
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
        self._profiles: dict[tuple[str, int], tuple[Concept, _Entry]] = {}

    def profile(self, context: str, concept: Concept) -> tuple[AttrProfile, ...]:
        """One row per attribute of ``concept``, in attribute order."""
        return self.indexed_profile(context, concept)[0]

    def indexed_profile(self, context: str, concept: Concept) -> _Entry:
        """The rows of :meth:`profile` and, with no table in use, their part masks.

        Cached on ``(context, id(concept))``; the entry holds the concept
        alive, so its id is not reused while the scorer lives.
        """
        cached = self._profiles.get((context, id(concept)))
        if cached is not None:
            return cached[1]
        built = []
        for attr in concept.attributes:
            ref = AttrRef(context, concept.name, attr.id)
            spo = extract_spo(attr, concept.name, self.lexicon)
            parts = (spo.subject, spo.predicate, spo.object_part)
            built.append(AttrProfile(
                ref, *(canonicalize_part(part, self.lexicon) for part in parts), spo.has_verb
            ))
        masks = None
        if self._table is None:
            masks = ({}, {}, {})
            for index, row in enumerate(built):
                for part, by_token in zip((row.subject, row.predicate, row.object_part), masks):
                    for token in part:
                        by_token[token] = by_token.get(token, 0) | 1 << index
        entry = (tuple(built), masks)
        self._profiles[context, id(concept)] = (concept, entry)
        return entry

    def level(self, a: AttrProfile, b: AttrProfile) -> int:
        """Level of one attribute pair; symmetric in ``a`` and ``b``.

        A row scores 3 against the row with its own reference.  Otherwise
        the table, outside heuristic mode, answers first (a gap is an error
        in annotated mode), then each part whose canonical sets overlap
        scores one point.
        """
        if a.ref == b.ref:
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
