"""Typological scoring of attribute statements on a 0-3 scale.

Every attribute statement is treated as a simple sentence with a subject,
a predicate and an object part.  Two statements are compared part by part
and score one point per similar part, so levels range from 0 (nothing in
common) to 3 (all three parts similar).  A part is similar when the
canonical token sets of the two sides overlap; canonicalization removes
stopwords, strips inflection suffixes and folds synonym groups.  A
statement with no verb gets an empty predicate, which overlaps nothing.

Scoring runs in one of three modes: ``heuristic`` (computed from the text
alone), ``annotated`` (levels read from a curated table, a pair the table
lacks reading as 0) and ``hybrid`` (annotation wins when present,
heuristic otherwise).

A :class:`StatementScorer` is built over the contexts it maps: it splits
and canonicalizes the statements of each of their concepts once (none in
annotated mode, which reads only references and table levels), holding
one row of part sets per attribute with its position in reference order;
scoring a pair is then three set-overlap tests.  A :class:`Lexicon` folds
and verb-tests each distinct token once and memoizes the answers, so the
per-token work grows with the vocabulary, not with the number of times a
token occurs.  The reference
is a row's identity: a row scores 3 against the row with its own
reference, whatever its text.  :meth:`StatementScorer.cells` names the
cells of a concept pair that can reach a threshold, read from a bitmask
index over the rows the scorer holds and, outside heuristic mode, from
the table levels of those rows; a concept the scorer was not built over is
scanned in full.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .concepts import AttrRef, AttributeStatement, Checked, Concept, SemanticContext

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
    text = text.lower()
    if "'" in text or "’" in text:
        text = text.translate(_APOSTROPHES)
    return _TOKEN_RE.findall(text)


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


class Lexicon(Checked, namedtuple("Lexicon", "synonym_groups extra_stopwords extra_verbs")):
    """Synonym groups plus stopword and verb extensions.

    Each synonym group canonicalizes to its first member.  Lookup keys are
    the stemmed forms of all members, so inflected corpus tokens reach
    their group without every inflection being listed.  Every stopword,
    verb and group member must pass :func:`check_one_token`.

    Each instance memoizes, per raw token, its :meth:`fold` and its
    :meth:`is_verb` answer; the memo is the instance's own, so two
    lexicons never share one.  It is never pruned: the shared
    :data:`EMPTY_LEXICON`'s memo grows with the vocabulary a process sees.
    Memos and cached properties live in the instance dict, which equality
    and hashing ignore; assigning an attribute still raises ``AttributeError``.
    """

    def __new__(cls, synonym_groups: Iterable[Sequence[str]] = (),
                extra_stopwords: Iterable[str] = frozenset(), extra_verbs: Iterable[str] = frozenset()):
        self = tuple.__new__(cls, (tuple(tuple(g) for g in synonym_groups),
                                   frozenset(extra_stopwords), frozenset(extra_verbs)))
        for what, tokens in (("stopword", self.extra_stopwords), ("verb", self.extra_verbs)):
            for token in sorted(tokens):
                check_one_token(token, what)
        self.synonym_map  # validate the groups at construction
        vars(self).update(_folds={}, _verdicts={})
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to attribute {name!r} of an immutable Lexicon")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete attribute {name!r} of an immutable Lexicon")

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
    def _verb_stems(self) -> frozenset[str]:
        return frozenset(stem(v) for v in BUILTIN_VERBS | self.extra_verbs)

    def canonical(self, stemmed_token: str) -> str:
        return self.synonym_map.get(stemmed_token, stemmed_token)

    def fold(self, token: str) -> Optional[str]:
        """Canonical form of one raw token, or ``None`` when it is dropped.

        A stopword is dropped; any other token is stemmed and folded into
        its synonym group, and dropped when that canonical form is a
        stopword.  Memoized per token.
        """
        try:
            return self._folds[token]
        except KeyError:
            pass
        folded = None
        if token not in self.stopwords:
            folded = self.canonical(stem(token))
            if folded in self.stopwords:
                folded = None
        self._folds[token] = folded
        return folded

    def is_verb(self, token: str) -> bool:
        """Verb lexicon membership, matching inflections through stems; memoized per token."""
        verdict = self._verdicts.get(token)
        if verdict is None:
            verdict = self._verdicts[token] = stem(token) in self._verb_stems
        return verdict


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


class SpoTriple(NamedTuple):
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
    is_verb = lexicon.is_verb
    start = next((i for i, t in enumerate(tokens) if is_verb(t)), None)
    if start is None:
        subject, predicate, rest = (), (), tokens
    else:
        end = start + 1
        while end < len(tokens) and is_verb(tokens[end]):
            end += 1
        subject, predicate, rest = tuple(tokens[:start]), tuple(tokens[start:end]), tokens[end:]
    if tail:
        rest += tokenize(tail)
    return SpoTriple(subject or tuple(tokenize(owner)), predicate, tuple(rest))


def canonicalize_part(
    tokens: Iterable[str], lexicon: Lexicon = EMPTY_LEXICON
) -> frozenset[str]:
    """Canonical token set of one sentence part.

    Drops stopwords, stems the rest, folds synonym groups, and finally
    drops canonical forms that are themselves stopwords so that the result
    is a fixed point of this function (:meth:`Lexicon.fold` per token).
    """
    out = frozenset(map(lexicon.fold, tokens))
    return out - {None} if None in out else out


class AttrProfile(NamedTuple):
    """One attribute as the scorer compares it: its canonical part sets.

    ``position`` is the row's index in its concept's reference order.  In
    annotated mode no text is split: the parts are empty, ``has_verb`` true.
    """

    ref: AttrRef
    position: int
    subject: frozenset[str]
    predicate: frozenset[str]
    object_part: frozenset[str]
    has_verb: bool


_UNSPLIT = (frozenset(), frozenset(), frozenset(), True)  # parts of an annotated-mode row


class StatementScorer:
    """Scoring front-end bundling lexicon, annotations and mode.

    The scorer is built over the contexts it will map: its constructor
    splits and canonicalizes every concept of ``contexts`` once, outside
    annotated mode, and holds the rows under ``(context id, concept name)``,
    the first concept under a key being the one held.  :meth:`profile`
    returns the held rows of that concept or of one equal to it, and builds
    fresh rows for any other concept: one the scorer was not built over, or
    a twin (another concept under a key it holds).  :meth:`level` compares
    two rows with no parsing per pair; a row scores 3 against the row with
    its own reference.

    :meth:`cells` names the pairs of two concepts' rows worth scoring
    against a threshold, in (left reference, right reference) order.  One
    sort of a concept's attribute ids gives each row its ``position``, the
    index that puts the rows in reference order, and ``candidate_pairs``
    hands positions on to ``max_matching``.  Every held row has one bit,
    given in that order, so the low-to-high walk of a mask visits a
    concept's rows by reference, and the scorer keeps a dict from each held
    row's reference to its bit.  Outside annotated mode it also
    keeps, per part, a dict from canonical token to the bitmask of the rows
    holding it.  ORing the masks of one row's tokens per part gives, bit by
    bit, the held rows whose part overlaps it, and the three results add up
    to the heuristic level of each cell; annotated mode has no such masks,
    so every cell starts at 0.  Outside heuristic mode a table level
    replaces that level, so the sweep reads the row's table levels once:
    the cells with a level drop their heuristic bits, and those whose level
    reaches the threshold set theirs.  One sweep per row thus picks out the
    cells that can reach a threshold, and each concept pair reads its slice.
    The sweep of a left concept at a threshold is kept as one record: the
    concept object swept, its rows in reference order, each row's hit mask
    and the union of those masks.  A pair whose left concept is that very
    object reads its rows from the record, so only the right concept is
    looked up.  A pair with a concept that is not held names every cell.
    """

    def __init__(
        self,
        lexicon: Lexicon = EMPTY_LEXICON,
        annotations: Optional["AnnotationTable"] = None,
        mode: str = "heuristic",
        contexts: Iterable[SemanticContext] = (),
    ):
        if mode not in MODES:
            raise ValueError(f"unknown scoring mode {mode!r}")
        if mode == "annotated" and annotations is None:
            raise ValueError("annotated mode requires an annotation table")
        self.lexicon = lexicon
        self.mode = mode
        self._table = None if mode == "heuristic" else annotations
        # (context id, name) -> (concept, its rows, the same rows in reference order,
        # the bit of the first of those)
        self._held: dict[tuple[str, str], tuple[Concept, tuple[AttrProfile, ...],
                                                 tuple[AttrProfile, ...], int]] = {}
        self._masks: tuple[dict[str, int], ...] = ({}, {}, {})
        self._bits: dict[AttrRef, int] = {}  # reference of a held row -> its bit, as a mask
        # (context id, name, threshold) -> (the concept swept, its rows in reference
        # order, each row's hit mask, the union of those masks)
        self._sweeps: dict[tuple[str, str, int],
                           tuple[Concept, tuple[AttrProfile, ...], tuple[int, ...], int]] = {}
        size = 0
        for context in contexts:
            for concept in context.concepts:
                key = (context.id, concept.name)
                if key not in self._held:
                    rows, ordered = self._rows(context.id, concept)
                    self._held[key] = (concept, rows, ordered, size)
                    size += len(rows)
        masks = () if mode == "annotated" else self._masks  # annotated mode has no heuristic levels
        for _, _, ordered, offset in self._held.values():
            for index, row in enumerate(ordered, offset):
                bit = self._bits[row.ref] = 1 << index
                for part, by_token in zip((row.subject, row.predicate, row.object_part), masks):
                    for token in part:
                        by_token[token] = by_token.get(token, 0) | bit

    def _rows(self, context: str, concept: Concept) -> tuple[tuple[AttrProfile, ...], tuple[AttrProfile, ...]]:
        """The rows of ``concept`` in attribute order and in reference order, which gives ``position``."""
        attrs = concept.attributes
        order = sorted(range(len(attrs)), key=lambda k: attrs[k].id)  # attribute indices by reference
        rows: list = [None] * len(attrs)
        for position, k in enumerate(order):
            attr = attrs[k]
            if self.mode == "annotated":
                parts = _UNSPLIT
            else:
                spo = extract_spo(attr, concept.name, self.lexicon)
                parts = (*(canonicalize_part(part, self.lexicon)
                           for part in (spo.subject, spo.predicate, spo.object_part)), spo.has_verb)
            rows[k] = AttrProfile(AttrRef(context, concept.name, attr.id), position, *parts)
        return tuple(rows), tuple(rows[k] for k in order)

    def _holding(self, context: str, concept: Concept):
        """The ``_held`` entry of ``concept`` or of one equal to it, else ``None``."""
        held = self._held.get((context, concept.name))
        return held if held is not None and held[0] == concept else None

    def profile(self, context: str, concept: Concept) -> tuple[AttrProfile, ...]:
        """One row per attribute of ``concept``, in attribute order."""
        held = self._holding(context, concept)
        return held[1] if held is not None else self._rows(context, concept)[0]

    def _by_ref(self, context: str, concept: Concept, held) -> Sequence[AttrProfile]:
        """The rows of ``concept`` in reference order; ``held`` is what :meth:`_holding` gave."""
        return held[2] if held is not None else self._rows(context, concept)[1]

    def cells(
        self, context1: str, c1: Concept, context2: str, c2: Concept, threshold: int
    ) -> Iterable[tuple[AttrProfile, AttrProfile]]:
        """The row pairs of ``c1`` x ``c2`` that can reach ``threshold`` (1 to 3).

        The pairs that share a reference, that have a table level of at
        least ``threshold``, or, outside annotated mode, that have no table
        level and share at least ``threshold`` parts; a pair left out
        scores below ``threshold``.  A concept the scorer does not hold
        gets every pair.  Every path yields its pairs in (left reference,
        right reference) order.

        The sweep record of ``(context1, c1.name, threshold)`` holds the
        concept object it was swept for.  When ``c1`` is that object, its
        rows come from the record and only ``c2`` goes through
        :meth:`_holding`.  Any other ``c1``, an equal copy or a twin too,
        is looked up as well, and a held one reuses the record's masks.
        """
        key = (context1, c1.name, threshold)
        swept = self._sweeps.get(key)
        held2 = self._holding(context2, c2)
        if swept is None or swept[0] is not c1:  # only the very object swept skips the lookup
            held1 = self._holding(context1, c1)
            if held1 is None or held2 is None:
                return product(self._by_ref(context1, c1, held1), self._by_ref(context2, c2, held2))
        elif held2 is None:
            return product(swept[1], self._by_ref(context2, c2, held2))
        if swept is None:
            _, _, rows1, offset1 = held1
            subjects, predicates, objects = self._masks
            table, bits = self._table, self._bits
            found = []
            union = 0
            for bit, a in enumerate(rows1, offset1):
                m0 = m1 = m2 = 0
                for token in a.subject:
                    m0 |= subjects.get(token, 0)
                for token in a.predicate:
                    m1 |= predicates.get(token, 0)
                for token in a.object_part:
                    m2 |= objects.get(token, 0)
                if threshold == 1:
                    mask = m0 | m1 | m2
                elif threshold == 2:
                    mask = (m0 & m1) | (m0 & m2) | (m1 & m2)
                else:
                    mask = m0 & m1 & m2
                if table is not None:  # a table level replaces the heuristic one of its cell
                    known = lifted = 0
                    for ref, level in table.row(a.ref).items():
                        cell = bits.get(ref, 0)
                        known |= cell
                        if level >= threshold:
                            lifted |= cell
                    mask = (mask & ~known) | lifted
                mask |= 1 << bit  # the row with a's own reference is a
                found.append(mask)
                union |= mask
            swept = self._sweeps[key] = (c1, rows1, tuple(found), union)
        _, rows1, found, union = swept
        _, _, rows2, offset2 = held2
        width = (1 << len(rows2)) - 1
        if not (union >> offset2) & width:  # no row of c1 hits c2
            return []
        pairs = []
        for a, hits in zip(rows1, found):
            hits = (hits >> offset2) & width
            while hits:
                low = hits & -hits
                hits ^= low
                pairs.append((a, rows2[low.bit_length() - 1]))
        return pairs

    def level(self, a: AttrProfile, b: AttrProfile) -> int:
        """Level of one attribute pair; symmetric in ``a`` and ``b``.

        A row scores 3 against the row with its own reference.  Otherwise
        the table, outside heuristic mode, answers first; in annotated mode
        a pair the table lacks scores 0, and elsewhere each part whose
        canonical sets overlap scores one point.
        """
        if a.ref == b.ref:
            return 3
        if self._table is not None:
            level = self._table.level_for(a.ref, b.ref)
            if level is not None:
                return level
            if self.mode == "annotated":
                return 0
        return (
            (not a.subject.isdisjoint(b.subject))
            + (not a.predicate.isdisjoint(b.predicate))
            + (not a.object_part.isdisjoint(b.object_part))
        )
