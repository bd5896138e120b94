"""Typological scoring of attribute statements on a 0-3 scale.

Every attribute statement is treated as a simple sentence with a subject,
a predicate and an object part.  Two statements are compared part by part
and score one point per similar part, so levels range from 0 (nothing in
common) to 3 (all three parts similar).  A part is similar when the
canonical token sets of the two sides overlap; canonicalization removes
stopwords, strips inflection suffixes and folds synonym groups.  A
statement with no verb gets an empty predicate, which overlaps nothing.

A :class:`StatementScorer` scores in one of three modes: ``heuristic``
(computed from the text alone), ``annotated`` (levels read from a curated
table, a pair the table lacks reading as 0) and ``hybrid`` (annotation
wins when present, heuristic otherwise).
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .concepts import AttrRef, AttributeStatement, Checked, Concept
from .errors import UnknownReferenceError

if TYPE_CHECKING:
    from .corpus import AnnotationTable

MODES = ("heuristic", "annotated", "hybrid")

LEVEL_RANGE = (0, 1, 2, 3)
THRESHOLDS = (1, 2, 3)

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
    """Lowercase, drop apostrophes, keep the runs of ASCII letters and digits ``[a-z0-9]``."""
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


_BUILTIN_VERB_STEMS = frozenset(map(stem, BUILTIN_VERBS))


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)`` on its first lookup and keeps it."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _fold(stopwords: frozenset[str], synonym_map: Mapping[str, str], token: str) -> Optional[str]:
    """Canonical form of one raw token, or ``None`` when it is dropped.

    A stopword is dropped; any other token is stemmed and folded into its
    synonym group, and dropped when that canonical form is a stopword, so
    folding a kept form gives it back.
    """
    if token in stopwords:
        return None
    folded = stem(token)
    folded = synonym_map.get(folded, folded)
    return None if folded in stopwords else folded


def _is_verb(verb_stems: frozenset[str], token: str) -> bool:
    """A token is a verb when its stem is the stem of a listed verb."""
    return stem(token) in verb_stems


class Lexicon(Checked, namedtuple("Lexicon", "synonym_groups extra_stopwords extra_verbs")):
    """Synonym groups plus stopword and verb extensions.

    Each synonym group canonicalizes to its first member.  Lookup keys are
    the stemmed forms of all members, so inflected corpus tokens reach
    their group without every inflection being listed: ``synonym_map``
    maps each stemmed member form to its group's first member.
    ``stopwords`` holds the built-in and the extra stopwords.  Every
    stopword, verb and group member must pass :func:`check_one_token`.

    Each instance memoizes, per raw token, its :func:`_fold` in ``_folds``
    and its :func:`_is_verb` answer in ``_verdicts``: two :class:`Memo`
    dicts of its own, so no two lexicons share one, that fill themselves on
    a miss.  Their compute functions hold the word sets, not the instance,
    so no reference cycle forms.  The memos are never pruned: the shared
    :data:`EMPTY_LEXICON`'s memos grow with the vocabulary a process sees.
    The word sets and memos are set at construction in the instance dict,
    which equality and hashing ignore; assigning an attribute still raises
    ``AttributeError``.
    """

    def __new__(cls, synonym_groups: Iterable[Sequence[str]] = (),
                extra_stopwords: Iterable[str] = frozenset(), extra_verbs: Iterable[str] = frozenset()):
        self = tuple.__new__(cls, (tuple(tuple(g) for g in synonym_groups),
                                   frozenset(extra_stopwords), frozenset(extra_verbs)))
        for what, tokens in (("stopword", self.extra_stopwords), ("verb", self.extra_verbs)):
            for token in sorted(tokens):
                check_one_token(token, what)
        synonym_map: dict[str, str] = {}
        for group in self.synonym_groups:
            add_synonym_group(synonym_map, group)
        stopwords = BUILTIN_STOPWORDS | self.extra_stopwords
        verb_stems = _BUILTIN_VERB_STEMS.union(map(stem, self.extra_verbs))
        vars(self).update(synonym_map=synonym_map, stopwords=stopwords,
                          _folds=Memo(partial(_fold, stopwords, synonym_map)),
                          _verdicts=Memo(partial(_is_verb, verb_stems)))
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to attribute {name!r} of an immutable Lexicon")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete attribute {name!r} of an immutable Lexicon")


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
    verbs = list(map(lexicon._verdicts.__getitem__, tokens))
    if True in verbs:
        start = verbs.index(True)
        verbs.append(False)  # ends a run that ends the sentence
        end = verbs.index(False, start)
        subject, predicate, rest = tuple(tokens[:start]), tuple(tokens[start:end]), tokens[end:]
    else:
        subject, predicate, rest = (), (), tokens
    if tail:
        rest += tokenize(tail)
    return tuple.__new__(SpoTriple, (subject or tuple(tokenize(owner)), predicate, tuple(rest)))


def canonicalize_part(
    tokens: Iterable[str], lexicon: Lexicon = EMPTY_LEXICON
) -> frozenset[str]:
    """Canonical token set of one sentence part: each token's ``lexicon._folds`` entry, less the dropped ones.

    The result is a fixed point of this function.
    """
    out = frozenset(map(lexicon._folds.__getitem__, tokens))
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
NO_LEVELS: Mapping = MappingProxyType({})  # the table row view of a reference with no levels


class StatementScorer:
    """Scoring front-end bundling lexicon, annotations and mode.

    The scorer holds each concept the first time it is handed one
    (:meth:`_hold`).  :meth:`profile` gives a concept's rows, :meth:`cells`
    the cells of a concept pair whose level reaches a threshold, and
    :meth:`level` scores one cell.
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
        # (context id, name) -> (concept, its rows, the same rows in reference order,
        # the bit of the first of those)
        self._held: dict[tuple[str, str], tuple[Concept, tuple[AttrProfile, ...],
                                                 tuple[AttrProfile, ...], int]] = {}
        self._masks: tuple[dict[str, int], ...] = ({}, {}, {})  # per part: token -> mask of the rows holding it
        self._bits: dict[AttrRef, int] = {}  # reference of a held row -> its bit, as a mask
        # (context id, name, threshold) -> the sweep record of :meth:`cells`
        self._sweeps: dict[tuple[str, str, int],
                           tuple[Concept, tuple[tuple[AttrProfile, int, Callable[[AttrRef], Optional[int]]], ...],
                                 int]] = {}

    def _rows(self, context: str, concept: Concept) -> tuple[tuple[AttrProfile, ...], tuple[AttrProfile, ...]]:
        """The rows of ``concept`` in attribute order and in reference order, which gives ``position``."""
        attrs, name, lexicon = concept.attributes, concept.name, self.lexicon
        ids = [attr.id for attr in attrs]
        order = sorted(range(len(attrs)), key=ids.__getitem__)  # attribute indices by reference
        rows: list = [None] * len(attrs)
        new = tuple.__new__
        for position, k in enumerate(order):
            if self.mode == "annotated":
                parts = _UNSPLIT
            else:
                subject, predicate, object_part = extract_spo(attrs[k], name, lexicon)
                parts = (canonicalize_part(subject, lexicon), canonicalize_part(predicate, lexicon),
                         canonicalize_part(object_part, lexicon), bool(predicate))
            rows[k] = new(AttrProfile, (new(AttrRef, (context, name, ids[k])), position) + parts)
        return tuple(rows), tuple(map(rows.__getitem__, order))

    def _hold(self, context: str, concept: Concept):
        """The ``_held`` entry of ``concept``, which is held the first time it is seen.

        A reference names one statement, so a concept other than the one
        held under its ``(context, name)`` raises
        :class:`~essencemap.errors.UnknownReferenceError`; an equal copy
        gets the held entry.  Holding splits and canonicalizes the
        concept's statements once (:meth:`_rows`) and gives its rows the
        next free bits in reference order, so the low-to-high walk of a
        mask visits a concept's rows by reference.  It ORs each row's
        canonical tokens into the part masks (annotated rows have none)
        and clears the sweep records of :meth:`cells`, whose masks lack
        the new bits.
        """
        held = self._held.get((context, concept.name))
        if held is not None:
            if held[0] is concept or held[0] == concept:
                return held
            raise UnknownReferenceError(f"two different concepts are named {context}/{concept.name}")
        rows, ordered = self._rows(context, concept)
        offset = len(self._bits)
        for index, row in enumerate(ordered, offset):
            bit = self._bits[row.ref] = 1 << index
            for part, by_token in zip((row.subject, row.predicate, row.object_part), self._masks):
                for token in part:
                    by_token[token] = by_token.get(token, 0) | bit
        self._sweeps.clear()
        held = self._held[context, concept.name] = (concept, rows, ordered, offset)
        return held

    def profile(self, context: str, concept: Concept) -> tuple[AttrProfile, ...]:
        """One row per attribute of ``concept``, in attribute order; the concept is held (:meth:`_hold`)."""
        return self._hold(context, concept)[1]

    def cells(
        self, context1: str, c1: Concept, context2: str, c2: Concept, threshold: int
    ) -> Iterable[tuple[AttrProfile, AttrProfile, Optional[int]]]:
        """The row pairs of ``c1`` x ``c2`` whose level reaches ``threshold`` (1 to 3), and no others.

        Each comes as ``(a, b, level)``, in (left reference, right
        reference) order, after both concepts are held (:meth:`_hold`).
        ``level`` is the table level the sweep read, or ``None`` for a
        heuristic cell or a row against its own reference, which
        :meth:`level` then scores.

        The sweep of one left row ORs the part masks of its tokens: per
        part, the held rows whose part overlaps it, so the three results
        add up to the heuristic level of each cell (0 in annotated mode).
        Outside heuristic mode a table level replaces that level: the sweep
        reads the row's :meth:`~essencemap.corpus.AnnotationTable.row` view
        once, the cells whose level is below the threshold drop their
        heuristic bits, and those whose level reaches it set theirs.  In
        heuristic mode every row reads one shared empty view.  The sweep of
        ``c1`` at ``threshold`` is kept as one record: the concept object
        swept, each of its rows in reference order with its hit mask and
        the ``get`` of its view, which is not copied, and the union of the
        masks.  Each pair reads ``c2``'s slice of the masks, and one whose
        left concept is that very object skips its lookup.
        """
        if threshold not in THRESHOLDS:
            raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")
        held2 = self._held.get((context2, c2.name))
        if held2 is None or held2[0] is not c2:
            held2 = self._hold(context2, c2)  # before the record is read: holding clears it
        _, _, rows2, offset2 = held2
        key = (context1, c1.name, threshold)
        swept = self._sweeps.get(key)
        if swept is None or swept[0] is not c1:
            _, _, rows1, offset1 = self._hold(context1, c1)
        if swept is None:
            subjects, predicates, objects = self._masks
            table, bits = self._table, self._bits
            hit_rows = []
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
                view = NO_LEVELS if table is None else table.row(a.ref)
                lifted = below = 0
                for ref, level in view.items():
                    if level >= threshold:
                        lifted |= bits.get(ref, 0)
                    else:
                        below |= bits.get(ref, 0)
                mask = (mask & ~below) | lifted | (1 << bit)  # the row with a's own reference is a
                hit_rows.append((a, mask, view.get))
                union |= mask
            swept = self._sweeps[key] = (c1, tuple(hit_rows), union)
        _, hit_rows, union = swept
        width = (1 << len(rows2)) - 1
        if not (union >> offset2) & width:  # no row of c1 hits c2
            return []
        pairs = []
        for a, hits, get in hit_rows:
            hits = (hits >> offset2) & width
            while hits:
                low = hits & -hits
                hits ^= low
                b = rows2[low.bit_length() - 1]
                pairs.append((a, b, get(b.ref)))
        return pairs

    def level(self, a: AttrProfile, b: AttrProfile) -> int:
        """Level of one attribute pair; symmetric in ``a`` and ``b``.

        A row scores 3 against the row with its own reference.  Otherwise
        the table, outside heuristic mode, answers first, and then each part
        whose canonical sets overlap scores one point; annotated rows have
        no parts, so a pair the table lacks scores 0 there.
        """
        if a.ref == b.ref:
            return 3
        if self._table is not None:
            level = self._table.level_for(a.ref, b.ref)
            if level is not None:
                return level
        return (
            (not a.subject.isdisjoint(b.subject))
            + (not a.predicate.isdisjoint(b.predicate))
            + (not a.object_part.isdisjoint(b.object_part))
        )
