"""Context-to-context mapping pipeline.

For every concept pair, ``candidate_pairs`` keeps the attribute pairs at
or above the threshold, and one per-pair step selects the bijective
matching, computes the similarity percentage and classifies the
relationship by the first relation of :data:`RELATIONS` whose predicate
holds.  :func:`map_pair` and the ``score`` command reach it through
:func:`pair_result`; :func:`map_contexts` derives each concept's name and
size once and calls it directly.  Identical inputs and configuration
give identical reports.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .concepts import (
    Checked,
    Concept,
    SemanticContext,
    equivalent,
    independent,
    related,
    similarity,
    sub_concept,
    super_concept,
)
from .corpus import AnnotationTable
from .errors import EmptyContextError, NoAttributesError
from .lta import EMPTY_LEXICON, Lexicon, StatementScorer
from .matching import DEFAULT_THRESHOLD, CandidatePair, MatchSet, candidate_pairs, max_matching

#: Each relation with its predicate, in precedence order; ``related`` and
#: ``independent`` cover every pair, so some predicate always holds.
RELATIONS = (
    ("equivalent", equivalent),
    ("sub-concept", sub_concept),
    ("super-concept", super_concept),
    ("related", related),
    ("independent", independent),
)
RELATION_LABELS = tuple(label for label, _ in RELATIONS)
_RANK = {label: rank for rank, label in enumerate(RELATION_LABELS)}


class MapConfig(NamedTuple):
    """Shared knobs for a mapping run."""

    lexicon: Lexicon = EMPTY_LEXICON
    annotations: Optional[AnnotationTable] = None
    mode: str = "hybrid"
    threshold: int = DEFAULT_THRESHOLD

    def make_scorer(self) -> StatementScorer:
        return StatementScorer(self.lexicon, self.annotations, self.mode)


class MappingResult(Checked, namedtuple("MappingResult", "left right match_set similarity_pct relation")):
    """Outcome for one ordered concept pair."""

    __slots__ = ()

    def __new__(cls, left: str, right: str, match_set: MatchSet,
                similarity_pct: Fraction, relation: str):
        if relation not in RELATION_LABELS:
            raise ValueError(f"unknown relation label {relation!r}")
        if (relation == "independent") != (not similarity_pct):
            raise ValueError("independent and zero similarity must coincide")
        if relation == "equivalent" and similarity_pct != 100:
            raise ValueError("equivalent results must sit at 100%")
        return tuple.__new__(cls, (left, right, match_set, similarity_pct, relation))


class BestMatch(NamedTuple):
    """Highest-similarity framework concept for one practice concept."""

    practice: str
    framework: str
    similarity_pct: Fraction


class MappingReport(NamedTuple):
    practice_context: str
    framework_context: str
    mode: str
    threshold: int
    results: tuple[MappingResult, ...] = ()
    best_matches: tuple[BestMatch, ...] = ()
    diagnostics: tuple[str, ...] = ()


def classify(c1: Concept, c2: Concept, match: MatchSet) -> str:
    """The first label of :data:`RELATIONS` whose predicate holds."""
    for label, holds in RELATIONS:
        if holds(c1, c2, match):
            return label


def pair_result(context1: str, c1: Concept, context2: str, c2: Concept,
                candidates: list[CandidatePair]) -> MappingResult:
    """Match, measure and classify one concept pair from its ``candidate_pairs``."""
    return _pair_result(_qualified(context1, c1.name), c1, len(c1.attributes),
                        _qualified(context2, c2.name), c2, len(c2.attributes), candidates)


def _pair_result(left: str, c1: Concept, n1: int, right: str, c2: Concept, n2: int,
                 candidates: list[CandidatePair]) -> MappingResult:
    """:func:`pair_result` given each concept's qualified name and attribute count."""
    if not n1:
        raise NoAttributesError(f"concept {left} has no attributes")
    if not n2:
        raise NoAttributesError(f"concept {right} has no attributes")
    match = max_matching(candidates, n1, n2)
    return MappingResult(left, right, match, similarity(c1, c2, match), classify(c1, c2, match))


@lru_cache(maxsize=None)
def _qualified(context: str, name: str) -> str:
    """``context/name``, one shared string per argument pair.

    The cache is never pruned; it holds one entry per distinct concept a
    process maps, as ``concepts._percentage`` holds one per similarity.
    """
    return f"{context}/{name}"


def map_pair(context1: str, c1: Concept, context2: str, c2: Concept, config: MapConfig) -> MappingResult:
    """Score, match and classify one concept pair: ``candidate_pairs``, then :func:`pair_result`.

    It scores with ``config.make_scorer()``, which holds each concept on
    first sight and refuses two different concepts under one reference.
    """
    candidates = candidate_pairs(context1, c1, context2, c2, config.make_scorer(), config.threshold)
    return pair_result(context1, c1, context2, c2, candidates)


def map_contexts(
    practice: SemanticContext, framework: SemanticContext, config: MapConfig
) -> MappingReport:
    """Map every practice concept against every framework concept with one ``config.make_scorer()``.

    The report carries one result per concept pair and, per practice
    concept, its best framework match: the highest similarity, ties going
    to the relation that comes first in :data:`RELATIONS` and then to the
    smaller name.  So a concept mapped against its own context picks
    itself unless a concept with a smaller name is equivalent to it too, as
    one with the same attribute texts and objects is.  It also carries a
    sorted note for each statement of either context in which no verb was
    found (none in annotated mode, whose rows are never split).
    """
    if not practice.concepts:
        raise EmptyContextError(f"context {practice.id!r} has no concepts")
    if not framework.concepts:
        raise EmptyContextError(f"context {framework.id!r} has no concepts")
    scorer = config.make_scorer()
    verbless = set()
    # This pass holds every concept before the first sweep, so no later hold clears a sweep record.
    for context in (practice, framework):
        for concept in context.concepts:
            verbless.update(str(row.ref) for row in scorer.profile(context.id, concept) if not row.has_verb)
    ordered = [sorted(context.concepts, key=lambda c: c.name) for context in (practice, framework)]
    p_id, f_id, threshold = practice.id, framework.id, config.threshold
    rights = [(c, _qualified(f_id, c.name), len(c.attributes)) for c in ordered[1]]
    results = []
    best_matches = []
    for p_concept in ordered[0]:
        left, n1 = _qualified(p_id, p_concept.name), len(p_concept.attributes)
        top = None
        for f_concept, right, n2 in rights:
            result = _pair_result(left, p_concept, n1, right, f_concept, n2,
                                  candidate_pairs(p_id, p_concept, f_id, f_concept, scorer, threshold))
            results.append(result)
            # Only a strictly better result replaces ``top``, and the row is in
            # name order, so a tie goes to the earlier relation, then the smaller name.
            # Results holding one cached ``Fraction`` are equal; otherwise the cross
            # products of the integers kept for ``top`` decide, exactly.
            new = result.similarity_pct
            if top is None:
                gain = 1
            elif new is old:
                gain = 0
            else:
                n, d = new.as_integer_ratio()
                gain = n * d_old - n_old * d
            if gain > 0 or not gain and _RANK[result.relation] < _RANK[top.relation]:
                top, old = result, new
                n_old, d_old = new.as_integer_ratio()
        best_matches.append(
            BestMatch(
                practice=p_concept.name,
                framework=top.right.partition("/")[2],
                similarity_pct=top.similarity_pct,
            )
        )
    return MappingReport(
        practice_context=practice.id,
        framework_context=framework.id,
        mode=config.mode,
        threshold=config.threshold,
        results=tuple(results),
        best_matches=tuple(best_matches),
        diagnostics=tuple(
            f"no verb found in {ref}; predicate similarity disabled" for ref in sorted(verbless)
        ),
    )
