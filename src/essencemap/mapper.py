"""Context-to-context mapping pipeline.

For every concept pair: score all attribute pairs, select the bijective
matching, compute the similarity percentage and classify the relationship
under a fixed precedence (equivalent, then sub-concept, then super-concept,
then related, then independent).  A report over two whole contexts carries
one result per concept pair plus, for each practice concept, its best
framework match: the highest similarity, ties going to the relation that
comes first in that precedence and then to the smaller name, so a concept
mapped against itself picks itself.  Everything is deterministic:
identical inputs and configuration produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .concepts import (
    Concept,
    SemanticContext,
    equivalent,
    related,
    similarity,
    sub_concept,
    super_concept,
)
from .corpus import AnnotationTable
from .errors import EmptyContextError, NoAttributesError
from .lta import EMPTY_LEXICON, Lexicon, StatementScorer
from .matching import DEFAULT_THRESHOLD, MatchSet, candidate_pairs, max_matching

RELATION_LABELS = ("equivalent", "sub-concept", "super-concept", "related", "independent")


@dataclass(frozen=True)
class MapConfig:
    """Shared knobs for a mapping run."""

    lexicon: Lexicon = EMPTY_LEXICON
    annotations: Optional[AnnotationTable] = None
    mode: str = "hybrid"
    threshold: int = DEFAULT_THRESHOLD

    def make_scorer(self) -> StatementScorer:
        return StatementScorer(self.lexicon, self.annotations, self.mode)


@dataclass(frozen=True)
class MappingResult:
    """Outcome for one ordered concept pair."""

    left: str
    right: str
    match_set: MatchSet
    similarity_pct: Fraction
    relation: str
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        if self.relation not in RELATION_LABELS:
            raise ValueError(f"unknown relation label {self.relation!r}")
        if (self.relation == "independent") != (self.similarity_pct == 0):
            raise ValueError("independent and zero similarity must coincide")
        if self.relation == "equivalent" and self.similarity_pct != 100:
            raise ValueError("equivalent results must sit at 100%")


@dataclass(frozen=True)
class BestMatch:
    """Highest-similarity framework concept for one practice concept."""

    practice: str
    framework: str
    similarity_pct: Fraction


@dataclass(frozen=True)
class MappingReport:
    practice_context: str
    framework_context: str
    mode: str
    threshold: int
    results: tuple[MappingResult, ...] = ()
    best_matches: tuple[BestMatch, ...] = field(default_factory=tuple)


def classify(c1: Concept, c2: Concept, match: MatchSet) -> str:
    """Single headline label; the underlying predicates stay queryable."""
    if equivalent(c1, c2, match):
        return "equivalent"
    if sub_concept(c1, c2, match):
        return "sub-concept"
    if super_concept(c1, c2, match):
        return "super-concept"
    if related(c1, c2, match):
        return "related"
    return "independent"


def _map_pair(
    context1: str,
    c1: Concept,
    context2: str,
    c2: Concept,
    config: MapConfig,
    scorer: StatementScorer,
) -> MappingResult:
    if not c1.attributes:
        raise NoAttributesError(f"concept {context1}/{c1.name} has no attributes")
    if not c2.attributes:
        raise NoAttributesError(f"concept {context2}/{c2.name} has no attributes")
    candidates = candidate_pairs(context1, c1, context2, c2, scorer, config.threshold)
    match = max_matching(candidates, len(c1.attributes), len(c2.attributes))
    pct = similarity(c1, c2, match)
    diagnostics = ()
    if scorer.mode != "annotated":
        rows = scorer.profile(context1, c1) + scorer.profile(context2, c2)
        verbless = sorted({str(row.ref) for row in rows if not row.has_verb})
        diagnostics = tuple(
            f"no verb found in {ref}; predicate similarity disabled" for ref in verbless
        )
    return MappingResult(
        left=f"{context1}/{c1.name}",
        right=f"{context2}/{c2.name}",
        match_set=match,
        similarity_pct=pct,
        relation=classify(c1, c2, match),
        diagnostics=diagnostics,
    )


def map_pair(
    context1: str, c1: Concept, context2: str, c2: Concept, config: MapConfig
) -> MappingResult:
    """Score, match and classify a single concept pair."""
    return _map_pair(context1, c1, context2, c2, config, config.make_scorer())


def map_contexts(
    practice: SemanticContext, framework: SemanticContext, config: MapConfig
) -> MappingReport:
    """Map every practice concept against every framework concept."""
    if not practice.concepts:
        raise EmptyContextError(f"context {practice.id!r} has no concepts")
    if not framework.concepts:
        raise EmptyContextError(f"context {framework.id!r} has no concepts")
    scorer = config.make_scorer()
    results = []
    best_matches = []
    for p_concept in sorted(practice.concepts, key=lambda c: c.name):
        row = [
            _map_pair(practice.id, p_concept, framework.id, f_concept, config, scorer)
            for f_concept in sorted(framework.concepts, key=lambda c: c.name)
        ]
        results.extend(row)
        top = min(
            row,
            key=lambda r: (-r.similarity_pct, RELATION_LABELS.index(r.relation), r.right),
        )
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
    )
