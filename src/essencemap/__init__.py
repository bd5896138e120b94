"""Deterministic mapping of practice concepts onto Essence kernel concepts.

The package models knowledge domains as semantic contexts of concepts,
scores attribute statements pair by pair on a 0-3 linguistic scale,
realizes the shared-attribute set as a bijective matching, and reports
percentage similarity plus a relational classification for every concept
pair.  See the ``cli`` module for the command-line front end and
``corpus`` for the bundled case-study data.
"""

__version__ = "0.1.0"

from .concepts import (
    AttrRef,
    AttributeStatement,
    Concept,
    ObjectInstance,
    SemanticContext,
    equivalent,
    independent,
    related,
    similarity,
    sub_concept,
    super_concept,
)
from .corpus import (
    AnnotationTable,
    bundled_path,
    load_annotations,
    load_concepts,
    load_lexicon,
    parse_annotations,
    parse_concepts,
    parse_lexicon,
    serialize_concepts,
)
from .errors import (
    CorpusSyntaxError,
    EmptyContextError,
    EssenceMapError,
    NoAttributesError,
    UnknownReferenceError,
)
from .lta import (
    Lexicon,
    SpoTriple,
    StatementScorer,
    canonicalize_part,
    extract_spo,
)
from .mapper import BestMatch, MapConfig, MappingReport, MappingResult, map_contexts, map_pair
from .matching import CandidatePair, MatchSet, candidate_pairs, max_matching

__all__ = [
    "AnnotationTable",
    "AttrRef",
    "AttributeStatement",
    "BestMatch",
    "CandidatePair",
    "Concept",
    "CorpusSyntaxError",
    "EmptyContextError",
    "EssenceMapError",
    "Lexicon",
    "MapConfig",
    "MappingReport",
    "MappingResult",
    "MatchSet",
    "NoAttributesError",
    "ObjectInstance",
    "SemanticContext",
    "SpoTriple",
    "StatementScorer",
    "UnknownReferenceError",
    "bundled_path",
    "candidate_pairs",
    "canonicalize_part",
    "equivalent",
    "extract_spo",
    "independent",
    "load_annotations",
    "load_concepts",
    "load_lexicon",
    "map_contexts",
    "map_pair",
    "max_matching",
    "parse_annotations",
    "parse_concepts",
    "parse_lexicon",
    "related",
    "serialize_concepts",
    "similarity",
    "sub_concept",
    "super_concept",
]
