"""Contracts of the value types that every set, dict and sort relies on.

``AttrRef`` and ``CandidatePair`` must compare, order and hash as their
field tuples, so reports do not depend on how the types are implemented.
Every value type is immutable, and a ``_replace`` copy passes through the
same checks as the constructor.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from essencemap import (
    AttrRef,
    AttributeStatement,
    BestMatch,
    CandidatePair,
    Concept,
    Lexicon,
    MapConfig,
    MappingReport,
    MappingResult,
    MatchSet,
    ObjectInstance,
    SemanticContext,
    SpoTriple,
)

# Characters on the edge of a rule: whitespace, and the reference separators.
_values = st.text(st.one_of(st.sampled_from("aZ1./:#- \t"), st.characters()), min_size=1, max_size=3)
_attr_ids = st.from_regex(r"[a-z][a-z0-9]?", fullmatch=True)


@st.composite
def accepted_refs(draw):
    """References whose context, concept and attribute the model accepts."""
    try:
        concept = Concept(draw(_values), (AttributeStatement(draw(_attr_ids), "text"),))
        context = SemanticContext(draw(_values), (concept,))
    except ValueError:
        assume(False)
    return AttrRef(context.id, concept.name, concept.attributes[0].id)


def _fields(ref):
    return (ref.context, ref.concept, ref.attr)


@given(accepted_refs())
@example(AttrRef("EF", "Req.v2", "a1"))
@example(AttrRef("EF", "Req/Sub", "a1"))
@example(AttrRef("EF", "a.b/c.d", "a1"))
def test_ref_parses_back_from_its_text(ref):
    assert AttrRef.parse(str(ref)) == ref


@given(st.lists(accepted_refs(), max_size=8))
def test_refs_order_and_hash_as_field_tuples(refs):
    assert sorted(refs) == sorted(refs, key=_fields)
    assert [hash(ref) for ref in refs] == [hash(_fields(ref)) for ref in refs]


@given(st.lists(accepted_refs(), min_size=1, max_size=4).flatmap(
    lambda refs: st.lists(st.tuples(st.sampled_from(refs), st.sampled_from(refs), st.integers(0, 3)),
                          max_size=8)))
def test_pairs_sort_by_left_right_level(cells):
    # pairs drawn from a few refs, so equal lefts and rights are common
    pairs = [CandidatePair(*cell) for cell in cells]
    assert sorted(pairs) == sorted(pairs, key=lambda p: (_fields(p.left), _fields(p.right), p.level))


_NO_MATCH = MatchSet((), 1, 1)
_ONE_PAIR = CandidatePair(AttrRef("X", "A", "a1"), AttrRef("Y", "B", "b1"), 2)

# A valid value of each checked type, a change its constructor rejects, and the message.
_CHECKED = [
    (AttributeStatement("a1", "t"), {"id": "1a"}, "attribute id must match [a-z][a-z0-9]*, got '1a'"),
    (AttributeStatement("a1", "t"), {"text": "two\nlines"}, "text of attribute 'a1' must be a single line"),
    (ObjectInstance("o1", "t"), {"id": "o:1"}, "object id must be a single token with no ':', got 'o:1'"),
    (Concept("A"), {"name": "A B"}, "concept name must be a single token with no whitespace, got 'A B'"),
    (Concept("A"), {"attributes": (AttributeStatement("a1", "t"),) * 2}, "duplicate attribute id 'a1' in concept 'A'"),
    (SemanticContext("X"), {"id": "X/Y"}, "context id must be non-empty with no whitespace or '/', got 'X/Y'"),
    (SemanticContext("X"), {"concepts": (Concept("A"), Concept("A"))}, "duplicate concept name 'A' in context 'X'"),
    (Lexicon(), {"extra_verbs": {"a b"}}, "verb 'a b' can never match: text tokenizes to ['a', 'b']"),
    (Lexicon(), {"synonym_groups": (("go", "go"),)}, "duplicate token 'go' within synonym group ('go', 'go')"),
    (_NO_MATCH, {"left_size": -1}, "attribute set sizes must be non-negative"),
    (_NO_MATCH, {"right_size": True}, "attribute set sizes must be int, got 1 and True"),
    (MappingResult("X/A", "Y/B", _NO_MATCH, Fraction(0), "independent"), {"relation": "equivalent"},
     "independent and zero similarity must coincide"),
    (MatchSet([_ONE_PAIR], 1, 1), {"left_size": 0}, "match set exceeds the smaller attribute set"),
]

_VALUES = [
    AttrRef("X", "A", "a1"),
    _ONE_PAIR,
    AttributeStatement("a1", "t"),
    ObjectInstance("o1", "t"),
    Concept("A"),
    SemanticContext("X"),
    Lexicon(),
    SpoTriple(("a",), ("is",), ("b",)),
    _NO_MATCH,
    MapConfig(),
    MappingResult("X/A", "Y/B", _NO_MATCH, Fraction(0), "independent"),
    BestMatch("A", "B", Fraction(0)),
    MappingReport("X", "Y", "hybrid", 2),
]


@pytest.mark.parametrize("value, change, message", _CHECKED)
def test_replace_runs_the_constructor_checks(value, change, message):
    with pytest.raises(ValueError) as built:
        type(value)(**{**value._asdict(), **change})
    with pytest.raises(ValueError) as copied:
        value._replace(**change)
    assert str(built.value) == str(copied.value) == message


@pytest.mark.parametrize("value", _VALUES, ids=lambda value: type(value).__name__)
def test_replace_with_no_change_is_an_equal_copy(value):
    copy = value._replace()
    assert copy == value and hash(copy) == hash(value) and type(copy) is type(value) and copy is not value


@pytest.mark.parametrize("value", _VALUES, ids=lambda value: type(value).__name__)
def test_attributes_cannot_be_assigned_or_deleted(value):
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, value._fields[0])


def test_a_one_pair_match_set_keeps_its_pair():
    pair = CandidatePair(AttrRef("Y", "B", "b1"), AttrRef("X", "A", "a1"), 2)
    for pairs in ([pair], (pair,), iter([pair])):
        match = MatchSet(pairs, 1, 1)
        assert match.pairs == (pair,) and match.pairs[0] is pair


def test_lexicon_memo_is_private_and_not_assignable():
    lexicon = Lexicon((("plan", "roadmap"),))
    assert lexicon._folds["roadmaps"] == "plan"
    with pytest.raises(AttributeError):
        lexicon._folds = {}
    copy = lexicon._replace()
    assert copy == lexicon and hash(copy) == hash(lexicon) and copy is not lexicon
    assert copy._folds == {} and lexicon._folds == {"roadmaps": "plan"}


def test_values_compare_as_plain_tuples():
    statement = AttributeStatement(" a1 ", " some text ")
    assert statement == ("a1", "some text") and len(statement) == 2 and list(statement) == ["a1", "some text"]
    assert Concept("A") == ("A", (), ())


def test_concept_replace_has_no_relation_fields():
    assert Concept._fields == ("name", "attributes", "objects")
    with pytest.raises(ValueError, match="unexpected field names: \\['input_relations'\\]"):
        Concept("A")._replace(input_relations=("X/Y",))
