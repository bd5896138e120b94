"""Contracts of the value types that every set, dict and sort relies on.

``AttrRef`` and ``CandidatePair`` must compare, order and hash as their
field tuples, so reports do not depend on how the types are implemented.
"""

from hypothesis import assume, example, given
from hypothesis import strategies as st

from essencemap import AttrRef, AttributeStatement, CandidatePair, Concept, SemanticContext

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
