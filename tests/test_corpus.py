import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from essencemap import (
    AttrRef,
    AttributeStatement,
    Concept,
    CorpusSyntaxError,
    ObjectInstance,
    SemanticContext,
    UnknownReferenceError,
    bundled_path,
    load_concepts,
    parse_annotations,
    parse_concepts,
    parse_lexicon,
    serialize_concepts,
)
from essencemap.corpus import AnnotationTable

from conftest import make_random_context

GOOD = """\
context: EF

concept: Requirements
attr a1: are the definition of what needs to be achieved
obj o1: release backlog for milestone 1
rel-in: EF/Opportunity
rel-out: EF/SoftwareSystem
end
"""


class TestParseConcepts:
    def test_bundled_essence_file(self, essence_context):
        assert essence_context.id == "EF"
        concept = essence_context.concept("Requirements")
        assert [a.id for a in concept.attributes] == ["a1", "a2", "a3", "a4", "a5", "a6"]
        assert concept.attribute("a1").text == "are the definition of what needs to be achieved"
        assert concept.attribute("a3").text == (
            "mechanisms for managing /accepting requirements need to be established"
        )
        assert concept.attribute("a6").text == "continue to evolve as more is learned."

    def test_bundled_scrum_file(self, scrum_context):
        concept = scrum_context.concept("ProductBacklog")
        assert len(concept.attributes) == 6
        assert concept.attribute("b2").text == "is required to meet the product owner’s vision"

    def test_full_featured_block(self):
        context = parse_concepts(GOOD)
        concept = context.concept("Requirements")
        assert concept.objects[0].text == "release backlog for milestone 1"
        assert concept.input_relations == ("EF/Opportunity",)
        assert concept.output_relations == ("EF/SoftwareSystem",)

    def test_empty_input_needs_header(self):
        with pytest.raises(CorpusSyntaxError, match="missing context header"):
            parse_concepts("")

    def test_header_alone_gives_empty_context(self):
        context = parse_concepts("context: EF\n")
        assert context.id == "EF" and context.concepts == ()

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("concept: X\nend\n", 1, "missing context header"),
            ("context: EF\ncontext: EF2\n", 2, "duplicate 'context:'"),
            ("context: a b\n", 1, "no whitespace"),
            ("context: EF\nend\n", 2, "'end' without an open concept"),
            ("context: EF\nconcept: X\n", 2, "never closed"),
            ("context: EF\nconcept: X\nconcept: Y\n", 3, "still open"),
            ("context: EF\nconcept: X\nattr a1: x\nattr a1: y\nend\n", 4, "duplicate attribute id"),
            ("context: EF\nconcept: X\nattr A1: x\nend\n", 3, "a-z"),
            ("context: EF\nconcept: X\nattr a1:   \nend\n", 3, "empty text"),
            ("context: EF\nattr a1: x\n", 2, "outside a concept block"),
            ("context: EF\nconcept: X\nwhatever here\nend\n", 3, "unrecognized line"),
            ("context: EF\nconcept: X\nend\nconcept: X\nend\n", 4, "duplicate concept name"),
            ("context: EF\nconcept: X\nrel-in: NoSlash\nend\n", 3, "rel-in"),
            ("context: EF\nconcept: X\nrel-in: X/ B c\nend\n", 3, "no whitespace"),
            ("context: EF\nconcept: X\nrel-out: X/\nend\n", 3, "neither part empty"),
            ("context: EF\nconcept: X\nrel-out: /B\nend\n", 3, "neither part empty"),
            ("context: EF\nconcept: X\nobj o 1: text\nend\n", 3, "single token"),
            ("context: EF\nconcept: Product Backlog\nattr a1: t\nend\n", 2,
             "concept name must be a single token with no whitespace"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(CorpusSyntaxError, match=message) as info:
            parse_concepts(text, name="bad.concepts")
        assert info.value.line == line
        assert info.value.source == "bad.concepts"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\ncontext: EF\n  # indented comment\nconcept: X\nattr a1: t\nend\n"
        assert parse_concepts(text).concept("X").attribute("a1").text == "t"


# Characters on the edge of a rule: line breaks that ``str.splitlines`` splits
# on, the id/text separator ':', the reference separators '/' and '.'.
_texts = st.text(st.one_of(st.sampled_from("a1 :/.#\x85\u2028\x0b\n\t"), st.characters()),
                 min_size=1, max_size=6)
_ids = st.one_of(_texts, st.from_regex(r"[a-z][a-z0-9:]{0,2}", fullmatch=True))
_refs = st.one_of(_texts, st.from_regex(r"[a-z]{1,2}/[A-Za-z:./]{1,3}", fullmatch=True))


def _accepted(make, *values):
    """``make(*values)``, or None when the model rejects the values."""
    try:
        return make(*values)
    except ValueError:
        return None


@st.composite
def _accepted_contexts(draw):
    """Contexts built from edge-case values, keeping what the constructors accept."""
    concepts = {}
    for _ in range(draw(st.integers(0, 4))):
        attrs = {a.id: a for a in (_accepted(AttributeStatement, *draw(st.tuples(_ids, _texts)))
                                   for _ in range(draw(st.integers(0, 4)))) if a}
        objs = {o.id: o for o in (_accepted(ObjectInstance, *draw(st.tuples(_ids, _texts)))
                                  for _ in range(draw(st.integers(0, 3)))) if o}
        rels = [draw(st.lists(_refs, max_size=2)) for _ in range(2)]
        concept = _accepted(Concept, draw(_texts), attrs.values(), objs.values(), *rels)
        if concept is not None:
            concepts.setdefault(concept.name, concept)
    return _accepted(SemanticContext, draw(_ids), concepts.values()) or SemanticContext(
        "ctx", concepts.values()
    )


class TestSerializeConcepts:
    @given(context=_accepted_contexts())
    def test_roundtrip_any_accepted_context(self, context):
        assert parse_concepts(serialize_concepts(context)) == context

    def test_roundtrip_bundled(self, essence_context, scrum_context):
        for context in (essence_context, scrum_context):
            assert parse_concepts(serialize_concepts(context)) == context

    def test_roundtrip_omits_missing_obj_lines(self):
        context = parse_concepts("context: EF\nconcept: X\nattr a1: t\nend\n")
        text = serialize_concepts(context)
        assert "obj" not in text
        assert parse_concepts(text) == context

    def test_hash_inside_text_is_preserved(self):
        context = parse_concepts("context: EF\nconcept: X\nattr a1: uses #tag inline\nend\n")
        again = parse_concepts(serialize_concepts(context))
        assert again.concept("X").attribute("a1").text == "uses #tag inline"

    def test_roundtrip_relations(self):
        text = "context: EF\nconcept: X\nattr a1: t\nrel-in: EF/Opportunity\nrel-out: Scrum/Sprint\nend\n"
        context = parse_concepts(text)
        assert parse_concepts(serialize_concepts(context)) == context
        assert "rel-in: EF/Opportunity\n" in serialize_concepts(context)

    def test_malformed_relation_cannot_be_serialized(self):
        with pytest.raises(ValueError, match="ctx/Name"):
            Concept("X", (AttributeStatement("a1", "t"),), input_relations=("X/ B c",))

    def test_roundtrip_seeded_random_contexts(self):
        rng = random.Random(0xC0FFEE)
        for index in range(120):
            context = make_random_context(rng, index)
            assert parse_concepts(serialize_concepts(context)) == context


class TestParseLexicon:
    def test_bundled_lexicon(self, tuned_lexicon):
        assert ("are", "progress") in tuned_lexicon.synonym_groups
        assert tuned_lexicon.canonical("owner") == "requirement"

    def test_group_canonicalizes_to_first_member(self):
        lexicon = parse_lexicon("syn: manage, managing, determining\n")
        assert lexicon.canonical("determin") == "manage"

    def test_empty_file_keeps_builtins(self):
        lexicon = parse_lexicon("")
        assert lexicon.synonym_groups == ()
        assert "the" in lexicon.stopwords
        assert lexicon.is_verb("is")

    def test_token_in_two_groups_errors_on_second_line(self):
        with pytest.raises(CorpusSyntaxError, match="another synonym group") as info:
            parse_lexicon("syn: ax, bx\nsyn: bx, cx\n", name="l.lex")
        assert info.value.line == 2

    def test_unknown_key(self):
        with pytest.raises(CorpusSyntaxError, match="expected 'syn:'") as info:
            parse_lexicon("nouns: a, b\n")
        assert info.value.line == 1

    def test_empty_token_rejected(self):
        with pytest.raises(CorpusSyntaxError, match="empty token"):
            parse_lexicon("syn: a,,b\n")

    def test_stop_and_verb_lines(self):
        lexicon = parse_lexicon("stop: foo, bar\nverb: frobnicates\n")
        assert {"foo", "bar"} <= lexicon.stopwords
        assert lexicon.is_verb("frobnicates")
        assert lexicon.is_verb("frobnicating")  # same stem as the listed form

    def test_tokens_are_lowercased(self):
        lexicon = parse_lexicon("syn: Alpha, BETA\n")
        assert lexicon.synonym_groups == (("alpha", "beta"),)


class TestParseAnnotations:
    def test_bundled_table(self, table1_annotations):
        assert len(table1_annotations) == 36
        left = AttrRef("EF", "Requirements", "a3")
        right = AttrRef("Scrum", "ProductBacklog", "b3")
        assert table1_annotations.level_for(left, right) == 2
        assert table1_annotations.level_for(right, left) == 2  # unordered

    def test_published_diagonal_levels(self, table1_annotations):
        expected = {"b1": 1, "b2": 1, "b3": 2, "b4": 2, "b5": 1, "b6": 2}
        for index, level in expected.items():
            left = AttrRef("EF", "Requirements", f"a{index[1]}")
            right = AttrRef("Scrum", "ProductBacklog", index)
            assert table1_annotations.level_for(left, right) == level

    def test_unknown_attribute_reference(self, essence_context, scrum_context):
        text = "pair: EF/Requirements.a9 Scrum/ProductBacklog.b1 = 2\n"
        with pytest.raises(UnknownReferenceError, match="unknown attribute"):
            parse_annotations(text, (essence_context, scrum_context))

    def test_unknown_concept_and_context(self, essence_context, scrum_context):
        contexts = (essence_context, scrum_context)
        with pytest.raises(UnknownReferenceError, match="unknown concept"):
            parse_annotations("pair: EF/Missing.a1 Scrum/ProductBacklog.b1 = 1\n", contexts)
        with pytest.raises(UnknownReferenceError, match="unknown context"):
            parse_annotations("pair: ZZ/Requirements.a1 Scrum/ProductBacklog.b1 = 1\n", contexts)

    def test_duplicate_pair_rejected(self, essence_context, scrum_context):
        text = (
            "pair: EF/Requirements.a1 Scrum/ProductBacklog.b1 = 1\n"
            "pair: Scrum/ProductBacklog.b1 EF/Requirements.a1 = 2\n"
        )
        with pytest.raises(CorpusSyntaxError, match="duplicate annotation") as info:
            parse_annotations(text, (essence_context, scrum_context))
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "line,message",
        [
            ("pair: EF/Requirements.a1 Scrum/ProductBacklog.b1 = 9", "between 0 and 3"),
            ("pair: EF/Requirements.a1 Scrum/ProductBacklog.b1 = x", "integer"),
            ("pair: EF/Requirements.a1 = 1", "exactly two references"),
            ("pair: EF/Requirements.a1 Scrum/ProductBacklog.b1", "= <level>"),
            ("level: 3", "expected 'pair:"),
            ("pair: Requirements.a1 Scrum/ProductBacklog.b1 = 1", "<ctx>/<Concept>"),
        ],
    )
    def test_malformed_lines(self, line, message, essence_context, scrum_context):
        with pytest.raises(CorpusSyntaxError, match=message):
            parse_annotations(line + "\n", (essence_context, scrum_context))

    def test_self_pair_rejected_at_its_line(self, essence_context, scrum_context):
        text = "# a1 with itself\npair: EF/Requirements.a1 EF/Requirements.a1 = 1\n"
        with pytest.raises(CorpusSyntaxError, match="against itself") as info:
            parse_annotations(text, (essence_context, scrum_context), name="self.ann")
        assert (info.value.source, info.value.line) == ("self.ann", 2)

    def test_table_holds_36_pairs(self, table1_annotations):
        assert len(table1_annotations) == 36

    def test_shared_context_id_resolves_against_the_last(self):
        def context(concept_name, attr_id):
            attr = AttributeStatement(attr_id, "the team refines the backlog")
            return SemanticContext("X", (Concept(concept_name, (attr,)),))

        y = SemanticContext("Y", (Concept("B", (AttributeStatement("b1", "the owner orders items"),)),))
        contexts = (context("A", "a1"), context("C", "c1"), y)
        with pytest.raises(UnknownReferenceError, match="unknown concept"):
            parse_annotations("pair: X/A.a1 Y/B.b1 = 2\n", contexts)
        assert len(parse_annotations("pair: X/C.c1 Y/B.b1 = 2\n", contexts)) == 1

    def test_contexts_may_be_a_generator(self, essence_context, scrum_context):
        text = bundled_path("paper-table1.ann").read_text(encoding="utf-8")
        table = parse_annotations(text, (ctx for ctx in (essence_context, scrum_context)))
        assert len(table) == 36
        left = AttrRef("EF", "Requirements", "a3")
        right = AttrRef("Scrum", "ProductBacklog", "b3")
        assert table.level_for(left, right) == 2
        # A miss still reaches the contexts themselves, not an emptied iterator.
        with pytest.raises(UnknownReferenceError, match="unknown attribute"):
            parse_annotations("pair: EF/Requirements.a9 Scrum/ProductBacklog.b1 = 2\n",
                              (ctx for ctx in (essence_context, scrum_context)))

    @pytest.mark.parametrize(
        "ref,error,message",
        [
            ("EF/Requirements.A1", UnknownReferenceError, "unknown attribute in reference EF/Requirements.A1"),
            ("EF/Requirements.a01", UnknownReferenceError, "unknown attribute in reference EF/Requirements.a01"),
            ("ef/Requirements.a1", UnknownReferenceError, "unknown context in reference ef/Requirements.a1"),
            ("EF/requirements.a1", UnknownReferenceError, "unknown concept in reference EF/requirements.a1"),
            ("EF//Requirements.a1", UnknownReferenceError, "unknown concept in reference EF//Requirements.a1"),
            ("EF/Requirements..a1", UnknownReferenceError, "unknown concept in reference EF/Requirements..a1"),
            ("EF/Requirements.a1.", CorpusSyntaxError,
             "expected '<ctx>/<Concept>.<attrId>', got 'EF/Requirements.a1.'"),
            ("/Requirements.a1", CorpusSyntaxError, "expected '<ctx>/<Concept>.<attrId>', got '/Requirements.a1'"),
        ],
    )
    def test_near_miss_references(self, ref, error, message, essence_context, scrum_context):
        text = f"pair: {ref} Scrum/ProductBacklog.b1 = 1\n"
        with pytest.raises(error) as info:
            parse_annotations(text, (essence_context, scrum_context), name="t.ann")
        assert type(info.value) is error
        assert str(info.value) == f"t.ann:1: {message}"


class TestAnnotationTable:
    def test_duplicate_entry_rejected(self):
        left = AttrRef("X", "A", "a1")
        right = AttrRef("Y", "B", "b1")
        with pytest.raises(ValueError, match="duplicate annotation"):
            AnnotationTable(((left, right, 1), (right, left, 2)))

    def test_level_validation(self):
        left = AttrRef("X", "A", "a1")
        right = AttrRef("Y", "B", "b1")
        with pytest.raises(ValueError, match="0..3"):
            AnnotationTable(((left, right, 4),))

    @pytest.mark.parametrize("level", [True, 2.0, "2"])
    def test_level_must_be_an_int(self, level):
        left = AttrRef("X", "A", "a1")
        right = AttrRef("Y", "B", "b1")
        with pytest.raises(ValueError, match=r"between 0 and 3 \(0\.\.3\)"):
            AnnotationTable(((left, right, level),))

    def test_self_pair_rejected(self):
        ref = AttrRef("X", "A", "a1")
        with pytest.raises(ValueError, match="against itself"):
            AnnotationTable(((ref, ref, 3),))

    def test_missing_pair_is_none(self):
        table = AnnotationTable(())
        assert table.level_for(AttrRef("X", "A", "a1"), AttrRef("Y", "B", "b1")) is None


class TestBundledPath:
    def test_known_files(self):
        for name in ("essence.concepts", "scrum.concepts", "paper-table1.ann", "paper.lex"):
            assert bundled_path(name).is_file()

    def test_unknown_file(self):
        with pytest.raises(FileNotFoundError):
            bundled_path("nosuch.concepts")

    def test_bundled_files_load_cleanly(self):
        for name in ("essence.concepts", "scrum.concepts"):
            load_concepts(bundled_path(name))
