import itertools
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
    load_annotations,
    load_concepts,
    load_lexicon,
    parse_annotations,
    parse_concepts,
    parse_lexicon,
    serialize_concepts,
)
from essencemap import corpus
from essencemap.corpus import AnnotationTable

from annotation_oracle import reference_parse_annotations
from conftest import attribute, make_random_context

GOOD = """\
context: EF

concept: Requirements
attr a1: are the definition of what needs to be achieved
obj o1: release backlog for milestone 1
end
"""


class TestParseConcepts:
    def test_bundled_essence_file(self, essence_context):
        assert essence_context.id == "EF"
        concept = essence_context.concept("Requirements")
        assert [a.id for a in concept.attributes] == ["a1", "a2", "a3", "a4", "a5", "a6"]
        assert attribute(concept, "a1").text == "are the definition of what needs to be achieved"
        assert attribute(concept, "a3").text == (
            "mechanisms for managing /accepting requirements need to be established"
        )
        assert attribute(concept, "a6").text == "continue to evolve as more is learned."

    def test_bundled_scrum_file(self, scrum_context):
        concept = scrum_context.concept("ProductBacklog")
        assert len(concept.attributes) == 6
        assert attribute(concept, "b2").text == "is required to meet the product owner’s vision"

    def test_full_featured_block(self):
        context = parse_concepts(GOOD)
        concept = context.concept("Requirements")
        assert concept.objects[0].text == "release backlog for milestone 1"

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
            ("context: EF\nconcept: X\nrel-in: EF/Opportunity\nend\n", 3, "unrecognized line"),
            ("context: EF\nconcept: X\nrel-in: NoSlash\nend\n", 3, "unrecognized line"),
            ("context: EF\nconcept: X\nrel-in: X/ B c\nend\n", 3, "unrecognized line"),
            ("context: EF\nconcept: X\nrel-out: X/\nend\n", 3, "unrecognized line"),
            ("context: EF\nconcept: X\nrel-out: /B\nend\n", 3, "unrecognized line"),
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

    def test_a_20000_attribute_concept_parses_in_under_3_seconds(self):
        # A duplicate-id check that scans the block takes about 17 s on this block.
        ids = [f"a{i}" for i in range(20_000)]
        text = "context: EF\nconcept: X\n" + "".join(f"attr {i}: statement {i}\n" for i in ids) + "end\n"
        started = time.perf_counter()
        concept = parse_concepts(text).concept("X")
        assert time.perf_counter() - started < 3.0
        assert [a.id for a in concept.attributes] == ids

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\ncontext: EF\n  # indented comment\nconcept: X\nattr a1: t\nend\n"
        assert attribute(parse_concepts(text).concept("X"), "a1").text == "t"


# Characters on the edge of a rule: line breaks that ``str.splitlines`` splits
# on, the id/text separator ':', the reference separators '/' and '.'.
_texts = st.text(st.one_of(st.sampled_from("a1 :/.#\x85\u2028\x0b\n\t"), st.characters()),
                 min_size=1, max_size=6)
_ids = st.one_of(_texts, st.from_regex(r"[a-z][a-z0-9:]{0,2}", fullmatch=True))


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
        concept = _accepted(Concept, draw(_texts), attrs.values(), objs.values())
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
        assert attribute(again.concept("X"), "a1").text == "uses #tag inline"

    def test_roundtrip_writes_no_relation_lines(self):
        context = parse_concepts(GOOD)
        text = serialize_concepts(context)
        assert "rel-in:" not in text and "rel-out:" not in text
        assert parse_concepts(text) == context

    def test_a_concept_takes_no_relations(self):
        with pytest.raises(TypeError):
            Concept("X", (AttributeStatement("a1", "t"),), (), ("EF/Opportunity",))
        with pytest.raises(TypeError):
            Concept("X", (AttributeStatement("a1", "t"),), input_relations=("EF/Opportunity",))

    def test_roundtrip_seeded_random_contexts(self):
        rng = random.Random(0xC0FFEE)
        for index in range(120):
            context = make_random_context(rng, index)
            assert parse_concepts(serialize_concepts(context)) == context


class TestParseLexicon:
    def test_bundled_lexicon(self, tuned_lexicon):
        assert ("are", "progress") in tuned_lexicon.synonym_groups
        assert tuned_lexicon._folds["owner"] == "requirement"

    def test_group_canonicalizes_to_first_member(self):
        lexicon = parse_lexicon("syn: manage, managing, determining\n")
        assert lexicon._folds["determining"] == "manage"

    def test_empty_file_keeps_builtins(self):
        lexicon = parse_lexicon("")
        assert lexicon.synonym_groups == ()
        assert "the" in lexicon.stopwords
        assert lexicon._verdicts["is"]

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
        assert lexicon._verdicts["frobnicates"]
        assert lexicon._verdicts["frobnicating"]  # same stem as the listed form

    def test_tokens_are_lowercased(self):
        lexicon = parse_lexicon("syn: Alpha, BETA\n")
        assert lexicon.synonym_groups == (("alpha", "beta"),)


class TestParseAnnotations:
    def test_bundled_table(self, table1_annotations):
        assert len(table1_annotations) == 6
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
        assert len(table) == 6
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
        assert (info.value.source, info.value.line, info.value.reason) == ("t.ann", 1, message)


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

    def test_contexts_rank_where_first_named_the_left_reference_first(self):
        a1, a2, b1 = AttrRef("X", "A", "a1"), AttrRef("X", "A", "a2"), AttrRef("Y", "B", "b1")
        entries = [(a1, b1, 2), (a2, a1, 1)]
        # X ranks first, so only a1 holds the cross-context pair; both hold the pair within X.
        assert AnnotationTable(entries)._rows == {a1: {b1: 2, a2: 1}, a2: {a1: 1}}
        # The parser ranks Y first, and makes a row for every known reference.
        parsed = parse_annotations("pair: X/A.a1 Y/B.b1 = 2\npair: X/A.a2 X/A.a1 = 01\n", _TABLE_CONTEXTS)
        assert parsed._rows == {b1: {a1: 2}, AttrRef("Y", "B", "b2"): {}, a1: {a2: 1}, a2: {a1: 1}}
        for table in (AnnotationTable(entries), parsed):
            assert (dict(table.row(a1)), dict(table.row(b1)), len(table)) == ({b1: 2, a2: 1}, {a1: 2}, 2)


_TABLE_REFS = (AttrRef("X", "A", "a1"), AttrRef("X", "A", "a2"), AttrRef("Y", "B", "b1"), AttrRef("Y", "B", "b2"))
_table_refs = st.sampled_from(_TABLE_REFS)


def _levels(table):
    return {(left, right): table.level_for(left, right) for left in _TABLE_REFS for right in _TABLE_REFS}


def _rows(table, refs):
    return {ref: dict(table.row(ref)) for ref in refs}


def _expected_rows(levels, refs):
    """The row of each of ``refs`` under ``levels``, a dict keyed by unordered pairs."""
    return {ref: {other: level for pair, level in levels.items() if ref in pair for other in pair - {ref}}
            for ref in refs}


def _held_rows(entries, ranks):
    """The non-empty rows the one storage rule gives ``entries`` under ``ranks`` (context id -> rank):
    a pair sits in the row of each reference whose context ranks no later than the other's."""
    rows = {}
    for left, right, level in entries:
        for ref, other in ((left, right), (right, left)):
            if ranks[ref.context] <= ranks[other.context]:
                rows.setdefault(ref, {})[other] = level
    return rows


def _nonempty_rows(table):
    return {ref: row for ref, row in table._rows.items() if row}


# A table built from entries ranks X and Y where an entry first names them, the left
# reference first; parse_annotations over these contexts ranks Y, then X.  Either holds a
# pair of X and Y once, in the row of its first-ranked reference.
_TABLE_CONTEXTS = tuple(SemanticContext(ctx, (Concept(name, tuple(AttributeStatement(attr, "t") for attr in attrs)),))
                        for ctx, name, attrs in (("Y", "B", ("b1", "b2")), ("X", "A", ("a1", "a2"))))
_PARSER_RANKS = {"Y": 0, "X": 1}
_table_entries = st.lists(st.tuples(_table_refs, _table_refs, st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
                          max_size=6, unique_by=lambda e: frozenset(e[:2]))


def _entry_text(entries):
    return "".join(f"pair: {left} {right} = {level}\n" for left, right, level in entries)


def _built_tables(entries):
    """``(table, ranks)`` from the constructor and from ``parse_annotations``."""
    entry_ranks = {ctx: rank for rank, ctx in enumerate(dict.fromkeys(
        ctx for left, right, _ in entries for ctx in (left.context, right.context)))}
    return ((AnnotationTable(entries), entry_ranks),
            (parse_annotations(_entry_text(entries), _TABLE_CONTEXTS), _PARSER_RANKS))


class TestAnnotationTableProperties:
    @settings(max_examples=300)
    @given(entries=_table_entries)
    def test_symmetric_counted_once_and_held_by_the_one_rule(self, entries):
        expected = {frozenset((left, right)): level for left, right, level in entries}
        for table, ranks in _built_tables(entries):
            levels = _levels(table)
            assert all(levels[left, right] == levels[right, left] for left, right in levels)
            assert levels == {pair: expected.get(frozenset(pair)) for pair in levels}
            assert _rows(table, _TABLE_REFS) == _expected_rows(expected, _TABLE_REFS)
            assert _nonempty_rows(table) == _held_rows(entries, ranks)
            assert len(table) == len(expected)

    @settings(max_examples=300)
    @given(entries=st.lists(st.tuples(_table_refs, _table_refs,
                                      st.one_of(st.integers(-1, 4), st.sampled_from([True, 2.0, "2"]))),
                            min_size=1, max_size=8))
    @example(entries=[(_TABLE_REFS[0], _TABLE_REFS[2], 4)])
    @example(entries=[(_TABLE_REFS[1], _TABLE_REFS[1], 2)])
    @example(entries=[(_TABLE_REFS[0], _TABLE_REFS[2], 1), (_TABLE_REFS[0], _TABLE_REFS[2], 2)])
    @example(entries=[(_TABLE_REFS[0], _TABLE_REFS[2], 1), (_TABLE_REFS[2], _TABLE_REFS[0], 2)])
    @example(entries=[(_TABLE_REFS[0], _TABLE_REFS[1], 1), (_TABLE_REFS[1], _TABLE_REFS[0], 1)])
    def test_the_first_bad_entry_raises_its_message(self, entries):
        # A bad level, a self pair, or a repeat in either order.
        seen, message = set(), None
        for number, (left, right, level) in enumerate(entries, 1):
            if type(level) is not int or not 0 <= level <= 3:
                message = f"level must be between 0 and 3 (0..3), got {level!r} for {left} / {right}"
            elif left == right:
                message = f"cannot annotate {left} against itself"
            elif frozenset((left, right)) in seen:
                message = f"duplicate annotation for pair {left} / {right}"
            else:
                seen.add(frozenset((left, right)))
                continue
            break
        assume(message is not None)
        with pytest.raises(ValueError) as info:
            AnnotationTable(entries)
        assert str(info.value) == message
        if type(level) is int:  # a level a line can hold
            with pytest.raises(CorpusSyntaxError) as info:
                parse_annotations(_entry_text(entries), _TABLE_CONTEXTS)
            assert (info.value.line, info.value.reason) == (number, message)


# '=' inside context and concept names, and a context shadowed by a later one with its id.
_ORACLE_CONTEXTS = (
    SemanticContext("X", (Concept("Z", (AttributeStatement("z1", "shadowed"),)),)),
    SemanticContext("X", (Concept("A", (AttributeStatement("a1", "t"), AttributeStatement("a2", "t"))),
                          Concept("B=C", (AttributeStatement("b1", "t"),)),
                          Concept("D=", (AttributeStatement("d1", "t"),)))),
    SemanticContext("Y=", (Concept("E", (AttributeStatement("e1", "t"), AttributeStatement("e2", "t"))),)),
)
_ORACLE_REFS = [AttrRef(ctx.id, concept.name, attr.id)
                for ctx in _ORACLE_CONTEXTS for concept in ctx.concepts for attr in concept.attributes]
_GOOD_REFS = [str(ref) for ref in _ORACLE_REFS[1:]]
_BAD_REFS = ["X/Z.z1", "X/A.a9", "X/Q.a1", "Q/A.a1", "A.a1", "X/A.a1.", "X/B.C.b1", "X/D.d1", "=", "X/A.a1="]
# int() reads the first eight; the checked path rejects the rest.
_GOOD_LEVELS = ["0", "1", "2", "3", " 3", "+1", "01", "\u0663"]
_BAD_LEVELS = ["1_0", "4", "-1", "x", "", "1 2"]
_GOOD_GAPS = ["", " ", "\t", "  ", " \t "]


@st.composite
def _annotation_texts(draw):
    """``pair:`` lines.  A clean text holds distinct pairs of known references
    with levels ``int`` reads; any other text adds near misses, self pairs,
    repeats in either orientation and lines that are no pair."""
    if draw(st.booleans()):
        good = st.sampled_from(_GOOD_REFS)
        items = draw(st.lists(st.tuples(good, good).filter(lambda pair: pair[0] != pair[1]),
                              min_size=1, max_size=6, unique_by=frozenset))
        levels, gaps = st.sampled_from(_GOOD_LEVELS), st.sampled_from(_GOOD_GAPS)
    else:
        refs = st.sampled_from(_GOOD_REFS + _BAD_REFS)
        levels = st.sampled_from(_GOOD_LEVELS + _BAD_LEVELS)
        gaps = st.sampled_from(_GOOD_GAPS + ["\xa0", "\x1f"])
        items = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["fresh", "fresh", "self", "repeat", "reversed", "other"]))
            pairs = [item for item in items if isinstance(item, tuple)]
            if kind == "other":
                items.append(draw(st.sampled_from(["# note", "", "pair: X/A.a1 = 1", "level: 3"])))
            elif kind in ("repeat", "reversed") and pairs:
                left, right = draw(st.sampled_from(pairs))
                items.append((left, right) if kind == "repeat" else (right, left))
            else:
                left = draw(refs)
                items.append((left, left if kind == "self" else draw(refs)))
    lines = []
    for item in items:
        if isinstance(item, tuple):
            g0, g1, g2, g3 = (draw(gaps) for _ in range(4))
            item = f"pair:{g0}{item[0]}{g1 or ' '}{item[1]}{g2}={g3}{draw(levels)}"
        lines.append(item)
    return "\n".join(lines) + "\n"


@settings(max_examples=500)
@given(text=_annotation_texts())
def test_fast_path_parses_as_the_checked_path(text):
    try:
        expected = reference_parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
    except (CorpusSyntaxError, UnknownReferenceError) as exc:
        with pytest.raises(type(exc)) as info:
            parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
        got = info.value
        assert type(got) is type(exc)
        assert (str(got), got.reason, got.source, got.line) == (str(exc), exc.reason, exc.source, exc.line)
        return
    table = parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
    assert len(table) == len(expected)
    for left in _ORACLE_REFS:
        for right in _ORACLE_REFS:
            assert table.level_for(left, right) == expected.get(frozenset((left, right)))


def _levels_as_reference(text):
    """The levels ``parse_annotations`` reads from ``text``, by unordered pair,
    checked against the reference parse; an error is checked the same way and raised."""
    try:
        expected = reference_parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
    except (CorpusSyntaxError, UnknownReferenceError) as exc:
        with pytest.raises(type(exc)) as info:
            parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
        got = info.value
        assert (type(got), str(got), got.reason, got.source, got.line) == (
            type(exc), str(exc), exc.reason, exc.source, exc.line)
        raise got
    table = parse_annotations(text, _ORACLE_CONTEXTS, name="t.ann")
    levels = {frozenset((left, right)): table.level_for(left, right)
              for left in _ORACLE_REFS for right in _ORACLE_REFS if table.level_for(left, right) is not None}
    assert (len(table), levels) == (len(expected), expected)
    assert _rows(table, _ORACLE_REFS) == _expected_rows(expected, _ORACLE_REFS)
    return levels


# The contexts of _ORACLE_CONTEXTS with Y= ranked first; X keeps its last concepts.
_Y_FIRST = (_ORACLE_CONTEXTS[2], *_ORACLE_CONTEXTS[:2])


@settings(max_examples=300)
@given(y_first=st.booleans(),
       lines=st.lists(st.tuples(st.sampled_from(_GOOD_REFS), st.sampled_from(_GOOD_REFS), st.sampled_from(_GOOD_LEVELS))
                      .filter(lambda line: line[0] != line[1]), min_size=1, max_size=12,
                      unique_by=lambda line: frozenset(line[:2])))
def test_every_row_holds_the_levels_of_the_reference(y_first, lines):
    # Same-context and cross-context pairs in either orientation, on the fast and the checked path.
    text = "".join(f"pair: {left} {right} = {level}\n" for left, right, level in lines)
    contexts = _Y_FIRST if y_first else _ORACLE_CONTEXTS
    expected = reference_parse_annotations(text, contexts)
    table = parse_annotations(text, contexts)
    assert len(table) == len(expected) == len(lines)
    assert _rows(table, _ORACLE_REFS) == _expected_rows(expected, _ORACLE_REFS)
    assert all(table.level_for(left, right) == expected.get(frozenset((left, right)))
               for left in _ORACLE_REFS for right in _ORACLE_REFS)


# A pair of X and Y= repeated in the other orientation, on the fast path ("= 1") or the
# checked path ("= 01"), after the first line took either path.
@pytest.mark.parametrize("first, repeat", [("= 1", "= 01"), ("= 01", "= 1")], ids=["fast-then-checked",
                                                                                  "checked-then-fast"])
@pytest.mark.parametrize("left, right", [("X/A.a1", "Y=/E.e1"), ("Y=/E.e1", "X/A.a1")])
def test_a_repeat_in_the_other_orientation_is_a_duplicate_at_its_line(first, repeat, left, right):
    text = f"pair: {left} {right} {first}\npair: X/A.a2 Y=/E.e1 = 2\npair: {right} {left} {repeat}\n"
    with pytest.raises(CorpusSyntaxError) as info:
        _levels_as_reference(text)
    assert (info.value.line, info.value.reason) == (3, f"duplicate annotation for pair {right} / {left}")


# Fast-shaped lines that break the self-pair or duplicate rule; the first bad line is reported.
@pytest.mark.parametrize("text, line, message", [
    ("pair: X/A.a1 X/A.a2 = 1\npair: Y=/E.e1 X/A.a1 = 2\npair: X/A.a1 X/A.a2 = 1\n", 3, "duplicate annotation"),
    ("pair: X/A.a1 X/A.a2 = 1\npair: Y=/E.e1 X/A.a1 = 2\npair: X/A.a2 X/A.a1 = 3\n", 3, "duplicate annotation"),
    ("pair: X/A.a1 X/A.a2 = 1\npair: X/B=C.b1 X/B=C.b1 = 3\n", 2, "cannot annotate X/B=C.b1 against itself"),
    ("pair: X/A.a1 X/A.a2 = 1\npair: X/A.a2 X/A.a1 = 1\npair: Y=/E.e1 X/A.a1 = 2\npair: X/A.a1 = 1\n",
     2, "duplicate annotation"),
    ("pair: X/A.a1 X/A.a2 = 1\npair: X/A.a1 X/A.a2 = 1\npair: Y=/E.e1 X/A.a9 = 2\n", 2, "duplicate annotation"),
    ("pair: X/A.a1 X/A.a2 = 01\npair: X/A.a2 X/A.a1 = 1\n", 2, "duplicate annotation"),
])
def test_a_count_short_of_the_lines_reports_the_first_bad_line(text, line, message):
    with pytest.raises(CorpusSyntaxError, match=message) as info:
        _levels_as_reference(text)
    assert info.value.line == line


@pytest.mark.parametrize("off_shape", ["= 01", "=1", "= +1", "=\t1 "])
def test_a_line_off_the_fast_shape_loads_the_table_of_its_canonical_text(off_shape):
    lines = ["pair: X/A.a1 X/A.a2 = 1", "pair: Y=/E.e1 X/B=C.b1 = 2", "pair: X/D=.d1 X/A.a1 = 3"]
    canonical = _levels_as_reference("\n".join(lines))
    lines[0] = lines[0].replace("= 1", off_shape)
    assert _levels_as_reference("\n".join(lines)) == canonical


def test_comments_and_blank_lines_alone_load_an_empty_table():
    assert _levels_as_reference("# a table\n\n   \n\t# pair: X/A.a1 X/A.a2 = 1\n#\n") == {}


# Lines that miss the fast path's shape by one field; each must read as the checked path reads it.
@pytest.mark.parametrize("line", ["pair: X/A.a1 X/A.a2 - 1", "pair: X/A.a1 X/A.a2 =1 1", "pairs: X/A.a1 X/A.a2 = 1",
                                  "PAIR: X/A.a1 X/A.a2 = 1", "pair:: X/A.a1 X/A.a2 = 1", "pair: X/A.a1 X/A.a2 = 01",
                                  "pair: X/A.a1 X/A.a2 = 1 2"])
def test_lines_off_the_fast_shape_take_the_checked_path(line):
    try:
        expected = reference_parse_annotations(line, _ORACLE_CONTEXTS, name="t.ann")
    except CorpusSyntaxError as exc:
        with pytest.raises(CorpusSyntaxError) as info:
            parse_annotations(line, _ORACLE_CONTEXTS, name="t.ann")
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return
    table = parse_annotations(line, _ORACLE_CONTEXTS, name="t.ann")
    assert (len(table), table.level_for(*_ORACLE_REFS[1:3])) == (len(expected), 1)


# Every line boundary of str.splitlines; "\r" and "\n" drawn apart also make a "\r\n".
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=500)
@given(size=st.integers(1, 16), bom=st.booleans(), no_lf=st.booleans(),
       parts=st.lists(st.sampled_from(_LINE_BREAKS) | st.text(alphabet="ab \t\ufeff", max_size=5), max_size=30))
# A body that is one U+FEFF is itself the leading mark, so nothing is left to yield.
@example(size=1, bom=False, no_lf=False, parts=["\ufeff"])
def test_line_pieces_yield_exactly_the_lines_of_splitlines(size, bom, no_lf, parts):
    body = "".join(parts)
    if no_lf:
        body = body.replace("\n", "")
    text = "\ufeff" * bom + body
    with mock.patch.object(corpus, "_PIECE_CHARS", size):
        pieces = list(corpus._line_pieces(text))
    rest = text.removeprefix("\ufeff")
    assert [line for piece in pieces for line in piece] == rest.splitlines()
    if "\n" not in body:
        assert len(pieces) == (1 if rest else 0)


_SMALL_PIECE = 100


def _crlf_table_lines():
    """Every pair of ``_GOOD_REFS`` as a ``pair:`` line, with comments and blank lines."""
    lines = []
    for i, (left, right) in enumerate(itertools.combinations(_GOOD_REFS, 2)):
        if i % 5 == 0:
            lines.append("# note")
        if i % 7 == 3:
            lines.append("")
        lines.append(f"pair: {left} {right} = {i % 4}")
    return lines


def _first_lines_after_cuts(text):
    """The number of the first line after each cut at piece size ``_SMALL_PIECE``."""
    with mock.patch.object(corpus, "_PIECE_CHARS", _SMALL_PIECE):
        counts = [len(piece) for piece in corpus._line_pieces(text)]
    return [total + 1 for total in itertools.accumulate(counts[:-1])]


def test_a_crlf_table_of_several_pieces_loads_the_levels_of_the_reference():
    text = "\r\n".join(_crlf_table_lines()) + "\r\n"
    assert len(_first_lines_after_cuts(text)) >= 3
    with mock.patch.object(corpus, "_PIECE_CHARS", _SMALL_PIECE):
        levels = _levels_as_reference(text)
    assert len(levels) == len(list(itertools.combinations(_GOOD_REFS, 2)))


# Lines that break a rule, each put on the first line after a cut.
@pytest.mark.parametrize("cut", [0, 1, 2])
@pytest.mark.parametrize("bad, error, message", [
    (f"pair: {_GOOD_REFS[1]} {_GOOD_REFS[0]} = 3", CorpusSyntaxError, "duplicate annotation"),
    (f"pair: {_GOOD_REFS[2]} {_GOOD_REFS[2]} = 1", CorpusSyntaxError, "against itself"),
    (f"pair: {_GOOD_REFS[0]} X/A.a9 = 1", UnknownReferenceError, "unknown attribute"),
])
def test_a_bad_line_just_after_a_cut_reports_as_the_reference(cut, bad, error, message):
    lines = _crlf_table_lines()
    number = _first_lines_after_cuts("\r\n".join(lines) + "\r\n")[cut]
    lines[number - 1] = bad
    text = "\r\n".join(lines) + "\r\n"
    # A cut depends only on the text before it, so the bad line still follows one.
    assert _first_lines_after_cuts(text)[cut] == number
    with mock.patch.object(corpus, "_PIECE_CHARS", _SMALL_PIECE):
        with pytest.raises(error, match=message) as info:
            _levels_as_reference(text)
    assert (info.value.source, info.value.line) == ("t.ann", number)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_bundled_files_parse_the_same_in_small_pieces(size, essence_context, scrum_context):
    def parse_all():
        texts = {name: bundled_path(name).read_text(encoding="utf-8").replace("\n", "\r\n")
                 for name in ("essence.concepts", "scrum.concepts", "paper.lex", "paper-table1.ann")}
        table = parse_annotations(texts["paper-table1.ann"], [essence_context, scrum_context])
        return (parse_concepts(texts["essence.concepts"]), parse_concepts(texts["scrum.concepts"]),
                parse_lexicon(texts["paper.lex"]), table._rows)

    whole = parse_all()
    with mock.patch.object(corpus, "_PIECE_CHARS", size):
        assert parse_all() == whole


def test_a_load_holds_under_half_its_text_beyond_the_table():
    concepts = tuple(Concept(f"C{c}", tuple(AttributeStatement(f"a{a}", "t") for a in range(1, 9)))
                     for c in range(20))
    contexts = (SemanticContext("P", concepts), SemanticContext("F", concepts))
    refs = [[str(AttrRef(ctx.id, concept.name, attr.id)) for concept in ctx.concepts for attr in concept.attributes]
            for ctx in contexts]
    pairs = [f"pair: {left} {right} = {i % 4}" for i, (left, right) in enumerate(itertools.product(*refs))]
    text = "# generated table\n" + "\n".join(pairs) + "\n"
    assert len(pairs) >= 20_000
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = parse_annotations(text, contexts, name="big.ann")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert len(table) == len(pairs)
    # A list of every line alone would be about twice the text.
    assert peak - kept < len(text) / 2
    # Each pair of P and F sits in the row of its P reference only: about 32 bytes a pair
    # on CPython 3.11, where an entry in each of two rows took 60.
    assert kept < 45 * len(pairs)

class TestByteOrderMark:
    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("filename", ["essence.concepts", "scrum.concepts", "paper.lex"])
    def test_bom_file_parses_as_without(self, filename, tmp_path):
        load = load_lexicon if filename.endswith(".lex") else load_concepts
        path = tmp_path / filename
        path.write_bytes(self.BOM + bundled_path(filename).read_bytes())
        assert load(path) == load(bundled_path(filename))

    def test_bom_annotation_file_parses_as_without(self, tmp_path, essence_context, scrum_context,
                                                   table1_annotations):
        path = tmp_path / "table.ann"
        path.write_bytes(self.BOM + bundled_path("paper-table1.ann").read_bytes())
        table = load_annotations(path, (essence_context, scrum_context))
        refs = [AttrRef(ctx.id, concept.name, attr.id) for ctx in (essence_context, scrum_context)
                for concept in ctx.concepts for attr in concept.attributes]
        assert len(table) == len(table1_annotations) == 6
        assert all(table.level_for(left, right) == table1_annotations.level_for(left, right)
                   for left in refs for right in refs)

    FILES = ("essence.concepts", "scrum.concepts", "paper.lex", "paper-table1.ann")
    # File suffix -> the message of a line that holds a stray U+FEFF.
    STRAY = {
        "concepts": "unrecognized line; expected one of context:, concept:, attr, obj, end",
        "lex": "expected 'syn:', 'stop:' or 'verb:' line",
        "ann": "expected 'pair: <ref> <ref> = <level>'",
    }

    @staticmethod
    def _parse(filename, text, contexts):
        if filename.endswith(".ann"):
            return parse_annotations(text, contexts, name="t")
        parse = parse_lexicon if filename.endswith(".lex") else parse_concepts
        return parse(text, name="t")

    @pytest.mark.parametrize("filename", FILES)
    def test_parsed_text_with_a_leading_bom_parses_as_without(self, filename, essence_context,
                                                               scrum_context):
        contexts = (essence_context, scrum_context)
        text = bundled_path(filename).read_text(encoding="utf-8")
        with_bom = self._parse(filename, "\ufeff" + text, contexts)
        without = self._parse(filename, text, contexts)
        if filename.endswith(".ann"):
            refs = [AttrRef(ctx.id, concept.name, attr.id) for ctx in contexts
                    for concept in ctx.concepts for attr in concept.attributes]
            assert len(with_bom) == len(without) == 6
            assert all(with_bom.level_for(left, right) == without.level_for(left, right)
                       for left in refs for right in refs)
        else:
            assert with_bom == without

    @pytest.mark.parametrize("filename", FILES)
    @pytest.mark.parametrize("where", ["second mark", "second line", "last line"])
    def test_a_bom_anywhere_else_is_a_stray_character(self, filename, where, essence_context,
                                                      scrum_context):
        text = bundled_path(filename).read_text(encoding="utf-8")
        bad, line = {
            "second mark": ("\ufeff\ufeff" + text, 1),
            "second line": ("\n\ufeff" + text, 2),
            "last line": (text + "\ufeff\n", len(text.splitlines()) + 1),
        }[where]
        with pytest.raises(CorpusSyntaxError) as info:
            self._parse(filename, bad, (essence_context, scrum_context))
        assert (info.value.source, info.value.line, info.value.reason) == (
            "t", line, self.STRAY[filename.rpartition(".")[2]])

    @pytest.mark.parametrize("bom", [b"", BOM])
    @pytest.mark.parametrize("body,line,byte", [
        (b"\xff\ncontext: X\n", 1, "FF"),
        (b"context: X\n\xff\n", 2, "FF"),
        (b"context: X\nconcept: Y\nattr a1: caf\xe9\nend\n", 3, "E9"),
    ])
    def test_bad_byte_names_its_line(self, bom, body, line, byte, tmp_path):
        path = tmp_path / "bad.concepts"
        path.write_bytes(bom + body)
        with pytest.raises(CorpusSyntaxError) as info:
            load_concepts(path)
        assert (info.value.line, info.value.reason) == (line, f"invalid UTF-8 byte 0x{byte}")

    @pytest.mark.parametrize("newline", [b"\n", b"\r", b"\x0c", "\u0085".encode()],
                             ids=["lf", "cr", "form-feed", "next-line"])
    def test_bad_byte_line_is_numbered_as_the_parser_numbers_it(self, newline, tmp_path):
        def lines(third):
            return newline.join([b"context: X", b"concept: Y", third, b"end", b""])

        path = tmp_path / "bad.concepts"
        path.write_bytes(lines(b"\xff"))
        with pytest.raises(CorpusSyntaxError) as info:
            load_concepts(path)
        assert (info.value.line, info.value.reason) == (3, "invalid UTF-8 byte 0xFF")
        path.write_bytes(lines(b"bogus"))
        with pytest.raises(CorpusSyntaxError) as info:
            load_concepts(path)
        assert info.value.line == 3


_B1 ="Scrum/ProductBacklog.b1"


# One input per raise site of each parser, with the full message it gives.
@pytest.mark.parametrize(
    "parser,text,line,message",
    [
        ("concepts", "context: EF\ncontext: EF2\n", 2, "duplicate 'context:' header"),
        ("concepts", "context: E/F\n", 1,
         "context id must be non-empty with no whitespace or '/', got 'E/F'"),
        ("concepts", "concept: X\nend\n", 1, "missing context header before first concept"),
        ("concepts", "context: EF\nconcept: X\nconcept: Y\n", 3,
         "concept block opened at line 2 is still open"),
        ("concepts", "context: EF\nconcept: X Y\n", 2,
         "concept name must be a single token with no whitespace, got 'X Y'"),
        ("concepts", "context: EF\nconcept: X\nend\nconcept: X\nend\n", 4, "duplicate concept name 'X'"),
        ("concepts", "context: EF\nend\n", 2, "'end' without an open concept block"),
        ("concepts", "context: EF\nobj o1: x\n", 2, "'obj' line outside a concept block"),
        ("concepts", "context: EF\nconcept: X\nattr a1 text\nend\n", 3, "expected 'attr <id>: <text>'"),
        ("concepts", "context: EF\nconcept: X\nattr A1: x\nend\n", 3,
         "attribute id must match [a-z][a-z0-9]*, got 'A1'"),
        ("concepts", "context: EF\nconcept: X\nobj o1:   \nend\n", 3, "empty text in object 'o1'"),
        ("concepts", "context: EF\nconcept: X\nattr a1: x\nattr a1: y\nend\n", 4,
         "duplicate attribute id 'a1'"),
        ("concepts", "context: EF\nconcept: X\nobj o1: x\nobj o1: y\nend\n", 4,
         "duplicate object id 'o1'"),
        ("concepts", "context: EF\nconcept: X\nattr a1: x\nobj o1: y\nattr a2: z\n# note\nattr a1: w\nend\n", 7,
         "duplicate attribute id 'a1'"),
        ("concepts", "context: EF\nconcept: X\nobj o1: x\nattr a1: y\n\nobj o2: z\nobj o1: w\nend\n", 7,
         "duplicate object id 'o1'"),
        ("concepts", "context: EF\nrel-out: EF/X\n", 2,
         "unrecognized line; expected one of context:, concept:, attr, obj, end"),
        ("concepts", "context: EF\nconcept: X\nrel-in: NoSlash\nend\n", 3,
         "unrecognized line; expected one of context:, concept:, attr, obj, end"),
        ("concepts", "context: EF\nconcept: X\nwhatever here\nend\n", 3,
         "unrecognized line; expected one of context:, concept:, attr, obj, end"),
        ("concepts", "context: EF\n\nconcept: X\nattr a1: t\n", 3, "concept block 'X' is never closed with 'end'"),
        ("concepts", "# only a comment\n", 1, "missing context header"),
        ("lexicon", "nouns: a, b\n", 1, "expected 'syn:', 'stop:' or 'verb:' line"),
        ("lexicon", "stop: a,,b\n", 1, "empty token in list"),
        ("lexicon", "syn: ax, bx, ax\n", 1, "duplicate token 'ax' within synonym group ('ax', 'bx', 'ax')"),
        ("lexicon", "syn: set-up, setup\n", 1, "synonym 'set-up' can never match: text tokenizes to ['set', 'up']"),
        ("lexicon", "syn: ax, bx\nsyn: bx, cx\n", 2,
         "token 'bx' collides with another synonym group via stemmed form 'bx'; "
         "no two synonym groups may share a stemmed form"),
        ("lexicon", "verb: set-up\n", 1, "verb 'set-up' can never match: text tokenizes to ['set', 'up']"),
        ("lexicon", "stop: the\nstop: don't, Foo-Bar\n", 2,
         "stopword \"don't\" can never match: text tokenizes to ['dont']"),
        ("annotations", "level: 3\n", 1, "expected 'pair: <ref> <ref> = <level>'"),
        ("annotations", f"pair: EF/Requirements.a1 {_B1}\n", 1, "expected '= <level>' at end of pair line"),
        ("annotations", "pair: EF/Requirements.a1 = 1\n", 1, "expected exactly two references, got 1"),
        ("annotations", f"pair: EF/Requirements.a1 {_B1} = x\n", 1, "level must be an integer, got 'x'"),
        ("annotations", f"pair: Requirements.a1 {_B1} = 1\n", 1,
         "expected '<ctx>/<Concept>.<attrId>', got 'Requirements.a1'"),
        ("annotations", f"pair: EF/Requirements.a1 {_B1} = 4\n", 1,
         "level must be between 0 and 3 (0..3), got 4 for EF/Requirements.a1 / Scrum/ProductBacklog.b1"),
        ("annotations", f"pair: {_B1} {_B1} = 1\n", 1, "cannot annotate Scrum/ProductBacklog.b1 against itself"),
        ("annotations", f"pair: EF/Requirements.a1 {_B1} = 1\npair: {_B1} EF/Requirements.a1 = 2\n", 2,
         "duplicate annotation for pair Scrum/ProductBacklog.b1 / EF/Requirements.a1"),
    ],
)
def test_every_parser_message_is_pinned(parser, text, line, message, essence_context, scrum_context):
    parse = {
        "concepts": parse_concepts,
        "lexicon": parse_lexicon,
        "annotations": lambda text, name: parse_annotations(text, (essence_context, scrum_context), name),
    }[parser]
    with pytest.raises(CorpusSyntaxError) as info:
        parse(text, name="in.txt")
    exc = info.value
    assert str(exc) == f"in.txt:{line}: {message}"
    assert (exc.reason, exc.line, exc.source) == (message, line, "in.txt")
    # No chained traceback: nothing in flight, or suppressed.
    assert exc.__cause__ is None and (exc.__suppress_context__ or exc.__context__ is None)


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
