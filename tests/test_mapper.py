import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from essencemap import (
    AnnotationTable,
    AttrRef,
    AttributeStatement,
    CandidatePair,
    Concept,
    EmptyContextError,
    EssenceMapError,
    MapConfig,
    MatchSet,
    NoAttributesError,
    ObjectInstance,
    SemanticContext,
    UnknownReferenceError,
    candidate_pairs,
    equivalent,
    extract_spo,
    independent,
    map_contexts,
    map_pair,
    parse_concepts,
    related,
    sub_concept,
    super_concept,
)
from essencemap.lta import MODES
from essencemap.mapper import RELATION_LABELS, MappingResult, classify, pair_result
from essencemap.matching import THRESHOLDS

from conftest import make_random_context


def verbless_notes(contexts, lexicon):
    """The expected diagnostics, from ``extract_spo`` alone: sorted, each once."""
    refs = {
        f"{context.id}/{concept.name}.{attr.id}"
        for context in contexts
        for concept in context.concepts
        for attr in concept.attributes
        if not extract_spo(attr, concept.name, lexicon).predicate
    }
    return tuple(f"no verb found in {ref}; predicate similarity disabled" for ref in sorted(refs))


def simple_concept(name, texts, prefix="a"):
    return Concept(
        name,
        tuple(AttributeStatement(f"{prefix}{i + 1}", t) for i, t in enumerate(texts)),
    )


def precedence(c1, c2, match):
    """The relation precedence, written out: the label ``classify`` must give."""
    if equivalent(c1, c2, match):
        return "equivalent"
    if sub_concept(c1, c2, match):
        return "sub-concept"
    if super_concept(c1, c2, match):
        return "super-concept"
    if related(c1, c2, match):
        return "related"
    return "independent"


# Texts over a few subjects, verbs, objects and stopwords: some statements
# have no verb, and some are all stopwords past the verb.
_texts = st.lists(
    st.sampled_from("team product backlog is are must small fast the of and".split()),
    min_size=1, max_size=5,
).map(" ".join)


@st.composite
def _contexts(draw):
    names = draw(st.lists(st.sampled_from(("Alpha", "Beta", "Gamma", "Delta")),
                          min_size=1, max_size=4, unique=True))
    concepts = []
    for name in names:
        texts = draw(st.lists(_texts, min_size=1, max_size=5))
        labels = draw(st.lists(st.sampled_from(("one", "two")), max_size=2, unique=True))
        concepts.append(Concept(
            name,
            tuple(AttributeStatement(f"a{i + 1}", t) for i, t in enumerate(texts)),
            tuple(ObjectInstance(f"o{i + 1}", t) for i, t in enumerate(labels)),
        ))
    return SemanticContext("X", tuple(concepts))


@st.composite
def _mapping_case(draw):
    """(practice, framework, config) over two drawn contexts, in every mode and at every threshold.

    The framework shares the practice's context id half the time, so a
    framework concept can have the context and name of a practice concept:
    half of those times every such concept is the practice one, else it
    keeps its own texts, a twin.  Annotated mode gets a level for every
    pair of distinct references, hybrid mode for a random subset.
    """
    practice = draw(_contexts())
    framework = draw(_contexts())._replace(id=draw(st.sampled_from(("X", "Y"))))
    if framework.id == practice.id and draw(st.booleans()):
        shared = {concept.name: concept for concept in practice.concepts}
        framework = framework._replace(concepts=tuple(shared.get(c.name, c) for c in framework.concepts))
    mode = draw(st.sampled_from(MODES))
    table = None
    if mode != "heuristic":
        refs = sorted({AttrRef(context.id, concept.name, attr.id) for context in (practice, framework)
                       for concept in context.concepts for attr in concept.attributes})
        table = AnnotationTable((left, right, draw(st.integers(0, 3)))
                                for left, right in itertools.combinations(refs, 2)
                                if mode == "annotated" or draw(st.booleans()))
    return practice, framework, MapConfig(annotations=table, mode=mode,
                                          threshold=draw(st.sampled_from(THRESHOLDS)))


def _refuses_twins(practice, framework, config):
    """Whether the two contexts hold a twin, after checking that ``map_contexts`` refuses it both ways.

    A twin is a framework concept with the context and name of a practice
    concept but not equal to it.
    """
    twins = [f"{framework.id}/{c.name}" for c in framework.concepts if framework.id == practice.id
             and any(p.name == c.name and p != c for p in practice.concepts)]
    if twins:
        for sides in ((practice, framework), (framework, practice)):
            with pytest.raises(UnknownReferenceError, match="|".join(map(re.escape, twins))):
                map_contexts(*sides, config)
    return bool(twins)


_NAMES = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")


@st.composite
def _practice_and_framework_file(draw):
    """A practice context, and a framework concept file declaring its concepts in a drawn order.

    A framework concept sometimes copies the attribute texts of a practice
    concept or of an earlier framework concept, with the same or other
    objects, so equal similarities with equal or different relations are
    common.
    """
    practice = draw(_contexts())
    bodies = [([a.text for a in c.attributes], [o.text for o in c.objects]) for c in practice.concepts]
    names = draw(st.permutations(_NAMES))[:draw(st.integers(1, len(_NAMES)))]
    labels = st.lists(st.sampled_from(("one", "two")), max_size=2, unique=True)
    lines = ["context: F"]
    for name in names:
        if draw(st.booleans()):
            texts, objects = draw(st.sampled_from(bodies))
            if draw(st.booleans()):
                objects = draw(labels)
        else:
            texts, objects = draw(st.lists(_texts, min_size=1, max_size=4)), draw(labels)
        bodies.append((texts, objects))
        lines.append(f"concept: {name}")
        lines += [f"attr a{i + 1}: {t}" for i, t in enumerate(texts)]
        lines += [f"obj o{i + 1}: {t}" for i, t in enumerate(objects)]
        lines.append("end")
    return practice, "\n".join(lines) + "\n"


class TestMapPair:
    def test_annotated_same_reference_needs_no_table_row(self):
        c1 = Concept("C", (AttributeStatement("a1", "team builds the product"),))
        result = map_pair("X", c1, "X", c1._replace(), MapConfig(annotations=AnnotationTable(()), mode="annotated"))
        ref = AttrRef("X", "C", "a1")
        assert result.match_set.pairs == (CandidatePair(ref, ref, 3),)
        assert (result.similarity_pct, result.relation) == (100, "equivalent")

    @pytest.mark.parametrize("mode", MODES)
    def test_two_concepts_under_one_reference_are_refused(self, mode):
        a = simple_concept("A", ["backlog items are ordered by value"])
        twin = simple_concept("A", ["the team meets every morning"])
        config = MapConfig(annotations=AnnotationTable(()), mode=mode)
        for call in (lambda: map_contexts(SemanticContext("X", [a]), SemanticContext("X", [twin]), config),
                     lambda: map_pair("X", a, "X", twin, config)):
            with pytest.raises(UnknownReferenceError, match="X/A$") as refusal:
                call()
            assert isinstance(refusal.value, EssenceMapError)
        # Under another context id the same pair shares nothing.
        (result,) = map_contexts(SemanticContext("X", [a]), SemanticContext("Y", [twin]), config).results
        assert result == map_pair("X", a, "Y", twin, config)
        assert (result.similarity_pct, result.relation) == (0, "independent")

    def test_case_study_pair(self, essence_context, scrum_context, tuned_lexicon, table1_annotations):
        config = MapConfig(tuned_lexicon, table1_annotations, mode="annotated", threshold=2)
        result = map_pair(
            "Scrum",
            scrum_context.concept("ProductBacklog"),
            "EF",
            essence_context.concept("Requirements"),
            config,
        )
        assert result.similarity_pct == Fraction(100, 3)
        assert result.relation == "related"
        assert {(p.left.attr, p.right.attr) for p in result.match_set.pairs} == {
            ("b3", "a3"),
            ("b4", "a4"),
            ("b6", "a6"),
        }

    def test_self_copy_is_equivalent(self):
        concept = simple_concept("Thing", ["is small", "is fast and light"])
        config = MapConfig(mode="heuristic")
        result = map_pair("X", concept, "X", concept, config)
        assert result.similarity_pct == 100
        assert result.relation == "equivalent"

    def test_no_candidates_means_independent(self):
        left = simple_concept("A", ["is entirely about gardening"])
        right = simple_concept("B", ["concerns deep sea navigation"], prefix="b")
        result = map_pair("X", left, "Y", right, MapConfig(mode="heuristic"))
        assert result.similarity_pct == 0
        assert result.relation == "independent"

    def test_empty_attributes_error_names_concept(self):
        left = Concept("Empty")
        right = simple_concept("B", ["is fine"], prefix="b")
        with pytest.raises(NoAttributesError, match="X/Empty"):
            map_pair("X", left, "Y", right, MapConfig(mode="heuristic"))

    def test_sub_concept_classification(self):
        wide = simple_concept("Wide", ["team is running fast", "product is small"])
        narrow = simple_concept("Narrow", ["team is running fast"], prefix="b")
        result = map_pair("X", wide, "Y", narrow, MapConfig(mode="heuristic"))
        assert result.relation == "sub-concept"
        mirrored = map_pair("Y", narrow, "X", wide, MapConfig(mode="heuristic"))
        assert mirrored.relation == "super-concept"

    def test_verbless_statements_reported(self):
        left = SemanticContext("X", (simple_concept("A", ["nominal phrase alpha product"]),))
        right = SemanticContext(
            "Y", (simple_concept("B", ["product is nominal phrase alpha"], prefix="b"),)
        )
        report = map_contexts(left, right, MapConfig(mode="heuristic"))
        assert report.diagnostics == ("no verb found in X/A.a1; predicate similarity disabled",)


class TestMapContexts:
    def test_case_study_report(self, essence_context, scrum_context, tuned_lexicon, table1_annotations):
        config = MapConfig(tuned_lexicon, table1_annotations, mode="annotated", threshold=2)
        report = map_contexts(scrum_context, essence_context, config)
        assert len(report.results) == 1
        best = report.best_matches[0]
        assert (best.practice, best.framework) == ("ProductBacklog", "Requirements")
        assert best.similarity_pct == Fraction(100, 3)

    def test_cross_product_size(self):
        practice = SemanticContext(
            "P",
            (
                simple_concept("One", ["is one"]),
                simple_concept("Two", ["is two"]),
            ),
        )
        framework = SemanticContext(
            "F",
            (
                simple_concept("Alpha", ["is one"], prefix="b"),
                simple_concept("Beta", ["is two"], prefix="b"),
                simple_concept("Gamma", ["is three"], prefix="b"),
            ),
        )
        report = map_contexts(practice, framework, MapConfig(mode="heuristic"))
        assert len(report.results) == 6
        ordering = [(r.left, r.right) for r in report.results]
        assert ordering == sorted(ordering)

    def test_every_concept_is_held_before_the_first_sweep(self, monkeypatch):
        # A hold clears the sweep records: a framework concept held inside the pair loop would
        # sweep the first practice concept again for each framework concept, with the same report.
        rows = []
        row = AnnotationTable.row
        monkeypatch.setattr(AnnotationTable, "row", lambda self, ref: rows.append(ref) or row(self, ref))
        rng = random.Random(7)
        for _ in range(3):
            practice, framework = contexts = [make_random_context(rng, index) for index in range(2)]
            assert min(len(context.concepts) for context in contexts) >= 2
            rows.clear()
            map_contexts(practice, framework, MapConfig(annotations=AnnotationTable(), mode="hybrid"))
            assert sorted(rows) == sorted(AttrRef(practice.id, concept.name, attr.id)
                                          for concept in practice.concepts for attr in concept.attributes)

    def test_self_mapping_best_match_is_self(self):
        rng = random.Random(0xBEEF)
        for index in range(10):
            context = make_random_context(rng, index)
            report = map_contexts(context, context, MapConfig(mode="heuristic"))
            for best in report.best_matches:
                assert best.framework == best.practice
                assert best.similarity_pct == 100

    def test_best_match_tie_goes_to_the_higher_relation(self):
        # Both concepts map onto each other at 100%, but only the self-pair
        # is equivalent; "Alpha" would win a tie broken by name alone.
        attrs = simple_concept("Any", ["team is small", "product is fast"]).attributes
        alpha = Concept("Alpha", attrs, (ObjectInstance("o1", "one"),))
        beta = Concept("Beta", attrs, (ObjectInstance("o1", "two"),))
        context = SemanticContext("X", (alpha, beta))
        report = map_contexts(context, context, MapConfig(mode="heuristic"))
        assert {r.right: r.relation for r in report.results if r.left == "X/Beta"} == {
            "X/Alpha": "related",
            "X/Beta": "equivalent",
        }
        assert [(b.practice, b.framework) for b in report.best_matches] == [
            ("Alpha", "Alpha"),
            ("Beta", "Beta"),
        ]

    def test_self_mapping_tie_goes_to_the_smaller_name(self):
        # Same attribute texts and objects: each is 100% equivalent to the
        # other, so Beta's best match is Alpha, not itself.
        attrs = simple_concept("Any", ["team is small", "product is fast"]).attributes
        objects = (ObjectInstance("o1", "one"),)
        context = SemanticContext("X", (Concept("Alpha", attrs, objects), Concept("Beta", attrs, objects)))
        report = map_contexts(context, context, MapConfig(mode="heuristic"))
        assert {r.right: (r.similarity_pct, r.relation) for r in report.results if r.left == "X/Beta"} == {
            "X/Alpha": (100, "equivalent"),
            "X/Beta": (100, "equivalent"),
        }
        assert [(b.practice, b.framework, b.similarity_pct) for b in report.best_matches] == [
            ("Alpha", "Alpha", 100),
            ("Beta", "Alpha", 100),
        ]

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("mode", ["heuristic", "hybrid"])
    @given(context=_contexts())
    def test_self_mapping_is_100_percent(self, mode, threshold, context):
        table = AnnotationTable(()) if mode == "hybrid" else None
        report = map_contexts(context, context, MapConfig(annotations=table, mode=mode, threshold=threshold))
        diagonal = [r for r in report.results if r.left == r.right]
        assert len(diagonal) == len(context.concepts)
        assert all((r.similarity_pct, r.relation) == (100, "equivalent") for r in diagonal)
        assert all(b.similarity_pct == 100 for b in report.best_matches)

    @given(case=_practice_and_framework_file(), threshold=st.sampled_from(THRESHOLDS))
    def test_best_match_is_the_written_tie_rule(self, case, threshold):
        # Highest similarity, then the relation that comes first, then the smaller name.
        practice, framework_text = case
        report = map_contexts(practice, parse_concepts(framework_text),
                              MapConfig(mode="heuristic", threshold=threshold))
        for best in report.best_matches:
            row = [r for r in report.results if r.left == f"X/{best.practice}"]
            top = min(row, key=lambda r: (-r.similarity_pct, RELATION_LABELS.index(r.relation),
                                          r.right.partition("/")[2]))
            assert (best.framework, best.similarity_pct) == (top.right.partition("/")[2], top.similarity_pct)

    # Each text shares no word with another, and an ``is`` statement scores 2
    # against its own text (subject and object), so at threshold 2 exactly
    # the equal texts match.
    _SOLO = ("team is small", "product is fast", "sailor is brave", "river is deep", "castle is old",
             "garden is green", "engine is loud", "window is clear", "forest is dark")

    @pytest.mark.parametrize("practice, framework, expected", [
        pytest.param(
            # 50% as 1 of 2 (Beta, sub-concept) and as 2 of 4 (Alpha, super-concept):
            # the relation beats the smaller name.
            (0, 1), {"Alpha": (0, 1, 2, 3), "Beta": (0,), "Gamma": (0, 4)},
            ("Beta", Fraction(50), {"Alpha": "super-concept", "Beta": "sub-concept"}),
            id="relation-decides"),
        pytest.param(
            # 25% as 2 of 8 (Alpha) and as 1 of 4 (Beta), both related: the smaller name wins.
            (0, 1, 2), {"Alpha": (0, 1, 3, 4, 5, 6, 7), "Beta": (0, 3), "Gamma": (0, 3, 4, 5, 6)},
            ("Alpha", Fraction(25), {"Alpha": "related", "Beta": "related"}),
            id="name-decides"),
    ])
    def test_best_match_compares_equal_similarities_with_different_terms(self, practice, framework,
                                                                         expected):
        # Gamma is at 100/3% or 100/7%: below the tie, but with the larger numerator.
        def texts(picks):
            return [self._SOLO[i] for i in picks]

        report = map_contexts(
            SemanticContext("P", (simple_concept("Plan", texts(practice)),)),
            SemanticContext("F", tuple(simple_concept(name, texts(picks), prefix="b")
                                       for name, picks in framework.items())),
            MapConfig(mode="heuristic", threshold=2),
        )
        framework_name, pct, relations = expected
        row = {r.right.partition("/")[2]: r for r in report.results}
        assert {name: row[name].relation for name in relations} == relations
        alpha, beta = row["Alpha"].similarity_pct, row["Beta"].similarity_pct
        assert alpha == beta == pct and alpha is not beta
        assert row["Gamma"].similarity_pct < pct and row["Gamma"].similarity_pct.numerator > pct.numerator
        assert [(b.framework, b.similarity_pct) for b in report.best_matches] == [(framework_name, pct)]

    def test_empty_context_rejected(self):
        empty = SemanticContext("E")
        other = SemanticContext("O", (simple_concept("X", ["is x"]),))
        with pytest.raises(EmptyContextError, match="'E' has no concepts"):
            map_contexts(empty, other, MapConfig(mode="heuristic"))
        with pytest.raises(EmptyContextError, match="'E' has no concepts"):
            map_contexts(other, empty, MapConfig(mode="heuristic"))

    @staticmethod
    def _pair_results(practice, framework, config):
        """``pair_result`` on each pair in sorted-name order, one scorer for all; stops at the first error."""
        scorer = config.make_scorer()
        for c1 in sorted(practice.concepts, key=lambda c: c.name):
            for c2 in sorted(framework.concepts, key=lambda c: c.name):
                yield pair_result(practice.id, c1, framework.id, c2,
                                  candidate_pairs(practice.id, c1, framework.id, c2, scorer, config.threshold))

    @pytest.mark.parametrize("practice, framework, message", [
        pytest.param({"Beta": [], "Alpha": ["team is small"]}, {"Gamma": ["team is small"], "Delta": ["is x"]},
                     "concept P/Beta has no attributes", id="practice"),
        pytest.param({"Alpha": ["team is small"]}, {"Delta": ["team is small"], "Zeta": []},
                     "concept F/Zeta has no attributes", id="framework"),
        # Alpha x Gamma fails first, on its framework side, before the practice concept Beta is reached.
        pytest.param({"Beta": [], "Alpha": ["team is small"]}, {"Omega": ["team is small"], "Gamma": []},
                     "concept F/Gamma has no attributes", id="both-framework-first"),
        pytest.param({"Alpha": [], "Beta": ["team is small"]}, {"Gamma": [], "Omega": ["team is small"]},
                     "concept P/Alpha has no attributes", id="both-practice-first"),
    ])
    def test_an_attribute_less_concept_raises_as_its_first_pair_would(self, practice, framework, message):
        contexts = [SemanticContext(context_id, tuple(simple_concept(name, texts) for name, texts in concepts.items()))
                    for context_id, concepts in (("P", practice), ("F", framework))]
        config = MapConfig(mode="heuristic")
        with pytest.raises(NoAttributesError, match=f"^{re.escape(message)}$"):
            list(self._pair_results(*contexts, config))
        with pytest.raises(NoAttributesError, match=f"^{re.escape(message)}$"):
            map_contexts(*contexts, config)

    @given(case=_mapping_case())
    @example(case=(SemanticContext("X", (simple_concept("Alpha", ["team is small", "product is fast"]),)),
                   SemanticContext("Y", (simple_concept("Beta", ["team is small"], prefix="b"),)),
                   MapConfig(mode="heuristic")))
    def test_every_result_is_its_pair_result(self, case):
        practice, framework, config = case
        assume(any(len(c1.attributes) != len(c2.attributes)
                   for c1 in practice.concepts for c2 in framework.concepts))
        if _refuses_twins(practice, framework, config):
            return
        expected = tuple(self._pair_results(practice, framework, config))
        assert map_contexts(practice, framework, config).results == expected

    def test_swap_mirrors_every_result(self):
        rng = random.Random(0xFACE)
        for index in range(8):
            practice = make_random_context(rng, index * 2)
            framework = make_random_context(rng, index * 2 + 1)
            config = MapConfig(mode="heuristic")
            forward = map_contexts(practice, framework, config)
            backward = map_contexts(framework, practice, config)
            swaps = {"sub-concept": "super-concept", "super-concept": "sub-concept"}
            mirrored = {
                (r.right, r.left, r.similarity_pct, swaps.get(r.relation, r.relation))
                for r in backward.results
            }
            original = {
                (r.left, r.right, r.similarity_pct, r.relation) for r in forward.results
            }
            assert mirrored == original

    @given(case=_mapping_case())
    def test_swap_mirrors_every_result_on_drawn_contexts(self, case):
        practice, framework, config = case
        if _refuses_twins(practice, framework, config):
            return
        swaps = {"sub-concept": "super-concept", "super-concept": "sub-concept"}
        mirrored = {(r.right, r.left, r.similarity_pct, swaps.get(r.relation, r.relation))
                    for r in map_contexts(framework, practice, config).results}
        assert mirrored == {(r.left, r.right, r.similarity_pct, r.relation)
                            for r in map_contexts(practice, framework, config).results}

    def test_labels_agree_with_predicates(self):
        rng = random.Random(0xABCD)
        for index in range(8):
            practice = make_random_context(rng, index * 2)
            framework = make_random_context(rng, index * 2 + 1)
            report = map_contexts(practice, framework, MapConfig(mode="heuristic"))
            lookup = {f"{practice.id}/{c.name}": c for c in practice.concepts}
            lookup.update({f"{framework.id}/{c.name}": c for c in framework.concepts})
            for result in report.results:
                left = lookup[result.left]
                right = lookup[result.right]
                assert result.relation == classify(left, right, result.match_set)
                if result.relation == "independent":
                    assert independent(left, right, result.match_set)
                if result.relation == "related":
                    assert related(left, right, result.match_set)
                    assert not equivalent(left, right, result.match_set)
                    assert not sub_concept(left, right, result.match_set)
                    assert not super_concept(left, right, result.match_set)

    @given(case=_mapping_case())
    def test_labels_agree_with_predicates_on_drawn_contexts(self, case):
        practice, framework, config = case
        if _refuses_twins(practice, framework, config):
            return
        for result in map_contexts(practice, framework, config).results:
            left = practice.concept(result.left.partition("/")[2])
            right = framework.concept(result.right.partition("/")[2])
            assert result.relation == precedence(left, right, result.match_set)
            assert all(pair.level >= config.threshold for pair in result.match_set.pairs)

    def test_labels_follow_the_written_precedence(self):
        # One hand-built pair per label, then seeded random pairs.
        pairs = [
            (["team is small"], ["team is small"]),
            (["team is small", "product is fast"], ["team is small"]),
            (["team is small"], ["team is small", "product is fast"]),
            (["team is small", "product is fast"], ["team is small", "cat is blue"]),
            (["team is small"], ["cat sat on mat"]),
        ]
        config = MapConfig(mode="heuristic")
        labels = [
            map_pair("P", simple_concept("A", left), "F", simple_concept("B", right, "b"), config).relation
            for left, right in pairs
        ]
        assert labels == ["equivalent", "sub-concept", "super-concept", "related", "independent"]
        rng = random.Random(0xABCD)
        for index in range(8):
            practice = make_random_context(rng, index * 2)
            framework = make_random_context(rng, index * 2 + 1)
            report = map_contexts(practice, framework, config)
            lookup = {f"{practice.id}/{c.name}": c for c in practice.concepts}
            lookup.update({f"{framework.id}/{c.name}": c for c in framework.concepts})
            for result in report.results:
                left, right = lookup[result.left], lookup[result.right]
                assert result.relation == precedence(left, right, result.match_set)

    @pytest.mark.parametrize("mode", ["heuristic", "hybrid"])
    def test_diagnostics_name_each_verbless_statement_once(self, mode, tuned_lexicon):
        rng = random.Random(0x5E1F)
        table = AnnotationTable(()) if mode == "hybrid" else None
        noted = 0
        for index in range(60):
            practice = make_random_context(rng, index)
            # every third case maps a context against itself
            framework = practice if index % 3 == 0 else make_random_context(rng, index + 100)
            report = map_contexts(practice, framework, MapConfig(tuned_lexicon, table, mode))
            assert report.diagnostics == verbless_notes((practice, framework), tuned_lexicon)
            noted += len(report.diagnostics)
        assert noted > 0

    def test_annotated_mode_has_no_diagnostics(self):
        context = SemanticContext("X", (simple_concept("A", ["nominal phrase alpha"]),))
        annotated = MapConfig(annotations=AnnotationTable(()), mode="annotated")
        assert map_contexts(context, context, annotated).diagnostics == ()
        assert len(map_contexts(context, context, MapConfig(mode="heuristic")).diagnostics) == 1

    def test_report_is_deterministic(self, essence_context, scrum_context, tuned_lexicon):
        config = MapConfig(tuned_lexicon, mode="heuristic")
        first = map_contexts(scrum_context, essence_context, config)
        second = map_contexts(scrum_context, essence_context, config)
        assert first == second


class TestMappingResultChecks:
    @pytest.mark.parametrize("relation, pct, message", [
        ("independent", Fraction(50), "independent and zero similarity must coincide"),
        ("related", Fraction(0), "independent and zero similarity must coincide"),
        ("related", 0, "independent and zero similarity must coincide"),
        ("equivalent", Fraction(200, 3), "equivalent results must sit at 100%"),
        ("equivalent", Fraction(0), "independent and zero similarity must coincide"),
        ("unrelated", Fraction(50), "unknown relation label 'unrelated'"),
    ])
    def test_rejects_with_its_message(self, relation, pct, message):
        with pytest.raises(ValueError) as info:
            MappingResult("X/A", "Y/B", MatchSet((), 1, 1), pct, relation)
        assert str(info.value) == message

    @pytest.mark.parametrize("relation, pct", [
        ("independent", Fraction(0)), ("independent", 0), ("related", Fraction(1, 3)),
        ("equivalent", Fraction(100)), ("equivalent", 100),
    ])
    def test_accepts(self, relation, pct):
        assert MappingResult("X/A", "Y/B", MatchSet((), 1, 1), pct, relation).similarity_pct == pct
