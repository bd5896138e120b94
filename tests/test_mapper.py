import random
from fractions import Fraction

import pytest

from essencemap import (
    AttributeStatement,
    Concept,
    EmptyContextError,
    MapConfig,
    NoAttributesError,
    ObjectInstance,
    SemanticContext,
    equivalent,
    independent,
    map_contexts,
    map_pair,
    related,
    sub_concept,
    super_concept,
)
from essencemap.mapper import classify

from conftest import make_random_context


def simple_concept(name, texts, prefix="a"):
    return Concept(
        name,
        tuple(AttributeStatement(f"{prefix}{i + 1}", t) for i, t in enumerate(texts)),
    )


class TestMapPair:
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
        left = simple_concept("A", ["nominal phrase alpha product"])
        right = simple_concept("B", ["product is nominal phrase alpha"], prefix="b")
        result = map_pair("X", left, "Y", right, MapConfig(mode="heuristic"))
        assert result.diagnostics == ("no verb found in X/A.a1; predicate similarity disabled",)


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

    def test_empty_context_rejected(self):
        empty = SemanticContext("E")
        other = SemanticContext("O", (simple_concept("X", ["is x"]),))
        with pytest.raises(EmptyContextError, match="'E' has no concepts"):
            map_contexts(empty, other, MapConfig(mode="heuristic"))
        with pytest.raises(EmptyContextError, match="'E' has no concepts"):
            map_contexts(other, empty, MapConfig(mode="heuristic"))

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

    def test_report_is_deterministic(self, essence_context, scrum_context, tuned_lexicon):
        config = MapConfig(tuned_lexicon, mode="heuristic")
        first = map_contexts(scrum_context, essence_context, config)
        second = map_contexts(scrum_context, essence_context, config)
        assert first == second
