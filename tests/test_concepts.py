import random
from fractions import Fraction

import pytest

from essencemap import (
    AttrRef,
    AttributeStatement,
    CandidatePair,
    Concept,
    MatchSet,
    NoAttributesError,
    ObjectInstance,
    SemanticContext,
    equivalent,
    independent,
    related,
    similarity,
    sub_concept,
    super_concept,
)

from matching_oracle import mirror


def concept(name, n_attrs, objects=(), prefix="a"):
    attrs = tuple(
        AttributeStatement(f"{prefix}{i + 1}", f"text number {i + 1}") for i in range(n_attrs)
    )
    objs = tuple(ObjectInstance(f"o{i + 1}", text) for i, text in enumerate(objects))
    return Concept(name, attrs, objs)


def match(left_name, right_name, id_pairs, left_size, right_size, level=2):
    pairs = tuple(
        CandidatePair(AttrRef("L", left_name, a), AttrRef("R", right_name, b), level)
        for a, b in id_pairs
    )
    return MatchSet(pairs, left_size, right_size)


@pytest.fixture
def case_study():
    c1 = concept("Requirements", 6, prefix="a")
    c2 = concept("ProductBacklog", 6, prefix="b")
    m = match("Requirements", "ProductBacklog", [("a3", "b3"), ("a4", "b4"), ("a6", "b6")], 6, 6)
    return c1, c2, m


class TestAttrRef:
    def test_parse_roundtrip(self):
        ref = AttrRef.parse("EF/Requirements.a3")
        assert ref == AttrRef("EF", "Requirements", "a3")
        assert str(ref) == "EF/Requirements.a3"

    @pytest.mark.parametrize("bad", ["", "EF/Requirements", "Requirements.a3", "EF/.a3", "/x.a1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            AttrRef.parse(bad)


class TestTypeInvariants:
    def test_context_id_rules(self):
        with pytest.raises(ValueError):
            SemanticContext("")
        with pytest.raises(ValueError):
            SemanticContext("has space")
        with pytest.raises(ValueError):
            SemanticContext("a/b")

    def test_duplicate_concept_names(self):
        with pytest.raises(ValueError, match="duplicate concept name"):
            SemanticContext("EF", (concept("X", 1), concept("X", 2)))

    def test_attribute_id_pattern(self):
        with pytest.raises(ValueError):
            AttributeStatement("A1", "text")
        with pytest.raises(ValueError):
            AttributeStatement("1a", "text")
        with pytest.raises(ValueError):
            AttributeStatement("a1", "   ")

    def test_concept_name_is_one_token(self):
        # ``pair:`` lines and ``ctx/Name`` references split on whitespace
        with pytest.raises(ValueError, match="single token with no whitespace"):
            Concept("Product Backlog")
        with pytest.raises(ValueError, match="single token with no whitespace"):
            Concept("Product\tBacklog")
        assert Concept("  ProductBacklog ").name == "ProductBacklog"

    def test_duplicate_attribute_ids(self):
        attrs = (AttributeStatement("a1", "x"), AttributeStatement("a1", "y"))
        with pytest.raises(ValueError, match="duplicate attribute id"):
            Concept("C", attrs)

    def test_duplicate_object_ids(self):
        objs = (ObjectInstance("o1", "x"), ObjectInstance("o1", "y"))
        with pytest.raises(ValueError, match="duplicate object id"):
            Concept("C", (AttributeStatement("a1", "x"),), objs)


class TestRelated:
    def test_case_study_pair_is_related(self, case_study):
        c1, c2, m = case_study
        assert related(c1, c2, m) is True

    def test_empty_match_not_related(self):
        c1, c2 = concept("A", 2), concept("B", 3, prefix="b")
        m = MatchSet((), 2, 3)
        assert related(c1, c2, m) is False

    def test_self_identity_related(self):
        c = concept("A", 3)
        m = match("A", "A", [("a1", "a1"), ("a2", "a2"), ("a3", "a3")], 3, 3)
        assert related(c, c, m) is True

    def test_independent_is_negation(self, case_study):
        c1, c2, m = case_study
        assert independent(c1, c2, m) is (not related(c1, c2, m))
        empty = MatchSet((), 6, 6)
        assert independent(c1, c2, empty) is True


class TestSimilarity:
    def test_case_study_value(self, case_study):
        c1, c2, m = case_study
        assert similarity(c1, c2, m) == Fraction(100, 3)

    def test_full_identity_is_100(self):
        c = concept("A", 4)
        m = match("A", "A", [(f"a{i}", f"a{i}") for i in range(1, 5)], 4, 4)
        assert similarity(c, c, m) == 100

    def test_no_matches_is_0(self):
        c1, c2 = concept("A", 2), concept("B", 3, prefix="b")
        assert similarity(c1, c2, MatchSet((), 2, 3)) == 0

    @pytest.mark.parametrize("n1, n2, k", [(1, 1, 0), (1, 1, 1), (3, 4, 2), (0, 5, 0), (8, 8, 3)])
    def test_exact_value_of_the_formula(self, n1, n2, k):
        c1, c2 = concept("A", n1), concept("B", n2, prefix="b")
        m = match("A", "B", [(f"a{i}", f"b{i}") for i in range(1, k + 1)], n1, n2)
        value = similarity(c1, c2, m)
        assert type(value) is Fraction and value == Fraction(100 * k, n1 + n2 - k)
        assert similarity(c1, c2, m) == value

    def test_both_empty_errors(self):
        c1, c2 = Concept("A"), Concept("B")
        with pytest.raises(NoAttributesError, match="no attributes to compare"):
            similarity(c1, c2, MatchSet((), 0, 0))


class TestEquivalent:
    def test_case_study_not_equivalent(self, case_study):
        c1, c2, m = case_study
        assert equivalent(c1, c2, m) is False

    def test_exact_copy_equivalent(self):
        c = concept("A", 2, objects=("First thing", "second  THING"))
        copy = concept("A", 2, objects=("first thing", "Second thing"))
        m = match("A", "A", [("a1", "a1"), ("a2", "a2")], 2, 2)
        assert equivalent(c, copy, m) is True  # labels compare normalized

    def test_differing_objects_not_equivalent(self):
        c1 = concept("A", 2, objects=("one",))
        c2 = concept("A", 2, objects=("two",))
        m = match("A", "A", [("a1", "a1"), ("a2", "a2")], 2, 2)
        assert equivalent(c1, c2, m) is False


class TestSubSuper:
    def test_contained_intension(self):
        c1 = concept("Big", 4)
        c2 = concept("Small", 2, prefix="b")
        m = match("Big", "Small", [("a1", "b1"), ("a2", "b2")], 4, 2)
        assert sub_concept(c1, c2, m) is True
        assert super_concept(c2, c1, mirror(m)) is True

    def test_self_is_not_sub_concept(self):
        c = concept("A", 3)
        m = match("A", "A", [(f"a{i}", f"a{i}") for i in range(1, 4)], 3, 3)
        assert sub_concept(c, c, m) is False

    def test_case_study_not_sub(self, case_study):
        c1, c2, m = case_study
        assert sub_concept(c1, c2, m) is False
        assert super_concept(c1, c2, m) is False


def _random_setup(rng):
    n1 = rng.randint(1, 6)
    n2 = rng.randint(1, 6)
    c1 = concept("Left", n1, prefix="a")
    c2 = concept("Right", n2, prefix="b")
    k = rng.randint(0, min(n1, n2))
    lefts = rng.sample(range(1, n1 + 1), k)
    rights = rng.sample(range(1, n2 + 1), k)
    m = match(
        "Left",
        "Right",
        [(f"a{i}", f"b{j}") for i, j in zip(lefts, rights)],
        n1,
        n2,
        level=rng.randint(2, 3),
    )
    return c1, c2, m


class TestRelationalInvariants:
    def test_seeded_random_invariants(self):
        rng = random.Random(0xE55E)
        for _ in range(300):
            c1, c2, m = _random_setup(rng)
            sim = similarity(c1, c2, m)
            assert 0 <= sim <= 100
            assert related(c1, c2, m) == (sim > 0)
            assert independent(c1, c2, m) == (sim == 0)
            k = len(m.pairs)
            assert (sim == 100) == (k == len(c1.attributes) == len(c2.attributes))
            if equivalent(c1, c2, m):
                assert sim == 100
            assert not (sub_concept(c1, c2, m) and super_concept(c1, c2, m))
            assert sub_concept(c1, c2, m) == super_concept(c2, c1, mirror(m))
            # symmetric under mirroring
            assert similarity(c2, c1, mirror(m)) == sim

    def test_unmatched_attribute_strictly_decreases_similarity(self):
        rng = random.Random(0xADD)
        for _ in range(100):
            c1, c2, m = _random_setup(rng)
            if not m.pairs:
                continue
            grown = Concept(
                c1.name,
                c1.attributes + (AttributeStatement("zz9", "fresh unmatched statement"),),
            )
            grown_match = MatchSet(m.pairs, m.left_size + 1, m.right_size)
            assert similarity(grown, c2, grown_match) < similarity(c1, c2, m)


class TestMatchSetValidation:
    def test_rejects_duplicate_left(self):
        pairs = (
            CandidatePair(AttrRef("L", "A", "a1"), AttrRef("R", "B", "b1"), 2),
            CandidatePair(AttrRef("L", "A", "a1"), AttrRef("R", "B", "b2"), 2),
        )
        with pytest.raises(ValueError, match="bijective"):
            MatchSet(pairs, 3, 3)

    def test_rejects_oversized(self):
        pairs = (CandidatePair(AttrRef("L", "A", "a1"), AttrRef("R", "B", "b1"), 2),)
        with pytest.raises(ValueError, match="exceeds"):
            MatchSet(pairs, 1, 0)

    @pytest.mark.parametrize("sizes", [(-1, 0), (0, -1)])
    def test_rejects_a_negative_size_with_no_pairs(self, sizes):
        with pytest.raises(ValueError) as info:
            MatchSet((), *sizes)
        assert str(info.value) == "attribute set sizes must be non-negative"

    def test_empty_match_sets_compare_by_their_sizes(self):
        assert MatchSet((), 0, 0).pairs == ()
        for sizes in ((0, 0), (2, 3)):
            a, b = MatchSet((), *sizes), MatchSet([], *sizes)
            assert a == b and hash(a) == hash(b)
        assert MatchSet((), 2, 3) != MatchSet((), 3, 2)

    def test_replace_checks_the_sizes(self):
        with pytest.raises(ValueError, match="exceeds"):
            match("A", "B", [("a1", "b1")], 1, 1)._replace(right_size=0)

    def test_replace_sorts_the_new_pairs(self):
        unsorted = match("A", "B", [("a2", "b1"), ("a1", "b2")], 2, 2).pairs[::-1]
        assert list(unsorted) != sorted(unsorted)
        assert MatchSet((), 2, 2)._replace(pairs=unsorted).pairs == tuple(sorted(unsorted))

    def test_mirror_swaps_everything(self):
        m = match("A", "B", [("a1", "b2"), ("a2", "b1")], 3, 2)
        back = mirror(m)
        assert back.left_size == 2 and back.right_size == 3
        assert {(p.left.attr, p.right.attr) for p in back.pairs} == {("b2", "a1"), ("b1", "a2")}
        assert mirror(back) == m
