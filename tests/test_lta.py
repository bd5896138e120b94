import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from essencemap import (
    AttrRef,
    AttributeStatement,
    CandidatePair,
    Concept,
    Lexicon,
    StatementScorer,
    UnannotatedPairError,
    bundled_path,
    candidate_pairs,
    canonicalize_part,
    extract_spo,
    load_lexicon,
    part_similar,
    score_pair,
)
from essencemap.corpus import AnnotationTable
from essencemap.lta import EMPTY_LEXICON, MODES, NO_VERB_MARKER, stem, tokenize


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("managing /accepting Requirements!") == [
            "managing",
            "accepting",
            "requirements",
        ]

    def test_apostrophes_are_deleted_not_split(self):
        assert tokenize("the product owner’s vision") == [
            "the",
            "product",
            "owners",
            "vision",
        ]
        assert tokenize("owner's") == ["owners"]

    def test_digits_survive(self):
        assert tokenize("state-4 of 12") == ["state", "4", "of", "12"]


class TestStem:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("managing", "manag"),
            ("requirements", "requirement"),
            ("bodies", "body"),
            ("learned", "learn"),
            ("dies", "die"),
            ("it", "it"),  # too short to stem
            ("its", "its"),
            ("state", "state"),
        ],
    )
    def test_examples(self, token, expected):
        assert stem(token) == expected

    def test_fixed_point(self):
        rng = random.Random(7)
        alphabet = "abcdefgs"
        for _ in range(500):
            token = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            assert stem(stem(token)) == stem(token)


class TestExtractSpo:
    def test_explicit_subject(self):
        statement = AttributeStatement(
            "b6",
            "Grooming is important and it refers to creating, refining, "
            "estimating and prioritizing PBIs continually.",
        )
        spo = extract_spo(statement, "ProductBacklog")
        assert spo.subject == ("grooming",)
        assert spo.predicate == ("is",)
        assert spo.object_part[:4] == ("important", "and", "it", "refers")

    def test_owner_fallback_subject(self):
        statement = AttributeStatement("a1", "are the definition of what needs to be achieved")
        spo = extract_spo(statement, "Requirements")
        assert spo.subject == ("requirements",)
        assert spo.predicate == ("are",)
        assert spo.object_part == (
            "the", "definition", "of", "what", "needs", "to", "be", "achieved",
        )

    def test_maximal_verb_run(self):
        spo = extract_spo(AttributeStatement("a2", "must address opportunity"), "Requirements")
        assert spo.predicate == ("must", "address")

    def test_text_after_first_period_joins_object(self):
        spo = extract_spo(
            AttributeStatement("x1", "item is small. second clause here"), "Thing"
        )
        assert spo.predicate == ("is",)
        assert spo.object_part == ("small", "second", "clause", "here")

    def test_verbless_statement_degrades(self):
        spo = extract_spo(AttributeStatement("x1", "purely nominal phrase"), "Thing")
        assert not spo.has_verb
        assert spo.predicate == (NO_VERB_MARKER,)
        assert spo.subject == ("thing",)
        assert spo.object_part == ("purely", "nominal", "phrase")

    def test_lexicon_extra_verbs_shift_the_split(self):
        lexicon = Lexicon(extra_verbs=frozenset({"grooms"}))
        spo = extract_spo(AttributeStatement("x1", "team grooms the backlog"), "Thing", lexicon)
        assert spo.subject == ("team",)
        assert spo.predicate == ("grooms",)


class TestCanonicalizePart:
    def test_stems_and_drops_stopwords(self):
        assert canonicalize_part(["managing", "requirements"]) == {"manag", "requirement"}
        assert canonicalize_part(["the", "of", "and"]) == frozenset()
        assert canonicalize_part(["requirement"]) == {"requirement"}

    def test_marker_never_survives(self):
        assert canonicalize_part([NO_VERB_MARKER]) == frozenset()

    def test_synonym_groups_fold_after_stemming(self):
        lexicon = Lexicon(synonym_groups=(("manage", "managing", "determining"),))
        assert canonicalize_part(["determining"], lexicon) == {"manage"}
        assert canonicalize_part(["managed"], lexicon) == {"manage"}

    def test_idempotent_on_seeded_random_tokens(self):
        lexicon = Lexicon(
            synonym_groups=(("manage", "managing"), ("the-one", "houses")),
            extra_stopwords=frozenset({"noise"}),
        )
        rng = random.Random(11)
        pool = ["managing", "houses", "noise", "whats", "its", "dies", "requirements",
                "the", "abstractions", "press", "hou"]
        for _ in range(300):
            tokens = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            once = canonicalize_part(tokens, lexicon)
            again = canonicalize_part(sorted(once), lexicon)
            assert once == again


class TestPartSimilar:
    def test_shared_canonical_tokens(self):
        left = tokenize("managing requirements")
        right = tokenize("determining and managing requirements")
        assert part_similar(left, right) is True

    def test_empty_side_is_never_similar(self):
        assert part_similar([], ["anything"]) is False
        assert part_similar(["the"], ["the"]) is False  # both canonicalize empty

    def test_symmetry_seeded(self):
        rng = random.Random(23)
        pool = ["manage", "items", "the", "grooming", "states", "vision", "refining"]
        for _ in range(200):
            a = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            b = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            assert part_similar(a, b) == part_similar(b, a)


def _refs(aid, bid):
    return (
        AttrRef("EF", "Requirements", aid),
        AttrRef("Scrum", "ProductBacklog", bid),
    )


class TestScorePair:
    def test_identical_statement_scores_3(self):
        left = AttrRef("X", "Thing", "a1")
        statement = AttributeStatement("a1", "team is building the product")
        assert score_pair(left, statement, left, statement) == 3

    def test_annotated_mode_reads_table(self, essence_context, scrum_context, table1_annotations):
        a3 = essence_context.concept("Requirements").attribute("a3")
        b3 = scrum_context.concept("ProductBacklog").attribute("b3")
        left, right = _refs("a3", "b3")
        level = score_pair(left, a3, right, b3, annotations=table1_annotations, mode="annotated")
        assert level == 2
        a1 = essence_context.concept("Requirements").attribute("a1")
        b1 = scrum_context.concept("ProductBacklog").attribute("b1")
        left, right = _refs("a1", "b1")
        assert score_pair(left, a1, right, b1, annotations=table1_annotations, mode="annotated") == 1

    def test_annotated_mode_gap_raises(self):
        left = AttrRef("X", "A", "a1")
        right = AttrRef("Y", "B", "b1")
        statement = AttributeStatement("a1", "is something")
        table = AnnotationTable(())
        with pytest.raises(UnannotatedPairError, match="unannotated pair"):
            score_pair(left, statement, right, statement, annotations=table, mode="annotated")

    def test_hybrid_falls_back_to_heuristic(self):
        left = AttrRef("X", "Thing", "a1")
        right = AttrRef("Y", "Other", "b1")
        s1 = AttributeStatement("a1", "team is building the product")
        s2 = AttributeStatement("b1", "group is shipping the product")
        table = AnnotationTable(((left, right, 0),))
        # annotation present: wins over the heuristic
        assert score_pair(left, s1, right, s2, annotations=table, mode="hybrid") == 0
        other = AttrRef("Y", "Other", "b2")
        # annotation absent: heuristic applies
        assert score_pair(left, s1, other, s2, annotations=table, mode="hybrid") > 0

    def test_symmetry_and_range_seeded(self, tuned_lexicon):
        rng = random.Random(31)
        pool = [
            "is a prioritized list",
            "mechanisms for managing requirements need care",
            "progress through states",
            "grooming is important",
            "nominal phrase only",
            "must address opportunity and satisfy stakeholders",
        ]
        for index in range(200):
            s1 = AttributeStatement("a1", rng.choice(pool))
            s2 = AttributeStatement("b1", rng.choice(pool))
            left = AttrRef("X", rng.choice(["Alpha", "Beta"]), "a1")
            right = AttrRef("Y", rng.choice(["Gamma", "Delta"]), "b1")
            forward = score_pair(left, s1, right, s2, tuned_lexicon)
            backward = score_pair(right, s2, left, s1, tuned_lexicon)
            assert forward == backward
            assert forward in (0, 1, 2, 3)

    def test_lexicon_monotone_adding_synonym_group(self):
        rng = random.Random(47)
        pool = ["mechanism", "backlog", "vision", "refining", "evolve", "stakeholders",
                "grooming", "states", "items", "opportunity"]
        for _ in range(100):
            s1 = AttributeStatement("a1", " ".join(rng.sample(pool, 3)))
            s2 = AttributeStatement("b1", " ".join(rng.sample(pool, 3)))
            left = AttrRef("X", "Alpha", "a1")
            right = AttrRef("Y", "Beta", "b1")
            base = Lexicon()
            before = score_pair(left, s1, right, s2, base)
            group = tuple(rng.sample(pool, 2))
            try:
                grown = Lexicon(synonym_groups=(group,))
            except ValueError:
                continue  # the sampled pair collides after stemming
            after = score_pair(left, s1, right, s2, grown)
            assert after >= before


class TestLexiconValidation:
    def test_token_in_two_groups(self):
        with pytest.raises(ValueError, match="two synonym groups"):
            Lexicon(synonym_groups=(("a1x", "b1x"), ("b1x", "c1x")))

    def test_duplicate_token_within_group(self):
        with pytest.raises(ValueError, match="duplicate token"):
            Lexicon(synonym_groups=(("same", "same"),))

    def test_stem_collision_across_groups(self):
        with pytest.raises(ValueError, match="stemmed form"):
            Lexicon(synonym_groups=(("cat", "dog"), ("cats", "bird")))


class TestStatementScorer:
    def test_requires_table_for_annotated_mode(self):
        with pytest.raises(ValueError, match="annotation table"):
            StatementScorer(mode="annotated")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scoring mode"):
            StatementScorer(mode="magic")

    def test_tracks_verbless_statements(self):
        scorer = StatementScorer(EMPTY_LEXICON, mode="heuristic")
        ref = AttrRef("X", "Thing", "a1")
        (a,) = scorer.profile("X", Concept("Thing", (AttributeStatement("a1", "nominal phrase"),)))
        (b,) = scorer.profile("Y", Concept("Other", (AttributeStatement("b1", "is fine"),)))
        scorer.level(a, b)
        assert scorer.verbless_refs == {ref}


LEXICON = load_lexicon(bundled_path("paper.lex"))

_WORDS = (
    "requirements product backlog managing items grooming vision states stakeholders "
    "is are must need progress provides refers the of and to be"
).split()

_texts = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=7).map(" ".join)


@st.composite
def _concept(draw, name, prefix):
    texts = draw(st.lists(_texts, min_size=1, max_size=5))
    return Concept(name, tuple(AttributeStatement(f"{prefix}{i + 1}", t) for i, t in enumerate(texts)))


def _attr_refs(context, concept):
    return [AttrRef(context, concept.name, attr.id) for attr in concept.attributes]


@st.composite
def _scoring_case(draw, mode, complete=True):
    """(table, (context, concept) x 2) for ``mode``; sometimes a concept against itself.

    Annotated mode gets a level for every distinct pair unless ``complete``
    is false (then one pair of two distinct concepts is left out), hybrid
    mode a random subset, heuristic mode no table.
    """
    c1 = draw(_concept("Alpha", "a"))
    self_map = complete and draw(st.booleans())
    ctx2, c2 = ("X", c1) if self_map else ("Y", draw(_concept("Beta", "b")))
    keys = {frozenset((r1, r2)): (r1, r2)
            for r1 in _attr_refs("X", c1) for r2 in _attr_refs(ctx2, c2) if r1 != r2}
    pairs = [keys[k] for k in sorted(keys, key=sorted)]
    if mode == "hybrid":
        pairs = [p for p in pairs if draw(st.booleans())]
    elif mode == "annotated" and not complete:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    table = None
    if mode != "heuristic":
        table = AnnotationTable((l, r, draw(st.integers(0, 3))) for l, r in pairs)
    return table, ("X", c1), (ctx2, c2)


_any_mode_case = st.sampled_from(MODES).flatmap(lambda mode: st.tuples(st.just(mode), _scoring_case(mode)))


class TestScoringProperties:
    @given(case=_any_mode_case)
    def test_level_is_symmetric(self, case):
        mode, (table, side1, side2) = case
        scorer = StatementScorer(LEXICON, table, mode)
        for a in scorer.profile(*side1):
            for b in scorer.profile(*side2):
                assert scorer.level(a, b) == scorer.level(b, a) in (0, 1, 2, 3)

    @given(text=_texts, mode=st.sampled_from(MODES))
    def test_statement_scores_3_against_itself(self, text, mode):
        statement = AttributeStatement("a1", text)
        scorer = StatementScorer(LEXICON, AnnotationTable(()), mode)
        (row,) = scorer.profile("X", Concept("Thing", (statement,)))
        assert scorer.profile("X", Concept("Thing", (AttributeStatement("a1", text),)))[0] is row
        assert scorer.level(row, row) == 3
        ref = AttrRef("X", "Thing", "a1")
        assert score_pair(ref, statement, ref, statement, LEXICON, AnnotationTable(()), mode) == 3

    @given(case=_any_mode_case, threshold=st.integers(1, 3))
    def test_candidate_pairs_equals_per_pair_scan(self, case, threshold):
        mode, (table, (ctx1, c1), (ctx2, c2)) = case
        expected = []
        for s1, left in zip(c1.attributes, _attr_refs(ctx1, c1)):
            for s2, right in zip(c2.attributes, _attr_refs(ctx2, c2)):
                level = score_pair(left, s1, right, s2, LEXICON, table, mode)
                if level >= threshold:
                    expected.append(CandidatePair(left, right, level))
        expected.sort(key=lambda p: (-p.level, p.left, p.right))
        scorer = StatementScorer(LEXICON, table, mode)
        assert candidate_pairs(ctx1, c1, ctx2, c2, scorer, threshold) == expected

    @given(case=_scoring_case("annotated", complete=False))
    def test_unannotated_pair_raises_in_annotated_mode(self, case):
        table, (ctx1, c1), (ctx2, c2) = case
        scorer = StatementScorer(LEXICON, table, "annotated")
        with pytest.raises(UnannotatedPairError, match="unannotated pair"):
            candidate_pairs(ctx1, c1, ctx2, c2, scorer, 1)
