import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from essencemap import (
    AttrRef,
    AttributeStatement,
    CandidatePair,
    Concept,
    Lexicon,
    MapConfig,
    ObjectInstance,
    SemanticContext,
    StatementScorer,
    UnknownReferenceError,
    bundled_path,
    candidate_pairs,
    canonicalize_part,
    extract_spo,
    load_concepts,
    load_lexicon,
    map_contexts,
    map_pair,
    parse_annotations,
)
from essencemap.corpus import AnnotationTable
from essencemap.lta import EMPTY_LEXICON, MODES, add_synonym_group, stem, tokenize
from essencemap.mapper import pair_result
from essencemap.matching import THRESHOLDS

from conftest import attribute, cross_refs, fill_gaps, make_random_context
from lexicon_oracle import reference_canonicalize_part, reference_extract_spo, reference_is_verb


def score_pair(left, s1, right, s2, lexicon=EMPTY_LEXICON, annotations=None, mode="heuristic"):
    """Level of one statement pair under ``mode``.

    Each statement is the only attribute of its concept, profiled by a
    one-off :class:`StatementScorer` of its own, so two statements under
    one concept name are never twins; this is :meth:`StatementScorer.level`
    itself: symmetric, and 3 for a statement against itself.
    """
    scorers = [StatementScorer(lexicon, annotations, mode) for _ in range(2)]
    (a,), (b,) = (scorer.profile(ref.context, Concept(ref.concept, (statement._replace(id=ref.attr),)))
                  for scorer, ref, statement in zip(scorers, (left, right), (s1, s2)))
    return scorers[0].level(a, b)


def twin_of(side1, side2):
    """``context/name`` when ``side2`` is another concept under the context and name of ``side1``, else ``None``."""
    (ctx1, c1), (ctx2, c2) = side1, side2
    return f"{ctx1}/{c1.name}" if (ctx1, c1.name) == (ctx2, c2.name) and c1 != c2 else None


def refused(name):
    """Expect the refusal of a twin, naming its ``context/name``."""
    return pytest.raises(UnknownReferenceError, match=f"named {re.escape(name)}$")


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("managing /accepting Requirements!") == [
            "managing",
            "accepting",
            "requirements",
        ]
        assert tokenize("naïve") == ["na", "ve"]  # only [a-z0-9] runs are kept

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
        assert spo.predicate == ()
        assert spo.subject == ("thing",)
        assert spo.object_part == ("purely", "nominal", "phrase")

    def test_lexicon_extra_verbs_shift_the_split(self):
        lexicon = Lexicon(extra_verbs=frozenset({"grooms"}))
        spo = extract_spo(AttributeStatement("x1", "team grooms the backlog"), "Thing", lexicon)
        assert spo.subject == ("team",)
        assert spo.predicate == ("grooms",)

    # Apostrophes, periods, verb runs and owners that open with a verb.
    _WORDS = ("team", "owner's", "Team’s", "'", "’s", "backlog", "is", "Are", "must", "address", "needs",
              "grooms", "grooming", "the", "of", "2nd", ".", ". ", "..", "-", ",", "")

    @given(words=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12),
           gaps=st.lists(st.sampled_from([" ", "", ".", "  "]), min_size=12, max_size=12),
           owner=st.sampled_from(["Requirements", "IsReady", "Must Meet", "Owner's Vision", "Team’s Board",
                                  "needs-backlog", "is"]),
           extra_verbs=st.sampled_from([frozenset(), frozenset({"grooms"})]))
    def test_split_matches_the_reference(self, words, gaps, owner, extra_verbs):
        text = "".join(word + gap for word, gap in zip(words, gaps)).strip()
        assume(text)
        lexicon = Lexicon(extra_verbs=extra_verbs)
        spo = extract_spo(AttributeStatement("x1", text), owner, lexicon)
        assert tuple(spo) == reference_extract_spo(text, owner, lexicon)


class TestCanonicalizePart:
    def test_stems_and_drops_stopwords(self):
        assert canonicalize_part(["managing", "requirements"]) == {"manag", "requirement"}
        assert canonicalize_part(["the", "of", "and"]) == frozenset()
        assert canonicalize_part(["requirement"]) == {"requirement"}

    def test_synonym_groups_fold_after_stemming(self):
        lexicon = Lexicon(synonym_groups=(("manage", "managing", "determining"),))
        assert canonicalize_part(["determining"], lexicon) == {"manage"}
        assert canonicalize_part(["managed"], lexicon) == {"manage"}

    def test_idempotent_on_seeded_random_tokens(self):
        lexicon = Lexicon(
            synonym_groups=(("manage", "managing"), ("dwelling", "houses")),
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


# Raw tokens: stopwords, verbs and their inflections, words that stem or
# fold, and arbitrary short tokens.
_RAW = ("the be is are was needs progressing managing managed manage houses dies "
        "requirements requirement owner owners it its whats noise press hou refers").split()
_raw_tokens = st.one_of(st.sampled_from(_RAW), st.from_regex(r"[a-z0-9]{1,9}", fullmatch=True))


@st.composite
def _lexicons(draw):
    """Lexicons with drawn synonym groups (colliding ones left out), stopwords and verbs."""
    table, groups = {}, []
    for group in draw(st.lists(st.lists(_raw_tokens, min_size=1, max_size=3, unique=True), max_size=4)):
        try:
            add_synonym_group(table, group)
        except ValueError:
            continue
        groups.append(tuple(group))
    return Lexicon(
        synonym_groups=tuple(groups),
        extra_stopwords=frozenset(draw(st.lists(_raw_tokens, max_size=3))),
        extra_verbs=frozenset(draw(st.lists(_raw_tokens, max_size=3))),
    )


class TestLexiconMemo:
    @given(lexicon=st.one_of(st.just(EMPTY_LEXICON), _lexicons()),
           tokens=st.lists(_raw_tokens, max_size=12))
    def test_memo_equals_the_uncached_rule(self, lexicon, tokens):
        expected = reference_canonicalize_part(tokens, lexicon)
        verbs = [reference_is_verb(t, lexicon) for t in tokens]
        for _ in range(2):  # the second pass reads the memo
            assert canonicalize_part(tokens, lexicon) == expected
            assert [canonicalize_part([t], lexicon) for t in tokens] == [
                reference_canonicalize_part([t], lexicon) for t in tokens]
            assert [lexicon._verdicts[t] for t in tokens] == verbs
        assert canonicalize_part(sorted(expected), lexicon) == expected

    # Verb runs that end the sentence, at its end or at the first period, and all-verb statements.
    @pytest.mark.parametrize("text", ["the team is", "The backlog must be. It is", "must be", "is",
                                      "needs progressing", "team grooms the backlog", "no verb here", ". is"])
    def test_split_reads_a_cold_and_a_filled_memo_alike(self, text):
        lexicon = Lexicon(extra_verbs=frozenset({"grooms"}))
        statement = AttributeStatement("x1", text)
        expected = reference_extract_spo(text, "Team Board", lexicon)
        assert not lexicon._verdicts
        assert tuple(extract_spo(statement, "Team Board", lexicon)) == expected
        for token in tokenize(text):
            lexicon._verdicts[token]
        assert tuple(extract_spo(statement, "Team Board", lexicon)) == expected

    @given(lexicon=st.one_of(st.just(EMPTY_LEXICON), _lexicons()), token=_raw_tokens)
    def test_no_memo_is_shared_between_lexicons(self, lexicon, token):
        canonicalize_part([token], lexicon)  # fill this lexicon's memo
        lexicon._verdicts[token]
        stopping = lexicon._replace(extra_stopwords=lexicon.extra_stopwords | {token})
        assert canonicalize_part([token], stopping) == frozenset()
        assert lexicon._replace(extra_verbs=lexicon.extra_verbs | {token})._verdicts[token]
        # An equal lexicon made later answers as the uncached rule does too.
        twin = lexicon._replace()
        assert canonicalize_part([token], twin) == reference_canonicalize_part([token], lexicon)


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

    def test_subjects_that_canonicalize_empty_earn_no_point(self):
        left = AttrRef("X", "Thing", "a1")
        right = AttrRef("Y", "Other", "b1")
        s1 = AttributeStatement("a1", "the is alpha")
        # subject "the" canonicalizes to the empty set, so only predicate and object score
        assert score_pair(left, s1, right, AttributeStatement("b1", "the is alpha")) == 2
        assert score_pair(left, s1, right, AttributeStatement("b1", "the is beta")) == 1

    def test_annotated_mode_reads_table(self, essence_context, scrum_context, table1_annotations):
        a3 = attribute(essence_context.concept("Requirements"), "a3")
        b3 = attribute(scrum_context.concept("ProductBacklog"), "b3")
        left, right = _refs("a3", "b3")
        level = score_pair(left, a3, right, b3, annotations=table1_annotations, mode="annotated")
        assert level == 2
        a1 = attribute(essence_context.concept("Requirements"), "a1")
        b1 = attribute(scrum_context.concept("ProductBacklog"), "b1")
        left, right = _refs("a1", "b1")
        assert score_pair(left, a1, right, b1, annotations=table1_annotations, mode="annotated") == 1

    def test_annotated_mode_gap_reads_0(self):
        left = AttrRef("X", "A", "a1")
        right, other = AttrRef("Y", "B", "b1"), AttrRef("Y", "B", "b2")
        statement = AttributeStatement("a1", "is something")
        table = AnnotationTable(((left, other, 2),))
        # Equal texts share every part, yet only the table speaks in annotated mode.
        assert score_pair(left, statement, right, statement, annotations=table, mode="annotated") == 0
        assert score_pair(left, statement, other, statement, annotations=table, mode="annotated") == 2
        assert score_pair(left, statement, left, statement, annotations=table, mode="annotated") == 3

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

    @pytest.mark.parametrize("member", ["backlog-item", "Pbis", "owner's", "two words"])
    def test_member_that_is_not_one_token(self, member):
        table = {"pbi": "pbis"}
        with pytest.raises(ValueError, match=f"synonym {member!r} can never match"):
            add_synonym_group(table, ("items", member))
        assert table == {"pbi": "pbis"}

    @pytest.mark.parametrize("field,what", [("extra_stopwords", "stopword"), ("extra_verbs", "verb")])
    @pytest.mark.parametrize("token,tokens", [("set-up", "['set', 'up']"), ("don't", "['dont']"),
                                              ("Foo", "['foo']"), ("", "[]")])
    def test_stopword_or_verb_that_is_not_one_token(self, field, what, token, tokens):
        with pytest.raises(ValueError) as info:
            Lexicon(**{field: frozenset({"fine", token})})
        assert str(info.value) == f"{what} {token!r} can never match: text tokenizes to {tokens}"


class TestStatementScorer:
    def test_requires_table_for_annotated_mode(self):
        with pytest.raises(ValueError, match="annotation table"):
            StatementScorer(mode="annotated")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scoring mode"):
            StatementScorer(mode="magic")

    @pytest.mark.parametrize("threshold", (0, 4))
    def test_cells_refuse_a_threshold_outside_1_to_3_before_holding(self, threshold):
        concept = Concept("C", (AttributeStatement("a1", "the backlog"), AttributeStatement("a2", "the goal")))
        scorer = StatementScorer()
        for call in (lambda: scorer.cells("X", concept, "X", concept, threshold),
                     lambda: candidate_pairs("X", concept, "X", concept, scorer, threshold)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"threshold must be one of (1, 2, 3), got {threshold}"
        # Nothing was held, so another concept under X/C is no twin.
        assert scorer.profile("X", Concept("C", (AttributeStatement("a1", "the vision"),)))


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
def _scoring_case(draw, mode):
    """(table, (context, concept) x 2) for ``mode``.

    The second side is sometimes the first concept itself or an equal but
    distinct copy of it, in which a row scores 3 against the row with its
    own reference, or a twin: a concept of the same context and name with
    other texts, which a scorer refuses.  Annotated and hybrid mode get
    levels for a random subset of the distinct pairs, heuristic mode no
    table.
    """
    c1 = draw(_concept("Alpha", "a"))
    side2 = draw(st.sampled_from(("other", "same", "equal", "twin")))
    if side2 == "other":
        ctx2, c2 = "Y", draw(_concept("Beta", "b"))
    elif side2 == "twin":
        ctx2, c2 = "X", draw(_concept("Alpha", "a"))
    else:
        ctx2, c2 = "X", c1 if side2 == "same" else c1._replace()
    keys = {frozenset((r1, r2)): (r1, r2)
            for r1 in _attr_refs("X", c1) for r2 in _attr_refs(ctx2, c2) if r1 != r2}
    pairs = [keys[k] for k in sorted(keys, key=sorted)]
    table = None
    if mode != "heuristic":
        table = AnnotationTable((l, r, draw(st.integers(0, 3))) for l, r in pairs if draw(st.booleans()))
    return table, ("X", c1), (ctx2, c2)


_VERBLESS = Concept("Alpha", (AttributeStatement("a1", "product backlog"),
                             AttributeStatement("a2", "backlog is the vision")))


class _CountingScorer(StatementScorer):
    calls = 0

    def level(self, a, b):
        self.calls += 1
        return super().level(a, b)


def _assert_scores_only_qualifying_cells(scorer, practice, framework, threshold):
    """Each concept pair's candidates equal a full scan, each named cell is one of them, and
    ``scorer`` scores exactly the named cells handed no table level; returns how many were named."""
    cells = named = 0
    for c1 in practice.concepts:
        for c2 in framework.concepts:
            full = [CandidatePair(a.ref, b.ref, level)
                    for a in scorer.profile(practice.id, c1)
                    for b in scorer.profile(framework.id, c2)
                    if (level := StatementScorer.level(scorer, a, b)) >= threshold]  # uncounted
            full.sort(key=lambda p: (-p.level, p.left, p.right))
            before = scorer.calls
            found = candidate_pairs(practice.id, c1, framework.id, c2, scorer, threshold)
            assert found == full
            handed = list(scorer.cells(practice.id, c1, framework.id, c2, threshold))
            # The masks give each cell's level exactly, so every named cell qualifies.
            assert len(handed) == len(found)
            assert scorer.calls - before == sum(level is None for _, _, level in handed)
            named += len(handed)
            cells += len(c1.attributes) * len(c2.attributes)
    assert 0 < named < cells
    return named


_any_mode_case = st.sampled_from(MODES).flatmap(lambda mode: st.tuples(st.just(mode), _scoring_case(mode)))


class TestScoringProperties:
    @given(case=_any_mode_case)
    def test_level_is_symmetric(self, case):
        mode, (table, side1, side2) = case
        scorer = StatementScorer(LEXICON, table, mode)
        rows1 = scorer.profile(*side1)
        if name := twin_of(side1, side2):
            with refused(name):
                scorer.profile(*side2)
            side2 = side1
        for a in rows1:
            for b in scorer.profile(*side2):
                assert scorer.level(a, b) == scorer.level(b, a) in (0, 1, 2, 3)

    @given(text=_texts, mode=st.sampled_from(MODES))
    def test_statement_scores_3_against_itself(self, text, mode):
        statement = AttributeStatement("a1", text)
        scorer = StatementScorer(LEXICON, AnnotationTable(()), mode)
        (row,) = scorer.profile("X", Concept("Thing", (statement,)))
        (copy_row,) = scorer.profile("X", Concept("Thing", (AttributeStatement("a1", text),)))
        assert scorer.level(row, row) == scorer.level(row, copy_row) == 3
        ref = AttrRef("X", "Thing", "a1")
        assert score_pair(ref, statement, ref, statement, LEXICON, AnnotationTable(()), mode) == 3

    @given(case=_any_mode_case, threshold=st.integers(1, 3))
    # A verbless row reaches 3 only against itself, which no part mask shows.
    @example(case=("heuristic", (None, ("X", _VERBLESS), ("X", _VERBLESS))), threshold=3)
    @example(case=("heuristic", (None, ("X", _VERBLESS), ("X", _VERBLESS._replace()))), threshold=3)
    def test_candidate_pairs_equals_per_pair_scan(self, case, threshold):
        mode, (table, (ctx1, c1), (ctx2, c2)) = case
        expected = []
        for s1, left in zip(c1.attributes, _attr_refs(ctx1, c1)):
            for s2, right in zip(c2.attributes, _attr_refs(ctx2, c2)):
                level = score_pair(left, s1, right, s2, LEXICON, table, mode)
                if level >= threshold:
                    expected.append(CandidatePair(left, right, level))
        expected.sort(key=lambda p: (-p.level, p.left, p.right))
        _assert_held_on_first_sight_or_refused(table, mode, (ctx1, c1), (ctx2, c2), threshold, expected)

    def test_prefilter_scores_only_qualifying_cells(self, scrum_context, essence_context):
        scorer = _CountingScorer(LEXICON)
        named = _assert_scores_only_qualifying_cells(scorer, scrum_context, essence_context, 2)
        assert scorer.calls == named  # heuristic mode hands no cell a level

    @pytest.mark.parametrize("threshold", (1, 2))  # no cell of the case study reaches 3 outside heuristic mode
    @pytest.mark.parametrize("mode", ("hybrid", "annotated"))
    def test_hybrid_prefilter_scores_only_qualifying_cells(self, scrum_context, essence_context, mode, threshold):
        # Every other pair of the case-study table with its gaps written as 0, so that in
        # hybrid mode table levels (zeros among them) and heuristic levels both decide cells.
        text = bundled_path("paper-table1.ann").read_text(encoding="utf-8")
        text = fill_gaps(text, *cross_refs(essence_context, scrum_context))
        pairs = [line for line in text.splitlines() if line.startswith("pair:")]
        contexts = (scrum_context, essence_context)
        table = parse_annotations("\n".join(pairs[::2]), contexts)
        scorer = _CountingScorer(LEXICON, table, mode)
        named = _assert_scores_only_qualifying_cells(scorer, scrum_context, essence_context, threshold)
        # Two contexts, so no cell pairs a row with its own reference: in annotated
        # mode the table answers every named cell, in hybrid mode some of them.
        if mode == "annotated":
            assert scorer.calls == 0
        else:
            assert 0 < scorer.calls < named

    def test_same_reference_scores_3_and_names_one_concept(self):
        # A verbless row scores 2 against an equal text under another reference.
        statement = AttributeStatement("a1", "product backlog")
        c1 = Concept("C", (statement,))
        copy = Concept("C", (AttributeStatement("a1", "product backlog"),))
        scorer = StatementScorer(LEXICON)
        (a,), (other,) = scorer.profile("X", c1), scorer.profile("Y", c1)
        assert scorer.level(a, other) == 2
        assert scorer.profile("X", copy)[0] is a  # an equal copy is the concept held
        assert scorer.level(a, a) == 3
        assert candidate_pairs("X", c1, "X", copy, scorer, 3) == [CandidatePair(a.ref, a.ref, 3)]
        # One more object makes another concept under the same reference.
        twin = c1._replace(objects=(ObjectInstance("o1", "the backlog"),))
        for call in (lambda: scorer.profile("X", twin),
                     lambda: candidate_pairs("X", c1, "X", twin, scorer, 3),
                     lambda: candidate_pairs("X", twin, "Y", c1, scorer, 3)):
            with refused("X/C"):
                call()
        assert candidate_pairs("X", copy, "X", c1, scorer, 3) == [CandidatePair(a.ref, a.ref, 3)]

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_self_map_and_map_onto_an_equal_copy_score_the_same_cells(self, scrum_context, threshold):
        config = MapConfig(LEXICON, mode="heuristic", threshold=threshold)
        contexts = [scrum_context] + [make_random_context(random.Random(seed)) for seed in range(8)]
        for context in contexts:
            copy = context._replace(concepts=tuple(c._replace() for c in context.concepts))
            results, calls = [], []
            for other in (context, copy):
                scorer = _CountingScorer(LEXICON)
                results.append([pair_result(context.id, c1, other.id, c2,
                                            candidate_pairs(context.id, c1, other.id, c2, scorer, threshold))
                                for c1 in context.concepts for c2 in other.concepts])
                calls.append(scorer.calls)
            assert results[0] == results[1] == [map_pair(context.id, c1, context.id, c2, config)
                                                for c1 in context.concepts for c2 in context.concepts]
            assert calls[0] == calls[1] > 0

    @given(case=_scoring_case("annotated"), threshold=st.integers(1, 3))
    def test_gap_reads_0_in_annotated_mode(self, case, threshold):
        table, (ctx1, c1), (ctx2, c2) = case
        # The rule from the table's own entries: 3 for one reference, else the table level, else 0.
        expected = []
        for left in _attr_refs(ctx1, c1):
            for right in _attr_refs(ctx2, c2):
                level = 3 if left == right else table.level_for(left, right) or 0
                if level >= threshold:
                    expected.append(CandidatePair(left, right, level))
        expected.sort(key=lambda p: (-p.level, p.left, p.right))
        _assert_held_on_first_sight_or_refused(table, "annotated", (ctx1, c1), (ctx2, c2), threshold, expected)


def _assert_held_on_first_sight_or_refused(table, mode, side1, side2, threshold, expected):
    """A fresh scorer holds each side on first sight and gives ``expected``; a twin second side is refused."""
    scorer = StatementScorer(LEXICON, table, mode)
    if name := twin_of(side1, side2):
        with refused(name):
            candidate_pairs(*side1, *side2, scorer, threshold)
    else:
        assert candidate_pairs(*side1, *side2, scorer, threshold) == expected


def _full_scan(table, mode, side1, side2, threshold):
    """Candidates of one concept pair by scoring every cell with a fresh scorer."""
    scorer = StatementScorer(LEXICON, table, mode)
    found = [CandidatePair(a.ref, b.ref, level)
             for a in scorer.profile(*side1) for b in scorer.profile(*side2)
             if (level := scorer.level(a, b)) >= threshold]
    return sorted(found, key=lambda p: (-p.level, p.left, p.right))


@st.composite
def _scorer_session(draw):
    """(mode, table, concepts, held, calls) for one scorer that profiles some concepts first.

    Each concept sits in context X or Y and is named from three names, so
    pairs within one context id occur, and so do twins: one context and
    name, other texts.  The first concept under a ``(context, name)`` is
    its owner.  The scorer profiles the owners among the first ``held``
    concepts before the calls and holds the others on first sight; a later
    concept is an owner's equal copy or, when that owner is held before the
    calls, its twin.
    A call profiles one concept, or takes the candidates of or maps one
    ordered pair at a threshold.  Some concepts reuse the texts of an
    earlier one.  Annotated and hybrid mode get levels for a random subset
    of the distinct pairs.
    """
    pool = []
    count = draw(st.integers(3, 6))
    held = draw(st.integers(0, count))
    owners = {}
    for k in range(count):
        context = draw(st.sampled_from("XY"))
        concept = draw(_concept(draw(st.sampled_from(("Alpha", "Beta", "Gamma"))), "a"))
        if pool and draw(st.booleans()):  # texts of an earlier concept, so cells reach level 3
            concept = concept._replace(attributes=draw(st.sampled_from(pool))[1].attributes)
        owner = owners.setdefault((context, concept.name), k)
        if owner >= held and owner != k:  # no twin of a concept held during the calls
            concept = pool[owner][1]._replace()
        pool.append((context, concept))
    index = st.integers(0, len(pool) - 1)
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("profile"), index),
        st.tuples(st.sampled_from(("candidates", "map")), index, index, st.sampled_from(THRESHOLDS)),
    ), min_size=4, max_size=20))
    mode = draw(st.sampled_from(MODES))
    table = None
    if mode != "heuristic":
        refs = {ref for context, concept in pool for ref in _attr_refs(context, concept)}
        pairs = sorted({frozenset(pair) for pair in itertools.combinations(sorted(refs), 2)}, key=sorted)
        table = AnnotationTable((*sorted(pair), draw(st.integers(0, 3))) for pair in pairs
                                if draw(st.booleans()))
    return mode, table, pool, held, calls


_THRESHOLD_3_THEN_1 = (
    "heuristic", None,
    [("X", Concept("Alpha", (AttributeStatement("a1", "backlog is the vision"),))),
     ("Y", Concept("Beta", (AttributeStatement("a1", "backlog is the vision"),
                            AttributeStatement("a2", "stakeholders provide vision")))),
     ("Y", Concept("Beta", (AttributeStatement("a1", "the vision"),)))],
    3,
    # One sweep of Alpha against Y at threshold 3, then one at threshold 1; Y/Beta's twin is refused.
    [("candidates", 0, 1, 3), ("candidates", 0, 1, 1), ("map", 0, 2, 1), ("candidates", 1, 1, 2)],
)
# Y/Beta is swept at threshold 1, then its twin comes on the left at that
# threshold: the sweep record is not the twin's, and the twin is refused.
_LEFT_TWIN_AFTER_ITS_SWEEP = (
    *_THRESHOLD_3_THEN_1[:4],
    [("candidates", 1, 0, 1), ("candidates", 2, 0, 1), ("map", 2, 0, 1), ("candidates", 1, 0, 1)],
)


class TestOneScorerAcrossCalls:
    @given(session=_scorer_session())
    @example(session=_THRESHOLD_3_THEN_1)
    @example(session=_LEFT_TWIN_AFTER_ITS_SWEEP)
    def test_interleaved_calls_equal_fresh_full_scans(self, session):
        mode, table, pool, held, calls = session
        scorer = StatementScorer(LEXICON, table, mode)
        owners = {(context, concept.name): (context, concept) for context, concept in pool[::-1]}
        for context, concept in pool[:held]:
            scorer.profile(*owners[context, concept.name])
        for call, *args in calls:
            twins = [name for k in args[:2] if (name := twin_of(owners[pool[k][0], pool[k][1].name], pool[k]))]
            if twins:  # every call naming a twin is refused
                with pytest.raises(UnknownReferenceError, match="|".join(map(re.escape, twins))):
                    if call == "profile":
                        scorer.profile(*pool[args[0]])
                    else:
                        candidate_pairs(*pool[args[0]], *pool[args[1]], scorer, args[2])
                continue
            if call == "profile":
                side = pool[args[0]]
                assert scorer.profile(*side) == StatementScorer(LEXICON, table, mode).profile(*side)
                continue
            i, j, threshold = args
            if call == "candidates":
                assert (candidate_pairs(*pool[i], *pool[j], scorer, threshold)
                        == _full_scan(table, mode, pool[i], pool[j], threshold))
            else:
                config = MapConfig(LEXICON, table, mode, threshold)
                candidates = candidate_pairs(*pool[i], *pool[j], scorer, threshold)
                assert pair_result(*pool[i], *pool[j], candidates) == map_pair(*pool[i], *pool[j], config)

    def test_a_built_table_cannot_change_under_a_scorer(self):
        # A sweep record keeps masks computed once next to a row's live view, so a table
        # must not change once a scorer reads it: the three level-0 cells below, added
        # after one sweep, would make the reused scorer match a1-b1 and a2-b2 as 100% equivalent.
        assert [name for name in vars(AnnotationTable) if not name.startswith("_")] == ["row", "level_for"]
        text = "the backlog is the goal"
        left = Concept("A", (AttributeStatement("a1", text), AttributeStatement("a2", text)))
        right = Concept("B", (AttributeStatement("b1", text), AttributeStatement("b2", text)))
        a1, a2, b1, b2 = (AttrRef("X", "A", "a1"), AttrRef("X", "A", "a2"),
                          AttrRef("Y", "B", "b1"), AttrRef("Y", "B", "b2"))
        table = AnnotationTable([(a1, b1, 3), (a1, b2, 0), (a2, b1, 0), (a2, b2, 0)])
        scorer = StatementScorer(EMPTY_LEXICON, table, "hybrid")
        for _ in range(2):  # the second call reads the sweep record
            candidates = candidate_pairs("X", left, "Y", right, scorer, 2)
            assert candidates == [CandidatePair(a1, b1, 3)]
        result = pair_result("X", left, "Y", right, candidates)
        assert (result.match_set.pairs, result.similarity_pct, result.relation) == (
            ((a1, b1, 3),), Fraction(100, 3), "related")
        assert map_pair("X", left, "Y", right, MapConfig(annotations=table, mode="hybrid")) == result

    def test_a_concept_held_after_a_sweep_pairs_with_the_swept_one(self):
        # Alpha is held and swept at threshold 1; Y/Beta comes on first sight,
        # so its rows get bits that the sweep record of Alpha lacks.
        _, _, pool, _, _ = _THRESHOLD_3_THEN_1
        scorer = StatementScorer(LEXICON)
        scorer.profile(*pool[0])
        alpha, beta1, beta2 = AttrRef("X", "Alpha", "a1"), AttrRef("Y", "Beta", "a1"), AttrRef("Y", "Beta", "a2")
        assert candidate_pairs(*pool[0], *pool[0], scorer, 1) == [CandidatePair(alpha, alpha, 3)]
        assert candidate_pairs(*pool[0], *pool[1], scorer, 1) == [
            CandidatePair(alpha, beta1, 3), CandidatePair(alpha, beta2, 1)]

    def test_threshold_3_then_1_example_finds_the_level_1_cells(self):
        _, _, pool, _, _ = _THRESHOLD_3_THEN_1
        scorer = StatementScorer(LEXICON)
        scorer.profile(*pool[0])
        scorer.profile(*pool[1])
        alpha, beta1, beta2 = AttrRef("X", "Alpha", "a1"), AttrRef("Y", "Beta", "a1"), AttrRef("Y", "Beta", "a2")
        assert candidate_pairs(*pool[0], *pool[1], scorer, 3) == [CandidatePair(alpha, beta1, 3)]
        assert candidate_pairs(*pool[0], *pool[1], scorer, 1) == [
            CandidatePair(alpha, beta1, 3), CandidatePair(alpha, beta2, 1)]

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_map_contexts_equals_map_pair_pair_by_pair(self, scrum_context, essence_context,
                                                       table1_annotations, mode, threshold):
        config = MapConfig(LEXICON, table1_annotations, mode, threshold)
        sides = [(scrum_context, essence_context), (essence_context, scrum_context)]
        if mode == "heuristic":
            randoms = [make_random_context(random.Random(seed), seed) for seed in range(4)]
            sides += [(randoms[0], randoms[1]), (randoms[2], randoms[2]), (randoms[3], randoms[3])]
        for practice, framework in sides:
            expected = [map_pair(practice.id, c1, framework.id, c2, config)
                        for c1 in sorted(practice.concepts, key=lambda c: c.name)
                        for c2 in sorted(framework.concepts, key=lambda c: c.name)]
            assert list(map_contexts(practice, framework, config).results) == expected


@st.composite
def _shuffled_concept(draw, name):
    """A concept with ids a1..aN, N from 10 to 12, declared in a drawn order.

    Reference order is a1, a10, a11, ..., a2, ..., so no natural order of
    the ids is reference order, and a drawn one only by chance.
    """
    n = draw(st.integers(10, 12))
    order = draw(st.permutations(range(1, n + 1)))
    texts = draw(st.lists(_texts, min_size=n, max_size=n))
    return Concept(name, tuple(AttributeStatement(f"a{i}", text) for i, text in zip(order, texts)))


@st.composite
def _out_of_order_case(draw, mode, kind):
    """(table, side1, side2) for two concepts of shuffled ids.

    By ``kind`` the second is a concept of another context, held after the
    first (``other``) or before it (``other-held-first``), or a twin of
    the first (its context and name, other texts), which a scorer holding
    the first refuses.  Annotated and hybrid mode get levels for some of
    the distinct pairs.
    """
    c1 = draw(_shuffled_concept("Alpha"))
    if kind == "twin":
        ctx2, c2 = "X", draw(_shuffled_concept("Alpha"))
    else:
        ctx2, c2 = "Y", draw(_shuffled_concept("Beta"))
    table = None
    if mode != "heuristic":
        pairs = sorted({frozenset(pair) for pair in itertools.product(_attr_refs("X", c1), _attr_refs(ctx2, c2))
                        if pair[0] != pair[1]}, key=sorted)
        levels = st.none() | st.integers(0, 3)
        drawn = draw(st.lists(levels, min_size=len(pairs), max_size=len(pairs)))
        table = AnnotationTable((*sorted(pair), level) for pair, level in zip(pairs, drawn) if level is not None)
    return table, ("X", c1), (ctx2, c2)


def _hold_first(scorer, kind, side1, side2):
    """Hold the side that ``kind`` holds first: ``side2`` for ``other-held-first``, else ``side1``."""
    scorer.profile(*(side2 if kind == "other-held-first" else side1))
    return scorer


def _refuses_a_twin(scorer, kind, side1, side2):
    """Hold a side by ``kind``; then whether ``side2`` is a twin of ``side1``, after checking that
    ``scorer`` refuses it every way."""
    _hold_first(scorer, kind, side1, side2)
    name = twin_of(side1, side2)
    if name:
        for call in (lambda: scorer.profile(*side2),
                     lambda: scorer.cells(*side1, *side2, 1), lambda: scorer.cells(*side2, *side1, 1),
                     lambda: candidate_pairs(*side1, *side2, scorer), lambda: candidate_pairs(*side2, *side1, scorer)):
            with refused(name):
                call()
    return name is not None


@pytest.mark.parametrize("kind", ("other", "other-held-first", "twin"))
@pytest.mark.parametrize("mode", MODES)
class TestOutOfOrderIds:
    """Concepts whose ids are declared out of reference order, each side in both orientations.

    One side is held first, by ``kind``, and the other on first sight, so
    either side's rows can take the low bits; a twin is refused.
    """

    @settings(max_examples=20)
    @given(data=st.data(), threshold=st.integers(1, 3))
    def test_candidate_pairs_equal_a_sorted_full_scan(self, mode, kind, data, threshold):
        table, *sides = data.draw(_out_of_order_case(mode, kind))
        scorer = StatementScorer(LEXICON, table, mode)
        if _refuses_a_twin(scorer, kind, *sides):
            return
        for side1, side2 in (sides, sides[::-1]):
            assert (candidate_pairs(*side1, *side2, scorer, threshold)
                    == _full_scan(table, mode, side1, side2, threshold))

    @settings(max_examples=20)
    @given(data=st.data())
    def test_position_is_the_index_in_reference_order(self, mode, kind, data):
        table, *sides = data.draw(_out_of_order_case(mode, kind))
        scorer = StatementScorer(LEXICON, table, mode)
        if _refuses_a_twin(scorer, kind, *sides):
            return
        for context, concept in sides:
            refs = sorted(_attr_refs(context, concept))
            assert [row.position for row in scorer.profile(context, concept)] == [
                refs.index(ref) for ref in _attr_refs(context, concept)]
        for side1, side2 in (sides, sides[::-1]):
            refs1, refs2 = sorted(_attr_refs(*side1)), sorted(_attr_refs(*side2))
            for a, b, _ in scorer.cells(*side1, *side2, 1):
                assert (a.position, b.position) == (refs1.index(a.ref), refs2.index(b.ref))

    @settings(max_examples=20)
    @given(data=st.data())
    def test_cells_yield_reference_order_and_profile_keeps_declaration_order(self, mode, kind, data):
        table, *sides = data.draw(_out_of_order_case(mode, kind))
        scorer = StatementScorer(LEXICON, table, mode)
        if _refuses_a_twin(scorer, kind, *sides):
            return
        for context, concept in sides:
            declared = [attr.id for attr in concept.attributes]
            assert [row.ref.attr for row in scorer.profile(context, concept)] == declared
        for side1, side2 in (sides, sides[::-1]):
            for threshold in THRESHOLDS:
                refs = [(a.ref, b.ref) for a, b, _ in scorer.cells(*side1, *side2, threshold)]
                assert refs == sorted(refs)

    @settings(max_examples=20)
    @given(data=st.data())
    def test_cells_hand_on_the_table_level_they_swept(self, mode, kind, data):
        # Heuristic mode gets a table too, which its scorer drops.
        table, *sides = data.draw(_out_of_order_case("hybrid" if mode == "heuristic" else mode, kind))
        if _refuses_a_twin(StatementScorer(LEXICON, table, mode), kind, *sides):
            return
        tables = [table]  # built from entries, left reference X first: a pair of X and Y sits in its X row
        if kind != "twin":  # Y ranks first here, so the rows of X's references are merged copies
            lines = [f"pair: {left} {right} = {level}"
                     for left, right in itertools.product(_attr_refs(*sides[0]), _attr_refs(*sides[1]))
                     if (level := table.level_for(left, right)) is not None]
            ranked = [SemanticContext(context, (concept,)) for context, concept in sides[::-1]]
            tables.append(parse_annotations("\n".join(lines), ranked))
        for table in tables:
            scorer = _hold_first(StatementScorer(LEXICON, table, mode), kind, *sides)
            for side1, side2 in (sides, sides[::-1]):
                for threshold in THRESHOLDS:
                    for a, b, level in scorer.cells(*side1, *side2, threshold):
                        known = None if a.ref == b.ref or mode == "heuristic" else table.level_for(a.ref, b.ref)
                        assert level == known
                        assert level is None or level == scorer.level(a, b)
                        assert (scorer.level(a, b) if level is None else level) >= threshold


def test_position_of_the_out_of_order_fixture(tuned_lexicon):
    # Ids a1..a12 in reference order: a1, a10, a11, a12, a2, ..., a9.
    practice = load_concepts(Path(__file__).parent / "golden" / "out-of-order-practice.concepts")
    sprint = practice.concept("Sprint")
    reordered = sprint._replace(attributes=sprint.attributes[::-1])  # another concept under Team/Sprint
    expected = {attr: position for position, attr in enumerate(sorted(f"a{i}" for i in range(1, 13)))}
    assert expected["a10"] == 1 and expected["a2"] == 4
    scorers = [StatementScorer(tuned_lexicon) for _ in range(2)]
    for scorer, concept in zip(scorers, (sprint, reordered)):
        assert {row.ref.attr: row.position for row in scorer.profile("Team", concept)} == expected
    with refused("Team/Sprint"):
        scorers[0].profile("Team", reordered)
