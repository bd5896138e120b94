import contextlib
import random
import signal
import time
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from essencemap import (
    AttributeStatement,
    AttrRef,
    CandidatePair,
    Concept,
    MapConfig,
    MatchSet,
    SemanticContext,
    StatementScorer,
    candidate_pairs,
    matching,
    max_matching,
)
from essencemap.corpus import AnnotationTable
from essencemap.lta import MODES
from essencemap.matching import THRESHOLDS
from matching_oracle import (
    OracleBoundError,
    brute_force_matching,
    dense_reference_matching,
    flip,
    mirror,
)


def ref_l(i):
    return AttrRef("L", "Left", f"a{i}")


def ref_r(j):
    return AttrRef("R", "Right", f"b{j}")


def cand(i, j, level=2):
    return CandidatePair(ref_l(i), ref_r(j), level)


def random_instance(rng, max_side=6, densities=(0.15, 0.3, 0.5, 0.7)):
    n_left = rng.randint(0, max_side)
    n_right = rng.randint(0, max_side)
    density = rng.choice(densities)
    pairs = [
        cand(i, j, rng.randint(1, 3))
        for i in range(1, n_left + 1)
        for j in range(1, n_right + 1)
        if rng.random() < density
    ]
    return pairs, n_left, n_right


@contextlib.contextmanager
def time_limit(seconds):
    """Fail after ``seconds``, so a looping solver fails the test instead of
    stalling the suite (no-op without ``SIGALRM``)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # the interrupted frame can lack a line number, which pytest cannot
        # render, so report from here instead
        raise AssertionError(f"no result within {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def instances(draw, max_side=6):
    """(candidates, left size, right size) with sides up to ``max_side``.

    The left context sorts before or after the right one, so both matching
    orientations occur; repeated cells with different levels exercise the
    keep-the-highest-level rule.
    """
    n_left = draw(st.integers(0, max_side))
    n_right = draw(st.integers(0, max_side))
    left_context = draw(st.sampled_from(["L", "S"]))
    cells = st.tuples(st.integers(1, max(n_left, 1)), st.integers(1, max(n_right, 1)),
                      st.integers(1, 3))
    drawn = draw(st.lists(cells, max_size=n_left * n_right + 3)) if n_left and n_right else []
    pairs = [
        CandidatePair(AttrRef(left_context, "Left", f"a{i}"), ref_r(j), level)
        for i, j, level in drawn
    ]
    return pairs, n_left, n_right


@st.composite
def few_cell_instances(draw):
    """(candidates, left size, right size): 0-3 candidates over at most two distinct cells.

    The cells lie over a1..a3 and b1..b3, so two of them may share an
    attribute; a cell may repeat at any level; each side has 0-3 attributes.
    """
    left_context = draw(st.sampled_from(["L", "S"]))
    cell = st.tuples(st.integers(1, 3), st.integers(1, 3))
    cells = draw(st.lists(cell, min_size=1, max_size=2))
    drawn = draw(st.lists(st.tuples(st.sampled_from(cells), st.integers(1, 3)), max_size=3))
    pairs = [CandidatePair(AttrRef(left_context, "Left", f"a{i}"), ref_r(j), level) for (i, j), level in drawn]
    return pairs, draw(st.integers(0, 3)), draw(st.integers(0, 3))


def outcome(matcher, candidates, left_size, right_size):
    """The match set ``matcher`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return matcher(candidates, left_size, right_size)
    except ValueError as exc:
        return str(exc)


class TestCandidatePairs:
    def test_annotated_case_study_candidates(
        self, essence_context, scrum_context, table1_annotations
    ):
        scorer = StatementScorer(annotations=table1_annotations, mode="annotated")
        found = candidate_pairs(
            "EF",
            essence_context.concept("Requirements"),
            "Scrum",
            scrum_context.concept("ProductBacklog"),
            scorer,
            threshold=2,
        )
        assert [(p.left.attr, p.right.attr, p.level) for p in found] == [
            ("a3", "b3", 2),
            ("a4", "b4", 2),
            ("a6", "b6", 2),
        ]

    def test_threshold_3_empties_case_study(
        self, essence_context, scrum_context, table1_annotations
    ):
        scorer = StatementScorer(annotations=table1_annotations, mode="annotated")
        found = candidate_pairs(
            "EF",
            essence_context.concept("Requirements"),
            "Scrum",
            scrum_context.concept("ProductBacklog"),
            scorer,
            threshold=3,
        )
        assert found == []

    def test_threshold_validation(self, essence_context):
        scorer = StatementScorer(mode="heuristic")
        concept = essence_context.concept("Requirements")
        with pytest.raises(ValueError, match="threshold"):
            candidate_pairs("EF", concept, "EF", concept, scorer, threshold=0)

    def test_sorted_by_level_then_ids(self, essence_context, tuned_lexicon):
        scorer = StatementScorer(tuned_lexicon, mode="heuristic")
        concept = essence_context.concept("Requirements")
        found = candidate_pairs("EF", concept, "EF", concept, scorer, threshold=1)
        keys = [(-p.level, p.left, p.right) for p in found]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_zero_or_one_candidate_is_returned_as_scored(self, threshold):
        left = Concept("A", (AttributeStatement("a1", "the backlog is an ordered list"),
                             AttributeStatement("a2", "budget approvals take weeks")))
        right = Concept("B", (AttributeStatement("b1", "weather changes daily"),
                              AttributeStatement("b2", "the backlog is an ordered list")))
        scorer = StatementScorer(mode="heuristic")
        assert candidate_pairs("X", left, "Y", right, scorer, threshold) == [
            CandidatePair(AttrRef("X", "A", "a1"), AttrRef("Y", "B", "b2"), 3)]
        unmatched = right._replace(attributes=right.attributes[:1])
        assert candidate_pairs("X", left, "Y", unmatched, scorer, threshold) == []


class TestMaxMatching:
    def test_conflicting_candidates_pick_size_two(self):
        candidates = [cand(1, 1), cand(1, 2), cand(2, 1)]
        selected = max_matching(candidates, 2, 2)
        assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [
            ("a1", "b2"),
            ("a2", "b1"),
        ]

    def test_empty_candidates(self):
        assert max_matching([], 4, 5) == MatchSet((), 4, 5)

    def test_case_study_matching(self):
        candidates = [cand(3, 3), cand(4, 4), cand(6, 6)]
        selected = max_matching(candidates, 6, 6)
        assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [
            ("a3", "b3"),
            ("a4", "b4"),
            ("a6", "b6"),
        ]

    def test_prefers_higher_total_level_among_maximum(self):
        # both matchings have size 1; the level-3 pair must win even though
        # it is lexicographically larger
        candidates = [cand(1, 1, 2), cand(1, 2, 3)]
        selected = max_matching(candidates, 1, 2)
        assert [(p.left.attr, p.right.attr, p.level) for p in selected.pairs] == [("a1", "b2", 3)]

    def test_lexicographic_tie_break(self):
        candidates = [cand(1, 2, 2), cand(1, 1, 2), cand(2, 1, 2), cand(2, 2, 2)]
        selected = max_matching(candidates, 2, 2)
        assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [
            ("a1", "b1"),
            ("a2", "b2"),
        ]

    @pytest.mark.parametrize("left_context,expected", [
        ("L", [(1, 2), (2, 3), (3, 1)]),  # "L" < "R": the tie-break reads the a-side
        ("S", [(1, 3), (2, 1), (3, 2)]),  # "R" < "S": it reads the b-side
    ])
    def test_tie_break_reads_the_side_with_the_smaller_context(self, left_context, expected):
        # Two perfect matchings of equal level; sorted by a-side they prefer
        # {a1-b2, a2-b3, a3-b1}, sorted by b-side {a1-b3, a2-b1, a3-b2}.
        cells = [(1, 2), (2, 3), (3, 1), (1, 3), (2, 1), (3, 2)]
        pairs = [CandidatePair(AttrRef(left_context, "Left", f"a{i}"), ref_r(j), 2) for i, j in cells]
        for matcher in (max_matching, brute_force_matching):
            selected = matcher(pairs, 3, 3)
            assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [
                (f"a{i}", f"b{j}") for i, j in expected
            ]

    @pytest.mark.parametrize(
        "side,levels",
        [
            (8, lambda i, j: 2),  # 64 candidates push the weights past 2**64
            # past 2**100: a finite solver sentinel of 2**60 loops or errs here
            (10, lambda i, j: 3 if j == 10 else 1),
        ],
        ids=["8x8-flat", "10x10-heavy-column"],
    )
    def test_complete_graph_selects_the_diagonal(self, side, levels):
        # every perfect matching has the same total level: the smallest pair list decides
        candidates = [cand(i, j, levels(i, j)) for i in range(1, side + 1) for j in range(1, side + 1)]
        with time_limit(10.0):
            selected = max_matching(candidates, side, side)
        assert [(p.left.attr, p.right.attr) for p in selected.pairs] == sorted(
            (f"a{i}", f"b{i}") for i in range(1, side + 1)
        )

    @given(instances(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, instance, rng):
        pairs, n_left, n_right = instance
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert max_matching(shuffled, n_left, n_right) == max_matching(pairs, n_left, n_right)

    @given(instances())
    def test_mirror_symmetry(self, instance):
        pairs, n_left, n_right = instance
        forward = max_matching(pairs, n_left, n_right)
        backward = max_matching([flip(p) for p in pairs], n_right, n_left)
        assert backward == mirror(forward)

    @given(instances())
    def test_cardinality_bound(self, instance):
        pairs, n_left, n_right = instance
        selected = max_matching(pairs, n_left, n_right)
        assert len(selected.pairs) <= min(n_left, n_right)


class TestAtMostOneCell:
    """``max_matching`` returns at most one distinct cell before it builds conflict sets."""

    @settings(max_examples=300)
    @given(few_cell_instances())
    @example(([cand(1, 1, 1), cand(1, 1, 3), cand(1, 1, 2)], 1, 1))
    @example(([cand(2, 1, 2), cand(2, 1, 1)], 0, 2))
    @example(([cand(1, 1, 2), cand(1, 2, 3), cand(1, 1, 3)], 1, 2))
    def test_agrees_with_the_oracle_in_every_input_order(self, instance):
        pairs, n_left, n_right = instance
        expected = outcome(brute_force_matching, pairs, n_left, n_right)
        for order in permutations(pairs):
            assert outcome(max_matching, list(order), n_left, n_right) == expected


class TestConflictFreeShortcut:
    class SolverCalled(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        def solve(adjacency, columns):
            raise self.SolverCalled

        monkeypatch.setattr(matching, "_max_weight_matching", solve)

    def test_conflict_free_candidates_are_all_matched_without_a_solve(self):
        # A repeated cell keeps its highest level and is not a conflict.
        candidates = [cand(3, 3, 1), cand(1, 2, 3), cand(2, 1, 1), cand(3, 3, 2)]
        match = max_matching(candidates, 3, 4)
        assert match.pairs == (cand(1, 2, 3), cand(2, 1, 1), cand(3, 3, 2))

    @pytest.mark.parametrize("candidates", [[cand(1, 1), cand(1, 2)], [cand(1, 1), cand(2, 1)]])
    def test_conflicting_candidates_reach_the_solver(self, candidates):
        with pytest.raises(self.SolverCalled):
            max_matching(candidates, 2, 2)


_CHANNEL_TEXTS = st.lists(st.sampled_from(("the", "team", "owner", "backlog", "sprint", "goal", "is", "provides")),
                          min_size=1, max_size=4).map(" ".join)


@st.composite
def _mapped_contexts(draw, mode):
    """(table, practice, framework) of small drawn contexts for ``mode``.

    The practice id sorts before or after the framework's, so both
    orientations occur, and each concept takes up to five ids of a1..a12 in
    a drawn order, so declaration order is seldom reference order.  A small
    vocabulary gives conflicting candidates.  Annotated and hybrid mode get
    levels for a drawn subset of the cross pairs.
    """
    contexts = []
    for context_id, prefix in ((draw(st.sampled_from("AZ")), "P"), ("M", "F")):
        concepts = []
        for k in range(draw(st.integers(1, 2))):
            ids = draw(st.permutations(range(1, 13)))[:draw(st.integers(1, 5))]
            concepts.append(Concept(f"{prefix}{k}", tuple(AttributeStatement(f"a{i}", draw(_CHANNEL_TEXTS))
                                                          for i in ids)))
        contexts.append(SemanticContext(context_id, tuple(concepts)))
    table = None
    if mode != "heuristic":
        lefts, rights = ([AttrRef(c.id, concept.name, a.id) for concept in c.concepts for a in concept.attributes]
                         for c in contexts)
        table = AnnotationTable((l, r, draw(st.integers(0, 3))) for l in lefts for r in rights if draw(st.booleans()))
    return (table, *contexts)


def _agrees_with_ranked_refs_and_the_oracle(candidates, n_left, n_right):
    expected = brute_force_matching(list(candidates), n_left, n_right)
    assert max_matching(candidates, n_left, n_right) == max_matching(list(candidates), n_left, n_right) == expected


@pytest.mark.parametrize("held", [True, False], ids=["held", "unheld"])
@pytest.mark.parametrize("mode", MODES)
class TestCarriedCells:
    """``max_matching`` of a ``candidate_pairs`` result, solved from the cells it carries."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_agrees_with_ranked_refs_and_the_oracle_also_after_mutation(self, mode, held, data):
        # A held scorer sweeps; one over no contexts, as ``make_scorer()`` builds
        # for the oracle probe of the benchmark, gives fresh rows.
        table, practice, framework = data.draw(_mapped_contexts(mode))
        config = MapConfig(annotations=table, mode=mode)
        scorer = config.make_scorer(practice, framework) if held else config.make_scorer()
        pairs = [(context1, c1, context2, c2)
                 for context1, context2 in ((practice, framework), (framework, practice), (practice, practice))
                 for c1 in context1.concepts for c2 in context2.concepts]
        for threshold in THRESHOLDS:
            for context1, c1, context2, c2 in pairs:
                candidates = candidate_pairs(context1.id, c1, context2.id, c2, scorer, threshold)
                sizes = len(c1.attributes), len(c2.attributes)
                _agrees_with_ranked_refs_and_the_oracle(candidates, *sizes)
                if len(candidates) < 2:
                    continue
                low = candidates[-1]  # the lowest level
                candidates.append(low._replace(level=min(low.level + 1, 3)))
                _agrees_with_ranked_refs_and_the_oracle(candidates, *sizes)
                candidates.pop()
                _agrees_with_ranked_refs_and_the_oracle(candidates, *sizes)
                candidates.reverse()
                _agrees_with_ranked_refs_and_the_oracle(candidates, *sizes)

    def test_only_a_changed_result_ranks_its_refs(self, mode, held, monkeypatch):
        left = Concept("A", (AttributeStatement("a2", "the backlog is the goal"),
                             AttributeStatement("a1", "the backlog is the goal")))
        right = Concept("B", (AttributeStatement("b1", "the backlog is the goal"),))
        a1, a2, b1 = AttrRef("X", "A", "a1"), AttrRef("X", "A", "a2"), AttrRef("Y", "B", "b1")
        config = MapConfig(annotations=AnnotationTable([(a1, b1, 3), (a2, b1, 3)]), mode=mode)
        contexts = (SemanticContext("X", (left,)), SemanticContext("Y", (right,))) if held else ()
        candidates = candidate_pairs("X", left, "Y", right, config.make_scorer(*contexts), 3)
        assert candidates == [CandidatePair(a1, b1, 3), CandidatePair(a2, b1, 3)]
        ranked = []
        rank = matching._ranked
        monkeypatch.setattr(matching, "_ranked", lambda candidates: ranked.append(1) or rank(candidates))
        assert max_matching(candidates, 2, 1).pairs == (CandidatePair(a1, b1, 3),) and not ranked
        candidates.reverse()
        assert max_matching(candidates, 2, 1).pairs == (CandidatePair(a1, b1, 3),) and ranked == [1]


@pytest.mark.parametrize("held", [True, False], ids=["held", "unheld"])
@pytest.mark.parametrize("left_context,expected", [
    ("L", [(1, 2), (2, 3), (3, 1)]),  # "L" < "R": the tie-break reads the a-side
    ("S", [(1, 3), (2, 1), (3, 2)]),  # "R" < "S": it reads the b-side
])
def test_carried_cells_read_the_tie_break_from_the_side_with_the_smaller_context(left_context, expected, held):
    # The cells of test_tie_break_reads_the_side_with_the_smaller_context, as
    # table levels of concepts declared out of reference order.
    left = Concept("Left", tuple(AttributeStatement(f"a{i}", "x") for i in (3, 1, 2)))
    right = Concept("Right", tuple(AttributeStatement(f"b{j}", "y") for j in (2, 3, 1)))
    cells = [(1, 2), (2, 3), (3, 1), (1, 3), (2, 1), (3, 2)]
    table = AnnotationTable((AttrRef(left_context, "Left", f"a{i}"), ref_r(j), 2) for i, j in cells)
    contexts = (SemanticContext(left_context, (left,)), SemanticContext("R", (right,))) if held else ()
    scorer = MapConfig(annotations=table, mode="annotated").make_scorer(*contexts)
    candidates = candidate_pairs(left_context, left, "R", right, scorer, 2)
    assert len(candidates) == 6
    selected = max_matching(candidates, 3, 3)
    assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [(f"a{i}", f"b{j}") for i, j in expected]


class TestBruteForceOracle:
    def test_same_examples_as_max_matching(self):
        for candidates, sizes in (
            ([cand(1, 1), cand(1, 2), cand(2, 1)], (2, 2)),
            ([], (3, 3)),
            ([cand(3, 3), cand(4, 4), cand(6, 6)], (6, 6)),
        ):
            assert brute_force_matching(candidates, *sizes) == max_matching(candidates, *sizes)

    def test_single_candidate(self):
        selected = brute_force_matching([cand(2, 3)], 4, 4)
        assert [(p.left.attr, p.right.attr) for p in selected.pairs] == [("a2", "b3")]

    def test_shared_left_forces_choice(self):
        selected = brute_force_matching([cand(1, 1, 2), cand(1, 2, 2)], 1, 2)
        assert len(selected.pairs) == 1

    def test_bound_is_enforced(self):
        with pytest.raises(OracleBoundError, match="oracle bound exceeded"):
            brute_force_matching([], 11, 2)

    @settings(max_examples=300)
    @given(instances())
    def test_agrees_with_max_matching(self, instance):
        pairs, n_left, n_right = instance
        assert max_matching(pairs, n_left, n_right) == brute_force_matching(pairs, n_left, n_right)

    def test_agreement_on_200_seeded_instances(self):
        # a speed guard as well: hypothesis examples run without a deadline
        rng = random.Random(0x5EED)
        started = time.perf_counter()
        for _ in range(200):
            pairs, n_left, n_right = random_instance(rng)
            assert max_matching(pairs, n_left, n_right) == brute_force_matching(pairs, n_left, n_right)
        assert time.perf_counter() - started < 10.0


def matched_cells(match):
    return [(p.left.attr, p.right.attr) for p in match.pairs]


class TestDenseReference:
    """The sparse solve against the dense zero-filled assignment it replaced,
    on sides above the exhaustive oracle's bound."""

    def test_agreement_on_200_seeded_instances_up_to_24_a_side(self):
        rng = random.Random(0xD15E)
        densities = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
        for _ in range(200):
            pairs, n_left, n_right = random_instance(rng, 24, densities)
            rng.shuffle(pairs)
            expected = dense_reference_matching(pairs, n_left, n_right)
            assert max_matching(pairs, n_left, n_right) == expected
            mirrored = [flip(p) for p in pairs]
            assert max_matching(mirrored, n_right, n_left) == mirror(expected)

    def test_later_row_displaces_an_earlier_one(self):
        # a1 takes b1 first; a2 must push it back to unmatched
        candidates = [cand(1, 1, 1), cand(2, 1, 3)]
        for matcher in (max_matching, dense_reference_matching):
            assert matched_cells(matcher(candidates, 2, 1)) == [("a2", "b1")]

    def test_three_row_chain_of_displacements(self):
        # a1 holds b1 and a2 b2 until a3 arrives: one augmenting path then
        # gives b2 to a3, moves a2 onto b1 and leaves a1 unmatched
        candidates = [cand(1, 1, 1), cand(2, 1, 2), cand(2, 2, 1), cand(3, 2, 3)]
        for matcher in (max_matching, dense_reference_matching):
            assert matched_cells(matcher(candidates, 3, 2)) == [("a2", "b1"), ("a3", "b2")]

    def test_displacements_onto_other_columns(self):
        # a2 moves a1 from b1 onto b2, then a3 moves a2 from b1 onto b3
        candidates = [
            cand(1, 1, 3), cand(1, 2, 1),
            cand(2, 1, 3), cand(2, 3, 1),
            cand(3, 1, 3),
        ]
        for matcher in (max_matching, dense_reference_matching):
            assert matched_cells(matcher(candidates, 3, 3)) == [("a1", "b2"), ("a2", "b3"), ("a3", "b1")]

    @pytest.mark.parametrize("n_left,n_right", [(1, 12), (12, 1)])
    def test_unbalanced_sides(self, n_left, n_right):
        candidates = [
            cand(i, j, 1 + (i + j) % 3) for i in range(1, n_left + 1) for j in range(1, n_right + 1)
        ]
        selected = max_matching(candidates, n_left, n_right)
        assert selected == dense_reference_matching(candidates, n_left, n_right)
        # the one pair: the highest level, then the smallest pair
        assert [(p.left.attr, p.right.attr, p.level) for p in selected.pairs] == [("a1", "b1", 3)]

    def test_complete_20x20_graph_selects_the_diagonal(self):
        candidates = [cand(i, j) for i in range(1, 21) for j in range(1, 21)]
        with time_limit(10.0):
            selected = max_matching(candidates, 20, 20)
        assert matched_cells(selected) == sorted((f"a{i}", f"b{i}") for i in range(1, 21))

    def test_disconnected_components(self):
        # four components: a 2x2 block, a conflicting star, an isolated pair
        # and a chain; each is solved as if alone
        candidates = [
            cand(1, 1), cand(1, 2), cand(2, 1), cand(2, 2),
            cand(3, 3, 1), cand(4, 3, 2), cand(5, 3, 1),
            cand(6, 4, 3),
            cand(7, 5), cand(7, 6), cand(8, 6),
        ]
        selected = max_matching(candidates, 8, 6)
        assert selected == dense_reference_matching(candidates, 8, 6)
        assert matched_cells(selected) == [
            ("a1", "b1"), ("a2", "b2"), ("a4", "b3"), ("a6", "b4"), ("a7", "b5"), ("a8", "b6"),
        ]
