"""Mutation catalogue: each named mutant must fail one of the tests listed for it.

Run from the repository root::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

The script copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml``
to a temporary directory and first runs every listed test there
unmutated; they must all pass.  Then, for each mutant, it replaces the
mutant's old text, which must occur exactly once in its file, with the
new text, runs ``pytest -x -q`` on the mutant's tests, and puts the old
text back.  It exits non-zero when an old text does not occur exactly
once, when a listed test fails unmutated, or when a mutant is not caught,
so a refactor of the code a mutant edits updates the catalogue with it.

A mutant is caught only when pytest reports a failed test (exit code 1);
a collection or usage error is reported as an error.  So is a run killed
after ``TIMEOUT_S`` seconds, since a mutant can make the solve loop: it
is reported as ``error (timed out)``, the file is restored and the next
mutant runs.  Hypothesis tests run with ``--hypothesis-seed=0`` and,
under the ``mutants`` profile of ``tests/conftest.py``, without
shrinking.  Each mutant lists its fast deterministic tests first, and the
catalogue lists no equivalent mutant: every mutant changes what some
input gives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--hypothesis-profile=mutants")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, fast deterministic ones first


LTA, MATCHING, CORPUS = "src/essencemap/lta.py", "src/essencemap/matching.py", "src/essencemap/corpus.py"
CLI = "src/essencemap/cli.py"
T_LTA, T_MATCHING = "tests/test_lta.py", "tests/test_matching.py"
T_CLI, T_REPORTS, T_CORPUS = "tests/test_cli.py", "tests/test_workload_reports.py", "tests/test_corpus.py"

MUTANTS = (
    # The lexicon's memos and the statement split.
    Mutant("fold-keeps-a-canonical-stopword", LTA,
           "return None if folded in stopwords else folded",
           "return folded",
           (f"{T_LTA}::TestCanonicalizePart::test_idempotent_on_seeded_random_tokens",
            f"{T_LTA}::TestLexiconMemo::test_memo_equals_the_uncached_rule")),
    Mutant("verb-run-ends-one-token-early", LTA,
           "end = verbs.index(False, start)",
           "end = verbs.index(False, start) - 1",
           (f"{T_LTA}::TestExtractSpo::test_explicit_subject",
            f"{T_LTA}::TestLexiconMemo::test_split_reads_a_cold_and_a_filled_memo_alike")),
    Mutant("verb-run-at-the-end-unended", LTA,
           "        verbs.append(False)  # ends a run that ends the sentence\n",
           "",
           (f"{T_LTA}::TestLexiconMemo::test_split_reads_a_cold_and_a_filled_memo_alike",)),
    # Holding (``StatementScorer._hold``, and ``cells``'s own test of the held ``c2``).
    Mutant("twin-accepted", LTA,
           'raise UnknownReferenceError(f"two different concepts are named {context}/{concept.name}")',
           "return held",
           (f"{T_LTA}::TestScoringProperties::test_same_reference_scores_3_and_names_one_concept",)),
    Mutant("held-by-identity-only", LTA,
           "if held[0] is concept or held[0] == concept:",
           "if held[0] is concept:",
           (f"{T_LTA}::TestScoringProperties::test_same_reference_scores_3_and_names_one_concept",)),
    Mutant("held-c2-by-name-only", LTA,
           "if held2 is None or held2[0] is not c2:",
           "if held2 is None:",
           (f"{T_LTA}::TestScoringProperties::test_same_reference_scores_3_and_names_one_concept",)),
    Mutant("sweeps-kept-after-holding", LTA,
           "        self._sweeps.clear()\n",
           "",
           (f"{T_LTA}::TestOneScorerAcrossCalls"
            "::test_a_concept_held_after_a_sweep_pairs_with_the_swept_one",)),
    Mutant("bits-from-0", LTA,
           "offset = len(self._bits)",
           "offset = 0",
           (f"{T_LTA}::TestScoringProperties::test_prefilter_scores_only_qualifying_cells",)),
    Mutant("position-is-the-declaration-index", LTA,
           "(new(AttrRef, (context, name, ids[k])), position) + parts",
           "(new(AttrRef, (context, name, ids[k])), k) + parts",
           (f"{T_LTA}::test_position_of_the_out_of_order_fixture",)),
    # ``StatementScorer.cells``: its threshold check, then the sweep, whose first two mutants name too many cells.
    Mutant("threshold-unchecked", LTA,
           '        if threshold not in THRESHOLDS:\n'
           '            raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")\n',
           "",
           (f"{T_LTA}::TestStatementScorer::test_cells_refuse_a_threshold_outside_1_to_3_before_holding",)),
    Mutant("threshold-2-sweep-takes-any-part", LTA,
           "mask = (m0 & m1) | (m0 & m2) | (m1 & m2)",
           "mask = m0 | m1 | m2",
           (f"{T_CLI}::test_score_case_study_matches_golden[heuristic]",
            f"{T_REPORTS}::test_seed_1_report_hash[scoring-wide]",
            f"{T_REPORTS}::test_seed_1_report_hash[annotated-hybrid]")),
    Mutant("threshold-3-sweep-takes-two-parts", LTA,
           "mask = m0 & m1 & m2",
           "mask = (m0 & m1) | (m0 & m2) | (m1 & m2)",
           (f"{T_CLI}::test_score_case_study_matches_golden[heuristic-t3]",
            f"{T_LTA}::TestOutOfOrderIds::test_cells_hand_on_the_table_level_they_swept")),
    Mutant("table-level-below-keeps-heuristic-bits", LTA,
           "mask = (mask & ~below) | lifted",
           "mask = (mask & ~lifted) | lifted",
           (f"{T_REPORTS}::test_seed_1_report_hash[annotated-hybrid]",)),
    Mutant("left-row-without-merged-levels", LTA,
           "table.row(a.ref)",
           "table._rows.get(a.ref, NO_LEVELS)",
           (f"{T_CLI}::test_score_case_study_matches_golden[annotated-reversed]",
            "tests/test_mapper.py::TestMapPair::test_case_study_pair")),
    Mutant("table-cell-handed-none", LTA,
           "pairs.append((a, b, get(b.ref)))",
           "pairs.append((a, b, None))",
           (f"{T_REPORTS}::test_annotated_hybrid_level_sources",)),
    Mutant("unanswered-cell-handed-0", LTA,
           "pairs.append((a, b, get(b.ref)))",
           "pairs.append((a, b, get(b.ref, 0)))",
           (f"{T_REPORTS}::test_seed_1_report_hash[scoring-wide]",)),
    # The storage rule of ``AnnotationTable._add``: contexts rank as first named, the left
    # reference first, and a pair sits in the row of each reference that ranks no later.
    Mutant("table-right-context-ranked-first", CORPUS,
           "        first = ranks.setdefault(left.context, len(ranks))\n"
           "        second = ranks.setdefault(right.context, len(ranks))\n",
           "        second = ranks.setdefault(right.context, len(ranks))\n"
           "        first = ranks.setdefault(left.context, len(ranks))\n",
           (f"{T_CORPUS}::TestAnnotationTable::test_contexts_rank_where_first_named_the_left_reference_first",
            f"{T_CORPUS}::TestAnnotationTableProperties::test_symmetric_counted_once_and_held_by_the_one_rule")),
    Mutant("table-same-context-pair-not-in-the-left-row", CORPUS,
           "if first <= second:",
           "if first < second:",
           (f"{T_CORPUS}::TestAnnotationTable::test_contexts_rank_where_first_named_the_left_reference_first",
            f"{T_CORPUS}::TestAnnotationTableProperties::test_symmetric_counted_once_and_held_by_the_one_rule")),
    Mutant("table-same-context-pair-not-in-the-right-row", CORPUS,
           "if first >= second:",
           "if first > second:",
           (f"{T_CORPUS}::TestAnnotationTable::test_contexts_rank_where_first_named_the_left_reference_first",
            f"{T_CORPUS}::TestAnnotationTableProperties::test_symmetric_counted_once_and_held_by_the_one_rule")),
    # The solve's input (``candidate_pairs``, ``max_matching``).
    Mutant("never-flipped", MATCHING,
           "flipped = (context2, c2.name) < (context1, c1.name)",
           "flipped = False",
           (f"{T_MATCHING}::test_carried_cells_read_the_tie_break_from_the_side_with_the_smaller_context",)),
    Mutant("carried-cells-of-a-changed-list", MATCHING,
           "if type(candidates) is _Candidates and candidates == candidates._items:",
           "if type(candidates) is _Candidates:",
           (f"{T_MATCHING}::TestCarriedCells::test_only_a_changed_result_ranks_its_refs",)),
    Mutant("hand-built-level-unchecked", MATCHING,
           "if type(pair.level) is not int or not 1 <= pair.level <= 3:",
           "if False:",
           (f"{T_MATCHING}::TestMaxMatching::test_refuses_a_hand_built_level_outside_1_to_3",)),
    Mutant("one-candidate-level-unchecked", MATCHING,
           "            _check_level(candidates[0])\n",
           "            pass\n",
           (f"{T_MATCHING}::TestMaxMatching::test_refuses_a_hand_built_level_outside_1_to_3",)),
    Mutant("match-set-size-bound-unchecked", MATCHING,
           "if len(pairs) > min(left_size, right_size):",
           "if False:",
           ("tests/test_value_types.py::test_replace_runs_the_constructor_checks",)),
    Mutant("empty-set-keyed-by-left-size", MATCHING,
           "return _EMPTY_MATCHES[left_size, right_size]",
           "return _EMPTY_MATCHES.setdefault(left_size, MatchSet((), left_size, right_size))",
           (f"{T_MATCHING}::TestMaxMatching"
            "::test_an_empty_list_gives_the_empty_set_of_its_sizes_and_refuses_negative_ones",)),
    Mutant("empty-set-of-an-equal-size", MATCHING,
           "if type(left_size) is type(right_size) is int:",
           "if True:",
           (f"{T_MATCHING}::TestMaxMatching::test_refuses_sizes_that_are_not_int",)),
    Mutant("size-type-unchecked", MATCHING,
           "if type(left_size) is not int or type(right_size) is not int:",
           "if False:",
           (f"{T_MATCHING}::TestMaxMatching::test_refuses_sizes_that_are_not_int",
            "tests/test_value_types.py::test_replace_runs_the_constructor_checks")),
    Mutant("empty-iterable-unguarded", MATCHING,
           "        if not cells:\n            return MatchSet((), left_size, right_size)\n",
           "",
           (f"{T_MATCHING}::TestMaxMatching::test_any_iterable_of_candidates",)),
    Mutant("ranks-from-reversed-cells", MATCHING,
           "for i, j, pair in sorted(cells):",
           "for i, j, pair in sorted(cells, reverse=True):",
           (f"{T_MATCHING}::TestMaxMatching::test_tie_break_reads_the_side_with_the_smaller_context",)),
    # The solve (``_max_weight_matching``): the potential updates after a search.
    Mutant("root-potential-unset", MATCHING,
           "        u[root] += end\n",
           "",
           (f"{T_MATCHING}::TestDenseReference::test_agreement_on_seeded_instances",)),
    Mutant("scanned-column-potential-unset", MATCHING,
           "            v[col_of[i]] -= end - d\n",
           "",
           (f"{T_MATCHING}::TestDenseReference::test_agreement_on_seeded_instances",)),
    # ``map_contexts``: a fresh scorer holds only the practice, so each framework
    # concept is first held inside the pair loop; the report is the same.
    Mutant("framework-held-in-the-pair-loop", "src/essencemap/mapper.py",
           "scorer.profile(context.id, concept)",
           "(scorer if context is practice else config.make_scorer()).profile(context.id, concept)",
           ("tests/test_mapper.py::TestMapContexts::test_every_concept_is_held_before_the_first_sweep",)),
    Mutant("best-match-tie-to-the-later-result", "src/essencemap/mapper.py",
           "gain > 0",
           "gain >= 0",
           ("tests/test_mapper.py::TestMapContexts::test_best_match_tie_goes_to_the_higher_relation",
            "tests/test_mapper.py::TestMapContexts"
            "::test_best_match_compares_equal_similarities_with_different_terms")),
    # ``cli.main``: the collector is paused for one command and then left as the caller had it.
    Mutant("collector-left-off", CLI,
           "            gc.enable()\n",
           "            pass\n",
           (f"{T_CLI}::test_main_pauses_the_collector_for_one_command_and_restores_the_callers_state",)),
    Mutant("collector-enabled-for-a-caller-that-disabled-it", CLI,
           "        if collecting:\n",
           "        if True:\n",
           (f"{T_CLI}::test_main_pauses_the_collector_for_one_command_and_restores_the_callers_state",)),
    # Rendering.
    Mutant("format-pct-rounds-halves-down", CLI,
           "(20 * n + d) // (2 * d)",
           "(20 * n + d - 1) // (2 * d)",
           (f"{T_CLI}::test_format_pct_rounds_like_exact_fractions",)),
)


def pytest_run(directory: Path, tests) -> int | None:
    """pytest's exit code, or ``None`` when the run passes ``TIMEOUT_S`` and is killed."""
    env = dict(os.environ, PYTHONPATH=str(directory / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run([sys.executable, *PYTEST, *tests], cwd=directory, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return None


def verdict(code: int | None) -> str:
    return {0: "SURVIVED", 1: "caught", None: "error (timed out)"}.get(code, f"error (pytest exit {code})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="essencemap-mutants-") as tmp:
        directory = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, directory / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, directory / name)
        problems = []
        for mutant in mutants:
            count = (directory / mutant.path).read_text(encoding="utf-8").count(mutant.old)
            if count != 1:
                problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        tests = list(dict.fromkeys(test for mutant in mutants for test in mutant.tests))
        code = pytest_run(directory, tests)
        if code != 0:
            print(f"the listed tests do not pass unmutated: {verdict(code)}", file=sys.stderr)
            return 1
        for mutant in mutants:
            path = directory / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            began = time.monotonic()
            try:
                code = pytest_run(directory, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{mutant.name:48} {verdict(code):10} {time.monotonic() - began:5.1f} s")
            if code != 1:
                problems.append(mutant.name)
    seconds = time.monotonic() - start
    print(f"{len(mutants) - len(problems)} of {len(mutants)} mutants caught in {seconds:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
