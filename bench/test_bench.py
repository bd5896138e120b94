"""Tests of the benchmark's own parts: generator, oracle, hooks and gate.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import dataclasses
import io
import random
import re
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import essencemap  # noqa: E402
from essencemap.cli import main  # noqa: E402

import corpora  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
from oracle import oracle_matching  # noqa: E402

SMALL = {
    name: dataclasses.replace(shape, practice_concepts=4, framework_concepts=3)
    for name, shape in corpora.SHAPES.items()
}


def _map(shape, seed, directory):
    paths = corpora.write(corpora.generate(shape, seed), directory)
    out = directory / "report.out"
    argv = ["map", "--practice", str(paths["practice"]), "--framework", str(paths["framework"]),
            "--lexicon", str(essencemap.bundled_path("paper.lex")), "--mode", shape.mode,
            "--threshold", str(shape.threshold), "--format", shape.out_format, "--out", str(out)]
    if "annotations" in paths:
        argv += ["--annotations", str(paths["annotations"])]
    with redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(corpora.SHAPES))
def test_generator_is_deterministic_and_sized(name):
    shape = corpora.SHAPES[name]
    first, again = corpora.generate(shape, 7), corpora.generate(shape, 7)
    assert first == again
    assert corpora.generate(shape, 8) != first
    practice = gate.concept_facts(first.practice)
    framework = gate.concept_facts(first.framework)
    assert len(practice) == shape.practice_concepts
    assert len(framework) == shape.framework_concepts
    assert {len(f.attr_ids) for f in [*practice.values(), *framework.values()]} == {shape.attributes}
    if shape.annotated_share:
        pairs = first.annotations.count("\npair: ")
        assert pairs == round(shape.attr_pairs * shape.annotated_share)


def _random_candidates(rng):
    sides = [("P", "Alpha"), ("F", "Beta")]
    rng.shuffle(sides)
    (c1, n1), (c2, n2) = sides
    lefts = [essencemap.AttrRef(c1, n1, f"a{i}") for i in range(rng.randint(1, 7))]
    rights = [essencemap.AttrRef(c2, n2, f"b{i}") for i in range(rng.randint(1, 7))]
    density = rng.random()
    candidates = [essencemap.CandidatePair(l, r, rng.randint(1, 3))
                  for l in lefts for r in rights if rng.random() < density]
    return candidates, len(lefts), len(rights)


def test_oracle_agrees_with_max_matching_on_random_instances():
    rng = random.Random(1812)
    for _ in range(300):
        candidates, n1, n2 = _random_candidates(rng)
        got = essencemap.max_matching(candidates, n1, n2)
        want = oracle_matching((p.left, p.right, p.level) for p in candidates)
        assert [(p.left, p.right, p.level) for p in got.pairs] == want


def test_oracle_prefers_more_pairs_then_level_then_smaller_pairs():
    ref = essencemap.AttrRef
    a1, a2 = ref("F", "K", "a1"), ref("F", "K", "a2")
    b1, b2 = ref("P", "Q", "b1"), ref("P", "Q", "b2")
    # Two pairs beat one pair of higher level.
    assert oracle_matching([(a1, b1, 3), (a1, b2, 1), (a2, b1, 1)]) == [(a1, b2, 1), (a2, b1, 1)]
    # Equal size and level: the smaller sorted pair list wins.
    assert oracle_matching([(a1, b1, 2), (a1, b2, 2), (a2, b1, 2), (a2, b2, 2)]) == [
        (a1, b1, 2), (a2, b2, 2)]


def test_every_hook_target_resolves_and_is_restored(tmp_path):
    cli = sys.modules["essencemap.cli"]
    original = dict(cli._RENDERERS), essencemap.StatementScorer.level, cli.load_concepts
    trace = tracer.Tracer()
    with trace.installed():
        assert cli._RENDERERS["table"] is not original[0]["table"]
        _map(SMALL["annotated-hybrid"], 3, tmp_path)
    assert (dict(cli._RENDERERS), essencemap.StatementScorer.level, cli.load_concepts) == original
    called = {key for key, stats in trace.stats.items() if stats.calls}
    assert {"load_concepts", "load_lexicon", "load_annotations", "AnnotationTable.level_for",
            "StatementScorer.level", "extract_spo", "canonicalize_part", "candidate_pairs",
            "max_matching", "similarity", "classify", "map_contexts", "render_jsonl"} <= called
    assert trace.stats["map_contexts"].items == 4 * 3


def test_missing_hook_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (("lta", "essencemap.lta", "no_such_name"),))
    with pytest.raises(tracer.MissingHookError):
        with tracer.Tracer().installed():
            pass


@pytest.mark.parametrize("name", sorted(corpora.SHAPES))
def test_gate_accepts_real_reports_and_rejects_corrupted_ones(name, tmp_path):
    shape = SMALL[name]
    corpus = corpora.generate(shape, 5)
    report = _map(shape, 5, tmp_path)
    check = lambda text: gate.check_report(text, shape.out_format, corpus.practice,
                                           corpus.framework, shape.mode, shape.threshold)
    check(report)
    bump = lambda m: f"{m.group(1)}.{(int(m.group(2)) + 1) % 10}"
    corruptions = [
        report.replace("related", "independent", 1),
        re.sub(r"(\d+)\.(\d)", bump, report, count=1),
        report[: report.rindex("\n", 0, len(report) - 1) + 1],
        report.replace("best matches:", "best:").replace("practice\t", "p\t")
        .replace('"best_match"', '"best"'),
    ]
    for corrupted in corruptions:
        assert corrupted != report
        with pytest.raises(gate.ReportError):
            check(corrupted)


def test_case_study_passes_in_both_modes(tmp_path):
    def run_table(mode):
        out = tmp_path / f"{mode}.out"
        argv = ["map", "--practice", str(essencemap.bundled_path("scrum.concepts")),
                "--framework", str(essencemap.bundled_path("essence.concepts")),
                "--mode", mode, "--out", str(out)]
        if mode == "annotated":
            argv += ["--annotations", str(essencemap.bundled_path("paper-table1.ann"))]
        else:
            argv += ["--lexicon", str(essencemap.bundled_path("paper.lex"))]
        with redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return out.read_text(encoding="utf-8")

    assert gate.case_study(run_table) == []
    assert gate.case_study(lambda mode: "mapping\n") != []
