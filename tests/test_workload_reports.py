"""The report of each benchmark workload at seed 1, pinned by SHA-256.

Each workload's corpus is generated by ``bench/corpora.py`` and mapped
in-process with the options the benchmark passes, so a change that moves
any report byte of the three workloads fails here, not only in the
benchmark's own comparison.  Regenerate a hash only for an intended report
change, such as the case-study work of ROADMAP item 2, and name the change
and the new hash in CHANGES.md.  The annotated-hybrid corpus also pins
how many of the cells its map reads come with a table level, and each
workload and the case study show that a map leaves the collector nothing.
"""

import gc
import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from essencemap import StatementScorer, bundled_path, cli, load_annotations, load_concepts, load_lexicon
from essencemap.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpora  # noqa: E402

REPORT_SHA256 = {
    "scoring-wide": "674bc573bdeefb77b4b48d4a161f0358bab0ad416541f83d225756d5530a324f",
    "matching-dense": "e3dc94cb223f5a9ac8e7a12ef675efda9217101d84d3b3e7cebafc50c2ae07a4",
    "annotated-hybrid": "47198a961427ac8690fd9da0af50ecbc2a7f968c0105f5d339f47e6ce11e7adb",
}


def _map_argv(workload, directory, out):
    """The ``map`` arguments of a workload's seed-1 corpus, or of the hybrid case study."""
    if workload == "case-study":
        paths = {"practice": bundled_path("scrum.concepts"), "framework": bundled_path("essence.concepts"),
                 "annotations": bundled_path("paper-table1.ann")}
        mode, threshold, out_format = "hybrid", 2, "table"
    else:
        shape = corpora.SHAPES[workload]
        paths = corpora.write(corpora.generate(shape, 1), directory)
        mode, threshold, out_format = shape.mode, shape.threshold, shape.out_format
    argv = ["map", "--practice", str(paths["practice"]), "--framework", str(paths["framework"]),
            "--lexicon", str(bundled_path("paper.lex")), "--mode", mode,
            "--threshold", str(threshold), "--format", out_format, "--out", str(out)]
    if "annotations" in paths:
        argv += ["--annotations", str(paths["annotations"])]
    return argv


@pytest.mark.parametrize("workload", sorted(REPORT_SHA256))
def test_seed_1_report_hash(workload, tmp_path, capsys):
    out = tmp_path / "report.out"
    assert main(_map_argv(workload, tmp_path, out)) == 0
    capsys.readouterr()  # the no-verb diagnostics
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[workload]


@pytest.mark.parametrize("workload", [*sorted(REPORT_SHA256), "case-study"])
def test_a_map_leaves_no_garbage_for_the_collector(workload, tmp_path):
    # ``main`` pauses the collector for one command; that is safe only while
    # ``cmd_map`` builds no reference cycle, so none of its objects is left to collect.
    args = cli.build_parser().parse_args(_map_argv(workload, tmp_path, tmp_path / "report.out"))
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli.cmd_map(args)  # its report and notes are dropped at once
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_annotated_hybrid_level_sources(tmp_path):
    # A measurement of the seed-1 corpus: of the cells ``cells`` names for the
    # map, how many come with their table level and how many the heuristic scores.
    shape = corpora.SHAPES["annotated-hybrid"]
    paths = corpora.write(corpora.generate(shape, 1), tmp_path)
    contexts = practice, framework = load_concepts(paths["practice"]), load_concepts(paths["framework"])
    table = load_annotations(paths["annotations"], contexts)
    scorer = StatementScorer(load_lexicon(bundled_path("paper.lex")), table, shape.mode)
    sources = Counter("heuristic" if level is None else "table"
                      for c1 in practice.concepts for c2 in framework.concepts
                      for _, _, level in scorer.cells(practice.id, c1, framework.id, c2, shape.threshold))
    assert sources == {"table": 14274, "heuristic": 358}
