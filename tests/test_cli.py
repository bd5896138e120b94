from pathlib import Path

import pytest

from essencemap import bundled_path
from essencemap.cli import EXIT_OK, EXIT_PARSE, EXIT_REFERENCE, EXIT_USAGE, main


def _map_argv(practice, framework, lexicon, *extra):
    return ["map", "--practice", str(practice), "--framework", str(framework),
            "--mode", "heuristic", "--lexicon", str(lexicon), *extra]


@pytest.fixture
def scrum():
    return bundled_path("scrum.concepts")


@pytest.fixture
def essence():
    return bundled_path("essence.concepts")


def test_parse_bundled_file(scrum, capsys):
    assert main(["parse", str(scrum)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_missing_command_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("essencemap: usage:")


def test_non_utf8_concept_file_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "bad.concepts"
    path.write_bytes(b"context: EF\nconcept: X\nattr a1: caf\xe9 latte\nend\n")
    assert main(["parse", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"essencemap: {path}:3: invalid UTF-8 byte 0xE9\n"


def test_non_utf8_lexicon_exits_2(scrum, essence, tmp_path, capsys):
    lexicon = tmp_path / "bad.lex"
    lexicon.write_bytes(b"stop: the\n\xff\n")
    assert main(_map_argv(scrum, essence, lexicon)) == EXIT_PARSE
    assert f"{lexicon}:2: invalid UTF-8 byte 0xFF" in capsys.readouterr().err


def test_malformed_relation_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "rel.concepts"
    path.write_text("context: EF\nconcept: X\nattr a1: t\nrel-in: X/ B c\nend\n", encoding="utf-8")
    assert main(["parse", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"essencemap: {path}:4: expected 'rel-in:")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.concepts")]) == EXIT_PARSE
    assert "absent.concepts" in capsys.readouterr().err


def test_unknown_concept_exits_3(scrum, essence, capsys):
    argv = ["score", "--left", "Scrum/Nope", "--right", "EF/Requirements",
            "--practice", str(scrum), "--framework", str(essence), "--mode", "heuristic"]
    assert main(argv) == EXIT_REFERENCE
    assert "unknown concept 'Nope'" in capsys.readouterr().err


def test_map_report_is_byte_identical_across_runs(scrum, essence, tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    lexicon = bundled_path("paper.lex")
    assert main(_map_argv(scrum, essence, lexicon, "--out", str(first))) == EXIT_OK
    assert main(_map_argv(scrum, essence, lexicon, "--out", str(second))) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert "ProductBacklog" in first.read_text(encoding="utf-8")


GOLDEN = Path(__file__).parent / "golden"

# ``--mode`` plus the data file each mode reads.
_MODE_ARGS = {
    "heuristic": ["--mode", "heuristic", "--lexicon", str(bundled_path("paper.lex"))],
    "annotated": ["--mode", "annotated", "--annotations", str(bundled_path("paper-table1.ann"))],
}


@pytest.mark.parametrize("mode", sorted(_MODE_ARGS))
def test_score_case_study_matches_golden(mode, scrum, essence, capsys):
    argv = ["score", "--left", "Scrum/ProductBacklog", "--right", "EF/Requirements",
            "--practice", str(scrum), "--framework", str(essence), *_MODE_ARGS[mode]]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"score-{mode}.txt").read_text(encoding="utf-8")
    assert err == ""


@pytest.mark.parametrize("mode", sorted(_MODE_ARGS))
@pytest.mark.parametrize("out_format", ["tsv", "jsonl"])
def test_map_case_study_matches_golden(out_format, mode, scrum, essence, capsys):
    # The case study reproduces the paper in both modes, so they share one file.
    argv = ["map", "--practice", str(scrum), "--framework", str(essence),
            "--format", out_format, *_MODE_ARGS[mode]]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"case-study.{out_format}").read_text(encoding="utf-8")
    assert err == ""
