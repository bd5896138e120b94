import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essencemap import bundled_path, cli, load_concepts
from essencemap.cli import EXIT_OK, EXIT_PARSE, EXIT_REFERENCE, EXIT_USAGE, format_pct, main
from essencemap.lta import MODES


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


def test_relation_line_exits_2_as_unrecognized_with_its_line(tmp_path, capsys):
    path = tmp_path / "rel.concepts"
    path.write_text("context: EF\nconcept: X\nattr a1: t\nrel-in: EF/Opportunity\nend\n", encoding="utf-8")
    assert main(["parse", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == (f"essencemap: {path}:4: unrecognized line; "
                                       "expected one of context:, concept:, attr, obj, end\n")


def test_concept_name_with_whitespace_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "spaced.concepts"
    path.write_text("context: Scrum\nconcept: Product Backlog\nattr a1: t\nend\n", encoding="utf-8")
    assert main(["parse", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(
        f"essencemap: {path}:2: concept name must be a single token with no whitespace"
    )


_PAIR_B1_A1 = "pair: Scrum/ProductBacklog.b1 EF/Requirements.a1"


@pytest.mark.parametrize(
    "option,content,line,message",
    [
        ("--practice", "context: Scrum\nconcept: X\nattr a1: t\nobj o:1: v\nend\n", 4,
         "object id must be a single token with no ':', got 'o:1'"),
        ("--lexicon", "syn: cat, dog\nsyn: cats, bird\n", 2,
         "token 'cats' collides with another synonym group via stemmed form 'cat'"),
        ("--lexicon", "stop: noise\nsyn: pbis, backlog-item\n", 2,
         "synonym 'backlog-item' can never match: text tokenizes to ['backlog', 'item']"),
        ("--lexicon", "syn: pbis, backlog\nverb: set-up\n", 2,
         "verb 'set-up' can never match: text tokenizes to ['set', 'up']"),
        ("--lexicon", "stop: noise\n\nstop: don't, Foo-Bar\n", 3,
         "stopword \"don't\" can never match: text tokenizes to ['dont']"),
        ("--annotations", f"{_PAIR_B1_A1} = 1\n\n{_PAIR_B1_A1} = 9\n", 3,
         "level must be between 0 and 3"),
        ("--annotations", "pair: EF/Requirements.a1 EF/Requirements.a1 = 1\n", 1,
         "cannot annotate EF/Requirements.a1 against itself"),
    ],
)
def test_value_the_model_rejects_exits_2_with_its_line(
    option, content, line, message, scrum, essence, tmp_path, capsys
):
    path = tmp_path / "bad.input"
    path.write_text(content, encoding="utf-8")
    files = {"--practice": scrum, "--framework": essence, "--lexicon": bundled_path("paper.lex"),
             option: path}
    argv = ["map"]
    for flag, value in files.items():
        argv += [flag, str(value)]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"essencemap: {path}:{line}: {message}")


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


# Each score golden: its file stem and the options after the pair and its files.
# At threshold 3 the case-study pair has no candidate, so that golden pins the empty view.
_SCORE_GOLDENS = {**{f"score-{mode}": args for mode, args in _MODE_ARGS.items()},
                  "score-heuristic-t3": [*_MODE_ARGS["heuristic"], "--threshold", "3"]}


@pytest.mark.parametrize("golden", sorted(_SCORE_GOLDENS), ids=lambda stem: stem.removeprefix("score-"))
def test_score_case_study_matches_golden(golden, scrum, essence, capsys):
    argv = ["score", "--left", "Scrum/ProductBacklog", "--right", "EF/Requirements",
            "--practice", str(scrum), "--framework", str(essence), *_SCORE_GOLDENS[golden]]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
    assert err == ""


def test_score_scores_each_cell_once_for_its_listing(scrum, essence, monkeypatch, capsys):
    # 36 cells for the level matrix, which also gives the candidate listing,
    # plus 36 for candidate_pairs: annotated mode scores every cell, so that a gap raises
    from essencemap.lta import StatementScorer

    calls = []
    level = StatementScorer.level

    def counting_level(self, a, b):
        calls.append((a.ref, b.ref))
        return level(self, a, b)

    monkeypatch.setattr(StatementScorer, "level", counting_level)
    argv = ["score", "--left", "Scrum/ProductBacklog", "--right", "EF/Requirements",
            "--practice", str(scrum), "--framework", str(essence), *_MODE_ARGS["annotated"]]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "score-annotated.txt").read_text(encoding="utf-8")
    assert len(calls) == 72


@pytest.mark.parametrize("mode", sorted(_MODE_ARGS))
def test_score_splits_each_statement_once(mode, scrum, essence, monkeypatch, capsys):
    # 6 + 6 attributes: candidate_pairs and the level matrix read the same rows.
    from essencemap import lta

    calls = []
    extract_spo = lta.extract_spo

    def counting_extract_spo(*args, **kwargs):
        calls.append(args[0])
        return extract_spo(*args, **kwargs)

    monkeypatch.setattr(lta, "extract_spo", counting_extract_spo)
    argv = ["score", "--left", "Scrum/ProductBacklog", "--right", "EF/Requirements",
            "--practice", str(scrum), "--framework", str(essence), *_MODE_ARGS[mode]]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"score-{mode}.txt").read_text(encoding="utf-8")
    assert len(calls) == 12


_AGREE_PRACTICE = """context: P
concept: Alpha
attr a1: the team reviews the backlog
end
concept: Beta
attr b1: the owner orders the backlog items
attr b2: the team plans the sprint goal
end
concept: Gamma
attr g1: the team reviews the product backlog
attr g2: the team plans the sprint
attr g3: the developers build the increment
end
"""
_AGREE_FRAMEWORK = """context: F
concept: Xeno
attr x1: the team plans the sprint
end
concept: Yarn
attr y1: the owner orders the backlog items
attr y2: the stakeholders inspect the increment
end
concept: Zeta
attr z1: the team reviews the backlog
attr z2: the owner orders the product backlog
attr z3: the developers build the increment
attr z4: the stakeholders approve the release
end
"""
# A partial table: a1-z1 falls from 3 to 1, b2-y2 rises to 3, and g3-x1 rises to a candidate
# that the matching passes over for g2-x1.
_AGREE_ANNOTATIONS = """pair: P/Alpha.a1 F/Zeta.z1 = 1
pair: P/Beta.b2 F/Yarn.y2 = 3
pair: P/Gamma.g3 F/Xeno.x1 = 2
"""


def test_score_agrees_with_map_on_every_pair(tmp_path, capsys):
    files = {"practice": _AGREE_PRACTICE, "framework": _AGREE_FRAMEWORK, "annotations": _AGREE_ANNOTATIONS,
             "lexicon": "verb: reviews, orders, plans, build, inspect, approve\n"}
    corpus = []
    for option, text in files.items():
        (tmp_path / option).write_text(text, encoding="utf-8")
        corpus += [f"--{option}", str(tmp_path / option)]
    sizes = {c.name: len(c.attributes) for path in ("practice", "framework")
             for c in load_concepts(tmp_path / path).concepts}
    relations = set()
    for mode in ("heuristic", "hybrid"):
        for threshold in ("1", "2", "3"):
            options = [*corpus, "--mode", mode, "--threshold", threshold]
            assert main(["map", *options]) == EXIT_OK
            rows = capsys.readouterr().out.split("\n")[2:11]
            for row in rows:
                left, _, right = row.split("  ")[0].split()
                assert main(["score", "--left", f"P/{left}", "--right", f"F/{right}", *options]) == EXIT_OK
                out = capsys.readouterr().out.splitlines()
                line, _, bracket = row.rpartition("  [")
                assert out[-1] == line
                matching = next(o for o in out if o.startswith("matching: ")).removeprefix("matching: ")
                assert matching.replace("(empty)", "-") == bracket.rstrip("]")
                similarity = next(o for o in out if o.startswith("similarity: "))
                k, union = map(int, similarity.split()[1].split("/"))
                assert union == sizes[left] + sizes[right] - k
                relations.update(o for o in out if o.endswith(": yes"))
    assert {"sub-concept: yes", "super-concept: yes"} <= relations


@pytest.mark.parametrize("mode", sorted(_MODE_ARGS))
@pytest.mark.parametrize("out_format", ["tsv", "jsonl", "table"])
def test_map_case_study_matches_golden(out_format, mode, scrum, essence, capsys):
    # The case study reproduces the paper in both modes, so they share one file,
    # except for the table, whose header names the mode.
    golden = f"case-study-{mode}.table" if out_format == "table" else f"case-study.{out_format}"
    argv = ["map", "--practice", str(scrum), "--framework", str(essence),
            "--format", out_format, *_MODE_ARGS[mode]]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert err == ""


@pytest.mark.parametrize("name", ["scrum", "essence"])
def test_parse_show_spo_matches_golden(name, capsys):
    argv = ["parse", str(bundled_path(f"{name}.concepts")), "--show-spo", "--lexicon", str(bundled_path("paper.lex"))]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDEN / f"parse-spo-{name}.txt").read_bytes()
    assert err == ""


def _run_module(*argv):
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "essencemap", *argv],
                          capture_output=True, env=env, check=False)


def test_module_runs_as_a_process(scrum, essence, tmp_path):
    done = _run_module("map", "--practice", str(scrum), "--framework", str(essence),
                       "--format", "tsv", *_MODE_ARGS["heuristic"])
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, (GOLDEN / "case-study.tsv").read_bytes(), b"")
    bad = tmp_path / "bad.concepts"
    bad.write_text("context: EF\nconcept: X\nattr A1: t\nend\n", encoding="utf-8")
    done = _run_module("parse", str(bad))
    assert done.returncode == EXIT_PARSE
    assert done.stderr.decode().startswith(f"essencemap: {bad}:3: attribute id must match")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def clashing_files(tmp_path):
    """Two different concept files that both say ``context: S``."""
    alpha = _write(tmp_path / "a.concepts", "context: S\nconcept: Alpha\nattr a1: is small\nend\n")
    beta = _write(tmp_path / "b.concepts", "context: S\nconcept: Beta\nattr b1: is fast\nend\n")
    annotations = _write(tmp_path / "s.ann", "pair: S/Alpha.a1 S/Beta.b1 = 2\n")
    return alpha, beta, annotations


@pytest.mark.parametrize("command", ["map", "map-annotated", "score"])
def test_two_files_with_one_context_id_exit_3(command, clashing_files, capsys):
    alpha, beta, annotations = clashing_files
    argv = ["--practice", str(alpha), "--framework", str(beta), "--mode", "heuristic"]
    if command == "score":
        argv = ["score", "--left", "S/Alpha", "--right", "S/Beta", *argv]
    else:
        argv = ["map", *argv]
    if command == "map-annotated":
        argv += ["--annotations", str(annotations)]
    assert main(argv) == EXIT_REFERENCE
    assert capsys.readouterr().err == (
        "essencemap: practice and framework both define context 'S' with different concepts\n"
    )


@pytest.mark.parametrize("command", ["map", "score"])
def test_one_concept_file_is_loaded_once(command, essence, monkeypatch):
    loaded = []

    def counting_load(path):
        loaded.append(path)
        return load_concepts(path)

    monkeypatch.setattr(cli, "load_concepts", counting_load)
    if command == "map":  # --framework names the --practice file
        argv = ["map", "--practice", str(essence), "--framework", str(essence)]
    else:  # --framework omitted
        argv = ["score", "--left", "EF/Requirements", "--right", "EF/Requirements",
                "--practice", str(essence)]
    assert main(argv) == EXIT_OK
    assert loaded == [essence]


def test_one_file_as_both_sides_maps(clashing_files, capsys):
    alpha = clashing_files[0]
    assert main(["map", "--practice", str(alpha), "--framework", str(alpha)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("mapping S -> S")


@pytest.mark.parametrize("command, text, message", [
    ("map", "context: P\nconcept: A\nend\n", "concept P/A has no attributes"),
    ("score", "context: P\nconcept: A\nend\n", "concept P/A has no attributes"),
    ("map", "context: P\n", "context 'P' has no concepts"),
])
def test_concept_or_context_with_nothing_to_map_exits_2_without_a_line(
        command, text, message, essence, tmp_path, capsys):
    # The files parse; the mapper rejects them, so the message names no source:line.
    practice = _write(tmp_path / "p.concepts", text)
    argv = ["--practice", str(practice), "--framework", str(essence), "--mode", "heuristic"]
    argv = ["score", "--left", "P/A", "--right", "EF/Requirements", *argv] if command == "score" else ["map", *argv]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == f"essencemap: {message}\n"


_CASE_FILES = {name: bundled_path(name).read_bytes()
               for name in ("scrum.concepts", "essence.concepts", "paper.lex", "paper-table1.ann")}
# Bytes worth inserting: invalid UTF-8, a BOM, NUL, line breaks and line syntax.
_INSERTS = (b"\xff", b"\xe9", b"\xc3", b"\xef\xbb\xbf", b"\x00", b"\n", b"\r", b"\\\n", b":", b"=",
            b"/", b".", b"#", b" ", b"end\n", b"concept: ", b"attr a1: ", b"obj o1: ", b"pair: ")


@st.composite
def _mutated(draw, data):
    """``data`` after one to four edits: bytes deleted or inserted, lines shuffled or duplicated."""
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("delete", "insert", "shuffle", "duplicate")))
        at = draw(st.integers(0, len(data)))
        if edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 16)):]
        elif edit == "insert":
            data = data[:at] + draw(st.sampled_from(_INSERTS) | st.binary(min_size=1, max_size=4)) + data[at:]
        else:
            lines = data.splitlines(keepends=True)
            i = draw(st.integers(0, len(lines)))
            if edit == "shuffle":
                j = draw(st.integers(i, min(len(lines), i + 6)))
                lines[i:j] = draw(st.permutations(lines[i:j]))
            elif i < len(lines):
                lines.insert(i, lines[i])
            data = b"".join(lines)
    return data


@pytest.mark.parametrize("command", ["map", "score", "parse"])
@settings(derandomize=True, database=None, max_examples=100)
@given(data=st.data())
def test_mutated_case_study_files_exit_0_2_or_3_with_one_line(command, data):
    if command == "parse":
        flags = data.draw(st.sampled_from(([], ["--show-spo"], ["--show-spo", "--lexicon"])))
        used = ["scrum.concepts"] + (["paper.lex"] if "--lexicon" in flags else [])
    else:
        mode = data.draw(st.sampled_from(MODES))
        used = ["scrum.concepts", "essence.concepts"]
        used += {"heuristic": ["paper.lex"], "annotated": ["paper-table1.ann"],
                 "hybrid": ["paper.lex", "paper-table1.ann"]}[mode]
    target = data.draw(st.sampled_from(used))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: bundled_path(name) for name in used}
        paths[target] = Path(tmp) / target
        paths[target].write_bytes(data.draw(_mutated(_CASE_FILES[target])))
        if command == "parse":
            argv = ["parse", str(paths["scrum.concepts"]), *flags]
            if "--lexicon" in flags:
                argv.append(str(paths["paper.lex"]))
        else:
            argv = ["--practice", str(paths["scrum.concepts"]), "--framework", str(paths["essence.concepts"]),
                    "--mode", mode]
            if "paper.lex" in paths:
                argv += ["--lexicon", str(paths["paper.lex"])]
            if "paper-table1.ann" in paths:
                argv += ["--annotations", str(paths["paper-table1.ann"])]
            if command == "score":
                argv = ["score", "--left", "Scrum/ProductBacklog", "--right", "EF/Requirements", *argv]
            else:
                argv = ["map", *argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_REFERENCE)
    if code != EXIT_OK:
        message = err.getvalue()
        assert message.startswith("essencemap: ") and message.count("\n") == 1 and message.endswith("\n")


_VERBLESS = (
    "context: V\nconcept: Thing\nattr a1: purely nominal phrase\nattr a2: team is small\nend\n"
    "concept: Other\nattr b1: team is fast\nend\n"
)


def test_verbless_note_printed_once_and_kept_out_of_the_report(tmp_path, capsys):
    path = _write(tmp_path / "verbless.concepts", _VERBLESS)
    out = tmp_path / "report.txt"
    argv = ["map", "--practice", str(path), "--framework", str(path), "--mode", "hybrid",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == "no verb found in V/Thing.a1; predicate similarity disabled\n"
    assert b"no verb" not in out.read_bytes()


def test_show_spo_marks_a_missing_verb(tmp_path, capsys):
    path = _write(tmp_path / "verbless.concepts", _VERBLESS)
    assert main(["parse", "--show-spo", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  a1: subject=thing | predicate=‹none› | object=purely nominal phrase\n" in out
    assert "  a2: subject=team | predicate=is | object=small\n" in out


_percentages = st.integers(1, 400).flatmap(
    lambda u: st.builds(Fraction, st.integers(0, u).map(lambda k: 100 * k), st.just(u))
)


@given(value=_percentages)
def test_format_pct_rounds_like_exact_fractions(value):
    tenths = value * 10 + Fraction(1, 2)
    scaled = tenths.numerator // tenths.denominator
    assert format_pct(value) == f"{scaled // 10}.{scaled % 10}"
