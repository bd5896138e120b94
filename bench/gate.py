"""Correctness gate: a report only counts when it passes these checks.

The checks re-derive what a report must say from the generated corpus text
and the documented rules, without reusing the package's code paths:

* every concept pair is present, in name order, with a bijective matching
  over attribute ids that exist;
* ``similarity_pct`` is ``100k / (n1 + n2 - k)`` rounded half up to one
  decimal, and ``relation`` follows the documented precedence (equivalent,
  sub-concept, super-concept, related, independent);
* each best match is the highest similarity, ties broken by name;
* the bundled Scrum -> Essence case study gives the paper's line in both
  annotated and heuristic mode;
* ``max_matching`` agrees with the exhaustive oracle in ``oracle.py``.

The self-mapping invariant (a concept is its own best match at 100%) is not
checked: every workload maps two distinct contexts.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from oracle import SIDE_LIMIT, oracle_matching

CASE_STUDY_LINE = "ProductBacklog -> Requirements  33.3%  related  [b3-a3 b4-a4 b6-a6]"

_TABLE_RESULT = re.compile(r"(\S+) -> (\S+)  (\d+\.\d)%  (\S+)  \[(.*)\]\Z")
_TABLE_BEST = re.compile(r"(\S+) -> (\S+)  (\d+\.\d)%\Z")
_TSV_HEADER = "left\tright\tsimilarity_pct\trelation\tmatches"
_TSV_BEST_HEADER = "practice\tbest_framework\tsimilarity_pct"


class ReportError(ValueError):
    """A report that does not parse or does not say what it must."""


@dataclass(frozen=True)
class ConceptFacts:
    attr_ids: tuple[str, ...]
    labels: frozenset[str]


@dataclass(frozen=True)
class Row:
    left: str
    right: str
    pct: str
    relation: str
    matches: tuple[tuple[str, str], ...]


def concept_facts(text: str) -> dict[str, ConceptFacts]:
    """Attribute ids and normalized object labels per concept name."""
    facts: dict[str, ConceptFacts] = {}
    name, attrs, labels = None, [], set()
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("concept:"):
            name, attrs, labels = line[len("concept:"):].strip(), [], set()
        elif line.startswith("attr "):
            attrs.append(line[len("attr "):].partition(":")[0].strip())
        elif line.startswith("obj "):
            labels.add(" ".join(line.partition(":")[2].lower().split()))
        elif line == "end":
            facts[name] = ConceptFacts(tuple(attrs), frozenset(labels))
    return facts


def format_pct(value: Fraction) -> str:
    """One decimal, halves rounded up."""
    scaled = int(value * 10 + Fraction(1, 2))
    return f"{scaled // 10}.{scaled % 10}"


def expected_relation(k: int, c1: ConceptFacts, c2: ConceptFacts) -> str:
    n1, n2 = len(c1.attr_ids), len(c2.attr_ids)
    if k == n1 == n2 and c1.labels == c2.labels:
        return "equivalent"
    if k == n2 and n1 > n2:
        return "sub-concept"
    if k == n1 and n2 > n1:
        return "super-concept"
    return "related" if k else "independent"


def _pair_list(cells, separator: str) -> tuple[tuple[str, str], ...]:
    out = []
    for cell in cells:
        left, sep, right = cell.partition(separator)
        if not sep:
            raise ReportError(f"bad match cell {cell!r}")
        out.append((left, right))
    return tuple(out)


def _parse_table(lines, mode, threshold):
    header = f"mapping P -> F  (mode {mode}, threshold {threshold})"
    if lines[:2] != [header, ""]:
        raise ReportError(f"bad table header {lines[:2]!r}")
    split = lines.index("best matches:")
    rows, best = [], []
    for line in lines[2:split - 1]:
        found = _TABLE_RESULT.match(line)
        if not found:
            raise ReportError(f"bad table row {line!r}")
        left, right, pct, relation, cells = found.groups()
        pairs = () if cells == "-" else _pair_list(cells.split(" "), "-")
        rows.append(Row(left, right, pct, relation, pairs))
    for line in lines[split + 1:]:
        found = _TABLE_BEST.match(line)
        if not found:
            raise ReportError(f"bad best-match row {line!r}")
        best.append(found.groups())
    return rows, best


def _strip_context(ref: str, context: str) -> str:
    prefix = context + "/"
    if not ref.startswith(prefix):
        raise ReportError(f"{ref!r} is not in context {context}")
    return ref[len(prefix):]


def _parse_tsv(lines):
    split = lines.index("")
    if lines[0] != _TSV_HEADER or lines[split + 1] != _TSV_BEST_HEADER:
        raise ReportError("bad tsv headers")
    rows, best = [], []
    for line in lines[1:split]:
        cells = line.split("\t")
        if len(cells) != 5:
            raise ReportError(f"bad tsv row {line!r}")
        left, right, pct, relation, matches = cells
        pairs = _pair_list(matches.split(","), "-") if matches else ()
        rows.append(Row(_strip_context(left, "P"), _strip_context(right, "F"), pct, relation, pairs))
    for line in lines[split + 2:]:
        cells = line.split("\t")
        if len(cells) != 3:
            raise ReportError(f"bad tsv best-match row {line!r}")
        best.append(tuple(cells))
    return rows, best


def _parse_jsonl(lines):
    rows, best = [], []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"bad jsonl line {line!r}") from exc
        pct = f"{record['similarity_pct']:.1f}"
        if "left" in record:
            rows.append(Row(
                _strip_context(record["left"], "P"),
                _strip_context(record["right"], "F"),
                pct,
                record["relation"],
                _pair_list(record["matches"], "-"),
            ))
        else:
            best.append((record["practice"], record["best_match"], pct))
    return rows, best


def check_report(text: str, out_format: str, practice: str, framework: str,
                 mode: str, threshold: int) -> None:
    """Raise :class:`ReportError` unless the report is right for the corpus."""
    if not text.endswith("\n"):
        raise ReportError("report does not end with a newline")
    lines = text[:-1].split("\n")
    try:
        if out_format == "table":
            rows, best = _parse_table(lines, mode, threshold)
        elif out_format == "tsv":
            rows, best = _parse_tsv(lines)
        else:
            rows, best = _parse_jsonl(lines)
    except ReportError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ReportError(f"malformed {out_format} report: {exc!r}") from exc

    p_facts, f_facts = concept_facts(practice), concept_facts(framework)
    expected_order = [(p, f) for p in sorted(p_facts) for f in sorted(f_facts)]
    if [(row.left, row.right) for row in rows] != expected_order:
        raise ReportError("results do not cover every concept pair in name order")
    best_rows = []
    for row in rows:
        c1, c2 = p_facts[row.left], f_facts[row.right]
        lefts = [a for a, _ in row.matches]
        rights = [b for _, b in row.matches]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ReportError(f"{row.left} -> {row.right}: matching is not bijective")
        if not set(lefts) <= set(c1.attr_ids) or not set(rights) <= set(c2.attr_ids):
            raise ReportError(f"{row.left} -> {row.right}: unknown attribute in matching")
        k = len(row.matches)
        pct = Fraction(100 * k, len(c1.attr_ids) + len(c2.attr_ids) - k)
        if row.pct != format_pct(pct):
            raise ReportError(f"{row.left} -> {row.right}: similarity {row.pct}, expected {format_pct(pct)}")
        relation = expected_relation(k, c1, c2)
        if row.relation != relation:
            raise ReportError(f"{row.left} -> {row.right}: relation {row.relation}, expected {relation}")
        best_rows.append((row.left, -pct, row.right))
    expected_best = []
    for p_name in sorted(p_facts):
        _, neg_pct, f_name = min(r for r in best_rows if r[0] == p_name)
        expected_best.append((p_name, f_name, format_pct(-neg_pct)))
    if [tuple(b) for b in best] != expected_best:
        raise ReportError("best matches disagree with the results")


def case_study(run_table) -> list[str]:
    """Problems with the bundled case study; ``run_table(mode)`` renders it."""
    problems = []
    for mode in ("annotated", "heuristic"):
        report = run_table(mode)
        if CASE_STUDY_LINE not in report.splitlines():
            problems.append(f"case study in {mode} mode lacks {CASE_STUDY_LINE!r}")
    return problems


def oracle_probe(practice, framework, scorer, threshold: int,
                 rng: random.Random, samples: int) -> tuple[int, int]:
    """(pairs checked, mismatches) of ``max_matching`` against the oracle.

    Concept pairs are drawn with ``rng``; concepts longer than the oracle's
    side limit are cut to their first ``SIDE_LIMIT`` attributes.
    """
    import essencemap

    mismatches = 0
    for _ in range(samples):
        c1 = rng.choice(practice.concepts)
        c2 = rng.choice(framework.concepts)
        c1 = essencemap.Concept(c1.name, c1.attributes[:SIDE_LIMIT])
        c2 = essencemap.Concept(c2.name, c2.attributes[:SIDE_LIMIT])
        candidates = essencemap.candidate_pairs(practice.id, c1, framework.id, c2, scorer, threshold)
        got = essencemap.max_matching(candidates, len(c1.attributes), len(c2.attributes))
        want = oracle_matching((p.left, p.right, p.level) for p in candidates)
        if [(p.left, p.right, p.level) for p in got.pairs] != want:
            mismatches += 1
    return samples, mismatches
