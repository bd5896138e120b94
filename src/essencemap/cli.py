"""Command-line surface and report rendering.

Commands: ``map`` (full context-to-context report), ``score`` (detail view
for one concept pair), ``parse`` (corpus validation), ``version``.  Exit
codes: 0 success, 1 usage error, 2 parse/read error, 3 reference error.
Reports are byte-identical across runs for identical inputs; diagnostics
go to the error stream, never into the report.  :func:`main` pauses the
cyclic garbage collector for one command, which is safe because the
pipeline builds no reference cycles for it to free.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .concepts import Concept, SemanticContext
from .corpus import load_annotations, load_concepts, load_lexicon
from .errors import EssenceMapError, UnknownReferenceError
from .lta import EMPTY_LEXICON, MODES, extract_spo
from .mapper import RELATIONS, MapConfig, MappingReport, map_contexts, pair_result
from .matching import DEFAULT_THRESHOLD, THRESHOLDS, MatchSet, candidate_pairs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_REFERENCE = 3

OUTPUT_FORMATS = ("table", "tsv", "jsonl")

TSV_HEADER = "left\tright\tsimilarity_pct\trelation\tmatches"

#: What ``parse --show-spo`` prints for the empty predicate of a verbless statement.
NO_VERB_MARKER = "‹none›"


class UsageError(Exception):
    """Bad invocation; maps to exit code 1."""


def format_pct(value: Fraction) -> str:
    """Render a percentage to one decimal, rounding halves up."""
    n, d = value.as_integer_ratio()
    scaled = (20 * n + d) // (2 * d)  # floor(10 * value + 1/2)
    return f"{scaled // 10}.{scaled % 10}"


def _match_labels(match: MatchSet) -> list[str]:
    """``<left attr>-<right attr>`` for each matched pair, in match order."""
    return [f"{p.left.attr}-{p.right.attr}" for p in match.pairs]


def render_table(report: MappingReport) -> str:
    lines = [
        f"mapping {report.practice_context} -> {report.framework_context}"
        f"  (mode {report.mode}, threshold {report.threshold})",
        "",
    ]
    # Each similarity object is formatted once, its text kept by ``id``: the report keeps
    # every value alive for the call, and two equal values that are different objects are
    # only formatted twice, to the same text.  ``render_tsv`` and ``render_jsonl`` do the same.
    texts = {}
    for left, right, match, pct, relation in report.results:
        key = id(pct)
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_pct(pct)
        matches = " ".join(_match_labels(match)) if match.pairs else "-"
        lines.append(f"{left.partition('/')[2]} -> {right.partition('/')[2]}  {text}%  {relation}  [{matches}]")
    lines.append("")
    lines.append("best matches:")
    for best in report.best_matches:
        lines.append(f"{best.practice} -> {best.framework}  {format_pct(best.similarity_pct)}%")
    return "\n".join(lines) + "\n"


def render_tsv(report: MappingReport) -> str:
    lines = [TSV_HEADER]
    texts = {}
    for left, right, match, pct, relation in report.results:
        key = id(pct)
        text = texts.get(key)
        if text is None:
            text = texts[key] = format_pct(pct)
        matches = ",".join(_match_labels(match)) if match.pairs else ""
        lines.append(f"{left}\t{right}\t{text}\t{relation}\t{matches}")
    lines.append("")
    lines.append("practice\tbest_framework\tsimilarity_pct")
    for best in report.best_matches:
        lines.append(f"{best.practice}\t{best.framework}\t{format_pct(best.similarity_pct)}")
    return "\n".join(lines) + "\n"


def render_jsonl(report: MappingReport) -> str:
    lines = []
    values = {}
    for left, right, match, pct, relation in report.results:
        key = id(pct)
        value = values.get(key)
        if value is None:
            value = values[key] = float(format_pct(pct))
        matches = _match_labels(match) if match.pairs else []
        lines.append(json.dumps({"left": left, "right": right, "similarity_pct": value,
                                 "relation": relation, "matches": matches}))
    for best in report.best_matches:
        lines.append(
            json.dumps(
                {
                    "practice": best.practice,
                    "best_match": best.framework,
                    "similarity_pct": float(format_pct(best.similarity_pct)),
                }
            )
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"table": render_table, "tsv": render_tsv, "jsonl": render_jsonl}


def _load_map_config(args: argparse.Namespace) -> tuple[SemanticContext, SemanticContext, MapConfig]:
    # Each mode takes only the files it reads, and says so before any file is read.
    if args.mode == "annotated" and args.annotations is None:
        raise UsageError("--mode annotated requires --annotations")
    if args.mode == "annotated" and args.lexicon is not None:
        raise UsageError("--mode annotated reads no --lexicon")
    if args.mode == "heuristic" and args.annotations is not None:
        raise UsageError("--mode heuristic reads no --annotations")
    practice = framework = load_concepts(args.practice)
    if args.framework not in (None, args.practice):
        framework = load_concepts(args.framework)
        if practice.id == framework.id and practice != framework:
            raise UnknownReferenceError(
                f"practice and framework both define context {practice.id!r} with different concepts"
            )
    lexicon = load_lexicon(args.lexicon) if args.lexicon else EMPTY_LEXICON
    annotations = load_annotations(args.annotations, (practice, framework)) if args.annotations else None
    return practice, framework, MapConfig(lexicon, annotations, args.mode, args.threshold)


def cmd_map(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """Run the full pipeline: the rendered report and its diagnostics."""
    practice, framework, map_config = _load_map_config(args)
    report = map_contexts(practice, framework, map_config)
    return _RENDERERS[args.out_format](report), report.diagnostics


def cmd_parse(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """Validate a concept file; optionally show each statement's split."""
    if args.lexicon is not None and not args.show_spo:  # refused before any file is read
        raise UsageError("parse reads no --lexicon without --show-spo")
    context = load_concepts(args.path)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else EMPTY_LEXICON
    n_concepts = len(context.concepts)
    n_attrs = sum(len(c.attributes) for c in context.concepts)
    lines = [
        f"{context.id}: {n_concepts} concept{'s' if n_concepts != 1 else ''},"
        f" {n_attrs} attribute{'s' if n_attrs != 1 else ''}"
    ]
    if args.show_spo:
        for concept in context.concepts:
            lines.append(f"concept {concept.name}")
            for attr in concept.attributes:
                spo = extract_spo(attr, concept.name, lexicon)
                predicate = " ".join(spo.predicate) or NO_VERB_MARKER
                lines.append(
                    f"  {attr.id}: subject={' '.join(spo.subject)}"
                    f" | predicate={predicate}"
                    f" | object={' '.join(spo.object_part)}"
                )
    return "\n".join(lines) + "\n", ()


def _resolve_concept(reference: str, contexts: dict[str, SemanticContext]) -> tuple[str, Concept]:
    context_id, sep, name = reference.partition("/")
    if not sep or not context_id or not name:
        raise UsageError(f"expected <ctx>/<ConceptName>, got {reference!r}")
    context = contexts.get(context_id)
    if context is None:
        raise UnknownReferenceError(f"unknown context {context_id!r} in {reference!r}")
    try:
        return context_id, context.concept(name)
    except KeyError:
        raise UnknownReferenceError(f"unknown concept {name!r} in {reference!r}") from None


def cmd_score(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """Detail view for one concept pair: matrix, matching, predicates."""
    practice, framework, map_config = _load_map_config(args)
    contexts = {practice.id: practice, framework.id: framework}
    left_ctx, left_concept = _resolve_concept(args.left, contexts)
    right_ctx, right_concept = _resolve_concept(args.right, contexts)
    scorer = map_config.make_scorer()
    candidates = candidate_pairs(left_ctx, left_concept, right_ctx, right_concept, scorer, map_config.threshold)
    result = pair_result(left_ctx, left_concept, right_ctx, right_concept, candidates)

    lines = [
        f"pair: {result.left} vs {result.right}"
        f"  (mode {map_config.mode}, threshold {map_config.threshold})",
        "",
        "level matrix:",
    ]
    right_rows = scorer.profile(right_ctx, right_concept)
    for a in scorer.profile(left_ctx, left_concept):
        for b in right_rows:
            lines.append(f"{a.ref.attr} {b.ref.attr} {scorer.level(a, b)}")
    lines.append("")
    lines.append(f"candidates (level >= {map_config.threshold}):")
    lines.extend(f"{p.left.attr} {p.right.attr} {p.level}" for p in candidates)
    if not candidates:
        lines.append("(none)")

    match = result.match_set
    rendered = " ".join(_match_labels(match))
    lines.append("")
    lines.append(f"matching: {rendered or '(empty)'}")

    k = len(match.pairs)
    union = match.left_size + match.right_size - k
    pct = format_pct(result.similarity_pct)
    lines.append(f"similarity: {k}/{union} = {pct}%")

    lines.append("")
    lines.append("relations:")
    predicates = dict(RELATIONS)
    for label in ("related", "independent", "equivalent", "sub-concept", "super-concept"):
        holds = predicates[label](left_concept, right_concept, match)
        lines.append(f"{label}: {'yes' if holds else 'no'}")

    lines.append("")
    lines.append(f"{left_concept.name} -> {right_concept.name}  {pct}%  {result.relation}")
    return "\n".join(lines) + "\n", ()


def cmd_version(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    return f"essencemap {__version__}\n", ()


#: Each command takes the parsed arguments and returns its output text and the
#: notes for the error stream; :func:`main` alone writes them and picks the exit code.
_COMMANDS = {"map": cmd_map, "parse": cmd_parse, "score": cmd_score, "version": cmd_version}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _add_corpus_options(parser: argparse.ArgumentParser, *, framework_required: bool):
    parser.add_argument("--practice", required=True, type=Path, help="practice concept file")
    parser.add_argument(
        "--framework",
        required=framework_required,
        type=Path,
        help="framework concept file" + ("" if framework_required else " (defaults to --practice)"),
    )
    parser.add_argument("--lexicon", type=Path, help="lexicon file (syn:/stop:/verb: lines)")
    parser.add_argument("--annotations", type=Path, help="annotation table file")
    parser.add_argument("--mode", choices=MODES, default=MapConfig._field_defaults["mode"])
    parser.add_argument("--threshold", type=int, choices=THRESHOLDS, default=DEFAULT_THRESHOLD)


def build_parser() -> _Parser:
    parser = _Parser(prog="essencemap", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    map_parser = sub.add_parser("map", help="map a practice context onto a framework context")
    _add_corpus_options(map_parser, framework_required=True)
    map_parser.add_argument("--format", choices=OUTPUT_FORMATS, default="table", dest="out_format")
    map_parser.add_argument("--out", type=Path, help="write the report here instead of stdout")

    parse_parser = sub.add_parser("parse", help="validate a concept file")
    parse_parser.add_argument("path", type=Path)
    parse_parser.add_argument("--show-spo", action="store_true")
    parse_parser.add_argument("--lexicon", type=Path)

    score_parser = sub.add_parser("score", help="detail view for one concept pair")
    score_parser.add_argument("--left", required=True, help="<ctx>/<ConceptName>")
    score_parser.add_argument("--right", required=True, help="<ctx>/<ConceptName>")
    _add_corpus_options(score_parser, framework_required=False)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage().rstrip())
        text, notes = _COMMANDS[args.command](args)
        for note in notes:
            print(note, file=sys.stderr)
        if getattr(args, "out", None) is not None:
            args.out.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (UsageError, EssenceMapError, OSError) as exc:
        print(f"essencemap: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        if isinstance(exc, UnknownReferenceError):
            return EXIT_REFERENCE
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
