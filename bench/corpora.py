"""Seeded synthetic corpora for the benchmark workloads.

Each workload maps a practice context ``P`` onto a framework context ``F``
with the bundled ``paper.lex`` lexicon.  The shape of a workload (concept
counts, attributes per concept, vocabulary sizes, mode, threshold, output
format) is fixed here; only the seed varies, and the same seed always gives
byte-identical files.  This module imports nothing from ``essencemap`` so
the generator cannot drift with the code it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Content words; none is a verb, a verb inflection or a stopword of the
# scorer, so the verb run of a statement is exactly the one generated.
# Some are members of paper.lex synonym groups, so folding is exercised.
NOUNS = tuple(
    """
    backlog item requirement stakeholder increment sprint goal team owner
    vision release scope estimate priority risk feedback quality defect
    architecture interface component module system service user story epic
    feature capability constraint acceptance criteria roadmap budget plan
    schedule milestone deliverable artifact document review retrospective
    velocity capacity dependency integration deployment pipeline build
    environment configuration repository branch version baseline metric
    measure target outcome benefit opportunity customer market product
    functionality definition ready done state concept whole bound process
    practice activity competency role responsibility decision agreement
    contract change request ticket incident problem solution design model
    prototype experiment hypothesis learning knowledge skill training
    governance policy standard guideline checklist template workflow board
    task card column limit queue cycle lead time throughput waste value
    grooming refining mechanism charter mandate scenario persona
    journey workshop demo showcase audit compliance security privacy
    performance reliability usability maintainability portability support
    operation monitoring alert recovery backup archive migration
    """.split()
)

VERB_RUNS = (
    ("is",), ("are",), ("must",), ("need",), ("progress",), ("continue",),
    ("provide",), ("refer",), ("address",), ("satisfy",), ("meet",),
    ("stay",), ("evolve",), ("must", "address"), ("should", "meet"),
    ("can", "provide"), ("will", "evolve"), ("may", "refer"),
    ("are", "being"), ("must", "stay"), ("shall", "satisfy"),
)

FILLERS = ("the", "of", "and", "a", "for", "with", "to")

# Share of statements with no verb, as in the real corpora; each one yields
# a diagnostic line and scores without a predicate.
VERBLESS_SHARE = 0.10

# Content words after the verb run.  A fixed count keeps the amount of work
# from varying much between seeds.
OBJECT_WORDS = 3


@dataclass(frozen=True)
class Shape:
    """Fixed shape of one workload; not a user knob."""

    name: str
    practice_concepts: int
    framework_concepts: int
    attributes: int
    mode: str
    threshold: int
    out_format: str
    subject_vocab: int
    object_vocab: int
    verb_runs: int
    annotated_share: float = 0.0

    @property
    def attr_pairs(self) -> int:
        """Attribute-pair comparisons of one full mapping: sum of n1*n2."""
        return self.practice_concepts * self.framework_concepts * self.attributes ** 2


SHAPES = {
    shape.name: shape
    for shape in (
        # 3,600 small concept pairs: statement scoring and candidate
        # generation dominate, matching stays small.
        Shape(
            "scoring-wide", 60, 60, 8, "heuristic", 2, "table",
            subject_vocab=60, object_vocab=90, verb_runs=len(VERB_RUNS),
        ),
        # 64 concept pairs of 20 attributes at threshold 1 with a small
        # vocabulary: dense candidate graphs, so the assignment solve
        # dominates.  Fewer, larger pairs (5 x 5 x 30) vary more in work
        # from seed to seed.
        Shape(
            "matching-dense", 8, 8, 20, "heuristic", 1, "tsv",
            subject_vocab=24, object_vocab=60, verb_runs=10,
        ),
        # An annotation table over half the cross pairs (~29k lines): parsing
        # and table lookup matter, the heuristic scores the other half.
        Shape(
            "annotated-hybrid", 30, 30, 8, "hybrid", 2, "jsonl",
            subject_vocab=60, object_vocab=90, verb_runs=len(VERB_RUNS),
            annotated_share=0.5,
        ),
    )
}


@dataclass(frozen=True)
class Corpus:
    """Generated input files of one workload, as text."""

    practice: str
    framework: str
    annotations: str | None


def _statement(rng: random.Random, shape: Shape) -> str:
    subjects = NOUNS[: shape.subject_vocab]
    objects = NOUNS[-shape.object_vocab:]
    object_words = []
    for _ in range(OBJECT_WORDS):
        if rng.random() < 0.3:
            object_words.append(rng.choice(FILLERS))
        object_words.append(rng.choice(objects))
    if rng.random() < VERBLESS_SHARE:
        words = [rng.choice(subjects)] + object_words
        return " ".join(words)
    subject_words = [] if rng.random() < 0.15 else [rng.choice(subjects)]
    if subject_words and rng.random() < 0.3:
        subject_words.insert(0, "the")
    verbs = list(rng.choice(VERB_RUNS[: shape.verb_runs]))
    text = " ".join(subject_words + verbs + object_words)
    if rng.random() < 0.2:
        text += ". " + " ".join(rng.sample(objects, 2))
    return text


def _context(rng: random.Random, shape: Shape, context_id: str, prefix: str, count: int):
    lines = [f"context: {context_id}", ""]
    names = []
    for index in range(1, count + 1):
        name = f"{prefix}{index:03d}"
        names.append(name)
        lines.append(f"concept: {name}")
        for attr in range(1, shape.attributes + 1):
            lines.append(f"attr a{attr}: {_statement(rng, shape)}")
        lines.append(f"obj o1: {name.lower()} instance")
        lines.append("end")
        lines.append("")
    return "\n".join(lines), names


def generate(shape: Shape, seed: int) -> Corpus:
    """Corpus for ``shape``; a pure function of ``(shape, seed)``."""
    rng = random.Random(f"{shape.name}:{seed}")
    practice, p_names = _context(rng, shape, "P", "Practice", shape.practice_concepts)
    framework, f_names = _context(rng, shape, "F", "Kernel", shape.framework_concepts)
    annotations = None
    if shape.annotated_share:
        attrs = [f"a{i}" for i in range(1, shape.attributes + 1)]
        lines = ["# generated annotation table"]
        for p_name in p_names:
            for f_name in f_names:
                pairs = [(a, b) for a in attrs for b in attrs]
                for a, b in rng.sample(pairs, round(len(pairs) * shape.annotated_share)):
                    left, right = f"P/{p_name}.{a}", f"F/{f_name}.{b}"
                    if rng.random() < 0.5:
                        left, right = right, left
                    lines.append(f"pair: {left} {right} = {rng.randint(0, 3)}")
        annotations = "\n".join(lines) + "\n"
    return Corpus(practice, framework, annotations)


def write(corpus: Corpus, directory: Path) -> dict[str, Path]:
    """Write the corpus files into ``directory``; returns their paths."""
    paths = {"practice": directory / "practice.concepts", "framework": directory / "framework.concepts"}
    paths["practice"].write_text(corpus.practice, encoding="utf-8")
    paths["framework"].write_text(corpus.framework, encoding="utf-8")
    if corpus.annotations is not None:
        paths["annotations"] = directory / "generated.ann"
        paths["annotations"].write_text(corpus.annotations, encoding="utf-8")
    return paths
