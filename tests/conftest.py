import random

import pytest
from hypothesis import Phase, settings

from essencemap import (
    AttributeStatement,
    Concept,
    ObjectInstance,
    SemanticContext,
    bundled_path,
    load_annotations,
    load_concepts,
    load_lexicon,
)

# Example timings vary on shared hosts; a per-example deadline would flake.
settings.register_profile("essencemap", deadline=None)
settings.load_profile("essencemap")
# ``tests/mutants.py`` selects this one: a mutant is caught by a failing example, shrunk or not.
settings.register_profile("mutants", deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))

_WORDS = (
    "requirements product backlog managing accepting states items grooming "
    "mechanism stakeholders opportunity vision whole bounds original concept "
    "definition ready done major evolve learned prioritized functionality "
    "is are must need progress continue provides refers the of and to be"
).split()


def make_random_context(rng: random.Random, index: int = 0) -> SemanticContext:
    """A small valid context with randomized shape and texts."""

    def text() -> str:
        words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.2:
            words.insert(rng.randrange(len(words) + 1), "#mark")
        if rng.random() < 0.2:
            words.append("value: 7")
        return " ".join(words)

    concepts = []
    for ci in range(rng.randint(1, 4)):
        attrs = tuple(
            AttributeStatement(f"a{ai + 1}", text()) for ai in range(rng.randint(1, 6))
        )
        objs = tuple(
            ObjectInstance(f"o{oi + 1}", text()) for oi in range(rng.randint(0, 3))
        )
        concepts.append(Concept(f"Concept{ci + 1}", attrs, objs))
    return SemanticContext(f"ctx{index}", tuple(concepts))


def cross_refs(*contexts: SemanticContext) -> list[list[str]]:
    """The attribute references of each context as text, one list per context."""
    return [[f"{context.id}/{concept.name}.{attr.id}" for concept in context.concepts for attr in concept.attributes]
            for context in contexts]


def fill_gaps(table: str, lefts: list[str], rights: list[str]) -> str:
    """Annotation ``table`` text plus a ``= 0`` line for each ``lefts`` x ``rights`` pair it lacks."""
    written = {frozenset(line.split()[1:3]) for line in table.splitlines() if line.startswith("pair:")}
    return table + "".join(f"pair: {left} {right} = 0\n" for left in lefts for right in rights
                           if frozenset((left, right)) not in written)


def attribute(concept: Concept, attr_id: str) -> AttributeStatement:
    """The attribute of ``concept`` with id ``attr_id``."""
    (attr,) = (a for a in concept.attributes if a.id == attr_id)
    return attr


@pytest.fixture(scope="session")
def data_dir():
    return bundled_path("essence.concepts").parent


@pytest.fixture(scope="session")
def essence_context():
    return load_concepts(bundled_path("essence.concepts"))


@pytest.fixture(scope="session")
def scrum_context():
    return load_concepts(bundled_path("scrum.concepts"))


@pytest.fixture(scope="session")
def tuned_lexicon():
    return load_lexicon(bundled_path("paper.lex"))


@pytest.fixture(scope="session")
def table1_annotations(essence_context, scrum_context):
    return load_annotations(
        bundled_path("paper-table1.ann"), (essence_context, scrum_context)
    )
