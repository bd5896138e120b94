"""Candidate pair generation and deterministic bipartite matching.

The shared-attribute set of two concepts is realized as a bijective pairing
of attributes whose level reaches the satisfaction threshold.  When one
attribute is similar to several on the other side, a maximum-cardinality
matching decides, with fully deterministic tie-breaking: among maximum
matchings prefer the highest total level, then the lexicographically
smallest pair list.  The whole rule is folded into the weights of a single
assignment problem: with ``P`` candidates sorted ascending, the pair of
rank ``r`` weighs ``bonus + level * 2**P + 2**(P - 1 - r)``, where the
cardinality ``bonus`` outweighs every level and tie term together and each
tie term outweighs all later ones (see ``_select``).  Matching runs in a
canonical orientation (sides ordered by context id and concept name) so
swapping the two concepts mirrors the result exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .concepts import AttrRef, Concept
from .lta import StatementScorer

DEFAULT_THRESHOLD = 2
THRESHOLDS = (1, 2, 3)


@dataclass(frozen=True, order=True)
class CandidatePair:
    """One attribute pair at or above the satisfaction threshold."""

    left: AttrRef
    right: AttrRef
    level: int

    def mirrored(self) -> "CandidatePair":
        return CandidatePair(self.right, self.left, self.level)


@dataclass(frozen=True)
class MatchSet:
    """A bijective attribute pairing between two concepts."""

    pairs: tuple[CandidatePair, ...]
    left_size: int
    right_size: int

    def __post_init__(self):
        ordered = tuple(sorted(self.pairs, key=lambda p: (p.left, p.right)))
        object.__setattr__(self, "pairs", ordered)
        if self.left_size < 0 or self.right_size < 0:
            raise ValueError("attribute set sizes must be non-negative")
        lefts = [p.left for p in ordered]
        rights = [p.right for p in ordered]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("match set must be bijective")
        if len(ordered) > min(self.left_size, self.right_size):
            raise ValueError("match set exceeds the smaller attribute set")

    def mirror(self) -> "MatchSet":
        return MatchSet(
            tuple(p.mirrored() for p in self.pairs), self.right_size, self.left_size
        )

    @property
    def total_level(self) -> int:
        return sum(p.level for p in self.pairs)


def candidate_pairs(
    context1: str,
    c1: Concept,
    context2: str,
    c2: Concept,
    scorer: StatementScorer,
    threshold: int = DEFAULT_THRESHOLD,
) -> list[CandidatePair]:
    """Score all attribute pairs, keep those at or above the threshold.

    Sorted by level descending, then left and right reference ascending.
    Scoring errors (for instance an unannotated pair in annotated mode)
    propagate.
    """
    if threshold not in THRESHOLDS:
        raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")
    found = []
    score = scorer.level
    rows2 = scorer.profile(context2, c2)
    for a in scorer.profile(context1, c1):
        for b in rows2:
            level = score(a, b)
            if level >= threshold:
                found.append(CandidatePair(a.ref, b.ref, level))
    found.sort(key=lambda p: (-p.level, p.left, p.right))
    return found


def _deduped(candidates: Iterable[CandidatePair]) -> list[CandidatePair]:
    best: dict[tuple[AttrRef, AttrRef], CandidatePair] = {}
    for pair in candidates:
        key = (pair.left, pair.right)
        kept = best.get(key)
        if kept is None or pair.level > kept.level:
            best[key] = pair
    return sorted(best.values())


def _canonical_orientation(
    candidates: Sequence[CandidatePair],
) -> tuple[list[CandidatePair], bool]:
    """Flip sides so the lexicographically smaller (context, concept) is left."""
    left_key = min((p.left.context, p.left.concept) for p in candidates)
    right_key = min((p.right.context, p.right.concept) for p in candidates)
    if right_key < left_key:
        return [p.mirrored() for p in candidates], True
    return list(candidates), False


def _hungarian_max(profit: list[list[int]]) -> list[int]:
    """Maximum-profit perfect assignment on a square integer matrix.

    Shortest augmenting paths with vertex potentials; deterministic for a
    given matrix.  Returns ``assignment`` with row ``i`` assigned to column
    ``assignment[i]``.  The sentinel is ``math.inf`` rather than a large
    int, so it holds whatever the size of the profits.
    """
    n = len(profit)
    cost = [[-value for value in row] for row in profit]
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return assignment


def _select(pairs: list[CandidatePair]) -> list[CandidatePair]:
    """Lexicographically smallest matching among the optimal ones.

    One assignment solve.  With the ``P`` pairs sorted ascending, the pair
    of rank ``r`` earns ``bonus + level * 2**P + 2**(P - 1 - r)``; cells
    without a pair earn 0.  Summed over a matching, the level and tie
    terms stay below ``(3P + 1) * 2**P``, which ``bonus`` exceeds, so more
    pairs always win; the tie terms sum below ``2**P``, so a higher total
    level wins next.  Between matchings equal in both, the tie term of
    the lowest rank where they differ outweighs all later ranks together,
    and the matching holding that rank is the one whose sorted pair list
    is smaller.  The optimum is thus unique and equals the (cardinality,
    total level, smallest sorted pair list) rule.
    """
    ordered = sorted(pairs)
    count = len(ordered)
    bonus = (3 * count + 2) << count
    row = {ref: i for i, ref in enumerate(sorted({p.left for p in ordered}))}
    col = {ref: j for j, ref in enumerate(sorted({p.right for p in ordered}))}
    size = max(len(row), len(col))
    profit = [[0] * size for _ in range(size)]
    at: dict[tuple[int, int], CandidatePair] = {}
    for rank, pair in enumerate(ordered):
        cell = (row[pair.left], col[pair.right])
        profit[cell[0]][cell[1]] = bonus + (pair.level << count) + (1 << (count - 1 - rank))
        at[cell] = pair
    assignment = _hungarian_max(profit)
    return [at[i, j] for i, j in enumerate(assignment) if (i, j) in at]


def max_matching(
    candidates: Iterable[CandidatePair], left_size: int, right_size: int
) -> MatchSet:
    """Maximum bijective matching with deterministic tie-breaking.

    Invariant under permutation of the candidate list, and symmetric under
    swapping the two sides (the mirrored input yields the mirrored output).
    """
    pairs = _deduped(candidates)
    if not pairs:
        return MatchSet((), left_size, right_size)
    oriented, flipped = _canonical_orientation(pairs)
    sizes = (right_size, left_size) if flipped else (left_size, right_size)
    chosen = MatchSet(tuple(_select(oriented)), *sizes)
    return chosen.mirror() if flipped else chosen
