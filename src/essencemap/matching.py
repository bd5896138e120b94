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
tie term outweighs all later ones (see ``_select``).

``max_matching`` normalises its input in one pass: one dict keeps the
highest level per ``(left, right)``, the orientation is decided once so
the side with the smaller ``(context, concept)`` is on the left, and the
oriented pairs are sorted once for ``_select``.  The chosen pairs are
mirrored back once, so swapping the two concepts mirrors the result
exactly.  A conflict-free candidate set, where no attribute appears twice,
is its own unique optimum and skips the solve.

``candidate_pairs`` scores only the cells that can reach the threshold:
without an annotation table, the per-part token masks of
:class:`~essencemap.lta.StatementScorer` pick them out, plus the diagonal
of a concept mapped against itself; with a table every cell is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .concepts import AttrRef, Concept
from .lta import StatementScorer

DEFAULT_THRESHOLD = 2
THRESHOLDS = (1, 2, 3)


class CandidatePair(NamedTuple):
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
        ordered = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", ordered)
        if self.left_size < 0 or self.right_size < 0:
            raise ValueError("attribute set sizes must be non-negative")
        lefts = [p.left for p in ordered]
        rights = [p.right for p in ordered]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("match set must be bijective")
        if len(ordered) > min(self.left_size, self.right_size):
            raise ValueError("match set exceeds the smaller attribute set")


def candidate_pairs(
    context1: str,
    c1: Concept,
    context2: str,
    c2: Concept,
    scorer: StatementScorer,
    threshold: int = DEFAULT_THRESHOLD,
) -> list[CandidatePair]:
    """Score the attribute pairs that can qualify, keep those at or above the threshold.

    Sorted by level descending, then left and right reference ascending.
    Scoring errors (for instance an unannotated pair in annotated mode)
    propagate.

    With no annotation table in use, a row ``a`` of ``c1`` ORs, per part,
    the masks of its tokens in ``c2``'s profile (see
    :class:`~essencemap.lta.StatementScorer`) into ``m0``, ``m1`` and
    ``m2``; the cells that can reach the threshold are those set in at
    least ``threshold`` of them.  When both sides are one profile, ``a``'s
    own cell is added too, since a row scores 3 against itself whatever its
    parts.  With a table every cell is scored: a table level can lift a
    cell the masks skip, and in annotated mode a gap must still raise.
    Each cell picked is scored by ``scorer.level``, the one statement of
    the rule, so the result equals a scan of every cell.
    """
    if threshold not in THRESHOLDS:
        raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")
    found = []
    score = scorer.level
    rows1 = scorer.profile(context1, c1)
    rows2, masks = scorer.indexed_profile(context2, c2)
    every_row = (1 << len(rows2)) - 1
    for i, a in enumerate(rows1):
        if masks is None:
            hits = every_row
        else:
            m0 = m1 = m2 = 0
            for token in a.subject:
                m0 |= masks[0].get(token, 0)
            for token in a.predicate:
                m1 |= masks[1].get(token, 0)
            for token in a.object_part:
                m2 |= masks[2].get(token, 0)
            if threshold == 1:
                hits = m0 | m1 | m2
            elif threshold == 2:
                hits = (m0 & m1) | (m0 & m2) | (m1 & m2)
            else:
                hits = m0 & m1 & m2
            if rows1 is rows2:
                hits |= 1 << i
        while hits:
            low = hits & -hits
            hits ^= low
            b = rows2[low.bit_length() - 1]
            level = score(a, b)
            if level >= threshold:
                found.append(CandidatePair(a.ref, b.ref, level))
    found.sort(key=lambda p: (-p.level, p.left, p.right))
    return found


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

    ``pairs`` holds distinct ``(left, right)`` cells, sorted ascending.
    One assignment solve: with ``P`` pairs, the pair of rank ``r`` earns
    ``bonus + level * 2**P + 2**(P - 1 - r)``; cells without a pair earn
    0.  Summed over a matching, the level and tie terms stay below
    ``(3P + 1) * 2**P``, which ``bonus`` exceeds, so more pairs always
    win; the tie terms sum below ``2**P``, so a higher total level wins
    next.  Between matchings equal in both, the tie term of the lowest
    rank where they differ outweighs all later ranks together, and the
    matching holding that rank is the one whose sorted pair list is
    smaller.  The optimum is thus unique, whatever the order of the rows
    and columns, and equals the (cardinality, total level, smallest
    sorted pair list) rule.
    """
    count = len(pairs)
    bonus = (3 * count + 2) << count
    row: dict[AttrRef, int] = {}
    col: dict[AttrRef, int] = {}
    for pair in pairs:
        row.setdefault(pair.left, len(row))
        col.setdefault(pair.right, len(col))
    size = max(len(row), len(col))
    profit = [[0] * size for _ in range(size)]
    at: dict[tuple[int, int], CandidatePair] = {}
    for rank, pair in enumerate(pairs):
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
    When no attribute appears in two of the distinct cells, all of them
    together form the unique optimum, so they are returned without an
    assignment solve.
    """
    best: dict[tuple[AttrRef, AttrRef], int] = {}
    for left, right, level in candidates:
        if best.get((left, right), level) <= level:
            best[left, right] = level
    if len({l for l, _ in best}) == len(best) == len({r for _, r in best}):
        pairs = tuple(CandidatePair(l, r, level) for (l, r), level in best.items())
        return MatchSet(pairs, left_size, right_size)
    # Orient so the side with the smaller (context, concept) is on the left.
    flipped = (min((r.context, r.concept) for _, r in best)
               < min((l.context, l.concept) for l, _ in best))
    chosen = _select(sorted(CandidatePair(r, l, level) if flipped else CandidatePair(l, r, level)
                            for (l, r), level in best.items()))
    if flipped:
        chosen = [p.mirrored() for p in chosen]
    return MatchSet(tuple(chosen), left_size, right_size)
