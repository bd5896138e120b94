"""Candidate pair generation and deterministic bipartite matching.

The shared-attribute set of two concepts is realized as a bijective pairing
of attributes whose level reaches the satisfaction threshold.  When one
attribute is similar to several on the other side, a maximum-cardinality
matching decides, with fully deterministic tie-breaking: among maximum
matchings prefer the highest total level, then the lexicographically
smallest pair list.  The rule is folded into the weights of one
maximum-weight matching: with ``P`` distinct cells sorted ascending, the
cell of rank ``r`` weighs ``bonus + level * 2**P + 2**(P - 1 - r)``.  The
``bonus`` outweighs all level and tie terms of a matching together, its
level terms all its tie terms, and each tie term all later ones; so every
set of cells has its own total, and the unique optimum is the rule's
choice whatever order a solver visits rows, columns and paths in.

The solve visits candidate cells only.  Each row owns a private
"unmatched" column of weight 0, so every row is assigned.  Rows are
inserted one at a time, each by a Dijkstra search for the shortest
augmenting path under row and column potentials, so a later row can
displace an earlier one.  Private columns keep potential 0, and a search
stops no later than the private column of any row it reaches, so no row
potential rises above 0 and every reduced cost stays non-negative.

``max_matching`` keeps the highest level per cell, puts the side with the
smaller ``(context, concept)`` on the left, sorts the cells once to build
the solve's adjacency lists in rank order, and reads the chosen cells back
in the caller's orientation, so swapping the two concepts mirrors the
result.  A conflict-free candidate set, where no attribute appears twice,
is its own unique optimum and skips the solve.  At most one cell or pair
is already in order and conflict-free, so it needs no sort, no conflict
sets and no solve.

``candidate_pairs`` scores only the cells that
:meth:`~essencemap.lta.StatementScorer.cells` names for the threshold.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple

from .concepts import AttrRef, Checked, Concept
from .lta import StatementScorer

DEFAULT_THRESHOLD = 2
THRESHOLDS = (1, 2, 3)
_LEVEL = itemgetter(2)


class CandidatePair(NamedTuple):
    """One attribute pair at or above the satisfaction threshold."""

    left: AttrRef
    right: AttrRef
    level: int


class MatchSet(Checked, namedtuple("MatchSet", "pairs left_size right_size")):
    """A bijective attribute pairing between two concepts; ``pairs`` is kept sorted.

    One pair is already sorted and bijective, so only two or more are
    sorted and checked for bijectivity; the size checks hold for every set.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[CandidatePair], left_size: int, right_size: int):
        pairs = tuple(pairs)
        if left_size < 0 or right_size < 0:
            raise ValueError("attribute set sizes must be non-negative")
        if pairs:  # with no pairs these checks cannot fail
            if len(pairs) > 1:
                pairs = tuple(sorted(pairs))
                if not len({p.left for p in pairs}) == len({p.right for p in pairs}) == len(pairs):
                    raise ValueError("match set must be bijective")
            if len(pairs) > min(left_size, right_size):
                raise ValueError("match set exceeds the smaller attribute set")
        return tuple.__new__(cls, (pairs, left_size, right_size))


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
    The cells scored are those ``scorer.cells`` names, each
    by ``scorer.level``, so the result equals a scan of every cell.  The
    cells come in (left, right) reference order, so one sort by level
    orders the result; a list of at most one candidate is already in order.
    """
    if threshold not in THRESHOLDS:
        raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")
    found = []
    score = scorer.level
    for a, b in scorer.cells(context1, c1, context2, c2, threshold):
        level = score(a, b)
        if level >= threshold:
            found.append(tuple.__new__(CandidatePair, (a.ref, b.ref, level)))
    if len(found) > 1:
        # ``cells`` yields (left, right) reference order, which this stable
        # sort keeps within each level.
        found.sort(key=_LEVEL, reverse=True)
    return found


def _max_weight_matching(adjacency: list[list[tuple[int, int]]], columns: int) -> list[int]:
    """Maximum-weight matching of rows ``0..len(adjacency)-1`` to columns ``0..columns-1``.

    ``adjacency[i]`` lists ``(column, weight)`` for the candidate cells of
    row ``i``, every weight positive.  Returns the column of each row, or
    -1 for its private column, which is never stored: a row reached at
    distance ``d`` has it at ``d - u[row]``.  The reduced cost of a cell is
    ``-weight - u[row] - v[column]``; only the root's cells may be negative.
    """
    row_of = [-1] * columns  # row holding each column, -1 when free
    col_of = [-1] * len(adjacency)  # column of each row, -1 on its private column
    u = [0] * len(adjacency)
    v = [0] * columns
    for root in range(len(adjacency)):
        heap = [(-weight - v[j], j, root) for j, weight in adjacency[root]]
        heapify(heap)
        done: dict[int, tuple[int, int]] = {}  # scanned column -> (distance, row it came from)
        tree = [(root, 0)]  # rows reached, with their distances
        end, end_row, end_col = 0, root, -1  # nearest end: the root's private column
        while heap:
            d, j, i = heappop(heap)
            if d >= end:
                break
            if j in done:
                continue
            done[j] = (d, i)
            row = row_of[j]
            if row < 0:
                end, end_col = d, j
                break
            tree.append((row, d))
            base = d - u[row]  # also the distance of the row's private column
            if base < end:
                end, end_row = base, row
            for k, weight in adjacency[row]:
                if k not in done:
                    heappush(heap, (base - weight - v[k], k, row))
        for i, d in tree:
            u[i] += end - d
        for j, (d, _) in done.items():
            v[j] -= end - d
        if end_col < 0:  # end_row leaves its column for its private one
            end_col, col_of[end_row] = col_of[end_row], -1
        j = end_col
        while j >= 0:  # shift each row on the path; the root's old column is -1
            i = done[j][1]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return col_of


def max_matching(
    candidates: Iterable[CandidatePair], left_size: int, right_size: int
) -> MatchSet:
    """Maximum bijective matching with deterministic tie-breaking.

    Invariant under permutation of the candidate list, and symmetric under
    swapping the two sides (the mirrored input yields the mirrored output).
    When no attribute appears in two of the distinct cells, all of them
    together form the unique optimum, so they are returned without an
    assignment solve.  At most one distinct cell is trivially conflict-free,
    so it is returned before the conflict sets are built.
    """
    best: dict[tuple[AttrRef, AttrRef], CandidatePair] = {}
    for pair in candidates:
        key = pair[:2]
        if best.get(key, pair).level <= pair.level:
            best[key] = pair
    if len(best) < 2:
        return MatchSet(tuple(best.values()), left_size, right_size)
    lefts, rights = {l for l, _ in best}, {r for _, r in best}
    if len(lefts) == len(best) == len(rights):
        return MatchSet(tuple(best.values()), left_size, right_size)
    lefts, rights = sorted(lefts), sorted(rights)
    # Orient so the side with the smaller (context, concept) is on the left.
    flipped = rights[0][:2] < lefts[0][:2]
    if flipped:
        lefts, rights = rights, lefts
    row = {ref: i for i, ref in enumerate(lefts)}
    col = {ref: j for j, ref in enumerate(rights)}
    # (row, column) indices order the cells as their sorted (left, right) refs do.
    cells = sorted((row[r], col[l], pair.level) if flipped else (row[l], col[r], pair.level)
                   for (l, r), pair in best.items())
    count = len(cells)
    bonus = (3 * count + 2) << count
    adjacency: list[list[tuple[int, int]]] = [[] for _ in lefts]
    for rank, (i, j, level) in enumerate(cells):
        adjacency[i].append((j, bonus + (level << count) + (1 << (count - 1 - rank))))
    chosen = []
    for i, j in enumerate(_max_weight_matching(adjacency, len(rights))):
        if j >= 0:
            chosen.append(best[(rights[j], lefts[i]) if flipped else (lefts[i], rights[j])])
    return MatchSet(tuple(chosen), left_size, right_size)
