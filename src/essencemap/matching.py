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

The solve reads cells ``(row, column, pair)``: rows are the side with the
smaller ``(context, concept)``, and each side's positions order its
attributes by reference.  ``candidate_pairs`` scores only the cells that
:meth:`~essencemap.lta.StatementScorer.cells` names for the threshold; a
result of two or more candidates carries its solve cells, built from the
``position`` of the scorer's rows.  ``max_matching`` reads them while the
list still equals what ``candidate_pairs`` returned.  Any other input, a
hand-built or changed list, falls back to ranking the references: the
highest level per cell, each side indexed by its sorted references.  Both
then share one tail.  A conflict-free set, where no row or column appears
twice, is its own unique optimum and skips the solve; otherwise one sort
of the cells gives the adjacency lists in rank order, and the chosen
cells are read back as the caller's pairs, so swapping the two concepts
mirrors the result.  A list of at most one candidate is its own optimum.
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
_THIRD = itemgetter(2)  # a candidate's level, a solve cell's candidate


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


class _Candidates(list):
    """Two or more candidates with ``_cells``, their solve cells, and ``_items``, the list as returned."""

    __slots__ = ("_cells", "_items")


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
    A longer one also carries the cells :func:`max_matching` solves, built
    in the same loop from the rows' ``position``.
    """
    if threshold not in THRESHOLDS:
        raise ValueError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")
    flipped = (context2, c2.name) < (context1, c1.name)  # rows are c2's
    found = []
    score = scorer.level
    for a, b in scorer.cells(context1, c1, context2, c2, threshold):
        level = score(a, b)
        if level >= threshold:
            pair = tuple.__new__(CandidatePair, (a.ref, b.ref, level))
            found.append((b.position, a.position, pair) if flipped else (a.position, b.position, pair))
    if len(found) < 2:
        return [found[0][2]] if found else []
    # ``cells`` yields (left, right) reference order, which this stable
    # sort keeps within each level.
    result = _Candidates(map(_THIRD, found))
    result.sort(key=_THIRD, reverse=True)
    result._cells, result._items = found, result[:]
    return result


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
        if not adjacency[root]:  # a row with no cells keeps its private column
            continue
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


def _ranked(candidates: Iterable[CandidatePair]) -> list[tuple[int, int, CandidatePair]]:
    """The solve cells of any candidates: the highest level per cell, indices by sorted reference."""
    best: dict[tuple[AttrRef, AttrRef], CandidatePair] = {}
    for pair in candidates:
        key = pair[:2]
        if best.get(key, pair).level <= pair.level:
            best[key] = pair
    if not best:
        return []
    lefts, rights = sorted({l for l, _ in best}), sorted({r for _, r in best})
    flipped = rights[0][:2] < lefts[0][:2]
    row = {ref: i for i, ref in enumerate(rights if flipped else lefts)}
    col = {ref: j for j, ref in enumerate(lefts if flipped else rights)}
    return [(row[r], col[l], pair) if flipped else (row[l], col[r], pair) for (l, r), pair in best.items()]


def max_matching(
    candidates: Iterable[CandidatePair], left_size: int, right_size: int
) -> MatchSet:
    """Maximum bijective matching with deterministic tie-breaking.

    Invariant under permutation of the candidate list, and symmetric under
    swapping the two sides (the mirrored input yields the mirrored output).
    A :func:`candidate_pairs` result that still equals what it returned is
    solved from the cells it carries; any other input of two or more
    candidates is ranked by :func:`_ranked`.
    """
    if isinstance(candidates, list) and len(candidates) < 2:
        return MatchSet(tuple(candidates), left_size, right_size)
    if type(candidates) is _Candidates and candidates == candidates._items:
        cells = candidates._cells
    else:
        cells = _ranked(candidates)
    rows, columns = {i for i, _, _ in cells}, {j for _, j, _ in cells}
    if len(rows) == len(cells) == len(columns):
        return MatchSet([pair for _, _, pair in cells], left_size, right_size)
    # Positions order the cells as their (row, column) references do.
    cells = sorted(cells)
    count = len(cells)
    bonus = (3 * count + 2) << count
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(max(rows) + 1)]
    for rank, (i, j, pair) in enumerate(cells):
        adjacency[i].append((j, bonus + (pair.level << count) + (1 << (count - 1 - rank))))
    col_of = _max_weight_matching(adjacency, max(columns) + 1)
    return MatchSet([pair for i, j, pair in cells if col_of[i] == j], left_size, right_size)
