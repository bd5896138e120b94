"""Candidate pair generation and deterministic bipartite matching.

The shared-attribute set of two concepts is a bijective pairing of
attributes whose level reaches the satisfaction threshold.
:func:`candidate_pairs` lists those attribute pairs, and
:func:`max_matching` picks a maximum-cardinality pairing among them with
fully deterministic tie-breaking: among maximum matchings the highest
total level wins, then the lexicographically smallest pair list.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple

from .concepts import AttrRef, Checked, Concept
from .lta import THRESHOLDS, Memo, StatementScorer

DEFAULT_THRESHOLD = 2
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
        if type(left_size) is not int or type(right_size) is not int:
            raise ValueError(f"attribute set sizes must be int, got {left_size!r} and {right_size!r}")
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


# (left size, right size) -> the empty match set.  A match set is immutable, so one serves every
# caller; sizes the constructor refuses are not kept.
_EMPTY_MATCHES = Memo(lambda sizes: MatchSet((), *sizes))


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
    """The attribute pairs of ``c1`` x ``c2`` whose level reaches ``threshold``.

    Sorted by level descending, then left and right reference ascending.
    They are the cells ``scorer.cells`` names, each with the table level
    it carries or, when it has none, scored by ``scorer.level``.  The
    cells come in (left, right) reference order, so one stable sort by
    level orders the result.  A result of two or more also carries the
    cells :func:`max_matching` solves, ``(row, column, pair)``: the rows
    are the side with the smaller ``(context, concept)``, and row and
    column are the ``position`` of the scorer's rows.
    """
    cells = scorer.cells(context1, c1, context2, c2, threshold)
    if not cells:
        return []
    flipped = (context2, c2.name) < (context1, c1.name)  # rows are c2's
    found = []
    score = scorer.level
    for a, b, level in cells:
        if level is None:
            level = score(a, b)
        pair = tuple.__new__(CandidatePair, (a.ref, b.ref, level))
        found.append((b.position, a.position, pair) if flipped else (a.position, b.position, pair))
    if len(found) < 2:
        return [found[0][2]] if found else []
    result = _Candidates(map(_THIRD, found))
    result.sort(key=_THIRD, reverse=True)
    result._cells, result._items = found, result[:]
    return result


def _max_weight_matching(adjacency: list[list[tuple[int, int]]], columns: int) -> list[int]:
    """Maximum-weight matching of rows ``0..len(adjacency)-1`` to columns ``0..columns-1``.

    ``adjacency[i]`` lists ``(column, cost)`` for the cells of row ``i``,
    each cost a negated weight, so negative.  Returns the column of each
    row, or -1 for its private "unmatched" column of cost 0.  Rows are
    inserted one at a time, each by a Dijkstra search for the cheapest
    augmenting path under row potentials ``u`` and column potentials
    ``v``, so a later row can displace an earlier one.  A private column
    is never stored and keeps potential 0: a row reached at distance ``d``
    has it at ``d - u[row]``.  A search stops no later than the private
    column of any row it reaches, so no ``u`` rises above 0.  A cell's
    reduced cost is ``cost - u[row] - v[column]``; only the root's may be
    negative.
    """
    row_of = [-1] * columns  # row holding each column, -1 when free
    col_of = [-1] * len(adjacency)  # column of each row, -1 on its private column
    u = [0] * len(adjacency)
    v = [0] * columns
    for root in range(len(adjacency)):
        if not adjacency[root]:  # a row with no cells keeps its private column
            continue
        heap = [(cost - v[j], j, root) for j, cost in adjacency[root]]
        heapify(heap)
        prev = [-1] * columns  # row each scanned column was reached from, -1 before its scan
        tree = []  # rows reached past the root, with the distance of the column each holds
        end, end_row, end_col = 0, root, -1  # nearest end: the root's private column
        while heap:
            d, j, i = heappop(heap)
            # Stopping at a tie loses nothing: two paths of one length would give two
            # matchings of one total, and the weights give every set of cells its own.
            if d >= end:
                break
            if prev[j] >= 0:
                continue
            prev[j] = i
            row = row_of[j]
            if row < 0:
                end, end_col = d, j
                break
            tree.append((row, d))
            base = d - u[row]  # also the distance of the row's private column
            if base < end:
                end, end_row = base, row
            for k, cost in adjacency[row]:
                if prev[k] < 0:
                    heappush(heap, (base + cost - v[k], k, row))
        u[root] += end
        for i, d in tree:  # a free end column is scanned at ``end`` and keeps its potential
            u[i] += end - d
            v[col_of[i]] -= end - d
        if end_col < 0:  # end_row leaves its column for its private one
            end_col, col_of[end_row] = col_of[end_row], -1
        j = end_col
        while j >= 0:  # shift each row on the path; the root's old column is -1
            i = prev[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return col_of


def _check_level(pair: CandidatePair) -> None:
    """Raise ``ValueError`` unless the level of ``pair`` is an ``int`` from 1 to 3."""
    if type(pair.level) is not int or not 1 <= pair.level <= 3:
        raise ValueError(f"candidate {pair.left} - {pair.right} has level {pair.level!r}, not 1 to 3")


def _ranked(candidates: Iterable[CandidatePair]) -> list[tuple[int, int, CandidatePair]]:
    """The solve cells of any candidates: the highest level per cell, indices by sorted reference."""
    best: dict[tuple[AttrRef, AttrRef], CandidatePair] = {}
    for pair in candidates:
        _check_level(pair)
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
    """Maximum bijective matching with the module's deterministic tie-breaking.

    Invariant under permutation of the candidate list, and symmetric under
    swapping the two sides (the mirrored input yields the mirrored output).
    A :func:`candidate_pairs` result that still equals what it returned is
    solved from the cells it carries; any other input of two or more
    candidates is ranked by :func:`_ranked`.  Every candidate outside the
    carried cells passes :func:`_check_level`.  A list of at most one
    candidate, or a conflict-free set, where no row or column appears
    twice, is its own unique optimum; an empty list gives the one shared
    empty set of its sizes.  Otherwise the tie rule is folded
    into the weights of one :func:`_max_weight_matching`: with ``P``
    distinct cells sorted ascending, the cell of rank ``r`` weighs
    ``bonus + level * 2**P + 2**(P - 1 - r)``.  With levels of at most 3,
    the ``bonus`` outweighs all level and tie terms of a matching together,
    its level terms all its tie terms, and each tie term all later ones; so
    every set of cells has its own total, and the unique optimum is the
    rule's choice whatever order the solve visits rows, columns and paths in.
    """
    if isinstance(candidates, list) and len(candidates) < 2:
        if candidates:
            _check_level(candidates[0])
        elif type(left_size) is type(right_size) is int:  # sizes 2.0 would find the set of 2
            return _EMPTY_MATCHES[left_size, right_size]
        return MatchSet(candidates, left_size, right_size)
    if type(candidates) is _Candidates and candidates == candidates._items:
        cells = candidates._cells
    else:
        cells = _ranked(candidates)
        if not cells:
            return MatchSet((), left_size, right_size)
    rows, columns, pairs = zip(*cells)
    if len(set(rows)) == len(cells) == len(set(columns)):
        return MatchSet(pairs, left_size, right_size)
    count = len(cells)
    bonus = (3 * count + 2) << count
    costs = [-bonus - (level << count) for level in range(4)]
    tie = 1 << count
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(max(rows) + 1)]
    # Positions order the cells as their (row, column) references do.
    for i, j, pair in sorted(cells):
        tie >>= 1
        adjacency[i].append((j, costs[pair.level] - tie))
    col_of = _max_weight_matching(adjacency, max(columns) + 1)
    # Carried cells come in (left, right) reference order, so MatchSet's sort finds them presorted.
    return MatchSet([pair for i, j, pair in cells if col_of[i] == j], left_size, right_size)
