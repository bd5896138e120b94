"""References for ``essencemap.matching.max_matching``, plus :func:`flip` and :func:`mirror`; test use only.

:func:`brute_force_matching` is written from the documented rule, sharing no
code with the matcher: keep the highest level per attribute pair, put the
side with the smaller ``(context, concept)`` on the left, search every
bijective subset, and mirror the choice back.  It refuses sides above ten.

:func:`dense_reference_matching` has no such bound: it solves the same
weights as one dense assignment problem over a square profit matrix padded
with zeros, an O(n**3) Hungarian solve that visits every cell.

Both check their own result (:func:`_match_set`) and build it without the
checks of ``MatchSet``, so a fault in those checks shows as a disagreement.
"""

from __future__ import annotations

import math
from typing import Iterable

from essencemap import AttrRef, CandidatePair, EssenceMapError, MatchSet

ORACLE_SIDE_LIMIT = 10


class OracleBoundError(EssenceMapError):
    """The exhaustive matching oracle refuses oversized instances."""


def flip(pair: CandidatePair) -> CandidatePair:
    """``pair`` seen from the other side."""
    return CandidatePair(pair.right, pair.left, pair.level)


def mirror(match: MatchSet) -> MatchSet:
    """``match`` seen from the other side: every pair and the two sizes swapped."""
    return MatchSet(tuple(map(flip, match.pairs)), match.right_size, match.left_size)


def _match_set(pairs: Iterable[CandidatePair], left_size: int, right_size: int) -> MatchSet:
    """``pairs`` sorted into a ``MatchSet``, checked here with ``MatchSet``'s rules and messages."""
    pairs = tuple(sorted(pairs))
    if type(left_size) is not int or type(right_size) is not int:
        raise ValueError(f"attribute set sizes must be int, got {left_size!r} and {right_size!r}")
    if left_size < 0 or right_size < 0:
        raise ValueError("attribute set sizes must be non-negative")
    if len({p.left for p in pairs}) != len(pairs) or len({p.right for p in pairs}) != len(pairs):
        raise ValueError("match set must be bijective")
    if len(pairs) > min(left_size, right_size):
        raise ValueError("match set exceeds the smaller attribute set")
    return tuple.__new__(MatchSet, (pairs, left_size, right_size))


def brute_force_matching(
    candidates: Iterable[CandidatePair], left_size: int, right_size: int
) -> MatchSet:
    """Exhaustive oracle for :func:`max_matching`.

    Enumerates every bijective subset of the candidates and applies the
    same selection rule (cardinality, then total level, then smallest pair
    list).  Refuses instances with more than ten attributes per side.
    """
    if left_size > ORACLE_SIDE_LIMIT or right_size > ORACLE_SIDE_LIMIT:
        raise OracleBoundError(
            f"oracle bound exceeded: sides {left_size}x{right_size},"
            f" limit {ORACLE_SIDE_LIMIT}"
        )
    levels: dict[tuple[AttrRef, AttrRef], int] = {}
    for pair in candidates:
        key = (pair.left, pair.right)
        levels[key] = max(pair.level, levels.get(key, pair.level))
    if not levels:
        return _match_set((), left_size, right_size)
    left_key = min((left.context, left.concept) for left, _ in levels)
    right_key = min((right.context, right.concept) for _, right in levels)
    flipped = right_key < left_key
    oriented = [
        CandidatePair(right, left, level) if flipped else CandidatePair(left, right, level)
        for (left, right), level in levels.items()
    ]

    lefts = sorted({p.left for p in oriented})
    adjacency = {
        ref: sorted((p for p in oriented if p.left == ref), key=lambda p: p.right)
        for ref in lefts
    }
    best_key: tuple | None = None
    best: list[CandidatePair] = []

    def visit(index: int, used_rights: set[AttrRef], acc: list[CandidatePair]):
        nonlocal best_key, best
        if best_key is not None and len(acc) + (len(lefts) - index) < -best_key[0]:
            return  # cannot reach the best cardinality any more
        if index == len(lefts):
            key = (
                -len(acc),
                -sum(p.level for p in acc),
                tuple(sorted(acc)),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = list(acc)
            return
        visit(index + 1, used_rights, acc)
        for pair in adjacency[lefts[index]]:
            if pair.right in used_rights:
                continue
            used_rights.add(pair.right)
            acc.append(pair)
            visit(index + 1, used_rights, acc)
            acc.pop()
            used_rights.remove(pair.right)

    visit(0, set(), [])
    return _match_set(map(flip, best) if flipped else best, left_size, right_size)


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


def dense_reference_matching(
    candidates: Iterable[CandidatePair], left_size: int, right_size: int
) -> MatchSet:
    """Dense reference for :func:`max_matching`, without its conflict-free shortcut.

    Keeps the highest level per cell, orients the side with the smaller
    ``(context, concept)`` to the left, solves every instance with
    :func:`_select` and mirrors the choice back.
    """
    best: dict[tuple[AttrRef, AttrRef], int] = {}
    for left, right, level in candidates:
        best[left, right] = max(level, best.get((left, right), level))
    if not best:
        return _match_set((), left_size, right_size)
    flipped = (min((r.context, r.concept) for _, r in best)
               < min((l.context, l.concept) for l, _ in best))
    chosen = _select(sorted(CandidatePair(r, l, level) if flipped else CandidatePair(l, r, level)
                            for (l, r), level in best.items()))
    return _match_set(map(flip, chosen) if flipped else chosen, left_size, right_size)
