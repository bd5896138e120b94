"""Exhaustive oracle for ``essencemap.matching.max_matching``, plus :func:`mirror`; test use only.

Written from the documented rule, sharing no code with the matcher: keep the
highest level per attribute pair, put the side with the smaller
``(context, concept)`` on the left, search every bijective subset, and
mirror the choice back.
"""

from __future__ import annotations

from typing import Iterable

from essencemap import AttrRef, CandidatePair, EssenceMapError, MatchSet

ORACLE_SIDE_LIMIT = 10


class OracleBoundError(EssenceMapError):
    """The exhaustive matching oracle refuses oversized instances."""


def mirror(match: MatchSet) -> MatchSet:
    """``match`` seen from the other side: every pair and the two sizes swapped."""
    return MatchSet(tuple(p.mirrored() for p in match.pairs), match.right_size, match.left_size)


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
        return MatchSet((), left_size, right_size)
    left_key = min((left.context, left.concept) for left, _ in levels)
    right_key = min((right.context, right.concept) for _, right in levels)
    flipped = right_key < left_key
    oriented = [
        CandidatePair(right, left, level) if flipped else CandidatePair(left, right, level)
        for (left, right), level in levels.items()
    ]
    sizes = (right_size, left_size) if flipped else (left_size, right_size)

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
    chosen = MatchSet(tuple(best), *sizes)
    return mirror(chosen) if flipped else chosen
