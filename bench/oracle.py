"""Exhaustive reference for ``essencemap.matching.max_matching``.

Written from the documented selection rule, independently of the package's
own code paths: keep the highest level per attribute pair, orient the sides
so the smaller ``(context, concept)`` is on the left, then among bijective
subsets prefer the most pairs, then the highest total level, then the
lexicographically smallest sorted pair list; mirror back at the end.
"""

from __future__ import annotations

from functools import lru_cache

SIDE_LIMIT = 10


def oracle_matching(candidates):
    """Reference matching of ``(left, right, level)`` triples.

    ``left`` and ``right`` are attribute references with ``context`` and
    ``concept`` fields that order like the package's ``AttrRef``.  Returns
    the chosen triples sorted by ``(left, right)``.  Every left-to-right
    choice is explored, memoized on (left index, rights used), so sides
    are limited to ``SIDE_LIMIT`` attributes.
    """
    levels = {}
    for left, right, level in candidates:
        if level > levels.get((left, right), -1):
            levels[left, right] = level
    if not levels:
        return []
    left_key = min((l.context, l.concept) for l, _ in levels)
    right_key = min((r.context, r.concept) for _, r in levels)
    flipped = right_key < left_key
    if flipped:
        levels = {(r, l): level for (l, r), level in levels.items()}
    lefts = sorted({l for l, _ in levels})
    rights = sorted({r for _, r in levels})
    if len(lefts) > SIDE_LIMIT or len(rights) > SIDE_LIMIT:
        raise ValueError(f"oracle limited to {SIDE_LIMIT} attributes per side")
    bit = {r: 1 << i for i, r in enumerate(rights)}
    options = [[(r, levels[l, r]) for r in rights if (l, r) in levels] for l in lefts]

    @lru_cache(maxsize=None)
    def best(index: int, used: int):
        """Smallest (-pairs, -total level, pair list) over lefts[index:]."""
        if index == len(lefts):
            return (0, 0, ())
        choice = best(index + 1, used)
        for right, level in options[index]:
            if used & bit[right]:
                continue
            count, total, rest = best(index + 1, used | bit[right])
            option = (count - 1, total - level, ((lefts[index], right, level),) + rest)
            if option < choice:
                choice = option
        return choice

    chosen = best(0, 0)[2]
    if flipped:
        chosen = tuple((r, l, level) for l, r, level in chosen)
    return sorted(chosen)
