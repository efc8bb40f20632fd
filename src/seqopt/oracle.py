"""Ground-truth enumeration for the triangle numbers.

Everything here counts from the defining enumeration: every k-tuple of
permutations of 1..n, each column's optimization set (its left-to-right
minima), the mask applied row by row, and a histogram of the
selected-row totals.  A row is selected by how many columns have a
record there, so a tuple matters only through its level vector, the
per-row record counts over its k columns.  The n! permutations are
therefore enumerated once and grouped by record-flag vector (at most
2**(n - 1) of them), and the k columns are folded into level vectors one
at a time, each combination weighted by the product of its counts.
Every count comes from that enumeration, never from a closed form, so
the oracle stays independent of the recurrence it is played against.
Nothing is memoized: each call enumerates its n! permutations afresh.

``optimization_set_bruteforce`` goes one level deeper and finds a
minimum-cardinality covering subset by raw subset search, which pins
down that the prefix-minima shortcut really is the optimization set.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import combinations, permutations
from math import factorial
from typing import NamedTuple

from .numbers import Mask

DEFAULT_BUDGET = 10_000_000

__all__ = [
    "BudgetError",
    "Histogram",
    "color_boards_count",
    "histogram",
    "optimization_set_bruteforce",
    "prefix_min_records",
]


class BudgetError(ValueError):
    """The requested enumeration needs more permutation tuples than allowed."""


def _record_flags(perm) -> tuple[int, ...]:
    # 1 at each position whose value undercuts everything before it.
    flags = []
    best = None
    for v in perm:
        hit = best is None or v < best
        flags.append(1 if hit else 0)
        if hit:
            best = v
    return tuple(flags)


def prefix_min_records(perm) -> set[int]:
    """1-based positions whose value undercuts everything before them.

    Position 1 always qualifies.  Callers supply a permutation of 1..n;
    distinct values are assumed (ties cannot occur in a permutation).
    """
    return {i for i, hit in enumerate(_record_flags(perm), start=1) if hit}


def optimization_set_bruteforce(points) -> set:
    """Smallest subset A of 2-d points covering every point.

    a covers u when a == u or a[0] <= u[0] and a[1] < u[1].  Subsets are
    tried in increasing size, so the first hit is a minimum-cardinality
    covering set.  The search is exponential and therefore capped at 12
    points.
    """
    pts = [tuple(p) for p in points]
    if len(pts) > 12:
        raise ValueError(f"exhaustive subset search is capped at 12 points, got {len(pts)}")

    def covered(a, u):
        return a == u or (a[0] <= u[0] and a[1] < u[1])

    for size in range(len(pts) + 1):
        for cand in combinations(pts, size):
            if all(any(covered(a, u) for a in cand) for u in pts):
                return set(cand)
    raise AssertionError("unreachable: the full point set covers itself")


class Histogram(NamedTuple):
    """Exact counts of selected-row totals over every permutation tuple."""

    counts: dict[int, int]


def _flag_counts(n: int) -> Counter:
    # Every permutation of 1..n enumerated once, grouped by record-flag
    # vector: at most 2**(n - 1) vectors, since position 1 is always a record.
    return Counter(map(_record_flags, permutations(range(1, n + 1))))


def histogram(mask: Mask, n: int, budget: int = DEFAULT_BUDGET) -> Histogram:
    """Exhaustive histogram of selected-row totals over all (n!)**k tuples.

    The tuples are counted through their level vectors (see the module
    docstring): n! permutations are enumerated, the k columns are folded
    one at a time against at most 2**(n - 1) flag vectors, and each level
    vector adds its tuple count at its selected-row total.  The budget
    still counts the (n!)**k tuples covered, and the call refuses when
    that count would exceed it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = factorial(n) ** mask.k
    if total > budget:
        raise BudgetError(
            f"enumeration needs {total} permutation tuples, over the budget of {budget}")
    flags = _flag_counts(n).items()
    # Level vector over the columns folded so far -> permutation tuples giving it.
    levels = Counter({(0,) * n: 1})
    for _ in range(mask.k):
        levels, prev = Counter(), levels
        for level, ways in prev.items():
            for flag, count in flags:
                levels[tuple(map(operator.add, level, flag))] += ways * count
    bits = mask.bits
    counts: Counter = Counter()
    for level, ways in levels.items():
        counts[sum(bits[l] for l in level)] += ways
    return Histogram(dict(sorted(counts.items())))


def color_boards_count(heights, mask: Mask) -> int:
    """Colors whose visible-group count is selected by the mask.

    ``heights[w][i]`` is the height of color i+1's board in group w+1;
    each group must use every height 1..n exactly once.  A color is
    visible in a group when its board tops everything in front of it
    (a prefix maximum); mapping heights through h -> n + 1 - h turns
    prefix maxima into the prefix minima the rest of the package speaks.
    """
    groups = [tuple(g) for g in heights]
    if len(groups) != mask.k:
        raise ValueError(f"expected {mask.k} groups for this mask, got {len(groups)}")
    n = len(groups[0])
    wanted = set(range(1, n + 1))
    for g in groups:
        if len(g) != n or set(g) != wanted:
            raise ValueError(f"each group must be a permutation of 1..{n}, got {g!r}")
    visible = [prefix_min_records(tuple(n + 1 - h for h in g)) for g in groups]
    count = 0
    for i in range(1, n + 1):
        l = sum(1 for vis in visible if i in vis)
        count += mask.bits[l]
    return count
