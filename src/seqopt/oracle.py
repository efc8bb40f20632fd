"""Ground-truth enumeration for the triangle numbers.

Everything here executes the defining count literally: walk every
k-tuple of permutations of 1..n, take each column's optimization set
(its left-to-right minima), apply the mask row by row, and histogram the
selected-row totals.  It is deliberately brute force; the point is to be
obviously correct so the fast recurrence can be played against it.

``optimization_set_bruteforce`` goes one level deeper and finds a
minimum-cardinality covering subset by raw subset search, which pins
down that the prefix-minima shortcut really is the optimization set.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .numbers import Mask

DEFAULT_BUDGET = 10_000_000

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "Histogram",
    "color_boards_count",
    "histogram",
    "optimization_set_bruteforce",
    "partial_histogram",
    "prefix_min_records",
]


class BudgetError(ValueError):
    """The requested enumeration needs more permutation tuples than allowed."""


def prefix_min_records(perm) -> set[int]:
    """1-based positions whose value undercuts everything before them.

    Position 1 always qualifies.  Callers supply a permutation of 1..n;
    distinct values are assumed (ties cannot occur in a permutation).
    """
    records: set[int] = set()
    best = None
    for i, v in enumerate(perm, start=1):
        if best is None or v < best:
            records.add(i)
            best = v
    return records


def optimization_set_bruteforce(points, relations=(operator.le, operator.lt)) -> set:
    """Smallest subset A of 2-d points covering every point.

    a covers u when a == u or relations[0](a[0], u[0]) and
    relations[1](a[1], u[1]) both hold.  Subsets are tried in increasing
    size, so the first hit is a minimum-cardinality covering set.  The
    search is exponential and therefore capped at 12 points.
    """
    pts = [tuple(p) for p in points]
    if len(pts) > 12:
        raise ValueError(f"exhaustive subset search is capped at 12 points, got {len(pts)}")
    rel0, rel1 = relations

    def covered(a, u):
        return a == u or (rel0(a[0], u[0]) and rel1(a[1], u[1]))

    for size in range(len(pts) + 1):
        for cand in combinations(pts, size):
            if all(any(covered(a, u) for a in cand) for u in pts):
                return set(cand)
    raise AssertionError("unreachable: the full point set covers itself")


@dataclass(frozen=True)
class Histogram:
    """Exact counts of selected-row totals over every permutation tuple."""

    mask: Mask
    n: int
    counts: dict[int, int]

    @property
    def k(self) -> int:
        return self.mask.k

    def total(self) -> int:
        return sum(self.counts.values())


def _record_flags(perm) -> tuple[int, ...]:
    flags = []
    best = None
    for v in perm:
        hit = best is None or v < best
        flags.append(1 if hit else 0)
        if hit:
            best = v
    return tuple(flags)


@lru_cache(maxsize=None)
def _flags_table(n: int) -> tuple[tuple[int, ...], ...]:
    # Only materialized for k >= 2, where the budget keeps n! small.
    return tuple(_record_flags(p) for p in permutations(range(1, n + 1)))


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """Permutation of 1..n at ``index`` in lexicographic order.

    The digits of ``index`` in the factorial number system are its Lehmer
    code: digit i picks the next entry among those still unused.
    """
    pool = list(range(1, n + 1))
    perm = []
    for left in range(n - 1, -1, -1):
        digit, index = divmod(index, factorial(left))
        perm.append(pool.pop(digit))
    return tuple(perm)


def _histogram_counts(mask: Mask, n: int, first_columns) -> Counter:
    # ``first_columns`` holds the first-column permutations to enumerate;
    # the other k - 1 columns run over every permutation.
    k, bits = mask.k, mask.bits
    counts: Counter = Counter()
    rest = _flags_table(n) if k > 1 else ()
    rows = range(n)
    for perm in first_columns:
        first = _record_flags(perm)
        if k == 1:
            counts[sum(bits[f] for f in first)] += 1
            continue
        for cols in product(rest, repeat=k - 1):
            w = 0
            for i in rows:
                l = first[i]
                for col in cols:
                    l += col[i]
                w += bits[l]
            counts[w] += 1
    return counts


def histogram(mask: Mask, n: int, budget: int = DEFAULT_BUDGET) -> Histogram:
    """Exhaustive histogram of selected-row totals over all (n!)**k tuples.

    Refuses when the tuple count would exceed the budget.  Columns advance
    in lexicographic order, but only counts survive, so enumeration order
    never shows in the result.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = factorial(n) ** mask.k
    if total > budget:
        raise BudgetError(
            f"enumeration needs {total} permutation tuples, over the budget of {budget}")
    counts = _histogram_counts(mask, n, permutations(range(1, n + 1)))
    return Histogram(mask, n, dict(sorted(counts.items())))


def partial_histogram(mask: Mask, n: int, first_index: int,
                      budget: int = DEFAULT_BUDGET) -> Counter:
    """Counts over tuples whose first column is one fixed permutation.

    ``first_index`` addresses the lexicographic permutation order.  The
    partials over all n! indices add up to ``histogram(...).counts``;
    that partition-and-merge contract is what parallel runs rely on.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nfact = factorial(n)
    if not 0 <= first_index < nfact:
        raise ValueError(f"first_index {first_index} outside 0..{nfact - 1}")
    slice_total = nfact ** (mask.k - 1)
    if slice_total > budget:
        raise BudgetError(
            f"one partition still needs {slice_total} permutation tuples, "
            f"over the budget of {budget}")
    return _histogram_counts(mask, n, (_unrank(n, first_index),))


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
