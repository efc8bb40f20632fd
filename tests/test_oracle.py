"""Tests for the exhaustive enumeration oracle."""

from collections import Counter
from itertools import permutations, product
from math import factorial, prod

import pytest

from seqopt import oracle
from seqopt.numbers import Mask, triangle
from seqopt.oracle import (
    BudgetError,
    color_boards_count,
    histogram,
    optimization_set_bruteforce,
    prefix_min_records,
)


def all_masks(max_k):
    for k in range(1, max_k + 1):
        for bits in product((0, 1), repeat=k + 1):
            yield Mask(bits)


def literal_counts(mask, n):
    """Reference oracle: walk every k-tuple of permutations literally.

    Each tuple adds 1 at its selected-row total.
    """
    perms = list(permutations(range(1, n + 1)))
    records = {p: prefix_min_records(p) for p in perms}
    counts = Counter()
    for cols in product(perms, repeat=mask.k):
        sets = [records[p] for p in cols]
        counts[sum(mask.bits[sum(i in c for c in sets)] for i in range(1, n + 1))] += 1
    return counts


class TestPrefixMinRecords:
    def test_examples(self):
        assert prefix_min_records((1, 2, 3)) == {1}
        assert prefix_min_records((3, 2, 1)) == {1, 2, 3}
        assert prefix_min_records((2, 3, 1)) == {1, 3}

    def test_position_one_always_included(self):
        for n in range(1, 7):
            for perm in permutations(range(1, n + 1)):
                assert 1 in prefix_min_records(perm)


class TestBruteforce:
    def test_example_points(self):
        assert optimization_set_bruteforce([(1, 2), (2, 3), (3, 1)]) == {(1, 2), (3, 1)}

    def test_singleton(self):
        assert optimization_set_bruteforce([(1, 1)]) == {(1, 1)}

    def test_strictly_decreasing_values_need_everything(self):
        pts = [(i, 5 - i) for i in range(1, 5)]
        assert optimization_set_bruteforce(pts) == set(pts)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            optimization_set_bruteforce([(i, i) for i in range(13)])

    def test_specializes_to_prefix_minima(self):
        # the subset search and the linear scan must land on the same set
        for n in range(1, 7):
            for perm in permutations(range(1, n + 1)):
                found = optimization_set_bruteforce(list(enumerate(perm, start=1)))
                assert {i for i, _ in found} == prefix_min_records(perm)


class TestFlagCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_of_each_record_flag_vector(self, n):
        # Position 1 is always a record, and each of the 2**(n-1) choices
        # for positions 2..n occurs: a permutation has records exactly at R
        # in prod(j - 1) ways over the positions j outside R.
        want = {(1, *rest): prod(j - 1 for j, hit in enumerate(rest, 2) if not hit)
                for rest in product((0, 1), repeat=n - 1)}
        assert dict(oracle._flag_counts(n)) == want


class TestHistogram:
    def test_single_column_n_three(self):
        assert histogram(Mask.stirling(), 3).counts == {1: 2, 2: 3, 3: 1}

    def test_two_columns_n_two(self):
        assert histogram(Mask.from_string("011"), 2).counts == {1: 1, 2: 3}

    def test_complement_mask_counts_non_records(self):
        assert histogram(Mask.from_string("10"), 3).counts == {0: 1, 1: 3, 2: 2}

    def test_totals_and_support(self):
        for mask in all_masks(2):
            for n in range(1, 5):
                h = histogram(mask, n)
                assert sum(h.counts.values()) == factorial(n) ** mask.k
                assert all(m in mask.support(n) for m in h.counts)

    def test_budget_refusal_names_the_tuple_count(self):
        with pytest.raises(BudgetError, match=str(factorial(4) ** 2)):
            histogram(Mask.from_string("011"), 4, budget=100)

    def test_matches_triangle(self):
        for mask in all_masks(2):
            nmax = 5 if mask.k == 1 else 4
            tri = triangle(mask, nmax)
            for n in range(1, nmax + 1):
                assert histogram(mask, n).counts == tri.row(n)

    def test_matches_literal_walk(self):
        # the acceptance sizes: every mask with k <= 3
        for mask in all_masks(3):
            nmax = {1: 6, 2: 5, 3: 4}[mask.k]
            for n in range(1, nmax + 1):
                assert histogram(mask, n).counts == literal_counts(mask, n)

    def test_matches_literal_walk_with_four_columns(self):
        # every mask with k = 4: no other test reaches a four-column fold
        masks = [mask for mask in all_masks(4) if mask.k == 4]
        assert len(masks) == 32
        for mask in masks:
            for n in range(1, 4):
                assert histogram(mask, n).counts == literal_counts(mask, n)

    def test_matches_triangle_past_the_default_budget(self):
        # (7!)**2 is about 25.4M tuples and (6!)**3 about 373M
        sizes = {2: (6, 7), 3: (5, 6)}
        for mask in all_masks(3):
            tri = triangle(mask, 7)
            for n in sizes.get(mask.k, ()):
                h = histogram(mask, n, budget=factorial(n) ** mask.k)
                assert sum(h.counts.values()) == factorial(n) ** mask.k
                assert h.counts == tri.row(n)


class TestColorBoards:
    def test_single_board(self):
        assert color_boards_count([(1,)], Mask.from_string("01")) == 1
        assert color_boards_count([(1,)], Mask.from_string("00")) == 0
        assert color_boards_count([(1,), (1,)], Mask.from_string("011")) == 1
        assert color_boards_count([(1,), (1,)], Mask.from_string("010")) == 0

    def test_increasing_heights_all_visible(self):
        assert color_boards_count([(1, 2, 3, 4)], Mask.stirling()) == 4

    def test_example_board(self):
        # boards with heights 2,3,1: the third hides behind the second
        assert color_boards_count([(2, 3, 1)], Mask.stirling()) == 2

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            color_boards_count([(1, 2, 2)], Mask.stirling())
        with pytest.raises(ValueError):
            color_boards_count([(0, 1, 2)], Mask.stirling())
        with pytest.raises(ValueError):
            color_boards_count([(1, 2)], Mask.from_string("011"))

    def test_result_stays_in_support(self):
        perms = list(permutations((1, 2, 3)))
        for mask in all_masks(2):
            for heights in product(perms, repeat=mask.k):
                assert color_boards_count(heights, mask) in mask.support(3)

    def test_aggregation_reproduces_histogram(self):
        masks = (Mask.stirling(), Mask.from_string("10"),
                 Mask.from_string("011"), Mask.from_string("110"))
        perms = list(permutations((1, 2, 3)))
        for mask in masks:
            agg = Counter()
            for heights in product(perms, repeat=mask.k):
                agg[color_boards_count(heights, mask)] += 1
            assert dict(sorted(agg.items())) == histogram(mask, 3).counts
