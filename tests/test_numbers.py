"""Unit tests for the exact triangle module."""

import decimal
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from seqopt import numbers
from seqopt.numbers import (
    Mask,
    SubsetLimitError,
    explicit_value,
    f_weight,
    falling_poly,
    g_weight,
    poly_zeros,
    rising_poly,
    stirling_ref,
    triangle,
    value,
)


def all_masks(max_k):
    for k in range(1, max_k + 1):
        for bits in product((0, 1), repeat=k + 1):
            yield Mask(bits)


def prefix_minima_set(perm):
    best = None
    out = set()
    for i, v in enumerate(perm, start=1):
        if best is None or v < best:
            out.add(i)
            best = v
    return out


bit_lists = st.lists(st.sampled_from((0, 1)), min_size=2, max_size=8)


class TestMask:
    def test_rejects_short_and_nonbinary(self):
        with pytest.raises(ValueError):
            Mask((1,))
        with pytest.raises(ValueError):
            Mask((0, 2))
        with pytest.raises(ValueError):
            Mask.from_string("0x1")
        with pytest.raises(ValueError):
            Mask.from_string("")

    def test_tuple_helpers_validate(self):
        assert Mask._make([(0, 1)]) == Mask.stirling()
        assert Mask.stirling()._replace(bits=(1, 1)) == Mask.from_string("11")
        with pytest.raises(ValueError):
            Mask.stirling()._replace(bits=(0, 2))
        with pytest.raises(ValueError):
            Mask._make([(1,)])

    def test_complement_examples(self):
        assert str(Mask.from_string("01").complement()) == "10"
        assert str(Mask.from_string("011").complement()) == "100"
        assert str(Mask.from_string("1010").complement()) == "0101"

    @given(bit_lists)
    def test_complement_is_involution(self, bits):
        mask = Mask(tuple(bits))
        assert mask.complement().complement() == mask
        assert mask.complement().k == mask.k

    def test_named_constructors(self):
        assert Mask.stirling().bits == (0, 1)
        assert Mask((0,) + (1,) * 3).bits == (0, 1, 1, 1)
        with pytest.raises(ValueError):
            Mask((0,))

    def test_support_window(self):
        assert list(Mask.from_string("01").support(4)) == [1, 2, 3, 4]
        assert list(Mask.from_string("10").support(4)) == [0, 1, 2, 3]

    def test_string_round_trip(self):
        for text in ("01", "10", "0110", "111"):
            assert str(Mask.from_string(text)) == text


class TestWeights:
    def test_f_weight_examples(self):
        assert f_weight(5, Mask.from_string("01")) == Fraction(1, 4)
        assert f_weight(3, Mask.from_string("11")) == Fraction(3, 2)

    def test_f_weight_complement_sum_is_binomial_theorem(self):
        direct = sum(Fraction(comb(2, p), 2**p) for p in range(3))
        assert direct == Fraction(9, 4)
        for mask in all_masks(2):
            if mask.k != 2:
                continue
            assert f_weight(3, mask) + f_weight(3, mask.complement()) == direct

    def test_rejects_j_below_two(self):
        with pytest.raises(ValueError):
            f_weight(1, Mask.stirling())
        with pytest.raises(ValueError):
            g_weight(1, Mask.stirling())

    def test_g_weight_examples(self):
        # the coefficient that makes the classic Stirling recurrence have a 1
        for j in range(2, 9):
            assert g_weight(j, Mask.stirling()) == 1
        assert g_weight(2, Mask.from_string("011")) == 3
        assert g_weight(2, Mask.from_string("100")) == 1

    @given(bit_lists, st.integers(min_value=2, max_value=60))
    def test_weight_complement_sums(self, bits, j):
        mask = Mask(tuple(bits))
        k = mask.k
        assert f_weight(j, mask) + f_weight(j, mask.complement()) == Fraction(j, j - 1) ** k
        assert g_weight(j, mask) + g_weight(j, mask.complement()) == j**k
        assert g_weight(j, mask) == f_weight(j, mask) * (j - 1) ** k

    def test_monotone_in_j(self):
        for mask in all_masks(3):
            seq = [f_weight(j, mask) for j in range(2, 30)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_floor_when_first_bit_set(self):
        for mask in all_masks(3):
            if mask.bits[0] == 1:
                assert all(f_weight(j, mask) >= 1 for j in range(2, 20))

    def test_product_bound(self):
        for mask in all_masks(3):
            for n in (2, 5, 12):
                p = prod((f_weight(j, mask) for j in range(2, n + 1)), start=Fraction(1))
                assert p <= n**mask.k


class TestTriangle:
    def test_stirling_row_four_matches_enumeration(self):
        counts = {}
        for perm in permutations(range(1, 5)):
            m = len(prefix_minima_set(perm))
            counts[m] = counts.get(m, 0) + 1
        assert counts == {1: 6, 2: 11, 3: 6, 4: 1}
        assert triangle(Mask.stirling(), 4).row(4) == counts

    def test_two_column_row_two_matches_enumeration(self):
        mask = Mask.from_string("011")
        counts = {}
        perms = list(permutations((1, 2)))
        for c1 in perms:
            for c2 in perms:
                s1, s2 = prefix_minima_set(c1), prefix_minima_set(c2)
                w = 0
                for i in (1, 2):
                    w += mask.bits[(i in s1) + (i in s2)]
                counts[w] = counts.get(w, 0) + 1
        assert counts == {1: 1, 2: 3}
        assert triangle(mask, 2).row(2) == counts

    def test_all_zero_mask_concentrates_at_zero(self):
        tri = triangle(Mask.from_string("00"), 6)
        for n in range(1, 7):
            assert tri.row(n) == {0: factorial(n)}

    def test_first_row_single_entry(self):
        for mask in all_masks(3):
            assert triangle(mask, 1).row(1) == {mask.offset: 1}

    def test_row_sums_support_and_positivity(self):
        for mask in all_masks(3):
            tri = triangle(mask, 8)
            for n in range(1, 9):
                row = tri.row(n)
                assert sum(row.values()) == factorial(n) ** mask.k
                assert all(m in mask.support(n) for m in row)
                assert all(v > 0 for v in row.values())

    def test_symmetry_against_complement(self):
        for mask in all_masks(2):
            comp = mask.complement()
            for n in range(1, 9):
                for m in range(mask.offset - 2, n + mask.offset + 2):
                    assert value(mask, n, m) == value(comp, n, n - m)

    def test_value_examples(self):
        assert value(Mask.stirling(), 4, 2) == 11
        assert value(Mask.stirling(), 4, 0) == 0
        assert value(Mask.from_string("10"), 4, 4) == 0

    def test_accessors_validate_n(self):
        with pytest.raises(ValueError):
            value(Mask.stirling(), 0, 1)
        with pytest.raises(ValueError):
            triangle(Mask.stirling(), 0)
        tri = triangle(Mask.stirling(), 3)
        with pytest.raises(ValueError):
            tri.row(4)
        with pytest.raises(ValueError):
            tri.row(0)

    @given(bit_lists, st.integers(min_value=1, max_value=7))
    def test_row_sum_property(self, bits, n):
        mask = Mask(tuple(bits))
        row = triangle(mask, n).row(n)
        assert sum(row.values()) == factorial(n) ** mask.k


class TestExplicitValue:
    def test_examples(self):
        m01 = Mask.stirling()
        # 3! * (1/1 + 1/2 + 1/3) over the three singleton subsets of {2,3,4}
        assert explicit_value(m01, 4, 2) == 11
        # empty chosen set, every factor from the complement side
        assert explicit_value(m01, 4, 1) == 6
        for mask in all_masks(3):
            assert explicit_value(mask, 1, mask.offset) == 1

    def test_matches_recurrence(self):
        for mask in all_masks(2):
            for n in range(1, 7):
                for m in range(mask.offset - 1, n + mask.offset + 1):
                    assert explicit_value(mask, n, m) == value(mask, n, m)

    def test_out_of_support_is_zero(self):
        assert explicit_value(Mask.stirling(), 5, 0) == 0
        assert explicit_value(Mask.stirling(), 5, 6) == 0

    def test_subset_limit(self):
        assert numbers.DEFAULT_SUBSET_LIMIT == 12
        assert explicit_value(Mask.stirling(), 12, 12) == 1
        with pytest.raises(SubsetLimitError):
            explicit_value(Mask.stirling(), 13, 3)


class TestPolynomials:
    def test_stirling_cubic(self):
        assert rising_poly(Mask.stirling(), 3).coefficients == (0, 2, 3, 1)
        assert falling_poly(Mask.stirling(), 3).coefficients == (0, 2, -3, 1)

    def test_degree_one_base_case(self):
        for mask in all_masks(2):
            assert rising_poly(mask, 1).coefficients == (0, 1)
            assert falling_poly(mask, 1).coefficients == (0, 1)

    def test_all_ones_mask_concentrates_on_top(self):
        # both bits set means every row is selected no matter what, so the
        # whole mass n! sits on the top coefficient
        poly = rising_poly(Mask.from_string("11"), 3)
        assert poly.coefficients == (0, 0, 0, 6)
        assert sum(poly.coefficients) == factorial(3)

    def test_coefficients_match_triangle_with_sign_rule(self):
        for mask in all_masks(2):
            for n in range(1, 9):
                up = rising_poly(mask, n)
                down = falling_poly(mask, n)
                assert len(up.coefficients) == n + 1
                assert up.coefficients[0] == 0
                for u in range(n + 1):
                    want = value(mask, n, u + mask.offset - 1) if u else 0
                    assert up.coefficients[u] == want
                    assert down.coefficients[u] == (-1) ** (n + u) * want

    def test_leading_coefficient_is_weight_product(self):
        for mask in all_masks(2):
            for n in range(1, 7):
                lead = rising_poly(mask, n).coefficients[n]
                assert lead == prod(g_weight(j, mask) for j in range(2, n + 1))
                assert lead >= 0

    def test_exact_evaluation(self):
        poly = rising_poly(Mask.stirling(), 4)
        assert poly(1) == sum(poly.coefficients)
        assert poly(Fraction(-3, 2)) == Fraction(9, 16)  # (-3/2)(-1/2)(1/2)(3/2)


class TestPolyZeros:
    def test_stirling_zeros(self):
        assert poly_zeros(Mask.stirling(), 3, "rising") == [0, -1, -2]
        assert poly_zeros(Mask.stirling(), 3, "falling") == [0, 1, 2]

    def test_all_ones_mask_all_roots_zero(self):
        assert poly_zeros(Mask.from_string("11"), 4, "rising") == [0, 0, 0, 0]

    def test_all_zero_mask_marks_undefined(self):
        assert poly_zeros(Mask.from_string("00"), 4, "rising") == [0, None, None, None]

    def test_evaluation_at_each_defined_zero_is_exactly_zero(self):
        for mask in all_masks(2):
            for n in range(1, 8):
                for kind, make in (("rising", rising_poly), ("falling", falling_poly)):
                    poly = make(mask, n)
                    for z in poly_zeros(mask, n, kind):
                        if z is not None:
                            assert poly(z) == 0

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            poly_zeros(Mask.stirling(), 3, "sideways")

    @pytest.mark.parametrize("kind", ["rising", "falling"])
    def test_row_n_zeros_are_a_prefix_of_the_longest_row(self, kind):
        # verify slices one list of roots for every row it checks.
        for mask in all_masks(3):
            longest = poly_zeros(mask, 15, kind)
            for n in range(1, 16):
                assert longest[:n] == poly_zeros(mask, n, kind)


class TestStirlingRef:
    def test_hand_unrolled_rows(self):
        ref = stirling_ref(4)
        assert ref[1] == {1: 1}
        assert ref[2] == {1: 1, 2: 1}
        assert ref[3] == {1: 2, 2: 3, 3: 1}
        assert ref[4] == {1: 6, 2: 11, 3: 6, 4: 1}

    def test_diagonal_and_seed(self):
        ref = stirling_ref(12)
        assert ref[1] == {1: 1}
        assert all(ref[n][n] == 1 for n in range(1, 13))

    def test_matches_triangle_for_stirling_mask(self):
        ref = stirling_ref(12)
        tri = triangle(Mask.stirling(), 12)
        assert all(tri.row(n) == ref[n] for n in range(1, 13))

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            stirling_ref(0)

    def test_streamed_rows_match_triangle(self):
        # Row n is the int tuple s(n, 0..n), laid out as mask 01's unsigned row.
        tri = triangle(Mask.stirling(), 60)
        rows = [tuple(row) for row in numbers._stirling_rows(60)]
        assert [len(row) for row in rows] == [n + 1 for n in range(1, 61)]
        assert all(row[0] == 0 for row in rows)
        assert [dict(enumerate(row[1:], 1)) for row in rows] == [tri.row(n) for n in range(1, 61)]


def multiplying_rows(mask, max_n):
    """Unsigned int rows 1..max_n by a fold that multiplies by both weights at every step."""
    comp = mask.complement()
    row = [0, 1]
    yield tuple(row)
    for j in range(2, max_n + 1):
        gc, gp = g_weight(j, mask), g_weight(j, comp)
        padded = row + [0]
        row = [0] + [gc * padded[u - 1] + gp * padded[u] for u in range(1, j + 1)]
        yield tuple(row)


class TestDecimalRows:
    @pytest.mark.parametrize("mask", list(all_masks(3)), ids=str)
    def test_equal_to_cached_int_rows(self, mask):
        # One fold yields both types; the always-multiply fold pins its
        # added-weight branch (gc == 1 for 01, 001, 0001), the general one
        # where the right weight is 1 (10, 110, 1110) and zero weights
        # (00..0, 11..1).
        want = list(multiplying_rows(mask, 30))
        assert [tuple(row) for row in numbers._unsigned_rows(mask, 30)] == want
        rows = [tuple(row) for row in numbers._unsigned_rows(mask, 30, decimal.Decimal)]
        assert all(type(c) is decimal.Decimal for row in rows for c in row)
        assert [tuple(map(str, row)) for row in rows] == [tuple(map(str, row)) for row in want]

    def test_caller_context_untouched_by_partly_consumed_generator(self):
        with decimal.localcontext(decimal.Context(prec=5)) as ctx:
            before = repr(ctx)
            rows = numbers._unsigned_rows(Mask.from_string("0111"), 40, decimal.Decimal)
            for _ in range(20):
                next(rows)
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before
            rows.close()
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before

    def test_exact_context_traps_rounding(self):
        with decimal.localcontext(numbers._EXACT):
            with pytest.raises(decimal.Inexact):
                decimal.Decimal("2.5").to_integral_exact()
            with pytest.raises(decimal.Overflow):
                decimal.Decimal(f"9E{decimal.MAX_EMAX}") * 10

    def test_rejects_empty_triangle(self):
        with pytest.raises(ValueError):
            next(numbers._unsigned_rows(Mask.stirling(), 0, decimal.Decimal))


def fold_peak_ratio(rows):
    """Peak traced memory over one pass of ``rows``, over the final row's entry sizes.

    Each row is read and dropped.  A fold that builds row n + 1 beside row
    n peaks near 2; one that updates a single row in place near 1.
    """
    tracemalloc.start()
    try:
        for row in rows:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / sum(map(sys.getsizeof, row))


class TestOneRowFold:
    # 01 takes the gc == 1 branch of the row step, 10 (whose right weight
    # is 1) and 011 the general one; ratios at n = 300 read 1.04-1.10.
    @pytest.mark.parametrize("num", [int, decimal.Decimal], ids=["int", "Decimal"])
    @pytest.mark.parametrize("text", ["01", "10", "011"])
    def test_unsigned_rows_hold_one_row(self, text, num):
        rows = numbers._unsigned_rows(Mask.from_string(text), 300, num)
        assert fold_peak_ratio(rows) < 1.5

    def test_stirling_rows_hold_one_row(self):
        assert fold_peak_ratio(numbers._stirling_rows(300)) < 1.5


class TestRowFoldThreads:
    def test_concurrent_folds_and_row_reads_give_exact_rows(self):
        # Each thread folds rows 1..n_max and checks their sums, and reads
        # rows 1..read_max back through _row(), which folds each afresh, so
        # reading all n_max rows back would take cubic time.
        mask = Mask.from_string("011")
        n_max, read_max = 400, 60
        interval = sys.getswitchinterval()
        start = threading.Barrier(4)
        bad = []

        def work():
            try:
                start.wait(timeout=60)
                fact = 1
                for n, row in enumerate(numbers._unsigned_rows(mask, n_max), 1):
                    fact *= n
                    if len(row) != n + 1 or sum(row) != fact**2:
                        bad.append(n)
                    if n <= read_max and numbers._row(mask, n) != tuple(row):
                        bad.append(n)
            except Exception as exc:  # reported through the assertion below
                bad.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert bad == []
        finally:
            sys.setswitchinterval(interval)
