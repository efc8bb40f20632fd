"""Tests for the upper bounds, tail checks and ratio bounds."""

from fractions import Fraction
from itertools import accumulate, islice, product
from math import factorial, gcd, isqrt, prod

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from seqopt import bounds
from seqopt.bounds import (
    exp_bound_holds,
    h_dot,
    h_dots,
    mirrored_tail,
    ocmax,
    ocmax_cofactors,
    ocmax_row,
    ocmax_tables,
    ratio_report,
    tail_checks,
    tail_probability,
    tail_threshold,
    upper_ratio,
)
from seqopt.numbers import Mask, _row, f_weight, g_weight, triangle, value


def all_masks(max_k):
    for k in range(1, max_k + 1):
        for bits in product((0, 1), repeat=k + 1):
            yield Mask(bits)


class TestHDot:
    def test_examples(self):
        assert h_dot(2, Mask.stirling()) == 1
        assert h_dot(4, Mask.stirling()) == Fraction(11, 6)
        assert h_dot(6, Mask.from_string("00")) == 0

    def test_equals_weight_partial_sums(self):
        for mask in all_masks(3):
            for n in range(1, 9):
                direct = sum((f_weight(j, mask) for j in range(2, n + 1)), Fraction(0))
                assert h_dot(n, mask) == direct

    def test_running_sums_match_each_row(self):
        for mask in all_masks(3):
            want = accumulate((f_weight(j, mask) for j in range(2, 16)), initial=Fraction(0))
            assert list(h_dots(mask, 15)) == list(want)

    def test_running_sums_validation(self):
        with pytest.raises(ValueError):
            next(h_dots(Mask.stirling(), 0))


class TestOcmax:
    def test_examples(self):
        m01 = Mask.stirling()
        assert ocmax(m01, 3, 2) == 3
        assert value(m01, 3, 2) == 3  # the bound is tight here
        assert ocmax(m01, 3, 3) == Fraction(9, 4)
        assert ocmax(m01, 3, 0) == 0
        assert ocmax(Mask.from_string("10"), 3, 3) == 0

    def test_tight_at_bottom_of_support(self):
        for mask in all_masks(2):
            for n in range(1, 8):
                assert ocmax(mask, n, mask.offset) == value(mask, n, mask.offset)

    def test_dominates_triangle(self):
        for mask in all_masks(2):
            tri = triangle(mask, 10)
            for n in range(1, 11):
                row = ocmax_row(mask, n)
                for m in mask.support(n):
                    assert row[m] >= tri.rows[n].get(m, 0)

    def test_row_matches_single_entry_formula(self):
        for mask in all_masks(2):
            for n in (1, 2, 5, 9):
                assert ocmax_row(mask, n) == {m: ocmax(mask, n, m) for m in mask.support(n)}

    def test_integer_pairs_equal_the_row(self):
        # ocmax_row is the Fraction view of these factors, so the reference
        # is the closed form, entry by entry.  Every row shares the table
        # built for the largest one.  Q_t is (t-1)!, and the bound is exact
        # at t = 1, so P_1 is the bottom entry itself.
        for mask in all_masks(3):
            tables = ocmax_tables(mask, 15)
            for n in range(1, 16):
                lam = h_dot(n, mask)
                a, b = lam.numerator, lam.denominator
                pairs = list(ocmax_cofactors(mask, n, tables))
                assert pairs == list(ocmax_cofactors(mask, n))
                assert [q for _, q in pairs] == [factorial(t) for t in range(n)]
                assert pairs[0][0] == value(mask, n, mask.offset)
                got = {s + mask.offset: Fraction(a**s * p, b**s * q)
                       for s, (p, q) in enumerate(pairs)}
                assert got == {m: ocmax(mask, n, m) for m in mask.support(n)}

    def test_cofactors_are_the_power_free_parts(self):
        mask = Mask.from_string("011")
        n, k = 6, mask.k
        lam = h_dot(n, mask)
        comp = mask.complement()
        g = [prod(g_weight(j, comp) for j in range(2, s + 2)) for s in range(n)]
        assert ocmax_tables(mask, n) == g
        for t, (p, q) in enumerate(ocmax_cofactors(mask, n), 1):
            assert q == factorial(t - 1)
            assert p == (factorial(n - 1) // factorial(n - t)) ** k * g[n - t]
            assert Fraction(p, q) * lam ** (t - 1) == ocmax(mask, n, t + mask.offset - 1)
        with pytest.raises(ValueError):
            next(ocmax_cofactors(mask, 0))

    def test_integer_pairs_are_unreduced(self):
        # P_1 = ((n-1)!/(n-1)!)**k * G_{n-1} = G_{n-1} and Q_1 = 0! = 1: the
        # bound at t = 1 is the exact bottom entry, and no gcd was taken.
        mask = Mask.from_string("011")
        assert next(ocmax_cofactors(mask, 5)) == (value(mask, 5, mask.offset), 1)

    def test_cross_dominance_through_complement(self):
        for mask in all_masks(2):
            comp = mask.complement()
            for n in range(1, 9):
                for m in mask.support(n):
                    assert value(mask, n, m) <= ocmax(comp, n, n - m)


class TestPowerBits:
    """_power_bits bounds bit_length(x**s) through powers of the top 64 bits of x."""

    @staticmethod
    def bounds_to(x, s_max):
        return zip(range(s_max + 1), bounds._power_bits(x, False), bounds._power_bits(x, True))

    @given(st.integers(2**64, 2**400))
    def test_bounds_enclose_the_bit_length(self, x):
        for s, lo, hi in self.bounds_to(x, 60):
            assert lo <= (x**s).bit_length() <= hi, s

    @given(st.integers(0, 2**64 - 1))
    @example(0)
    @example(1)
    def test_exact_within_64_bits(self, x):
        for s, lo, hi in self.bounds_to(x, 60):
            assert lo == hi == (x**s).bit_length(), s

    def test_upper_bound_takes_t_plus_one(self):
        # T = isqrt(2**127) has 64 bits and T**2 < 2**127 < (T+1)**2; with
        # e = 10 low bits all ones, x**2 reaches 2**147, so only (T+1)**2
        # bounds its 148 bits from above.
        x = isqrt(2**127) << 10 | 2**10 - 1
        assert x.bit_length() == 74
        lo, hi = (next(islice(bounds._power_bits(x, up), 2, None)) for up in (False, True))
        assert (lo, (x * x).bit_length(), hi) == (147, 148, 148)


class TestTailThreshold:
    def test_all_zero_mask_reduces_to_margin(self):
        for m1 in (1, 2, 3):
            assert tail_threshold(Mask.from_string("00"), 7, m1) == m1
            assert tail_threshold(Mask.from_string("000"), 7, m1) == m1

    def test_single_column_threshold(self):
        # ceil(e * (ln 9 + 1)) = ceil(8.6909...) = 9
        assert tail_threshold(Mask.stirling(), 10, 1) == 10

    def test_two_column_threshold_at_n_two(self):
        # ln 1 = 0 kills the log but not the +1: ceil(2e + e*pi^2/6) = 10
        assert tail_threshold(Mask.from_string("011"), 2, 2) == 12

    def test_rejects_wrong_branch_and_bad_args(self):
        with pytest.raises(ValueError, match="mirrored_tail"):
            tail_threshold(Mask.from_string("10"), 5, 1)
        with pytest.raises(ValueError):
            tail_threshold(Mask.stirling(), 1, 1)
        with pytest.raises(ValueError):
            tail_threshold(Mask.stirling(), 5, 0)


class TestTailProbability:
    def test_empty_tail(self):
        assert tail_probability(Mask.stirling(), 4, 4) == 0
        assert tail_probability(Mask.stirling(), 4, 7) == 0

    def test_stirling_row_four(self):
        # mass of m in {3, 4}: (6 + 1) / 24
        assert tail_probability(Mask.stirling(), 4, 2) == Fraction(7, 24)

    def test_below_support_captures_everything(self):
        assert tail_probability(Mask.stirling(), 4, 0) == 1
        assert tail_probability(Mask.from_string("10"), 4, -1) == 1

    def test_within_exponential_bound(self):
        for mask in all_masks(2):
            if mask.bits[0] != 0:
                continue
            for n in (5, 9):
                for m1 in (1, 2):
                    thr = tail_threshold(mask, n, m1)
                    prob = tail_probability(mask, n, thr + mask.offset - 1)
                    assert 0 <= prob <= 1
                    assert exp_bound_holds(prob, -m1)


class TestMirroredTail:
    def test_threshold_comes_from_complement(self):
        mask = Mask.from_string("10")
        for n in (5, 10):
            for m1 in (1, 2):
                thr, _ = mirrored_tail(mask, n, m1)
                assert thr == tail_threshold(mask.complement(), n, m1)

    def test_equals_complement_upper_tail(self):
        for mask in all_masks(2):
            if mask.bits[0] != 1:
                continue
            comp = mask.complement()
            for n in (5, 8):
                for m1 in (1, 2):
                    thr, prob = mirrored_tail(mask, n, m1)
                    assert prob == tail_probability(comp, n, thr + comp.offset - 1)
                    assert 0 <= prob <= 1
                    assert exp_bound_holds(prob, -m1)

    def test_rejects_wrong_branch(self):
        with pytest.raises(ValueError, match="tail_threshold"):
            mirrored_tail(Mask.stirling(), 5, 1)


class TestRatioReport:
    def test_row_two_ratio_is_one(self):
        rep = ratio_report(Mask.stirling(), 2)
        assert rep.ratio == 1
        assert rep.ratio_ok and rep.ratio_prime_ok

    def test_ratio_at_least_one(self):
        for mask in all_masks(2):
            rep = ratio_report(mask, 7)
            assert rep.ratio >= 1
            assert rep.ratio_prime >= 1

    def test_upper_bounds_map_matches_ocmax(self):
        # The report carries no per-entry caps; they are ocmax_row's.
        mask = Mask.from_string("011")
        assert ocmax_row(mask, 5) == {m: ocmax(mask, 5, m) for m in mask.support(5)}

    def test_lambdas_are_h_dots(self):
        mask = Mask.from_string("110")
        rep = ratio_report(mask, 6)
        assert rep.lam == h_dot(6, mask)
        assert rep.lam_prime == h_dot(6, mask.complement())

    def test_tail_checks_populated(self):
        tails = list(tail_checks(Mask.stirling(), _row(Mask.stirling(), 6), (1, 2)))
        assert [t.m1 for t in tails] == [1, 2]
        assert all(t.ok for t in tails)
        assert all(0 <= t.probability <= 1 for t in tails)

    def test_upper_ratio_equals_row_total(self):
        # Odd, even and power-of-two lengths split the halving sum unevenly.
        for mask in all_masks(3):
            for n in (2, 3, 7, 16, 33):
                want = sum(ocmax_row(mask, n).values()) / Fraction(factorial(n) ** mask.k)
                assert upper_ratio(mask, n) == want

    def test_upper_ratio_is_reduced_as_fraction_reduces_it(self):
        # upper_ratio skips Fraction's gcd, so it must hand over a coprime
        # pair: the same pair Fraction(acc, den) makes from the unreduced
        # numerator over (n-1)! * b**(n-1) * (n!)**k.
        for mask in all_masks(3):
            for n in range(2, 41):
                k, b = mask.k, h_dot(n, mask).denominator
                den = factorial(n - 1) * b ** (n - 1) * factorial(n) ** k
                acc = sum(ocmax_row(mask, n).values()) * den / factorial(n) ** k
                assert acc.denominator == 1
                r = upper_ratio(mask, n)
                assert gcd(r.numerator, r.denominator) == 1
                want = Fraction(acc.numerator, den)
                assert (r.numerator, r.denominator) == (want.numerator, want.denominator)

    def test_upper_ratio_reduces_by_powers_of_b(self):
        # lam = 9/2 and acc = 2688 over 2 * 2**2 * 6**3: the gcd with
        # 2 * 6**3 leaves 56 / (9 * 2**2), whose 4 only the gcd with b**2
        # removes.  Of all masks with k <= 3 and n <= 120, only this one
        # needs that second gcd.
        r = upper_ratio(Mask.from_string("0100"), 3)
        assert (r.numerator, r.denominator) == (14, 9)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            ratio_report(Mask.stirling(), 1)
        with pytest.raises(ValueError):
            upper_ratio(Mask.stirling(), 1)


def horner_power_sum(cs, a, b):
    """sum(cs[u] * a**u * b**(len(cs)-1-u)) by Horner's rule, one term at a time."""
    acc = cs[-1]
    b_pow = 1
    for c in reversed(cs[:-1]):
        b_pow *= b
        acc = acc * a + c * b_pow
    return acc


class TestPowerSum:
    @given(cs=st.lists(st.integers(0, 2**300), min_size=1, max_size=40),
           a=st.integers(0, 2**200), b=st.integers(1, 2**200))
    @example(cs=[3, 1, 4, 1, 5], a=0, b=7)
    @example(cs=[3, 1, 4, 1, 5], a=7, b=1)
    @example(cs=[2], a=0, b=1)
    def test_halving_equals_horner(self, cs, a, b):
        n = len(cs)
        apow, bpow = bounds._powers(a), bounds._powers(b)
        assert bounds._power_sum(cs, apow, bpow, 0, n) == horner_power_sum(cs, a, b)
        assert [(apow(e), bpow(e)) for e in range(n + 1)] == [(a**e, b**e) for e in range(n + 1)]

    def test_inner_range(self):
        cs = [5, 7, 11, 13, 17, 19, 23]
        apow, bpow = bounds._powers(2), bounds._powers(3)
        assert bounds._power_sum(cs, apow, bpow, 2, 6) == horner_power_sum(cs[2:6], 2, 3)
        assert (apow(4), bpow(4)) == (2**4, 3**4)


class TestBoundingSequence:
    def test_strictly_increasing_and_below_limit(self):
        # a_n = e^(1 + 1/2 + ... + 1/(n-1)) / n grows strictly and stays
        # under e^gamma, itself under 1.7811
        with mpmath.workdps(50):
            prev = None
            for n in range(2, 201):
                lam = h_dot(n, Mask.stirling())
                a_n = mpmath.e ** (mpmath.mpf(lam.numerator) / lam.denominator) / n
                if prev is not None:
                    assert a_n > prev
                prev = a_n
            cap = mpmath.e**mpmath.euler
            assert prev < cap
            assert cap < mpmath.mpf("1.7811")
