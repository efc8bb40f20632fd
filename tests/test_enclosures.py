"""Exact enclosures and the preview formatter, against mpmath.

The package decides e**x comparisons and the tail threshold from
enclosures with rational ends (``decimal``'s exp and ln widened by one
unit, and van der Poorten's series for zeta(2) = pi**2/6) and formats
previews in integers.
Here each is checked against mpmath, a test-only dependency: the
50-digit formulas the enclosures replaced, reference values at higher
precision, and ``mpmath.nstr``, whose output the formatter reproduces.
CI runs this file on the pure-Python ``decimal`` as well as the C one.
"""

import random
from decimal import Context, Decimal
from fractions import Fraction
from itertools import product
from math import comb, log10

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from seqopt import bounds, numbers, render
from seqopt.numbers import Mask

ALL_MASKS = [Mask(bits) for k in (1, 2, 3) for bits in product((0, 1), repeat=k + 1)]


def mp_fraction(x: mpmath.mpf) -> Fraction:
    """The exact value of a finite mpf."""
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


# ------------------------------------------------- the replaced 50-digit code

def mp_exp_bound_holds(lhs: Fraction, exponent) -> bool:
    exponent = Fraction(exponent)
    with mpmath.workdps(50):
        rhs = mpmath.e ** (mpmath.mpf(exponent.numerator) / mpmath.mpf(exponent.denominator))
        left = mpmath.mpf(lhs.numerator) / mpmath.mpf(lhs.denominator)
        return bool(left <= rhs + mpmath.mpf(10) ** -12)


def mp_tail_core(mask: Mask, n: int) -> int:
    k, bits = mask.k, mask.bits
    with mpmath.workdps(50):
        core = mpmath.e * k * bits[1] * (mpmath.log(n - 1) + 1)
        core += mpmath.e * (mpmath.pi**2 / 6) * sum(bits[p] * comb(k, p) for p in range(2, k + 1))
        return int(mpmath.ceil(core))


def mp_nstr(x: Fraction) -> str:
    with mpmath.workdps(16):
        return mpmath.nstr(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator), 6)


# ----------------------------------------------------------------- enclosures

def assert_encloses(lo: Fraction, hi: Fraction, value) -> None:
    """lo <= value <= hi for an mpf value computed well past the ends' precision."""
    assert lo <= mp_fraction(value) <= hi, (lo, hi, value)


def unit(v: Fraction, digits: int) -> Fraction:
    """One unit in the digits-th significant digit of v > 0."""
    e = len(str(v.numerator)) - len(str(v.denominator))  # floor(log10 v) or one above
    if Fraction(10) ** e > v:
        e -= 1
    return Fraction(10) ** (e - digits + 1)


def exp_ends(x: Fraction, digits: int):
    """_exp_enclosure(x, digits), checked to enclose e**x."""
    lo, hi = bounds._exp_enclosure(x, digits)
    with mpmath.workdps(digits + 60):
        assert_encloses(lo, hi, mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    return lo, hi


class TestExpBounds:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-60, max_value=60, max_denominator=10**30),
           st.sampled_from([1, 2, 3, 8, 20, 64]))
    @example(Fraction(0), 20)
    @example(Fraction(1), 20)
    @example(Fraction(-1, 3), 3)
    @example(Fraction(-60), 1)
    def test_encloses_and_is_as_tight_as_asked(self, x, digits):
        lo, hi = exp_ends(x, digits)
        # Two units in the digits-th digit when x has at most digits digits;
        # otherwise e**y also spreads over x's rounding interval, one unit
        # of x's digits-th digit wide: at most hi * |x| * 10**(1 - digits),
        # below 10 * |x| units of hi, plus a unit for rounding the two ends.
        exact = Fraction(Context(prec=digits).divide(Decimal(x.numerator),
                                                     Decimal(x.denominator))) == x
        assert hi - lo <= (2 if exact else 3 + 10 * abs(x)) * unit(hi, digits)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("digits", range(8, 40))
    def test_dyadic_arguments_against_exact_taylor_bounds(self, sign, digits):
        # For 0 < z <= 1/2, sum_{j <= 8} z**j / j! < e**z < that + 2 z**9 / 9!,
        # in exact rationals.  At z = 2**-s the leading terms are exact, so
        # these catch an enclosure that is off by a single unit.
        for s in range(1, 4 * digits + 20):
            z = Fraction(1, 2**s)
            partial, term = Fraction(0), Fraction(1)
            for j in range(9):
                partial += term
                term = term * z / (j + 1)
            below, above = partial, partial + 2 * term
            if sign < 0:
                below, above = 1 / above, 1 / below
            lo, hi = bounds._exp_enclosure(sign * z, digits)
            assert lo <= above
            assert hi >= below

    @pytest.mark.parametrize("x, digits", [
        # The correctly rounded e**x lies above e**x here, so a lower end not
        # moved outward misses it: e rounds up to 3, e**-1 = 0.36788 to 0.4
        # and 0.37, e**(1/3) = 1.39561 to 1.4.
        (Fraction(1), 1), (Fraction(-1), 1), (Fraction(-1), 2), (Fraction(1, 3), 2),
        (Fraction(60), 20), (Fraction(-60), 20),
        # ... and below it here, which an upper end not moved outward misses:
        # e to 2.7, e**(1/3) = 1.395612425 to 1 and 1.3956124.
        (Fraction(1), 2), (Fraction(1, 3), 1), (Fraction(1, 3), 8), (Fraction(-1, 3), 8),
        (Fraction(60), 3),
        # x rounded to nearest, not down and up, moves e**x by several units.
        (Fraction(91, 3), 8), (Fraction(-91, 3), 20), (Fraction(50, 7), 20),
        (Fraction(-50, 7), 3),
    ], ids=str)
    def test_correct_rounding_on_the_wrong_side(self, x, digits):
        exp_ends(x, digits)

    def test_exact_at_zero(self):
        assert bounds._exp_enclosure(Fraction(0), 20) == (1, 1)


def check_zeta2(digits: int) -> None:
    """Check that _zeta2_enclosure(digits) encloses zeta(2), within 2 * digits + 2 units."""
    lo, hi = bounds._zeta2_enclosure(digits)
    with mpmath.workdps(digits + 60):
        assert_encloses(lo, hi, mpmath.zeta(2))
    # a unit per term rounded outward, about 1.66 terms a digit, and the tail's unit
    assert (hi - lo) * 10**digits <= 2 * digits + 2, digits


class TestSeriesBounds:
    @pytest.mark.parametrize("digits", [1, 2, 3, 8, 20, 64, 301])
    def test_log_and_pi(self, digits):
        check_zeta2(digits)
        with mpmath.workdps(digits + 60):
            assert bounds._enclosure(Context.ln, Decimal(1), Decimal(1), digits) == (0, 0)
            for m in [*range(2, 200), 1023, 1024, 1025, 10**6 + 3]:
                lo, hi = bounds._enclosure(Context.ln, Decimal(m), Decimal(m), digits)
                assert_encloses(lo, hi, mpmath.log(m))
                assert hi - lo <= 2 * unit(hi, digits)

    def test_zeta2_at_every_precision(self):
        for digits in [*range(1, 65), 301, 1000]:
            check_zeta2(digits)


# ------------------------------------------------------------ exp_bound_holds

def bound_inputs():
    """Every (lhs, exponent) pair that ``bounds`` and ``verify`` pass to exp_bound_holds,
    for all masks with k <= 3 and n <= 60."""
    pairs = []
    for mask in ALL_MASKS:
        for n in range(2, 61):
            rep = bounds.ratio_report(mask, n)
            pairs += [(rep.ratio, rep.lam), (rep.ratio_prime, rep.lam_prime)]
            tails = bounds.tail_checks(mask, numbers._row(mask, n), (1, 2, 3))
            pairs += [(t.probability, -t.m1) for t in tails]
    return pairs


class TestExpBoundHolds:
    def test_agrees_with_the_50_digit_comparison(self):
        pairs = bound_inputs()
        assert len(pairs) == 28 * 59 * 5
        got = [bounds.exp_bound_holds(lhs, x) for lhs, x in pairs]
        assert got == [mp_exp_bound_holds(lhs, x) for lhs, x in pairs]

    @pytest.mark.parametrize("x", [
        Fraction(0), Fraction(1), Fraction(-1), Fraction(-2), Fraction(-3), Fraction(1, 3),
        Fraction(-7, 5), Fraction(30), bounds.h_dot(60, Mask.from_string("011")),
        bounds.h_dot(60, Mask.from_string("1000")),
    ], ids=str)
    def test_points_1e_40_either_side_of_the_bound(self, x):
        with mpmath.workdps(80):
            edge = mp_fraction(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
                               + mpmath.mpf(10) ** -12)
        step = Fraction(1, 10**40)
        assert bounds.exp_bound_holds(edge - step, x)
        assert not bounds.exp_bound_holds(edge + step, x)

    def test_equality_at_zero_holds(self):
        assert bounds.exp_bound_holds(1 + bounds.MARGIN, 0)
        assert not bounds.exp_bound_holds(1 + bounds.MARGIN + Fraction(1, 10**400), 0)

    def test_lhs_within_the_margin_holds_without_an_enclosure(self, monkeypatch):
        # e**x > 0, so lhs <= MARGIN holds for any x; a tail mass of 0 at a
        # huge m1 must not enclose e**-m1.
        def refuse(x, digits):
            raise AssertionError(f"enclosed e**{x} at {digits} digits")
        monkeypatch.setattr(bounds, "_exp_enclosure", refuse)
        assert bounds.exp_bound_holds(Fraction(0), -10**9)
        assert bounds.exp_bound_holds(bounds.MARGIN, 5)

    def test_raises_past_the_cap(self, monkeypatch):
        with mpmath.workdps(80):
            edge = mp_fraction(mpmath.e + mpmath.mpf(10) ** -12)
        monkeypatch.setattr(bounds, "_DIGITS", (20, 40))
        with pytest.raises(RuntimeError, match="undecided"):
            bounds.exp_bound_holds(edge + Fraction(1, 10**60), 1)


# ---------------------------------------------------------------- the ladder

def test_the_precision_ladder_doubles_from_20_to_the_first_rung_past_2_14_bits():
    ladder = bounds._DIGITS
    assert ladder[0] == 20
    assert all(b == 2 * a for a, b in zip(ladder, ladder[1:]))
    digits_14 = 2**14 * log10(2)  # the 4932 digits of 2**14 bits
    assert ladder[-2] < digits_14 < ladder[-1]


# ------------------------------------------------------------- tail_threshold

class TestTailThreshold:
    def test_agrees_with_the_50_digit_formula(self):
        masks = [m for m in ALL_MASKS if m.bits[0] == 0]
        assert len(masks) == 14
        for mask in masks:
            # past 10**20, ln(n-1) is enclosed from an argument longer than 20 digits
            for n in [*range(2, 401), 10**6, 10**12, 10**40, 2**64 + 1]:
                core = mp_tail_core(mask, n)
                assert [bounds.tail_threshold(mask, n, m1) for m1 in (1, 2, 3)] == \
                    [core + 1, core + 2, core + 3], (str(mask), n)

    def test_raises_past_the_cap(self, monkeypatch):
        # 1 digit cannot settle the ceiling, and no rung follows it.
        monkeypatch.setattr(bounds, "_DIGITS", (1,))
        with pytest.raises(RuntimeError, match="undecided"):
            bounds.tail_threshold(Mask.stirling(), 10, 1)

    def test_doubles_the_precision_until_the_ceiling_settles(self, monkeypatch):
        # 20 digits settle every ceiling at once; on a ladder from 1 digit the
        # loop must step through 2 and 4 to the same answer.
        cases = [(mask, n) for mask in ALL_MASKS if mask.bits[0] == 0 for n in (2, 10, 300)]
        assert len(cases) == 42
        want = [bounds.tail_threshold(mask, n, 1) for mask, n in cases]
        real, seen, widths = bounds._exp_enclosure, [], set()

        def spy(x, digits):
            seen.append(digits)
            if len(seen) > 20:  # a broken doubling would loop forever
                raise AssertionError(f"precision never settled: {seen}")
            return real(x, digits)

        monkeypatch.setattr(bounds, "_DIGITS", tuple(1 << i for i in range(13)))
        monkeypatch.setattr(bounds, "_exp_enclosure", spy)
        for (mask, n), w in zip(cases, want):
            seen.clear()
            assert bounds.tail_threshold(mask, n, 1) == w, (str(mask), n)
            widths.update(seen)
        assert {1, 2, 4} <= widths


# ----------------------------------------------------------------------- _fstr

def decimal_ties(rng):
    """Six-digit ties (2L + 1) * 10**(e - 6) / 2 at decimal exponents e = -10..12
    whose denominator keeps a factor 5."""
    for e in range(-10, 13):
        for lead in [100000, 123456, 999999, *rng.sample(range(100000, 10**6), 60)]:
            x = Fraction(2 * lead + 1, 2) * Fraction(10) ** (e - 6)
            if x.denominator % 5 == 0:
                yield x


def binary_ties(rng):
    """Six-digit ties that are dyadic rationals, at decimal exponents e = -12..6:
    all of them where there are at most 300, else a sample of 300.

    (2L + 1) * 10**(e - 6) / 2 is dyadic when 5**(6 - e) divides 2L + 1.
    """
    for e in range(-12, 7):
        step = 5 ** (6 - e)
        odds = [odd for odd in range(step, 2 * 10**6, 2 * step) if odd > 2 * 10**5]
        for odd in odds if len(odds) <= 300 else rng.sample(odds, 300):
            yield Fraction(odd, 2) * Fraction(10) ** (e - 6)


def halfway_operands(rng, count):
    """Quotients n/d whose numerator rounds to 56 bits from exactly halfway, or from
    just above it, within a few units of the 39-bit cut above a decimal tie.

    These are where the tie rule and the remainder of a 56-bit rounding decide
    the sixth digit."""
    for _ in range(count):
        tie = Fraction(2 * rng.randrange(10**5, 10**6) + 1, 2 * 10**6)  # in [0.1, 1)
        f = 39 - (tie.numerator.bit_length() - tie.denominator.bit_length() + 1)
        cut = Fraction(-(-tie.numerator * 2**f // tie.denominator), 2**f)
        d = (rng.getrandbits(56) | 1 << 55 | 1) << 8  # exact in 56 bits
        u = 1 << (int(cut * d).bit_length() - 56)  # a unit in the numerator's last place
        for c in range(-3, 4):
            for above in (0, 1):
                yield Fraction((int(cut * d / u) + c) * u + u // 2 + above, d)


class TestFstr:
    @pytest.mark.parametrize("x, text", [
        (Fraction(1), "1.0"), (Fraction(5, 2), "2.5"), (Fraction(233221, 100), "2332.21"),
        (Fraction(10**6), "1.0e+6"), (Fraction(1, 10**6), "1.0e-6"),
        (Fraction(0), "0.0"), (Fraction(-7, 3), "-2.33333"), (Fraction(10**5), "100000.0"),
        (Fraction(12, 10**5), "0.00012"), (Fraction(1, 1024), "0.000976563"),
        (Fraction(1234565, 10**6), "1.23456"), (Fraction(9999995, 10**6), "9.99999"),
        (Fraction(19999995, 2), "1.0e+7"),
    ], ids=str)
    def test_layout(self, x, text):
        assert render._fstr(x) == text

    @pytest.mark.parametrize("e", [13301, 26602, 37767])
    def test_exponents_where_the_binary_estimate_is_one_too_high(self, e):
        # (bits - 1) * 30103 // 100000 exceeds floor(log10 2**e) here, so the
        # digit loop must step the decimal exponent down.
        assert 10 ** (e * 30103 // 100000) > 2**e
        assert render._fstr(Fraction(2**e)) == mp_nstr(Fraction(2**e))

    def test_first_exponent_where_the_binary_estimate_is_one_too_high(self):
        assert render._fstr(Fraction(2**13301)) == "9.99936e+4003"

    def test_large_ratio_preview(self):
        assert render._fstr(bounds.upper_ratio(Mask.from_string("10"), 300)) == "1.49091e+126"

    def test_upper_ratio_previews(self):
        xs = [bounds.upper_ratio(mask, n) for mask in ALL_MASKS for n in range(2, 61)]
        assert len(xs) == 1652
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_random_rationals(self):
        rng = random.Random(20260118)
        xs = []
        for _ in range(20_000):
            num = rng.getrandbits(rng.randint(1, 400))
            den = rng.getrandbits(rng.randint(1, 400)) or 1
            xs.append(Fraction(-num if rng.random() < 0.1 else num, den))
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_decimal_ties(self):
        xs = list(decimal_ties(random.Random(5)))
        assert len(xs) > 900
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_small_denominator_ties(self):
        # Every tie p/q with q = 2**a * 5**b <= 2000, b >= 1, and p/q in [1, 10).
        xs = [Fraction(p, q) for a in range(11) for b in range(1, 5)
              for q in [2**a * 5**b] if q <= 2000
              for p in range(q, 10 * q) if (Fraction(p, q) * 10**5).denominator == 2]
        assert len(xs) > 200
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_binary_ties(self):
        xs = list(binary_ties(random.Random(6)))
        assert len(xs) > 550
        assert all(x.denominator & (x.denominator - 1) == 0 for x in xs)
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_halfway_operands(self):
        xs = list(halfway_operands(random.Random(3), 300))
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]

    def test_magnitudes_1e_minus_8_to_1e_200(self):
        rng = random.Random(7)
        xs = [Fraction(rng.randint(1, 10**rng.randint(1, 20)), rng.randint(1, 10**6))
              * Fraction(10) ** e for e in range(-8, 201) for _ in range(10)]
        xs += [Fraction(10) ** e for e in range(-8, 201)]
        xs += [Fraction(10) ** e - Fraction(1, 10**12) for e in range(-8, 12)]
        assert [render._fstr(x) for x in xs] == [mp_nstr(x) for x in xs]
