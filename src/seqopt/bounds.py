"""Closed-form upper bounds and concentration checks for the triangles.

The row bound at support position t (1-based, t = m - offset + 1) is

    (n-1)!**k / (t-1)! * lam**(t-1) * prod_{j=2..n-t+1} f_weight(j, ~mask)

with lam = h_dot(n, mask) = sum of f_weight(j, mask) over j = 2..n.  It
dominates the exact entry termwise, its row total over (n!)**k never
exceeds e**lam, and for masks with first bit 0 the mass beyond an
explicit threshold M is below e**-M1.  Masks with first bit 1 get the
mirrored statement through the complement-mask symmetry.

In integers, with lam = a/b and G_s = prod_{j=2..s+1} g_weight(j, ~mask)
(so that the f_weight product above is G_{n-t} / ((n-t)!)**k), the bound
at position t is A_t / B_t with

    A_t = a**(t-1) * P_t,  P_t = ((n-1)!/(n-t)!)**k * G_{n-t}
    B_t = b**(t-1) * Q_t,  Q_t = (t-1)!

P_t and Q_t stay at most 2034 bits long for mask 01 at n = 300 (5755
and 2878 bits for 011 at n = 400), while a**(t-1) and b**(t-1) reach a
hundred thousand bits or more: lam's numerator and denominator are
themselves hundreds of bits long.  ``ocmax_cofactors`` yields (P_t, Q_t)
from the table G_s of ``ocmax_tables``, which a caller builds for the
largest row it reads.
``ocmax_covers`` decides A_t >= v * B_t without the powers for most
entries: with e = max(bits(x) - 64, 0) and T = x >> e, the 64-bit powers
T**s and (T+1)**s bound bits(x**s) from below and above, exactly when
e = 0, and a sum of bit lengths with a slack of 2 settles the
comparison; only an entry that test leaves open forms a**(t-1) and
b**(t-1).  ``ocmax_row`` is the ``Fraction`` view, and the CLI renders
the row from the cofactors and lam without forming a Fraction.
``tail_checks`` sums slices of unsigned row n (slot u holds the entry
at m = u + offset - 1), taken whole from its caller.

``upper_ratio`` puts the row total over one integer denominator, where
it is the polynomial sum of cs[u] * a**u * b**(n-1-u) over u = 0..n-1.
That sum is evaluated by halving the index range, so every big multiply
has operands of about equal length, where a Horner loop multiplies its
long running value by a short factor once per term.  The sum is reduced
over the denominator's known factors, (n-1)! * (n!)**k and b**(n-1),
never by a gcd of two numbers as long as the sum.

Everything stays rational.  e**x, e, ln(n-1) and pi**2/6 enter only as
enclosures lo <= c <= hi with ``Fraction`` ends.  e**x, e and ln(n-1)
are ``decimal``'s correctly rounded ``Context.exp`` and ``Context.ln`` at
p significant digits, each end moved one unit outward unless the result
is exact (e**0 = 1, ln 1 = 0); e**x takes x rounded down and up to p
digits.  pi**2/6 = zeta(2) alone keeps a series, 3 * sum over j >= 1 of
1/(j**2 * C(2j, j)) (van der Poorten, 1979), summed in integers with
each term rounded outward.  A comparison or a ceiling is decided from an
enclosure once both ends agree; p steps up the ladder ``_DIGITS`` until
they do, and past its last rung the step raises ``RuntimeError``.  The
ratio checks keep the fixed 1e-12 acceptance margin on top of the bound.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal,
                     Inexact)
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, exp, factorial, gcd
from typing import NamedTuple

from .numbers import Mask, _row, f_weight, g_weight

MARGIN = Fraction(1, 10**12)
# The precisions, in significant digits, at which every enclosure decision
# is tried in turn: 20 (about 64 bits), doubling to 20 * 2**8 = 5120, the
# first rung past the 4932 digits of 2**14 bits; past the last it is refused.
_DIGITS = tuple(20 << i for i in range(9))

__all__ = [
    "BoundReport",
    "TailCheck",
    "exp_bound_holds",
    "h_dot",
    "mirrored_tail",
    "ocmax",
    "ocmax_row",
    "ratio_report",
    "tail_probability",
    "tail_threshold",
    "upper_ratio",
]


def _enclosure(op, down: Decimal, up: Decimal, digits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= op(y) <= hi for down <= y <= up, op = Context.exp or Context.ln.

    lo is op(down) and hi is op(up), each correctly rounded to digits
    significant digits by ``decimal`` and moved one unit in its last digit
    outward (down, up) unless the result is exact.
    """
    ends = []
    for y, step in ((down, Context.next_minus), (up, Context.next_plus)):
        # The widest exponent range: e**y neither underflows nor overflows for |y| < 10**18.
        ctx = Context(prec=digits, Emin=MIN_EMIN, Emax=MAX_EMAX)
        r = op(ctx, y)
        ends.append(Fraction(step(ctx, r) if ctx.flags[Inexact] else r))
    return ends[0], ends[1]


def _exp_enclosure(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= e**x <= hi: the _enclosure of exp at x rounded down and up to digits digits."""
    a, b = Decimal(x.numerator), Decimal(x.denominator)
    return _enclosure(Context.exp, Context(prec=digits, rounding=ROUND_FLOOR).divide(a, b),
                      Context(prec=digits, rounding=ROUND_CEILING).divide(a, b), digits)


def exp_bound_holds(lhs: Fraction, exponent) -> bool:
    """True when lhs <= e**exponent + 1e-12, decided exactly.

    e**exponent + 1e-12 is irrational unless exponent is 0, so some
    enclosure of e**exponent settles the comparison: ``_exp_enclosure``,
    from ``decimal``'s correctly rounded exp widened by one unit, at
    each precision of ``_DIGITS`` in turn.  lhs is only
    cross-multiplied against the enclosure's ends, never divided or
    reduced.
    """
    if lhs <= MARGIN:
        return True  # e**exponent > 0, so no enclosure is needed
    x = Fraction(exponent)
    for digits in _DIGITS:
        lo, hi = _exp_enclosure(x, digits)
        if lhs <= lo + MARGIN:
            return True
        if lhs > hi + MARGIN:
            return False
    raise RuntimeError(f"lhs is within {_DIGITS[-1]} digits of e**{x} + {MARGIN}: undecided")


def h_dots(mask: Mask, max_n: int):
    """Yield h_dot(n, mask), n = 1..max_n: step n adds g_weight(n + 1, mask) / n**k.

    The step is f_weight(n + 1, mask), taken from the recurrence's integer
    weight; verify compares these sums with the f_weight partial sums.
    """
    if max_n < 1:
        raise ValueError(f"n must be >= 1, got {max_n}")
    lam = Fraction(0)
    for n in range(1, max_n + 1):
        yield lam
        lam += Fraction(g_weight(n + 1, mask), n**mask.k)


def h_dot(n: int, mask: Mask) -> Fraction:
    """Dot product of the harmonic vector with the mask bits, p = 0 included.

    The last value of h_dots(mask, n).  Identically equal to
    sum(f_weight(j, mask) for j in 2..n); that identity is enforced in the
    test suite and by ``verify``.
    """
    for lam in h_dots(mask, n):
        pass
    return lam


def ocmax(mask: Mask, n: int, m: int) -> Fraction:
    """Closed-form upper bound for the triangle entry at (n, m).

    Zero outside the support; inside it the bound dominates value(mask,
    n, m) (verified as a test, never assumed) and is tight at the bottom
    support position.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = m - mask.offset + 1
    if t < 1 or t > n:
        return Fraction(0)
    comp = mask.complement()
    lam = h_dot(n, mask)
    tail = Fraction(1)
    for j in range(2, n - t + 2):
        tail *= f_weight(j, comp)
    return Fraction(factorial(n - 1) ** mask.k, factorial(t - 1)) * lam ** (t - 1) * tail


def ocmax_tables(mask: Mask, n: int) -> list[int]:
    """G for s = 0..n-1: G[s] = prod_{j=2..s+1} g_weight(j, ~mask).

    G_s is (s!)**k times the product of f_weight(j, ~mask) over the same j.
    Row n's table is the first n items of any longer row's, so one table
    built at the largest n serves every smaller row.
    """
    comp = mask.complement()
    g = [1] * n
    for s in range(1, n):
        g[s] = g[s - 1] * g_weight(s + 1, comp)
    return g


def ocmax_cofactors(mask: Mask, n: int, tables=None):
    """Yield row n's power-free parts (P_t, Q_t), t = 1..n.

    P_t = ((n-1)!/(n-t)!)**k * G_{n-t} and Q_t = (t-1)!, so that ocmax at
    support position t is lam**(t-1) * P_t / Q_t with lam = h_dot(n,
    mask); see the module docstring.  tables is ocmax_tables(mask, N) for
    some N >= n, built here when omitted.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g, k = tables or ocmax_tables(mask, n), mask.k
    fall, fact = 1, 1  # ((n-1)!/(n-t)!)**k and (t-1)!
    for t in range(1, n + 1):
        yield fall * g[n - t], fact
        fall *= (n - t) ** k
        fact *= t


def _power_bits(x: int, upper: bool):
    """Yield a bound on bit_length(x**s) for s = 0, 1, ...: the lower one, or the upper if upper.

    With e = max(bits(x) - 64, 0) and T = x >> e, T**s * 2**(s*e) <= x**s
    < (T+1)**s * 2**(s*e), so bits(T**s) + s*e <= bits(x**s) <=
    bits((T+1)**s) + s*e.  Only the powers of the 64-bit T or T+1 are
    formed; when e = 0, T = x and both bounds are exact.
    """
    e = max(x.bit_length() - 64, 0)
    t = (x >> e) + (upper and e > 0)
    t_pow, shift = 1, 0  # T**s, s*e
    while True:
        yield t_pow.bit_length() + shift
        t_pow *= t
        shift += e


def ocmax_covers(lam: Fraction, cofactors, values):
    """Yield a**s * p >= v * b**s * q for the s-th pair (p, q) of cofactors and v of values.

    lam = a/b >= 0; p, v >= 0 and q >= 1 are ints.  A nonzero a**s * p is
    at least 2**(bits(a**s) + bits(p) - 2) and v * b**s * q is below
    2**(bits(v) + bits(b**s) + bits(q)), so the first exponent reaching the
    second settles it.  That test takes a lower bound on bits(a**s) and an
    upper one on bits(b**s) from ``_power_bits``; only an entry it leaves
    undecided forms a**s and b**s and compares the products.
    """
    a, b = lam.numerator, lam.denominator
    terms = zip(cofactors, values, _power_bits(a, False), _power_bits(b, True))
    for s, ((p, q), v, a_bits, b_bits) in enumerate(terms):
        yield ((bool(a_bits and p) and a_bits + p.bit_length() - 2
                >= v.bit_length() + b_bits + q.bit_length())
               or a**s * p >= v * (b**s * q))


def ocmax_row(mask: Mask, n: int) -> dict[int, Fraction]:
    """Row n's upper bounds as ``Fraction``s of ocmax_cofactors; equal to ocmax per entry."""
    lam = h_dot(n, mask)
    return {m: lam**s * Fraction(p, q)
            for s, (m, (p, q)) in enumerate(zip(mask.support(n), ocmax_cofactors(mask, n)))}


def _powers(x: int):
    """e -> x**e, memoized: each power past x**1 is formed once, from those of e's halves."""
    @lru_cache(maxsize=None)
    def power(e: int) -> int:
        return x**e if e < 2 else power(e // 2) * power(e - e // 2)
    return power


def _power_sum(cs: list[int], apow, bpow, lo: int, hi: int) -> int:
    """S = sum of cs[u] * a**(u-lo) * b**(hi-1-u), lo <= u < hi, for apow(e) = a**e, bpow(e) = b**e.

    Splits at mid: S[lo, hi) = S[lo, mid) * b**(hi-mid) + a**(mid-lo) *
    S[mid, hi), so the factors of each product are about equally long.
    """
    if hi - lo == 1:
        return cs[lo]
    mid = (lo + hi) // 2
    return (_power_sum(cs, apow, bpow, lo, mid) * bpow(hi - mid)
            + apow(mid - lo) * _power_sum(cs, apow, bpow, mid, hi))


def upper_ratio(mask: Mask, n: int) -> Fraction:
    """Row total of the upper bounds divided by (n!)**k, exactly.

    Same value as sum(ocmax_row(mask, n).values()) / (n!)**k but
    assembled on a single integer common denominator, whose numerator
    is summed by halving (see the module docstring) from the terms of
    ocmax_cofactors.

    The numerator acc is reduced over its denominator S * b**(n-1), S =
    (n-1)! * (n!)**k, by g = gcd(acc, S), whose short operand makes it
    cheap, and then by gcd(acc/g, b**(n-1)) only where acc/g shares a
    prime with b; the pair left is coprime, so the Fraction is built
    without its own gcd, which costs as much on a coprime pair as on any.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    lam = h_dot(n, mask)
    a, b = lam.numerator, lam.denominator
    fact_n1 = factorial(n - 1)
    # cs[t-1] = P_t * q, q = (n-1)!/(t-1)!, is term t over (n-1)! * b**(n-1) * (n!)**k
    cs, q = [], fact_n1
    for t, (p, _) in enumerate(ocmax_cofactors(mask, n), 1):
        cs.append(p * q)
        q //= t
    bpow = _powers(b)
    acc, b_pow = _power_sum(cs, _powers(a), bpow, 0, n), bpow(n - 1)
    # gcd(x, y * z) = gcd(x, y) * gcd(x / gcd(x, y), z), for y = small, z = b**(n-1).
    small = fact_n1 * factorial(n) ** mask.k
    g = gcd(acc, small)
    acc, small = acc // g, small // g
    if gcd(acc, b) != 1:
        g = gcd(acc, b_pow)
        acc, b_pow = acc // g, b_pow // g
    return _coprime_fraction(acc, small * b_pow)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime ints with den > 0, skipping Fraction's own gcd.

    That gcd costs as much on a coprime pair of huge ints as on any other.
    The instance is built as CPython 3.12's Fraction._from_coprime_ints
    builds it, by setting the two slots, which 3.10 to 3.13 share.
    """
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def _zeta2_enclosure(digits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= pi**2/6 <= hi, from zeta(2) = 3 * sum_{j>=1} 1/(j**2 * C(2j, j)).

    The series is A. van der Poorten's ("A proof that Euler missed", Math.
    Intelligencer 1, 1979), summed in integers at scale 10**digits with
    C(2j, j) stepped by the exact factor 2(2j-1)/j.  Each term is rounded
    outward, its floor into lo and its ceiling into hi; the sum stops at
    the first term whose upper end is at most one unit.  Term j+1 is term
    j times j**2 / (2(j+1)(2j+1)) < 1/4, so the terms not summed add up
    to less than a third of the last one, below one unit, which hi adds.
    """
    scale = 10**digits
    lo = hi = 0
    j, central, term_hi = 0, 1, 2
    while term_hi > 1:
        j += 1
        central = central * 2 * (2 * j - 1) // j
        d = j * j * central
        term_hi = -(-3 * scale // d)
        lo, hi = lo + 3 * scale // d, hi + term_hi
    return Fraction(lo, scale), Fraction(hi + 1, scale)


def tail_threshold(mask: Mask, n: int, m1: int) -> int:
    """Concentration threshold for masks whose first bit is 0.

    Returns ceil(e*k*c_1*(ln(n-1) + 1) + e*(pi**2/6)*sum_{p>=2} c_p*comb(k, p))
    plus m1, with natural logarithms.  The ceiling is exact: it is taken
    once both ends of the enclosure share it.  e and ln(n-1) come from
    ``decimal``'s correctly rounded exp and ln widened by one unit,
    pi**2/6 from zeta(2)'s series 3 * sum 1/(j**2 * C(2j, j)) (van der
    Poorten, 1979), all at each precision of ``_DIGITS`` in turn.  The
    row mass strictly beyond index M + offset - 1 then stays
    within e**-m1; see tail_probability.
    """
    if mask.bits[0] != 0:
        raise ValueError("mask has first bit 1; its upper tail is not concentrated, "
                         "use mirrored_tail instead")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m1 < 1:
        raise ValueError(f"m1 must be a positive integer, got {m1}")
    k, bits = mask.k, mask.bits
    c1 = k * bits[1]
    c2 = sum(bits[p] * comb(k, p) for p in range(2, k + 1))
    for digits in _DIGITS:
        e_lo, e_hi = _exp_enclosure(Fraction(1), digits)
        ln_lo, ln_hi = _enclosure(Context.ln, Decimal(n - 1), Decimal(n - 1), digits)
        z_lo, z_hi = _zeta2_enclosure(digits)
        lo = e_lo * (c1 * (ln_lo + 1) + c2 * z_lo)
        hi = e_hi * (c1 * (ln_hi + 1) + c2 * z_hi)
        if ceil(lo) == ceil(hi):
            return ceil(hi) + m1
    raise RuntimeError(f"tail threshold of mask {mask} at n={n} is within {_DIGITS[-1]} "
                       "digits of an integer: undecided")


def _row_mass(mask: Mask, row, lo: int, hi: int) -> Fraction:
    """Sum of unsigned row n's slots lo <= u < hi, u >= 1, over (n!)**k; n = len(row) - 1."""
    return Fraction(sum(row[max(lo, 1):max(hi, 1)]), factorial(len(row) - 1) ** mask.k)


def tail_probability(mask: Mask, n: int, threshold_m: int) -> Fraction:
    """Exact row mass strictly above the absolute index threshold_m.

    The entries of row n at m > threshold_m, summed over (n!)**k; 1 when
    the threshold sits below the support, 0 when it clears the top.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _row_mass(mask, _row(mask, n), threshold_m - mask.offset + 2, n + 1)


def mirrored_tail(mask: Mask, n: int, m1: int) -> tuple[int, Fraction]:
    """Concentration check for masks whose first bit is 1.

    The threshold M comes from the complement mask (whose first bit is
    0).  Returned is (M, mass of row entries strictly below the absolute
    index n - M + offset), computed on this mask's own triangle.  By the
    complement symmetry that mass equals the complement mask's tail
    strictly above M + (1 - offset) - 1, so it stays within e**-m1.
    """
    if mask.bits[0] != 1:
        raise ValueError("mask has first bit 0; use tail_threshold and tail_probability")
    (check,) = tail_checks(mask, _row(mask, n), (m1,))
    return check.threshold, check.probability


def tail_checks(mask: Mask, row, m1_values):
    """Yield a TailCheck per m1 from unsigned row n = len(row) - 1, on mask.bits[0]'s branch."""
    n, upper = len(row) - 1, mask.bits[0] == 0
    for m1 in m1_values:
        thr = tail_threshold(mask if upper else mask.complement(), n, m1)
        lo, hi = (thr + 1, n + 1) if upper else (1, n - thr + 1)
        prob = _row_mass(mask, row, lo, hi)
        yield TailCheck(m1, thr, prob, exp(-m1), exp_bound_holds(prob, -m1))


class TailCheck(NamedTuple):
    m1: int
    threshold: int
    probability: Fraction
    bound: float  # e**-m1 to double precision, for display; ok is decided exactly
    ok: bool


class BoundReport(NamedTuple):
    """One row's growth exponents and ratios; its per-entry caps are ocmax_row(mask, n)'s."""

    lam: Fraction
    lam_prime: Fraction
    ratio: Fraction
    ratio_prime: Fraction
    ratio_ok: bool
    ratio_prime_ok: bool


def ratio_report(mask: Mask, n: int) -> BoundReport:
    """Bound report for row n: exact ratios checked against e**lam.

    ratio is sum(ocmax)/ (n!)**k for this mask, ratio_prime the same for
    the complement mask over the same denominator (row sums agree).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    comp = mask.complement()
    lam = h_dot(n, mask)
    lam_prime = h_dot(n, comp)
    ratio = upper_ratio(mask, n)
    ratio_prime = upper_ratio(comp, n)
    return BoundReport(lam, lam_prime, ratio, ratio_prime, exp_bound_holds(ratio, lam),
                       exp_bound_holds(ratio_prime, lam_prime))
