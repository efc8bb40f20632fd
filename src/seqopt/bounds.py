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

    A_t = a**(t-1) * P_t,  P_t = ((n-1)!)**k * G_{n-t}
    B_t = b**(t-1) * Q_t,  Q_t = (t-1)! * ((n-t)!)**k

The cofactors P_t and Q_t stay a few thousand bits long at n = 300,
while a**(t-1) and b**(t-1) reach a hundred thousand bits or more: lam's
numerator and denominator are themselves hundreds of bits long.
``ocmax_cofactors`` yields (P_t, Q_t) and ``ocmax_terms`` adds the
running powers, yielding the four factors and never their products.  A
dominance test of A_t >= v * B_t can then decide most entries from the
factors' bit lengths alone (``cli._covers``); ``ocmax_row`` is the
``Fraction`` view, and the CLI renders the row from the cofactors and lam
without forming a Fraction.

``upper_ratio`` puts the row total over one integer denominator, where
it is the polynomial sum of cs[u] * a**u * b**(n-1-u) over u = 0..n-1.
That sum is evaluated by halving the index range, so every big multiply
has operands of about equal length, where a Horner loop multiplies its
long running value by a short factor once per term.

Everything rational stays a ``fractions.Fraction``; e**x, pi**2/6 and
e**-M1 only enter at the final comparison, evaluated to 50 significant
digits with a fixed 1e-12 acceptance margin on top of the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, factorial

import mpmath

from .numbers import Mask, f_weight, g_weight, value

_DPS = 50
MARGIN = Fraction(1, 10**12)

__all__ = [
    "MARGIN",
    "BoundReport",
    "TailCheck",
    "exp_bound_holds",
    "h_dot",
    "h_dots",
    "h_vector",
    "mirrored_tail",
    "ocmax",
    "ocmax_cofactors",
    "ocmax_row",
    "ocmax_terms",
    "ratio_report",
    "tail_probability",
    "tail_threshold",
    "upper_ratio",
]


def exp_bound_holds(lhs: Fraction, exponent) -> bool:
    """True when lhs <= e**exponent + 1e-12.

    The exponential side is evaluated to 50 significant digits; the
    rational side is converted at the same precision and never rounded
    beforehand.
    """
    exponent = Fraction(exponent)
    with mpmath.workdps(_DPS):
        rhs = mpmath.e ** (mpmath.mpf(exponent.numerator) / mpmath.mpf(exponent.denominator))
        left = mpmath.mpf(lhs.numerator) / mpmath.mpf(lhs.denominator)
        return bool(left <= rhs + mpmath.mpf(10) ** -12)


def _harmonic_sums(k: int, max_n: int):
    """Yield [sum_{j=1..n-1} 1/j**p for p = 0..k] for n = 1..max_n, as running sums."""
    if max_n < 1:
        raise ValueError(f"n must be >= 1, got {max_n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sums = [Fraction(0)] * (k + 1)
    for n in range(1, max_n + 1):
        yield sums
        sums = [s + Fraction(1, n**p) for p, s in enumerate(sums)]


def _last(values):
    """The last item of a nonempty iterable."""
    for value in values:
        pass
    return value


def _dot(sums: list[Fraction], mask: Mask) -> Fraction:
    """h_dot from one row of running sums: sum of comb(k, p) * sums[p] over the mask's bits."""
    k = mask.k
    return sum((comb(k, p) * s for p, s in enumerate(sums) if mask.bits[p]), Fraction(0))


def h_vector(n: int, k: int) -> tuple[Fraction, ...]:
    """Partial harmonic power sums h_p = comb(k, p) * sum_{j=1..n-1} 1/j**p.

    Exact, for p = 0..k; h_0 is always n - 1.
    """
    return tuple(comb(k, p) * s for p, s in enumerate(_last(_harmonic_sums(k, n))))


def h_dots(mask: Mask, max_n: int):
    """Yield h_dot(n, mask) for n = 1..max_n from one running harmonic sum."""
    for sums in _harmonic_sums(mask.k, max_n):
        yield _dot(sums, mask)


def h_dot(n: int, mask: Mask) -> Fraction:
    """Dot product of the harmonic vector with the mask bits, p = 0 included.

    The last value of h_dots(mask, n).  Identically equal to
    sum(f_weight(j, mask) for j in 2..n); that identity is enforced in the
    test suite and by ``verify``.
    """
    return _dot(_last(_harmonic_sums(mask.k, n)), mask)


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


def _comp_products(mask: Mask, n: int) -> list[int]:
    """G_s = prod_{j=2..s+1} g_weight(j, ~mask) for s = 0..n-1.

    G_s is (s!)**k times the product of f_weight(j, ~mask) over the same j.
    """
    comp = mask.complement()
    su = [1] * n
    for s in range(1, n):
        su[s] = su[s - 1] * g_weight(s + 1, comp)
    return su


def ocmax_cofactors(mask: Mask, n: int):
    """Yield row n's power-free parts (P_t, Q_t), t = 1..n.

    P_t = ((n-1)!)**k * G_{n-t} and Q_t = (t-1)! * ((n-t)!)**k, so that
    ocmax at support position t is lam**(t-1) * P_t / Q_t with lam =
    h_dot(n, mask); see the module docstring.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = mask.k
    su = _comp_products(mask, n)
    fk = [1] * n  # fk[s] = (s!)**k
    for s in range(1, n):
        fk[s] = fk[s - 1] * s**k
    fact = 1  # (t-1)!
    for t in range(1, n + 1):
        yield fk[n - 1] * su[n - t], fact * fk[n - t]
        fact *= t


def ocmax_terms(mask: Mask, n: int, lam: Fraction):
    """Yield row n's upper bounds as factors (a**(t-1), P_t, b**(t-1), Q_t), t = 1..n.

    With lam = a/b == h_dot(n, mask), the bound at support position t is
    a**(t-1) * P_t / (b**(t-1) * Q_t).  Neither product is formed and no
    gcd is taken, so a caller that compares the bound with an integer v
    can decide from the factors' sizes first.
    """
    a, b = lam.numerator, lam.denominator
    a_pow = b_pow = 1  # a**(t-1), b**(t-1)
    for p, q in ocmax_cofactors(mask, n):
        yield a_pow, p, b_pow, q
        a_pow *= a
        b_pow *= b


def ocmax_row(mask: Mask, n: int) -> dict[int, Fraction]:
    """Row n's upper bounds as ``Fraction``s of ocmax_terms; equal to ocmax per entry."""
    terms = ocmax_terms(mask, n, h_dot(n, mask))
    return {m: Fraction(a_pow * p, b_pow * q)
            for m, (a_pow, p, b_pow, q) in zip(mask.support(n), terms)}


def _power_sum(cs: list[int], a: int, b: int, lo: int, hi: int):
    """(S, a**(hi-lo), b**(hi-lo)) for S = sum of cs[u] * a**(u-lo) * b**(hi-1-u), lo <= u < hi.

    Splits at mid: S[lo, hi) = S[lo, mid) * b**(hi-mid) + a**(mid-lo) *
    S[mid, hi), so the two halves' sums and powers are about equally long
    when they are multiplied.
    """
    if hi - lo == 1:
        return cs[lo], a, b
    mid = (lo + hi) // 2
    s1, a1, b1 = _power_sum(cs, a, b, lo, mid)
    s2, a2, b2 = _power_sum(cs, a, b, mid, hi)
    return s1 * b2 + a1 * s2, a1 * a2, b1 * b2


def upper_ratio(mask: Mask, n: int) -> Fraction:
    """Row total of the upper bounds divided by (n!)**k, exactly.

    Same value as sum(ocmax_row(mask, n).values()) / (n!)**k but
    assembled on a single integer common denominator, whose numerator
    is summed by halving (see the module docstring).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    k = mask.k
    lam = h_dot(n, mask)
    a, b = lam.numerator, lam.denominator
    su = _comp_products(mask, n)
    fact_n1 = factorial(n - 1)
    # cs[t-1] scales term t onto the common denominator (n-1)! * b**(n-1) * (n!)**k
    cs = [0] * n
    q1 = fact_n1  # (n-1)!/(t-1)!
    q2 = 1        # (n-1)!/(n-t)!
    for t in range(1, n + 1):
        cs[t - 1] = su[n - t] * q1 * q2**k
        q1 //= t
        q2 *= n - t
    acc, _, b_pow = _power_sum(cs, a, b, 0, n)
    return Fraction(acc, fact_n1 * (b_pow // b) * factorial(n) ** k)


def tail_threshold(mask: Mask, n: int, m1: int) -> int:
    """Concentration threshold for masks whose first bit is 0.

    Returns ceil(e*k*c_1*(ln(n-1) + 1) + e*(pi**2/6)*sum_{p>=2} c_p*comb(k, p))
    plus m1, with natural logarithms evaluated at 50 significant digits.
    The row mass strictly beyond index M + offset - 1 then stays within
    e**-m1; see tail_probability.
    """
    if mask.bits[0] != 0:
        raise ValueError("mask has first bit 1; its upper tail is not concentrated, "
                         "use mirrored_tail instead")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m1 < 1:
        raise ValueError(f"m1 must be a positive integer, got {m1}")
    k, bits = mask.k, mask.bits
    with mpmath.workdps(_DPS):
        core = mpmath.e * k * bits[1] * (mpmath.log(n - 1) + 1)
        core += mpmath.e * (mpmath.pi**2 / 6) * sum(bits[p] * comb(k, p) for p in range(2, k + 1))
        return int(mpmath.ceil(core)) + m1


def tail_probability(mask: Mask, n: int, threshold_m: int) -> Fraction:
    """Exact row mass strictly above the absolute index threshold_m.

    sum(value(mask, n, m) for m > threshold_m) over (n!)**k; 1 when the
    threshold sits below the support, 0 when it clears the top.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = max(threshold_m + 1, mask.offset)
    mass = sum(value(mask, n, m) for m in range(lo, n + mask.offset))
    return Fraction(mass, factorial(n) ** mask.k)


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
    comp = mask.complement()
    thr = tail_threshold(comp, n, m1)
    cutoff = n - thr + mask.offset
    hi = min(cutoff, n + mask.offset)
    mass = sum(value(mask, n, m) for m in range(mask.offset, hi))
    return thr, Fraction(mass, factorial(n) ** mask.k)


@dataclass(frozen=True)
class TailCheck:
    m1: int
    threshold: int
    probability: Fraction
    bound: float  # e**-m1 to double precision; the ok flag used 50 digits
    ok: bool


@dataclass(frozen=True)
class BoundReport:
    """One row's bounds: growth exponents, ratio and tails.

    The per-entry caps are ocmax_row(mask, n), or ocmax_terms in integers.
    """

    mask: Mask
    n: int
    lam: Fraction
    lam_prime: Fraction
    ratio: Fraction
    ratio_prime: Fraction
    ratio_ok: bool
    ratio_prime_ok: bool
    tails: tuple[TailCheck, ...]


def ratio_report(mask: Mask, n: int, m1_values=()) -> BoundReport:
    """Bound report for row n: exact ratios checked against e**lam.

    ratio is sum(ocmax)/ (n!)**k for this mask, ratio_prime the same for
    the complement mask over the same denominator (row sums agree).  Each
    m1 in m1_values adds a tail check on the branch this mask's first
    bit selects.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    comp = mask.complement()
    lam = h_dot(n, mask)
    lam_prime = h_dot(n, comp)
    ratio = upper_ratio(mask, n)
    ratio_prime = upper_ratio(comp, n)
    tails = []
    for m1 in m1_values:
        if mask.bits[0] == 0:
            thr = tail_threshold(mask, n, m1)
            prob = tail_probability(mask, n, thr + mask.offset - 1)
        else:
            thr, prob = mirrored_tail(mask, n, m1)
        tails.append(TailCheck(m1, thr, prob, exp(-m1), exp_bound_holds(prob, -m1)))
    return BoundReport(
        mask, n, lam, lam_prime, ratio, ratio_prime,
        exp_bound_holds(ratio, lam), exp_bound_holds(ratio_prime, lam_prime),
        tuple(tails))
