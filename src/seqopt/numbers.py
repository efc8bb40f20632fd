"""Exact masked-record permutation counting.

For a bit mask ``(c_0, ..., c_k)`` and a k-tuple of permutations of
``1..n``, call row ``i`` *selected* when ``c_l = 1``, where ``l`` is the
number of columns whose left-to-right minima include position ``i``.
``value(mask, n, m)`` is the number of permutation tuples with exactly
``m`` selected rows.  Mask ``"01"`` recovers the unsigned Stirling
numbers of the first kind, and row ``n`` of any mask sums to ``(n!)**k``.

Rows live on the index window ``[c_k, n - 1 + c_k]``: position 1 is a
record in every column, so the last mask bit decides whether it is ever
counted.  The triangle is produced by the all-integer recurrence

    value(n+1, m+1) = g_weight(n+1, mask) * value(n, m)
                    + g_weight(n+1, ~mask) * value(n, m+1)

seeded with ``value(1, c_k) = 1``.  One row step multiplies the generating
product ``x * prod_{j=2..n} (g_weight(j, mask)*x + g_weight(j, ~mask))`` by
its next linear factor, so ``rising_poly`` and ``falling_poly`` read row n
off the same row step.  Rows are folded on demand and never stored for the
life of the process.  A fold holds one row, a list that each step updates
in place from the top slot down, and yields that same list every time: a
yielded row is valid until the fold resumes, so ``triangle`` and ``_row``
copy what they keep, and nothing else keeps a row past the call that
folded it.  ``explicit_row`` recomputes a row from the elementary-symmetric
sum over the column weights ``f_weight``, each scaled to an integer, in
one pass over the subsets of {2..n}; it exists, together with the
exhaustive counter in ``seqopt.oracle``, as an independent route to the
same integers.

All arithmetic is exact: counts are Python ints, weights are
``fractions.Fraction``; nothing here ever rounds.  One row fold,
``_unsigned_rows``, yields rows of either ints or ``decimal.Decimal``s,
each step under a context that traps every rounding: a Decimal converts
to a decimal string in linear time where an int of d digits takes time
quadratic in d.  A left-neighbour weight of 1, as every step of the
Stirling mask 01 has, is added rather than multiplied.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, InvalidOperation,
                     Overflow, Rounded, localcontext)
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import NamedTuple

DEFAULT_SUBSET_LIMIT = 12

__all__ = [
    "IntPolynomial",
    "Mask",
    "SubsetLimitError",
    "Triangle",
    "explicit_value",
    "f_weight",
    "falling_poly",
    "g_weight",
    "poly_zeros",
    "rising_poly",
    "stirling_ref",
    "triangle",
    "value",
]


class SubsetLimitError(ValueError):
    """explicit_row was asked to enumerate more subsets than its cap allows."""


class _MaskBits(NamedTuple):
    bits: tuple[int, ...]


class Mask(_MaskBits):
    """Bit vector ``(c_0, ..., c_k)`` choosing which record counts matter.

    ``bits[l] == 1`` means a row that is a record in exactly ``l`` of the
    ``k`` columns gets counted.  ``k = len(bits) - 1`` and must be >= 1.

    >>> str(Mask((0, 1)).complement())
    '10'
    """

    __slots__ = ()

    def __new__(cls, bits) -> "Mask":
        bits = tuple(int(b) for b in bits)
        if len(bits) < 2:
            raise ValueError(f"mask needs k >= 1, i.e. at least two bits, got {bits!r}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"mask bits must be 0 or 1, got {bits!r}")
        return super().__new__(cls, bits)

    @classmethod
    def _make(cls, iterable) -> "Mask":
        # namedtuple's _make, and _replace through it, would skip __new__'s checks.
        return cls(*iterable)

    @classmethod
    def from_string(cls, text: str) -> "Mask":
        """Parse the wire format ``"c0c1...ck"``, e.g. ``"01"``."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"mask string must be a nonempty run of 0/1, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def stirling(cls) -> "Mask":
        """The mask ``01`` whose triangle is the unsigned Stirling numbers."""
        return cls((0, 1))

    @property
    def k(self) -> int:
        return len(self.bits) - 1

    @property
    def offset(self) -> int:
        """Low end of every row's support: row n lives on [offset, n - 1 + offset]."""
        return self.bits[-1]

    def support(self, n: int) -> range:
        """Indices m that row n may occupy."""
        return range(self.offset, n + self.offset)

    def complement(self) -> "Mask":
        """Bitwise complement, same k; an involution."""
        return Mask(tuple(1 - b for b in self.bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def f_weight(j: int, vec: Mask) -> Fraction:
    """Rational column weight ``sum_p comb(k, p) * bits[p] / (j-1)**p``.

    Defined for j >= 2 only (j = 1 divides by zero past the p = 0 term).
    Complements always pair up: f_weight(j, v) + f_weight(j, ~v) equals
    (j / (j-1))**k.  The sequence is nonincreasing in j.
    """
    if j < 2:
        raise ValueError(f"f_weight needs j >= 2, got {j}")
    k = vec.k
    base = j - 1
    total = Fraction(0)
    for p, bit in enumerate(vec.bits):
        if bit:
            total += Fraction(comb(k, p), base**p)
    return total


def g_weight(j: int, vec: Mask) -> int:
    """Integer-scaled weight ``(j-1)**k * f_weight(j, vec)``.

    These are the recurrence coefficients; g_weight(j, v) +
    g_weight(j, ~v) == j**k.
    """
    if j < 2:
        raise ValueError(f"g_weight needs j >= 2, got {j}")
    k = vec.k
    base = j - 1
    return sum(comb(k, p) * base ** (k - p) for p, bit in enumerate(vec.bits) if bit)


# Decimal arithmetic that raises rather than rounds: at this precision and
# exponent range a sum or product of integers is always exact, and any
# operation that is not exact traps.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, Overflow, InvalidOperation])


def _row_step(row: list, gc, gp) -> None:
    """Turn unsigned row n into row n + 1 in place: slot u becomes gc * row[u-1] + gp * row[u].

    ``gc`` and ``gp`` are g_weight(n+1, mask) and g_weight(n+1, ~mask) of
    the same numeric type as the row; slot 0 holds that type's zero and
    stands in for the missing neighbours at both ends.  The pass runs from
    the top slot down, so each old value is read before it is overwritten
    and the old row is never held beside the new one.  A ``gc`` of 1, as
    every step of the masks 0...01 has, is added, not multiplied: on big
    entries a product by 1 costs as much as the other product.
    """
    top = len(row)
    row.append(row[0])
    if gc == 1:
        for u in range(top, 0, -1):
            row[u] = row[u - 1] + gp * row[u]
    else:
        for u in range(top, 0, -1):
            row[u] = gc * row[u - 1] + gp * row[u]


def _unsigned_rows(mask: Mask, max_n: int, num=int):
    """Yield unsigned rows 1..max_n as one list of ``num`` (int or Decimal).

    Row n is indexed 0..n with slot 0 unused.  The same list is yielded at
    every step and folded in place into the next row: a yielded row is
    valid until the generator resumes, and a consumer copies whatever it
    keeps.  Each step runs under the exact context, entered per step and
    never held in the caller across a ``yield``.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    comp = mask.complement()
    row = [num(0), num(1)]
    yield row
    for n in range(1, max_n):
        gc, gp = num(g_weight(n + 1, mask)), num(g_weight(n + 1, comp))
        with localcontext(_EXACT):
            _row_step(row, gc, gp)
        yield row


def _row(mask: Mask, n: int) -> tuple[int, ...]:
    """Unsigned row n alone as a tuple, folded afresh on every call."""
    for row in _unsigned_rows(mask, n):
        pass
    return tuple(row)


def row_entries(mask: Mask, urow) -> dict:
    """Nonzero entries ``{m: value}`` of one unsigned row, in increasing m.

    Slot u is entry m = u + offset - 1.  Every nonzero slot is kept: a
    nonzero slot 0, which no correct row holds, is entry offset - 1.
    """
    off = mask.offset - 1
    return {u + off: c for u, c in enumerate(urow) if c}


class Triangle(NamedTuple):
    """Exact rows 1..max_n for one mask; zero entries are not stored."""

    mask: Mask
    max_n: int
    rows: dict[int, dict[int, int]]

    def row(self, n: int) -> dict[int, int]:
        if not 1 <= n <= self.max_n:
            raise ValueError(f"row {n} outside 1..{self.max_n}")
        return dict(self.rows[n])


def triangle(mask: Mask, max_n: int) -> Triangle:
    """Rows 1..max_n of the mask's triangle, exact and deterministic.

    >>> triangle(Mask.stirling(), 4).row(4)
    {1: 6, 2: 11, 3: 6, 4: 1}
    """
    urows = _unsigned_rows(mask, max_n)
    rows = {n: row_entries(mask, urow) for n, urow in enumerate(urows, 1)}
    return Triangle(mask, max_n, rows)


def value(mask: Mask, n: int, m: int) -> int:
    """Triangle entry at (n, m); zero where row n holds no entry."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return row_entries(mask, _row(mask, n)).get(m, 0)


def explicit_row(mask: Mask, n: int) -> list[int]:
    """Unsigned row n as a slot list ``[0, ...]`` by direct subset expansion.

    Independent of the recurrence: slot t, entry m = t + offset - 1, sums
    over all (t-1)-element subsets J of {2..n} the product of
    f_weight(j, mask) for j in J times f_weight(j, ~mask) for j outside J,
    scaled by (n-1)!**k.  As that scale is the product of (j-1)**k over
    j = 2..n, each weight is scaled by its own (j-1)**k once; that each
    scaled weight is an integer is asserted, never assumed.  One pass over
    the 2**(n-1) subsets then adds each subset's int product into the
    entry of its size, so n is capped at DEFAULT_SUBSET_LIMIT; this is an
    oracle-scale cross-check, not a fast path.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DEFAULT_SUBSET_LIMIT:
        raise SubsetLimitError(f"subset expansion is oracle-scale only: "
                               f"n={n} exceeds the limit of {DEFAULT_SUBSET_LIMIT}")
    comp = mask.complement()
    pairs = []  # (weight of j outside J, weight of j in J) for j = 2..n
    for j in range(2, n + 1):
        pair = [(j - 1) ** mask.k * f_weight(j, vec) for vec in (comp, mask)]
        if any(w.denominator != 1 for w in pair):
            raise RuntimeError(
                f"internal inconsistency: a scaled weight of mask {mask} at j={j} "
                f"is not an integer: {pair}")
        pairs.append([w.numerator for w in pair])
    sums = [0] * n
    # Both products run through the subsets in the same order.
    for factors, picks in zip(product(*pairs), product((0, 1), repeat=n - 1)):
        sums[sum(picks)] += prod(factors)
    return [0, *sums]


def explicit_value(mask: Mask, n: int, m: int) -> int:
    """Entry at (n, m) of ``explicit_row``; zero outside the row's support."""
    return row_entries(mask, explicit_row(mask, n)).get(m, 0)


class IntPolynomial(NamedTuple):
    """Integer-coefficient polynomial; coefficients[i] multiplies x**i."""

    coefficients: tuple[int, ...]

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation; accepts int or Fraction."""
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def rising_poly(mask: Mask, n: int) -> IntPolynomial:
    """Expand ``x * prod_{j=2..n} (g_weight(j, mask)*x + g_weight(j, ~mask))``.

    Multiplying by one linear factor is one step of the row recurrence,
    so the coefficients are unsigned row n: the coefficient of x**u is
    value(mask, n, u + offset - 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return IntPolynomial(_row(mask, n))


def falling_poly(mask: Mask, n: int) -> IntPolynomial:
    """Same product with the constant terms negated.

    Its coefficients are rising_poly's with the sign (-1)**(n+u) on x**u.
    """
    coeffs = rising_poly(mask, n).coefficients
    return IntPolynomial(tuple(-c if (n + u) % 2 else c for u, c in enumerate(coeffs)))


def poly_zeros(mask: Mask, n: int, kind: str = "rising") -> list[Fraction | None]:
    """Exact roots of the degree-n generating product, factor by factor.

    Entry 0 is the root x = 0 carried by the leading factor; entry m - 1
    (m = 2..n) is -f_weight(m, ~mask)/f_weight(m, mask) for the rising
    product and the positive ratio for the falling one.  When
    f_weight(m, mask) == 0 (all-zero mask) the factor is constant and the
    slot holds None rather than failing.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind not in ("rising", "falling"):
        raise ValueError(f"kind must be 'rising' or 'falling', got {kind!r}")
    comp = mask.complement()
    zeros: list[Fraction | None] = [Fraction(0)]
    for m in range(2, n + 1):
        fm = f_weight(m, mask)
        if fm == 0:
            zeros.append(None)
        else:
            ratio = f_weight(m, comp) / fm
            zeros.append(-ratio if kind == "rising" else ratio)
    return zeros


def _stirling_rows(max_n: int):
    """Yield rows 1..max_n of the classic unsigned Stirling numbers as one int list.

    Row n is [s(n, 0), ..., s(n, n)] with s(n, 0) = 0, from the textbook
    recurrence s(n+1, m) = s(n, m-1) + n*s(n, m) with s(1, 1) = 1, run in
    place from the top m down.  As in ``_unsigned_rows``, the same list is
    yielded at every step: a yielded row is valid until the generator
    resumes, and a consumer copies whatever it keeps.  Kept deliberately
    separate from the row step and the weights so that the two can be
    diffed as independent computations.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    row = [0, 1]
    yield row
    for n in range(1, max_n):
        row.append(0)
        for m in range(n + 1, 0, -1):
            row[m] = row[m - 1] + n * row[m]
        yield row


def stirling_ref(max_n: int) -> dict[int, dict[int, int]]:
    """Classic unsigned Stirling numbers of the first kind, rows 1..max_n, as {n: {m: s(n, m)}}."""
    return {n: {m: s for m, s in enumerate(row) if s}
            for n, row in enumerate(_stirling_rows(max_n), 1)}
