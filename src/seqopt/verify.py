"""The checks of ``verify``: every identity the package promises, in one pass over n.

``run_verification`` updates every per-row check from the slot lists of
row n of the mask and of its complement, whole, slot 0 and length
included, holding that pair and the cofactor tables built for row
``max_n`` (about 19 MiB at ``--n 600``).
"""

from fractions import Fraction
from itertools import accumulate
from math import prod

from . import bounds, numbers, oracle
from .render import _fstr


def run_verification(mask: numbers.Mask, max_n: int, *, use_oracle: bool = False,
                     budget: int = oracle.DEFAULT_BUDGET):
    """Run every identity the package promises; returns (name, status, detail) rows."""
    comp = mask.complement()
    k = mask.k
    js = range(2, max_n + 2)
    seq = [numbers.f_weight(j, mask) for j in js]
    weights_ok = all(a >= b for a, b in zip(seq, seq[1:]))
    weights_ok &= prod(seq, start=Fraction(1)) <= (max_n + 1) ** k
    weights_ok &= all(f + numbers.f_weight(j, comp) == Fraction(j, j - 1) ** k
                      for j, f in zip(js, seq))
    weights_ok &= all(numbers.g_weight(j, mask) + numbers.g_weight(j, comp) == j ** k
                      for j in js)
    if mask.bits[0] == 1:
        weights_ok &= all(w >= 1 for w in seq)

    n_cap = min(max_n, numbers.DEFAULT_SUBSET_LIMIT)
    # Row n's roots are the first n of row max_n's.  Row n must be
    # r * (x - p/q) times row n - 1, which was checked before it (row 0 is
    # the constant 1): q * row n == r * (q*x - p) * row n - 1, with
    # r = g_weight(n, mask), and r = 1 for row 1's factor x.  A slot of None
    # marks a factor with g_weight(n, mask) == 0: it is the constant
    # r = g_weight(n, ~mask) and has no root.  By induction, row n is then
    # the product of its r's times prod(x - z) over its first n roots:
    # degree, leading coefficient and roots fix the polynomial.  The falling
    # product is (-1)**n times the rising one at -x, so its identity is this
    # one times (-1)**(n+u) on x**u exactly when its roots are these negated.
    zeros = numbers.poly_zeros(mask, max_n)
    poly_ok = numbers.poly_zeros(mask, max_n, "falling") == [
        None if z is None else -z for z in zeros]
    low = [1]
    # Each mask's cofactor table is built once, for row max_n.
    tables, comp_tables = bounds.ocmax_tables(mask, max_n), bounds.ocmax_tables(comp, max_n)
    ref = numbers._stirling_rows(max_n) if mask.bits == (0, 1) else None
    sums_ok = sym_ok = support_ok = explicit_ok = dot_ok = dom_ok = ref_ok = True
    total = 1  # (n!)**k
    # The oracle stops at its first disagreement or at the first row over
    # the budget: histogram refuses such a row, and (n!)**k only grows with n.
    matched = over = differs = None
    inputs = zip(numbers._unsigned_rows(mask, max_n), numbers._unsigned_rows(comp, max_n),
                 bounds.h_dots(mask, max_n), bounds.h_dots(comp, max_n),
                 accumulate(seq[:-1], initial=Fraction(0)))
    for n, (row, crow, lam, lam_c, f_sum) in enumerate(inputs, 1):
        total *= n ** k
        sums_ok &= sum(row) == total
        # value(mask, n, m) == value(~mask, n, n - m) is row[u] == crow[n + 1 - u]
        # for u = 1..n, and slot 0 of both is 0: crow is row reversed behind slot 0.
        sym_ok &= crow == [row[0], *row[:0:-1]]
        support_ok &= len(row) == n + 1 and row[0] == 0 and min(row) >= 0
        if n <= n_cap:
            explicit_ok &= numbers.explicit_row(mask, n) == row

        # Row n as the coefficients of x**0..x**n, a copy: row is the live fold.
        prev, low = low, row[:n + 1]
        z = zeros[n - 1]
        # s * row n == r * (hi*x + lo) * row n - 1; a None slot's factor is 1.
        s, hi, lo = (1, 0, 1) if z is None else (z.denominator, z.denominator, -z.numerator)
        r = 1 if n == 1 else numbers.g_weight(n, comp if z is None else mask)
        poly_ok &= all(s * c == r * (hi * a + lo * b)
                       for c, a, b in zip(low, [0, *prev], [*prev, 0]))

        # lam = h_dot(n, mask), against the partial sum of seq up to j = n.
        dot_ok &= lam == f_sum

        # ocmax(mask) at support position t bounds the entry at position t,
        # low[t]; the complement's bound at its position t bounds the entry
        # at n + 1 - t, so that pass reads low from the top.  Each bound is
        # compared with its entry from its factors, without multiplying
        # them out first.
        for vec, h, tabs, entries in ((mask, lam, tables, low[1:]),
                                      (comp, lam_c, comp_tables, low[:0:-1])):
            cofactors = bounds.ocmax_cofactors(vec, n, tabs)
            dom_ok &= all(bounds.ocmax_covers(h, cofactors, entries))

        if ref is not None:
            ref_ok &= row == next(ref)

        if use_oracle and over is None and differs is None:
            try:
                counts = oracle.histogram(mask, n, budget).counts
            except oracle.BudgetError:
                over = n
            else:
                if len(row) == n + 1 and numbers.row_entries(mask, row) == counts:
                    matched = n
                else:
                    differs = n

    results: list[tuple[str, str, str]] = []

    def check(name, ok, detail=""):
        results.append((name, "PASS" if ok else "FAIL", detail))

    check("row-sums", sums_ok, f"each row n <= {max_n} sums to (n!)^{k}")
    check("complement-symmetry", sym_ok, "value(mask,n,m) == value(~mask,n,n-m)")
    check("support", support_ok,
          f"entries confined to [{mask.offset}, n-1+{mask.offset}], all positive")
    check("explicit-sum", explicit_ok,
          f"subset expansion matches the recurrence for n <= {n_cap}")
    check("polynomials", poly_ok, "coefficients, sign rule, exact zeros")
    check("weights", weights_ok, "monotone in j, bounded product, complement sums")
    check("harmonic-dot", dot_ok, "h_dot equals the f_weight partial sums")
    check("upper-bound-dominance", dom_ok,
          "ocmax covers every entry, complement cross-bound included")

    if max_n >= 2:
        rep = bounds.ratio_report(mask, max_n)
        check("ratio-bounds",
              rep.ratio >= 1 and rep.ratio_ok and rep.ratio_prime_ok,
              f"ratio {_fstr(rep.ratio)} and primed {_fstr(rep.ratio_prime)} within e^lambda")
        # The tails read row max_n of the triangle under test, held in low.
        side = "upper" if mask.bits[0] == 0 else "mirrored lower"
        check("tail-bounds", all(t.ok for t in bounds.tail_checks(mask, low, (1, 2, 3))),
              f"{side} mass within e^-m1 for m1 in 1..3")

    if ref is not None:
        check("stirling-reference", ref_ok, f"rows 1..{max_n} identical to the classic recurrence")

    if differs is not None:
        check("oracle", False, f"exhaustive histogram disagrees at n={differs}")
    elif matched:
        detail = f"exhaustive histograms match for n in {{1..{matched}}}"
        if over is not None:
            detail += f"; warning: skipped n >= {over} (budget {budget})"
        check("oracle", True, detail)
    elif use_oracle:
        results.append(("oracle", "SKIP", f"warning: budget {budget} allows no row "
                        "(n=1 already needs 1 tuples)"))
    return results
