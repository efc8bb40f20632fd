"""Command line front end: triangles, verification, polynomials, bounds, Stirling diff.

Exit codes: 0 all good, 1 a mathematical check failed, 2 usage error,
3 I/O error.  Identical invocations produce byte-identical output.
Each row fold holds one row and updates it in place.  ``triangle``
renders each row's ``numbers.row_entries`` from that buffer as it is
computed, ``stirling`` diffs the two live rows of the mask fold and the
reference fold, and ``verify`` updates every per-row check from the slot
lists of row n of the mask and of its complement, whole, slot 0 and
length included, holding that pair and the cofactor tables built for
row ``--n`` (about 19 MiB at ``--n 600``).  ``--out`` naming a regular file or a new name is
written through a temporary file beside it that replaces it only once the
command has finished; a device or pipe is written in place, and a name
``open`` refuses (``''``, a directory, ``file/``) exits 3 before any work.
Exact integers and rationals that a command computes are rendered through
``_exact_str``: a divide-and-conquer conversion to ``decimal.Decimal``,
whose string takes linear time where ``str(int)`` before Python 3.12 takes
time quadratic in the digit count.  ``bounds``' ocmax row, tens of thousands of digits per
entry, is rendered from its factored form by ``_power_fraction_strs``:
the power of lam's numerator and the reduced power of its denominator
are kept as running ``Decimal`` products, and the reduction comes from
gcds of small integers, so no huge ``Fraction`` is reduced, no huge int
converted and no huge ``Decimal`` divided by a long one.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, groupby, tee, zip_longest
from math import gcd, prod
from operator import itemgetter

from . import bounds, numbers, oracle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Unread by the program; benchmarks/test_bench.py pins it.  Goes with the tracer (ROADMAP item 3).
_TRIANGLE_FACTORY = numbers.triangle

__all__ = [
    "main", "run_verification",
    "render_csv", "render_json", "render_plain", "parse_csv", "parse_json",
    "triangle_entries",
]


# ---------------------------------------------------------------- rendering

# Ints of at most 2**_LEAF_LOG2 bits convert directly; larger ones split at
# bit 2**(e-1).  _POW2[e] is Decimal(2) ** 2**e, shared by every conversion
# of the process; a lost or repeated store only recomputes an exact value.
_LEAF_LOG2 = 11
_POW2: dict[int, Decimal] = {}


def _int_to_decimal(n: int) -> Decimal:
    """n >= 0 as an exact Decimal; call under numbers._EXACT."""
    e = (n.bit_length() - 1).bit_length()  # least e with n < 2**(2**e)
    if e <= _LEAF_LOG2:
        return Decimal(n)
    half = 1 << (e - 1)
    pow2 = _POW2.get(e - 1)
    if pow2 is None:
        pow2 = _POW2[e - 1] = Decimal(2) ** half
    hi = n >> half
    return _int_to_decimal(n - (hi << half)) + _int_to_decimal(hi) * pow2


def _exact_str(x: int | Fraction) -> str:
    """``str(x)`` for an int or a Fraction, without str(int)'s quadratic time.

    The conversion runs under the trapping ``numbers._EXACT`` context, so
    a step that would round raises instead of printing a wrong digit.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _exact_str(x.numerator)
        return f"{_exact_str(x.numerator)}/{_exact_str(x.denominator)}"
    with localcontext(numbers._EXACT):
        digits = str(_int_to_decimal(abs(x)))
    return "-" + digits if x < 0 else digits


def _exact_quotient(x: Decimal, d: int) -> Decimal:
    """x / d for an int d that must divide the integral x; call under numbers._EXACT."""
    if d == 1:
        return x
    q, r = divmod(x, Decimal(d))
    if r:
        raise RuntimeError(f"internal inconsistency: {d} does not divide a running power")
    return q


def _power_fraction_strs(lam: Fraction, cofactors):
    """Yield str(Fraction(a**s * p, b**s * q)) for the pair (p, q) at index s of cofactors.

    lam = a/b >= 0 in lowest terms; p >= 0 and q >= 1 are ints.  Only the
    powers are large, and the gcd comes from small ints.  With g1 = gcd(p,
    q), p1 = p/g1, q1 = q/g1, ga = gcd(a**s, q1) and gb = gcd(b**s, p1),
    the gcd of a**s * p and b**s * q is g1 * ga * gb: compare p-adic
    valuations, using a coprime to b and p1 coprime to q1.  So the reduced
    numerator is (a**s / ga) * (p1 / gb) and the denominator (b**s / gb) *
    (q1 / ga).  ga and gb are taken through pow(a, s, q1) and pow(b, s, p1).

    a**s is a running ``Decimal`` product.  b**s is never held whole: the
    running ``Decimal`` is b**s / g, with g the gb of the last nonzero
    entry (1 before any).  A nonzero entry steps it by b * g / gb in
    lowest terms, a multiply by the numerator and an exact division by
    the denominator, which is 1 or a few bits long where gb runs to
    thousands; a zero entry steps it by b alone.
    """
    a, b = lam.numerator, lam.denominator
    a_pow = b_part = Decimal(1)  # a**s and b**s / g
    g, lift = 1, 1  # lift is b from the second entry on
    for s, (p, q) in enumerate(cofactors):
        # The context is entered per step, never held across a yield.
        with localcontext(numbers._EXACT):
            if not (p and a_pow):
                text = "0"
                b_part *= lift
            else:
                g1 = gcd(p, q)
                p, q = p // g1, q // g1
                ga, gb = gcd(pow(a, s, q), q), gcd(pow(b, s, p), p)
                step = lift * g
                h = gcd(step, gb)
                b_part = _exact_quotient(b_part * Decimal(step // h), gb // h)
                g = gb
                num = _exact_quotient(a_pow, ga) * Decimal(p // gb)
                den = b_part * Decimal(q // ga)
                text = str(num) if den == 1 else f"{num}/{den}"
            a_pow *= a
        lift = b
        yield text


def triangle_entries(tri: numbers.Triangle) -> list[tuple[int, int, int]]:
    """Stored entries as (n, m, value), ordered by n then m."""
    return [(n, m, v) for n in range(1, tri.max_n + 1)
            for m, v in sorted(tri.rows[n].items())]


# Each format is a header, one chunk per row and a trailer.  A row chunk
# takes n and the row's (m, value) cells in increasing m; rows arrive in
# order starting at n = 1.

def _json_head(mask: numbers.Mask) -> str:
    return f'{{\n  "mask": "{mask}",\n  "k": {mask.k},\n  "rows": {{'


def _json_row(n: int, cells) -> str:
    # Reproduces json.dumps(indent=2) of {"n": {"m": "value", ...}}: every
    # key and value is a decimal digit string, so nothing needs escaping.
    body = ",\n".join(f'      "{m}": "{v!s}"' for m, v in cells)
    row = f"{{\n{body}\n    }}" if body else "{}"
    return f'{"" if n == 1 else ","}\n    "{n}": {row}'


def _csv_row(n: int, cells) -> str:
    return "".join(f"{n},{m},{v!s}\n" for m, v in cells)


def _plain_row(n: int, cells) -> str:
    return f"n={n}  " + "  ".join(f"{m}:{v!s}" for m, v in cells) + "\n"


_FORMATS = {
    "csv": (lambda mask: "n,m,value\n", _csv_row, ""),
    "json": (_json_head, _json_row, "\n  }\n}\n"),
    "plain": (lambda mask: f"mask {mask} k {mask.k}\n", _plain_row, ""),
}


def _chunks(fmt: str, mask: numbers.Mask | None, rows):
    """Text of one triangle in ``fmt``, piece by piece; rows yields (n, cells)."""
    head, row, tail = _FORMATS[fmt]
    yield head(mask)
    for n, cells in rows:
        yield row(n, cells)
    yield tail


def _triangle_rows(tri: numbers.Triangle):
    return ((n, [(m, _exact_str(v)) for m, v in sorted(tri.rows[n].items())])
            for n in range(1, tri.max_n + 1))


def render_csv(entries) -> str:
    rows = ((n, [(m, _exact_str(v)) for _, m, v in group])
            for n, group in groupby(entries, key=itemgetter(0)))
    return "".join(_chunks("csv", None, rows))


def parse_csv(text: str) -> list[tuple[int, int, int]]:
    lines = text.splitlines()
    if not lines or lines[0] != "n,m,value":
        raise ValueError("missing n,m,value header")
    # Every rendered line ends in a newline; a text without one was cut mid-entry.
    if not text.endswith("\n"):
        raise ValueError("CSV does not end in a newline: truncated stream?")
    out = []
    for line in lines[1:]:
        n, m, v = line.split(",")
        out.append((int(n), int(m), int(v)))
    return out


def render_json(tri: numbers.Triangle) -> str:
    return "".join(_chunks("json", tri.mask, _triangle_rows(tri)))


def parse_json(text: str) -> numbers.Triangle:
    import json  # only here, so that importing the CLI does not load it

    data = json.loads(text)
    mask = numbers.Mask.from_string(data["mask"])
    if data["k"] != mask.k:
        raise ValueError(f"k field {data['k']} does not match mask {data['mask']}")
    rows = {int(n): {int(m): int(v) for m, v in row.items()}
            for n, row in data["rows"].items()}
    return numbers.Triangle(mask, max(rows), rows)


def render_plain(tri: numbers.Triangle) -> str:
    return "".join(_chunks("plain", tri.mask, _triangle_rows(tri)))


def _round_bits(num: int, den: int, bits: int) -> tuple[int, int]:
    """num/den > 0 to ``bits`` significant bits, nearest with ties to even.

    Returns (man, exp) with man * 2**exp the rounded value.
    """
    shift = bits + 2 - num.bit_length() + den.bit_length()  # q has >= bits + 2 bits
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    extra = q.bit_length() - bits
    man, low, half = q >> extra, q & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or (low == half and (r or man & 1)):
        man += 1
    return man, extra - shift


def _fstr(x: Fraction) -> str:
    """Six significant digits of x, by the 16-digit binary formatter of earlier releases.

    The digits follow that formatter's rounding chain, in integers: x's
    numerator, denominator and quotient rounded to 56 bits, the quotient
    cut to 39 significant bits (or to an integer, if longer), its decimal
    expansion cut after 7 digits and rounded half up at 6.  So a binary
    tie such as 2**-10 = 0.0009765625 rounds up, to 0.000976563, and a
    decimal tie such as 1.234565 rounds down, to 1.23456: its binary value
    falls just below the tie once cut.  The layout is fixed-point for
    decimal exponents -4..5 ("2332.21", "0.00012") and "1.0e+6" or
    "1.0e-6" outside, trailing zeros stripped down to one.
    """
    if not x:
        return "0.0"
    n_man, n_exp = _round_bits(abs(x.numerator), 1, 56)
    d_man, d_exp = _round_bits(x.denominator, 1, 56)
    man, exp = _round_bits(n_man, d_man, 56)
    exp += n_exp - d_exp
    f = max(39 - exp - man.bit_length(), 0)  # the cut value is y / 2**f
    s = exp + f
    y = man << s if s >= 0 else man >> -s
    e = (y.bit_length() - 1 - f) * 30103 // 100000  # floor(log10 of the value), or one off
    while True:
        lead = (y * 10 ** (6 - e)) >> f if e <= 6 else y // (10 ** (e - 6) << f)
        if lead >= 10**7:
            e += 1
        elif lead < 10**6:
            e -= 1
        else:
            break
    lead = lead // 10 + (lead % 10 >= 5)
    if lead == 10**6:
        lead, e = 10**5, e + 1
    digits = str(lead)
    if -5 < e < 6:
        text = "0." + "0" * (-e - 1) + digits if e < 0 else f"{digits[:e + 1]}.{digits[e + 1:]}"
        suffix = ""
    else:
        text = f"{digits[0]}.{digits[1:]}"
        suffix = f"e+{e}" if e > 0 else f"e{e}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if x < 0 else "") + text + suffix


@contextmanager
def _sink(path: str | None):
    """Stdout, or the file ``path``, replaced on success if it is regular or new.

    A regular file or a new name in an existing directory is written to a
    temporary file beside the file it names (through any symlink); that
    takes the old file's permission bits and replaces it once the command
    has finished, or is deleted if the command raises.  Any other name is
    opened in place: a device or pipe is written as it is, and ``''``, a
    directory or a name ending in a separator fails before the command runs.
    """
    if path is None:
        yield sys.stdout
        return
    if not (os.path.isfile(path) or (path and not os.path.exists(path)
                                     and os.path.isdir(os.path.dirname(path) or "."))):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp, fh = f"{target}.{os.urandom(6).hex()}.tmp", None
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException as exc:
        if fh is not None:
            os.unlink(tmp)
        # An error about the temporary file names the file asked for, alone.
        if getattr(exc, "filename", None) == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _write(out, text: str) -> None:
    out.write(text)


# ------------------------------------------------------------- verification

def run_verification(mask: numbers.Mask, max_n: int, *, use_oracle: bool = False,
                     budget: int = oracle.DEFAULT_BUDGET,
                     subset_limit: int = numbers.DEFAULT_SUBSET_LIMIT):
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

    n_cap = min(max_n, subset_limit)
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
            explicit_ok &= numbers.explicit_row(mask, n, subset_limit) == row

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
                if numbers.row_slots(mask, n, counts) == row:
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


# ----------------------------------------------------------------- commands

def cmd_triangle(args: argparse.Namespace, out) -> int:
    # Each row's cells are taken from the live buffer before the fold resumes;
    # row_entries keeps a nonzero slot 0, so a fold fault there is printed.
    urows = numbers._unsigned_rows(args.mask, args.max_n, Decimal)
    rows = ((n, numbers.row_entries(args.mask, urow).items()) for n, urow in enumerate(urows, 1))
    for text in _chunks(args.fmt, args.mask, rows):
        _write(out, text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out) -> int:
    results = run_verification(args.mask, args.max_n, use_oracle=args.use_oracle,
                               budget=args.budget, subset_limit=args.subset_limit)
    width = max(len(name) for name, _, _ in results)
    lines = [f"{status:<4} {name:<{width}}  {detail}".rstrip()
             for name, status, detail in results]
    failed = any(status == "FAIL" for _, status, _ in results)
    lines.append(f"result {'FAIL' if failed else 'OK'} (mask {args.mask}, n <= {args.max_n})")
    _write(out, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_poly(args: argparse.Namespace, out) -> int:
    make = numbers.rising_poly if args.kind == "rising" else numbers.falling_poly
    poly = make(args.mask, args.max_n)
    lines = [f"mask {args.mask} n {args.max_n} kind {args.kind}",
             "coefficients " + ",".join(map(_exact_str, poly.coefficients))]
    if args.zeros:
        zs = numbers.poly_zeros(args.mask, args.max_n, args.kind)
        lines.append("zeros " + ",".join("undef" if z is None else _exact_str(z) for z in zs))
    _write(out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace, out) -> int:
    mask, n = args.mask, args.max_n
    report = bounds.ratio_report(mask, n)
    row = numbers._row(mask, n)  # folded once, for the values and the tails
    ok = True

    # Lines are written as they are rendered: the report at n = 300 is about
    # 12 MB, and holding it whole set the command's peak memory.
    def line(text: str) -> None:
        _write(out, text + "\n")

    line(f"mask {mask} k {mask.k} n {n}")
    line(f"lambda {_exact_str(report.lam)}")
    line(f"lambda_prime {_exact_str(report.lam_prime)}")
    # Each bound is checked and printed from its factored form, one pass of
    # the cofactors feeding both; neither builds the reduced Fraction.
    support = mask.support(n)
    values = row[1:]
    to_check, to_render = tee(bounds.ocmax_cofactors(mask, n))
    verdicts = bounds.ocmax_covers(report.lam, to_check, values)
    texts = _power_fraction_strs(report.lam, to_render)
    for m, v, good, text in zip(support, values, verdicts, texts):
        ok &= good
        line(f"m {m} ocmax {text} value {_exact_str(v)} "
             f"dominance {'PASS' if good else 'FAIL'}")
    for t in bounds.tail_checks(mask, row, args.m1 or (1, 2, 3)):
        ok &= t.ok
        line(f"tail m1 {t.m1} M {t.threshold} probability {_exact_str(t.probability)} "
             f"bound {t.bound!r} {'PASS' if t.ok else 'FAIL'}")
    ok &= report.ratio_ok and report.ratio_prime_ok
    line(f"ratio {_exact_str(report.ratio)} (~{_fstr(report.ratio)}) within e^lambda "
         f"{'PASS' if report.ratio_ok else 'FAIL'}")
    line(f"ratio_prime {_exact_str(report.ratio_prime)} (~{_fstr(report.ratio_prime)}) "
         f"within e^lambda_prime {'PASS' if report.ratio_prime_ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_stirling(args: argparse.Namespace, out) -> int:
    n = args.max_n
    lines = []
    # Both are live int lists indexed by m = 0..n: mask 01's support starts at 1.
    pairs = zip(numbers._unsigned_rows(numbers.Mask.stirling(), n), numbers._stirling_rows(n))
    for nn, (urow, wrow) in enumerate(pairs, 1):
        if urow != wrow:
            for m, (got, want) in enumerate(zip_longest(urow, wrow, fillvalue=0)):
                if got != want:
                    lines.append(f"MISMATCH n={nn} m={m} triangle={_exact_str(got)} "
                                 f"reference={_exact_str(want)}")
    _write(out, "\n".join(lines or [f"OK: {n} rows identical"]) + "\n")
    return EXIT_CHECK_FAILED if lines else EXIT_OK


# ------------------------------------------------------------------ parsing

def _mask_arg(text: str) -> numbers.Mask:
    try:
        return numbers.Mask.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _clip(text: str, width: int = 40) -> str:
    """text, cut after ``width`` characters."""
    return text[:width] + "..." if len(text) > width else text


def _int(part: str, text: str, what: str) -> int:
    """int(part), or a usage error that names the cause and echoes at most a clip of text.

    An int of more digits than ``sys.get_int_max_str_digits()`` allows is
    refused by int() itself; that is reported as too many digits, not as
    a malformed number.
    """
    try:
        return int(part)
    except ValueError:
        pass
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = sum(ch.isdigit() for ch in part)
    if limit and digits > limit:
        raise argparse.ArgumentTypeError(
            f"too many digits ({digits}; sys.get_int_max_str_digits() is {limit}): "
            f"{_clip(text)!r}")
    raise argparse.ArgumentTypeError(f"{what}: {_clip(text)!r}")


def _positive_int(text: str) -> int:
    n = _int(text, text, "not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {_clip(str(n))}")
    return n


def _m1_list(text: str) -> tuple[int, ...]:
    values = tuple(_int(part, text, "not a comma-separated int list")
                   for part in text.split(","))
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("every m1 must be >= 1")
    return values


def _bounds_n(text: str) -> int:
    n = _positive_int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("bounds reporting needs --n >= 2")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqopt",
        description="Exact masked-record permutation triangles, bounds and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, mask=True, n_default=None, n_type=_positive_int):
        if mask:
            sp.add_argument("--mask", type=_mask_arg, required=True,
                            help="bit string c0c1...ck, e.g. 01")
        sp.add_argument("--n", type=n_type, default=n_default, required=n_default is None,
                        dest="max_n")
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("triangle", help="print rows 1..n of the triangle")
    common(sp, n_default=50)
    sp.add_argument("--format", choices=("csv", "json", "plain"), default="plain", dest="fmt")

    sp = sub.add_parser("verify", help="run every identity check, PASS/FAIL per line")
    common(sp, n_default=10)
    sp.add_argument("--oracle", action="store_true", dest="use_oracle",
                    help="also diff rows against the exhaustive enumeration")
    sp.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET,
                    help="max permutation tuples the oracle may cover, (n!)^k per row")
    sp.add_argument("--subset-limit", type=_positive_int,
                    default=numbers.DEFAULT_SUBSET_LIMIT,
                    help="cap for the explicit subset expansion")

    sp = sub.add_parser("poly", help="expand the generating product of row n")
    common(sp)
    sp.add_argument("--kind", choices=("rising", "falling"), default="rising")
    sp.add_argument("--zeros", action="store_true", help="append the exact roots")

    sp = sub.add_parser("bounds", help="upper bounds, tail and ratio report for row n")
    common(sp, n_type=_bounds_n)
    sp.add_argument("--m1", type=_m1_list, default=(), help="comma-separated tail margins")

    sp = sub.add_parser("stirling", help="diff mask 01 against the classic recurrence")
    common(sp, mask=False, n_default=30)
    return parser


_HANDLERS = {
    "triangle": cmd_triangle,
    "verify": cmd_verify,
    "poly": cmd_poly,
    "bounds": cmd_bounds,
    "stirling": cmd_stirling,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _sink(args.out) as out:
            return _HANDLERS[args.command](args, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
