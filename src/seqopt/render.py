"""Exact rendering and output of the command line front end.

``triangle`` renders each row's ``numbers.row_entries`` from the fold's
live buffer as it is computed, one cell at a time, and writes the pieces
in batches of about 64 Ki characters, so no row's text is held whole;
``poly`` writes its coefficient and zero lines the same way.
Exact integers and rationals that a command computes are rendered through
``_exact_str``: a divide-and-conquer conversion to ``decimal.Decimal``,
whose string takes linear time where ``str(int)`` before Python 3.12 takes
time quadratic in the digit count.  ``bounds``' ocmax row, tens of thousands of digits per
entry, is rendered from its factored form by ``_power_fraction_strs``:
the power of lam's numerator and the reduced power of its denominator
are kept as running ``Decimal`` products, and the reduction comes from
gcds of small integers, so no huge ``Fraction`` is reduced, no huge int
converted and no huge ``Decimal`` divided by a long one.
On the pure-Python ``decimal`` (``_pydecimal``) every command prints the
same bytes as on the C ``decimal``, more slowly.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter

from . import numbers

# Ints of at most 2**_LEAF_LOG2 bits convert directly; larger ones split at
# bit 2**(e-1).  _POW2[e] is 2**(2**e) as a Decimal, shared by every
# conversion of the process; a lost or repeated store only recomputes an
# exact value.  Each is the square of the power one level down, never
# Decimal(2) ** 2**e: the pure-Python decimal's power slows with the
# context's precision, which numbers._EXACT sets to MAX_PREC.
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
        root = _int_to_decimal(1 << (half >> 1))
        pow2 = _POW2[e - 1] = root * root
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


# Each format is a header, the pieces of each row and a trailer.  A row
# formatter takes n and the row's (m, value) cells in increasing m and
# yields its text piece by piece, one cell at a time, so that no row's text
# is held whole; rows arrive in order starting at n = 1.

def _json_head(mask: numbers.Mask) -> str:
    return f'{{\n  "mask": "{mask}",\n  "k": {mask.k},\n  "rows": {{'


def _json_row(n: int, cells):
    # Reproduces json.dumps(indent=2) of {"n": {"m": "value", ...}}: every
    # key and value is a decimal digit string, so nothing needs escaping.
    yield f'{"" if n == 1 else ","}\n    "{n}": '
    sep = "{\n"
    for m, v in cells:
        yield f'{sep}      "{m}": "{v!s}"'
        sep = ",\n"
    yield "{}" if sep == "{\n" else "\n    }"


def _csv_row(n: int, cells):
    for m, v in cells:
        yield f"{n},{m},{v!s}\n"


def _plain_row(n: int, cells):
    yield f"n={n}  "
    sep = ""
    for m, v in cells:
        yield f"{sep}{m}:{v!s}"
        sep = "  "
    yield "\n"


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
        yield from row(n, cells)
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


def _round_bits(num: int, den: int) -> tuple[int, int]:
    """num/den > 0 to 56 significant bits, nearest with ties to even.

    Returns (man, exp) with man * 2**exp the rounded value.
    """
    shift = 56 + 2 - num.bit_length() + den.bit_length()  # q has >= 56 + 2 bits
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    extra = q.bit_length() - 56
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
    n_man, n_exp = _round_bits(abs(x.numerator), 1)
    d_man, d_exp = _round_bits(x.denominator, 1)
    man, exp = _round_bits(n_man, d_man)
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
        # A failed write to buffered stdout raises here, inside the command's
        # error handling, and not when the interpreter flushes it at exit.
        sys.stdout.flush()
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


# Characters joined into one _write: enough to keep the calls few, small
# beside one row of a large triangle.
_BATCH = 1 << 16


def _write_pieces(out, pieces) -> None:
    """Write the concatenation of pieces through ``_write``, about _BATCH characters at a time."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            _write(out, "".join(batch))
            batch, size = [], 0
    if batch:
        _write(out, "".join(batch))


def _comma_line(label: str, texts):
    """The line ``label`` + ",".join(texts), piece by piece."""
    yield label
    sep = ""
    for text in texts:
        yield sep + text
        sep = ","
    yield "\n"
