"""Command line front end: triangles, verification, polynomials, bounds, Stirling diff.

Exit codes: 0 all good, 1 a mathematical check failed, 2 usage error,
3 I/O error, such as a failed write to ``--out`` or to stdout (a closed
pipe, a full disk), or running out of memory.  Identical invocations
produce byte-identical output.
Rendering and output live in ``seqopt.render``, verify's checks in
``seqopt.verify``.  ``stirling`` diffs the live rows of the mask fold and
the reference fold, writing each mismatch line as it is found.
``--out`` naming a regular file or a new name is written through a
temporary file beside it that replaces it only once the command has
finished; a device or pipe is written in place, and a name ``open``
refuses (``''``, a directory, ``file/``) exits 3 before any work.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from itertools import chain, tee, zip_longest

from . import bounds, numbers, oracle
from .render import (_chunks, _comma_line, _exact_str, _fstr, _power_fraction_strs, _sink,
                     _write_pieces)
# Bound here for the benchmark tracer, which wraps them on seqopt.cli: the commands
# call _write and run_verification, only the tracer reads the four render names, and
# benchmarks/test_bench.py pins _TRIANGLE_FACTORY.  They go with the tracer (ROADMAP item 3).
from .render import _write, render_csv, render_json, render_plain, triangle_entries
from .verify import run_verification

_TRIANGLE_FACTORY = numbers.triangle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

__all__ = ["main"]


# ----------------------------------------------------------------- commands

def cmd_triangle(args: argparse.Namespace, out) -> int:
    # Each row's cells are taken from the live buffer before the fold resumes;
    # row_entries keeps a nonzero slot 0, so a fold fault there is printed.
    urows = numbers._unsigned_rows(args.mask, args.max_n, Decimal)
    rows = ((n, numbers.row_entries(args.mask, urow).items()) for n, urow in enumerate(urows, 1))
    _write_pieces(out, _chunks(args.fmt, args.mask, rows))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out) -> int:
    results = run_verification(args.mask, args.max_n, use_oracle=args.use_oracle,
                               budget=args.budget)
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
    _write(out, f"mask {args.mask} n {args.max_n} kind {args.kind}\n")
    _write_pieces(out, _comma_line("coefficients ", map(_exact_str, poly.coefficients)))
    if args.zeros:
        zs = numbers.poly_zeros(args.mask, args.max_n, args.kind)
        _write_pieces(out, _comma_line(
            "zeros ", ("undef" if z is None else _exact_str(z) for z in zs)))
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
    for t in bounds.tail_checks(mask, row, args.m1):
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
    # Both are live int lists indexed by m = 0..n: mask 01's support starts at 1.
    pairs = zip(numbers._unsigned_rows(numbers.Mask.stirling(), n), numbers._stirling_rows(n))
    lines = (f"MISMATCH n={nn} m={m} triangle={_exact_str(got)} reference={_exact_str(want)}\n"
             for nn, (urow, wrow) in enumerate(pairs, 1) if urow != wrow
             for m, (got, want) in enumerate(zip_longest(urow, wrow, fillvalue=0))
             if got != want)
    # Each line is written as it is found, so a failing run holds no more than a passing one.
    first = next(lines, None)
    _write_pieces(out, [f"OK: {n} rows identical\n"] if first is None else chain([first], lines))
    return EXIT_OK if first is None else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ parsing

def _mask_arg(text: str) -> numbers.Mask:
    try:
        return numbers.Mask.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _clip(text: str) -> str:
    """text, cut after 40 characters."""
    return text[:40] + "..." if len(text) > 40 else text


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

    def common(sp, run, *, mask=True, n_default=None, n_type=_positive_int):
        sp.set_defaults(run=run)
        if mask:
            sp.add_argument("--mask", type=_mask_arg, required=True,
                            help="bit string c0c1...ck, e.g. 01")
        sp.add_argument("--n", type=n_type, default=n_default, required=n_default is None,
                        dest="max_n")
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("triangle", help="print rows 1..n of the triangle")
    common(sp, cmd_triangle, n_default=50)
    sp.add_argument("--format", choices=("csv", "json", "plain"), default="plain", dest="fmt")

    sp = sub.add_parser("verify", help="run every identity check, PASS/FAIL per line")
    common(sp, cmd_verify, n_default=10)
    sp.add_argument("--oracle", action="store_true", dest="use_oracle",
                    help="also diff rows against the exhaustive enumeration")
    sp.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET,
                    help="max permutation tuples the oracle may cover, (n!)^k per row")

    sp = sub.add_parser("poly", help="expand the generating product of row n")
    common(sp, cmd_poly)
    sp.add_argument("--kind", choices=("rising", "falling"), default="rising")
    sp.add_argument("--zeros", action="store_true", help="append the exact roots")

    sp = sub.add_parser("bounds", help="upper bounds, tail and ratio report for row n")
    common(sp, cmd_bounds, n_type=_bounds_n)
    sp.add_argument("--m1", type=_m1_list, default=(1, 2, 3), help="comma-separated tail margins")

    sp = sub.add_parser("stirling", help="diff mask 01 against the classic recurrence")
    common(sp, cmd_stirling, mask=False, n_default=30)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # The pure-Python decimal multiplies through str(int), so the command runs
    # without int's digit limit; the arguments were parsed under it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        with _sink(args.out) as out:
            return args.run(args, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out is None:
            _discard_stdout()
        return EXIT_IO
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write to it.

    What stdout still buffers then cannot fail again when the interpreter
    flushes it at exit (the "Note on SIGPIPE" in Python's ``signal`` docs).
    A stdout without a descriptor, such as a test's capture, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
