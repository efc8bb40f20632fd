"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all).  Everything numeric is exact; the comparisons with e**x go through
exp_bound_holds, which decides them exactly from integer enclosures of
e**x and allows the fixed 1e-12 margin.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

from seqopt import bounds, cli, numbers, oracle, render
from seqopt.numbers import Mask

GOLDEN = Path(__file__).parent / "golden"


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def masks_with_k(k):
    return [Mask(bits) for bits in product((0, 1), repeat=k + 1)]


def all_masks(max_k):
    out = []
    for k in range(1, max_k + 1):
        out.extend(masks_with_k(k))
    return out


def test_c01_stirling_equivalence():
    t0 = time.perf_counter()
    tri = numbers.triangle(Mask.stirling(), 30)
    ref = numbers.stirling_ref(30)
    same = all(tri.row(n) == ref[n] for n in range(1, 31))
    dt = time.perf_counter() - t0
    report("C1 stirling equivalence", same and dt < 1.0, f"n <= 30, exact, {dt:.3f}s")


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    rows = 0
    for k, nmax in ((1, 6), (2, 5), (3, 4)):
        for mask in masks_with_k(k):
            tri = numbers.triangle(mask, nmax)
            for n in range(1, nmax + 1):
                ok &= oracle.histogram(mask, n).counts == tri.row(n)
                rows += 1
    dt = time.perf_counter() - t0
    report("C2 oracle equivalence", ok and dt < 60.0,
           f"{rows} rows across k <= 3, exact, {dt:.2f}s")


def test_c03_row_sums():
    ok = True
    for mask in all_masks(3):
        tri = numbers.triangle(mask, 20)
        for n in range(1, 21):
            ok &= sum(tri.row(n).values()) == factorial(n) ** mask.k
    report("C3 row sums", ok, "sum over m equals (n!)^k for n <= 20, k <= 3")


def test_c04_symmetry():
    ok = True
    for mask in all_masks(3):
        comp = mask.complement()
        for n in range(1, 21):
            for m in range(mask.offset - 1, n + mask.offset + 1):
                ok &= numbers.value(mask, n, m) == numbers.value(comp, n, n - m)
    report("C4 complement symmetry", ok, "value(C,n,m) == value(~C,n,n-m) for n <= 20")


def test_c05_explicit_sum_agreement():
    ok = True
    for mask in all_masks(3):
        for n in range(1, 11):
            for m in range(mask.offset - 1, n + mask.offset + 1):
                # explicit_value raises if its integrality assertion ever fires
                ok &= numbers.explicit_value(mask, n, m) == numbers.value(mask, n, m)
    report("C5 explicit sum agreement", ok, "subset expansion, n <= 10, k <= 3")


def test_c06_polynomial_consistency():
    ok = True
    for mask in all_masks(3):
        for n in range(1, 13):
            up = numbers.rising_poly(mask, n)
            down = numbers.falling_poly(mask, n)
            for u in range(n + 1):
                want = numbers.value(mask, n, u + mask.offset - 1) if u else 0
                ok &= up.coefficients[u] == want
                ok &= down.coefficients[u] == (-1) ** (n + u) * want
            for kind, poly in (("rising", up), ("falling", down)):
                for z in numbers.poly_zeros(mask, n, kind):
                    if z is not None:
                        ok &= poly(z) == 0
    report("C6 polynomial consistency", ok, "coefficients, sign rule, exact zeros, n <= 12")


def test_c07_upper_bound_dominance():
    ok = True
    for mask in all_masks(3):
        tri = numbers.triangle(mask, 15)
        for n in range(1, 16):
            row = bounds.ocmax_row(mask, n)
            for m in mask.support(n):
                ok &= row[m] >= tri.rows[n].get(m, 0)
    report("C7 upper bound dominance", ok, "exact rational >=, n <= 15, k <= 3")


def test_c08_tail_bounds():
    ok = True
    for mask in all_masks(3):
        for n in (5, 10, 15):
            for m1 in (1, 2, 3):
                if mask.bits[0] == 0:
                    thr = bounds.tail_threshold(mask, n, m1)
                    prob = bounds.tail_probability(mask, n, thr + mask.offset - 1)
                else:
                    thr, prob = bounds.mirrored_tail(mask, n, m1)
                ok &= 0 <= prob <= 1
                ok &= bounds.exp_bound_holds(prob, -m1)
    report("C8 tail bounds", ok,
           "mass within e^-m1 + 1e-12, both first-bit branches, n in {5,10,15}")


def test_c09_ratio_bounds():
    ok = True
    for mask in all_masks(3):
        for n in range(2, 16):
            rep = bounds.ratio_report(mask, n)
            ok &= rep.ratio >= 1
            ok &= rep.ratio_ok and rep.ratio_prime_ok
    t0 = time.perf_counter()
    cap = Fraction(17811, 10000)
    sweep_ok = all(bounds.upper_ratio(Mask.stirling(), n) <= cap for n in range(2, 201))
    dt = time.perf_counter() - t0
    report("C9 ratio bounds", ok and sweep_ok and dt < 5.0,
           f"ratio <= e^lambda for n <= 15; stirling sweep <= 1.7811 up to n=200 in {dt:.2f}s")


def test_c10_weight_properties():
    rng = random.Random(20250811)
    ok = True
    for _ in range(1000):
        k = rng.randint(1, 4)
        mask = Mask(tuple(rng.randint(0, 1) for _ in range(k + 1)))
        n = rng.randint(2, 50)
        j2 = rng.randint(2, 50)
        j1 = rng.randint(2, j2)
        ok &= numbers.f_weight(j2, mask) <= numbers.f_weight(j1, mask)
        p = prod((numbers.f_weight(j, mask) for j in range(2, n + 1)), start=Fraction(1))
        ok &= p <= n**k
        if mask.bits[0] == 1:
            ok &= numbers.f_weight(j1, mask) >= 1
    report("C10 weight properties", ok,
           "monotone, product <= n^k, floor at 1, 1000 seeded cases, exact")


def test_c11_cli_contract(capsys, tmp_path, monkeypatch):
    ok = True
    notes = []

    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    code, out = run("triangle", "--mask", "01", "--n", "4", "--format", "csv")
    ok &= code == 0 and out == (GOLDEN / "triangle_01_n4.csv").read_text()
    ok &= render.render_csv(render.parse_csv(out)) == out
    notes.append("csv golden+roundtrip")

    code, out = run("triangle", "--mask", "011", "--n", "3", "--format", "json")
    ok &= code == 0 and out == (GOLDEN / "triangle_011_n3.json").read_text()
    ok &= render.render_json(render.parse_json(out)) == out
    ok &= render.parse_json(out) == numbers.triangle(Mask.from_string("011"), 3)
    notes.append("json golden+roundtrip")

    code, out = run("poly", "--mask", "01", "--n", "3", "--zeros")
    ok &= code == 0 and out == (GOLDEN / "poly_01_n3.txt").read_text()

    code, _ = run("verify", "--mask", "011", "--n", "4", "--oracle")
    ok &= code == 0
    code, _ = run("stirling", "--n", "12")
    ok &= code == 0

    ok &= run("triangle", "--mask", "XY", "--n", "3")[0] == 2
    ok &= run("triangle", "--mask", "01", "--n", "3",
              "--out", "/no-such-directory/t.csv")[0] == 3

    # The first nonzero slot of row 5 of mask 01's fold gains 1.
    real = numbers._unsigned_rows

    def corrupting(mask, max_n, num=int):
        for n, urow in enumerate(real(mask, max_n, num), 1):
            if n == 5 and mask == Mask.stirling():
                u = next(u for u, c in enumerate(urow) if c)
                urow = [*urow[:u], urow[u] + 1, *urow[u + 1:]]
            yield urow

    monkeypatch.setattr(numbers, "_unsigned_rows", corrupting)
    ok &= run("verify", "--mask", "01", "--n", "5")[0] == 1
    monkeypatch.undo()
    notes.append("exit codes 0/1/2/3")

    report("C11 cli contract", ok, ", ".join(notes))
