"""CLI contract tests: formats, round-trips, exit codes."""

import decimal
import hashlib
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import product
from math import factorial, floor, isqrt, log10
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import seqopt.cli as cli
from seqopt import bounds, numbers, oracle, render
from seqopt.numbers import Mask, triangle

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

MASKS_K_UP_TO_3 = [Mask(bits) for k in (1, 2, 3) for bits in product((0, 1), repeat=k + 1)]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def editing_rows(monkeypatch, mask, target, edit):
    """Patch numbers._unsigned_rows: row ``target`` of ``mask``'s fold becomes ``edit(row)``.

    ``edit`` returns a copy: writing into the fold's live row would change
    every row after it.  Other masks' folds, such as the complement fold
    of ``verify``, pass unchanged, and ``num`` passes through, so the
    Decimal fold of ``triangle`` is edited too.
    """
    real = numbers._unsigned_rows

    def rows(fold_mask, max_n, num=int):
        for n, urow in enumerate(real(fold_mask, max_n, num), 1):
            yield edit(urow) if n == target and fold_mask == mask else urow

    monkeypatch.setattr(numbers, "_unsigned_rows", rows)


def row_slots(mask, n, cells):
    """Unsigned row n as a slot list, from its entries ``{m: value}``; inverts row_entries.

    Entry m goes to slot m - offset + 1.  An entry that no row n holds,
    one off the support or one that is not positive, goes past slot n,
    so the list is longer than n + 1 exactly when ``cells`` holds one.
    """
    row = [0] * (n + 1)
    for m, v in cells.items():
        u = m - mask.offset + 1
        if 1 <= u <= n and v > 0:
            row[u] = v
        else:
            row.append(v)
    return row


def changing_rows(monkeypatch, mask, target, change):
    """editing_rows, with change(cells) editing row ``target``'s entries {m: value} in place.

    The edited row is row_slots(mask, target, cells): an entry no row holds
    lands past slot ``target``, where verify's support rule refuses it.
    """
    def edit(urow):
        cells = numbers.row_entries(mask, urow)
        change(cells)
        return row_slots(mask, target, cells)

    editing_rows(monkeypatch, mask, target, edit)


def plus_one(cells):
    """The first entry of a row gains 1."""
    cells[next(iter(cells))] += 1


class TestTriangleCommand:
    def test_csv_contains_known_entry(self, capsys):
        code, out, _ = run(capsys, "triangle", "--mask", "01", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,value"
        assert "4,2,11" in lines

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "triangle", "--mask", "01", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["1,1,1"]

    def test_csv_golden(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "01", "--n", "4", "--format", "csv")
        assert out == (GOLDEN / "triangle_01_n4.csv").read_text()

    def test_json_golden(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "011", "--n", "3", "--format", "json")
        assert out == (GOLDEN / "triangle_011_n3.json").read_text()

    def test_csv_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "101", "--n", "6", "--format", "csv")
        entries = render.parse_csv(out)
        assert render.render_csv(entries) == out
        assert entries == render.triangle_entries(triangle(Mask.from_string("101"), 6))

    def test_csv_cut_mid_entry_is_rejected(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "101", "--n", "6", "--format", "csv")
        for cut in (out[:-1], out[:-2]):
            with pytest.raises(ValueError, match="newline"):
                render.parse_csv(cut)

    def test_csv_without_its_header_is_rejected(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "101", "--n", "3", "--format", "csv")
        for text in (out.split("\n", 1)[1], ""):
            with pytest.raises(ValueError, match="^missing n,m,value header$"):
                render.parse_csv(text)

    def test_json_k_that_disagrees_with_its_mask_is_rejected(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "101", "--n", "3", "--format", "json")
        data = json.loads(out)
        data["k"] = 3
        with pytest.raises(ValueError, match="k field 3 does not match mask 101"):
            render.parse_json(json.dumps(data))

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run(capsys, "triangle", "--mask", "10", "--n", "5", "--format", "json")
        tri = render.parse_json(out)
        assert tri == triangle(Mask.from_string("10"), 5)
        assert render.render_json(tri) == out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(capsys, "triangle", "--mask", "01", "--n", "3",
                           "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "3,2,3" in target.read_text()

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_out_through_a_symlink_replaces_the_file_it_names(self, capsys, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, _, _ = run(capsys, "triangle", "--mask", "01", "--n", "2", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_text() == "mask 01 k 1\nn=1  1:1\nn=2  1:1  2:1\n"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]

    def test_out_keeps_the_replaced_files_permission_bits(self, capsys, tmp_path):
        target = tmp_path / "t.txt"
        target.write_text("old")
        for mode in (0o600, 0o640):
            os.chmod(target, mode)
            code, _, _ = run(capsys, "triangle", "--mask", "01", "--n", "2",
                             "--out", str(target))
            assert code == 0
            assert target.read_text().startswith("mask 01 k 1\n")
            assert stat.S_IMODE(os.stat(target).st_mode) == mode

    def test_identical_config_gives_identical_bytes(self, capsys):
        _, first, _ = run(capsys, "triangle", "--mask", "011", "--n", "6", "--format", "json")
        _, second, _ = run(capsys, "triangle", "--mask", "011", "--n", "6", "--format", "json")
        assert first == second

    def test_failed_stream_leaves_out_target_unchanged(self, capsys, monkeypatch, tmp_path):
        real_rows = numbers._unsigned_rows

        def failing_rows(mask, max_n, num=int):
            rows = real_rows(mask, max_n, num)
            yield next(rows)
            yield next(rows)
            raise RuntimeError("row generator failed")

        monkeypatch.setattr(numbers, "_unsigned_rows", failing_rows)
        target = tmp_path / "t.csv"
        target.write_text("old contents\n")
        with pytest.raises(RuntimeError, match="row generator failed"):
            cli.main(["triangle", "--mask", "01", "--n", "6", "--format", "csv",
                      "--out", str(target)])
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_to_a_pipe_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run(capsys, "triangle", "--mask", "01", "--n", "4",
                             "--format", "csv", "--out", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data.decode() == (GOLDEN / "triangle_01_n4.csv").read_text()

    def test_usage_error_leaves_out_target_unchanged(self, capsys, tmp_path):
        target = tmp_path / "b.txt"
        target.write_text("old contents\n")
        code, _, _ = run(capsys, "bounds", "--mask", "01", "--n", "1", "--out", str(target))
        assert code == 2
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["b.txt"]

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "triangle", "--mask", "01", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["mask 01 k 1", "n=1  1:1", "n=2  1:1  2:1"]


@pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
class TestStreamedTriangleMatchesRenderers:
    """The streamed ``triangle`` output equals the whole-triangle renderers."""

    def test_csv(self, capsys, mask):
        for n in range(1, 16):
            _, out, _ = run(capsys, "triangle", "--mask", str(mask), "--n", str(n),
                            "--format", "csv")
            assert out == cli.render_csv(cli.triangle_entries(triangle(mask, n)))

    def test_json(self, capsys, mask):
        for n in range(1, 16):
            _, out, _ = run(capsys, "triangle", "--mask", str(mask), "--n", str(n),
                            "--format", "json")
            tri = triangle(mask, n)
            assert out == cli.render_json(tri)
            payload = {"mask": str(mask), "k": mask.k,
                       "rows": {str(r): {str(m): str(v) for m, v in sorted(tri.rows[r].items())}
                                for r in range(1, n + 1)}}
            assert out == json.dumps(payload, indent=2) + "\n"

    def test_plain(self, capsys, mask):
        for n in range(1, 16):
            _, out, _ = run(capsys, "triangle", "--mask", str(mask), "--n", str(n))
            assert out == cli.render_plain(triangle(mask, n))


@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
@pytest.mark.parametrize("text, cell", [("011", "3,0,1"), ("100", "3,-1,1")])
def test_triangle_prints_a_raised_slot_zero(capsys, monkeypatch, text, cell, fmt):
    # Slot 0 lies below the support, where no correct row holds an entry;
    # a fold that writes there shows as the cell m = offset - 1.
    mask = Mask.from_string(text)
    tri = triangle(mask, 5)
    n, m, v = map(int, cell.split(","))
    tri.rows[n] = {m: v, **tri.rows[n]}
    editing_rows(monkeypatch, mask, n, lambda urow: [urow[0] + v, *urow[1:]])
    code, out, _ = run(capsys, "triangle", "--mask", text, "--n", "5", "--format", fmt)
    assert code == 0
    render = {"csv": lambda t: cli.render_csv(cli.triangle_entries(t)),
              "json": cli.render_json, "plain": cli.render_plain}[fmt]
    assert out == render(tri)
    if fmt == "csv":
        assert cell in out.splitlines()


def test_benchmark_trace_bindings_resolve():
    # The benchmark's tracer wraps layer functions by name; a renamed or
    # deleted one makes every traced invocation fail.
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import seqopt.cli, tracer; tracer.install(tracer.Tracer(0))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "benchmarks")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["triangle", "verify", "poly", "bounds", "stirling"])
def test_the_parser_dispatches_each_subcommand_to_its_handler(command):
    argv = [command, "--n", "3"] + ([] if command == "stirling" else ["--mask", "01"])
    assert cli.build_parser().parse_args(argv).run is getattr(cli, f"cmd_{command}")


def _child(argv, stdout, buffered):
    """``python -m seqopt.cli *argv`` started with the given stdout and a stderr pipe.

    Its stdout is block-buffered, as without PYTHONUNBUFFERED, unless
    ``buffered`` is false.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "seqopt.cli", *argv], env=env, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


class TestExitCodes:
    def test_bad_mask_is_usage_error(self, capsys):
        code, _, err = run(capsys, "triangle", "--mask", "XY", "--n", "3")
        assert code == 2
        assert "mask" in err

    def test_short_mask_is_usage_error(self, capsys):
        assert run(capsys, "triangle", "--mask", "1", "--n", "3")[0] == 2

    def test_nonpositive_n_is_usage_error(self, capsys):
        assert run(capsys, "triangle", "--mask", "01", "--n", "0")[0] == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_io_failure(self, capsys):
        code, _, err = run(capsys, "triangle", "--mask", "01", "--n", "3",
                           "--out", "/no-such-directory/t.csv")
        assert code == 3
        assert "error" in err
        assert "'/no-such-directory/t.csv'" in err
        assert ".tmp" not in err

    def test_out_of_memory_is_an_io_error(self, capsys, monkeypatch, tmp_path):
        # Exit 1 means a check failed; a MemoryError is one line and exit 3,
        # and the --out file it was writing is left as it was.
        def exhausted(j, vec):
            raise MemoryError

        monkeypatch.setattr(numbers, "f_weight", exhausted)
        target = tmp_path / "verify.txt"
        target.write_text("old contents\n")
        code, out, err = run(capsys, "verify", "--mask", "01", "--n", "5", "--out", str(target))
        assert (code, out, err) == (3, "", "error: out of memory\n")
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["verify.txt"]

    # Buffered stdout, as without PYTHONUNBUFFERED, fails only when flushed.
    # That flush is the command's own, so the failure is one error line and
    # exit 3, not the interpreter's "Exception ignored" report at exit.
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_stdout_on_a_full_device_is_an_io_error(self, buffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        with open("/dev/full", "w") as full:
            with _child(["stirling", "--n", "5"], full, buffered) as proc:
                err = proc.stderr.read()
        assert proc.returncode == 3
        assert re.fullmatch(r"error: \[Errno 28\] [^\n]*\n", err)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_stdout_to_a_closed_pipe_is_an_io_error(self, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with _child(["stirling", "--n", "5"], write_end, buffered) as proc:
                err = proc.stderr.read()
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert re.fullmatch(r"error: \[Errno 32\] [^\n]*\n", err)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_stdout_closed_mid_command_is_an_io_error(self, buffered):
        # As `| head -1`: the reader takes one line of many megabytes and goes.
        argv = ["triangle", "--mask", "011", "--n", "300", "--format", "csv"]
        with _child(argv, subprocess.PIPE, buffered) as proc:
            assert proc.stdout.readline() == "n,m,value\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 3
        assert re.fullmatch(r"error: \[Errno 32\] [^\n]*\n", err)

    def test_m1_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--mask", "01", "--n", "3", "--m1", "0")
        assert code == 2
        assert out == ""
        assert "every m1 must be >= 1" in err

    def test_temporary_name_collision_is_an_io_error_naming_out(self, capsys, monkeypatch,
                                                                tmp_path):
        # The temporary name is taken with open(..., "x"): a file already
        # there is neither overwritten nor deleted, and the old file stays.
        target = tmp_path / "t.txt"
        target.write_bytes(b"old bytes\n")
        monkeypatch.setattr(os, "urandom", lambda size: bytes(range(size)))
        tmp = Path(f"{os.path.realpath(target)}.{bytes(range(6)).hex()}.tmp")
        tmp.write_bytes(b"colliding bytes\n")
        code, out, err = run(capsys, "stirling", "--n", "3", "--out", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f": {str(target)!r}\n")
        assert ".tmp" not in err
        assert target.read_bytes() == b"old bytes\n"
        assert tmp.read_bytes() == b"colliding bytes\n"
        assert sorted(os.listdir(tmp_path)) == sorted(["t.txt", tmp.name])

    def test_out_naming_the_working_directory_is_an_io_error(self, capsys, monkeypatch,
                                                             tmp_path):
        # --out '' resolves to the working directory, which no file can
        # replace; the error names the path as given and no temporary file.
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        code, out, err = run(capsys, "stirling", "--n", "3", "--out", "")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.endswith(": ''\n")
        assert ".tmp" not in err and " -> " not in err
        assert os.listdir(tmp_path) == ["sub"]
        assert os.listdir(tmp_path / "sub") == []

    @pytest.mark.parametrize("name", ["", "new/", "keep.txt/", "keep.txt/.", "missing/../x"])
    def test_out_that_open_refuses_exits_before_the_command_runs(self, capsys, monkeypatch,
                                                                 tmp_path, name):
        # Each name fails in open() as given, so the command never runs and
        # nothing under tmp_path is created, changed or deleted.
        (tmp_path / "sub").mkdir()
        (tmp_path / "keep.txt").write_bytes(b"known bytes\n")
        monkeypatch.chdir(tmp_path / "sub" if name == "" else tmp_path)
        calls = []
        monkeypatch.setattr(cli, "cmd_stirling", lambda args, out: calls.append(args) or 0)

        def tree():
            return {str(p): p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        code, out, err = run(capsys, "stirling", "--n", "3", "--out", name)
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"error: [^\n]*: " + re.escape(repr(name)) + "\n", err)
        assert ".tmp" not in err
        assert calls == []
        assert tree() == before

    def test_corrupted_triangle_fails_verification(self, capsys, monkeypatch):
        changing_rows(monkeypatch, Mask.stirling(), 6, plus_one)
        code, out, _ = run(capsys, "verify", "--mask", "01", "--n", "6")
        assert code == 1
        assert "FAIL" in out


class TestVerifyCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--mask", "01", "--n", "8")
        assert code == 0
        assert re.search(r"PASS\s+row-sums", out)
        assert re.search(r"PASS\s+stirling-reference", out)
        assert "result OK" in out
        assert "FAIL" not in out

    def test_oracle_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--mask", "011", "--n", "4", "--oracle")
        assert code == 0
        assert re.search(r"PASS\s+oracle", out)

    def test_oracle_budget_skip_warns_but_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--mask", "011", "--n", "4",
                           "--oracle", "--budget", "2")
        assert code == 0
        assert "warning" in out
        assert re.search(r"(PASS|SKIP)\s+oracle", out)

    def test_oracle_budget_allowing_no_row_skips(self):
        results = cli.run_verification(Mask.from_string("011"), 4, use_oracle=True, budget=0)
        assert results[-1] == (
            "oracle", "SKIP", "warning: budget 0 allows no row (n=1 already needs 1 tuples)")

    def test_oracle_names_the_first_disagreeing_row(self, monkeypatch):
        mask = Mask.from_string("011")
        changing_rows(monkeypatch, mask, 4, plus_one)
        results = cli.run_verification(mask, 4, use_oracle=True)
        assert results[-1] == ("oracle", "FAIL", "exhaustive histogram disagrees at n=4")

    @pytest.mark.parametrize("text", ["01", "011", "10", "1001"])
    def test_oracle_cell_above_the_support_fails(self, monkeypatch, text):
        # No row n holds an entry at m = n + offset, so a histogram with one
        # there disagrees with every fold row.
        real = oracle.histogram

        def histogram(mask, n, budget=oracle.DEFAULT_BUDGET):
            counts = real(mask, n, budget).counts
            return oracle.Histogram({**counts, n + mask.offset: 1})

        monkeypatch.setattr(oracle, "histogram", histogram)
        results = cli.run_verification(Mask.from_string(text), 4, use_oracle=True)
        assert results[-1] == ("oracle", "FAIL", "exhaustive histogram disagrees at n=1")

    @pytest.mark.parametrize("text", ["01", "011", "10", "1001"])
    def test_oracle_trailing_zero_slot_fails(self, monkeypatch, text):
        # A zero slot past slot n holds no entry, so only the row's length
        # tells the row from the histogram.
        mask = Mask.from_string(text)
        editing_rows(monkeypatch, mask, 3, lambda urow: [*urow, 0])
        results = cli.run_verification(mask, 4, use_oracle=True)
        assert results[-1] == ("oracle", "FAIL", "exhaustive histogram disagrees at n=3")

    def test_subset_limit_is_not_an_option(self, capsys):
        # The explicit-sum cap is numbers.DEFAULT_SUBSET_LIMIT, not a setting.
        code, out, err = run(capsys, "verify", "--mask", "01", "--n", "5", "--subset-limit", "5")
        assert code == 2
        assert out == ""
        assert "--subset-limit" in err

    def test_non_stirling_mask_has_no_reference_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--mask", "10", "--n", "6")
        assert code == 0
        assert "stirling-reference" not in out


class TestVerifyGoldens:
    """Byte-identical verify reports, including degenerate and repeated-root masks."""

    @pytest.mark.parametrize("argv, golden", [
        (("--mask", "011", "--n", "12", "--oracle"), "verify_011_n12_oracle.txt"),
        (("--mask", "11", "--n", "8"), "verify_11_n8.txt"),
        (("--mask", "000", "--n", "6"), "verify_000_n6.txt"),
        # Rows of 111 hold a single nonzero entry, (n!)^2 at m = n.
        (("--mask", "111", "--n", "14"), "verify_111_n14.txt"),
        # Past the subset cap, so explicit-sum stops at n = 12.
        (("--mask", "1001", "--n", "13", "--oracle"), "verify_1001_n13_oracle.txt"),
    ], ids=["011-n12-oracle", "11-n8", "000-n6", "111-n14", "1001-n13-oracle"])
    def test_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    # Exit code and stdout SHA-256 of every mask with k <= 3 at n in
    # {1, 2, 3, 7, 13, 25}, and with --oracle at n in {1, 2, 3, 7}.
    @pytest.mark.parametrize("argv, want", json.loads(
        (GOLDEN / "verify_k3_digests.json").read_text()).items())
    def test_digest_for_every_mask_with_k_up_to_3(self, capsys, argv, want):
        code, out, _ = run(capsys, "verify", *argv.split())
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == want


# Exit code and SHA-256 of the --out file of commands at sizes the other
# tests do not reach (digests recorded with Python 3.11.7): the renderer's
# divided denominator step (bounds 1010, 0101), both tail branches (bounds
# 0111, 1000), verify at n = 160 and at 01 n = 300, mask 000's constant
# factors, zero cofactors and a zero lambda (verify 111, bounds 000), the
# oracle past its default budget, and unit-weight steps in Decimal
# (triangle 001, 110).
@pytest.mark.parametrize("argv, want", json.loads(
    (GOLDEN / "cli_digests.json").read_text()).items())
def test_out_file_digest(tmp_path, argv, want):
    path = tmp_path / "out"
    code = cli.main([*argv.split(), "--out", str(path)])
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    assert [code, digest.hexdigest()] == want


@pytest.mark.parametrize("argv, steps", [
    ("bounds --mask 01 --n 40", 39),
    ("bounds --mask 10 --n 40 --m1 1,2,3,4", 39),
    ("verify --mask 011 --n 40", 78),
    ("verify --mask 011 --n 8 --oracle", 14),
    ("poly --mask 011 --n 40 --zeros", 39),
    ("stirling --n 40", 39),
    ("triangle --mask 011 --n 40 --format json", 39),
])
def test_each_command_folds_each_row_once(capsys, monkeypatch, argv, steps):
    # verify folds the mask and its complement; every other command one mask.
    calls = []
    step = numbers._row_step

    def counting_step(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(numbers, "_row_step", counting_step)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert len(calls) == steps


def check_status(results, name):
    return next(status for check, status, _ in results if check == name)


class TestPolynomialsCheck:
    """The polynomials check reads the triangle under test, so it sees corruption."""

    @pytest.mark.parametrize("row", [6, 3], ids=["top-row", "middle-row"])
    @pytest.mark.parametrize("text", ["01", "011", "11", "111", "00", "000", "1001"])
    def test_single_entry_corruption_fails(self, monkeypatch, text, row):
        mask = Mask.from_string(text)
        changing_rows(monkeypatch, mask, row, plus_one)
        results = cli.run_verification(mask, 6)
        assert check_status(results, "polynomials") == "FAIL"

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_clean_triangle_passes(self, mask):
        assert check_status(cli.run_verification(mask, 10), "polynomials") == "PASS"

    @pytest.mark.parametrize("slot", [0, 3, 5], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["rising", "falling"])
    @pytest.mark.parametrize("text", ["01", "011", "11", "000", "1001"])
    def test_one_perturbed_root_fails(self, monkeypatch, text, kind, slot):
        real = numbers.poly_zeros

        def poly_zeros(mask, n, which="rising"):
            zeros = real(mask, n, which)
            if which == kind:
                z = zeros[slot]
                zeros[slot] = Fraction(1, 7) if z is None else z + Fraction(1, 7)
            return zeros

        monkeypatch.setattr(numbers, "poly_zeros", poly_zeros)
        results = cli.run_verification(Mask.from_string(text), 6)
        assert check_status(results, "polynomials") == "FAIL"


class TestExplicitSumCheck:
    """explicit-sum compares the subset expansion with the triangle under test."""

    @pytest.mark.parametrize("row", [3, 12])
    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_plus_one_fails(self, monkeypatch, mask, row):
        changing_rows(monkeypatch, mask, row, plus_one)
        results = cli.run_verification(mask, 12)
        assert check_status(results, "explicit-sum") == "FAIL"

    def test_non_integral_weight_raises(self, monkeypatch):
        real = numbers.f_weight
        # (j-1)**k times this weight is 1/7 off an integer.
        monkeypatch.setattr(numbers, "f_weight",
                            lambda j, vec: real(j, vec) + Fraction(1, 7 * (j - 1) ** vec.k))
        with pytest.raises(RuntimeError, match="not an integer"):
            numbers.explicit_row(Mask.from_string("011"), 4)

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_matches_the_recurrence(self, mask):
        for n in range(1, 11):
            assert numbers.explicit_row(mask, n) == list(numbers._row(mask, n))


def near_pow2(lo, hi):
    """2**j - 1, 2**j or 2**j + 1 for j in lo..hi: the edges of a bit length."""
    return st.integers(lo, hi).flatmap(lambda j: st.sampled_from([2**j - 1, 2**j, 2**j + 1]))


def covers(a, b, p, q, v, s_max):
    """bounds.ocmax_covers for lam = a/b with the pair (p, q) and v at every s <= s_max."""
    return list(bounds.ocmax_covers(Fraction(a, b), [(p, q)] * (s_max + 1), [v] * (s_max + 1)))


def products(a, b, p, q, v, s_max):
    """The comparisons ocmax_covers decides, a**s * p >= v * b**s * q for s <= s_max."""
    return [a**s * p >= v * b**s * q for s in range(s_max + 1)]


class TestCovers:
    """ocmax_covers decides a**s * p >= v * b**s * q, mostly from bit-length bounds alone.

    lam = a/b is reduced by the Fraction, which divides both sides by the
    same power of the gcd, so the unreduced products are the reference.
    """

    @given(near_pow2(0, 80), near_pow2(0, 80), near_pow2(1, 80), near_pow2(1, 80),
           near_pow2(0, 80), st.integers(0, 4))
    @example(0, 2**60, 1, 1, 1, 2)
    @example(2**60, 0, 1, 1, 1, 2)
    @example(0, 0, 1, 1, 0, 2)
    def test_equals_the_product_comparison(self, a, p, b, q, v, s_max):
        assert covers(a, b, p, q, v, s_max) == products(a, b, p, q, v, s_max)

    @given(st.integers(1, 90), st.integers(1, 60), st.integers(1, 90), st.integers(1, 60),
           st.integers(1, 4), st.integers(-4, 4),
           st.lists(st.integers(-1, 1), min_size=5, max_size=5))
    def test_equals_the_product_comparison_near_equal_lengths(self, ja, jp, jb, jv, s, d,
                                                              nudge):
        # q's bit length is chosen so that the bit lengths at index s land on
        # either side of the threshold where the bit test gives way to the
        # products; a and b run past 64 bits, where their bounds are inexact.
        jq = max(1, s * ja + jp - s * jb - jv + d)
        a, p, b, q, v = (2**j + e for j, e in zip((ja, jp, jb, jq, jv), nudge))
        assert covers(a, b, p, q, v, s) == products(a, b, p, q, v, s)

    def test_smallest_a_against_largest_v_b_fails(self):
        # At s = 1, A = 2**20 with bits 11 + 11 = 22; v * B = 127**3 > A with
        # bits 21.  A PASS slack of 1 bit, la - 1 >= lb, would pass it.
        assert covers(2**10, 127, 2**10, 127, 127, 1) == [False, False]

    def test_upper_bound_of_b_is_needed(self):
        # b = T * 2**10 + 1023 with T = isqrt(2**127): b**2 has 148 bits, one
        # more than the lower bound from T**2.  With A = 2**547 and v, q
        # just under 2**200, v * b**2 * q exceeds A, and only b's upper bound
        # keeps the bit test from passing it.
        b = isqrt(2**127) << 10 | 2**10 - 1
        a, p, q = 2, 2**545, 2**200 - 1
        assert a**2 * p < q * b**2 * q
        assert covers(a, b, p, q, q, 2) == products(a, b, p, q, q, 2) == [True, True, False]

    def test_lower_bound_of_a_is_needed(self):
        # T**5 < 2**318 <= (T+1)**5 for this 64-bit T, so with a = T * 2**8
        # a**5 has 358 bits, one less than the upper bound from (T+1)**5.
        # b's top 64 bits are 2**64 - 2, so b**5 is short of 2**360 by
        # about 5 * 2**-64 of it, while a**5 is short of 2**358 by more:
        # v * b**5 * q then exceeds A = a**5 * 2**602 with 960 bits on
        # either side, and only a's lower bound keeps the bit test from
        # passing it.
        t = 13980017795349537628
        assert t.bit_length() == 64 and t**5 < 2**318 <= (t + 1) ** 5
        a, b, p, q = t << 8, (2**64 - 2) << 8 | 2**8 - 1, 2**602, 2**300 - 1
        assert covers(a, b, p, q, q, 5) == products(a, b, p, q, q, 5) == [True] * 5 + [False]

    def test_zero_factors(self):
        assert covers(0, 1, 2**100, 1, 1, 1) == [True, False]
        assert covers(2**100, 1, 0, 1, 1, 1) == [False, False]
        assert covers(0, 2**100, 0, 2**100, 0, 1) == [True, True]


class TestDominanceCheck:
    """upper-bound-dominance compares the integer pairs with the triangle under test.

    ocmax is tight at the bottom of the support and the complement's bound
    at the top, so one more there must fail the check.
    """

    @staticmethod
    def plus_one_at_either_end(monkeypatch, mask, row, max_n):
        for m in (mask.offset, row - 1 + mask.offset):
            def change(cells, m=m):
                cells[m] = cells.get(m, 0) + 1

            changing_rows(monkeypatch, mask, row, change)
            results = cli.run_verification(mask, max_n)
            monkeypatch.undo()
            assert check_status(results, "upper-bound-dominance") == "FAIL", m

    @pytest.mark.parametrize("row", [3, 6])
    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_plus_one_at_either_end_fails(self, monkeypatch, mask, row):
        self.plus_one_at_either_end(monkeypatch, mask, row, 6)

    def test_plus_one_at_either_end_fails_past_64_bits(self, monkeypatch):
        # At row 60 of mask 01, lam's numerator and denominator both exceed
        # 64 bits, so the bit-length bounds of their powers are inexact.
        mask = Mask.stirling()
        lam = bounds.h_dot(60, mask)
        assert min(lam.numerator, lam.denominator).bit_length() > 64
        self.plus_one_at_either_end(monkeypatch, mask, 60, 60)

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_clean_triangle_passes_every_check(self, mask):
        statuses = {name: status for name, status, _ in cli.run_verification(mask, 10)}
        assert set(statuses.values()) == {"PASS"}, statuses


class TestTailBoundsCheck:
    """tail-bounds reads row max_n of the triangle under test."""

    @pytest.mark.parametrize("text, max_n", [("01", 60), ("10", 60), ("011", 40)])
    def test_entry_of_the_whole_row_mass_in_the_tail_fails(self, monkeypatch, text, max_n):
        # An entry of (n!)**k alone makes a tail mass of at least 1: the top
        # entry for first bit 0, the bottom one for the mirrored branch.  The
        # thresholds stay inside the support at these n.
        mask = Mask.from_string(text)
        m = max_n - 1 + mask.offset if mask.bits[0] == 0 else mask.offset

        def change(cells):
            cells[m] = factorial(max_n) ** mask.k

        changing_rows(monkeypatch, mask, max_n, change)
        results = cli.run_verification(mask, max_n)
        assert check_status(results, "tail-bounds") == "FAIL"


class TestHarmonicDotCheck:
    def test_one_running_sum_off_fails(self, monkeypatch):
        real = bounds.h_dots

        def h_dots(mask, max_n):
            for n, h in enumerate(real(mask, max_n), 1):
                yield h + Fraction(1, 10**6) if n == 4 else h

        monkeypatch.setattr(bounds, "h_dots", h_dots)
        results = cli.run_verification(Mask.from_string("011"), 6)
        assert check_status(results, "harmonic-dot") == "FAIL"


class TestRowChecks:
    """row-sums, complement-symmetry, support and stirling-reference read the triangle under test."""

    @staticmethod
    def verify_changed(monkeypatch, text, row, change):
        """run_verification at n = 6 with change(mask, cells) applied to row ``row``."""
        mask = Mask.from_string(text)
        changing_rows(monkeypatch, mask, row, lambda cells: change(mask, cells))
        return cli.run_verification(mask, 6)

    @pytest.mark.parametrize("row", [6, 3], ids=["top-row", "middle-row"])
    @pytest.mark.parametrize("text", ["01", "011", "10", "1001", "111", "000"])
    def test_plus_one_fails(self, monkeypatch, text, row):
        results = self.verify_changed(monkeypatch, text, row, lambda mask, cells: plus_one(cells))
        assert check_status(results, "row-sums") == "FAIL"
        assert check_status(results, "complement-symmetry") == "FAIL"
        if text == "01":
            assert check_status(results, "stirling-reference") == "FAIL"

    @pytest.mark.parametrize("where", ["below", "above", "zero"])
    @pytest.mark.parametrize("row", [6, 3], ids=["top-row", "middle-row"])
    @pytest.mark.parametrize("text", ["01", "011", "10", "1001", "111", "000"])
    def test_entry_off_the_support_fails(self, monkeypatch, text, row, where):
        # An entry one below or one above the support [offset, row - 1 +
        # offset], or a stored entry of zero inside it.
        def misplace(mask, cells):
            if where == "zero":
                cells[next(iter(cells))] = 0
            else:
                cells[mask.offset - 1 if where == "below" else row + mask.offset] = 1

        results = self.verify_changed(monkeypatch, text, row, misplace)
        assert check_status(results, "support") == "FAIL"


def negate_first_nonzero(urow):
    u = next(u for u, c in enumerate(urow) if c)
    return [*urow[:u], -urow[u], *urow[u + 1:]]


class TestFoldSlotChecks:
    """The row checks read each fold's slot list whole, slot 0 and length included.

    verify folds the mask and its complement through the one function
    numbers._unsigned_rows, so the wrapper edits row 13 of one fold only,
    picked by its mask.
    """

    EDITS = {
        "slot-0": lambda urow: [urow[0] + 1, *urow[1:]],
        "appended": lambda urow: [*urow, 1],
        "dropped": lambda urow: urow[:-1],
        "negated": negate_first_nonzero,
    }

    @classmethod
    def verify_edited(cls, monkeypatch, text, fold, edit):
        """run_verification of mask ``text`` at n = 13, row 13 of ``fold``'s fold edited."""
        mask = Mask.from_string(text)
        editing_rows(monkeypatch, mask if fold == "mask" else mask.complement(), 13,
                     cls.EDITS[edit])
        return cli.run_verification(mask, 13)

    @pytest.mark.parametrize("edit", ["slot-0", "appended", "dropped"])
    @pytest.mark.parametrize("text", ["01", "011", "10", "1001"])
    def test_complement_fold_edit_fails_symmetry(self, monkeypatch, text, edit):
        results = self.verify_edited(monkeypatch, text, "complement", edit)
        assert check_status(results, "complement-symmetry") == "FAIL"

    @pytest.mark.parametrize("text", ["01", "011", "10", "1001"])
    def test_mask_fold_slot_zero_fails(self, monkeypatch, text):
        results = self.verify_edited(monkeypatch, text, "mask", "slot-0")
        for name in ("row-sums", "support", "polynomials"):
            assert check_status(results, name) == "FAIL", name

    @pytest.mark.parametrize("edit", ["appended", "dropped", "negated"])
    @pytest.mark.parametrize("text", ["01", "011", "10", "1001"])
    def test_mask_fold_edit_fails_support(self, monkeypatch, text, edit):
        results = self.verify_edited(monkeypatch, text, "mask", edit)
        assert check_status(results, "support") == "FAIL"


class TestRowSlots:
    """row_slots, the fault injector's inverse, lays a row's {m: value} entries onto slots."""

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_inverts_row_entries(self, mask):
        for n, urow in enumerate(numbers._unsigned_rows(mask, 12), 1):
            assert row_slots(mask, n, numbers.row_entries(mask, urow)) == urow

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_row_entries_of_a_correct_row_lie_on_the_support(self, mask):
        for n, urow in enumerate(numbers._unsigned_rows(mask, 12), 1):
            assert set(numbers.row_entries(mask, urow)) <= set(mask.support(n)), n

    @pytest.mark.parametrize("where", ["below", "above", "zero", "negative"])
    def test_entry_no_row_holds_breaks_the_support_rule(self, where):
        n = 6
        for mask in MASKS_K_UP_TO_3:
            cells = numbers.row_entries(mask, numbers._row(mask, n))
            first = next(iter(cells))
            if where == "below":
                cells[mask.offset - 1] = 1
            elif where == "above":
                cells[n + mask.offset] = 1
            else:
                cells[first] = 0 if where == "zero" else -cells[first]
            row = row_slots(mask, n, cells)
            # verify's support rule, on a slot list.
            assert not (len(row) == n + 1 and row[0] == 0 and min(row) >= 0), mask

    def test_emptied_row_fails_rather_than_raises(self, monkeypatch):
        mask = Mask.from_string("011")
        changing_rows(monkeypatch, mask, 3, dict.clear)
        results = cli.run_verification(mask, 6)
        assert check_status(results, "row-sums") == "FAIL"
        assert check_status(results, "complement-symmetry") == "FAIL"


def test_verify_holds_less_than_one_triangle():
    # verify reads one row pair at a time, so its peak stays below the size
    # of one whole triangle of the same mask and n.
    mask = Mask.stirling()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tri = triangle(mask, 200)
        one_triangle = tracemalloc.get_traced_memory()[0] - before
        del tri
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli.run_verification(mask, 200)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < one_triangle, (peak, one_triangle)


def traced_peak(tmp_path, *argv) -> int:
    """Peak bytes that tracemalloc sees while ``seqopt *argv --out FILE`` runs.

    A small run of the same command goes first, so that what a process
    allocates once (argparse, the power cache) is not counted.
    """
    out = str(tmp_path / "out")
    cli.main([argv[0], "--mask", "01", "--n", "5", "--out", out])
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", out]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_triangle_holds_no_row_text_whole(tmp_path, fmt):
    # triangle writes each row's cells in batches of a bounded size, so its
    # peak stays near the fold's one Decimal row; holding row n's text
    # whole, as cell strings and as their join, peaked at 7 to 9 times it.
    mask, n = Mask.from_string("011"), 300
    for row in numbers._unsigned_rows(mask, n, decimal.Decimal):
        pass
    row_bytes = sys.getsizeof(row) + sum(map(sys.getsizeof, row))
    peak = traced_peak(tmp_path, "triangle", "--mask", str(mask), "--n", str(n), "--format", fmt)
    assert peak < 4 * row_bytes, (peak, row_bytes)


@pytest.mark.parametrize("kind", ["rising", "falling"])
def test_poly_holds_no_line_whole(tmp_path, kind):
    # poly writes its coefficient and zero lines piece by piece; joining,
    # prefixing and joining them again peaked at about 8 times the row's ints.
    mask, n = Mask.from_string("011"), 400
    coefficients = numbers.rising_poly(mask, n).coefficients
    int_bytes = sys.getsizeof(coefficients) + sum(map(sys.getsizeof, coefficients))
    del coefficients
    peak = traced_peak(tmp_path, "poly", "--mask", str(mask), "--n", str(n), "--kind", kind,
                       "--zeros")
    assert peak < 3 * int_bytes, (peak, int_bytes)


class TestPolyCommand:
    def test_with_zeros(self, capsys):
        code, out, _ = run(capsys, "poly", "--mask", "01", "--n", "3", "--zeros")
        assert code == 0
        lines = out.splitlines()
        assert "coefficients 0,2,3,1" in lines
        assert "zeros 0,-1,-2" in lines

    def test_falling(self, capsys):
        _, out, _ = run(capsys, "poly", "--mask", "01", "--n", "3",
                        "--kind", "falling", "--zeros")
        lines = out.splitlines()
        assert "coefficients 0,2,-3,1" in lines
        assert "zeros 0,1,2" in lines

    def test_undefined_roots_render_as_undef(self, capsys):
        _, out, _ = run(capsys, "poly", "--mask", "00", "--n", "3", "--zeros")
        assert "zeros 0,undef,undef" in out.splitlines()

    def test_fractional_roots_render_exactly(self, capsys):
        _, out, _ = run(capsys, "poly", "--mask", "11", "--n", "2", "--zeros")
        assert "zeros 0,0" in out.splitlines()

    def test_golden(self, capsys):
        _, out, _ = run(capsys, "poly", "--mask", "01", "--n", "3", "--zeros")
        assert out == (GOLDEN / "poly_01_n3.txt").read_text()


class TestBoundsCommand:
    def test_dominance_verdicts(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mask", "01", "--n", "4")
        assert code == 0
        dom = [line for line in out.splitlines() if "dominance" in line]
        assert len(dom) == 4
        assert all(line.endswith("PASS") for line in dom)
        assert "lambda 11/6" in out.splitlines()

    def test_m1_flag_sets_tail_lines(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mask", "10", "--n", "6", "--m1", "1,2")
        assert code == 0
        tails = [line for line in out.splitlines() if line.startswith("tail")]
        assert len(tails) == 2
        assert all(line.endswith("PASS") for line in tails)

    def test_default_m1_prints_tails_for_1_2_3(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mask", "01", "--n", "6")
        assert code == 0
        tails = [line.split()[:3] for line in out.splitlines() if line.startswith("tail")]
        assert tails == [["tail", "m1", "1"], ["tail", "m1", "2"], ["tail", "m1", "3"]]

    def test_ratio_verdicts(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mask", "011", "--n", "5")
        assert code == 0
        assert re.search(r"^ratio .* PASS$", out, re.MULTILINE)
        assert re.search(r"^ratio_prime .* PASS$", out, re.MULTILINE)

    def test_n_one_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--mask", "01", "--n", "1")
        assert code == 2
        assert "n >= 2" in err

    def test_large_rows_render_their_exact_values(self, capsys):
        # the exact rationals here are thousands of digits long, past the
        # interpreter's default int-to-str guard
        code, out, _ = run(capsys, "bounds", "--mask", "01", "--n", "120")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv, golden", [
        (("--mask", "01", "--n", "12", "--m1", "1,2,3"), "bounds_01_n12_m1.txt"),
        (("--mask", "100", "--n", "10"), "bounds_100_n10.txt"),
        (("--mask", "111", "--n", "8"), "bounds_111_n8.txt"),
        (("--mask", "0110", "--n", "9"), "bounds_0110_n9.txt"),
    ], ids=["01-n12-m1", "100-n10", "111-n8-zero-bounds", "0110-n9"])
    def test_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, "bounds", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    # Exit code and stdout SHA-256 of every mask with k <= 3 at n in
    # {2, 3, 7, 25}, tails at the default m1 = 1, 2, 3 included.
    @pytest.mark.parametrize("argv, want", json.loads(
        (GOLDEN / "bounds_k3_digests.json").read_text()).items())
    def test_digest_for_every_mask_with_k_up_to_3(self, capsys, argv, want):
        code, out, _ = run(capsys, "bounds", *argv.split())
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == want

    @pytest.mark.parametrize("end", ["bottom", "top"])
    def test_entry_above_its_bound_fails(self, capsys, monkeypatch, end):
        # ocmax is tight at the bottom of the support: one more than the
        # bound's floor there, or at the top, must print FAIL and exit 1.
        # The entry is raised in the unsigned row that bounds reads.
        mask, n = Mask.from_string("011"), 7
        support = mask.support(n)
        target = support[0] if end == "bottom" else support[-1]
        row = bounds.ocmax_row(mask, n)
        real = numbers._row

        def unsigned_row(vec, nn):
            urow = real(vec, nn)
            if (vec, nn) == (mask, n):
                u = target - mask.offset + 1
                urow = urow[:u] + (floor(row[target]) + 1,) + urow[u + 1:]
            return urow

        monkeypatch.setattr(numbers, "_row", unsigned_row)
        code, out, _ = run(capsys, "bounds", "--mask", str(mask), "--n", str(n))
        assert code == 1
        verdicts = {line.split()[1]: line.rsplit(" ", 1)[1]
                    for line in out.splitlines() if line.startswith("m ")}
        assert verdicts == {str(m): "FAIL" if m == target else "PASS" for m in support}

    @pytest.mark.parametrize("mask", MASKS_K_UP_TO_3, ids=str)
    def test_rendered_row_equals_the_fraction_row(self, mask):
        for n in range(1, 21):
            row = bounds.ocmax_row(mask, n)
            texts = render._power_fraction_strs(bounds.h_dot(n, mask),
                                                bounds.ocmax_cofactors(mask, n))
            assert list(texts) == [render._exact_str(row[m]) for m in mask.support(n)], n


@st.composite
def power_fractions(draw):
    """(lam, [(p, q), ...]) with lam = a/b and cofactors that share primes with a and b.

    q carries powers of a and p powers of b, so that ga and gb exceed 1;
    a = 0, p = 0 and q = 1 each come up.
    """
    a = draw(st.one_of(st.just(0), st.integers(1, 10**6)))
    b = draw(st.integers(1, 10**6))
    lam = Fraction(a, b)
    a, b = lam.numerator, lam.denominator
    small = st.one_of(st.just(0), st.just(1), st.integers(1, 10**30))
    pairs = draw(st.lists(st.tuples(small, st.integers(0, 3), small.map(lambda x: x + 1),
                                    st.integers(0, 3)), min_size=1, max_size=12))
    return lam, [(p * b**i, q * a**j if a else q) for p, i, q, j in pairs]


class TestPowerFractionStrs:
    """render._power_fraction_strs is str(Fraction(a**s * p, b**s * q)), pair by pair."""

    @settings(max_examples=300, deadline=None)
    @given(power_fractions())
    @example((Fraction(6, 5), [(1, 1), (7, 12), (25, 8 * 9), (0, 36), (5, 1)]))
    @example((Fraction(0), [(3, 4), (3, 4), (0, 1)]))
    @example((Fraction(4, 9), [(9 * 7, 2 * 11), (81, 16 * 3), (0, 5)]))
    # gb = 25 at s = 2 does not divide b * g = 5 * 1: the running b**s / g
    # is divided by 5; at s = 3, b * g = 5 * 25 is divided down by gb = 5.
    @example((Fraction(2, 5), [(1, 1), (1, 1), (25 * 7, 11), (5 * 3, 2)]))
    # Zero cofactors between nonzero ones still advance b**s / g by b.
    @example((Fraction(4, 9), [(3, 2), (0, 1), (27 * 5, 7), (0, 1), (0, 1), (2, 1)]))
    def test_equals_the_reduced_fraction(self, case):
        lam, pairs = case
        a, b = lam.numerator, lam.denominator
        want = [str(Fraction(a**s * p, b**s * q)) for s, (p, q) in enumerate(pairs)]
        assert list(render._power_fraction_strs(lam, pairs)) == want

    def test_forced_gcds_of_the_powers(self):
        # At s = 2 the pair reduces by g1 = 3, ga = 4 and gb = 25.
        lam, pairs = Fraction(2, 5), [(1, 1), (1, 1), (3 * 25 * 7, 3 * 4 * 11)]
        assert list(render._power_fraction_strs(lam, pairs)) == ["1", "2/5", "7/11"]

    def test_a_divisor_that_does_not_divide_raises(self):
        with decimal.localcontext(numbers._EXACT):
            assert render._exact_quotient(decimal.Decimal(10**40), 2**40) == 5**40
            with pytest.raises(RuntimeError, match="internal inconsistency"):
                render._exact_quotient(decimal.Decimal(10), 3)


class TestStirlingCommand:
    def test_ok_line(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "10")
        assert code == 0
        assert out == "OK: 10 rows identical\n"

    def test_two_hundred_rows(self, capsys):
        assert run(capsys, "stirling", "--n", "200") == (0, "OK: 200 rows identical\n", "")

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        changing_rows(monkeypatch, Mask.stirling(), 5, plus_one)
        code, out, _ = run(capsys, "stirling", "--n", "5")
        assert code == 1
        assert "MISMATCH" in out

    @staticmethod
    def mismatch_lines(max_n):
        """The MISMATCH lines of the mask 01 fold, as patched, against stirling_ref."""
        mask, ref = Mask.stirling(), numbers.stirling_ref(max_n)
        want = []
        for n, urow in enumerate(numbers._unsigned_rows(mask, max_n), 1):
            got = numbers.row_entries(mask, urow)
            want += [f"MISMATCH n={n} m={m} triangle={got.get(m, 0)} "
                     f"reference={ref[n].get(m, 0)}"
                     for m in sorted(set(got) | set(ref[n]))
                     if got.get(m, 0) != ref[n].get(m, 0)]
        return want

    def test_middle_row_mismatch_lines(self, capsys, monkeypatch):
        changing_rows(monkeypatch, Mask.stirling(), 3, plus_one)
        want = self.mismatch_lines(7)
        assert want == ["MISMATCH n=3 m=1 triangle=3 reference=2"]
        assert run(capsys, "stirling", "--n", "7") == (1, "\n".join(want) + "\n", "")

    def test_streams_its_mismatch_lines(self, monkeypatch, tmp_path):
        # With g_weight(3, ~01) one too large every row from 3 on differs, in
        # 11174 lines (2.7 MB) at n = 150; holding them all until the end
        # peaked at about 8.9 MiB.
        real, comp = numbers.g_weight, Mask.from_string("10")
        monkeypatch.setattr(numbers, "g_weight",
                            lambda j, vec: real(j, vec) + (1 if (j, vec) == (3, comp) else 0))
        want = self.mismatch_lines(150)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(["stirling", "--n", "150", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, len(want)) == (1, 11174)
        assert peak < 2**20, peak
        assert out.read_text() == "\n".join(want) + "\n"

    def test_trailing_slot_past_the_reference_row(self, capsys, monkeypatch):
        # Row 4 gains a nonzero slot m = 5 that the reference row 4 lacks; a
        # diff that stops at the end of the shorter row misses it.
        editing_rows(monkeypatch, Mask.stirling(), 4, lambda urow: [*urow, 5])
        assert run(capsys, "stirling", "--n", "7") == (
            1, "MISMATCH n=4 m=5 triangle=5 reference=0\n", "")

    def test_corrupted_slot_zero_is_diffed(self, capsys, monkeypatch):
        # Slot 0 lies below mask 01's support, where both rows hold 0; a fold
        # that writes there is wrong, so row 3's raised slot 0 is reported.
        editing_rows(monkeypatch, Mask.stirling(), 3, lambda urow: [urow[0] + 1, *urow[1:]])
        assert run(capsys, "stirling", "--n", "7") == (
            1, "MISMATCH n=3 m=0 triangle=1 reference=0\n", "")

    def test_streams_under_an_address_space_cap(self):
        # Rows are compared a pair at a time, so n = 800 fits in 150 MB of
        # address space; a whole triangle with a reference table beside it
        # does not.  The cap is set in the child only.
        resource = pytest.importorskip("resource")
        cap = 150 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "seqopt.cli", "stirling", "--n", "800"],
                              env=env, preexec_fn=limit, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "OK: 800 rows identical\n"), proc.stderr


@pytest.fixture
def default_int_str_guard():
    """The interpreter's default int-to-str digit guard, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit guard")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


class TestIntStrGuard:
    def test_main_leaves_the_guard_alone(self, capsys, default_int_str_guard):
        assert run(capsys, "bounds", "--mask", "01", "--n", "30")[0] == 0
        assert run(capsys, "stirling", "--n", "5")[0] == 0
        assert sys.get_int_max_str_digits() == default_int_str_guard

    def test_n_of_5000_digits_is_usage_error(self, capsys, default_int_str_guard):
        # The unwritable --out makes an --n that parses fail fast with exit 3
        # instead of starting a triangle of 10**5000 rows.
        code, _, err = run(capsys, "triangle", "--mask", "01", "--n", "9" * 5000,
                           "--out", "/no-such-directory/t.csv")
        assert code == 2
        assert "--n" in err
        assert "digits" in err
        assert len(err.encode()) < 300

    def test_m1_of_5000_digits_is_usage_error(self, capsys, default_int_str_guard):
        code, _, err = run(capsys, "bounds", "--mask", "01", "--n", "3", "--m1", "1," + "9" * 5000)
        assert code == 2
        assert "--m1" in err
        assert "digits" in err
        assert len(err.encode()) < 300

    def test_pure_python_decimal_prints_past_the_digit_limit(self, capsys):
        # _pydecimal multiplies through str(int); the longest number of this
        # report has 6059 digits, past the default limit of 4300.
        argv = ["bounds", "--mask", "01", "--n", "120"]
        code = ("import sys; sys.modules['_decimal'] = None; sys.path.insert(0, sys.argv[1])\n"
                "import decimal, _pydecimal; assert decimal.Context is _pydecimal.Context\n"
                "from seqopt import cli; sys.exit(cli.main(sys.argv[2:]))")
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), *argv],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, *argv)[1]

    def test_malformed_ints_echo_a_clip(self, capsys):
        code, _, err = run(capsys, "bounds", "--mask", "01", "--n", "3", "--m1", "1,x" + "y" * 500)
        assert code == 2
        assert "not a comma-separated int list: '1,xyyy" in err
        assert len(err.encode()) < 300
        code, _, err = run(capsys, "stirling", "--n", "12x")
        assert code == 2
        assert "not an integer: '12x'" in err


@pytest.fixture
def unlimited_int_str():
    """Lift the int-to-str digit guard so that builtin str can be the reference."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def _signed_int(width, seed, negative):
    x = random.Random(seed).getrandbits(width)
    return -x if negative else x


# A signed int of up to ~200k bits: hypothesis picks the width and a seed,
# random fills the bits (hypothesis' own buffer is too small for the width).
big_ints = st.builds(_signed_int, st.one_of(st.integers(0, 5000), st.integers(0, 200_000)),
                     st.integers(0, 2**32), st.booleans())

# 2**w - 1, 2**w and 10**d - 1, 10**d at the 2**11-bit leaf and at the
# split points 2**(2**e) above it, where the conversion changes depth.
_EDGE_WIDTHS = [2**e + d for e in range(11, 18) for d in (-1, 0, 1)]
_EDGE_DIGITS = [int(w * log10(2)) + d for w in _EDGE_WIDTHS for d in (0, 1)]
_EDGES = sorted({x for w in _EDGE_WIDTHS for x in (2**w - 1, 2**w)}
                | {x for d in _EDGE_DIGITS for x in (10**d - 1, 10**d)})


@pytest.mark.usefixtures("unlimited_int_str")
class TestExactStr:
    """render._exact_str is byte-for-byte builtin str for ints and Fractions."""

    @settings(max_examples=60, deadline=None)
    @given(big_ints)
    def test_ints_equal_builtin_str(self, x):
        assert render._exact_str(x) == str(x)

    @settings(max_examples=40, deadline=None)
    @given(big_ints, st.one_of(st.just(1), big_ints.filter(bool).map(abs)))
    def test_fractions_equal_builtin_str(self, num, den):
        x = Fraction(num, den)
        assert render._exact_str(x) == str(x)

    def test_zero_signs_and_whole_fractions(self):
        for x in (0, 1, -1, 9, 10, -10**6, Fraction(0), Fraction(-7), Fraction(-3, 4),
                  Fraction(10**700, 1), Fraction(-(2**5000)), Fraction(-(2**5000), 3)):
            assert render._exact_str(x) == str(x)

    def test_leaf_and_split_edges(self):
        assert len(_EDGES) > 50
        for x in _EDGES:
            for signed in (x, -x):
                assert render._exact_str(signed) == str(signed), x.bit_length()

    def test_exact_inside_a_low_precision_caller_context(self):
        x = 3**100_000
        with decimal.localcontext(decimal.Context(prec=5)) as ctx:
            before = repr(ctx)
            assert render._exact_str(x) == str(x)
            assert render._exact_str(Fraction(-x, 7)) == f"-{x}/7"
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before

    def test_a_rounding_step_raises(self, monkeypatch):
        # The conversion reads numbers._EXACT; give it too little precision
        # and the trap fires instead of a wrong digit being printed.
        monkeypatch.setattr(numbers, "_EXACT", numbers._EXACT.copy())
        numbers._EXACT.prec = 50
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            render._exact_str(2**5000 + 1)

    def test_threads_on_a_cold_power_cache(self):
        rng = random.Random(5)
        values = [rng.getrandbits(100_000) | 1 << 99_999 for _ in range(12)]
        want = [str(v) for v in values]
        got = [None] * len(values)
        errors = []
        start = threading.Barrier(4)

        def convert(first):
            try:
                start.wait(timeout=30)
                for i in range(first, len(values), 4):
                    render._POW2.clear()
                    got[i] = render._exact_str(values[i])
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=convert, args=(i,)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert got == want

    def test_pure_python_decimal_forms_the_split_powers(self):
        # With _decimal blocked, decimal loads _pydecimal, whose power slows
        # with the context's precision, MAX_PREC under numbers._EXACT: a
        # split power raised with ** never returns.  3**1300 to 3**8000 have
        # 621 to 3817 digits, past 2**2048 and under str(int)'s default limit.
        code = ("import sys; sys.modules['_decimal'] = None; sys.path.insert(0, sys.argv[1])\n"
                "import decimal, _pydecimal; assert decimal.Context is _pydecimal.Context\n"
                "from seqopt import render\n"
                "bad = [b for b in (1300, 2000, 5000, 8000) if render._exact_str(3**b) != str(3**b)]\n"
                "sys.exit(f'wrong digits for 3**b, b in {bad}' if bad else 0)")
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_bounds_past_several_splits_equal_a_builtin_str_reference(self, capsys):
        mask, n = Mask.stirling(), 150
        rep = bounds.ratio_report(mask, n)
        tails = bounds.tail_checks(mask, numbers._row(mask, n), (1, 2, 3))
        row = bounds.ocmax_row(mask, n)
        assert max(ub.numerator.bit_length() for ub in row.values()) > 2**14
        want = [f"mask {mask} k {mask.k} n {n}", f"lambda {rep.lam}",
                f"lambda_prime {rep.lam_prime}"]
        want += [f"m {m} ocmax {row[m]} value {numbers.value(mask, n, m)} "
                 "dominance PASS" for m in mask.support(n)]
        want += [f"tail m1 {t.m1} M {t.threshold} probability {t.probability} "
                 f"bound {t.bound!r} PASS" for t in tails]
        want += [f"ratio {rep.ratio} (~{render._fstr(rep.ratio)}) within e^lambda PASS",
                 f"ratio_prime {rep.ratio_prime} (~{render._fstr(rep.ratio_prime)}) "
                 "within e^lambda_prime PASS"]
        code, out, _ = run(capsys, "bounds", "--mask", "01", "--n", str(n))
        assert code == 0
        got = out.splitlines()
        assert len(got) == len(want)
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []

    @pytest.mark.parametrize("text", ["01", "011"])
    def test_poly_past_the_leaf_equals_a_builtin_str_reference(self, capsys, text):
        mask, n = Mask.from_string(text), 400
        poly = numbers.rising_poly(mask, n)
        assert max(c.bit_length() for c in poly.coefficients) > 2**11
        zeros = numbers.poly_zeros(mask, n, "rising")
        code, out, _ = run(capsys, "poly", "--mask", text, "--n", str(n), "--zeros")
        assert code == 0
        assert out.splitlines() == [
            f"mask {mask} n {n} kind rising",
            "coefficients " + ",".join(str(c) for c in poly.coefficients),
            "zeros " + ",".join("undef" if z is None else str(z) for z in zeros)]
