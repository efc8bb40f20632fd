"""Tests of the benchmark itself: output gate, span arithmetic, traced counts.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

# Small commands that reach every traced layer between them.
SMALL = [
    ("bounds", "--mask", "01", "--n", "30"),
    ("bounds", "--mask", "10", "--n", "12"),
    ("verify", "--mask", "011", "--n", "6", "--oracle"),
    ("triangle", "--mask", "011", "--n", "30", "--format", "csv"),
    ("triangle", "--mask", "0111", "--n", "10", "--format", "json"),
    ("triangle", "--mask", "01", "--n", "8"),
    ("stirling", "--n", "40"),
]


@pytest.fixture(scope="module")
def small_digests():
    run.OUT_DIR.mkdir(exist_ok=True)
    outcomes = [run.run_invocation(args) for args in SMALL]
    assert all(o.exit_code == 0 for o in outcomes)
    return {run.digest_key(o.args): {"exit": o.exit_code, "sha256": o.sha256}
            for o in outcomes}


def test_wrong_digest_counts_a_failure(small_digests):
    args = SMALL[-1]
    key = run.digest_key(args)
    good = run.Run([args], {key: small_digests[key]})
    good.iteration(0)
    assert (good.attempted, good.failed) == (1, 0)

    bad = run.Run([args], {key: {"exit": 0, "sha256": "0" * 64}})
    bad.iteration(0)
    assert (bad.attempted, bad.failed) == (1, 1)

    unrecorded = run.Run([args], {})
    unrecorded.iteration(0)
    assert unrecorded.failed == 1


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],    # overlaps a: root's children cover 1..6
        ["leaf", 4.5, 5.0, 2, 0],
        ["a", 7.0, 8.0, 0, 0],    # a second span of one name adds up
        ["late", 9.5, 12.0, 0, 0],  # only the part inside root counts
        ["other", 20.0, 21.0, -1, 1],
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({
        "root": 10.0 - (5.0 + 1.0 + 0.5),
        "a": 3.0 + 1.0,
        "b": 3.0 - 0.5,
        "leaf": 0.5,
        "late": 2.5,
        "other": 1.0,
    })


def test_traced_run_matches_untraced_output_and_repeats_its_counts(small_digests):
    bench = run.Run(SMALL, small_digests)
    _, first = bench.iteration(0, traced=True)
    _, second = bench.iteration(1, traced=True)
    assert (bench.attempted, bench.failed) == (2 * len(SMALL), 0)

    one, two = tracer.layer_metrics(first), tracer.layer_metrics(second)
    assert set(one) == set(tracer.UNITS)
    for name in tracer.COUNTS:
        assert one[name] == two[name] > 0, name
    for name in ("numbers.triangle_s", "numbers.rows_s", "numbers.value_s",
                 "numbers.poly_eval_s", "oracle.histogram_s", "bounds.tail_s",
                 "cli.render.csv_s", "cli.render.json_s", "cli.render.plain_s",
                 "cli.render.fraction_str_s", "numbers.stirling_ref_s"):
        assert one[name] > 0, name

    # Every binding site is wrapped: value() reached through the name
    # seqopt.bounds imported, triangle() through cli._TRIANGLE_FACTORY.
    parents = set()
    for record in first:
        spans = record["spans"]
        assert len({s[4] for s in spans}) == 1  # one invocation id per process
        parents |= {(s[0], spans[s[3]][0]) for s in spans if s[3] >= 0}
    assert ("numbers.value_s", "bounds.tail_s") in parents
    assert ("numbers.triangle_s", "cli.verify.self_s") in parents
    assert ("numbers.triangle_s", "cli.main_self_s") in parents
    assert ("cli.render.fraction_str_s", "cli.main_self_s") in parents


def test_rows_built_counts_the_rows_the_recurrence_appends(small_digests):
    # Rows 2..n of each mask's triangle; row 1 is the store's seed, not built.
    # The second triangle of one mask in a process is served from the store.
    args = [("stirling", "--n", "40"), ("triangle", "--mask", "011", "--n", "30",
                                        "--format", "csv")]
    _, records = run.Run(args, small_digests).iteration(0, traced=True)
    assert tracer.layer_metrics(records)["numbers.rows_built"] == 39 + 29
    # verify builds the mask's rows and, through value(), its complement's.
    verify = [("verify", "--mask", "011", "--n", "6", "--oracle")]
    _, records = run.Run(verify, small_digests).iteration(0, traced=True)
    assert tracer.layer_metrics(records)["numbers.rows_built"] == 5 + 5


def test_missing_layer_function_fails_the_traced_invocation(small_digests, tmp_path,
                                                            monkeypatch):
    launcher = tmp_path / "launch_renamed.py"
    launcher.write_text(
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(run.BENCH_DIR)!r})\n"
        "import seqopt.cli, seqopt.oracle\n"
        "del seqopt.oracle.histogram\n"  # a layer the stirling command never calls
        f"sys.argv[0] = {str(run.LAUNCHER)!r}\n"
        f"runpy.run_path({str(run.LAUNCHER)!r}, run_name='__main__')\n",
        encoding="utf-8")
    monkeypatch.setattr(run, "LAUNCHER", launcher)
    bench = run.Run([SMALL[-1]], small_digests)
    outcomes, records = bench.iteration(0, traced=True)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert outcomes[0].exit_code == 1 and records == []


def test_install_leaves_no_unwrapped_binding():
    code = (
        "import sys, seqopt.cli, tracer\n"
        "originals = {id(getattr(sys.modules[m], a)) for _, m, attrs in tracer.LAYERS\n"
        "             for a in attrs if '.' not in a}\n"
        "originals.add(id(getattr(sys.modules[tracer.ROW_COEFFICIENT[0]],\n"
        "                         tracer.ROW_COEFFICIENT[1])))\n"
        "tracer.install(tracer.Tracer(0))\n"
        "left = [(n, k) for n, mod in sys.modules.items() if n.startswith('seqopt')\n"
        "        for k, v in vars(mod).items() if id(v) in originals]\n"
        "assert not left, left\n"
        "assert seqopt.cli._TRIANGLE_FACTORY.__wrapped__ is seqopt.numbers.triangle.__wrapped__\n"
    )
    env = dict(run._child_env(), PYTHONPATH=f"{run.SRC}:{run.BENCH_DIR}")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_seed_picks_masks_from_recorded_families():
    digests = run.load_digests()
    assert run.invocations("triangle-render", 0) == [
        ("triangle", "--mask", "011", "--n", "500", "--format", "csv"),
        ("triangle", "--mask", "0111", "--n", "300", "--format", "json")]
    assert run.invocations("bounds-report", 0) == [("bounds", "--mask", "01", "--n", "300")]
    assert run.invocations("verify-oracle", 0) == [
        ("verify", "--mask", "011", "--n", "80", "--oracle"),
        ("verify", "--mask", "0111", "--n", "5", "--oracle")]
    assert run.invocations("stirling-diff", 0) == [("stirling", "--n", "1500")]
    for name, legs in run.WORKLOADS.items():
        for seed in range(12):
            assert run.invocations(name, seed) == run.invocations(name, seed)
            for args in run.invocations(name, seed):
                assert digests[run.digest_key(args)]["exit"] == 0
    assert run.invocations("bounds-report", 7) == run.invocations("bounds-report", 0)
    assert run.invocations("triangle-render", 1) != run.invocations("triangle-render", 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "bounds-report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
