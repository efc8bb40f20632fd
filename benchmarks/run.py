"""Closed-loop benchmark of the seqopt command line.

Run from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --record-digests

One client runs ``python -m seqopt.cli`` subprocesses (``PYTHONPATH=src``)
strictly one after another: the next invocation starts when the previous
one has exited.  Each child's stdout goes to a file rather than a pipe, so
the parent does no work while a child runs.  One iteration runs every
invocation of the workload once; a run repeats iterations for about
``--seconds`` and reports medians over them.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: summed wall clock of one iteration's invocations, spawn to exit.
- ``cpu_s``: summed child user+sys CPU, from ``wait4`` rusage.
- ``peak_rss_mb``: largest child ``ru_maxrss`` in one iteration, in MiB.
- ``setup_s``: a cold ``python -c "import seqopt.cli"``; several are
  interleaved with the iterations and the median is reported.

``--trace 1`` alternates untraced iterations with traced ones, in which each
invocation runs through ``launch_traced.py`` (see ``tracer.py``), and
reports the per-layer metrics: medians over traced iterations, plus
``startup.interp_s`` (a cold ``python -c pass``) and ``trace.overhead_s``
(the median, over pairs of an untraced and a traced iteration run back to
back, of traced minus untraced ``wall_s``).

Every invocation's exit code and stdout SHA-256 are compared with
``digests.json``, recorded at the seed commit for every invocation a seed
can select.  A mismatch counts as a failed invocation and the run exits 1.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
STDOUT_PATH = OUT_DIR / "stdout.bin"
DIGESTS_PATH = BENCH_DIR / "digests.json"
LAUNCHER = BENCH_DIR / "launch_traced.py"

# Cold starts measured before each iteration, for setup_s and startup.interp_s.
COLD_STARTS_PER_ITERATION = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass(frozen=True)
class Leg:
    """One command of a workload; ``{}`` in ``args`` takes a mask from ``family``.

    The first family member is the one seed 0 selects.  Members were chosen
    because they emit the same amount of output and cost the same to within
    run-to-run noise at the seed commit.  An empty family means the command
    takes no mask and ignores the seed.
    """

    args: tuple[str, ...]
    family: tuple[str, ...] = ()

    def argv(self, seed: int) -> tuple[str, ...]:
        if not self.family:
            return self.args
        mask = self.family[seed % len(self.family)]
        return tuple(mask if a == "{}" else a for a in self.args)

    def members(self) -> list[tuple[str, ...]]:
        return [self.argv(i) for i in range(max(1, len(self.family)))]


WORKLOADS = {
    # About 200 MB of decimal output in entries of up to ~2.3k digits:
    # rendering dominates.  The JSON leg catches a change that helps CSV at
    # JSON's expense.  Families are complement pairs, whose rows are the same
    # numbers reversed: the CSV masks emit 150.3 MB each (001 and 110 emit
    # 103 MB and are left out), the JSON masks 48.00 MB each.
    "triangle-render": (
        Leg(("triangle", "--mask", "{}", "--n", "500", "--format", "csv"),
            ("011", "100", "010", "101")),
        Leg(("triangle", "--mask", "{}", "--n", "300", "--format", "json"),
            ("0111", "1000", "0110", "1001")),
    ),
    # A few exact rationals of tens of thousands of digits: Fraction.__str__
    # and bounds arithmetic.  The only other k = 1 mask, 10, costs 16x less,
    # so the family has one member and the seed is ignored.
    "bounds-report": (
        Leg(("bounds", "--mask", "{}", "--n", "300"), ("01",)),
    ),
    # Under 1 KB of output: rendering is bypassed.  Time goes to the
    # exhaustive oracle (about 2.3M tuples, the same for every mask of one k)
    # and exact polynomial evaluation, whose cost varies with the mask; the
    # families are complement pairs, whose roots are reciprocal.
    "verify-oracle": (
        Leg(("verify", "--mask", "{}", "--n", "80", "--oracle"), ("011", "100")),
        Leg(("verify", "--mask", "{}", "--n", "5", "--oracle"), ("0111", "1000")),
    ),
    # The row recurrence and its store dominate time and memory (about
    # 1.7 GB peak); the output is one line.
    "stirling-diff": (
        Leg(("stirling", "--n", "1500")),
    ),
}


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    return [leg.argv(seed) for leg in WORKLOADS[workload]]


def digest_key(args) -> str:
    return " ".join(args)


@dataclass(frozen=True)
class Outcome:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    sha256: str

    def matches(self, digests: dict) -> bool:
        want = digests.get(digest_key(self.args))
        return want is not None and want == {"exit": self.exit_code, "sha256": self.sha256}


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd, stdout) -> tuple[float, float, float, int]:
    """Run cmd to completion with stdout on an open file.

    Returns wall seconds from spawn to exit, child user+sys CPU seconds,
    child peak RSS in MiB and the exit code.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, env=_child_env(), cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def run_invocation(args, *, spans_path: Path | None = None, invocation: int = 0) -> Outcome:
    """One seqopt command, untraced, or traced when spans_path is given."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "seqopt.cli", *args]
    else:
        cmd = [sys.executable, str(LAUNCHER), str(spans_path), str(invocation), "--", *args]
    with open(STDOUT_PATH, "wb") as fh:
        wall, cpu, rss, code = spawn(cmd, fh)
    return Outcome(tuple(args), wall, cpu, rss, code, sha256_file(STDOUT_PATH))


def cold_start(code: str) -> float:
    with open(os.devnull, "wb") as sink:
        wall, _, _, exit_code = spawn([sys.executable, "-c", code], sink)
    if exit_code != 0:
        raise RuntimeError(f"python -c {code!r} exited {exit_code}")
    return wall


def repeat(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... until one more call would pass ``seconds``."""
    start = perf_counter()
    done = 0
    while True:
        step(done)
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


class Run:
    """Outcomes of one benchmark run; counts attempted and failed invocations."""

    def __init__(self, argvs, digests: dict) -> None:
        self.argvs = list(argvs)
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def iteration(self, order: int, traced: bool = False) -> tuple[list[Outcome], list[dict]]:
        # Odd iterations run the legs in reverse, so no leg always runs first.
        legs = list(enumerate(self.argvs))
        if order % 2:
            legs.reverse()
        outcomes, records = [], []
        for idx, args in legs:
            spans_path = None
            if traced:
                spans_path = OUT_DIR / f"spans-{idx}.json"
                spans_path.unlink(missing_ok=True)
            out = run_invocation(args, spans_path=spans_path, invocation=idx)
            self.attempted += 1
            if not out.matches(self.digests):
                self.failed += 1
                print(f"FAILED {digest_key(args)}: exit {out.exit_code}, "
                      f"sha256 {out.sha256}", file=sys.stderr)
            outcomes.append(out)
            if traced and spans_path.exists():
                records.append(json.loads(spans_path.read_text(encoding="utf-8")))
        return outcomes, records


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    walls, cpus, rss, setups = [], [], [], []

    def step(i):
        setups.extend(cold_start("import seqopt.cli") for _ in range(COLD_STARTS_PER_ITERATION))
        outcomes, _ = run.iteration(i)
        walls.append(sum(o.wall_s for o in outcomes))
        cpus.append(sum(o.cpu_s for o in outcomes))
        rss.append(max(o.rss_mb for o in outcomes))

    repeat(seconds, step)
    return {"wall_s": median(walls), "cpu_s": median(cpus),
            "peak_rss_mb": median(rss), "setup_s": median(setups)}


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    overheads, interps, layers = [], [], []

    def step(i):
        interps.extend(cold_start("pass") for _ in range(COLD_STARTS_PER_ITERATION))
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            outcomes, records = run.iteration(i, traced)
            walls[traced] = sum(o.wall_s for o in outcomes)
            if traced:
                layers.append(tracer.layer_metrics(records))
        overheads.append(walls[True] - walls[False])

    repeat(seconds, step)
    metrics = {name: median(m[name] for m in layers) for name in tracer.UNITS}
    for name in tracer.COUNTS:
        metrics[name] = layers[0][name]
        if any(m[name] != metrics[name] for m in layers):
            raise RuntimeError(f"count {name} differs between traced iterations")
    metrics["startup.interp_s"] = median(interps)
    metrics["trace.overhead_s"] = median(overheads)
    return metrics


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def record_digests() -> int:
    """Run every invocation any seed can select once and store its exit code and digest."""
    digests = {}
    for name, legs in WORKLOADS.items():
        for leg in legs:
            for args in leg.members():
                out = run_invocation(args)
                digests[digest_key(args)] = {"exit": out.exit_code, "sha256": out.sha256}
                print(f"{name}: {digest_key(args)} -> exit {out.exit_code} "
                      f"{out.sha256} ({out.wall_s:.2f} s)")
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="how long to measure; required "
                        "with --workload (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rerun every selectable invocation and rewrite digests.json; "
                             "only at a commit whose output is known to be right")
    args = parser.parse_args(argv)
    if not (SRC / "seqopt" / "cli.py").is_file():
        print(f"error: no seqopt program under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None or args.seconds is None:
            parser.error("--workload and --seconds are required")
        run = Run(invocations(args.workload, args.seed), load_digests())
        # Compile the program's bytecode before anything is timed.
        cold_start("import seqopt.cli")
        if args.trace:
            metrics, units = per_layer(run, args.seconds), tracer.UNITS
        else:
            metrics, units = end_to_end(run, args.seconds), END_TO_END_UNITS
    finally:
        STDOUT_PATH.unlink(missing_ok=True)
    print(f"workload {args.workload} seed {args.seed}: "
          + "; ".join(digest_key(a) for a in run.argvs))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"attempted {run.attempted} failed {run.failed}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
