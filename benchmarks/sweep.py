"""Run every workload over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 benchmarks/sweep.py [--first-seed 1] [--traced-runs 1]
                                [--against FILE] [--record FILE --label TEXT]

It runs every workload of ``BENCHMARK.json`` on ten seeds, from
``--first-seed`` on.  Seeds form the outer loop and workloads the inner one, so a slow phase of
the machine is shared out over all workloads instead of landing on one.
Each untraced run's metrics are summarised per workload as median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the
interquartile distance as a share of the median, next to the bound in
``BENCHMARK.json``.  ``--traced-runs`` traced runs per workload follow, on the first seeds, for
the per-layer metrics.
``--record`` writes all runs and summaries to a BENCH JSON file.

Exits 1 when any invocation failed its output check, when any end-to-end
spread but that of ``setup_s`` exceeds its bound, or, with ``--against`` an
earlier set's BENCH file, when any end-to-end median, ``setup_s`` too, is
worse than the earlier one by more than its bound.  The spread of
``setup_s`` is left out because a cold start lasts about 0.13 s while the
host's speed phases last seconds: a run can sample only as many phases as
it has gaps between invocations, four to six, and over ten seeds that
spread read from 0.08 to 0.26 with the measurement unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = 10


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: no output, "
                           f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": mid,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=1)
    parser.add_argument("--against", type=Path,
                        help="BENCH JSON file of an earlier set whose medians this set's "
                             "may not be worse than by more than the bounds")
    parser.add_argument("--record", type=Path, help="write a BENCH JSON file here")
    parser.add_argument("--label", default="", help="what was measured, for --record")
    args = parser.parse_args(argv)

    command, seconds = spec["command"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    untraced: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            untraced[w].append(run_once(command, w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in untraced[w][-1]["metrics"].items()),
                flush=True)
    for i in range(args.traced_runs):
        for w in workloads:
            traced[w].append(run_once(command, w, seeds[i % len(seeds)], seconds, 1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    ok = True
    record = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
              "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                          "python": platform.python_version(),
                          "system": f"{platform.system()} {platform.machine()}"},
              "workloads": {}}
    for w in workloads:
        runs = untraced[w] + traced[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["exit"] == 0 and r["correct"] for r in runs)
        print(f"\n{w}: {len(untraced[w])} untraced and {len(traced[w])} traced runs, "
              f"{failed} of {attempted} invocations failed")
        summary = summarise(untraced[w])
        for name, s in summary.items():
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name]:
                flag, ok = "  OVER BOUND", False
            if earlier:
                before = earlier["workloads"][w]["untraced"]["summary"][name]["median"]
                worse = sign[name] * (s["median"] - before) / before
                flag += f"  worse {worse:+.4f} than --against"
                if worse > bounds[name]:
                    flag, ok = flag + " OVER BOUND", False
            print(f"  {name:<34} {s['median']:>14.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}{flag}")
        layers = summarise(traced[w]) if traced[w] else {}
        for name, s in layers.items():
            print(f"  {name:<34} {s['median']:>14.6g} {s['unit']}")
        record["workloads"][w] = {
            "attempted": attempted, "failed": failed,
            "untraced": {"summary": summary, "runs": untraced[w]},
            "traced": {"summary": layers, "runs": traced[w]},
        }
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
