"""Span recording for the traced benchmark run, and the arithmetic over spans.

``install`` replaces each layer function listed in ``LAYERS`` with a wrapper
that records a span ``[name, start, end, parent index, invocation id]``, and
``numbers.g_weight`` with a wrapper that counts the rows the recurrence
builds.  The
wrapper is bound at every place the program holds the function, not only in
the defining module: ``seqopt.bounds`` imports ``value`` by name,
``seqopt.cli._TRIANGLE_FACTORY`` keeps ``numbers.triangle`` from import
time, and the package ``__init__`` re-exports most names.  Methods
(``IntPolynomial.__call__``, ``Fraction.__str__``) are replaced on their
class, which also catches the calls f-strings make.

Spans stay in memory and are written out once, when the invocation ends.
``layer_metrics`` turns the span files of one workload iteration into the
per-layer metrics: every ``_s`` metric is self time, a span's duration minus
the part of it that its child spans cover, summed over the iteration's
invocations.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric, module, attributes).  Every attribute listed on one row records
# spans under that metric's name.  "Class.method" is patched on the class.
LAYERS = (
    ("cli.main_self_s", "seqopt.cli", ("main",)),
    ("cli.verify.self_s", "seqopt.cli", ("run_verification",)),
    ("cli.render.csv_s", "seqopt.cli", ("render_csv",)),
    ("cli.render.json_s", "seqopt.cli", ("render_json",)),
    ("cli.render.plain_s", "seqopt.cli", ("render_plain",)),
    ("cli.render.entries_s", "seqopt.cli", ("triangle_entries",)),
    ("cli.render.write_s", "seqopt.cli", ("_write",)),
    ("cli.render.fraction_str_s", "fractions", ("Fraction.__str__",)),
    ("bounds.ratio_report_self_s", "seqopt.bounds", ("ratio_report",)),
    ("bounds.ocmax_row_s", "seqopt.bounds", ("ocmax_row",)),
    ("bounds.upper_ratio_s", "seqopt.bounds", ("upper_ratio",)),
    ("bounds.h_dot_s", "seqopt.bounds", ("h_dot",)),
    ("bounds.tail_s", "seqopt.bounds",
     ("tail_threshold", "tail_probability", "mirrored_tail")),
    ("bounds.exp_bound_s", "seqopt.bounds", ("exp_bound_holds",)),
    ("oracle.histogram_s", "seqopt.oracle", ("histogram",)),
    ("numbers.poly_eval_s", "seqopt.numbers", ("IntPolynomial.__call__",)),
    ("numbers.poly_build_s", "seqopt.numbers", ("rising_poly", "falling_poly")),
    ("numbers.poly_zeros_s", "seqopt.numbers", ("poly_zeros",)),
    ("numbers.explicit_value_s", "seqopt.numbers", ("explicit_value",)),
    ("numbers.triangle_s", "seqopt.numbers", ("triangle",)),
    ("numbers.rows_s", "seqopt.numbers", ("_unsigned_rows",)),
    ("numbers.value_s", "seqopt.numbers", ("value",)),
    ("numbers.stirling_ref_s", "seqopt.numbers", ("stirling_ref",)),
)

# Counts that depend only on the inputs: two runs of one workload and seed
# must report them identically.
COUNTS = (
    "oracle.tuples",
    "numbers.rows_built",
    "numbers.poly_eval_calls",
    "numbers.value_calls",
    "cli.render.out_bytes",
    "cli.render.fraction_str_digits",
)

# Units of every per-layer metric, in the order they are reported.
UNITS = {
    **{metric: "s" for metric, _, _ in LAYERS},
    "cli.render.out_bytes": "bytes",
    "cli.render.fraction_str_digits": "count",
    "oracle.tuples": "count",
    "oracle.tuples_per_s": "1/s",
    "numbers.poly_eval_calls": "count",
    "numbers.value_calls": "count",
    "numbers.rows_built": "count",
    "startup.interp_s": "s",
    "startup.import_s": "s",
    "trace.overhead_s": "s",
}

IMPORT_SPAN = "startup.import_s"


class Tracer:
    """Spans and counts of one invocation, held in memory until ``dump``."""

    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        # [name, start, end, parent index or -1, invocation id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        # Positional arguments of the calls on ``stack``, innermost last.
        self.args: list[tuple] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root-level span, such as the import of the program."""
        self.spans.append([name, start, end, -1, self.invocation])

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                               self.invocation])
            self.stack.append(idx)
            self.args.append(args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.args.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


# Count hooks run after the wrapped call returns, outside its span.

def _count_tuples(tracer, args, result):
    tracer.counts["oracle.tuples"] += sum(result.counts.values())


def _count_calls(metric):
    def count(tracer, args, result):
        tracer.counts[metric] += 1
    return count


def _count_out_bytes(tracer, args, result):
    text = args[1]
    tracer.counts["cli.render.out_bytes"] += (
        len(text) if text.isascii() else len(text.encode("utf-8")))


def _count_digits(tracer, args, text):
    tracer.counts["cli.render.fraction_str_digits"] += (
        len(text) - text.count("/") - text.count("-"))


_COUNT_HOOKS = {
    ("seqopt.oracle", "histogram"): _count_tuples,
    ("seqopt.numbers", "IntPolynomial.__call__"): _count_calls("numbers.poly_eval_calls"),
    ("seqopt.numbers", "value"): _count_calls("numbers.value_calls"),
    ("seqopt.cli", "_write"): _count_out_bytes,
    ("fractions", "Fraction.__str__"): _count_digits,
}


ROWS_SPAN = "numbers.rows_s"
ROW_COEFFICIENT = ("seqopt.numbers", "g_weight")


def _count_rows_built(tracer: Tracer, g_weight):
    """``g_weight`` wrapped to count the rows the recurrence appends.

    The recurrence takes the coefficient ``g_weight(n + 1, mask)`` once for
    each row n + 1 it builds, so a call made directly inside a row-recurrence
    span, with that span's mask, is one row built.  Rows the store already
    holds take no coefficient and are not counted, whatever the store keeps.
    """
    @functools.wraps(g_weight)
    def counted(j, vec):
        if (tracer.stack and tracer.spans[tracer.stack[-1]][0] == ROWS_SPAN
                and tracer.args[-1][:1] == (vec,)):
            tracer.counts["numbers.rows_built"] += 1
        return g_weight(j, vec)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every layer function, and the row coefficient, at every binding site.

    The program modules must already be imported.  Raises ``LookupError``,
    before anything is wrapped, when one of them is missing: a renamed
    internal must fail the traced invocation, not read as a zero metric.
    """
    targets = [(modname, attr, functools.partial(tracer.wrap, metric,
                                                 count=_COUNT_HOOKS.get((modname, attr))))
               for metric, modname, attrs in LAYERS for attr in attrs]
    targets.append((*ROW_COEFFICIENT, functools.partial(_count_rows_built, tracer)))
    found, missing = [], []
    for modname, attr, make in targets:
        owner, _, member = attr.rpartition(".")
        holder = sys.modules.get(modname)
        if owner:
            holder = getattr(holder, owner, None)
        original = getattr(holder, member, None)
        if original is None:
            missing.append(f"{modname}.{attr}")
        else:
            found.append((holder, member, bool(owner), original, make))
    if missing:
        raise LookupError("no such layer function: " + ", ".join(missing))
    program = [mod for name, mod in sys.modules.items()
               if name == "seqopt" or name.startswith("seqopt.")]
    for holder, member, on_class, original, make in found:
        wrapped = make(original)
        if on_class:
            setattr(holder, member, wrapped)
            continue
        for mod in program:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from its span files' contents.

    ``startup.interp_s`` and ``trace.overhead_s`` need untraced runs and are
    filled in by the caller.
    """
    metrics = dict.fromkeys(UNITS, 0.0)
    imports = []
    for record in records:
        for name, seconds in self_times(record["spans"]).items():
            if name == IMPORT_SPAN:
                imports.append(seconds)
            else:
                metrics[name] += seconds
        for name, value in record["counts"].items():
            metrics[name] += value
    for name in COUNTS:
        metrics[name] = int(metrics[name])
    hist_s = metrics["oracle.histogram_s"]
    metrics["oracle.tuples_per_s"] = metrics["oracle.tuples"] / hist_s if hist_s else 0.0
    metrics[IMPORT_SPAN] = sum(imports) / len(imports) if imports else 0.0
    return metrics
