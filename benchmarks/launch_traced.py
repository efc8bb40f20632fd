"""Run one seqopt command with every layer function traced.

Usage: python launch_traced.py SPANS_JSON INVOCATION_ID -- ARGS...

Needs ``src`` on PYTHONPATH.  Stdout carries exactly what
``python -m seqopt.cli ARGS...`` would print; the spans and counts go to
SPANS_JSON when the command returns.  A layer function the tracer cannot
find ends the command with exit code 1 before it runs.  The import of
``seqopt.cli`` is timed before anything else is imported, so the
benchmark's own modules do not pre-load what the program imports.
"""

import sys
from time import perf_counter

_start = perf_counter()
import seqopt.cli  # noqa: E402

_end = perf_counter()

import tracer  # noqa: E402


def main() -> int:
    spans_path, invocation, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch_traced.py SPANS_JSON INVOCATION_ID -- ARGS...")
    t = tracer.Tracer(int(invocation))
    t.record(tracer.IMPORT_SPAN, _start, _end)
    try:
        tracer.install(t)
    except LookupError as exc:
        raise SystemExit(f"trace: {exc}") from None
    try:
        return seqopt.cli.main(args)
    finally:
        sys.stdout.flush()
        t.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
