"""Run ``repro.cli.main`` in this interpreter with the layer wrappers on.

Usage: ``python e2ebench/bootstrap.py TRACE_DIR OP -- <repro CLI args>``
(the ``--`` is optional).  The traced benchmark mode starts CLI children
and the service process this way.  Importing the tracer and installing
the wrappers are timed as ``bench.tracing`` and writing the spans as
``bench.flush``: the benchmark's own work stays out of the CLI layer.
The import of ``repro.cli`` is timed as ``cli.import``, ``main`` runs
as ``cli.main``, and the process's spans are written to ``TRACE_DIR``
when ``main`` returns (for ``serve``: after SIGTERM drained it).
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def main() -> int:
    begin = time.perf_counter()
    trace_dir, op, *argv = sys.argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from e2ebench.spans import SpanRecorder, install

    recorder = SpanRecorder(op=op)
    try:
        with recorder.span("bench.tracing", start=begin):
            install(recorder, trace_dir)
        with recorder.span("cli.import"):
            import repro.cli
        # A server's main is mostly idle waiting for requests: keep it
        # out of the CLI layer's self time.
        root = "service.serve" if argv[:1] == ["serve"] else "cli.main"
        with recorder.span(root):
            return repro.cli.main(argv)
    finally:
        recorder.flush(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
