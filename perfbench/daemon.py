"""Traced daemon: ``python -m perfbench.daemon TRACE_OUT serve [serve args]``.

Instruments this process (see :func:`perfbench.tracing.instrument`),
runs the unmodified ``repro.cli`` entry point, and on shutdown writes
the daemon-side spans and aggregates to ``TRACE_OUT`` as JSON lines
(the first line is the summary).
"""

from __future__ import annotations

import sys

from perfbench.tracing import Tracer, instrument


def main(argv: list[str]) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer()
    patches = instrument(tracer)
    try:
        return cli.main(serve_args)
    finally:
        patches.restore()
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
