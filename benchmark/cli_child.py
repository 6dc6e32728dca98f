"""Traced stand-in for ``python -m kchi.cli``, used by the traced cli_session run.

Usage: cli_child.py SPANS.npz ARG...

Times ``import kchi.cli``, patches the tracer into the package, runs
``kchi.cli.main(ARG...)`` (so stdout and the exit code are the CLI's own)
and writes the child's spans and counters to SPANS.npz.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import kchi.cli

    t1 = time.perf_counter()
    from tracer import CLI_IMPORT, Tracer

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add_span(CLI_IMPORT, t0, t1, -1)
    with tracer:
        try:
            code = kchi.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    tracer.save(spans_path)
    sys.exit(code)
