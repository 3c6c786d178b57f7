"""Traced CLI job: ``python3 perfbench/launch.py SPANS_OUT ARGS...``.

Imports ``tenrank.cli``, installs the span wrappers, runs
``tenrank.cli.main(ARGS)`` with tracing on, writes the spans and counters to
SPANS_OUT (.npz) and exits with main's return code.
"""
import sys

if __name__ == "__main__":
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import tenrank.cli
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    try:
        code = tenrank.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_out)
    sys.exit(code)
