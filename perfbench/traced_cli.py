"""Traced stand-in for ``python -m gupbell.cli``.

    python3 traced_cli.py SPANS_JSON OP_ID <gupbell arguments...>

Times the import of gupbell.cli, wraps the layer functions, runs
``cli.main`` and writes the spans to SPANS_JSON; exits with main's code.
"""

import sys

import tracing


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op_id
    index = tracer.begin("import.gupbell_cli")
    from gupbell import cli
    tracer.end(index)
    tracer.install()
    index = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(index)
        tracing.write(spans_path, tracer)


if __name__ == "__main__":
    sys.exit(main())
