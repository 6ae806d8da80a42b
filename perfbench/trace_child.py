"""One traced CLI process: ``trace_child.py SPANS_FILE VERB --scenario FILE ...``.

Installs the tracer on the package, runs ``mechverify.cli.main`` with the
remaining arguments exactly as ``python -m mechverify`` would, then writes
the spans and counts to SPANS_FILE and exits with the CLI's code.
"""

import sys

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from mechverify import cli

    code = cli.main(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
