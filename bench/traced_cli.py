"""Run one dessinlink command line under the benchmark's tracer.

    python bench/traced_cli.py SPANS_FILE [dessinlink arguments...]

Installs the module-boundary spans, runs `dessinlink.cli.run_cli` on the
arguments, writes the spans to SPANS_FILE and exits with the CLI's code.
"""

import sys

from tracer import Tracer, dump_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import dessinlink.cli

    tracer = Tracer()
    tracer.install()
    try:
        return dessinlink.cli.run_cli(argv)
    finally:
        tracer.uninstall()
        dump_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
