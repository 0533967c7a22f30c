"""Traced `chaincast` CLI process: ``python cli_child.py SPANS_PATH <cli args>``.

Times the import of the CLI in this fresh interpreter, wraps the layers'
public functions, runs ``chaincast.cli.main`` with the remaining arguments
and writes the import time and the spans to SPANS_PATH, whatever the exit.
"""

import json
import sys
import time

start = time.perf_counter()
import chaincast.cli  # noqa: E402

import_s = time.perf_counter() - start

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return chaincast.cli.main(argv)
    finally:
        tracer.write(spans_path)
        with open(spans_path, "a") as fh:
            fh.write(json.dumps({"import_s": import_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
