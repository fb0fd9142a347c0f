"""Traced stand-in for ``python -m boundbell.cli``.

Usage: ``launch.py SPANS_JSON ARGV...``.  Installs the tracer, calls
``boundbell.cli.main(ARGV)`` inside a ``cli.main`` span, writes the spans,
counters and start-up time to SPANS_JSON, and exits with main's code.
Start-up is the wall time from the parent's spawn (``BENCH_SPAWN_NS``) to
entering main, after the interpreter started and the package was imported.
"""

from __future__ import annotations

import json
import os
import sys
import time

from env import require_package

require_package()

from boundbell import cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    startup_s = (time.time_ns() - int(os.environ["BENCH_SPAWN_NS"])) / 1e9
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main") as record:
            code = cli.main(argv)
            record[4] = code != 0
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({**tracer.dump(), "startup_s": startup_s}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
