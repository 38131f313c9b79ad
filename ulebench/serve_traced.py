"""Run ``python -m repro serve`` with the benchmark's layer tracing installed.

Usage (from the root of a checkout)::

    python3 ulebench/serve_traced.py --spans spans.json serve --root R --port 0 ...

Everything after ``--spans PATH`` is handed to the program's own CLI
unchanged.  The spans recorded while serving are written to ``PATH`` when the
server stops (SIGINT, as for ``serve`` itself).
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans PATH serve ...", file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    from tracing import Tracer

    from repro.api.cli import main as cli_main

    tracer = Tracer()
    tracer.install(server=True)
    try:
        return cli_main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
