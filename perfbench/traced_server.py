"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_server.py --spans OUT serve [serve flags]``.

Installs :func:`tracing.install` and then runs the unchanged CLI entry
point with the remaining arguments.  The recorded spans are pickled to
``OUT`` when the server shuts down (SIGINT, the CLI's clean exit path).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: traced_server.py --spans OUT serve [flags]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracing.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracing.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
