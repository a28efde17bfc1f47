"""Run one setflex CLI request with spans at its module boundaries.

Usage: python launcher.py SPANS_FILE -- SETFLEX_ARGS...

Behaves like `python -m setflex SETFLEX_ARGS...` (same stdout, stderr
and exit code, tracebacks included) and, at exit, writes the request's
spans to SPANS_FILE as one JSON list.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    spans_file, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE -- SETFLEX_ARGS...")
    recorder = tracing.Recorder()
    try:
        index = recorder.open("cli.import")
        import setflex.cli

        recorder.close(index)
        tracing.install(recorder)
        index = recorder.open("cli.main")
        try:
            code = setflex.cli.main(args)
        except BaseException:
            recorder.close(index, error=True)
            raise
        recorder.close(index)
        return code
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
