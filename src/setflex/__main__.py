"""Entry point: `python -m setflex` and the installed `setflex` script
both end through `run`.

Every request is a fresh interpreter, and on exit CPython runs full
garbage collections over every tracked object, the modules `site`
imported included; they took longer than most requests' own work.
`run` freezes the heap once `cli.main` is done, so those collections
skip it.  The rest of shutdown is the normal one: `atexit` callbacks
run, stdio is flushed, and a stdout that fails at the final flush still
exits 120.  A stdout that fails earlier, while `cli.main` writes to it
(unbuffered, or an answer larger than the buffer), exits 120 as well:
`run` reports the error in one line on stderr and points stdout at the
null device, so the final flush cannot fail again.  `cli.main` returns
the exit code and never freezes, so callers in the same process keep a
normal collector.
"""

import gc
import os
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError as exc:
        sys.stderr.write(f"setflex: {type(exc).__name__}: {exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(120)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
