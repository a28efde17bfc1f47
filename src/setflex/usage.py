"""Help, usage and error text of the command line.

Only a request that prints help, a usage error or an error loads this
module: `cli` imports it at that point, so every other request compiles
none of it.
"""

from __future__ import annotations

import sys

from . import graphopt
from .cli import COMMANDS, COMMON, dumps
from .errors import (
    CapExceededError,
    InputError,
    InternalVerificationError,
    PreconditionError,
)

DESCRIPTION = """
Decide thin/slim/flexible taxon coverage and build certificates.  The
input is a file path, or stdin when it is absent or '-'.
"""


def _usage(names) -> str:
    """One synopsis line per subcommand in `names`."""
    lines = []
    for name in names:
        _, kinds, options, required = COMMANDS[name]
        words = [name, "{" + ",".join(kinds) + "}"] if kinds else [name]
        words.append("[input]")
        for option, kind in {**options, **COMMON}.items():
            if kind is not None:
                option += " N" if kind is int else " x,y" if kind is str else (
                    " {" + ",".join(kind) + "}")
            words.append(option if option.split()[0] in required else f"[{option}]")
        lines.append("setflex " + " ".join(words))
    return "usage: " + "\n       ".join(lines) + "\n"


def usage_exit(names, error: str | None = None):
    """Help on stdout and exit 0, or usage and `error` on stderr and exit 2."""
    if error is None:
        print(_usage(names) + DESCRIPTION, end="")
        raise SystemExit(0)
    sys.stderr.write(f"{_usage(names)}setflex: error: {error}\n")
    raise SystemExit(2)


def print_error(ns, exc: Exception) -> int:
    """`exc` as one JSON object on stdout (--json), else on stderr, and
    its exit code: 3 for a cap or budget, 2 for a usage or input error, 4
    for a failed self-check."""
    payload = {"error": str(exc)}
    if isinstance(exc, InternalVerificationError):
        payload["kind"] = "internal-verification"
    if isinstance(exc, PreconditionError) and isinstance(
        exc.certificate, graphopt.MinimizerReport
    ):
        payload["sigma_star"] = exc.certificate.value
        payload["witness_indices"] = list(exc.certificate.witness)
    if ns.json:
        print(dumps(payload))
    else:
        print(f"error: {exc}", file=sys.stderr)
        if "witness_indices" in payload:
            print(f"witness member indices: {payload['witness_indices']}",
                  file=sys.stderr)
    return 3 if isinstance(exc, CapExceededError) else 2 if isinstance(exc, InputError) else 4
