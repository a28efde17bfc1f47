"""Command-line interface.

Subcommands: check, supertree, represent, count, sdr, order,
gen-defining.  `COMMANDS` maps each to its handler module, its kind
choices and its options, and one loop parses argv against it: every
request is a fresh interpreter, and importing argparse and building its
parser cost more than the parse.  Each handler lives in its own module
(`cli_check`, `cli_supertree`, ...), which `main` imports after parsing,
so a request compiles one handler, not all seven.  A handler module's
`run(ns)` returns the exit code, JSON payload and human lines; `main`
times it and prints them.  Exit codes: 0 verdict true / success, 1
verdict false (with certificate), 2 usage or input error, 3 budget or
cap exceeded, 4 an internal self-check failed (a bug; reported, never a
traceback).  JSON output (--json) is byte-deterministic for a fixed
input and flag set: keys are sorted, label ordering is lexicographic,
and timings are printed only in human mode.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from . import graphopt, setsys
from .errors import (
    CapExceededError,
    InputError,
    InternalVerificationError,
    PreconditionError,
    check_limit,
)


def _read_input(path: str | None) -> str:
    """The input as strict UTF-8 from the file or stdin, newlines as in text mode."""
    name = "stdin" if path is None or path == "-" else path
    try:
        if name == "stdin":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{name} is not UTF-8 text: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _member_str(system: setsys.SetSystem, index: int) -> str:
    return ",".join(system.member_labels(index))


def _given(**kwargs) -> dict:
    """The keyword arguments that are not None; the rest keep library defaults."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _emit(ns, payload: dict, human_lines: list[str], elapsed: float) -> None:
    if ns.json:
        if ns.no_stats:
            payload.pop("stats", None)
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        if not ns.no_stats:
            print(f"time: {elapsed * 1000:.1f} ms", file=sys.stderr)


# -- parser -------------------------------------------------------------------------


def _default_budget() -> int | None:
    """SETFLEX_BUDGET, validated; None (the library default) when unset."""
    raw = os.environ.get("SETFLEX_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise InputError(f"SETFLEX_BUDGET must be an integer, got {raw!r}") from None
    return check_limit("SETFLEX_BUDGET", budget)


def _check_limits(ns) -> None:
    for flag in ("cap", "budget"):
        value = getattr(ns, flag, None)
        if value is not None:
            check_limit(f"--{flag}", value)


# Subcommand -> (handler module, kind choices or None, options, required
# options).  An option's value type is int, str, a tuple of choices or None
# (a flag); every subcommand also takes the COMMON flags.  The module's
# `run(ns)` returns (exit code, JSON payload, human-readable lines).
COMMON = {"--json": None, "--no-stats": None}
COMMANDS = {
    "check": ("cli_check", ("thin", "slim", "flexible", "order-flexible"), {
        "--r": int, "--method": ("mincut", "exhaustive", "bruteforce", "forest"),
        "--budget": int, "--cap": int,
    }, ()),
    "supertree": ("cli_supertree", None, {"--binary": None}, ()),
    "represent": ("cli_represent", ("median-caterpillar", "lca-caterpillar"),
                  {"--extra": str}, ()),
    "count": ("cli_count", None, {"--formula-n": int, "--cap": int}, ()),
    "sdr": ("cli_sdr", None, {"--B": str}, ("--B",)),
    "order": ("cli_order", None, {}, ()),
    "gen-defining": ("cli_gen_defining", None, {}, ()),
}
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


def _usage_exit(names, error: str | None = None):
    """Help on stdout and exit 0, or usage and `error` on stderr and exit 2."""
    if error is None:
        print(_usage(names) + DESCRIPTION, end="")
        raise SystemExit(0)
    sys.stderr.write(f"{_usage(names)}setflex: error: {error}\n")
    raise SystemExit(2)


def _option_like(token: str) -> bool:
    """As in argparse, '-' (stdin) and negative numbers are values, not options."""
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdecimal()


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _parse(argv: list[str]):
    """The handler module of the subcommand `argv` names, and its arguments."""
    if argv[:1] in (["-h"], ["--help"]):
        _usage_exit(COMMANDS)
    if not argv:
        _usage_exit(COMMANDS, "the following arguments are required: subcommand")
    name = argv[0]
    if name not in COMMANDS:
        _usage_exit(COMMANDS, f"argument subcommand: invalid choice: {name!r} "
                              f"(choose from {', '.join(COMMANDS)})")
    module, kinds, options, required = COMMANDS[name]
    options = {**options, **COMMON}

    def value(dest: str, kind, text: str):
        if isinstance(kind, tuple) and text not in kind:
            _usage_exit([name], f"argument {dest}: invalid choice: {text!r} "
                                f"(choose from {', '.join(kind)})")
        try:
            return int(text) if kind is int else text
        except ValueError:
            _usage_exit([name], f"argument {dest}: invalid int value: {text!r}")

    ns = SimpleNamespace(kind=None, input=None)
    for option, kind in options.items():
        setattr(ns, _dest(option), False if kind is None else None)
    # As in argparse, the first run of positionals fills kind and input,
    # and later positionals are left over.
    slots = [("kind", kinds), ("input", str)] if kinds else [("input", str)]
    run, extras = [], []
    tokens = iter([*argv[1:], None])  # None ends the last run
    for token in tokens:
        if token is not None and not _option_like(token):
            run.append(token)
            continue
        if run:
            for (dest, kind), text in zip(slots, run):
                setattr(ns, dest, value(dest, kind, text))
            extras += run[len(slots):]
            slots, run = [], []
        if token is None:
            break
        option, eq, text = token.partition("=")
        if option in ("-h", "--help"):
            _usage_exit([name])
        if option not in options:
            extras.append(token)
        elif options[option] is None:
            if eq:
                _usage_exit([name], f"argument {option}: ignored explicit argument {text!r}")
            setattr(ns, _dest(option), True)
        else:
            if not eq:
                text = next(tokens)
                if text is None or _option_like(text):
                    _usage_exit([name], f"argument {option}: expected one argument")
            setattr(ns, _dest(option), value(option, options[option], text))
    # A single leftover positional is the input: it followed the options.
    if len(extras) == 1 and ns.input is None and not _option_like(extras[0]):
        ns.input = extras.pop()
    missing = ["kind"] if kinds and ns.kind is None else []
    missing += [option for option in required if getattr(ns, _dest(option)) is None]
    if missing:
        _usage_exit([name], f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_exit([name], f"unrecognized arguments: {' '.join(extras)}")
    return module, ns


def _print_error(ns, exc: Exception) -> None:
    payload = {"error": str(exc)}
    if isinstance(exc, InternalVerificationError):
        payload["kind"] = "internal-verification"
    if isinstance(exc, PreconditionError) and isinstance(
        exc.certificate, graphopt.MinimizerReport
    ):
        payload["sigma_star"] = exc.certificate.value
        payload["witness_indices"] = list(exc.certificate.witness)
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)
        if "witness_indices" in payload:
            print(f"witness member indices: {payload['witness_indices']}",
                  file=sys.stderr)


def main(argv=None) -> int:
    module, ns = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_limits(ns)
        if getattr(ns, "budget", None) is None and hasattr(ns, "budget"):
            ns.budget = _default_budget()
        run = import_module(f".{module}", __package__).run
        t0 = time.perf_counter()
        code, payload, lines = run(ns)
    except CapExceededError as exc:
        _print_error(ns, exc)
        return 3
    except InputError as exc:
        _print_error(ns, exc)
        return 2
    except InternalVerificationError as exc:
        _print_error(ns, exc)
        return 4
    _emit(ns, payload, lines, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
