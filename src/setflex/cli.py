"""Command-line interface.

Subcommands: check, supertree, represent, count, sdr, order,
gen-defining.  `COMMANDS` maps each to its handler, its kind choices
and its options, and one loop parses argv against it: every request is
a fresh interpreter, and importing argparse and building its parser
cost more than the parse.  A handler returns its exit code, JSON
payload and human lines; `main` times it and prints them.  Exit codes:
0 verdict true / success, 1 verdict false (with certificate), 2 usage
or input error, 3 budget or cap exceeded, 4 an internal self-check
failed (a bug; reported, never a traceback).  JSON output (--json) is
byte-deterministic for a fixed input and flag set: keys are sorted,
label ordering is lexicographic, and timings are printed only in human
mode.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

from . import exhaustive, flex, graphopt, phylo, represent, setsys
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


def _render_certificate(system: setsys.SetSystem, report) -> object:
    """An exhaustive check's `ExcessReport` or a min-cut check's
    `MinimizerReport`, told apart by the report's method, or None."""
    certificate = report.certificate
    if certificate is None:
        return None
    witness = [_member_str(system, i) for i in certificate.witness]
    if report.method == "exhaustive":
        return {
            "excess": certificate.value,
            "leaf_count": certificate.leaf_count,
            "witness": witness,
        }
    return {"value": certificate.value, "witness": witness}


def _render_order_certificate(system: setsys.SetSystem, report) -> object:
    """Certificates of order-flexibility checks, per method."""
    if report.certificate is None:
        return None
    if report.method == "bruteforce":
        orientation, cycle = report.certificate
        return {
            "orientation": [list(pair) for pair in orientation],
            "cycle": list(cycle),
        }
    # Forest mode: a bipartite cycle of ("member", i) / ("taxon", id) nodes.
    rendered = []
    for kind, value in report.certificate:
        if kind == "member":
            rendered.append(_member_str(system, value))
        else:
            rendered.append(system.label_of(value))
    return {"cycle": rendered}


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
            print(f"time: {elapsed * 1000:.1f} ms")


# -- check ----------------------------------------------------------------------


def _flex_certificate(assignment) -> list[str]:
    lines = []
    for tree in assignment:
        if tree.leaf_count == 3:
            (t,) = phylo.triples_of(tree)
            lines.append(t.compact())
        else:
            lines.append(tree.newick())
    return lines


def _cmd_check(ns) -> tuple[int, dict, list[str]]:
    system = setsys.require_members(setsys.parse_sets(_read_input(ns.input)))
    kind = ns.kind
    method = ns.method or ("forest" if kind == "order-flexible" else "mincut")
    payload: dict = {"command": "check", "kind": kind}
    cap_kwargs = _given(cap=ns.cap)
    if kind == "thin":
        r = payload["r"] = ns.r if ns.r is not None else system.uniform_size()
        if r is None:
            raise InputError("members have mixed sizes; pass --r or check 'slim'")
    if kind == "order-flexible":
        if method not in ("forest", "bruteforce"):
            raise InputError(f"unsupported method {method!r} for {kind}")
        report = represent.is_total_order_flexible(system, mode=method, **cap_kwargs)
        certificate_json = _render_order_certificate(system, report)
    elif kind == "flexible" and method == "bruteforce":
        scan = flex.is_flexible_bruteforce(
            system, **_given(budget=ns.budget, enum_cap=ns.cap)
        )
        report = setsys.CheckReport(
            verdict=scan.verdict,
            method="bruteforce",
            certificate=scan.counterexample,
            stats={"assignments_checked": scan.assignments_checked,
                   "core_members": scan.core_members},
        )
        certificate_json = scan.counterexample
        if certificate_json is not None:
            certificate_json = _flex_certificate(certificate_json)
    else:
        if method == "mincut":
            report = graphopt.is_thin(system, r) if kind == "thin" else graphopt.is_slim(system)
        elif method == "exhaustive" and kind == "thin":
            report = exhaustive.is_thin_exhaustive(system, r, **cap_kwargs)
        elif method == "exhaustive" and kind == "slim":
            report = exhaustive.is_slim_exhaustive(system, **cap_kwargs)
        else:
            raise InputError(f"unsupported method {method!r} for {kind}")
        certificate_json = _render_certificate(system, report)

    payload["verdict"] = report.verdict
    payload["method"] = report.method
    for key in ("sigma_star", "gamma_star"):
        if key in report.stats:
            payload[key] = report.stats[key]
    if certificate_json is not None:
        payload["certificate"] = certificate_json
    payload["stats"] = dict(report.stats)

    lines = [f"{kind}: {'yes' if report.verdict else 'no'} (method={report.method})"]
    for key in ("sigma_star", "gamma_star"):
        if key in report.stats:
            lines.append(f"{key.replace('_star', '*')}: {report.stats[key]}")
    if isinstance(certificate_json, list):
        # Brute-force counterexample: one assigned tree per line.
        lines.append("counterexample:")
        lines.extend(certificate_json)
    elif certificate_json is not None:
        lines.append(f"certificate: {json.dumps(certificate_json, sort_keys=True)}")
    return (0 if report.verdict else 1), payload, lines


# -- supertree --------------------------------------------------------------------


def _parse_trees_and_triples(text: str):
    """Newick lines as (line number, tree) and a,b|c lines as triples."""
    trees: list[tuple[int, phylo.RootedPhyloTree]] = []
    triples: list[phylo.RootedTriple] = []
    taxa: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(";"):
            tree = phylo.parse_newick(line)
            taxa.update(tree.leaves)
            trees.append((lineno, tree))
        else:
            t = phylo.parse_triple(line)
            taxa.update(t.taxa)
            triples.append(t)
    if not taxa:
        raise InputError("no trees or triples in input")
    return trees, triples, taxa


def _cmd_supertree(ns) -> tuple[int, dict, list[str]]:
    trees, triples, taxa = _parse_trees_and_triples(_read_input(ns.input))
    # Spanning triples give BUILD the same answer as all triples of a tree.
    pooled = [t for _, tree in trees for t in phylo.spanning_triples(tree)]
    result = phylo.build_supertree(pooled + triples, taxa=taxa)
    if not result.compatible:
        payload = {
            "command": "supertree",
            "compatible": False,
            "witness": list(result.witness),
        }
        lines = [
            "incompatible",
            f"witness: {','.join(result.witness)}",
        ]
        return 1, payload, lines
    tree = phylo.make_binary(result.tree) if ns.binary else result.tree
    # Displaying a tree's clusters is displaying all of its triples.
    for lineno, guest in trees:
        if not phylo.displays_clusters(tree, guest):
            raise InternalVerificationError(
                f"supertree does not display the tree on line {lineno}"
            )
    for t in triples:
        if not phylo.displays_triple(tree, t):
            raise InternalVerificationError(f"supertree does not display {t.compact()}")
    payload = {
        "command": "supertree",
        "compatible": True,
        "newick": tree.newick(),
    }
    return 0, payload, [tree.newick()]


# -- represent --------------------------------------------------------------------


def _cmd_represent(ns) -> tuple[int, dict, list[str]]:
    system = setsys.parse_sets(_read_input(ns.input))
    if ns.extra:
        extras = [lab.strip() for lab in ns.extra.split(",") if lab.strip()]
        sets = [system.member_labels(i) for i in range(system.member_count)]
        system = setsys.SetSystem(sets, extra_taxa=[*system.universe, *extras])
    if ns.kind == "median-caterpillar":
        report = represent.caterpillar_median_representation(system)
    else:
        report = represent.lca_caterpillar_representation(system)
    vertex_map = {
        _member_str(system, i): v for i, v in sorted(report.vertex_map.items())
    }
    payload = {
        "command": "represent",
        "kind": report.kind,
        "newick": report.tree.newick(),
        "sequence": list(report.sequence),
        "vertex_map": vertex_map,
        "verified": report.verified,
        "appended_taxa": list(report.appended),
    }
    lines = [
        report.tree.newick(),
        f"verified: {'yes' if report.verified else 'no'}",
        f"vertex_map: {json.dumps(vertex_map, sort_keys=True)}",
    ]
    if report.appended:
        lines.append(f"appended_taxa: {','.join(report.appended)}")
    return 0, payload, lines


# -- count ------------------------------------------------------------------------


def _cmd_count(ns) -> tuple[int, dict, list[str]]:
    enumerated = None
    formula = None
    if ns.input is not None:
        triples = phylo.parse_triples_text(_read_input(ns.input))
        if not triples:
            raise InputError("no triples in input")
        trees = [t.as_tree() for t in triples]
        taxa = set()
        for t in triples:
            taxa |= t.taxa
        enumerated = flex.count_displaying(trees, taxa, **_given(cap=ns.cap))
    if ns.formula_n is not None:
        formula = flex.disjoint_count_formula(ns.formula_n)
    if enumerated is None and formula is None:
        raise InputError("provide a triples file, --formula-n, or both")
    if enumerated is not None and formula is not None and enumerated != formula:
        raise InputError(
            f"enumerated count {enumerated} does not match formula value {formula}"
        )
    count = enumerated if enumerated is not None else formula
    method = "formula" if enumerated is None else "enumeration" if formula is None else "both"
    payload = {"command": "count", "count": count, "method": method}
    return 0, payload, [str(count)]


# -- sdr --------------------------------------------------------------------------


def _cmd_sdr(ns) -> tuple[int, dict, list[str]]:
    system = setsys.parse_sets(_read_input(ns.input))
    b_labels = [lab.strip() for lab in ns.B.split(",") if lab.strip()]
    report = graphopt.sdr(system, b_labels)
    if report.found:
        assignment = {
            _member_str(system, i): system.label_of(x)
            for i, x in report.assignment.items()
        }
        payload = {"command": "sdr", "found": True, "assignment": assignment}
        lines = [f"{k} -> {v}" for k, v in sorted(assignment.items())]
        return 0, payload, lines
    violator_sets = [
        [system.label_of(x) for x in report.derived[i]] for i in report.violator
    ]
    payload = {
        "command": "sdr",
        "found": False,
        "violator_members": [_member_str(system, i) for i in report.violator],
        "violator_derived": violator_sets,
    }
    lines = [
        "no system of distinct representatives",
        "violator: " + "; ".join(",".join(s) if s else "-" for s in violator_sets),
    ]
    return 1, payload, lines


# -- order ------------------------------------------------------------------------


def _parse_orientation(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise InputError(
                f"line {lineno}: expected an ordered pair 'x,y', got {raw!r}"
            )
        pairs.append((parts[0], parts[1]))
    return pairs


def _cmd_order(ns) -> tuple[int, dict, list[str]]:
    pairs = _parse_orientation(_read_input(ns.input))
    universe = sorted({x for pair in pairs for x in pair})
    report = represent.extend_to_total_order(universe, pairs)
    if report.extendable:
        payload = {"command": "order", "extendable": True, "order": list(report.order)}
        return 0, payload, [" < ".join(report.order)]
    payload = {"command": "order", "extendable": False, "cycle": list(report.cycle)}
    lines = ["not extendable", "cycle: " + " < ".join(report.cycle) + f" < {report.cycle[0]}"]
    return 1, payload, lines


# -- gen-defining -------------------------------------------------------------------


def _cmd_gen_defining(ns) -> tuple[int, dict, list[str]]:
    tree = phylo.parse_newick(_read_input(ns.input).strip())
    triples = [t.compact() for t in flex.defining_triples(tree)]
    return 0, {"command": "gen-defining", "triples": triples}, triples


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


# Subcommand -> (handler, kind choices or None, options, required options).
# An option's value type is int, str, a tuple of choices or None (a flag);
# every subcommand also takes the COMMON flags.  A handler returns (exit
# code, JSON payload, human-readable lines).
COMMON = {"--json": None, "--no-stats": None}
COMMANDS = {
    "check": (_cmd_check, ("thin", "slim", "flexible", "order-flexible"), {
        "--r": int, "--method": ("mincut", "exhaustive", "bruteforce", "forest"),
        "--budget": int, "--cap": int,
    }, ()),
    "supertree": (_cmd_supertree, None, {"--binary": None}, ()),
    "represent": (_cmd_represent, ("median-caterpillar", "lca-caterpillar"),
                  {"--extra": str}, ()),
    "count": (_cmd_count, None, {"--formula-n": int, "--cap": int}, ()),
    "sdr": (_cmd_sdr, None, {"--B": str}, ("--B",)),
    "order": (_cmd_order, None, {}, ()),
    "gen-defining": (_cmd_gen_defining, None, {}, ()),
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
    """The handler of the subcommand `argv` names, and its arguments."""
    if argv[:1] in (["-h"], ["--help"]):
        _usage_exit(COMMANDS)
    if not argv:
        _usage_exit(COMMANDS, "the following arguments are required: subcommand")
    name = argv[0]
    if name not in COMMANDS:
        _usage_exit(COMMANDS, f"argument subcommand: invalid choice: {name!r} "
                              f"(choose from {', '.join(COMMANDS)})")
    handler, kinds, options, required = COMMANDS[name]
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
    return handler, ns


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
    handler, ns = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_limits(ns)
        if getattr(ns, "budget", None) is None and hasattr(ns, "budget"):
            ns.budget = _default_budget()
        t0 = time.perf_counter()
        code, payload, lines = handler(ns)
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
