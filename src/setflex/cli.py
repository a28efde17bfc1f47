"""Command-line interface.

Subcommands: check, supertree, represent, count, sdr, order,
gen-defining.  Exit codes: 0 verdict true / success, 1 verdict false
(with certificate), 2 usage or input error, 3 budget or cap exceeded,
4 an internal self-check failed (a bug; reported, never a traceback).
JSON output (--json) is byte-deterministic for a fixed input and flag
set: keys are sorted, label ordering is lexicographic, and timings are
printed only in human mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import flex, graphopt, phylo, represent, setsys
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


def _render_certificate(system: setsys.SetSystem, certificate) -> object:
    if certificate is None:
        return None
    if isinstance(certificate, setsys.ExcessReport):
        return {
            "excess": certificate.value,
            "leaf_count": certificate.leaf_count,
            "witness": [_member_str(system, i) for i in certificate.witness],
        }
    if isinstance(certificate, graphopt.MinimizerReport):
        return {
            "value": certificate.value,
            "witness": [_member_str(system, i) for i in certificate.witness],
        }
    return str(certificate)


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


def _flex_certificate(system: setsys.SetSystem, assignment) -> list[str]:
    lines = []
    for tree in assignment:
        if tree.leaf_count == 3:
            (t,) = phylo.triples_of(tree)
            lines.append(t.compact())
        else:
            lines.append(tree.newick())
    return lines


def _cmd_check(ns) -> int:
    t0 = time.perf_counter()
    system = setsys.require_members(setsys.parse_sets(_read_input(ns.input)))
    kind = ns.kind
    method = ns.method
    payload: dict = {"command": "check", "kind": kind}
    certificate_json = None

    cap_kwargs = _given(cap=ns.cap)
    if kind == "thin":
        r = ns.r if ns.r is not None else system.uniform_size()
        if r is None:
            raise InputError("members have mixed sizes; pass --r or check 'slim'")
        method = method or "mincut"
        if method == "mincut":
            report = graphopt.is_thin(system, r)
        elif method == "exhaustive":
            report = setsys.is_thin_exhaustive(system, r, **cap_kwargs)
        else:
            raise InputError(f"unsupported method {method!r} for thin")
        payload["r"] = r
        certificate_json = _render_certificate(system, report.certificate)
    elif kind == "slim":
        method = method or "mincut"
        if method == "mincut":
            report = graphopt.is_slim(system)
        elif method == "exhaustive":
            report = setsys.is_slim_exhaustive(system, **cap_kwargs)
        else:
            raise InputError(f"unsupported method {method!r} for slim")
        certificate_json = _render_certificate(system, report.certificate)
    elif kind == "flexible":
        method = method or "mincut"
        if method == "mincut":
            report = graphopt.is_slim(system)
        elif method == "bruteforce":
            scan = flex.is_flexible_bruteforce(system, **_given(budget=ns.budget))
            report = setsys.CheckReport(
                verdict=scan.verdict,
                method="bruteforce",
                certificate=scan.counterexample,
                stats={"assignments_checked": scan.assignments_checked},
                recheck="setflex.phylo.build_supertree",
            )
            if scan.counterexample is not None:
                certificate_json = _flex_certificate(system, scan.counterexample)
        else:
            raise InputError(f"unsupported method {method!r} for flexible")
        if method == "mincut":
            certificate_json = _render_certificate(system, report.certificate)
    elif kind == "order-flexible":
        method = method or "forest"
        report = represent.is_total_order_flexible(system, mode=method, **cap_kwargs)
        certificate_json = _render_order_certificate(system, report)
    else:
        raise InputError(f"unknown check kind {kind!r}")

    payload["verdict"] = report.verdict
    payload["method"] = report.method
    for key in ("sigma_star", "gamma_star"):
        if key in report.stats:
            payload[key] = report.stats[key]
    if certificate_json is not None:
        payload["certificate"] = certificate_json
    if report.recheck:
        payload["recheck"] = report.recheck
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
    _emit(ns, payload, lines, time.perf_counter() - t0)
    return 0 if report.verdict else 1


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


def _cmd_supertree(ns) -> int:
    t0 = time.perf_counter()
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
        _emit(ns, payload, lines, time.perf_counter() - t0)
        return 1
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
    _emit(ns, payload, [tree.newick()], time.perf_counter() - t0)
    return 0


# -- represent --------------------------------------------------------------------


def _cmd_represent(ns) -> int:
    t0 = time.perf_counter()
    system = setsys.parse_sets(_read_input(ns.input))
    if ns.extra:
        extras = [lab.strip() for lab in ns.extra.split(",") if lab.strip()]
        sets = [system.member_labels(i) for i in range(system.member_count)]
        system = setsys.SetSystem(sets, extra_taxa=extras)
    if ns.kind == "median-caterpillar":
        report = represent.caterpillar_median_representation(system)
    elif ns.kind == "lca-caterpillar":
        report = represent.lca_caterpillar_representation(system)
    else:
        raise InputError(f"unknown representation kind {ns.kind!r}")
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
    _emit(ns, payload, lines, time.perf_counter() - t0)
    return 0


# -- count ------------------------------------------------------------------------


def _cmd_count(ns) -> int:
    t0 = time.perf_counter()
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
    method = (
        "both"
        if enumerated is not None and formula is not None
        else "enumeration"
        if enumerated is not None
        else "formula"
    )
    payload = {"command": "count", "count": count, "method": method}
    _emit(ns, payload, [str(count)], time.perf_counter() - t0)
    return 0


# -- sdr --------------------------------------------------------------------------


def _cmd_sdr(ns) -> int:
    t0 = time.perf_counter()
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
        _emit(ns, payload, lines, time.perf_counter() - t0)
        return 0
    violator_sets = [
        [system.label_of(x) for x in report.derived[i]] for i in report.violator
    ]
    payload = {
        "command": "sdr",
        "found": False,
        "violator_members": [_member_str(system, i) for i in report.violator],
        "violator_derived": violator_sets,
    }
    lines = ["no system of distinct representatives"]
    lines.append(
        "violator: " + "; ".join(",".join(s) if s else "-" for s in violator_sets)
    )
    _emit(ns, payload, lines, time.perf_counter() - t0)
    return 1


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


def _cmd_order(ns) -> int:
    t0 = time.perf_counter()
    pairs = _parse_orientation(_read_input(ns.input))
    universe = sorted({x for pair in pairs for x in pair})
    report = represent.extend_to_total_order(universe, pairs)
    if report.extendable:
        payload = {"command": "order", "extendable": True, "order": list(report.order)}
        _emit(ns, payload, [" < ".join(report.order)], time.perf_counter() - t0)
        return 0
    payload = {"command": "order", "extendable": False, "cycle": list(report.cycle)}
    lines = ["not extendable", "cycle: " + " < ".join(report.cycle) + f" < {report.cycle[0]}"]
    _emit(ns, payload, lines, time.perf_counter() - t0)
    return 1


# -- gen-defining -------------------------------------------------------------------


def _cmd_gen_defining(ns) -> int:
    t0 = time.perf_counter()
    tree = phylo.parse_newick(_read_input(ns.input).strip())
    triples = flex.defining_triples(tree)
    payload = {
        "command": "gen-defining",
        "triples": [t.compact() for t in triples],
    }
    _emit(ns, payload, [t.compact() for t in triples], time.perf_counter() - t0)
    return 0


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setflex",
        description="Decide thin/slim/flexible taxon coverage and build certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--no-stats", action="store_true", help="suppress stats/timing output"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common], help="decide a coverage property")
    p.add_argument("kind", choices=["thin", "slim", "flexible", "order-flexible"])
    p.add_argument("input", nargs="?", help="set-system file (default stdin)")
    p.add_argument("--r", type=int, default=None, help="uniform member size for thin")
    p.add_argument(
        "--method",
        choices=["mincut", "exhaustive", "bruteforce", "forest"],
        default=None,
        help="override the default polynomial method",
    )
    p.add_argument("--budget", type=int, default=None, help="brute-force budget")
    p.add_argument(
        "--cap", type=int, default=None, help="exhaustive/orientation cap override"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "supertree", parents=[common], help="run the supertree construction"
    )
    p.add_argument("input", nargs="?", help="triples/Newick file (default stdin)")
    p.add_argument(
        "--binary", action="store_true", help="refine the result to a binary tree"
    )
    p.set_defaults(func=_cmd_supertree)

    p = sub.add_parser(
        "represent", parents=[common], help="build a caterpillar representation"
    )
    p.add_argument("kind", choices=["median-caterpillar", "lca-caterpillar"])
    p.add_argument("input", nargs="?", help="set-system file (default stdin)")
    p.add_argument(
        "--extra", default=None, help="comma-separated extra taxa for the universe"
    )
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("count", parents=[common], help="count displaying trees")
    p.add_argument("input", nargs="?", help="triples file")
    p.add_argument("--formula-n", type=int, default=None, help="closed-form n (3|n)")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "sdr", parents=[common], help="system of distinct representatives"
    )
    p.add_argument("input", nargs="?", help="set-system file (default stdin)")
    p.add_argument("--B", required=True, help="comma-separated removed taxa (size r-1)")
    p.set_defaults(func=_cmd_sdr)

    p = sub.add_parser(
        "order", parents=[common], help="extend ordered pairs to a total order"
    )
    p.add_argument("input", nargs="?", help="orientation file of x,y lines")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser(
        "gen-defining", parents=[common], help="defining triples of a binary tree"
    )
    p.add_argument("input", nargs="?", help="Newick file (default stdin)")
    p.set_defaults(func=_cmd_gen_defining)
    return parser


def _print_error(ns, exc: Exception) -> None:
    json_mode = bool(getattr(ns, "json", False))
    payload = {"error": str(exc)}
    if isinstance(exc, InternalVerificationError):
        payload["kind"] = "internal-verification"
    if isinstance(exc, PreconditionError) and isinstance(
        exc.certificate, graphopt.MinimizerReport
    ):
        payload["sigma_star"] = exc.certificate.value
        payload["witness_indices"] = list(exc.certificate.witness)
    if json_mode:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)
        if "witness_indices" in payload:
            print(f"witness member indices: {payload['witness_indices']}",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    ns, extras = parser.parse_known_args(argv)
    # argparse fills an optional `input` with nothing when it reads the
    # positionals before the options, so an input path after the options
    # is left over; take it as the input.
    if len(extras) == 1 and ns.input is None and (
        extras[0] == "-" or not extras[0].startswith("-")
    ):
        ns.input = extras.pop()
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        _check_limits(ns)
        if getattr(ns, "budget", None) is None and hasattr(ns, "budget"):
            ns.budget = _default_budget()
        return ns.func(ns)
    except CapExceededError as exc:
        _print_error(ns, exc)
        return 3
    except InputError as exc:
        _print_error(ns, exc)
        return 2
    except InternalVerificationError as exc:
        _print_error(ns, exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
