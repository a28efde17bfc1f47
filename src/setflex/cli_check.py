"""`setflex check {thin,slim,flexible,order-flexible}`: one verdict and its certificate."""

from __future__ import annotations

import os

from . import exhaustive, flex, graphopt, pairs, phylo, setsys
from .cli import _given, _member_str, _read_input, dumps
from .errors import InputError, check_limit


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


def _flex_certificate(assignment) -> list[str]:
    lines = []
    for tree in assignment:
        if tree.leaf_count == 3:
            (t,) = phylo.triples_of(tree)
            lines.append(t.compact())
        else:
            lines.append(tree.newick())
    return lines


# Check kind -> the methods it runs, the default first.
METHODS = {"thin": ("mincut", "exhaustive"), "slim": ("mincut", "exhaustive"),
           "flexible": ("mincut", "bruteforce"), "order-flexible": ("forest", "bruteforce")}


def run(ns) -> tuple[int, dict, list[str]]:
    kind = ns.kind
    method = ns.method or METHODS[kind][0]
    # An option the check would not read is an error, not a silent no-op;
    # it and a method the kind does not run are rejected before any input
    # is read.
    reads = {"--r": kind == "thin",
             "--budget": kind == "flexible" and method == "bruteforce",
             "--cap": method in ("exhaustive", "bruteforce")}
    for option, read in reads.items():
        if getattr(ns, option[2:]) is not None and not read:
            raise InputError(f"check {kind} --method {method} does not read {option}")
    if method not in METHODS[kind]:
        raise InputError(f"unsupported method {method!r} for {kind}")
    system = setsys.require_members(setsys.parse_sets(_read_input(ns.input)))
    payload: dict = {"command": "check", "kind": kind}
    cap_kwargs = _given(cap=ns.cap)
    if kind == "thin":
        r = payload["r"] = ns.r if ns.r is not None else system.uniform_size()
        if r is None:
            raise InputError("members have mixed sizes; check 'slim' instead")
    if kind == "order-flexible":
        report = pairs.is_total_order_flexible(system, mode=method, **cap_kwargs)
        certificate_json = _render_order_certificate(system, report)
    elif kind == "flexible" and method == "bruteforce":
        # The scan alone reads a budget, so it alone reads SETFLEX_BUDGET.
        budget, raw = ns.budget, os.environ.get("SETFLEX_BUDGET")
        if budget is None and raw is not None:
            try:
                budget = check_limit("SETFLEX_BUDGET", int(raw))
            except ValueError:
                raise InputError(f"SETFLEX_BUDGET must be an integer, got {raw!r}") from None
        report = flex.is_flexible_bruteforce(system, **_given(budget=budget, enum_cap=ns.cap))
        certificate_json = report.certificate
        if certificate_json is not None:
            certificate_json = _flex_certificate(certificate_json)
    else:
        if method == "mincut":
            report = graphopt.is_thin(system, r) if kind == "thin" else graphopt.is_slim(system)
        elif kind == "thin":
            report = exhaustive.is_thin_exhaustive(system, r, **cap_kwargs)
        else:
            report = exhaustive.is_slim_exhaustive(system, **cap_kwargs)
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
        lines.append(f"certificate: {dumps(certificate_json)}")
    return (0 if report.verdict else 1), payload, lines
