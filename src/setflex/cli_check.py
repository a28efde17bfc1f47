"""`setflex check {thin,slim,flexible,order-flexible}`: one verdict and its certificate."""

from __future__ import annotations

import json

from . import exhaustive, flex, graphopt, phylo, represent, setsys
from .cli import _given, _member_str, _read_input
from .errors import InputError


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


def run(ns) -> tuple[int, dict, list[str]]:
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
