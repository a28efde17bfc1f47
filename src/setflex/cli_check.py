"""`setflex check {thin,slim,flexible,order-flexible}`: one verdict and its certificate.

`CHECKS` is the whole command: one row per (kind, method), and a kind's
first row is its default method.  Each row's check looks its layer up
when it runs, so a request loads only the layer it calls, and a tracer
that wraps a layer's functions sees the call.
"""

from __future__ import annotations

from . import exhaustive, flex, graphopt, pairs, phylo, setsys
from .cli import _given, _member_str, _read_input, dumps
from .errors import InputError


def _cut_witness(system: setsys.SetSystem, report) -> dict:
    """A min-cut "no": the minimum and the selection that reaches it."""
    return {"value": report.value, "witness": [_member_str(system, i) for i in report.witness]}


def _excess_witness(system: setsys.SetSystem, report) -> dict:
    """An exhaustive "no": the least excess, its selection and their leaf count."""
    return {"excess": report.value, "leaf_count": report.leaf_count,
            "witness": [_member_str(system, i) for i in report.witness]}


def _tree_lines(system: setsys.SetSystem, assignment) -> list[str]:
    """A failing assignment, one tree per member: a triple in compact form."""
    lines = []
    for tree in assignment:
        if tree.leaf_count == 3:
            (t,) = phylo.triples_of(tree)
            lines.append(t.compact())
        else:
            lines.append(tree.newick())
    return lines


def _labelled_cycle(system: setsys.SetSystem, cycle) -> dict:
    """A forest test's "no": its member and taxon nodes by label."""
    return {"cycle": [_member_str(system, value) if node == "member" else system.label_of(value)
                      for node, value in cycle]}


def _failing_orientation(system: setsys.SetSystem, certificate) -> dict:
    """The orientation scan's "no": the first failing orientation and its cycle."""
    orientation, cycle = certificate
    return {"orientation": [list(pair) for pair in orientation], "cycle": list(cycle)}


def _r(system: setsys.SetSystem) -> dict:
    return {"r": system.uniform_size()}


# (kind, method) -> (check, the limits it reads, its "no"-certificate
# renderer, and the fields it adds to the --json payload: a thin check's
# r, the members' size).
CHECKS = {
    ("thin", "mincut"): (lambda s: graphopt.is_thin(s), (), _cut_witness, _r),
    ("thin", "exhaustive"): (
        lambda s, **k: exhaustive.is_thin_exhaustive(s, **k), ("cap",), _excess_witness, _r),
    ("slim", "mincut"): (lambda s: graphopt.is_slim(s), (), _cut_witness, None),
    ("slim", "exhaustive"): (
        lambda s, **k: exhaustive.is_slim_exhaustive(s, **k), ("cap",), _excess_witness, None),
    ("flexible", "mincut"): (lambda s: graphopt.is_slim(s), (), _cut_witness, None),
    ("flexible", "bruteforce"): (
        lambda s, **k: flex.is_flexible_bruteforce(s, **k), ("budget", "cap"), _tree_lines, None),
    ("order-flexible", "forest"): (
        lambda s: pairs.is_total_order_flexible(s), (), _labelled_cycle, None),
    ("order-flexible", "bruteforce"): (
        lambda s, **k: pairs.is_total_order_flexible_bruteforce(s, **k), ("cap",),
        _failing_orientation, None),
}


def run(ns) -> tuple[int, dict, list[str]]:
    kind = ns.kind
    method = ns.method or next(m for k, m in CHECKS if k == kind)
    # A method the kind does not run, and an option its check would not
    # read, are errors, not silent no-ops, and are raised before any
    # input is read.
    if (kind, method) not in CHECKS:
        raise InputError(f"unsupported method {method!r} for {kind}")
    check, reads, render, fields = CHECKS[kind, method]
    for limit in ("budget", "cap"):
        if getattr(ns, limit) is not None and limit not in reads:
            raise InputError(f"check {kind} --method {method} does not read --{limit}")
    system = setsys.require_members(setsys.parse_sets(_read_input(ns.input)))
    report = check(system, **_given(**{limit: getattr(ns, limit) for limit in reads}))

    payload = {"command": "check", "kind": kind, "verdict": report.verdict,
               "method": report.method, **(fields(system) if fields else {})}
    lines = [f"{kind}: {'yes' if report.verdict else 'no'} (method={report.method})"]
    for key in ("sigma_star", "gamma_star"):
        if key in report.stats:
            payload[key] = report.stats[key]
            lines.append(f"{key.replace('_star', '*')}: {report.stats[key]}")
    if not report.verdict:
        certificate = payload["certificate"] = render(system, report.certificate)
        if isinstance(certificate, list):
            # Brute-force counterexample: one assigned tree per line.
            lines += ["counterexample:", *certificate]
        else:
            lines.append(f"certificate: {dumps(certificate)}")
    payload["stats"] = dict(report.stats)
    return (0 if report.verdict else 1), payload, lines
