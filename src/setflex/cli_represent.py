"""`setflex represent {median-caterpillar,lca-caterpillar}`: a verified caterpillar."""

from __future__ import annotations

from . import pairs, represent, setsys
from .cli import _member_str, _read_input, dumps


def run(ns) -> tuple[int, dict, list[str]]:
    system = setsys.parse_sets(_read_input(ns.input))
    if ns.extra:
        extras = [lab.strip() for lab in ns.extra.split(",") if lab.strip()]
        sets = [system.member_labels(i) for i in range(system.member_count)]
        system = setsys.SetSystem(sets, extra_taxa=[*system.universe, *extras])
    if ns.kind == "median-caterpillar":
        report = represent.caterpillar_median_representation(system)
    else:
        report = pairs.lca_caterpillar_representation(system)
    vertex_map = {
        _member_str(system, i): v for i, v in sorted(report.vertex_map.items())
    }
    newick = report.tree.newick()
    payload = {
        "command": "represent",
        "kind": report.kind,
        "newick": newick,
        "sequence": list(report.sequence),
        "vertex_map": vertex_map,
        # A representation that fails its self-check raises instead.
        "verified": True,
        "appended_taxa": list(report.appended),
    }
    lines = [
        newick,
        "verified: yes",
        f"vertex_map: {dumps(vertex_map)}",
    ]
    if report.appended:
        lines.append(f"appended_taxa: {','.join(report.appended)}")
    return 0, payload, lines
