"""`setflex represent {median-caterpillar,lca-caterpillar}`: a verified caterpillar."""

from __future__ import annotations

import json

from . import represent, setsys
from .cli import _member_str, _read_input


def run(ns) -> tuple[int, dict, list[str]]:
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
