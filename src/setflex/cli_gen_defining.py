"""`setflex gen-defining`: the n-2 defining triples of a binary tree."""

from __future__ import annotations

from . import counting, newick
from .cli import _read_input


def run(ns) -> tuple[int, dict, list[str]]:
    tree = newick.parse_newick(_read_input(ns.input).strip())
    triples = [t.compact() for t in counting.defining_triples(tree)]
    return 0, {"command": "gen-defining", "triples": triples}, triples
