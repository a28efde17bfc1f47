"""`setflex count`: trees displaying disjoint triples, enumerated or by formula."""

from __future__ import annotations

from . import flex, phylo
from .cli import _given, _read_input
from .errors import InputError


def run(ns) -> tuple[int, dict, list[str]]:
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
