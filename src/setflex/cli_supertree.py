"""`setflex supertree`: BUILD on Newick trees and triples, self-checked."""

from __future__ import annotations

from . import phylo
from .cli import _read_input
from .errors import InputError, InternalVerificationError


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


def run(ns) -> tuple[int, dict, list[str]]:
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
