"""Tree input: Newick and triple files, cluster display, binary refinement.

Only requests that read whole trees or triple files run this code, so
the flexibility scan and a triple-only `supertree` do not compile it.
Newick is restricted: no branch lengths, quoted or internal labels.
`parse_newick` still recurses.
"""

from __future__ import annotations

from . import phylo
from .errors import InputError, ParseError
from .rooted import RootedPhyloTree, _fold


def parse_triples_text(text: str) -> list[phylo.RootedTriple]:
    """Parse triples, one per line, as a,b|c or as 3-leaf Newick trees.

    Lines ending in ';' are parsed as Newick and must be binary trees on
    three leaves; larger trees are rejected here (`setflex supertree`
    reads whole trees).
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(";"):
            tree = parse_newick(line)
            if tree.leaf_count != 3 or not tree.is_binary():
                raise ParseError(f"line {lineno}: not a rooted triple: {line!r}")
            (t,) = phylo.triples_of(tree)
            out.append(t)
        else:
            out.append(phylo.parse_triple(line))
    return out


def parse_newick(text: str) -> RootedPhyloTree:
    """Strict Newick parser: no branch lengths, quotes, or internal labels."""
    s = text
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def parse_clade():
        nonlocal pos
        skip_ws()
        if pos >= len(s):
            raise ParseError("unexpected end of input", pos)
        if s[pos] == "(":
            pos += 1
            children = [parse_clade()]
            skip_ws()
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(parse_clade())
                skip_ws()
            if pos >= len(s) or s[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            skip_ws()
            if pos < len(s) and s[pos] == ":":
                raise ParseError("branch lengths are not supported", pos)
            if pos < len(s) and s[pos] not in "(),;":
                raise ParseError("internal labels are not supported", pos)
            if len(children) < 2:
                raise ParseError("interior vertex with out-degree < 2", pos)
            return tuple(children)
        if s[pos] in "'\"":
            raise ParseError("quoted labels are not supported", pos)
        start = pos
        while pos < len(s) and s[pos] not in "(),;:" and not s[pos].isspace():
            pos += 1
        if pos == start:
            raise ParseError(f"expected a label, found {s[pos]!r}", pos)
        if pos < len(s) and s[pos] == ":":
            raise ParseError("branch lengths are not supported", pos)
        return s[start:pos]

    try:
        shape = parse_clade()
    except RecursionError:
        # One frame per nesting level; an explicit stack of open clades
        # would lift this limit.
        raise ParseError("Newick nested too deeply") from None
    skip_ws()
    if pos >= len(s) or s[pos] != ";":
        raise ParseError("missing terminating ';'", pos)
    pos += 1
    skip_ws()
    if pos != len(s):
        raise ParseError("trailing characters after ';'", pos)
    try:
        return RootedPhyloTree(shape)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def displays_clusters(host: RootedPhyloTree, guest: RootedPhyloTree) -> bool:
    """True iff every cluster of guest is a cluster of host restricted to L(guest).

    The clusters of that restriction are the C(v) & L(guest) over the
    host's vertices, so one pass over each tree's masks decides it.  It
    is the same as host displaying every rooted triple of guest: a
    guest triple ab|c has a guest cluster holding a and b but not c; and
    if a guest cluster C is missing, the host lca v of C has a leaf c of
    L(guest) below it outside C and leaves a, b of C below two different
    children, so the host does not display the guest's ab|c.
    """
    bits = host._ensure_index()[4]
    missing = set(guest.leaves) - bits.keys()
    if missing:
        raise InputError(f"guest leaves not in host: {sorted(missing)}")
    shapes, _, child_ids, _, _ = guest._ensure_index()
    # Guest clusters in host bits, children before parents.
    mapped = [0] * len(shapes)
    for v in range(len(shapes) - 1, -1, -1):
        if child_ids[v]:
            for c in child_ids[v]:
                mapped[v] |= mapped[c]
        else:
            mapped[v] = bits[shapes[v]]
    span = mapped[0]
    return {m & span for m in host._ensure_index()[3]}.issuperset(mapped)


def make_binary(tree: RootedPhyloTree) -> RootedPhyloTree:
    """Deterministic binary refinement: fold children left-leaning in canonical order."""

    def refine(kids: list):
        acc = kids[0]
        for nxt in kids[1:]:
            acc = (acc, nxt)
        return acc

    return RootedPhyloTree(_fold(tree.shape, lambda leaf: leaf, refine))
