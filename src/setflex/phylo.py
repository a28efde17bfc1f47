"""Rooted triples, the display relation, and supertrees.

Trees themselves (canonical shapes, preorder indexing, the lca table
and `_three`) are in `rooted`; this module imports them, so
`phylo.RootedPhyloTree` is `rooted.RootedPhyloTree`.  The Newick and
triple-file parsers, `displays_clusters` and `make_binary` are in
`newick`, which the flexibility scan does not compile.

Leaf sets inside BUILD are integer bitmasks over the sorted leaf labels,
as clusters are in `rooted`.  `displays_triple` and `triples_of` answer
through `rooted._three` off the tree's lca table.  Whole trees enter
BUILD as their `spanning_triples`, n-2 for a binary tree, not as all
C(n,3) of `triples_of`.  BUILD (Aho et al., 1981) runs on
`(cherry_mask, all_mask)` pairs with an explicit stack of scopes;
`_components`, its union-find over leaf bits, is the one routine that
splits a scope into cluster-graph components, and `counting` counts
displaying trees with it.

The benchmark's tracer still looks up `parse_newick` and
`parse_triples_text` here; `__getattr__` forwards them to `newick`
until it looks names up where they live (ROADMAP item 1).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import InputError, ParseError, check_label
from .rooted import RootedPhyloTree, Shape, _three


def __getattr__(name: str):
    # The tracer's names for code in `newick`, imported only when looked up.
    if name in ("parse_newick", "parse_triples_text"):
        from . import newick

        return getattr(newick, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RootedTriple(NamedTuple):
    """The rooted tree xy|z on three leaves; the cherry pair is sorted."""

    first: str
    second: str
    out: str

    @classmethod
    def of(cls, a: str, b: str, c: str) -> "RootedTriple":
        for lab in (a, b, c):
            check_label(lab)
        if len({a, b, c}) != 3:
            raise InputError(f"rooted triple needs three distinct taxa, got {a, b, c}")
        a, b = sorted((a, b))
        return cls(a, b, c)

    @property
    def cherry(self) -> frozenset[str]:
        return frozenset((self.first, self.second))

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset((self.first, self.second, self.out))

    def compact(self) -> str:
        return f"{self.first},{self.second}|{self.out}"

    def as_tree(self) -> RootedPhyloTree:
        return RootedPhyloTree(((self.first, self.second), self.out))


def parse_triple(text: str) -> RootedTriple:
    """Parse the compact form a,b|c (labels may be multi-character)."""
    body = text.strip()
    if body.count("|") != 1:
        raise ParseError(f"triple must contain exactly one '|': {text!r}")
    pair, out = body.split("|")
    parts = [p.strip() for p in pair.split(",")]
    if len(parts) != 2:
        raise ParseError(f"triple cherry must be two comma-separated labels: {text!r}")
    return RootedTriple.of(parts[0], parts[1], out.strip())


# -- display relation ---------------------------------------------------------


def displays_triple(tree: RootedPhyloTree, t: RootedTriple) -> bool:
    """True iff the cherry pair of t joins strictly below the triple's lca."""
    depths, table, vertex_of = tree._lca_index()
    missing = {x for x in t if x not in vertex_of}
    if missing:
        raise InputError(f"taxa not in tree: {sorted(missing)}")
    ids = sorted({vertex_of[x] for x in t})
    return len(ids) == 3 and _three(depths, table, *ids)[0] == vertex_of[t.out]


def triples_of(tree: RootedPhyloTree) -> frozenset[RootedTriple]:
    """All rooted triples displayed by the tree, over all leaf 3-subsets."""
    depths, table, vertex_of = tree._lca_index()
    out = []
    # Leaves taken in preorder come out as u < v < w.
    leaves = sorted((v, lab) for lab, v in vertex_of.items())
    for (u, a), (v, b), (w, c) in combinations(leaves, 3):
        z = _three(depths, table, u, v, w)[0]
        if z == w:
            out.append(RootedTriple(min(a, b), max(a, b), c))
        elif z == u:
            out.append(RootedTriple(min(b, c), max(b, c), a))
    return frozenset(out)


def spanning_triples(tree: RootedPhyloTree) -> list[RootedTriple]:
    """Few triples of the tree that give BUILD the same answer as all of them.

    Write least(v) for the smallest label below v.  For each non-root
    interior vertex w with children d1..dm (canonical order) and each
    sibling s of w, emit least(d1),least(dj)|least(s) for j = 2..m.
    That is (out-degree of w - 1)(out-degree of its parent - 1) triples
    per w, n-2 in all for a binary tree, and the tree displays each.

    Why BUILD's answer is unchanged.  Call a leaf set X of a tree T
    *split* if |X| <= 1 or X is the union of the clusters C(u) of two or
    more children u in U of one vertex v (a cluster of two or more
    leaves is split: take U = all children of its vertex).  On a split
    X the triples of T inside X have the components C(u), u in U, in
    their cluster graph either way:
    - all triples: a, b are joined iff they lie in one C(u), since a
      leaf of another C(u') is then an outgroup; so each C(u) is a
      clique and no edge crosses;
    - spanning triples: they are among all triples, so no edge crosses;
      every interior w below u (u included) has a sibling inside u, or
      in another C(u') when w = u, so its least(w)-least(dj) star is in
      X, and these stars span C(u), by induction up from the leaves.
    Now pool, for each input tree T, either all or the spanning triples
    of T, plus any loose triples, and follow both BUILD runs through
    their scopes in preorder.  The root scope meets each L(T) in
    C(root), which is split.  A scope's cluster graph is the union of
    the sources' graphs, so its components are unions of each source's
    blocks; if the scope S meets L(T) in a split set, each component
    meets it in a union of C(u) for some of the u in U, which is split
    again (one C(u) is a cluster or a leaf).  So every tree splits every
    scope the same way in both runs, and the scopes, components, splits,
    witness and tree are identical.  In particular BUILD on the spanning
    triples of a binary tree returns that tree, and as each of its
    scopes falls into two components, every tree displaying those
    triples has its clusters: it is the only one.
    """
    shapes, parents, child_ids, _, _ = tree._ensure_index()
    # Preorder numbers every child after its parent; a first child holds
    # its parent's smallest label.
    least = list(shapes)
    for v in range(len(shapes) - 1, -1, -1):
        if child_ids[v]:
            least[v] = least[child_ids[v][0]]
    out = []
    for w in range(1, len(shapes)):
        if not child_ids[w]:
            continue
        for s in child_ids[parents[w]]:
            if s != w:
                out.extend(
                    RootedTriple(least[w], least[d], least[s]) for d in child_ids[w][1:]
                )
    return out


# -- cluster graph and BUILD ---------------------------------------------------


class BuildResult(NamedTuple):
    """Outcome of the supertree construction.

    Either `tree` is the minimally resolved supertree displaying every
    input triple, or `witness` is the first leaf set (in preorder over
    the scopes) whose cluster graph is connected.
    """

    tree: RootedPhyloTree | None
    witness: tuple[str, ...] | None

    @property
    def compatible(self) -> bool:
        return self.tree is not None


def _components(scope: int, inside: list[tuple[int, int]]) -> list[int]:
    """Components of the cluster graph of the `(cherry_mask, all_mask)`
    pairs `inside` on the leaf mask `scope`, in order of lowest bit.

    A union-find over leaf bits (`up` links a bit to its parent, `mask`
    holds each root's component, smaller component under larger) merges
    the cherries, so a scope costs O(pairs * log leaves) plus one find per
    component.
    """
    up: dict[int, int] = {}
    mask: dict[int, int] = {}
    for cherry, _ in inside:
        a = cherry & -cherry
        b = cherry ^ a
        while a in up:
            a = up[a]
        while b in up:
            b = up[b]
        if a != b:
            ma = mask.pop(a, a)
            mb = mask.pop(b, b)
            if ma.bit_count() < mb.bit_count():
                up[a] = b
                a = b
            else:
                up[b] = a
            mask[a] = ma | mb
    comps = []
    rest = scope
    while rest:
        r = rest & -rest
        while r in up:
            r = up[r]
        comp = mask.get(r, r)
        comps.append(comp)
        rest ^= comp
    return comps


def _build_masks(pairs: list[tuple[int, int]], root: int):
    """BUILD on `(cherry_mask, all_mask)` pairs over the leaf mask `root`.

    Returns `(splits, witness)`.  On success `witness` is None and
    `splits` lists `(scope, components)` for every scope of three or
    more leaves in preorder (and for `root` if it has two), components
    in order of lowest bit.  No triple fits inside two leaves, so a
    two-leaf component always splits into its two singletons; it is
    neither expanded nor listed, and the caller makes it a cherry.
    Otherwise `witness` is the first scope in preorder whose cluster
    graph is connected.  Each scope arrives with the pairs inside it,
    and `_components` splits it.
    """
    splits: list[tuple[int, list[int]]] = []
    stack = [(root, pairs)] if root & (root - 1) else []
    while stack:
        scope, inside = stack.pop()
        comps = _components(scope, inside)
        if len(comps) == 1:
            return splits, scope
        splits.append((scope, comps))
        # Reversed, so the lowest component is popped, and expanded, next.
        # A pair inside a component is inside this scope, so filtering
        # this scope's pairs loses none.
        for comp in reversed(comps):
            high = comp & (comp - 1)
            if high & (high - 1):
                stack.append((comp, [p for p in inside if p[1] | comp == comp]))
    return splits, None


@lru_cache(maxsize=32)
def _leaf_index(taxa: tuple[str, ...]) -> tuple[tuple[str, ...], dict[str, int]]:
    """Sorted distinct `taxa` and bit i for the i-th; shared, never mutated."""
    leaves = tuple(sorted(set(taxa)))
    return leaves, {lab: 1 << i for i, lab in enumerate(leaves)}


@lru_cache(maxsize=32)
def _check_leaves(leaves: tuple[str, ...]) -> bool:
    """`check_label` on every leaf; only a passing leaf set is cached."""
    for lab in leaves:
        check_label(lab)
    return True


@lru_cache(maxsize=32)
def _star(leaves: tuple[str, ...]) -> BuildResult:
    """The star tree on `leaves` (a lone leaf for one), what no triples give."""
    _check_leaves(leaves)
    shape = leaves if len(leaves) > 1 else leaves[0]
    return BuildResult(tree=RootedPhyloTree._from_canonical(shape, leaves), witness=None)


def build_supertree(
    triples: Iterable[RootedTriple], taxa: Iterable[str] | None = None
) -> BuildResult:
    """BUILD (Aho et al., 1981): the supertree of a rooted triple set, if any.

    On leaf set S the cluster graph has an edge {a,b} for each triple
    ab|c inside S.  A connected graph on |S| >= 2 vertices stops the
    construction with S as the incompatibility witness; otherwise each
    component becomes a child subtree.  With no triples the result is
    the star tree on `taxa`.

    The work happens in `_build_masks` on leaf bitmasks, bit i standing
    for the i-th smallest label.  The components of a scope are disjoint,
    so ordering them by smallest label is ordering them by lowest bit,
    and expanding them lowest first from a stack visits scopes in the
    same preorder as a depth-first recursion would; the witness is the
    first connected scope in that preorder.  The resulting splits are
    therefore already the canonical shape (children in order of smallest
    label, every interior vertex with two or more children, distinct
    labels), so the tree is assembled bottom-up and wrapped without
    re-canonicalizing.  The sorted leaves and bit map are cached per
    `taxa` tuple as passed, the label check and the star tree (the answer
    to no triples, shared between calls) per sorted leaf tuple, so
    repeated calls with one taxa tuple (the flexibility scan makes one
    per assignment) pay for none of them again.  Labels are checked only
    when the input is compatible, and a bad label raises on every call,
    since a raising check is not cached.  A triple that repeats a taxon
    is an `InputError`.
    """
    tr = list(triples)
    if taxa is None:
        leaf_set: set[str] = set()
        for t in tr:
            leaf_set.update(t)
        taxa = sorted(leaf_set)
    leaves, bit_of = _leaf_index(tuple(taxa))
    if not tr and leaves:
        return _star(leaves)
    try:
        pairs = [(ab := bit_of[a] | bit_of[b], ab | bit_of[c]) for a, b, c in tr]
    except KeyError:
        raise InputError("triples mention taxa outside the given leaf set") from None
    if not leaves:
        raise InputError("supertree needs at least one taxon")
    # The plain `RootedTriple(...)` constructor checks nothing; a repeated
    # taxon leaves fewer than three bits.
    for t, (_, whole) in zip(tr, pairs):
        if whole.bit_count() != 3:
            raise InputError(f"rooted triple needs three distinct taxa, got {tuple(t)}")

    full = (1 << len(leaves)) - 1
    splits, witness = _build_masks(pairs, full)
    if witness is not None:
        return BuildResult(
            tree=None,
            witness=tuple(lab for i, lab in enumerate(leaves) if witness >> i & 1),
        )
    _check_leaves(leaves)
    shapes: dict[int, Shape] = {}
    # Reversed preorder meets every split after the splits below it.
    for scope, comps in reversed(splits):
        kids: list[Shape] = []
        for c in comps:
            high = c & (c - 1)
            if not high:  # one leaf
                kids.append(leaves[c.bit_length() - 1])
            elif high & (high - 1):  # three or more leaves, assembled below
                kids.append(shapes.pop(c))
            else:  # two leaves: a cherry, never listed as a split
                kids.append((leaves[(c ^ high).bit_length() - 1], leaves[high.bit_length() - 1]))
        shapes[scope] = tuple(kids)
    shape = shapes[full] if splits else leaves[0]
    tree = RootedPhyloTree._from_canonical(shape, leaves)
    return BuildResult(tree=tree, witness=None)

