"""Rooted phylogenetic trees, rooted triples, and supertrees.

Rooted trees are stored as canonical nested tuples: a leaf is its label,
an interior vertex is the tuple of its child subtrees sorted by smallest
contained label.  Equality of canonical forms decides leaf-labeled
isomorphism, and Newick output of a canonical tree round-trips to the
byte.  Vertices are addressed by preorder index over the canonical form.
Newick here is deliberately restricted: no branch lengths, no quoted
labels, no internal labels.

Leaf sets inside a tree and inside BUILD are integer bitmasks over the
sorted leaf labels (bit i is the i-th smallest label), so "smallest
contained label" is "lowest set bit".  Every three-leaf question
(`resolve`, `displays_triple`, `triples_of`, and the unrooted medians of
`represent`) goes through `_three`, and it, `lca` and `depth` read one
preorder sparse table (`_lca_table`).  Whole trees are compared on their
cluster masks (`displays_clusters`) and enter BUILD as their
`spanning_triples`, n-2 for a binary tree, not as all C(n,3) of
`triples_of`.  BUILD (Aho et al., 1981) runs on `(cherry_mask,
all_mask)` pairs with an explicit stack of scopes; `_components`, its
union-find over leaf bits, is the one routine that splits a scope into
cluster-graph components, and `flex` counts displaying trees with it.
Canonicalization, equality, indexing, Newick printing and `make_binary`
also walk trees with explicit stacks, so trees of any depth can be
built, compared, queried and printed.  `parse_newick` still recurses.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import InputError, ParseError, check_label

Shape = str | tuple


def _fold(shape, leaf, interior):
    """Post-order fold of a nested shape, with an explicit stack.

    `leaf(label)` is called at each leaf and `interior(values)` at each
    interior vertex with its children's values, in order.  Vertices are
    entered in preorder, children left to right, and an interior vertex
    with fewer than two children is rejected on entry, so the first error
    raised is the one a depth-first recursion would meet.
    """
    values: list = []
    stack: list = [(shape, None)]
    while stack:
        node, children = stack.pop()
        if children is not None:
            values[-len(children):] = [interior(values[-len(children):])]
        elif isinstance(node, str):
            values.append(leaf(node))
        else:
            children = tuple(node)
            if len(children) < 2:
                raise InputError("interior vertices must have out-degree at least 2")
            stack.append((node, children))
            stack.extend((child, None) for child in reversed(children))
    return values[0]


def _canonical(shape, seen: dict[str, None]):
    """Validate a nested shape and return its canonical form."""

    def leaf(label: str):
        check_label(label)
        if label in seen:
            raise InputError(f"duplicate leaf label {label!r}")
        seen[label] = None
        return label, label

    def interior(done: list):
        # Child leaf sets are disjoint, so the smallest contained label is
        # a total order on the children.
        done.sort(key=lambda p: p[1])
        return tuple([c for c, _ in done]), done[0][1]

    return _fold(shape, leaf, interior)[0]


def _lca_table(parents: list[int]) -> tuple[list[int], list[list[int]]]:
    """Depths and a sparse table for the lcas of a tree numbered in preorder:
    for u < v the lca is the parent of any shallowest vertex in u+1..v, and
    row j holds, per p, the least depth * n + parent over p..p+2^j-1."""
    n = len(parents)
    depths = [0] * n
    for v in range(1, n):
        depths[v] = depths[parents[v]] + 1
    table = [[d * n + p for d, p in zip(depths, parents)]]
    while 2 ** len(table) <= n:
        table.append(list(map(min, table[-1], table[-1][2 ** (len(table) - 1):])))
    return depths, table


def _lca(table: list[list[int]], u: int, v: int) -> int:
    if u == v:  # callers pass u <= v
        return u
    j = (v - u).bit_length() - 1
    return min(table[j][u + 1], table[j][v + 1 - 2 ** j]) % len(table[0])


def _three(depths: list[int], table: list[list[int]], u: int, v: int, w: int):
    """`(out, median)` for three leaves at preorder positions u < v < w.

    Their lca is lca(u, w), and one of lca(u, v), lca(v, w) is it: a
    subtree is an interval of the preorder, so no cherry is {u, w}.  The
    pair whose lca is strictly deeper is the cherry and `out` is the
    other leaf's position, or None when the depths tie (unresolved).
    The deeper lca is on all three leaf paths, the unrooted median.
    """
    x, y = _lca(table, u, v), _lca(table, v, w)
    if depths[x] == depths[y]:
        return None, x
    return (w, x) if depths[x] > depths[y] else (u, y)


class RootedPhyloTree:
    """A rooted phylogenetic tree with labeled leaves.

    Construct from a nested shape such as (("a", "b"), "c").  The shape
    is canonicalized on construction; two trees are equal iff they are
    isomorphic as leaf-labeled trees.
    """

    __slots__ = ("_shape", "_leaves", "_index", "_lca")

    def __init__(self, shape: Shape):
        seen: dict[str, None] = {}
        self._shape = _canonical(shape, seen)
        self._leaves = tuple(sorted(seen))
        self._index = self._lca = None

    @classmethod
    def _from_canonical(cls, shape: Shape, leaves: tuple[str, ...]) -> RootedPhyloTree:
        """Wrap a shape that is already canonical, skipping `_canonical`.

        The caller guarantees what `_canonical` would check or establish:
        checked, distinct labels; interior out-degree >= 2; children
        sorted by smallest contained label; `leaves` sorted.
        """
        tree = cls.__new__(cls)
        tree._shape = shape
        tree._leaves = leaves
        tree._index = tree._lca = None
        return tree

    @property
    def shape(self) -> Shape:
        return self._shape

    @property
    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def __eq__(self, other) -> bool:
        # Canonical Newick text is equal iff the canonical shapes are, and
        # is printed without recursion; shape `==` recurses in C and raises
        # RecursionError about 1,000 levels down.
        return isinstance(other, RootedPhyloTree) and self.newick() == other.newick()

    def __hash__(self) -> int:
        return hash(self._shape)

    def __repr__(self) -> str:
        return f"RootedPhyloTree({self.newick()})"

    def newick(self) -> str:
        # The stack holds subtrees still to print and punctuation; a leaf
        # and a punctuation mark are both printed as they are.
        out: list[str] = []
        stack = [self._shape]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("(")
            stack.append(")")
            for child in reversed(item[1:]):
                stack.append(child)
                stack.append(",")
            stack.append(item[0])
        out.append(";")
        return "".join(out)

    def is_binary(self) -> bool:
        return _fold(self._shape, lambda _: True, lambda kids: len(kids) == 2 and all(kids))

    # -- vertex indexing (preorder over the canonical form) ------------
    # Clusters are stored as integer leaf bitmasks; bit i stands for
    # self._leaves[i].

    def _ensure_index(self):
        if self._index is None:
            shapes: list = []
            parents: list[int] = []
            bit_of = {lab: 1 << i for i, lab in enumerate(self._leaves)}
            kids: list[list[int]] = []
            # Children are pushed reversed, so they are numbered in order.
            stack = [(self._shape, -1)]
            while stack:
                shape, parent = stack.pop()
                vid = len(shapes)
                shapes.append(shape)
                parents.append(parent)
                kids.append([])
                if parent != -1:
                    kids[parent].append(vid)
                if not isinstance(shape, str):
                    stack.extend((child, vid) for child in reversed(shape))
            # Preorder numbers every child after its parent.
            masks = [0] * len(shapes)
            for vid in range(len(shapes) - 1, -1, -1):
                shape = shapes[vid]
                if isinstance(shape, str):
                    masks[vid] = bit_of[shape]
                else:
                    acc = 0
                    for k in kids[vid]:
                        acc |= masks[k]
                    masks[vid] = acc
            child_ids = [tuple(k) for k in kids]
            self._index = (shapes, parents, child_ids, masks, bit_of)
        return self._index

    def parent(self, v: int) -> int:
        return self._ensure_index()[1][v]

    def children_ids(self, v: int) -> tuple[int, ...]:
        return self._ensure_index()[2][v]

    def cluster(self, v: int) -> frozenset[str]:
        mask = self._ensure_index()[3][v]
        return frozenset(
            lab for i, lab in enumerate(self._leaves) if mask >> i & 1
        )

    def _lca_index(self):
        if self._lca is None:
            shapes, parents = self._ensure_index()[:2]
            self._lca = (*_lca_table(parents),
                         {s: v for v, s in enumerate(shapes) if isinstance(s, str)})
        return self._lca

    def depth(self, v: int) -> int:
        return self._lca_index()[0][v]

    def interior_ids(self) -> tuple[int, ...]:
        shapes = self._ensure_index()[0]
        return tuple(v for v, s in enumerate(shapes) if not isinstance(s, str))

    def _positions(self, taxa: Iterable[str]) -> list[int]:
        vertex_of = self._lca_index()[2]
        ids = []
        for lab in taxa:
            if lab not in vertex_of:
                raise InputError(f"taxon {lab!r} not in tree")
            ids.append(vertex_of[lab])
        return ids

    def lca(self, taxa: Iterable[str]) -> int:
        """Deepest vertex whose cluster contains all the given leaves."""
        ids = self._positions(taxa)
        if not ids:
            raise InputError("need at least one taxon")
        return _lca(self._lca_index()[1], min(ids), max(ids))

    def resolve(self, a: str, b: str, c: str) -> frozenset[str] | None:
        """The cherry pair among {a,b,c} in this tree, or None if unresolved.

        Returns frozenset({x,y}) when the tree displays xy|z for the
        remaining leaf z; a repeated taxon is unresolved.
        """
        ids = self._positions((a, b, c))
        if len(set(ids)) != 3:
            return None
        out = _three(*self._lca_index()[:2], *sorted(ids))[0]
        if out is None:
            return None
        return frozenset(x for x, v in zip((a, b, c), ids) if v != out)


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


def parse_triples_text(text: str) -> list[RootedTriple]:
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
            (t,) = triples_of(tree)
            out.append(t)
        else:
            out.append(parse_triple(line))
    return out


# -- Newick -------------------------------------------------------------------


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

    shape = parse_clade()
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
    try:
        pairs = [(ab := bit_of[a] | bit_of[b], ab | bit_of[c]) for a, b, c in tr]
    except KeyError:
        raise InputError("triples mention taxa outside the given leaf set") from None
    if not leaves:
        raise InputError("supertree needs at least one taxon")
    if not pairs:
        return _star(leaves)
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

