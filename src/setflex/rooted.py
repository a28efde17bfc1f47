"""Rooted phylogenetic trees: canonical shapes and the lca index.

Rooted trees are stored as canonical nested tuples: a leaf is its label,
an interior vertex is the tuple of its child subtrees sorted by smallest
contained label.  Equality of canonical forms decides leaf-labeled
isomorphism, and Newick output of a canonical tree round-trips to the
byte.  Vertices are addressed by preorder index over the canonical form,
and clusters are integer bitmasks over the sorted leaf labels (bit i is
the i-th smallest label), so "smallest contained label" is "lowest set
bit".  Every three-leaf question (`resolve`, `phylo.displays_triple`,
`phylo.triples_of`, and the unrooted medians of `represent`) goes
through `_three`, and it, `lca` and `depth` read one preorder sparse
table (`_lca_table`).  Canonicalization, equality, indexing and Newick
printing walk trees with explicit stacks, so trees of any depth can be
built, compared, queried and printed.

This is all of the tree code a caterpillar representation runs.  The
parsers, the display relation and BUILD are in `phylo`, which imports
this core, so `phylo.RootedPhyloTree` is the class defined here and
`represent` compiles none of `phylo`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError, check_label

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
