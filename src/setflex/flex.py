"""Brute-force flexibility oracles and exact tree counting.

A set system is flexible when every assignment of binary trees to its
members pools into a compatible triple set.  The scan here enumerates
assignments with a mixed-radix counter over the members in canonical
order (the last member cycles fastest) and stops at the first
incompatible assignment, so the reported counterexample is reproducible.
A budget guards the combinatorial explosion; overflowing it is an error,
never a verdict.

Two compatible triple sets whose leaf sets share at most two taxa have
a compatible union.  So a member that meets the union of the other
members in at most two taxa never decides whether an assignment is
compatible, and dropping such members one by one, until none is left
to drop, leaves a core (`_core`) whose triples alone decide it.  The
scan still counts every assignment and reports full assignments; it
only hands BUILD the core's triples.

The number of binary trees displaying a triple set is counted without
listing trees: a BUILD-style recursion over the possible root splits of
each leaf mask (`_count_by_splits`), at most about 3^n/2 split terms on
n leaves instead of (2n-3)!! trees.  Its scopes split into components
by `phylo._components`, the union-find BUILD runs.  The enumeration cap
still bounds the leaf count of a count, with the same error, and the
assignment budget bounds its split terms.  Whether
exactly one tree displays a triple set is one BUILD call
(`is_unique_display`), with no cap.  `phylo` is reached as a module
attribute, like `setsys`, so loading this module does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

from .errors import (
    BudgetExceededError,
    CapExceededError,
    CheckReport,
    InputError,
    check_label,
    check_limit,
)
from . import phylo, setsys

DEFAULT_ENUM_CAP = 8
DEFAULT_ASSIGNMENT_BUDGET = 10**6


def double_factorial(k: int) -> int:
    """k!! with the empty product (k <= 0) read as 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def tree_count(m: int) -> int:
    """(2m-3)!! rooted binary trees on m labeled leaves."""
    if m < 1:
        raise InputError(f"need at least one leaf, got {m}")
    return double_factorial(2 * m - 3)


def _insert_everywhere(shape, leaf: str):
    # One insertion per vertex: above this subtree's root, then inside
    # each child in preorder.
    yield (shape, leaf)
    if isinstance(shape, tuple):
        for i, child in enumerate(shape):
            for sub in _insert_everywhere(child, leaf):
                yield shape[:i] + (sub,) + shape[i + 1:]


@lru_cache(maxsize=None)
def _enumerate_trees(labels: tuple[str, ...]) -> tuple[phylo.RootedPhyloTree, ...]:
    shapes = [labels[0]]
    for leaf in labels[1:]:
        shapes = [s for old in shapes for s in _insert_everywhere(old, leaf)]
    return tuple(phylo.RootedPhyloTree(s) for s in shapes)


def _capped_labels(leaves, cap: int) -> tuple[str, ...]:
    """The sorted distinct leaves: at least one, no more than `cap`, and
    each a label a tree accepts."""
    labels = tuple(sorted(set(leaves)))
    if not labels:
        raise InputError("cannot enumerate trees on an empty leaf set")
    if len(labels) > check_limit("cap", cap):
        raise CapExceededError(
            f"{len(labels)} leaves exceed the enumeration cap {cap}"
        )
    for lab in labels:
        check_label(lab)
    return labels


def enumerate_binary_trees(
    leaves, cap: int = DEFAULT_ENUM_CAP
) -> tuple[phylo.RootedPhyloTree, ...]:
    """All (2m-3)!! rooted binary trees on the given leaves, in a fixed order.

    Trees are generated by inserting the leaves in sorted-label order at
    every edge plus the above-root position; no two outputs are
    isomorphic.  The result is cached, so repeated scans share tree
    objects and their lazily built indexes.
    """
    return _enumerate_trees(_capped_labels(leaves, cap))


class FlexReport(CheckReport):
    """The `CheckReport` of the assignment scan, method `bruteforce`.

    The certificate, present when the verdict is false, assigns one
    tree per member in canonical member order; pooling its triples and
    running the supertree construction reproduces the incompatibility.
    `stats` counts `assignments_checked` and `core_members`, the size of
    the core whose triples BUILD was given.
    """

    __slots__ = ()

    @property
    def assignments_checked(self) -> int:
        return self.stats["assignments_checked"]


def _core(members: list[frozenset]) -> list[int]:
    """Indices of the members left after repeatedly dropping one that
    meets the union of the other remaining members in at most two taxa.

    A member can only become droppable as others go, so the order of the
    drops does not change the result.
    """
    core = list(range(len(members)))
    while True:
        for i in core:
            rest = set().union(*(members[j] for j in core if j != i))
            if len(members[i] & rest) <= 2:
                core.remove(i)
                break
        else:
            return core


def is_flexible_bruteforce(
    system: setsys.SetSystem,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> FlexReport:
    """Scan every assignment of binary trees to the members of the system.

    True iff every assignment pools into a compatible triple set.  The
    total number of assignments (product of per-member tree counts) must
    fit the budget.

    Each assignment is one BUILD call on the spanning triples of the
    core's trees only (`_core`).  Rooted trees whose leaf sets share at
    most two taxa are always compatible, so a member meeting the rest in
    at most two taxa cannot make an assignment incompatible, and the
    verdict, the counterexample (the first failing assignment, every
    member's tree included) and `assignments_checked` are those of a scan
    that pools every member.  BUILD caches its leaf index per taxa tuple
    and its star tree, the answer to an empty core (Fig. 1, slim chains).
    """
    check_limit("budget", budget)
    check_limit("enum_cap", enum_cap)
    if system.member_count == 0:
        raise InputError("flexibility of an empty system is undefined")
    member_labels = [system.member_labels(i) for i in range(system.member_count)]
    for labels in member_labels:
        if len(labels) < 3:
            raise InputError(
                "flexibility scans need members of size >= 3; "
                f"got {','.join(labels)}"
            )
    # The budget is checked on the tree counts, before any tree is built.
    member_labels = [_capped_labels(labels, enum_cap) for labels in member_labels]
    counts = [tree_count(len(labels)) for labels in member_labels]
    total = prod(counts)
    if total > budget:
        raise BudgetExceededError(
            f"{total} assignments exceed the budget {budget}"
        )
    tree_lists = [enumerate_binary_trees(labels, cap=enum_cap) for labels in member_labels]
    # Each tree's spanning triples, listed once; an assignment
    # concatenates its members' lists.  BUILD gives the same result as on
    # all their triples (see `spanning_triples`), and a triple listed by
    # two members counts once.
    triple_lists = [[phylo.spanning_triples(t) for t in lst] for lst in tree_lists]
    # One attribute lookup per scan, not per assignment.
    build = phylo.build_supertree
    core = _core([frozenset(labels) for labels in member_labels])

    taxa = system.leaf_labels()
    # Assignments in mixed-radix order: the last member cycles fastest.
    for checked, digits in enumerate(product(*map(range, counts)), start=1):
        pooled: list[phylo.RootedTriple] = []
        for i in core:
            pooled += triple_lists[i][digits[i]]
        if not build(pooled, taxa=taxa).compatible:
            return FlexReport(
                False, "bruteforce", tuple(lst[d] for lst, d in zip(tree_lists, digits)),
                {"assignments_checked": checked, "core_members": len(core)},
            )
    return FlexReport(
        True, "bruteforce", None, {"assignments_checked": total, "core_members": len(core)},
    )


def _count_by_splits(labels: tuple[str, ...], triples) -> int:
    """Number of rooted binary trees on `labels` displaying every triple.

    A binary tree on S splits at its root into A and S-A.  It displays
    the triples iff no triple inside S has its cherry across the split
    and each side displays the triples inside it; a triple ab|c with a, b
    on one side and c on the other is displayed by every such tree.  So
    A is a union of components of the cluster graph of the triples
    inside S, and with f(S) the count on S (1 on one leaf),
    f(S) = sum of f(A) * f(S-A) over the unions A that hold the lowest
    component and leave S-A non-empty; f(S) = 0 when the graph is
    connected.  Each unordered split is counted once.

    A first pass from the full mask finds every scope the sum reaches
    and its split terms; the counts are then summed smallest scope first,
    so there is no recursion.  A scope of k components has 2^(k-1) - 1
    terms, at most about 3^n/2 over all scopes on n leaves, so the table
    is bounded: more than `DEFAULT_ASSIGNMENT_BUDGET` terms is a
    `BudgetExceededError`, raised before the scope that passes it is
    listed.
    """
    bit = {lab: 1 << i for i, lab in enumerate(labels)}
    pairs = [
        (bit[t.first] | bit[t.second], bit[t.first] | bit[t.second] | bit[t.out])
        for t in triples
    ]
    full = (1 << len(labels)) - 1
    # A scope's terms are its sides A, and S-A is scope ^ A.  A scope is
    # queued once, when first reached; one leaf needs no terms.
    terms: dict[int, list[int]] = {full: []} if full & (full - 1) else {}
    stack = [(full, pairs)] if terms else []
    listed = 0
    while stack:
        scope, outer = stack.pop()
        inside = [p for p in outer if p[1] | scope == scope]
        low, *rest = phylo._components(scope, inside)
        listed += (1 << len(rest)) - 1
        if listed > DEFAULT_ASSIGNMENT_BUDGET:
            raise BudgetExceededError(
                f"counting trees on {len(labels)} taxa needs more than "
                f"{DEFAULT_ASSIGNMENT_BUDGET} split terms"
            )
        splits = terms[scope]
        for pick in range((1 << len(rest)) - 1):
            side = low
            for i, comp in enumerate(rest):
                if pick >> i & 1:
                    side |= comp
            splits.append(side)
            for part in (side, scope ^ side):
                if part & (part - 1) and part not in terms:
                    terms[part] = []
                    stack.append((part, inside))
    count = dict.fromkeys(bit.values(), 1)
    for scope in sorted(terms, key=int.bit_count):
        count[scope] = sum(count[a] * count[scope ^ a] for a in terms[scope])
    return count[full]


def count_displaying(
    trees, taxa, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Exact number of rooted binary trees on `taxa` displaying every tree given.

    The guests are binary, so a tree displays one iff it displays its
    spanning triples; those are pooled and counted by the split
    recursion (`_count_by_splits`), not by listing the (2n-3)!! trees.
    More than `cap` taxa is a `CapExceededError`, as for enumeration, and
    more than `DEFAULT_ASSIGNMENT_BUDGET` split terms a
    `BudgetExceededError`.
    """
    labels = set(taxa)
    pooled: list[phylo.RootedTriple] = []
    for g in trees:
        if not set(g.leaves) <= labels:
            raise InputError("guest leaves must lie inside the taxon set")
        if not g.is_binary():
            raise InputError("count_displaying expects binary guest trees")
        # A binary tree is the only tree displaying its spanning triples.
        pooled.extend(phylo.spanning_triples(g))
    return _count_by_splits(_capped_labels(labels, cap), pooled)


def disjoint_count_formula(n: int) -> int:
    """(2n-3)!!/3^(n/3): displaying trees for n/3 disjoint triples on n taxa."""
    if n < 3 or n % 3 != 0:
        raise InputError(f"n must be a positive multiple of 3, got {n}")
    value, rem = divmod(double_factorial(2 * n - 3), 3 ** (n // 3))
    if rem:
        raise InputError(f"(2n-3)!! is not divisible by 3^(n/3) for n={n}")
    return value


def defining_triples(tree: phylo.RootedPhyloTree) -> tuple[phylo.RootedTriple, ...]:
    """n-2 rooted triples whose only displaying tree is the given binary tree.

    They are the tree's spanning triples (`phylo.spanning_triples`), in
    preorder of their vertex w: one triple least(d1),least(d2)|least(s)
    per non-root interior w with children d1, d2 and sibling s.  That
    function's docstring shows that BUILD on them returns the tree and
    that no other tree displays them.

    Their leaf sets are thin, with |L(R')| >= |R'| + 2 for every
    non-empty selection R'.  Take a w of R' with no other vertex of R'
    below it.  The leaf x = least(d2(w)) lies in no other triple of R':
    each leaf of the triple of a w' is least(v) for a child or sibling v
    of w', so if v holds x and w' is not below w, v holds w too, and
    least(v) <= least(w) < x.  Dropping w's triple loses the leaf x, so
    the bound follows by induction from a single triple's three leaves.
    """
    if not tree.is_binary():
        raise InputError("defining_triples needs a binary tree")
    if tree.leaf_count < 3:
        raise InputError("defining_triples needs at least three leaves")
    return tuple(phylo.spanning_triples(tree))


def is_unique_display(triples, taxa=None) -> bool:
    """True iff exactly one binary tree on the taxa displays all the triples.

    Uniqueness among binary trees settles uniqueness among all
    phylogenetic trees: a non-binary displaying tree refines to at least
    two displaying binary trees.  It takes one BUILD call, with no cap:
    every restriction of a compatible set is compatible, so every split
    term of `_count_by_splits` is at least 1 and a scope of k >= 3
    components has at least 3 terms.  The count is therefore 1 iff every
    BUILD scope falls into exactly two components, that is iff BUILD's
    tree is binary.
    """
    tr = list(triples)
    labels = set(taxa) if taxa is not None else set()
    for t in tr:
        labels |= t.taxa
    if not labels:
        raise InputError("no taxa to enumerate over")
    # BUILD checks labels only on compatible input.
    leaves = sorted(labels)
    for lab in leaves:
        check_label(lab)
    result = phylo.build_supertree(tr, taxa=leaves)
    return result.compatible and result.tree.is_binary()
