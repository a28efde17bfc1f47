"""Brute-force flexibility oracles and exact tree counting.

A set system is flexible when every assignment of binary trees to its
members pools into a compatible triple set.  The scan here enumerates
assignments with a mixed-radix counter over the members in canonical
order (the last member cycles fastest) and stops at the first
incompatible assignment, so the reported counterexample is reproducible.
A budget guards the combinatorial explosion; overflowing it is an error,
never a verdict.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import BudgetExceededError, CapExceededError, InputError, check_limit
from . import setsys
from .phylo import RootedPhyloTree, RootedTriple, build_supertree, spanning_triples

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
def _enumerate_trees(labels: tuple[str, ...]) -> tuple[RootedPhyloTree, ...]:
    shapes = [labels[0]]
    for leaf in labels[1:]:
        shapes = [s for old in shapes for s in _insert_everywhere(old, leaf)]
    return tuple(RootedPhyloTree(s) for s in shapes)


def enumerate_binary_trees(
    leaves, cap: int = DEFAULT_ENUM_CAP
) -> tuple[RootedPhyloTree, ...]:
    """All (2m-3)!! rooted binary trees on the given leaves, in a fixed order.

    Trees are generated by inserting the leaves in sorted-label order at
    every edge plus the above-root position; no two outputs are
    isomorphic.  The result is cached, so repeated scans share tree
    objects and their lazily built indexes.
    """
    labels = tuple(sorted(set(leaves)))
    if not labels:
        raise InputError("cannot enumerate trees on an empty leaf set")
    if len(labels) > check_limit("cap", cap):
        raise CapExceededError(
            f"{len(labels)} leaves exceed the enumeration cap {cap}"
        )
    return _enumerate_trees(labels)


class FlexReport(NamedTuple):
    """Verdict of the assignment scan.

    `counterexample`, present when the verdict is false, assigns one
    tree per member in canonical member order; pooling its triples and
    running the supertree construction reproduces the incompatibility.
    """

    verdict: bool
    counterexample: tuple[RootedPhyloTree, ...] | None
    assignments_checked: int


def is_flexible_bruteforce(
    system: setsys.SetSystem,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> FlexReport:
    """Scan every assignment of binary trees to the members of the system.

    True iff every assignment pools into a compatible triple set.  The
    total number of assignments (product of per-member tree counts) must
    fit the budget.
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
    tree_lists = [enumerate_binary_trees(labels, cap=enum_cap) for labels in member_labels]
    counts = [len(lst) for lst in tree_lists]
    total = 1
    for c in counts:
        total *= c
    if total > budget:
        raise BudgetExceededError(
            f"{total} assignments exceed the budget {budget}"
        )
    # Each tree's spanning triples, listed once; an assignment
    # concatenates its members' lists.  BUILD gives the same result as on
    # all their triples (see `spanning_triples`), and a triple listed by
    # two members counts once.
    triple_lists = [[spanning_triples(t) for t in lst] for lst in tree_lists]

    k = system.member_count
    digits = [0] * k
    taxa = system.leaf_labels()
    checked = 0
    while True:
        pooled: list[RootedTriple] = []
        for i in range(k):
            pooled += triple_lists[i][digits[i]]
        checked += 1
        result = build_supertree(pooled, taxa=taxa)
        if not result.compatible:
            assignment = tuple(tree_lists[i][digits[i]] for i in range(k))
            return FlexReport(
                verdict=False, counterexample=assignment, assignments_checked=checked
            )
        pos = k - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < counts[pos]:
                break
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return FlexReport(
                verdict=True, counterexample=None, assignments_checked=checked
            )


def _triple_masks(hosts, triples):
    bits = hosts[0].leaf_bits()
    return [
        (bits[t.first] | bits[t.second] | bits[t.out], bits[t.first] | bits[t.second])
        for t in triples
    ]


def _count_displaying_hosts(hosts, triples, stop_at: int | None = None) -> int:
    pairs = _triple_masks(hosts, triples)
    count = 0
    for host in hosts:
        for want, cherry in pairs:
            if host.resolve_mask(want) != cherry:
                break
        else:
            count += 1
            if stop_at is not None and count >= stop_at:
                return count
    return count


def count_displaying(
    trees, taxa, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Exact number of rooted binary trees on `taxa` displaying every tree given."""
    guests = list(trees)
    labels = tuple(sorted(set(taxa)))
    pooled: list[RootedTriple] = []
    for g in guests:
        if not set(g.leaves) <= set(labels):
            raise InputError("guest leaves must lie inside the taxon set")
        if not g.is_binary():
            raise InputError("count_displaying expects binary guest trees")
        # A binary tree is the only tree displaying its spanning triples.
        pooled.extend(spanning_triples(g))
    hosts = enumerate_binary_trees(labels, cap=cap)
    return _count_displaying_hosts(hosts, pooled)


def disjoint_count_formula(n: int) -> int:
    """(2n-3)!!/3^(n/3): displaying trees for n/3 disjoint triples on n taxa."""
    if n < 3 or n % 3 != 0:
        raise InputError(f"n must be a positive multiple of 3, got {n}")
    value, rem = divmod(double_factorial(2 * n - 3), 3 ** (n // 3))
    if rem:
        raise InputError(f"(2n-3)!! is not divisible by 3^(n/3) for n={n}")
    return value


def defining_triples(tree: RootedPhyloTree) -> tuple[RootedTriple, ...]:
    """n-2 rooted triples whose only displaying tree is the given binary tree.

    Peeling: take the cherry {a, b} (a < b) whose smaller label is least,
    use the smallest leaf of its sibling subtree as the outgroup c, emit
    ab|c, delete a (b takes the cherry's place) and repeat until n-2
    triples are out.  They are returned last peel first.

    One pass over the tree's index does all the peels.  The cherries sit
    in a min-heap keyed by their smaller leaf; cherries are disjoint, so
    the least key is the least cherry, and a peel changes only the
    grandparent's children, so at most one new cherry ({b, sibling}) is
    pushed and no entry goes stale.  An int mask of the leaves not yet
    deleted keeps each original cluster current: the outgroup is the
    lowest set bit of sibling cluster & alive (bit i is the i-th smallest
    label).  That is O(n log n) steps plus n mask ANDs of n/64 words,
    with no recursion.
    """
    if not tree.is_binary():
        raise InputError("defining_triples needs a binary tree")
    if tree.leaf_count < 3:
        raise InputError("defining_triples needs at least three leaves")
    _, parents, child_ids, masks, _ = tree._ensure_index()
    labels = tree.leaves
    kids = [list(k) for k in child_ids]

    def leaf_index(v: int) -> int:
        return masks[v].bit_length() - 1

    def cherry(v: int) -> tuple[int, int]:
        return min(map(leaf_index, kids[v])), v

    heap = [
        cherry(v)
        for v, k in enumerate(child_ids)
        if k and not child_ids[k[0]] and not child_ids[k[1]]
    ]
    heapify(heap)
    alive = masks[0]
    out: list[RootedTriple] = []
    while len(out) < len(labels) - 2:
        _, v = heappop(heap)
        a, b = sorted(kids[v], key=leaf_index)
        # Cherries are interior vertices, which are never moved.
        u = parents[v]
        slot = kids[u].index(v)
        sibling = kids[u][1 - slot]
        rest = masks[sibling] & alive
        outgroup = (rest & -rest).bit_length() - 1
        out.append(RootedTriple(labels[leaf_index(a)], labels[leaf_index(b)], labels[outgroup]))
        alive ^= masks[a]
        kids[u][slot] = b
        if not kids[sibling]:
            heappush(heap, cherry(u))
    out.reverse()
    return tuple(out)


def is_unique_display(
    triples, taxa=None, cap: int = DEFAULT_ENUM_CAP
) -> bool:
    """True iff exactly one binary tree on the taxa displays all the triples.

    Uniqueness among binary trees settles uniqueness among all
    phylogenetic trees: a non-binary displaying tree refines to at least
    two displaying binary trees.
    """
    tr = list(triples)
    labels = set(taxa) if taxa is not None else set()
    for t in tr:
        labels |= t.taxa
    if not labels:
        raise InputError("no taxa to enumerate over")
    hosts = enumerate_binary_trees(tuple(sorted(labels)), cap=cap)
    return _count_displaying_hosts(hosts, tr, stop_at=2) == 1
