"""The brute-force flexibility scan and the tree enumeration it runs.

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

Tree counting and the defining triples are in `counting`, so the scan
does not compile them.  The enumeration cap, the assignment budget,
`_capped_labels` and `double_factorial`, which both modules use, are in
`errors`, so `counting` runs without loading this module.  The
benchmark's tracer still looks up `count_displaying`,
`disjoint_count_formula` and `defining_triples` here; `__getattr__`
forwards them to `counting` until it looks names up where they live
(ROADMAP item 1).  `phylo` and `setsys` are module attributes, so
loading this module loads neither.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

from .errors import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_ENUM_CAP,
    BudgetExceededError,
    CheckReport,
    InputError,
    _capped_labels,
    check_limit,
    double_factorial,
)
from . import phylo, setsys


def __getattr__(name: str):
    # The tracer's names for code in `counting`, imported only when looked up.
    if name in ("count_displaying", "disjoint_count_formula", "defining_triples"):
        from . import counting

        return getattr(counting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    # Each leaf is larger than those before it, so it never changes a
    # subtree's smallest label: every shape is already canonical.
    return tuple(phylo.RootedPhyloTree._from_canonical(s, labels) for s in shapes)


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
    cap: int = DEFAULT_ENUM_CAP,
) -> FlexReport:
    """Scan every assignment of binary trees to the members of the system.

    True iff every assignment pools into a compatible triple set.  The
    total number of assignments (product of per-member tree counts) must
    fit the budget, and each member's taxa the enumeration cap.

    Each assignment is one BUILD call on the spanning triples of the
    core's trees only (`_core`), over the core's taxa.  Rooted trees whose leaf sets share at
    most two taxa are always compatible, so a member meeting the rest in
    at most two taxa cannot make an assignment incompatible, and the
    verdict, the counterexample (the first failing assignment, every
    member's tree included) and `assignments_checked` are those of a scan
    that pools every member.  BUILD caches its leaf index per taxa tuple
    and its star tree, the answer to an empty core (Fig. 1, slim chains).
    """
    setsys.require_members(system)
    check_limit("budget", budget)
    check_limit("cap", cap)
    member_labels = [system.member_labels(i) for i in range(system.member_count)]
    for labels in member_labels:
        if len(labels) < 3:
            raise InputError(
                "flexibility scans need members of size >= 3; "
                f"got {','.join(labels)}"
            )
    # The budget is checked on the tree counts, before any tree is built.
    member_labels = [_capped_labels(labels, cap) for labels in member_labels]
    counts = [tree_count(len(labels)) for labels in member_labels]
    total = prod(counts)
    if total > budget:
        raise BudgetExceededError(
            f"{total} assignments exceed the budget {budget}"
        )
    tree_lists = [enumerate_binary_trees(labels, cap=cap) for labels in member_labels]
    # Each tree's spanning triples, listed once; an assignment
    # concatenates its members' lists.  BUILD gives the same result as on
    # all their triples (see `spanning_triples`), and a triple listed by
    # two members counts once.
    triple_lists = [[phylo.spanning_triples(t) for t in lst] for lst in tree_lists]
    # One attribute lookup per scan, not per assignment.
    build = phylo.build_supertree
    core = _core([frozenset(labels) for labels in member_labels])

    # Taxa outside the core are in no triple, so BUILD's verdict is the
    # same without them; an empty core keeps every taxon.
    taxa = tuple(sorted({lab for i in core for lab in member_labels[i]})) or system.leaf_labels()
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
