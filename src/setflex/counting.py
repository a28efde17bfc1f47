"""Exact counts of displaying trees, and defining triples.

Trees displaying a triple set are counted without listing them: a
BUILD-style recursion over the root splits of each leaf mask
(`_count_by_splits`), at most about 3^n/2 split terms on n leaves, not
(2n-3)!! trees, on `phylo._components`.  `flex`'s enumeration cap bounds
the leaf count and its assignment budget the split terms.  Only `count`
and `gen-defining` run this code, so the flexibility scan in `flex`
does not compile it.
"""

from __future__ import annotations

import sys
from math import lgamma, log

from . import phylo
from .errors import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_ENUM_CAP,
    BudgetExceededError,
    CapExceededError,
    InputError,
    _capped_labels,
    double_factorial,
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
    """(2n-3)!!/3^(n/3): displaying trees for n/3 disjoint triples on n taxa.

    A count with more decimal digits than the interpreter converts to
    text (`sys.get_int_max_str_digits()`, 0 for no limit) could not be
    printed, so it is a `CapExceededError`.  The digits are estimated
    from n first, with (2n-3)!! = (2n-2)! / (2^(n-1) (n-1)!), so a count
    far past the limit is refused before its product is built; one near
    the limit is computed and compared exactly.
    """
    if n < 3 or n % 3 != 0:
        raise InputError(f"n must be a positive multiple of 3, got {n}")
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    too_long = CapExceededError(
        f"the count for n={n} has more than {digits} digits, the limit for printing an integer"
    )
    log10 = (lgamma(2 * n - 1) - lgamma(n) - (n - 1) * log(2) - n // 3 * log(3)) / log(10)
    # The float error in log10 is far below the margin of 1.
    if digits and log10 > digits + 1:
        raise too_long
    value, rem = divmod(double_factorial(2 * n - 3), 3 ** (n // 3))
    if rem:
        raise InputError(f"(2n-3)!! is not divisible by 3^(n/3) for n={n}")
    if digits and value >= 10**digits:
        raise too_long
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

