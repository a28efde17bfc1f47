"""Pair systems: the forest test, lca caterpillars and total orders.

A system of pairs is thin (sigma* >= 1) iff its bipartite incidence
graph is a forest, which is also when every orientation of the pairs
extends to a total order (the paper's pair theorem).  The forest test
reads a `SetSystem`'s members as the graph's adjacency, so the pair
checks compile no flow code, and the lca caterpillar's leaf peel
decides thinness itself: `graphopt`'s minimizer runs only to certify a
failed peel's "no" (`peel._not_thin`).  `graphopt` and `represent`
forward the names the benchmark's tracer pins to them here.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from . import peel, rooted, setsys
from .errors import (
    CapExceededError,
    CheckReport,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    check_label,
    check_limit,
)

DEFAULT_ORIENTATION_CAP = 20


def is_forest(system: setsys.SetSystem) -> CheckReport:
    """Acyclicity of the member-taxon incidence graph, method `forest`.

    On "no" the certificate is a cycle: an alternating tuple of
    ("member", i) and ("taxon", id) nodes in cycle order.
    """
    cycle = _cycle(system.members)
    return CheckReport(cycle is None, "forest", cycle, {})


def _cycle(members) -> tuple | None:
    """A cycle, as `is_forest` reports it, of the graph joining member i
    to each taxon id in `members[i]`, or None."""
    adj: dict[tuple, list[tuple]] = {}
    for i, taxa in enumerate(members):
        adj[("member", i)] = [("taxon", x) for x in taxa]
    for i, taxa in enumerate(members):
        for x in taxa:
            adj.setdefault(("taxon", x), []).append(("member", i))

    color: dict[tuple, int] = {}
    parent: dict[tuple, tuple | None] = {}

    def dfs(start) -> tuple | None:
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        parent[start] = None
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == parent[node]:
                    continue
                if color.get(nxt) == 1:
                    # Back edge: walk up from node to nxt.
                    cycle = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return tuple(cycle)
                if nxt not in color:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
        return None

    for i in range(len(members)):
        start = ("member", i)
        if start not in color:
            cycle = dfs(start)
            if cycle is not None:
                return cycle
    return None


# -- the lca caterpillar ----------------------------------------------------------


def rooted_caterpillar(sequence: Iterable[str]) -> rooted.RootedPhyloTree:
    """The rooted caterpillar whose deepest cherry is the first two leaves."""
    seq = list(sequence)
    if len(seq) < 2:
        raise InputError(f"a rooted caterpillar needs >= 2 leaves, got {len(seq)}")
    shape = (seq[0], seq[1])
    for leaf in seq[2:]:
        shape = (shape, leaf)
    return rooted.RootedPhyloTree(shape)


def _place_pairs(tau: frozenset[frozenset[str]]) -> list[str] | None:
    """A leaf order of L(tau) for a forest of pairs, by one leaf peel.

    Each step drops the pair t of the least-labelled taxon x of count 1;
    unwinding appends x (after its partner, if the reduced system lacks
    it) above the spine built so far.  None when no taxon of count 1 is
    left before one pair remains: the pairs left all have both taxa of
    count >= 2, so they hold a cycle, and a forest never gets there.
    """
    members_of, heap = peel._incidence(tau)
    peeled = []
    for _ in range(len(tau) - 1):
        count, x = peel._lightest(members_of, heap)
        if count != 1:
            return None
        (t,) = members_of[x]
        peel._drop(t, members_of, heap)
        (a,) = t - {x}
        peeled.append([x] if a in members_of else [a, x])
    seq = sorted(members_of)
    for taxa in reversed(peeled):
        seq.extend(taxa)
    return seq


def lca_caterpillar_representation(system: setsys.SetSystem) -> peel.RepresentationReport:
    """A rooted caterpillar on the universe with injective member lcas.

    The system must be uniformly of size 2 and thin (sigma* >= 1), which
    for pairs is the incidence graph being a forest (the paper's pair
    theorem).  The leaf peel that places the pairs decides it: it runs
    out of taxa of count 1 exactly on a cycle, and `peel._not_thin`
    certifies the "no".  Universe taxa outside L(tau) are appended above
    the existing spine and flagged in the report.  The lca map is
    recomputed from the finished tree and its depths give the spine
    numbering.
    """
    if setsys.require_members(system).uniform_size() != 2:
        raise MemberSizeError("lca representation needs a system of pairs")
    seq = _place_pairs(frozenset(system.member_label_sets()))
    if seq is None:
        raise peel._not_thin(system, 1, "pair peel found a cycle")
    appended = tuple(sorted(set(system.universe) - set(seq)))
    seq = seq + list(appended)

    tree = rooted_caterpillar(seq)
    n = len(seq)
    seen: dict[int, int] = {}
    vertex_map: dict[int, int] = {}
    for i in range(system.member_count):
        v = tree.lca(system.member_labels(i))
        if v in seen:
            raise InternalVerificationError(
                f"lca collision between members {seen[v]} and {i}"
            )
        seen[v] = i
        vertex_map[i] = tree.depth(v)
    cherries = sum(
        1
        for v in tree.interior_ids()
        if all(not tree.children_ids(k) for k in tree.children_ids(v))
    )
    if not tree.is_binary() or cherries > 1 or tree.leaf_count != n:
        raise InternalVerificationError("construction is not a rooted caterpillar")
    return peel.RepresentationReport(
        kind="lca-caterpillar",
        tree=tree,
        sequence=tuple(seq),
        vertex_map=vertex_map,
        appended=appended,
    )


# -- total orders ----------------------------------------------------------------


def extend_to_total_order(
    universe: Iterable[str], orientation: Iterable[tuple[str, str]]
) -> CheckReport:
    """Extend ordered pairs to a total order, smallest label first.

    Each pair (x, y) declares x before y.  Method `topological`: if the
    precedence digraph is acyclic the certificate is the
    lexicographically preferred topological order; otherwise it is a
    directed cycle, smallest label first.  Every label must pass
    `check_label`, so that the text formats can read it back.
    """
    nodes = sorted(set(universe))
    for label in nodes:
        check_label(label)
    return _extend_sorted(nodes, orientation)


def _extend_sorted(
    nodes: list[str] | tuple[str, ...], orientation: Iterable[tuple[str, str]]
) -> CheckReport:
    """`extend_to_total_order` on sorted, distinct labels already checked."""
    node_set = set(nodes)
    succ: dict[str, set[str]] = {v: set() for v in nodes}
    indeg: dict[str, int] = {v: 0 for v in nodes}
    for x, y in orientation:
        if x not in node_set or y not in node_set:
            raise InputError(f"pair ({x!r}, {y!r}) mentions an unknown taxon")
        if x == y:
            raise InputError(f"pair may not relate {x!r} to itself")
        if y not in succ[x]:
            succ[x].add(y)
            indeg[y] += 1

    heap = [v for v in nodes if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == len(nodes):
        return CheckReport(True, "topological", tuple(order), {})

    # Every stalled vertex keeps an unprocessed predecessor, so walking
    # backward must revisit a vertex; that closes a directed cycle.
    remaining = {v for v in nodes if indeg[v] > 0}
    pred: dict[str, list[str]] = {v: [] for v in remaining}
    for x in remaining:
        for y in succ[x]:
            if y in remaining:
                pred[y].append(x)
    path: list[str] = []
    index: dict[str, int] = {}
    v = min(remaining)
    while v not in index:
        index[v] = len(path)
        path.append(v)
        v = min(pred[v])
    cycle = path[index[v]:][::-1]
    start = cycle.index(min(cycle))
    return CheckReport(False, "topological", tuple(cycle[start:] + cycle[:start]), {})


def is_total_order_flexible(system: setsys.SetSystem) -> CheckReport:
    """Whether every orientation of the pair system extends to a total order.

    By the pair theorem that is the incidence graph being a forest, so
    this is `is_forest`'s report; `is_total_order_flexible_bruteforce` is
    its oracle.
    """
    return is_forest(_pairs(system))


def is_total_order_flexible_bruteforce(
    system: setsys.SetSystem, cap: int = DEFAULT_ORIENTATION_CAP
) -> CheckReport:
    """`is_total_order_flexible` by trying all 2^k orientations.

    Bit i of an orientation's number reverses sorted pair i; the first
    that fails is the certificate, with its cycle.
    """
    k = _pairs(system).member_count
    if k > check_limit("cap", cap):
        raise CapExceededError(f"{k} pairs exceed the orientation cap {cap}")
    pairs = [tuple(system.member_labels(i)) for i in range(k)]
    for mask in range(1 << k):
        orientation = tuple(pair[::-1] if mask >> i & 1 else pair for i, pair in enumerate(pairs))
        report = _extend_sorted(system.universe, orientation)
        if not report.verdict:
            return CheckReport(False, "bruteforce", (orientation, report.certificate),
                               {"orientations_checked": mask + 1})
    return CheckReport(True, "bruteforce", None, {"orientations_checked": 1 << k})


def _pairs(system: setsys.SetSystem) -> setsys.SetSystem:
    if setsys.require_members(system).uniform_size() != 2:
        raise MemberSizeError("total-order flexibility needs a system of pairs")
    return system
