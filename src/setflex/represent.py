"""Caterpillar representations and total-order flexibility.

A caterpillar is handled as a leaf sequence: sequence position p (with
0 <= p <= n-1) attaches to spine vertex w_{max(0, min(p-1, n-3))}, and
the median of a 3-set is the spine vertex of its middle element.  A
caterpillar therefore provides an injective median representation of a
triple system exactly when the members have pairwise distinct middle
elements in the sequence, which is what the construction below arranges
and what the final verification (recomputed from the actual tree, never
trusted from the construction) re-checks.

The thin-system recursion peels a taxon x of minimal occurrence count
(at most 2 for thin systems covering their universe), reduces the
system as the occurrence pattern dictates, places the reduced system
recursively, and re-inserts x by trying insertion slots in a canonical
order until the full middle map verifies.  Base cases fall back to a
direct search over leaf orderings.
"""

from __future__ import annotations

import heapq
from itertools import permutations
from typing import Iterable, NamedTuple

from . import graphopt
from .errors import (
    CapExceededError,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    PreconditionError,
)
from .phylo import RootedPhyloTree, UnrootedPhyloTree
from .setsys import CheckReport, SetSystem

DEFAULT_ORIENTATION_CAP = 20


# -- caterpillar builders -----------------------------------------------------


def unrooted_caterpillar(sequence: Iterable[str]) -> UnrootedPhyloTree:
    """The unrooted caterpillar with the given leaf order.

    Interior spine vertices are numbered 0..n-3 along the sequence;
    leaves occupy ids n-2 and up, in sequence order.
    """
    seq = list(sequence)
    n = len(seq)
    if n < 4:
        raise InputError(f"an unrooted caterpillar needs >= 4 leaves, got {n}")
    spine = list(range(n - 2))
    leaf_ids = [n - 2 + i for i in range(n)]
    edges = [(spine[j], spine[j + 1]) for j in range(n - 3)]
    edges.append((spine[0], leaf_ids[0]))
    edges.append((spine[0], leaf_ids[1]))
    for p in range(2, n - 1):
        edges.append((spine[p - 1], leaf_ids[p]))
    edges.append((spine[n - 3], leaf_ids[n - 1]))
    return UnrootedPhyloTree(edges, {leaf_ids[i]: seq[i] for i in range(n)})


def rooted_caterpillar(sequence: Iterable[str]) -> RootedPhyloTree:
    """The rooted caterpillar whose deepest cherry is the first two leaves."""
    seq = list(sequence)
    if len(seq) < 2:
        raise InputError(f"a rooted caterpillar needs >= 2 leaves, got {len(seq)}")
    shape = (seq[0], seq[1])
    for leaf in seq[2:]:
        shape = (shape, leaf)
    return RootedPhyloTree(shape)


# -- reports -------------------------------------------------------------------


class RepresentationReport(NamedTuple):
    """A verified caterpillar representation.

    `vertex_map` sends each member index to its interior vertex in
    spine order (0-based); for the unrooted case these are the spine ids
    of the tree as built by `unrooted_caterpillar`, for the rooted case
    the depth of the lca vertex.  `appended` lists universe taxa outside
    the covered leaves, attached past the far end of the spine.
    """

    kind: str
    tree: UnrootedPhyloTree | RootedPhyloTree
    sequence: tuple[str, ...]
    vertex_map: dict[int, int]
    verified: bool
    appended: tuple[str, ...]


# -- middle-element bookkeeping -------------------------------------------------


def _middle(positions: dict[str, int], member: frozenset[str]) -> str:
    labs = sorted(member, key=positions.__getitem__)
    return labs[len(labs) // 2]


def _distinct_middles(seq: list[str], members) -> bool:
    positions = {lab: i for i, lab in enumerate(seq)}
    middles = set()
    for member in members:
        mid = _middle(positions, member)
        if mid in middles:
            return False
        middles.add(mid)
    return True


def _slot_order(seq: list[str]) -> list[int]:
    # Nearest the spine end holding the smallest label first.
    slots = list(range(len(seq) + 1))
    if seq and seq[-1] < seq[0]:
        slots.reverse()
    return slots


def _insert_and_verify(
    seq: list[str], to_place: list[str], members
) -> list[str] | None:
    """Insert the given taxa (in order) trying slots canonically.

    Returns the first arrangement whose member middles are pairwise
    distinct, or None if no placement works.
    """
    if not to_place:
        return list(seq) if _distinct_middles(seq, members) else None
    head, rest = to_place[0], to_place[1:]
    for slot in _slot_order(seq):
        candidate = seq[:slot] + [head] + seq[slot:]
        placed = _insert_and_verify(candidate, rest, members)
        if placed is not None:
            return placed
    return None


def _is_thin_triples(members: Iterable[frozenset[str]]) -> bool:
    system = SetSystem([sorted(m) for m in members])
    return graphopt.sigma_star(system).value >= 2


# -- the median-caterpillar recursion -------------------------------------------


def _place_median(tau: frozenset[frozenset[str]]) -> list[str]:
    """A leaf order of L(tau) whose member middles are pairwise distinct."""
    members = sorted(tau, key=sorted)
    universe = sorted({x for m in members for x in m})

    if len(members) <= 1:
        return universe
    if len(universe) <= 4:
        for perm in permutations(universe):
            if _distinct_middles(list(perm), members):
                return list(perm)
        raise InternalVerificationError("no ordering for a thin base case")

    counts = {x: sum(1 for m in members if x in m) for x in universe}
    x = min(universe, key=lambda lab: (counts[lab], lab))

    if counts[x] == 1:
        (t,) = (m for m in members if x in m)
        reduced = frozenset(tau - {t})
        seq = _place_median(reduced)
        covered = set(seq)
        missing = sorted((t - {x}) - covered)
        placed = _insert_and_verify(seq, missing + [x], members)
        if placed is None:
            raise InternalVerificationError("no insertion slot in the n=1 case")
        return placed

    if counts[x] == 2:
        t, t2 = (m for m in members if x in m)
        shared = t & t2
        if len(shared) == 2:
            # Two triples overlapping in x and one more taxon: replace the
            # pair by the single triple over their other three taxa.  That
            # triple cannot already belong to a thin system, but the set
            # union below and the final verification stay safe either way.
            candidates = [(t | t2) - {x}]
        else:
            quad = sorted((t | t2) - {x})
            candidates = [
                frozenset(c)
                for c in sorted(
                    tuple(sorted(set(quad) - {drop})) for drop in quad
                )
                if frozenset(c) not in tau
            ]
        for y in candidates:
            reduced = frozenset((tau - {t, t2}) | {y})
            if not _is_thin_triples(reduced):
                continue
            seq = _place_median(reduced)
            covered = set(seq)
            missing = sorted(((t | t2) - {x}) - covered)
            placed = _insert_and_verify(seq, missing + [x], members)
            if placed is not None:
                return placed
        raise InternalVerificationError("no reduction worked in the n=2 case")

    raise InternalVerificationError(
        "thin system with no taxon of occurrence count <= 2"
    )


def _canonical_sequence(seq: list[str]) -> list[str]:
    # A caterpillar is unchanged by reversal and by swapping within each
    # end cherry; pick the lexicographically least equivalent sequence.
    def normalized(s: list[str]) -> list[str]:
        out = list(s)
        out[0:2] = sorted(out[0:2])
        out[-2:] = sorted(out[-2:])
        return out

    return min(normalized(seq), normalized(seq[::-1]))


def caterpillar_median_representation(system: SetSystem) -> RepresentationReport:
    """An unrooted caterpillar on the universe with injective member medians.

    The system must be uniformly of size 3, thin (checked via the
    minimizer), and the universe must have at least 4 taxa.  Universe
    taxa outside L(tau) are appended past the far end of the spine; the
    injectivity of the median map is recomputed from the finished tree.
    """
    if system.uniform_size() != 3:
        raise MemberSizeError("median representation needs a system of triples")
    if len(system.universe) < 4:
        raise InputError(
            f"need at least 4 taxa in the universe, got {len(system.universe)}"
        )
    minimizer = graphopt.sigma_star(system)
    if minimizer.value < 2:
        raise PreconditionError(
            "system is not thin (sigma* = %d)" % minimizer.value,
            certificate=minimizer,
        )

    tau = frozenset(system.member_label_sets())
    seq = _canonical_sequence(_place_median(tau))
    appended = tuple(sorted(set(system.universe) - set(seq)))
    seq = seq + list(appended)

    tree = unrooted_caterpillar(seq)
    ok, collision = verify_median_injective(tree, system)
    if not ok:
        raise InternalVerificationError(
            f"median collision between members {collision}"
        )
    n = len(seq)
    vertex_map = {}
    for i in range(system.member_count):
        med = tree.median(system.member_labels(i))
        if not 0 <= med <= n - 3:
            raise InternalVerificationError("median landed on a leaf")
        vertex_map[i] = med
    if not tree.is_binary() or tree.cherry_count() > 2:
        raise InternalVerificationError("construction is not a caterpillar")
    return RepresentationReport(
        kind="median-caterpillar",
        tree=tree,
        sequence=tuple(seq),
        vertex_map=vertex_map,
        verified=True,
        appended=appended,
    )


def verify_median_injective(
    tree: UnrootedPhyloTree, system: SetSystem
) -> tuple[bool, tuple[int, int] | None]:
    """Recompute every member's median; report the first colliding pair."""
    leaves = set(tree.leaves)
    seen: dict[int, int] = {}
    for i in range(system.member_count):
        labels = system.member_labels(i)
        if not set(labels) <= leaves:
            raise InputError(f"member {','.join(labels)} has taxa outside the tree")
        med = tree.median(labels)
        if med in seen:
            return False, (seen[med], i)
        seen[med] = i
    return True, None


# -- the lca-caterpillar recursion ----------------------------------------------


def _place_pairs(tau: frozenset[frozenset[str]]) -> list[str]:
    members = sorted(tau, key=sorted)
    if len(members) == 1:
        return sorted(members[0])
    universe = sorted({x for m in members for x in m})
    counts = {x: sum(1 for m in members if x in m) for x in universe}
    singles = [x for x in universe if counts[x] == 1]
    if not singles:
        raise InternalVerificationError(
            "thin pair system with no taxon of occurrence count 1"
        )
    x = singles[0]
    (t,) = (m for m in members if x in m)
    (a,) = t - {x}
    reduced = frozenset(tau - {t})
    seq = _place_pairs(reduced)
    if a in set(seq):
        return seq + [x]
    return seq + [a, x]


def lca_caterpillar_representation(system: SetSystem) -> RepresentationReport:
    """A rooted caterpillar on the universe with injective member lcas.

    The system must be uniformly of size 2 and thin (sigma* >= 1).
    Universe taxa outside L(tau) are appended above the existing spine
    and flagged in the report.  The lca map is recomputed from the
    finished tree and its depths give the spine numbering.
    """
    if system.uniform_size() != 2:
        raise MemberSizeError("lca representation needs a system of pairs")
    minimizer = graphopt.sigma_star(system)
    if minimizer.value < 1:
        raise PreconditionError(
            "system is not thin (sigma* = %d)" % minimizer.value,
            certificate=minimizer,
        )

    tau = frozenset(system.member_label_sets())
    seq = _place_pairs(tau)
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
    return RepresentationReport(
        kind="lca-caterpillar",
        tree=tree,
        sequence=tuple(seq),
        vertex_map=vertex_map,
        verified=True,
        appended=appended,
    )


# -- total orders ----------------------------------------------------------------


class OrderReport(NamedTuple):
    """A total order extending the orientation, or a directed cycle."""

    order: tuple[str, ...] | None
    cycle: tuple[str, ...] | None

    @property
    def extendable(self) -> bool:
        return self.order is not None


def extend_to_total_order(
    universe: Iterable[str], orientation: Iterable[tuple[str, str]]
) -> OrderReport:
    """Extend ordered pairs to a total order, smallest label first.

    Each pair (x, y) declares x before y.  If the precedence digraph is
    acyclic the lexicographically preferred topological order is
    returned; otherwise a directed cycle is reported.
    """
    nodes = sorted(set(universe))
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
        return OrderReport(order=tuple(order), cycle=None)

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
    return OrderReport(order=None, cycle=tuple(cycle[start:] + cycle[:start]))


def is_total_order_flexible(
    system: SetSystem, mode: str = "forest", cap: int = DEFAULT_ORIENTATION_CAP
) -> CheckReport:
    """Whether every orientation of the pair system extends to a total order.

    `forest` mode delegates to the incidence-graph acyclicity test;
    `bruteforce` enumerates all 2^k orientations (bit 1 reverses the
    sorted pair) and reports the first that fails, with its cycle.
    """
    if system.uniform_size() != 2:
        raise MemberSizeError("total-order flexibility needs a system of pairs")
    if mode == "forest":
        ok, cycle = graphopt.is_forest(graphopt.incidence_graph(system, "unit"))
        return CheckReport(
            verdict=ok,
            method="forest",
            certificate=cycle,
            stats={},
            recheck="setflex.graphopt.is_forest",
        )
    if mode != "bruteforce":
        raise InputError(f"mode must be 'forest' or 'bruteforce', got {mode!r}")
    k = system.member_count
    if k > cap:
        raise CapExceededError(f"{k} pairs exceed the orientation cap {cap}")
    pairs = [tuple(system.member_labels(i)) for i in range(k)]
    universe = system.universe
    checked = 0
    for mask in range(1 << k):
        orientation = [
            (pairs[i][1], pairs[i][0]) if mask >> i & 1 else pairs[i]
            for i in range(k)
        ]
        checked += 1
        report = extend_to_total_order(universe, orientation)
        if not report.extendable:
            return CheckReport(
                verdict=False,
                method="bruteforce",
                certificate=(tuple(orientation), report.cycle),
                stats={"orientations_checked": checked},
                recheck="setflex.represent.extend_to_total_order",
            )
    return CheckReport(
        verdict=True,
        method="bruteforce",
        certificate=None,
        stats={"orientations_checked": checked},
        recheck="setflex.represent.extend_to_total_order",
    )
