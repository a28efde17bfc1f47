"""Caterpillar representations and total-order flexibility.

Median representations live on unrooted trees, so `UnrootedPhyloTree`
is defined here, where its only user is: an edge list with labeled
leaves, its medians read by `phylo._three` off the preorder sparse table
(`phylo._lca_table`) of the tree hung from the interior vertex next to
the smallest leaf, and its Newick text printed through
`phylo.RootedPhyloTree` from the same hanging.  Requests that never
build one (supertree, count, the flexibility scan) do not compile it.

A caterpillar is handled as a leaf sequence: sequence position p (with
0 <= p <= n-1) attaches to spine vertex w_{max(0, min(p-1, n-3))}, and
the median of a 3-set is the spine vertex of its middle element.  A
caterpillar therefore provides an injective median representation of a
triple system exactly when the members have pairwise distinct middle
elements in the sequence, which is what the construction below arranges
and what the final verification (recomputed from the actual tree, never
trusted from the construction) re-checks.

The thin-system construction peels a taxon x of minimal occurrence
count (at most 2 for thin systems covering their universe) and reduces
the system as the occurrence pattern dictates, down to a base case that
a direct search over leaf orderings solves.  The reductions go on one
explicit stack; unwinding it re-inserts each x at the first insertion
slot, in a canonical order, that keeps the member middles distinct.
"""

from __future__ import annotations

import heapq
from itertools import combinations, permutations
from typing import Iterable, Mapping, NamedTuple

from . import graphopt, phylo, setsys
from .errors import (
    CapExceededError,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    PreconditionError,
    check_label,
    check_limit,
)

DEFAULT_ORIENTATION_CAP = 20


# -- unrooted trees -------------------------------------------------------------


class UnrootedPhyloTree:
    """An unrooted phylogenetic tree: leaves labeled, interior degree >= 3."""

    __slots__ = ("_adj", "_labels", "_label_to_v", "_hang", "_lca")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        leaf_labels: Mapping[int, str],
    ):
        adj: dict[int, list[int]] = {}
        for u, v in edges:
            if u == v:
                raise InputError("self-loops are not allowed")
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for v, nb in adj.items():
            if len(nb) != len(set(nb)):
                raise InputError(f"parallel edges at vertex {v}")
        labels = dict(leaf_labels)
        for v, lab in labels.items():
            check_label(lab)
            if v not in adj:
                raise InputError(f"labeled vertex {v} has no edges")
        if len(set(labels.values())) != len(labels):
            raise InputError("duplicate leaf labels")
        for v, nb in adj.items():
            if len(nb) == 1 and v not in labels:
                raise InputError(f"degree-1 vertex {v} is unlabeled")
            if len(nb) > 1 and v in labels:
                raise InputError(f"labeled vertex {v} is not a leaf")
            if 1 < len(nb) < 3:
                raise InputError(f"interior vertex {v} has degree {len(nb)} < 3")
        # Connectivity and acyclicity, with a preorder (vertex, parent position)
        # from the smallest leaf's neighbour that hangs it for median and newick.
        order, parents, pos = [], [], {}
        root = adj[min(labels, key=labels.get)][0] if labels else next(iter(adj), None)
        stack = [(root, -1)] if adj else []
        while stack:
            v, up = stack.pop()
            if v not in pos:
                pos[v] = len(order)
                order.append(v)
                parents.append(up)
                stack.extend((w, pos[v]) for w in adj[v] if w not in pos)
        if len(order) != len(adj):
            raise InputError("tree is not connected")
        if adj and sum(map(len, adj.values())) // 2 != len(adj) - 1:
            raise InputError("edge count does not match a tree")
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        self._labels = labels
        self._label_to_v = {lab: v for v, lab in labels.items()}
        self._hang, self._lca = (order, pos, parents), None

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(self._labels.values()))

    def leaf_vertex(self, label: str) -> int:
        try:
            return self._label_to_v[label]
        except KeyError:
            raise InputError(f"unknown leaf {label!r}") from None

    def label(self, v: int) -> str | None:
        return self._labels.get(v)

    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if v not in self._labels)

    def is_binary(self) -> bool:
        return all(len(self._adj[v]) == 3 for v in self.interior_vertices())

    def cherry_count(self) -> int:
        """Number of leaf pairs sharing a neighbor."""
        count = 0
        for v in self.interior_vertices():
            leafy = sum(1 for w in self._adj[v] if w in self._labels)
            count += leafy * (leafy - 1) // 2
        return count

    def median(self, taxa: Iterable[str]) -> int:
        """The vertex shared by the three leaf paths: the deepest pairwise lca."""
        labs = sorted(set(taxa))
        if len(labs) != 3:
            raise InputError(f"median needs exactly three taxa, got {labs}")
        order, pos, parents = self._hang
        if self._lca is None:
            self._lca = phylo._lca_table(parents)
        u, v, w = sorted(pos[self.leaf_vertex(x)] for x in labs)
        return order[phylo._three(*self._lca, u, v, w)[1]]

    def newick(self) -> str:
        """Serialize by rooting at the interior vertex next to the smallest leaf."""
        if len(self._adj) == 2:
            a, b = sorted(self._labels.values())
            return f"({a},{b});"
        # The preorder hangs the tree from that vertex: build the nested
        # shape from the far end back, and print its canonical form, whose
        # children are ordered by smallest leaf label.
        order, _, parents = self._hang
        kids: list[list] = [[] for _ in order]
        for p in range(len(order) - 1, 0, -1):
            v = order[p]
            kids[parents[p]].append(self._labels[v] if v in self._labels else tuple(kids[p]))
        return phylo.RootedPhyloTree(tuple(kids[0])).newick()


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


def rooted_caterpillar(sequence: Iterable[str]) -> phylo.RootedPhyloTree:
    """The rooted caterpillar whose deepest cherry is the first two leaves."""
    seq = list(sequence)
    if len(seq) < 2:
        raise InputError(f"a rooted caterpillar needs >= 2 leaves, got {len(seq)}")
    shape = (seq[0], seq[1])
    for leaf in seq[2:]:
        shape = (shape, leaf)
    return phylo.RootedPhyloTree(shape)


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
    tree: UnrootedPhyloTree | phylo.RootedPhyloTree
    sequence: tuple[str, ...]
    vertex_map: dict[int, int]
    verified: bool
    appended: tuple[str, ...]


# -- the peel: incidence counts and a lazy heap ----------------------------------


def _incidence(members) -> tuple[dict, list]:
    """taxon -> set of members holding it, and a heap of (count, taxon)."""
    members_of: dict[str, set] = {}
    for m in members:
        for lab in m:
            members_of.setdefault(lab, set()).add(m)
    heap = [(len(holders), lab) for lab, holders in members_of.items()]
    heapq.heapify(heap)
    return members_of, heap


def _lightest(members_of: dict, heap: list) -> tuple[int, str]:
    """The least (count, taxon), as `min` over the live taxa would give it.

    Every count change pushes a fresh entry, so an entry whose count is
    no longer the taxon's (or whose taxon has left) is stale and dropped.
    """
    while True:
        count, lab = heap[0]
        holders = members_of.get(lab)
        if holders is not None and len(holders) == count:
            return count, lab
        heapq.heappop(heap)


def _drop(member, members_of: dict, heap: list) -> None:
    for lab in member:
        holders = members_of[lab]
        holders.discard(member)
        if holders:
            heapq.heappush(heap, (len(holders), lab))
        else:
            del members_of[lab]


# -- middle-element bookkeeping -------------------------------------------------


def _middle(positions: dict[str, int], member: frozenset[str]) -> str:
    labs = sorted(member, key=positions.__getitem__)
    return labs[len(labs) // 2]


def _insert_checked(seq: list[str], to_place: list[str], checked, taken) -> list[str] | None:
    """Insert `to_place` (in order) into seq at the first slots, in nested
    canonical order, where the `checked` members get pairwise distinct
    middles outside `taken`; return those middles, or None if no slots do.

    Canonical order tries slots 0..n, or n..0 when the sequence ends in a
    smaller label than it starts with.  An insertion keeps the relative
    order of the placed taxa, so only the members holding an inserted
    taxon can change middle.  Taxa before x take their first slot, an
    end: they occur only at count-1 levels (at count 2 every taxon of t
    and t2 but x stays covered), where x between t's other two taxa makes
    the new x t's middle, so no later slot for them is ever needed.

    For x the middles depend only on how many of the other checked taxa
    (at positions p_0 < ... < p_{m-1}) precede it: forward order meets
    class j first at slot p_{j-1} + 1 (0 for j = 0), reverse order at
    p_j (n for j = m).
    """
    *outer, x = to_place
    n, first, last = len(seq), seq[0], seq[-1]
    rel = {lab for member in checked for lab in member} - set(to_place)
    pos = {lab: seq.index(lab) for lab in rel}
    slots = []
    for lab in outer:
        if last < first:
            slot, last = n, lab
        else:
            slot, first = 0, lab
            pos = {u: p + 1 for u, p in pos.items()}
        pos[lab] = slot
        slots.append(slot)
        n += 1
    order = sorted(pos, key=pos.__getitem__)
    m = len(order)
    if last < first:
        classes = [(j, pos[order[j]] if j < m else n) for j in range(m, -1, -1)]
    else:
        classes = [(j, pos[order[j - 1]] + 1 if j else 0) for j in range(m + 1)]
    for j, slot in classes:
        rank = {u: i for i, u in enumerate(order[:j] + [x] + order[j:])}
        middles = [_middle(rank, member) for member in checked]
        if len(set(middles)) == len(middles) and not any(mid in taken for mid in middles):
            for lab, at in zip(to_place, slots + [slot]):
                seq.insert(at, lab)
            return middles
    return None


# -- the median-caterpillar peel ------------------------------------------------


def _peel_median(live: set, levels: list, skip: int) -> list[str]:
    """Reduce `live` in place to a base case, pushing one record per level.

    Each level peels the taxon x of least (occurrence count, label).  At
    count 1 its member t goes; at count 2 its members t, t2 give way to
    the first thin candidate triple y after the first `skip` ones (`skip`
    > 0 only when a level is retried).  A record holds the taxa to insert
    on the way back (those of t, t2 the reduced system lacks, then x),
    the members holding them, y and y's candidate index.  Returns the
    base case's leaf order.
    """
    members_of, heap = _incidence(live)
    while len(live) > 1 and len(members_of) > 4:
        count, x = _lightest(members_of, heap)
        checked = tuple(sorted(members_of[x], key=sorted))
        if count > 2:
            raise InternalVerificationError(
                "thin system with no taxon of occurrence count <= 2"
            )
        for member in checked:
            _drop(member, members_of, heap)
            live.discard(member)
        y = index = None
        if count == 2:
            t, t2 = checked
            if len(t & t2) == 2:
                # Two triples overlapping in x and one more taxon: replace
                # the pair by the single triple over their other three
                # taxa, which a thin system cannot already hold (with t and
                # t2 it would put three members on four taxa).
                candidates = [(t | t2) - {x}]
            else:
                quad = sorted((t | t2) - {x})
                candidates = [frozenset(c) for c in combinations(quad, 3)
                              if frozenset(c) not in live]
            for index in range(skip, len(candidates)):
                y = candidates[index]
                trial = setsys.SetSystem([sorted(m) for m in live | {y}])
                if graphopt.sigma_star(trial).value >= 2:
                    break
            else:
                raise InternalVerificationError("no reduction worked in the n=2 case")
            skip = 0
            live.add(y)
            for lab in y:
                members_of.setdefault(lab, set()).add(y)
                heapq.heappush(heap, (len(members_of[lab]), lab))
        missing = sorted({lab for m in checked for lab in m
                          if lab != x and lab not in members_of})
        levels.append((missing + [x], checked, y, index))

    universe = sorted(members_of)
    if len(live) <= 1:
        return universe
    members = sorted(live, key=sorted)
    for perm in permutations(universe):
        positions = {lab: i for i, lab in enumerate(perm)}
        if len({_middle(positions, m) for m in members}) == len(members):
            return list(perm)
    raise InternalVerificationError("no ordering for a thin base case")


def _place_median(tau: frozenset[frozenset[str]]) -> list[str]:
    """A leaf order of L(tau) whose member middles are pairwise distinct.

    One top-down peel records its reductions on a stack; unwinding it
    re-inserts each level's taxa at the first valid slots in canonical
    order.  `middle_of` and `owner` hold the middle of every member of
    the current level, which an insertion leaves in place.  When no slot
    works at a count-2 level, that level is peeled again from its own
    system with the next candidate, as the recursive construction would.
    """
    levels: list[tuple] = []
    live = set(tau)
    skip = 0
    while True:
        seq = _peel_median(live, levels, skip)
        positions = {lab: i for i, lab in enumerate(seq)}
        middle_of = {m: _middle(positions, m) for m in live}
        owner = {mid: m for m, mid in middle_of.items()}
        while levels:
            to_place, checked, y, index = levels.pop()
            if y is not None:
                del owner[middle_of.pop(y)]
            middles = _insert_checked(seq, to_place, checked, owner)
            if middles is None:
                if y is None:
                    raise InternalVerificationError("no insertion slot in the n=1 case")
                live = set(middle_of).union(checked)
                skip = index + 1
                break
            for member, mid in zip(checked, middles):
                middle_of[member] = mid
                owner[mid] = member
        else:
            return seq


def _canonical_sequence(seq: list[str]) -> list[str]:
    # A caterpillar is unchanged by reversal and by swapping within each
    # end cherry; pick the lexicographically least equivalent sequence.
    def normalized(s: list[str]) -> list[str]:
        out = list(s)
        out[0:2] = sorted(out[0:2])
        out[-2:] = sorted(out[-2:])
        return out

    return min(normalized(seq), normalized(seq[::-1]))


def caterpillar_median_representation(system: setsys.SetSystem) -> RepresentationReport:
    """An unrooted caterpillar on the universe with injective member medians.

    The system must be uniformly of size 3, thin (checked via the
    minimizer), and the universe must have at least 4 taxa.  Universe
    taxa outside L(tau) are appended past the far end of the spine; the
    injectivity of the median map is recomputed from the finished tree.
    """
    if setsys.require_members(system).uniform_size() != 3:
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
    vertex_map: dict[int, int] = {}
    ok, collision = verify_median_injective(tree, system, vertex_map)
    if not ok:
        raise InternalVerificationError(
            f"median collision between members {collision}"
        )
    if not all(0 <= med <= len(seq) - 3 for med in vertex_map.values()):
        raise InternalVerificationError("median landed on a leaf")
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
    tree: UnrootedPhyloTree,
    system: setsys.SetSystem,
    medians: dict[int, int] | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Recompute every member's median; report the first colliding pair.

    Each median is computed once; `medians`, if given, receives member
    index -> median for every member checked.
    """
    leaves = set(tree.leaves)
    seen: dict[int, int] = {}
    for i in range(system.member_count):
        labels = system.member_labels(i)
        if not set(labels) <= leaves:
            raise InputError(f"member {','.join(labels)} has taxa outside the tree")
        med = tree.median(labels)
        if medians is not None:
            medians[i] = med
        if med in seen:
            return False, (seen[med], i)
        seen[med] = i
    return True, None


# -- the lca-caterpillar peel ----------------------------------------------------


def _place_pairs(tau: frozenset[frozenset[str]]) -> list[str]:
    """A leaf order of L(tau) for a forest of pairs, by one leaf peel.

    Each step drops the pair t of the least-labelled taxon x of count 1;
    unwinding appends x (after its partner, if the reduced system lacks
    it) above the spine built so far.
    """
    members_of, heap = _incidence(tau)
    peeled = []
    for _ in range(len(tau) - 1):
        count, x = _lightest(members_of, heap)
        if count != 1:
            raise InternalVerificationError(
                "thin pair system with no taxon of occurrence count 1"
            )
        (t,) = members_of[x]
        _drop(t, members_of, heap)
        (a,) = t - {x}
        peeled.append([x] if a in members_of else [a, x])
    seq = sorted(members_of)
    for taxa in reversed(peeled):
        seq.extend(taxa)
    return seq


def lca_caterpillar_representation(system: setsys.SetSystem) -> RepresentationReport:
    """A rooted caterpillar on the universe with injective member lcas.

    The system must be uniformly of size 2 and thin (sigma* >= 1), which
    for pairs is the incidence graph being a forest (the paper's pair
    theorem), tested in linear time; the minimizer runs only to certify
    a "no".  Universe taxa outside L(tau) are appended above the
    existing spine and flagged in the report.  The lca map is recomputed
    from the finished tree and its depths give the spine numbering.
    """
    if setsys.require_members(system).uniform_size() != 2:
        raise MemberSizeError("lca representation needs a system of pairs")
    if not graphopt.is_forest(graphopt.incidence_graph(system, "unit"))[0]:
        minimizer = graphopt.sigma_star(system)
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
    returned; otherwise a directed cycle is reported.  Every label must
    pass `check_label`, so that the text formats can read it back.
    """
    nodes = sorted(set(universe))
    for label in nodes:
        check_label(label)
    return _extend_sorted(nodes, orientation)


def _extend_sorted(
    nodes: list[str] | tuple[str, ...], orientation: Iterable[tuple[str, str]]
) -> OrderReport:
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
    system: setsys.SetSystem, mode: str = "forest", cap: int = DEFAULT_ORIENTATION_CAP
) -> setsys.CheckReport:
    """Whether every orientation of the pair system extends to a total order.

    `forest` mode delegates to the incidence-graph acyclicity test;
    `bruteforce` enumerates all 2^k orientations (bit 1 reverses the
    sorted pair) and reports the first that fails, with its cycle.
    """
    if system.uniform_size() != 2:
        raise MemberSizeError("total-order flexibility needs a system of pairs")
    if mode == "forest":
        ok, cycle = graphopt.is_forest(graphopt.incidence_graph(system, "unit"))
        return setsys.CheckReport(
            verdict=ok,
            method="forest",
            certificate=cycle,
            stats={},
        )
    if mode != "bruteforce":
        raise InputError(f"mode must be 'forest' or 'bruteforce', got {mode!r}")
    k = system.member_count
    if k > check_limit("cap", cap):
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
        report = _extend_sorted(universe, orientation)
        if not report.extendable:
            return setsys.CheckReport(
                verdict=False,
                method="bruteforce",
                certificate=(tuple(orientation), report.cycle),
                stats={"orientations_checked": checked},
            )
    return setsys.CheckReport(
        verdict=True,
        method="bruteforce",
        certificate=None,
        stats={"orientations_checked": checked},
    )
