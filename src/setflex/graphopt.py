"""Bipartite incidence graphs and the polynomial-time thin/slim checks.

The surplus minimizers work by a forced-member min-cut reduction rather
than a general submodular minimizer: with member v forced into the
selection, the min cut of one flow network equals (constant offset) +
the minimum of the measure over selections containing v.  Minimizing
over the forced member then covers all non-empty selections.

The network is max-flowed once, unforced, by Dinic's phases, the
first of which routes each member straight through its free taxa.
Forcing v only raises its source arc, and every augmenting path must
then start with that arc, so v gains exactly the maximum flow from v
to the sink in the base residual with the source dropped.  There every
taxon passes at most one unit and members are uncapacitated, so by
Menger v gains the largest number f_v of v -> sink paths sharing no
taxon, and f_v is at most room_v, the taxa of v that carry none of v's
base flow.  One dominator tree of the reversed residual, rooted at the
sink, gives min(f_v, 2) for every member at once: 0 if v cannot reach
the sink, 1 if a taxon dominates v, else 2.  That is f_v whenever
room_v <= 2; only a member reading 2 with room_v > 2 is solved by an
explicit forced augmentation, and only if it could still beat the best
value found.  The witness and cut come from one forced augmentation of
the chosen member.  `max_flow` and the minimizer share one augmenting
routine and one residual-cut routine.

The minimizer also decides the degree-two forests of Lovasz's theorem:
sigma* >= 1 iff each member can keep two taxa so that the kept pairs
form a forest.  `surplus_forest` builds the first one by a greedy
union-find pass, or, if that pass fails, by fixing one member's pair at
a time for which the minimizer still reads sigma* >= 1.

`sdr` is Hall's theorem on the same network with unit weights: one
max flow gives the representatives, or its residual source side gives
the violator.

Everything is deterministic: flows and searches take arcs in insertion
order, and the forced-member minimum breaks ties by canonical member
index.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import NamedTuple

from .errors import (
    InputError,
    InternalVerificationError,
    MemberSizeError,
)
from .setsys import CheckReport, SetSystem, gamma, require_members, sigma, size_minus_two


class BipartiteIncidenceGraph(NamedTuple):
    """The member-versus-taxon containment graph of a set system.

    `adjacency[i]` lists the taxon ids of member i in sorted order;
    `weights[i]` is the member weight (1 or |s|-2 depending on use).
    `taxa` holds the occurring taxon ids sorted, with `taxon_labels`
    aligned to it.
    """

    member_count: int
    taxa: tuple[int, ...]
    taxon_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]


def incidence_graph(system: SetSystem, weighting: str = "unit") -> BipartiteIncidenceGraph:
    """Build G(tau) with unit or size-minus-two member weights."""
    if weighting == "unit":
        weights = tuple(1 for _ in system.members)
    elif weighting == "size_minus_two":
        weights = tuple(size_minus_two(system))
    else:
        raise InputError(f"weighting must be 'unit' or 'size_minus_two', got {weighting!r}")
    present = sorted({x for m in system.members for x in m})
    return BipartiteIncidenceGraph(
        member_count=system.member_count,
        taxa=tuple(present),
        taxon_labels=tuple(system.label_of(x) for x in present),
        adjacency=tuple(system.members),
        weights=weights,
    )


# -- max flow -----------------------------------------------------------------


class FlowNetwork:
    """Integer-capacity flow network with named nodes.

    Arcs store capacity and a paired reverse arc of capacity 0; the
    residual graph lives in the same arrays.  Augmentation explores arcs
    in insertion order, so results are deterministic for a fixed build
    order.
    """

    def __init__(self):
        self.names: list[str] = []
        self.adj: list[list[int]] = []
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.source: int | None = None
        self.sink: int | None = None

    def add_node(self, name: str) -> int:
        self.names.append(name)
        self.adj.append([])
        return len(self.names) - 1

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        if capacity < 0:
            raise InputError("arc capacities must be non-negative")
        self.adj[u].append(len(self.arc_to))
        self.arc_to.append(v)
        self.arc_cap.append(capacity)
        self.adj[v].append(len(self.arc_to))
        self.arc_to.append(u)
        self.arc_cap.append(0)


class FlowResult(NamedTuple):
    """A maximum flow: its value, one minimum cut, and the final residual.

    `residual` is aligned with the network's arc arrays, so a caller can
    raise some capacities in a copy of it and keep augmenting from this
    flow instead of starting over.
    """

    value: int
    source_side: frozenset[int]
    cut_arcs: tuple[tuple[str, str, int], ...]
    residual: tuple[int, ...]
    augmenting_paths: int


def _augment(network: FlowNetwork, cap: list[int]) -> tuple[int, int]:
    """Augment the residual `cap` to a maximum flow, by Dinic's phases.

    Each phase levels the residual by one BFS from the source and then
    augments along level-increasing paths, found depth first with a
    current-arc pointer per node, until the sink is cut off; arcs are
    tried in insertion order.  `cap` is updated in place.  Returns the
    flow added and the number of augmenting paths used.
    """
    s, t = network.source, network.sink
    adj, arc_to = network.adj, network.arc_to
    node_count = len(network.names)
    added = paths = 0
    while True:
        level = [-1] * node_count
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:  # every node nearer the source has been expanded
                break
            for a in adj[u]:
                v = arc_to[a]
                if cap[a] > 0 and level[v] == -1:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] == -1:
            return added, paths
        pointer = [0] * node_count
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                added += bottleneck
                paths += 1
                # Back up to the tail of the first saturated arc.
                cut = next(j for j, a in enumerate(path) if not cap[a])
                u = arc_to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs, i, deeper = adj[u], pointer[u], level[u] + 1
            end = len(arcs)
            while i < end and not (cap[arcs[i]] > 0 and level[arc_to[arcs[i]]] == deeper):
                i += 1
            pointer[u] = i
            if i < end:
                path.append(arcs[i])
                u = arc_to[arcs[i]]
            elif u == s:
                break
            else:  # dead end: drop the arc into it
                u = arc_to[path.pop() ^ 1]
                pointer[u] += 1


def _residual_cut(network: FlowNetwork, cap: list[int]) -> tuple[frozenset[int], tuple]:
    """The source side of the residual `cap` and the network arcs leaving it.

    Cut arcs are reported by node name with their capacity in `network`.
    """
    adj, arc_to = network.adj, network.arc_to
    reachable = {network.source}
    queue = deque([network.source])
    while queue:
        u = queue.popleft()
        for a in adj[u]:
            v = arc_to[a]
            if cap[a] > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)
    cut = []
    for u in sorted(reachable):
        for a in adj[u]:
            v = arc_to[a]
            if a % 2 == 0 and v not in reachable:
                cut.append((network.names[u], network.names[v], network.arc_cap[a]))
    return frozenset(reachable), tuple(cut)


def max_flow(network: FlowNetwork) -> FlowResult:
    """Dinic max flow; returns the value and one minimum cut.

    The cut is reported as the source side of the residual graph plus
    the saturated arcs crossing it.
    """
    s, t = network.source, network.sink
    if s is None or t is None:
        raise InputError("network has no designated source/sink")
    if s == t:
        raise InputError("source and sink must differ")
    cap = list(network.arc_cap)
    value, paths = _augment(network, cap)
    source_side, cut = _residual_cut(network, cap)
    return FlowResult(value=value, source_side=source_side, cut_arcs=cut,
                      residual=tuple(cap), augmenting_paths=paths)


def _sink_gains(network: FlowNetwork, cap, first_taxon: int) -> list[int]:
    """min(2, taxon-disjoint paths to the sink) for every node, in residual `cap`.

    Nodes from `first_taxon` on are the unit-capacity taxa; the source is
    dropped.  The immediate dominators of the reversed residual, rooted
    at the sink, come from Lengauer and Tarjan's algorithm (1979, the
    simple version with path compression), on depth-first numbers; a
    node that cannot reach the sink reads 0, one below a dominating
    taxon reads 1.
    """
    s, t = network.source, network.sink
    adj, arc_to = network.adj, network.arc_to
    # Depth-first numbering along reversed arcs: u -> w whenever the
    # residual has w -> u, i.e. cap[a ^ 1] for the arc a from u to w.  A
    # node is numbered when popped, below the last node that pushed it.
    num = [-1] * len(adj)
    num[s] = -2
    vertex, parent = [], []
    stack = [(t, 0)]
    while stack:
        u, p = stack.pop()
        if num[u] == -1:
            num[u] = len(vertex)
            vertex.append(u)
            parent.append(p)
            stack.extend((arc_to[a], num[u]) for a in adj[u]
                         if cap[a ^ 1] and num[arc_to[a]] == -1)
    n = len(vertex)
    semi = list(range(n))
    label = list(range(n))
    ancestor = [-1] * n
    idom = [0] * n
    bucket: list[list[int]] = [[] for _ in range(n)]

    def evaluate(v: int) -> int:
        if ancestor[v] == -1:
            return v
        path, u = [], v
        while ancestor[ancestor[u]] != -1:
            path.append(u)
            u = ancestor[u]
        for x in reversed(path):  # compress, nearest the forest root first
            a = ancestor[x]
            if semi[label[a]] < semi[label[x]]:
                label[x] = label[a]
            ancestor[x] = ancestor[a]
        return label[v]

    for w in range(n - 1, 0, -1):
        for a in adj[vertex[w]]:
            v = num[arc_to[a]]
            if cap[a] and v >= 0:
                u = evaluate(v)
                if semi[u] < semi[w]:
                    semi[w] = semi[u]
        bucket[semi[w]].append(w)
        p = parent[w]
        ancestor[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    gains = [0] * len(adj)
    below_taxon = [False] * n
    for w in range(1, n):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
        d = idom[w]
        below_taxon[w] = below_taxon[d] or vertex[d] >= first_taxon
        gains[vertex[w]] = 1 if below_taxon[w] else 2
    return gains


# -- surplus minimization -----------------------------------------------------


class MinimizerReport(NamedTuple):
    """Minimum of sigma (or gamma) over non-empty selections, with witness.

    The cut certifies optimality: its capacity equals value + offset,
    where offset is the total member weight of the reduction.
    `augmenting_paths` (base flow and every forced augmentation),
    `forced_members` (members minimized over) and
    `forced_solves` (members solved by an explicit forced augmentation)
    count the work done.
    """

    value: int
    witness: tuple[int, ...]
    cut: tuple[tuple[str, str, int], ...]
    offset: int
    augmenting_paths: int
    forced_members: int
    forced_solves: int


def _member_network(graph: BipartiteIncidenceGraph) -> tuple[FlowNetwork, list[int], int]:
    """The network source -> member -> taxon -> sink of `graph`.

    Source -> member arcs carry the member weight, member -> taxon
    containment arcs a sentinel capacity, taxon -> sink arcs 1.  Nodes
    are numbered source 0, sink 1, member i as 2 + i, then taxon
    `graph.taxa[p]` as 2 + k + p, named `taxon:<label>`.  The sentinel
    is above the total finite capacity, so containment arcs, and source
    arcs raised to it, are never cut.  Returns the network, each
    member's source arc index and the sentinel.
    """
    k = graph.member_count
    taxon_node = {x: 2 + k + p for p, x in enumerate(graph.taxa)}
    cinf = sum(graph.weights) + len(graph.taxa) + 1
    net = FlowNetwork()
    net.source = net.add_node("source")
    net.sink = net.add_node("sink")
    for i in range(k):
        net.add_node(f"member:{i}")
    for lab in graph.taxon_labels:
        net.add_node(f"taxon:{lab}")
    source_arcs = []
    for i in range(k):
        source_arcs.append(len(net.arc_to))
        net.add_arc(net.source, 2 + i, graph.weights[i])
        for x in graph.adjacency[i]:
            net.add_arc(2 + i, taxon_node[x], cinf)
    for p in range(len(graph.taxa)):
        net.add_arc(2 + k + p, net.sink, 1)
    return net, source_arcs, cinf


def _minimize_surplus(graph: BipartiteIncidenceGraph) -> MinimizerReport:
    """Minimum of the weighted surplus over non-empty member selections.

    On the network of `_member_network`, a source side holding the
    members W (and necessarily their taxa) cuts
    total_weight - w(W) + |L(W)|, so forcing member v onto
    the source side (its source arc at a sentinel) gives total_weight
    plus the minimum over selections containing v.

    One max flow, unforced: Dinic's first phase is a greedy pass over
    the length-3 paths source -> member -> free taxon -> sink, so a
    chain needs about one pass.  Forcing v keeps that flow feasible and
    adds f_v units: the number of taxon-disjoint v -> sink paths in its
    residual without the source (Menger; members are uncapacitated, taxa
    pass one unit).  f_v <= room_v = |v| - (base flow through v), and one
    dominator pass (`_sink_gains`) gives min(f_v, 2), which is exact
    when room_v <= 2: every gamma member (a saturated one has room 2, an
    unsaturated one reaches no sink) and every sigma member of size <= 3.
    A member reading 2 with room > 2 (sigma, size >= 4) is solved by a
    forced augmentation from a copy of the base residual, unless its
    lower bound cannot beat the best value found so far.

    The witness and cut come from one forced augmentation of the lowest
    minimizing member index, whose gain must match the dominator count.
    They equal a cold solve's: the nodes reachable from the source in
    the residual of *any* maximum flow form the same, inclusion-minimal,
    minimum-cut source side, and sentinel arcs are never cut, so the
    sentinel's value does not show.
    """
    k = graph.member_count
    if k == 0:
        raise InputError("cannot minimize over an empty system")
    total_weight = sum(graph.weights)
    net, source_arcs, cinf = _member_network(graph)
    member_nodes = range(2, 2 + k)

    base = max_flow(net)
    gains = _sink_gains(net, base.residual, 2 + k)
    paths = base.augmenting_paths
    solves = 0

    def forced(i: int) -> tuple[int, list[int]]:
        nonlocal paths, solves
        res = list(base.residual)
        res[source_arcs[i]] += cinf - graph.weights[i]
        added, steps = _augment(net, res)
        paths += steps
        solves += 1
        return added, res

    # (gain, member) pairs; the least is the minimum with the lowest index.
    known, fallback = [], []
    for i in range(k):
        room = len(graph.adjacency[i]) - graph.weights[i] + base.residual[source_arcs[i]]
        gain = gains[member_nodes[i]]
        if gain == 2 and room > 2:
            fallback.append(i)
        else:
            known.append((gain, i))
    best, best_res = min(known, default=None), None
    for i in fallback:
        if best is None or (2, i) < best:
            added, res = forced(i)
            if best is None or (added, i) < best:
                best, best_res = (added, i), res
    gain, member = best
    if best_res is None:
        added, best_res = forced(member)
        if added != gain:
            raise InternalVerificationError(
                "forced augmentation disagrees with its dominator count"
            )

    value = base.value + gain - total_weight
    source_side, cut = _residual_cut(net, best_res)
    witness = tuple(i for i in range(k) if member_nodes[i] in source_side)
    if not witness:
        raise InternalVerificationError("minimizer produced an empty witness")
    if sum(c for _, _, c in cut) != value + total_weight:
        raise InternalVerificationError("cut capacity does not certify the minimum")
    side_names = {net.names[v] for v in source_side}
    if any(u not in side_names or v in side_names for u, v, _ in cut):
        raise InternalVerificationError("cut arc does not leave the source side")
    # A member is on the source side iff its source arc is not cut.
    cut_heads = {v for u, v, _ in cut if u == "source"}
    chosen = set(witness)
    if any((i in chosen) == (net.names[node] in cut_heads)
           for i, node in enumerate(member_nodes)):
        raise InternalVerificationError("witness differs from the source-side members")
    return MinimizerReport(value=value, witness=witness, cut=cut, offset=total_weight,
                           augmenting_paths=paths, forced_members=k, forced_solves=solves)


def sigma_star(system: SetSystem) -> MinimizerReport:
    """min sigma over non-empty selections, by the forced-member min-cut."""
    report = _minimize_surplus(incidence_graph(system, "unit"))
    if sigma(system, report.witness) != report.value:
        raise InternalVerificationError("sigma witness does not reproduce the minimum")
    return report


def gamma_star(system: SetSystem) -> MinimizerReport:
    """min gamma over non-empty selections; members must have size >= 3."""
    report = _minimize_surplus(incidence_graph(system, "size_minus_two"))
    if gamma(system, report.witness) != report.value:
        raise InternalVerificationError("gamma witness does not reproduce the minimum")
    return report


def _threshold_report(report: MinimizerReport, key: str, threshold: int) -> CheckReport:
    """The min-cut verdict `report.value >= threshold`; the minimizer is the certificate on "no"."""
    verdict = report.value >= threshold
    return CheckReport(
        verdict=verdict,
        method="mincut",
        certificate=None if verdict else report,
        stats={key: report.value, "threshold": threshold,
               "augmenting_paths": report.augmenting_paths,
               "forced_members": report.forced_members,
               "forced_solves": report.forced_solves},
    )


def is_thin(system: SetSystem, r: int) -> CheckReport:
    """Thin test via sigma* >= r-1 for a uniformly size-r system.

    The threshold grows with r (sigma* >= 2 for triples, >= 3 for
    quadruples); for r = 2 the same excess arithmetic gives sigma* >= 1,
    and the report flags that case.
    """
    if r < 2:
        raise InputError(f"r must be >= 2, got {r}")
    if system.uniform_size() != r:
        raise MemberSizeError(f"system is not uniformly of size {r}")
    report = _threshold_report(sigma_star(system), "sigma_star", r - 1)
    if r == 2:
        report.stats["note"] = "r=2 threshold sigma* >= 1 follows from the excess definition"
    return report


def is_slim(system: SetSystem) -> CheckReport:
    """Slim test via gamma* >= 2 for a system with members of size >= 3."""
    return _threshold_report(gamma_star(system), "gamma_star", 2)


# -- systems of distinct representatives -------------------------------------


class SdrReport(NamedTuple):
    """Result of representative selection on the derived sets s - B.

    On success `assignment` maps member index -> taxon id; on failure
    `violator` lists the members of the unique inclusion-minimal
    selection of maximum Hall deficiency (members minus the taxa their
    derived sets cover), which is at least 1.
    """

    assignment: dict[int, int] | None
    violator: tuple[int, ...] | None
    derived: tuple[tuple[int, ...], ...]

    @property
    def found(self) -> bool:
        return self.assignment is not None


def sdr(system: SetSystem, B) -> SdrReport:
    """Distinct representatives for {s - B : s in tau}, |B| = r-1.

    One max flow on the minimizer's network over the derived sets, with
    unit weights (on unit networks Dinic's phases are Hopcroft and
    Karp's).  Each member's representative is the taxon its containment
    arc carries flow to.  If the flow is below the member count, the
    violator is the members on the residual source side: the unique
    inclusion-minimal selection of maximum deficiency, k minus the flow.
    For thin systems success is guaranteed.
    """
    r = require_members(system).uniform_size()
    if r is None:
        raise MemberSizeError("sdr requires a uniformly sized system")
    b_ids = set()
    for x in B:
        b_ids.add(system.id_of(x) if isinstance(x, str) else x)
    for tid in b_ids:
        if not 0 <= tid < len(system.universe):
            raise InputError(f"taxon id {tid} out of range")
    if len(b_ids) != r - 1:
        raise InputError(f"B must have size r-1 = {r - 1}, got {len(b_ids)}")

    derived = tuple(
        tuple(x for x in member if x not in b_ids) for member in system.members
    )
    k = len(derived)
    present = sorted({x for d in derived for x in d})
    net, _, _ = _member_network(BipartiteIncidenceGraph(
        member_count=k, taxa=tuple(present),
        taxon_labels=tuple(system.label_of(x) for x in present),
        adjacency=derived, weights=(1,) * k,
    ))
    flow = max_flow(net)
    if flow.value < k:
        violator = tuple(i for i in range(k) if 2 + i in flow.source_side)
        covered = {x for i in violator for x in derived[i]}
        if len(covered) >= len(violator):
            raise InternalVerificationError("matching failure without Hall violator")
        if len(violator) - len(covered) != k - flow.value:
            raise InternalVerificationError("violator deficiency differs from k - flow")
        return SdrReport(assignment=None, violator=violator, derived=derived)
    # A member node's even arcs are its containment arcs (its odd one is
    # the source arc's reverse); one carries flow iff its reverse arc has
    # residual capacity.
    assignment = {
        i: present[net.arc_to[a] - 2 - k]
        for i in range(k) for a in net.adj[2 + i] if a % 2 == 0 and flow.residual[a ^ 1]
    }
    if len(set(assignment.values())) != k or any(
        x not in derived[i] for i, x in assignment.items()
    ):
        raise InternalVerificationError("representatives are not distinct or not derived")
    return SdrReport(assignment=assignment, violator=None, derived=derived)


# -- forest structure ---------------------------------------------------------


def is_forest(graph: BipartiteIncidenceGraph) -> tuple[bool, tuple | None]:
    """Acyclicity of the incidence graph.

    A cycle is returned as an alternating tuple of ("member", i) and
    ("taxon", id) nodes in cycle order.
    """
    adj: dict[tuple, list[tuple]] = {}
    for i in range(graph.member_count):
        adj[("member", i)] = [("taxon", x) for x in graph.adjacency[i]]
    for i in range(graph.member_count):
        for x in graph.adjacency[i]:
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

    for i in range(graph.member_count):
        start = ("member", i)
        if start not in color:
            cycle = dfs(start)
            if cycle is not None:
                return False, cycle
    return True, None


def surplus_forest(graph: BipartiteIncidenceGraph):
    """A forest using exactly two incident edges per member, or None.

    By Lovasz's theorem (1970, "A generalization of Konig's theorem"),
    each member can keep two of its taxa so that the kept pairs form a
    forest iff every non-empty selection W covers at least |W| + 1 taxa,
    that is iff sigma* >= 1; the minimizer decides that first.  The
    forest returned is the lexicographically first: members in canonical
    order, each member's pairs in `combinations` order.

    A greedy union-find pass takes, per member, the first pair that
    joins two components.  Each pair it skips closes a cycle with the
    earlier choices, so no forest with that prefix uses it; if every
    member gets a pair, the greedy choice is the first forest.
    Otherwise a self-reduction starts again from member 0 and fixes,
    per member, the first pair joining two components for which the
    system with earlier members reduced to their pairs and later members
    whole still has sigma* >= 1.  By the theorem that holds exactly when
    the prefix extends to a forest, so this too gives the first forest,
    at one minimizer call per pair tried.  The result is verified
    acyclic with every member of degree exactly two.
    """
    if any(w != 1 for w in graph.weights):
        raise InputError("surplus_forest requires unit weights")
    if _minimize_surplus(graph).value < 1:
        return None

    def first_pairs(feasible) -> list[tuple[int, int]] | None:
        parent = {x: x for x in graph.taxa}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen: list[tuple[int, int]] = []
        for i, taxa in enumerate(graph.adjacency):
            for x, y in combinations(taxa, 2):
                if find(x) != find(y) and feasible(i, (x, y), chosen):
                    break
            else:
                return None
            parent[find(x)] = find(y)
            chosen.append((x, y))
        return chosen

    def extends(i: int, pair: tuple[int, int], chosen: list) -> bool:
        reduced = (*chosen, pair, *graph.adjacency[i + 1:])
        return _minimize_surplus(graph._replace(adjacency=reduced)).value >= 1

    pairs = first_pairs(lambda *_: True) or first_pairs(extends)
    if pairs is None:
        raise InternalVerificationError("positive surplus but no degree-two forest found")
    edges = tuple((i, x) for i, pair in enumerate(pairs) for x in pair)
    _verify_degree_two_forest(graph, edges)
    return edges


def _verify_degree_two_forest(graph: BipartiteIncidenceGraph, edges) -> None:
    chosen: list[list[int]] = [[] for _ in range(graph.member_count)]
    for i, x in edges:
        if x not in graph.adjacency[i]:
            raise InternalVerificationError("forest edge outside the graph")
        chosen[i].append(x)
    if any(len(pair) != 2 for pair in chosen):
        raise InternalVerificationError("member degree differs from two")
    # `is_forest` reads adjacency as a simple graph, so a repeated edge,
    # a cycle of length two, is caught here.
    if any(x == y for x, y in chosen) or not is_forest(
        graph._replace(adjacency=tuple(map(tuple, chosen)))
    )[0]:
        raise InternalVerificationError("forest verification found a cycle")
