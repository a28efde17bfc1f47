"""Bipartite incidence graphs and the polynomial-time thin/slim checks.

The surplus minimizers work by a forced-member min-cut reduction rather
than a general submodular minimizer: with member s0 forced into the
selection, the min cut of one flow network equals (constant offset) +
the minimum of the measure over selections containing s0.  Minimizing
over the forced member then covers all non-empty selections.

The network is built and max-flowed once; each forced member warm-starts
from that flow's residual with one source arc raised (parametric max
flow in the sense of Gallo, Grigoriadis and Tarjan, 1989), so a k-member
minimization costs about one max flow plus k short augmentations, not k
cold flows.  `max_flow` and the minimizer share one augmenting routine
and one residual-cut routine.

Everything is deterministic: augmenting paths are found by BFS over arcs
in insertion order, the forced-member loop breaks ties by canonical
member index, and matchings are grown in canonical vertex order.
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
from .setsys import CheckReport, SetSystem, gamma, sigma, size_minus_two


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

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency)


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
    """Augment along BFS-shortest paths of the residual `cap` until none is left.

    `cap` is updated in place.  Returns the flow added and the number of
    augmenting paths used.
    """
    s, t = network.source, network.sink
    adj, arc_to = network.adj, network.arc_to
    node_count = len(network.names)
    added = paths = 0
    while True:
        prev_arc = [-1] * node_count
        prev_arc[s] = -2
        queue = deque([s])
        while queue and prev_arc[t] == -1:
            u = queue.popleft()
            for a in adj[u]:
                v = arc_to[a]
                if cap[a] > 0 and prev_arc[v] == -1:
                    prev_arc[v] = a
                    queue.append(v)
        if prev_arc[t] == -1:
            return added, paths
        bottleneck = None
        v = t
        while v != s:
            a = prev_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = arc_to[a ^ 1]
        v = t
        while v != s:
            a = prev_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = arc_to[a ^ 1]
        added += bottleneck
        paths += 1


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
    """Edmonds-Karp max flow; returns the value and one minimum cut.

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


# -- surplus minimization -----------------------------------------------------


class MinimizerReport(NamedTuple):
    """Minimum of sigma (or gamma) over non-empty selections, with witness.

    The cut certifies optimality: its capacity equals value + offset,
    where offset is the total member weight of the reduction.
    `augmenting_paths` (base flow plus every warm step) and
    `forced_members` count the work done.
    """

    value: int
    witness: tuple[int, ...]
    cut: tuple[tuple[str, str, int], ...]
    offset: int
    augmenting_paths: int
    forced_members: int


def _minimize_surplus(graph: BipartiteIncidenceGraph) -> MinimizerReport:
    """Minimum of the weighted surplus over non-empty member selections.

    The network has source -> member arcs of the member weight,
    member -> taxon containment arcs and taxon -> sink arcs of capacity
    1.  A source side holding the members W (and necessarily their
    taxa) cuts total_weight - w(W) + |L(W)|, so forcing member s0 onto
    the source side (its source arc at a sentinel) gives total_weight
    plus the minimum over selections containing s0.

    The network is built once and max-flowed once, unforced.  Each
    forced member then starts from a copy of that residual with its
    source arc raised to the sentinel: the unforced maximum flow stays
    feasible, and at most |s0| more units can pass through s0, so each
    forced member costs at most |s0| augmenting paths rather than a
    cold flow.  The witness and cut are those of a cold solve: the
    nodes reachable from the source in the residual of *any* maximum
    flow form the same, inclusion-minimal, minimum-cut source side, and
    sentinel arcs are never cut, so the sentinel's value does not show.
    Ties go to the lowest forced member index.
    """
    k = graph.member_count
    if k == 0:
        raise InputError("cannot minimize over an empty system")
    taxon_pos = {x: p for p, x in enumerate(graph.taxa)}
    total_weight = sum(graph.weights)
    # Above the total finite capacity, so forced and containment arcs are
    # never cut.
    cinf = total_weight + len(graph.taxa) + 1

    net = FlowNetwork()
    net.source = net.add_node("source")
    net.sink = net.add_node("sink")
    member_nodes = [net.add_node(f"member:{i}") for i in range(k)]
    taxon_nodes = [net.add_node(f"taxon:{lab}") for lab in graph.taxon_labels]
    source_arcs = []
    for i in range(k):
        source_arcs.append(len(net.arc_to))
        net.add_arc(net.source, member_nodes[i], graph.weights[i])
        for x in graph.adjacency[i]:
            net.add_arc(member_nodes[i], taxon_nodes[taxon_pos[x]], cinf)
    for tn in taxon_nodes:
        net.add_arc(tn, net.sink, 1)

    base = max_flow(net)
    paths = base.augmenting_paths
    best: tuple[int, list[int]] | None = None
    for forced in range(k):
        cap = list(base.residual)
        cap[source_arcs[forced]] += cinf - graph.weights[forced]
        added, steps = _augment(net, cap)
        paths += steps
        value = base.value + added - total_weight
        if best is None or value < best[0]:
            best = (value, cap)

    value, cap = best
    source_side, cut = _residual_cut(net, cap)
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
                           augmenting_paths=paths, forced_members=k)


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


def is_thin(system: SetSystem, r: int) -> CheckReport:
    """Thin test via sigma* >= r-1 for a uniformly size-r system.

    For r >= 3 this is the sigma* >= 2 threshold; for r = 2 the same
    excess arithmetic gives sigma* >= 1, and the report flags that case.
    """
    if r < 2:
        raise InputError(f"r must be >= 2, got {r}")
    if system.uniform_size() != r:
        raise MemberSizeError(f"system is not uniformly of size {r}")
    report = sigma_star(system)
    verdict = report.value >= r - 1
    stats = {"sigma_star": report.value, "threshold": r - 1,
             "augmenting_paths": report.augmenting_paths,
             "forced_members": report.forced_members}
    if r == 2:
        stats["note"] = "r=2 threshold sigma* >= 1 follows from the excess definition"
    return CheckReport(
        verdict=verdict,
        method="mincut",
        certificate=None if verdict else report,
        stats=stats,
        recheck="setflex.setsys.sigma",
    )


def is_slim(system: SetSystem) -> CheckReport:
    """Slim test via gamma* >= 2 for a system with members of size >= 3."""
    report = gamma_star(system)
    verdict = report.value >= 2
    return CheckReport(
        verdict=verdict,
        method="mincut",
        certificate=None if verdict else report,
        stats={"gamma_star": report.value, "threshold": 2,
               "augmenting_paths": report.augmenting_paths,
               "forced_members": report.forced_members},
        recheck="setflex.setsys.gamma",
    )


# -- systems of distinct representatives -------------------------------------


class SdrReport(NamedTuple):
    """Result of representative selection on the derived sets s - B.

    On success `assignment` maps member index -> taxon id; on failure
    `violator` lists member indices whose derived sets jointly cover
    fewer taxa than their count (a Hall violator).
    """

    assignment: dict[int, int] | None
    violator: tuple[int, ...] | None
    derived: tuple[tuple[int, ...], ...]

    @property
    def found(self) -> bool:
        return self.assignment is not None


def sdr(system: SetSystem, B) -> SdrReport:
    """Distinct representatives for {s - B : s in tau}, |B| = r-1.

    Uses augmenting-path matching in canonical order.  For thin systems
    success is guaranteed; otherwise the report carries a Hall violator.
    """
    r = system.uniform_size()
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
    match_of_taxon: dict[int, int] = {}
    match_of_member: dict[int, int] = {}

    def try_assign(start: int) -> bool:
        # Kuhn's depth-first search for an augmenting path, on an explicit
        # stack: frames[d] is a member with its taxon iterator, path[d]
        # the taxon through which frames[d + 1] was entered.
        visited: set[int] = set()
        frames = [(start, iter(derived[start]))]
        path: list[int] = []
        while frames:
            _, choices = frames[-1]
            for x in choices:
                if x in visited:
                    continue
                visited.add(x)
                path.append(x)
                holder = match_of_taxon.get(x)
                if holder is None:
                    for (j, _), y in zip(frames, path):
                        match_of_taxon[y] = j
                        match_of_member[j] = y
                    return True
                frames.append((holder, iter(derived[holder])))
                break
            else:
                frames.pop()
                if path:
                    path.pop()
        return False

    for i in range(system.member_count):
        if not try_assign(i):
            # Hall violator: members reachable from i by alternating paths.
            members = {i}
            taxa: set[int] = set()
            frontier = [i]
            while frontier:
                nxt = []
                for j in frontier:
                    for x in derived[j]:
                        if x not in taxa:
                            taxa.add(x)
                            holder = match_of_taxon.get(x)
                            if holder is not None and holder not in members:
                                members.add(holder)
                                nxt.append(holder)
                frontier = nxt
            if len(taxa) >= len(members):
                raise InternalVerificationError("matching failure without Hall violator")
            return SdrReport(assignment=None, violator=tuple(sorted(members)),
                             derived=derived)
    return SdrReport(assignment=dict(sorted(match_of_member.items())),
                     violator=None, derived=derived)


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

    Such a forest exists iff the graph has positive surplus viewed from
    the member side (sigma* >= 1, checked first via the minimizer).  The
    search assigns edge pairs in canonical order with union-find pruning
    and backtracks on dead ends; the result is verified acyclic with
    every member of degree exactly two before being returned.
    """
    if any(w != 1 for w in graph.weights):
        raise InputError("surplus_forest requires unit weights")
    if _minimize_surplus(graph).value < 1:
        return None

    k = graph.member_count
    parent: dict[int, int] = {x: x for x in graph.taxa}
    rank: dict[int, int] = {x: 0 for x in graph.taxa}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    trail: list[tuple[int, int]] = []

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        trail.append((ry, 0 if rank[rx] > rank[ry] else 1))
        parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            child, bumped = trail.pop()
            if bumped:
                rank[find(child)] -= 1
            parent[child] = child

    choice: list[tuple[int, int] | None] = [None] * k

    def solve(i: int) -> bool:
        if i == k:
            return True
        for x, y in combinations(graph.adjacency[i], 2):
            mark = len(trail)
            if union(x, y):
                choice[i] = (x, y)
                if solve(i + 1):
                    return True
                undo(mark)
        choice[i] = None
        return False

    if not solve(0):
        raise InternalVerificationError(
            "positive surplus but no degree-two forest found"
        )

    edges = tuple(
        (i, x) for i in range(k) for x in choice[i]
    )
    _verify_degree_two_forest(graph, edges)
    return edges


def _verify_degree_two_forest(graph: BipartiteIncidenceGraph, edges) -> None:
    degree = {i: 0 for i in range(graph.member_count)}
    for i, x in edges:
        if x not in graph.adjacency[i]:
            raise InternalVerificationError("forest edge outside the graph")
        degree[i] += 1
    if any(d != 2 for d in degree.values()):
        raise InternalVerificationError("member degree differs from two")
    # Forest iff |edges| = |vertices| - |components| over the touched subgraph.
    parent: dict = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    vertices = set()
    for i, x in edges:
        vertices.add(("member", i))
        vertices.add(("taxon", x))
    for v in vertices:
        parent[v] = v
    for i, x in edges:
        a, b = find(("member", i)), find(("taxon", x))
        if a == b:
            raise InternalVerificationError("forest verification found a cycle")
        parent[a] = b
