"""The flow kernel and the polynomial-time thin/slim checks.

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

`hall` runs `sdr` and `surplus_forest` on this network, and `pairs`
holds the forest test of pair systems, which needs no flow; the
`__getattr__` below forwards the three names that the benchmark's
tracer pins to this module.

Everything is deterministic: flows and searches take arcs in insertion
order, and the forced-member minimum breaks ties by canonical member
index.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import CheckReport, InputError, InternalVerificationError
from .excess import gamma, sigma, size_minus_two
from .setsys import SetSystem, require_members, uniform_r


def __getattr__(name: str):
    # The tracer's names for code in `hall` and `pairs`, imported only when looked up.
    if name in ("sdr", "surplus_forest", "is_forest"):
        from . import hall, pairs

        return getattr(pairs if name == "is_forest" else hall, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- max flow -----------------------------------------------------------------


class FlowNetwork:
    """Integer-capacity flow network on the nodes 0 .. node_count - 1.

    Arcs store capacity and a paired reverse arc of capacity 0; the
    residual graph lives in the same arrays.  Augmentation explores arcs
    in insertion order, so results are deterministic for a fixed build
    order.
    """

    def __init__(self, node_count: int, source: int, sink: int):
        self.adj: list[list[int]] = [[] for _ in range(node_count)]
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.source = self._node(source)
        self.sink = self._node(sink)

    def _node(self, u: int) -> int:
        # A negative index would silently name a node from the end.
        if not 0 <= u < len(self.adj):
            raise InputError(f"node {u} is not one of 0 .. {len(self.adj) - 1}")
        return u

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        if capacity < 0:
            raise InputError("arc capacities must be non-negative")
        u, v = self._node(u), self._node(v)
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
    cut_arcs: tuple[tuple[int, int, int], ...]
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
    node_count = len(adj)
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

    Cut arcs are reported as (tail, head, capacity in `network`).
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
                cut.append((u, v, network.arc_cap[a]))
    return frozenset(reachable), tuple(cut)


def max_flow(network: FlowNetwork) -> FlowResult:
    """Dinic max flow; returns the value and one minimum cut.

    The cut is reported as the source side of the residual graph plus
    the saturated arcs crossing it.
    """
    if network.source == network.sink:
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

    The cut certifies optimality: its arcs, (tail, head, capacity) on
    the nodes of `_member_network`, add up to value + offset, where
    offset is the total member weight of the reduction.
    `augmenting_paths` (base flow and every forced augmentation),
    `forced_members` (members minimized over) and
    `forced_solves` (members solved by an explicit forced augmentation)
    count the work done.
    """

    value: int
    witness: tuple[int, ...]
    cut: tuple[tuple[int, int, int], ...]
    offset: int
    augmenting_paths: int
    forced_members: int
    forced_solves: int


def _member_network(members, weights) -> tuple[FlowNetwork, list[int], int]:
    """The network source -> member -> taxon -> sink of a set system.

    `members[i]` holds the taxon ids of member i and `weights[i]` its
    weight.  Source -> member arcs carry the member weight, member ->
    taxon containment arcs a sentinel capacity, taxon -> sink arcs 1.
    Nodes are numbered source 0, sink 1, member i as 2 + i, then the
    occurring taxa in increasing id order.  The sentinel is above the
    total finite capacity, so containment arcs, and source arcs raised
    to it, are never cut.  Returns the network, each member's source arc
    index and the sentinel.
    """
    k = len(members)
    present = sorted({x for m in members for x in m})
    taxon_node = {x: 2 + k + p for p, x in enumerate(present)}
    t = len(present)
    cinf = sum(weights) + t + 1
    net = FlowNetwork(2 + k + t, 0, 1)
    # The arcs `add_arc` would give, in its order, written in one pass:
    # arc a and its reverse a + 1 for each member's source arc and then
    # its containment arcs, and last the sink arcs.
    adj, arc_to, arc_cap = net.adj, net.arc_to, net.arc_cap
    a = 0
    for u, (weight, taxa) in enumerate(zip(weights, members), 2):
        out = adj[u]
        adj[0].append(a)
        out.append(a + 1)
        arc_to += (u, 0)
        for x in taxa:
            a += 2
            v = taxon_node[x]
            out.append(a)
            adj[v].append(a + 1)
            arc_to += (v, u)
        a += 2
        arc_cap += (weight, 0, *(cinf, 0) * len(taxa))
    for v in range(2 + k, 2 + k + t):
        adj[v].append(a)
        adj[1].append(a + 1)
        arc_to += (1, v)
        a += 2
    arc_cap += (1, 0) * t
    return net, list(adj[0]), cinf


def _minimize_surplus(members, weights) -> MinimizerReport:
    """Minimum of |L(W)| - w(W) over non-empty member selections W.

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
    k = len(members)
    if k == 0:
        raise InputError("cannot minimize over an empty system")
    total_weight = sum(weights)
    net, source_arcs, cinf = _member_network(members, weights)

    base = max_flow(net)
    gains = _sink_gains(net, base.residual, 2 + k)
    paths = base.augmenting_paths
    solves = 0

    def forced(i: int) -> tuple[int, list[int]]:
        nonlocal paths, solves
        res = list(base.residual)
        res[source_arcs[i]] += cinf - weights[i]
        added, steps = _augment(net, res)
        paths += steps
        solves += 1
        return added, res

    # (gain, member) pairs; the least is the minimum with the lowest index.
    known, fallback = [], []
    for i in range(k):
        room = len(members[i]) - weights[i] + base.residual[source_arcs[i]]
        gain = gains[2 + i]
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
    witness = tuple(i for i in range(k) if 2 + i in source_side)
    if not witness:
        raise InternalVerificationError("minimizer produced an empty witness")
    if sum(c for _, _, c in cut) != value + total_weight:
        raise InternalVerificationError("cut capacity does not certify the minimum")
    if any(u not in source_side or v in source_side for u, v, _ in cut):
        raise InternalVerificationError("cut arc does not leave the source side")
    # A member is on the source side iff its source arc is not cut.
    cut_heads = {v for u, v, _ in cut if u == 0}
    chosen = set(witness)
    if any((i in chosen) == (2 + i in cut_heads) for i in range(k)):
        raise InternalVerificationError("witness differs from the source-side members")
    return MinimizerReport(value=value, witness=witness, cut=cut, offset=total_weight,
                           augmenting_paths=paths, forced_members=k, forced_solves=solves)


def sigma_star(system: SetSystem) -> MinimizerReport:
    """min sigma over non-empty selections, by the forced-member min-cut."""
    report = _minimize_surplus(system.members, (1,) * system.member_count)
    if sigma(system, report.witness) != report.value:
        raise InternalVerificationError("sigma witness does not reproduce the minimum")
    return report


def gamma_star(system: SetSystem) -> MinimizerReport:
    """min gamma over non-empty selections; members must have size >= 3."""
    report = _minimize_surplus(system.members, size_minus_two(system))
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


def is_thin(system: SetSystem) -> CheckReport:
    """Thin test via sigma* >= r-1, where r is the members' common size.

    The threshold grows with r (sigma* >= 2 for triples, >= 3 for
    quadruples); for r = 2 the same excess arithmetic gives sigma* >= 1.
    """
    threshold = uniform_r(system) - 1
    return _threshold_report(sigma_star(system), "sigma_star", threshold)


def is_slim(system: SetSystem) -> CheckReport:
    """Slim test via gamma* >= 2 for a system with members of size >= 3."""
    return _threshold_report(gamma_star(require_members(system)), "gamma_star", 2)
