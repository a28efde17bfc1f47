"""Hall's theorem and Lovasz's degree-two forests on the min-cut network.

`sdr` is Hall's theorem on `graphopt`'s member network with unit
weights, and `surplus_forest` builds the degree-two forest that exists
iff sigma* >= 1, with the minimizer as its oracle.  Its self-check
reaches `pairs._cycle` as a module attribute, so `sdr` compiles no
pair code.  The benchmark's tracer finds both through `graphopt`.
"""

from __future__ import annotations

from itertools import combinations

from . import pairs
from .errors import CheckReport, InputError, InternalVerificationError, MemberSizeError
from .graphopt import _member_network, _minimize_surplus, max_flow
from .setsys import SetSystem, require_members


def sdr(system: SetSystem, B) -> CheckReport:
    """Distinct representatives for {s - B : s in tau}, |B| = r-1.

    One max flow on the minimizer's network over the derived sets, with
    unit weights (on unit networks Dinic's phases are Hopcroft and
    Karp's).  Each member's representative is the taxon its containment
    arc carries flow to.  If the flow is below the member count, the
    violator is the members on the residual source side: the unique
    inclusion-minimal selection of maximum Hall deficiency (members
    minus the taxa their derived sets cover), k minus the flow.  For
    thin systems success is guaranteed.

    Method `maxflow`; the certificate is member index -> taxon id on
    "yes" and the violator's member indices on "no".  B holds labels or
    taxon ids; one that repeats a taxon is an `InputError`.
    """
    r = require_members(system).uniform_size()
    if r is None:
        raise MemberSizeError("sdr requires a uniformly sized system")
    b_ids = set()
    for x in B:
        tid = system.id_of(x) if isinstance(x, str) else x
        if not 0 <= tid < len(system.universe):
            raise InputError(f"taxon id {tid} out of range")
        if tid in b_ids:
            raise InputError(f"B repeats taxon {system.label_of(tid)!r}")
        b_ids.add(tid)
    if len(b_ids) != r - 1:
        raise InputError(f"B must have size r-1 = {r - 1}, got {len(b_ids)}")

    derived = tuple(
        tuple(x for x in member if x not in b_ids) for member in system.members
    )
    k = len(derived)
    net, _, _ = _member_network(derived, (1,) * k)
    flow = max_flow(net)
    if flow.value < k:
        violator = tuple(i for i in range(k) if 2 + i in flow.source_side)
        covered = {x for i in violator for x in derived[i]}
        if len(covered) >= len(violator):
            raise InternalVerificationError("matching failure without Hall violator")
        if len(violator) - len(covered) != k - flow.value:
            raise InternalVerificationError("violator deficiency differs from k - flow")
        return CheckReport(False, "maxflow", violator,
                           {"augmenting_paths": flow.augmenting_paths})
    # A member node's even arcs are its containment arcs (its odd one is
    # the source arc's reverse); one carries flow iff its reverse arc has
    # residual capacity.  Taxon nodes follow the members in id order.
    present = sorted({x for d in derived for x in d})
    assignment = {
        i: present[net.arc_to[a] - 2 - k]
        for i in range(k) for a in net.adj[2 + i] if a % 2 == 0 and flow.residual[a ^ 1]
    }
    if len(set(assignment.values())) != k or any(
        x not in derived[i] for i, x in assignment.items()
    ):
        raise InternalVerificationError("representatives are not distinct or not derived")
    return CheckReport(True, "maxflow", assignment,
                       {"augmenting_paths": flow.augmenting_paths})


def surplus_forest(system: SetSystem):
    """A forest using exactly two incident edges per member, or None.

    By Lovasz's theorem (1970, "A generalization of Konig's theorem"),
    each member can keep two of its taxa so that the kept pairs form a
    forest iff every non-empty selection W covers at least |W| + 1 taxa,
    that is iff sigma* >= 1.  The forest returned is the
    lexicographically first: members in canonical order, each member's
    pairs in `combinations` order.

    A greedy union-find pass takes, per member, the first pair that
    joins two components.  Each pair it skips closes a cycle with the
    earlier choices, so no forest with that prefix uses it; if every
    member gets a pair, the greedy choice is the first forest, and no
    minimizer runs.  Otherwise the minimizer decides whether a forest
    exists, and if one does, a self-reduction starts again from member 0
    and fixes, per member, the first pair joining two components for
    which the system with earlier members reduced to their pairs and
    later members whole still has sigma* >= 1.  By the theorem that
    holds exactly when the prefix extends to a forest, so this too gives
    the first forest, at one minimizer call per pair tried.  The result is verified
    acyclic with every member of degree exactly two.
    """
    members = system.members
    weights = (1,) * len(members)

    def first_pairs(feasible) -> list[tuple[int, int]] | None:
        parent = list(range(len(system.universe)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen: list[tuple[int, int]] = []
        for i, taxa in enumerate(members):
            for x, y in combinations(taxa, 2):
                if find(x) != find(y) and feasible(i, (x, y), chosen):
                    break
            else:
                return None
            parent[find(x)] = find(y)
            chosen.append((x, y))
        return chosen

    def extends(i: int, pair: tuple[int, int], chosen: list) -> bool:
        reduced = (*chosen, pair, *members[i + 1:])
        return _minimize_surplus(reduced, weights).value >= 1

    kept = first_pairs(lambda *_: True)
    if not kept:  # no greedy forest, or no members, which the minimizer rejects
        if _minimize_surplus(members, weights).value < 1:
            return None
        kept = first_pairs(extends)
    if kept is None:
        raise InternalVerificationError("positive surplus but no degree-two forest found")
    edges = tuple((i, x) for i, pair in enumerate(kept) for x in pair)
    _verify_degree_two_forest(members, edges)
    return edges


def _verify_degree_two_forest(members, edges) -> None:
    chosen: list[list[int]] = [[] for _ in members]
    for i, x in edges:
        if x not in members[i]:
            raise InternalVerificationError("forest edge outside the graph")
        chosen[i].append(x)
    if any(len(pair) != 2 for pair in chosen):
        raise InternalVerificationError("member degree differs from two")
    # `_cycle` reads the pairs as a simple graph, so a repeated edge, a
    # cycle of length two, is caught here.  It is a search of its own, not
    # the union-find that chose the pairs.
    if any(x == y for x, y in chosen) or pairs._cycle(chosen) is not None:
        raise InternalVerificationError("forest verification found a cycle")
