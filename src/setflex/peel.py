"""What both caterpillar peels share, so neither request compiles the other's.

`represent`'s median peel and `pairs`' lca peel both drop a taxon of
least occurrence count at each step, from these incidence counts and
lazy heap; both return a `RepresentationReport`; and both hand a failed
construction to `_not_thin`, which runs `graphopt`'s minimizer for the
certificate of the "no".
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import graphopt
from .errors import InternalVerificationError, PreconditionError


class RepresentationReport(NamedTuple):
    """A verified caterpillar representation.

    Only a construction that passes its self-check returns one; a failed
    check raises `InternalVerificationError`.  `vertex_map` sends each
    member index to its interior vertex in spine order (0-based); for
    the unrooted case these are the spine ids of the tree as built by
    `represent.unrooted_caterpillar`, for the rooted case the depth of
    the lca vertex.  `appended` lists universe taxa outside the covered
    leaves, attached past the far end of the spine.
    """

    kind: str
    tree: represent.UnrootedPhyloTree | rooted.RootedPhyloTree
    sequence: tuple[str, ...]
    vertex_map: dict[int, int]
    appended: tuple[str, ...]


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


def _not_thin(system, threshold: int, failure: str) -> PreconditionError:
    """The minimizer's "no" for a caterpillar construction that failed.

    A system with sigma* >= `threshold` is thin and has the caterpillar,
    so a minimizer that finds one contradicts the construction: a bug.
    """
    sigma = graphopt.sigma_star(system)
    if sigma.value >= threshold:
        raise InternalVerificationError(f"{failure} in a thin system (sigma* = {sigma.value})")
    return PreconditionError(f"system is not thin (sigma* = {sigma.value})", certificate=sigma)
