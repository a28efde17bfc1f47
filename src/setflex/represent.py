"""The median caterpillar of a thin triple system.

Median representations live on unrooted trees, so `UnrootedPhyloTree`
is defined here, where its only user is: an edge list with labeled
leaves, its medians read by `rooted._three` off the preorder sparse
table (`rooted._lca_table`) of the tree hung from the interior vertex
next to the smallest leaf, and its Newick text printed through
`rooted.RootedPhyloTree` from the same hanging.  Requests that never
build one (supertree, count, the flexibility scan, `pairs`) do not
compile it, nor does this module compile `phylo`'s BUILD or parsers.
The construction decides thinness: medians that the final check finds
injective prove it, so `graphopt`'s minimizer runs only to certify a
failed one's "no" (`peel._not_thin`), and at most once at a count-2
level of the peel.  `__getattr__` forwards the names of `pairs` that
the benchmark's tracer pins to this module.

A caterpillar is handled as a leaf sequence: sequence position p (with
0 <= p <= n-1) attaches to spine vertex w_{max(0, min(p-1, n-3))}, and
the median of a 3-set is the spine vertex of its middle element.  A
caterpillar therefore provides an injective median representation of a
triple system exactly when the members have pairwise distinct middle
elements in the sequence, which is what the construction below arranges
and what the final verification (recomputed from the actual tree, never
trusted from the construction) re-checks.

The thin-system construction is one descent and one unwind.  The
descent peels a taxon x of minimal occurrence count (at most 2 for thin
systems covering their universe) and reduces the system as the
occurrence pattern dictates, down to a base case that a search over
leaf orderings solves; the unwind re-inserts each x at the first slot,
in a canonical order, that keeps the member middles distinct, and such
a slot always exists.
"""
from __future__ import annotations

import heapq
from itertools import combinations, permutations
from typing import Iterable, Mapping

from . import graphopt, peel, rooted, setsys
from .errors import (
    CheckReport,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    check_label,
)


def __getattr__(name: str):
    # The tracer's names for code in `pairs`, imported only when looked up.
    if name in ("lca_caterpillar_representation", "extend_to_total_order",
                "is_total_order_flexible"):
        from . import pairs

        return getattr(pairs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            self._lca = rooted._lca_table(parents)
        u, v, w = sorted(pos[self.leaf_vertex(x)] for x in labs)
        return order[rooted._three(*self._lca, u, v, w)[1]]

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
        return rooted.RootedPhyloTree(tuple(kids[0])).newick()


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


# -- middle-element bookkeeping -------------------------------------------------


def _middle(positions: dict[str, int], member: frozenset[str]) -> str:
    labs = sorted(member, key=positions.__getitem__)
    return labs[len(labs) // 2]


class _LeafOrder:
    """A leaf sequence that grows at its ends and next to placed leaves.

    A doubly linked list whose leaves carry integer keys that increase
    along it, so the order of two leaves is one comparison and no
    insertion needs a position.  Keys lie strictly between 0 and
    2^`bits`.  A new leaf takes the midpoint of its neighbours' keys;
    when they are adjacent, the smallest aligned range of 2^i keys around
    it that holds at most (4/3)^i leaves is spread out evenly, and `bits`
    grows when no range does: O(log n) amortized key changes per
    insertion (Bender et al., "Two simplified algorithms for maintaining
    order in a list", ESA 2002).
    """

    def __init__(self, seq: list[str]):
        self.first, self.last = seq[0], seq[-1]
        self.next = dict(zip(seq, seq[1:]))
        self.prev = dict(zip(seq[1:], seq))
        self.bits = 2 * len(seq).bit_length() + 4
        gap = (1 << self.bits) // (len(seq) + 1)
        self.key = {lab: (i + 1) * gap for i, lab in enumerate(seq)}

    def __iter__(self):
        lab = self.first
        while lab is not None:
            yield lab
            lab = self.next.get(lab)

    def insert_after(self, left: str | None, lab: str) -> None:
        """Put `lab` right after `left`, or first when `left` is None."""
        right = self.first if left is None else self.next.get(left)
        if left is None:
            self.first = lab
        else:
            self.next[left], self.prev[lab] = lab, left
        if right is None:
            self.last = lab
        else:
            self.next[lab], self.prev[right] = right, lab
        low = 0 if left is None else self.key[left]
        high = 1 << self.bits if right is None else self.key[right]
        self.key[lab] = (low + high) // 2
        if self.key[lab] == low:
            self._spread(lab)

    def _spread(self, lab: str) -> None:
        key, prev, nxt = self.key, self.prev, self.next
        lo = hi = lab
        count, i = 1, 0
        while True:
            i += 1
            base = key[lab] >> i << i
            while lo in prev and key[prev[lo]] >= base:
                lo = prev[lo]
                count += 1
            while hi in nxt and key[nxt[hi]] < base + (1 << i):
                hi = nxt[hi]
                count += 1
            if count * 3 ** i <= 4 ** i:
                break
        self.bits = max(self.bits, i)
        gap = (1 << i) // (count + 1)
        for j in range(1, count + 1):
            key[lo] = base + j * gap
            lo = nxt.get(lo)


def _insert_checked(order: _LeafOrder, to_place: list[str], checked, taken) -> list[str] | None:
    """Insert `to_place` (in order) into `order` at the first slots, in
    nested canonical order, where the `checked` members get pairwise
    distinct middles outside `taken`; return those middles, or None if no
    slots do.

    Canonical order tries slots 0..n, or n..0 when the sequence ends in a
    smaller label than it starts with.  An insertion keeps the relative
    order of the placed taxa, so only the members holding an inserted
    taxon can change middle.  Taxa before x take their first slot, an
    end: they occur only at count-1 levels (at count 2 every taxon of t
    and t2 but x stays covered), where x between t's other two taxa makes
    the new x t's middle, so no later slot for them is ever needed.

    For x the middles depend only on how many of the other checked taxa
    (r_0 < ... < r_{m-1} in sequence order) precede it: forward order
    meets class j first right after r_{j-1} (first for j = 0), reverse
    order right before r_j (last for j = m).
    """
    *outer, x = to_place
    first, last = order.first, order.last
    key = order.key
    rel = {lab for member in checked for lab in member} - set(to_place)
    keys = {lab: key[lab] for lab in rel}
    lo, hi = key[first], key[last]
    at_back = []
    for lab in outer:
        at_back.append(last < first)
        if last < first:
            hi += 1
            keys[lab], last = hi, lab
        else:
            lo -= 1
            keys[lab], first = lo, lab
    ranked = sorted(keys, key=keys.__getitem__)
    m = len(ranked)
    reverse = last < first
    for j in range(m, -1, -1) if reverse else range(m + 1):
        rank = {u: i for i, u in enumerate(ranked[:j] + [x] + ranked[j:])}
        middles = [_middle(rank, member) for member in checked]
        if len(set(middles)) == len(middles) and not any(mid in taken for mid in middles):
            for lab, back in zip(outer, at_back):
                order.insert_after(order.last if back else None, lab)
            if reverse:
                left = order.prev.get(ranked[j]) if j < m else order.last
            else:
                left = ranked[j - 1] if j else None
            order.insert_after(left, x)
            return middles
    return None


# -- the median-caterpillar peel ------------------------------------------------


def _replacement(x: str, checked: tuple, live: set) -> frozenset[str]:
    """The triple y that takes the place of x's members t, t2 at count 2.

    The candidates are the triples over (t | t2) - {x}: one when t and t2
    share a pair besides x, else four, in sorted order.  A candidate
    fails (it is live, or live | {y} is not thin) only if some W in live
    with sigma(W) = 2 has y in L(W), for live is thin when the level's
    system is.  Two failing candidates would give two such sets whose
    union has sigma <= 2 and covers (t | t2) - {x}: by submodularity if
    they share a member, and as |y1 & y2| = 2 if not.  With t and t2
    added, that union has sigma <= 1.  So on thin input the shared-pair
    candidate never fails and at most one of the four does: the first
    stands unless it is live or the minimizer rejects it, else the second,
    unchecked.  A live y (input that is not thin) is an error, so that
    the unwind never frees one middle twice.
    """
    rest = sorted((checked[0] | checked[1]) - {x})
    y, *others = map(frozenset, combinations(rest, 3))
    if others and (y in live or graphopt.sigma_star(
            setsys.SetSystem([sorted(m) for m in live | {y}])).value < 2):
        y = others[0]
    if y in live:
        raise InternalVerificationError("the replacement triple is already a member")
    return y


def _place_median(tau: frozenset[frozenset[str]]) -> list[str]:
    """A leaf order of L(tau) whose member middles are pairwise distinct.

    One descent peels the taxon x of least (occurrence count, label): at
    count 1 its member t goes, at count 2 its members t, t2 give way to
    `_replacement`'s triple y.  A level records the taxa to insert on the
    way back (those of t, t2 the reduced system lacks, then x), the
    members holding them, and y.  One unwind re-inserts them at the first
    valid slots in canonical order.  `middle_of` and `owner` hold the
    middle of every member of the current level, which an insertion
    leaves in place, so only t (and t2) need new, unowned middles, and
    slots for them always exist:

    - Count 1: x between t's other two taxa is t's middle.
    - Count 2: with y = {u, v, w} in sequence order, dropping y frees v,
      and x goes next to one of y's taxa so that t and t2 take the
      middles x and v.  If t and t2 share a pair {x, a}: for a = v, x
      right next to v on the side of t's other taxon; for a = u or w, x
      between v and y's other end.  Else (t | t2) - {x} = y | {z}, and e
      in y shares a member with z: for e = v, x right after u if z
      follows v, else right before w; for e = u, x right after u if z
      follows u, else right before u; e = w mirrors e = u.

    `_insert_checked` tries every class of slots, so it finds one.  A
    system that is not thin never gets that far: each level keeps a
    violator (without t, or with y in place of t and t2), so the count
    check, the guard in `_replacement` or the base case stops the descent.
    """
    live = set(tau)
    members_of, heap = peel._incidence(live)
    levels = []
    while len(live) > 1 and len(members_of) > 4:
        count, x = peel._lightest(members_of, heap)
        checked = tuple(sorted(members_of[x], key=sorted))
        if count > 2:
            raise InternalVerificationError(
                "thin system with no taxon of occurrence count <= 2"
            )
        for member in checked:
            peel._drop(member, members_of, heap)
            live.discard(member)
        y = None
        if count == 2:
            y = _replacement(x, checked, live)
            live.add(y)
            for lab in y:
                members_of.setdefault(lab, set()).add(y)
                heapq.heappush(heap, (len(members_of[lab]), lab))
        missing = sorted({lab for m in checked for lab in m
                          if lab != x and lab not in members_of})
        levels.append((missing + [x], checked, y))

    universe = sorted(members_of)
    for seq in permutations(universe) if len(live) > 1 else [universe]:
        positions = {lab: i for i, lab in enumerate(seq)}
        middle_of = {m: _middle(positions, m) for m in live}
        owner = {mid: m for m, mid in middle_of.items()}
        if len(owner) == len(live):
            break
    else:
        raise InternalVerificationError("no ordering for a thin base case")
    order = _LeafOrder(list(seq))
    for to_place, checked, y in reversed(levels):
        if y is not None:
            del owner[middle_of.pop(y)]
        middles = _insert_checked(order, to_place, checked, owner)
        if middles is None:
            raise InternalVerificationError(f"no insertion slot for taxon {to_place[-1]}")
        for member, mid in zip(checked, middles):
            middle_of[member] = mid
            owner[mid] = member
    return list(order)


def _canonical_sequence(seq: list[str]) -> list[str]:
    # A caterpillar is unchanged by reversal and by swapping within each
    # end cherry; pick the lexicographically least equivalent sequence.
    def normalized(s: list[str]) -> list[str]:
        out = list(s)
        out[0:2] = sorted(out[0:2])
        out[-2:] = sorted(out[-2:])
        return out

    return min(normalized(seq), normalized(seq[::-1]))


def caterpillar_median_representation(system: setsys.SetSystem) -> peel.RepresentationReport:
    """An unrooted caterpillar on the universe with injective member medians.

    The system must be uniformly of size 3 and thin (sigma* >= 2), and
    the universe must have at least 4 taxa.  The construction decides
    thinness: medians recomputed from the finished tree and found
    injective prove it, and a failure goes to `peel._not_thin`.  Universe
    taxa outside L(tau) are appended past the far end of the spine.
    """
    if setsys.require_members(system).uniform_size() != 3:
        raise MemberSizeError("median representation needs a system of triples")
    if len(system.universe) < 4:
        raise InputError(
            f"need at least 4 taxa in the universe, got {len(system.universe)}"
        )
    try:
        seq = _canonical_sequence(_place_median(frozenset(system.member_label_sets())))
        appended = tuple(sorted(set(system.universe) - set(seq)))
        seq = seq + list(appended)
        tree = unrooted_caterpillar(seq)
        check = verify_median_injective(tree, system)
        if not check.verdict:
            raise InternalVerificationError(
                f"median collision between members {check.certificate}"
            )
    except InternalVerificationError as exc:
        raise peel._not_thin(system, 2, str(exc)) from None
    vertex_map = check.certificate
    if not all(0 <= med <= len(seq) - 3 for med in vertex_map.values()):
        raise InternalVerificationError("median landed on a leaf")
    if not tree.is_binary() or tree.cherry_count() > 2:
        raise InternalVerificationError("construction is not a caterpillar")
    return peel.RepresentationReport(
        kind="median-caterpillar",
        tree=tree,
        sequence=tuple(seq),
        vertex_map=vertex_map,
        appended=appended,
    )


def verify_median_injective(tree: UnrootedPhyloTree, system: setsys.SetSystem) -> CheckReport:
    """Recompute every member's median, each once, method `median`.

    The certificate is member index -> median vertex on "yes" and the
    first colliding pair of member indices on "no".
    """
    leaves = set(tree.leaves)
    seen: dict[int, int] = {}
    medians: dict[int, int] = {}
    for i in range(system.member_count):
        labels = system.member_labels(i)
        if not set(labels) <= leaves:
            raise InputError(f"member {','.join(labels)} has taxa outside the tree")
        med = medians[i] = tree.median(labels)
        if med in seen:
            return CheckReport(False, "median", (seen[med], i), {})
        seen[med] = i
    return CheckReport(True, "median", medians, {})
