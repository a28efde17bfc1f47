"""Shared helpers: tiny system builders, independent oracles, generators.

The oracles here recompute everything from label sets with plain Python,
independent of the library's id/bitmask code paths.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from setflex import InputError, RootedPhyloTree, SetSystem, phylo
from setflex.setsys import check_label, normalize_selection

ALPHA = "abcdefghijklmnopqrstuvwxyz"

FIG1 = ("abc", "abd", "bce", "def")
FIG1P = ("abc", "abd", "bce", "def", "bde")
FIG3 = ("abc", "cde", "aef", "beg", "adg")


def accepted_label(label: str) -> bool:
    """Whether `check_label` accepts the label (a filter for label strategies)."""
    try:
        check_label(label)
    except InputError:
        return False
    return True


def tsys(*words: str, extra: tuple[str, ...] = ()) -> SetSystem:
    """Build a system from words of single-character labels."""
    return SetSystem([list(w) for w in words], extra_taxa=extra)


# -- independent oracles -------------------------------------------------------


def oracle_sigma(member_sets, combo) -> int:
    union = set().union(*(member_sets[i] for i in combo)) if combo else set()
    return len(union) - len(combo)


def oracle_gamma(member_sets, combo) -> int:
    union = set().union(*(member_sets[i] for i in combo)) if combo else set()
    return len(union) - sum(len(member_sets[i]) - 2 for i in combo)


def brute_minimum(system: SetSystem, measure: str):
    """Exhaustive minimum of sigma/gamma over non-empty selections."""
    member_sets = system.member_label_sets()
    fn = oracle_sigma if measure == "sigma" else oracle_gamma
    best = None
    for size in range(1, len(member_sets) + 1):
        for combo in combinations(range(len(member_sets)), size):
            val = fn(member_sets, combo)
            if best is None or val < best[0]:
                best = (val, combo)
    return best


def brute_thin(system: SetSystem, r: int) -> bool:
    member_sets = system.member_label_sets()
    for size in range(1, len(member_sets) + 1):
        for combo in combinations(range(len(member_sets)), size):
            union = set().union(*(member_sets[i] for i in combo))
            if len(union) - size - (r - 1) < 0:
                return False
    return True


def brute_slim(system: SetSystem) -> bool:
    member_sets = system.member_label_sets()
    for size in range(1, len(member_sets) + 1):
        for combo in combinations(range(len(member_sets)), size):
            union = set().union(*(member_sets[i] for i in combo))
            weight = sum(len(member_sets[i]) - 2 for i in combo)
            if len(union) - 2 - weight < 0:
                return False
    return True


def component_count(adj: dict) -> int:
    seen = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def leaf_union(system: SetSystem, selection) -> frozenset[int]:
    """Union of the selected members, as taxon ids.  Empty selection is empty."""
    sel = normalize_selection(system, selection, allow_empty=True)
    return frozenset(x for i in sel for x in system.members[i])


def cluster_graph(triples, taxa) -> dict[str, tuple[str, ...]]:
    """The graph on `taxa` with an edge {a,b} for each triple ab|c inside it."""
    nodes = sorted(set(taxa))
    node_set = set(nodes)
    adj: dict[str, set[str]] = {v: set() for v in nodes}
    for t in triples:
        if t.taxa <= node_set:
            adj[t.first].add(t.second)
            adj[t.second].add(t.first)
    return {v: tuple(sorted(adj[v])) for v in nodes}


def restrict(tree: RootedPhyloTree, taxa) -> RootedPhyloTree:
    """Minimal subtree spanning the given leaves, degree-2 vertices suppressed.

    A fold with an explicit stack (`phylo._fold`), so trees of any depth work.
    """
    want = set(taxa)
    if not want:
        raise InputError("cannot restrict to an empty leaf set")
    missing = want - set(tree.leaves)
    if missing:
        raise InputError(f"taxa not in tree: {sorted(missing)}")

    def prune(values: list):
        kept = [v for v in values if v is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else tuple(kept)

    return RootedPhyloTree(
        phylo._fold(tree.shape, lambda leaf: leaf if leaf in want else None, prune)
    )


def vertex_count(tree: RootedPhyloTree) -> int:
    """Vertices of a rooted tree, numbered 0 .. count-1 by its index."""
    return tree.leaf_count + len(tree.interior_ids())


def unrooted_neighbors(tree, v: int) -> tuple[int, ...]:
    """The neighbours of vertex v of an `UnrootedPhyloTree`, sorted."""
    return tree._adj[v]


def count_displaying_hosts(hosts, triples, stop_at: int | None = None) -> int:
    """How many of `hosts` display every triple, read off label sets: a
    host displays ab|c iff one of its clusters holds a and b but not c."""
    count = 0
    for host in hosts:
        clusters = [host.cluster(v) for v in host.interior_ids()]
        if all(any({t.first, t.second} <= c and t.out not in c for c in clusters)
               for t in triples):
            count += 1
            if stop_at is not None and count >= stop_at:
                break
    return count


# -- set-system formats -----------------------------------------------------------


def format_sets_text(system: SetSystem) -> str:
    """One member per line, the form `parse_sets_text` reads."""
    lines = [",".join(system.member_labels(i)) for i in range(system.member_count)]
    return "\n".join(lines) + ("\n" if lines else "")


def format_sets_json(system: SetSystem) -> str:
    """The JSON form `parse_sets_json` reads, extra taxa included."""
    payload: dict = {
        "sets": [list(system.member_labels(i)) for i in range(system.member_count)]
    }
    extras = sorted(set(system.universe) - set(system.leaf_labels()))
    if extras:
        payload["extra_taxa"] = extras
    return json.dumps(payload, sort_keys=True)


# -- random generators ----------------------------------------------------------


def random_members(rng: random.Random, taxa: str, count: int, sizes):
    """Distinct random members over the given taxa, as label tuples."""
    chosen: set[tuple[str, ...]] = set()
    guard = 0
    while len(chosen) < count:
        guard += 1
        if guard > 10000:
            break
        size = rng.choice(list(sizes))
        if size > len(taxa):
            continue
        member = tuple(sorted(rng.sample(taxa, size)))
        chosen.add(member)
    return [list(m) for m in sorted(chosen)]


def random_system(rng: random.Random, n_taxa: int, count: int, sizes) -> SetSystem:
    return SetSystem(random_members(rng, ALPHA[:n_taxa], count, sizes))


def random_thin_triples(rng: random.Random, n_taxa: int, max_members: int) -> SetSystem:
    """Greedy thin triple system: keep members that preserve sigma* >= 2."""
    from setflex import graphopt

    taxa = ALPHA[:n_taxa]
    pool = [tuple(sorted(rng.sample(taxa, 3))) for _ in range(4 * max_members)]
    accepted: list[tuple[str, ...]] = []
    for cand in pool:
        if cand in accepted:
            continue
        trial = accepted + [cand]
        if graphopt.sigma_star(SetSystem([list(m) for m in trial])).value >= 2:
            accepted = trial
        if len(accepted) >= max_members:
            break
    if not accepted:
        accepted = [tuple(sorted(rng.sample(taxa, 3)))]
    return SetSystem([list(m) for m in accepted])


def random_slim_system(
    rng: random.Random, n_taxa: int, max_members: int, sizes=(3, 4, 5)
) -> SetSystem:
    """Greedy slim system: keep members that preserve gamma* >= 2."""
    from setflex import graphopt

    taxa = ALPHA[:n_taxa]
    accepted: list[tuple[str, ...]] = []
    for _ in range(6 * max_members):
        size = rng.choice(list(sizes))
        if size > len(taxa):
            continue
        cand = tuple(sorted(rng.sample(taxa, size)))
        if cand in accepted:
            continue
        trial = accepted + [cand]
        if graphopt.gamma_star(SetSystem([list(m) for m in trial])).value >= 2:
            accepted = trial
        if len(accepted) >= max_members:
            break
    if not accepted:
        accepted = [tuple(sorted(rng.sample(taxa, 3)))]
    return SetSystem([list(m) for m in accepted])


# -- binary tree shapes -----------------------------------------------------------
# Built without recursion, so they serve trees of any depth.  The labels
# come in the caller's order; shuffle them for trees whose sorted-label
# order differs from their leaf order.


def caterpillar_shape(rng: random.Random, labels) -> tuple:
    """((l0,l1),l2)... with each new leaf placed left or right at random."""
    shape = labels[0]
    for lab in labels[1:]:
        shape = (shape, lab) if rng.random() < 0.5 else (lab, shape)
    return shape


def yule_shape(rng: random.Random, labels) -> tuple:
    """Join two random subtrees until one is left (the Yule-Harding shape law)."""
    pool = list(labels)
    while len(pool) > 1:
        i, j = rng.sample(range(len(pool)), 2)
        joined = (pool[i], pool[j])
        for k in sorted((i, j), reverse=True):
            pool[k] = pool[-1]
            pool.pop()
        pool.append(joined)
    return pool[0]


def balanced_shape(rng: random.Random, labels) -> tuple:
    """Pair neighbours level by level; an odd one out waits for the next level."""
    pool = list(labels)
    while len(pool) > 1:
        pool = [tuple(pool[i:i + 2]) if i + 1 < len(pool) else pool[i]
                for i in range(0, len(pool), 2)]
    return pool[0]


def shuffled_labels(rng: random.Random, n: int) -> list[str]:
    """n distinct labels in random order; 't10' < 't9' as strings."""
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels
