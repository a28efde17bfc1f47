"""Shared helpers: tiny system builders, independent oracles, generators.

The oracles here recompute everything from label sets with plain Python,
independent of the library's id/bitmask code paths.
"""

from __future__ import annotations

import random
from itertools import combinations

from setflex import InputError, SetSystem
from setflex.setsys import check_label

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
