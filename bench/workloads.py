"""Seeded request lists for the three benchmark workloads.

Every request carries its input files, its `setflex` arguments, the exit
code it must return and a check of its `--json` payload (see
`validate`).  Inputs are built so the right answer is known from the
construction, never from setflex:

* a system in which every member after the first brings at least
  |member| - 2 taxa that no earlier member has is slim (thin, for
  triples): the first member of any selection contributes 2 to gamma and
  every later one at least 0;
* three members inside the union of two members that share two taxa
  (or three triples on four taxa) make gamma (sigma) at most 1;
* the binary trees used for supertree inputs are drawn here, and their
  triples come from the validator's own tree code.

Sizes are fixed grids; the seed picks labels, structure and order, so
one seed's pass costs about as much as another's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable

import validate

FIG1 = (("a", "b", "c"), ("a", "b", "d"), ("b", "c", "e"), ("d", "e", "f"))
FIG1P = FIG1 + (("b", "d", "e"),)
FIG3 = (("a", "b", "c"), ("c", "d", "e"), ("a", "e", "f"), ("b", "e", "g"),
        ("a", "d", "g"))


@dataclass
class Request:
    """One `setflex` invocation; `argv` names files relative to the work dir."""

    name: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], None]
    files: dict[str, str] = field(default_factory=dict)


def labels(rng: random.Random, n: int, prefix: str = "t") -> list[str]:
    """n distinct labels in random order, so member order varies with the seed."""
    names = [f"{prefix}{i:03d}" for i in range(n)]
    rng.shuffle(names)
    return names


def sets_text(members) -> str:
    return "".join(",".join(m) + "\n" for m in members)


def fresh_system(rng, sizes, names, recent: int = 0):
    """Members where each new one brings exactly |m| - 2 unseen taxa (slim/thin).

    The two old taxa of a member come from the `recent` latest taxa seen,
    or from all of them when `recent` is 0.
    """
    it = iter(names)
    members = [tuple(next(it) for _ in range(sizes[0]))]
    seen = list(members[0])
    for size in sizes[1:]:
        old_pool = seen[-recent:] if recent else seen
        member = tuple(rng.sample(old_pool, 2)) + tuple(next(it) for _ in range(size - 2))
        members.append(member)
        seen.extend(member[2:])
    return members


def chain(names, k: int, size: int = 3, step: int = 1):
    """k members of `size` consecutive labels, each starting `step` after the last."""
    return [tuple(names[i * step:i * step + size]) for i in range(k)]


def plant_triple_violator(rng, members):
    """Add triples so that three members lie on four taxa (sigma = 1).

    Both added triples cannot already be members: that would give a thin
    system three members on four taxa.
    """
    present = {frozenset(m) for m in members}
    universe = sorted({x for m in members for x in m})
    x, y, z = rng.choice(members)
    w = rng.choice([u for u in universe if u not in (x, y, z)])
    out = list(members)
    for extra in ((x, y, w), (x, z, w)):
        if frozenset(extra) not in present:
            out.append(extra)
    return out


def plant_slim_violator(rng, members):
    """Add a triple inside two members that share two taxa (gamma = 1)."""
    pairs = [(a, b) for a, b in zip(members, members[1:]) if len(set(a) & set(b)) == 2]
    a, b = rng.choice(pairs)
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    shared = sorted(set(a) & set(b))
    # The only_b taxon is new in b, and later members take their two old
    # taxa from the latest ones seen, so no member equals the added triple.
    return list(members) + [(rng.choice(only_a), rng.choice(only_b), rng.choice(shared))]


def shuffled(rng, members):
    out = [tuple(rng.sample(m, len(m))) for m in members]
    rng.shuffle(out)
    return out


# -- coverage ---------------------------------------------------------------------


def _excess_request(rng, tag, kind, members, ok):
    measure = "sigma" if kind == "thin" else "gamma"
    return Request(
        name=f"check-{kind}/{tag}",
        argv=["check", kind, "in.txt"],
        expect_exit=0 if ok else 1,
        check=partial(validate.check_excess, members=members, measure=measure,
                      expect_ok=ok),
        files={"in.txt": sets_text(shuffled(rng, members))},
    )


def coverage(rng: random.Random) -> list[Request]:
    # Sizes step evenly, so request latencies spread without gaps and the
    # median and tail do not jump between clusters from run to run.
    # Every other request of a kind gets a planted violator.
    reqs = []
    for i, k in enumerate((50, 70, 90, 110, 130)):
        ok = i % 2 == 0
        base = chain(labels(rng, k + 2), k)
        members = base if ok else plant_triple_violator(rng, base)
        reqs.append(_excess_request(rng, f"chain-{k}", "thin", members, ok))
    for i, k in enumerate((55, 75, 95, 115)):
        ok = i % 2 == 1
        base = fresh_system(rng, [3] * k, labels(rng, k + 2))
        members = base if ok else plant_triple_violator(rng, base)
        reqs.append(_excess_request(rng, f"random-{k}", "thin", members, ok))
    for i, k in enumerate((40, 55, 70, 85)):
        ok = i % 2 == 0
        sizes = [rng.choice((3, 4, 5)) for _ in range(k)]
        # A mixed-size chain: each member shares two taxa with the last one.
        base = fresh_system(rng, sizes, labels(rng, sum(sizes)), recent=2)
        members = base if ok else plant_slim_violator(rng, base)
        reqs.append(_excess_request(rng, f"mixed-{k}", "slim", members, ok))
    for tag, k in (("chain", 40), ("chain", 55), ("chain", 70), ("chain", 85),
                   ("chain", 100), ("dense", 50), ("dense", 65)):
        names = labels(rng, k + 2)
        members = fresh_system(rng, [3] * k, names) if tag == "dense" else chain(names, k)
        reqs.append(Request(
            name=f"represent-median/{tag}-{k}",
            argv=["represent", "median-caterpillar", "in.txt"],
            expect_exit=0,
            check=partial(validate.check_median, members=members),
            files={"in.txt": sets_text(shuffled(rng, members))},
        ))
    for tag, k in (("path", 80), ("path", 110), ("forest", 95), ("forest", 125)):
        names = labels(rng, k + 3)
        if tag == "path":
            members = chain(names, k, size=2)
        else:
            # Three trees: each new pair joins one unseen taxon to an old one.
            members, trees = [], [[root] for root in names[:3]]
            for i, x in enumerate(names[3:3 + k]):
                members.append((rng.choice(trees[i % 3]), x))
                trees[i % 3].append(x)
        reqs.append(Request(
            name=f"represent-lca/{tag}-{k}",
            argv=["represent", "lca-caterpillar", "in.txt"],
            expect_exit=0,
            check=partial(validate.check_lca, members=members),
            files={"in.txt": sets_text(shuffled(rng, members))},
        ))
    for ok in (True, False):
        names = labels(rng, 41)
        # A tree of pairs; one more pair inside it closes a cycle.
        members = [(rng.choice(names[:i]), names[i]) for i in range(1, 41)]
        if not ok:
            present = {frozenset(m) for m in members}
            members.append(rng.choice([p for p in combinations(names, 2)
                                       if frozenset(p) not in present]))
        reqs.append(Request(
            name=f"check-order-flexible/{'forest' if ok else 'cycle'}-40",
            argv=["check", "order-flexible", "in.txt"],
            expect_exit=0 if ok else 1,
            check=partial(validate.check_order_flexible, members=members, expect_ok=ok),
            files={"in.txt": sets_text(shuffled(rng, members))},
        ))
    for ok in (True, False):
        names = labels(rng, 32)
        members = fresh_system(rng, [3] * 30, names)
        if not ok:
            members = plant_triple_violator(rng, members)
        blockers = rng.sample(sorted({x for m in members for x in m}), 2)
        derived = [set(m) - set(blockers) for m in members]
        found = validate.sdr_exists(derived)
        reqs.append(Request(
            name=f"sdr/{'thin' if ok else 'violated'}-30",
            argv=["sdr", "in.txt", "--B", ",".join(blockers)],
            expect_exit=0 if found else 1,
            check=partial(validate.check_sdr, members=members, blockers=blockers,
                          expect_ok=found),
            files={"in.txt": sets_text(shuffled(rng, members))},
        ))
    return reqs


# -- flexscan -----------------------------------------------------------------------


def _flex_request(rng, tag, members, ok):
    total = 1
    for m in members:
        total *= validate.double_factorial(2 * len(m) - 3)  # binary trees on m
    return Request(
        name=f"flexible/{tag}",
        argv=["check", "flexible", "in.txt", "--method", "bruteforce"],
        expect_exit=0 if ok else 1,
        check=partial(validate.check_flex, members=members, expect_ok=ok, total=total),
        files={"in.txt": sets_text(shuffled(rng, members))},
    )


def flexscan(rng: random.Random) -> list[Request]:
    reqs = [
        _flex_request(rng, "fig1", FIG1, True),
        _flex_request(rng, "fig1p", FIG1P, False),
        _flex_request(rng, "fig3", FIG3, True),
    ]
    # Slim chains of triples and quads whose assignment counts step from
    # 225 to 6,561, so scan lengths spread without gaps.  Each member
    # shares the two latest taxa of the chain, so only labels and order
    # change with the seed, and with them little of the scan's cost.
    for triples, quads in ((0, 2), (6, 0), (4, 1), (2, 2), (7, 0), (0, 3), (5, 1),
                           (3, 2), (8, 0)):
        sizes = [4] * quads + [3] * triples
        members = fresh_system(rng, sizes, labels(rng, sum(sizes)), recent=2)
        reqs.append(_flex_request(rng, f"chain-{triples}t{quads}q", members, True))
    # Three triples on four taxa are not thin.  Labels decide where they sit
    # in the scan order: 'z' labels sort last (fast digits, early
    # counterexample), 'a' labels first (slow digits, late counterexample).
    for where, prefix, k in (("early", "z", 4), ("late", "a", 4), ("late", "a", 5)):
        bad = [tuple(f"{prefix}{c}" for c in m) for m in ("012", "013", "023")]
        rest = chain(labels(rng, 2 * k + 1, prefix="m"), k, size=3, step=2)
        reqs.append(_flex_request(rng, f"violator-{where}-{k}", bad + rest, False))
    return reqs


# -- supertree ---------------------------------------------------------------------


def random_tree(rng: random.Random, names):
    """A Yule tree: each new leaf splits a uniformly chosen existing leaf.

    Yule trees are about 2 ln n deep with little spread, so BUILD and
    Newick costs vary little from seed to seed.
    """
    # Vertex v has children kids[v]; leaves are vertices without children.
    kids: list[list[int]] = [[1, 2], [], []]
    parent = [-1, 0, 0]
    label = {1: names[0], 2: names[1]}
    leaves = [1, 2]
    for name in names[2:]:
        v = rng.choice(leaves)
        u, leaf = len(kids), len(kids) + 1
        kids.extend([[v, leaf], []])
        parent.extend([parent[v], u])
        siblings = kids[parent[v]]
        siblings[siblings.index(v)] = u
        parent[v] = u
        label[leaf] = name
        leaves.append(leaf)
    built: dict[int, object] = {}
    for v in reversed(_preorder(kids, 0)):
        built[v] = label[v] if v in label else tuple(built[c] for c in kids[v])
    return built[0]


def _preorder(kids, root):
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    return order


def restrict(shape, keep):
    """The subtree spanning `keep`, with degree-2 vertices suppressed."""
    if isinstance(shape, str):
        return shape if shape in keep else None
    kids = [r for c in shape if (r := restrict(c, keep)) is not None]
    if not kids:
        return None
    return kids[0] if len(kids) == 1 else tuple(kids)


def relabel(shape, mapping):
    if isinstance(shape, str):
        return mapping.get(shape, shape)
    return tuple(relabel(c, mapping) for c in shape)


def interior_triples(shape):
    """One triple per non-root interior vertex: min of each child | min of sibling.

    BUILD on these returns `shape`: inside each cluster the triples of its
    descendants join the children's least leaves into one spanning tree,
    while no triple of an ancestor has all three leaves in the cluster.
    """
    least: dict[int, str] = {}
    nodes = []
    stack = [shape]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, str):
            stack.extend(node)
    for node in reversed(nodes):
        least[id(node)] = node if isinstance(node, str) else min(
            least[id(c)] for c in node)
    out = []
    for node in nodes:
        if isinstance(node, str):
            continue
        left, right = node
        for child, sibling in ((left, right), (right, left)):
            if not isinstance(child, str):
                a, b = sorted((least[id(child[0])], least[id(child[1])]))
                out.append((a, b, least[id(sibling)]))
    return out


def _supertree_request(tag, text, triples, taxa, ok):
    return Request(
        name=f"supertree/{tag}",
        argv=["supertree", "in.txt"],
        expect_exit=0 if ok else 1,
        check=partial(validate.check_supertree, triples=triples, taxa=sorted(taxa),
                      expect_ok=ok),
        files={"in.txt": text},
    )


def _subtree_inputs(rng, hidden, names, count, size, perturb):
    """Overlapping restrictions of a hidden tree; optionally one with two leaves swapped."""
    while True:
        subsets = [rng.sample(names, size) for _ in range(count)]
        trees = [restrict(hidden, set(s)) for s in subsets]
        if perturb:
            i = rng.randrange(count)
            a, b = rng.sample(subsets[i], 2)
            trees[i] = relabel(trees[i], {a: b, b: a})
        triples = [t for tree in trees for t in validate.triples_of(tree)]
        taxa = set().union(*map(set, subsets))
        compatible = validate.build(triples, taxa)[0] is not None
        if compatible != perturb:
            return trees, triples, taxa


def supertree(rng: random.Random) -> list[Request]:
    # Sizes step evenly, so request latencies spread without gaps.
    reqs = []
    for n in (40, 44):
        names = labels(rng, n)
        tree = random_tree(rng, names)
        reqs.append(_supertree_request(
            f"newick-whole-{n}", validate.to_newick(tree) + "\n",
            validate.triples_of(tree), names, True))
    for count, perturb in ((6, False), (8, False), (10, False), (6, True), (10, True)):
        names = labels(rng, 60)
        hidden = random_tree(rng, names)
        trees, triples, taxa = _subtree_inputs(rng, hidden, names, count, 20, perturb)
        text = "".join(validate.to_newick(t) + "\n" for t in trees)
        tag = "perturbed" if perturb else "overlapping"
        reqs.append(_supertree_request(f"newick-{tag}-{count}x20", text, triples,
                                       taxa, not perturb))
    for n in (150, 200, 250, 300, 350, 400):
        names = labels(rng, n)
        triples = interior_triples(random_tree(rng, names))
        rng.shuffle(triples)
        text = "".join(f"{a},{b}|{c}\n" for a, b, c in triples)
        reqs.append(_supertree_request(f"defining-{n}", text, triples, names, True))
    for n in (100, 150, 200, 250, 300):
        names = labels(rng, n)
        tree = random_tree(rng, names)
        reqs.append(Request(
            name=f"gen-defining/random-{n}",
            argv=["gen-defining", "in.txt"],
            expect_exit=0,
            check=partial(validate.check_defining, shape=tree),
            files={"in.txt": validate.to_newick(tree) + "\n"},
        ))
    for n, extra in ((6, []), (6, ["--formula-n", "6"]), (3, ["--formula-n", "3"])):
        names = labels(rng, n)
        text = "".join(f"{names[i]},{names[i + 1]}|{names[i + 2]}\n" for i in range(0, n, 3))
        reqs.append(Request(
            name=f"count/disjoint-{n}" + ("-formula" if extra else ""),
            argv=["count", "in.txt", *extra],
            expect_exit=0,
            check=partial(validate.check_count, n=n),
            files={"in.txt": text},
        ))
    return reqs


def deep_caterpillar() -> Request:
    """gen-defining on a 1,500-leaf caterpillar: a legal input that must succeed."""
    names = [f"c{i:04d}" for i in range(1500)]
    text = "(" * 1499 + names[0] + "".join(f",{x})" for x in names[1:]) + ";\n"
    shape = validate.parse_newick(text)
    return Request(
        name="gen-defining/caterpillar-1500",
        argv=["gen-defining", "in.txt"],
        expect_exit=0,
        check=partial(validate.check_defining, shape=shape),
        files={"in.txt": text},
    )


def no_work() -> Request:
    """A one-triple supertree: start-up, parse and print, and no real work."""
    return Request(
        name="no-work/one-triple",
        argv=["supertree", "in.txt"],
        expect_exit=0,
        check=validate.check_no_work,
        files={"in.txt": "a,b|c\n"},
    )


WORKLOADS = {"coverage": coverage, "flexscan": flexscan, "supertree": supertree}
