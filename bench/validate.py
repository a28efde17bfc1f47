"""Independent checks of `setflex ... --json` payloads.

Nothing here imports setflex.  Every check recomputes the claim from the
labels in the payload and the request's own input: excess measures of a
witness, display of input triples by a returned tree, median and lca
injectivity of a returned caterpillar sequence, the closed-form tree
count, and incompatibility of a counterexample by a separate BUILD.
Trees are nested tuples of labels, walked iteratively, so deep trees
cannot exhaust the interpreter stack here.
"""

from __future__ import annotations

from itertools import combinations


class Invalid(Exception):
    """A payload that contradicts its input."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Invalid(message)


# -- trees ------------------------------------------------------------------


def parse_newick(text: str):
    """Nested-tuple shape of a Newick string without lengths or inner labels."""
    text = text.strip()
    require(text.endswith(";"), f"newick lacks ';': {text[:40]!r}")
    stack: list[list] = [[]]
    label = []
    for ch in text[:-1]:
        if ch in "(),":
            if label:
                stack[-1].append("".join(label))
                label = []
            if ch == "(":
                stack.append([])
            elif ch == ")":
                require(len(stack) > 1, "unbalanced ')' in newick")
                node = tuple(stack.pop())
                require(len(node) >= 2, "newick vertex with fewer than 2 children")
                stack[-1].append(node)
        elif not ch.isspace():
            label.append(ch)
    if label:
        stack[-1].append("".join(label))
    require(len(stack) == 1 and len(stack[0]) == 1, "malformed newick")
    return stack[0][0]


def to_newick(shape) -> str:
    out = []
    stack = [(False, shape)]
    while stack:
        is_token, item = stack.pop()
        if is_token or isinstance(item, str):
            out.append(item)
            continue
        stack.append((True, ")"))
        for i, child in enumerate(reversed(item)):
            if i:
                stack.append((True, ","))
            stack.append((False, child))
        out.append("(")
    return "".join(out) + ";"


def root_paths(shape) -> dict[str, tuple[int, ...]]:
    """Each leaf's path of vertex numbers from the root (root is 0)."""
    paths: dict[str, tuple[int, ...]] = {}
    counter = 0
    stack = [(shape, (0,))]
    while stack:
        node, path = stack.pop()
        if isinstance(node, str):
            require(node not in paths, f"leaf {node} appears twice")
            paths[node] = path
            continue
        for child in node:
            counter += 1
            stack.append((child, path + (counter,)))
    return paths


def lca_depth(paths, a: str, b: str) -> int:
    pa, pb = paths[a], paths[b]
    d = 0
    for x, y in zip(pa, pb):
        if x != y:
            break
        d += 1
    return d


def displays(paths, triple) -> bool:
    """ab|c is displayed iff lca(a, b) lies strictly below lca(a, c)."""
    a, b, c = triple
    return lca_depth(paths, a, b) > lca_depth(paths, a, c)


def triples_of(shape) -> list[tuple[str, str, str]]:
    """Every resolved triple (a, b, c) meaning ab|c, with a < b."""
    paths = root_paths(shape)
    out = []
    for x, y, z in combinations(sorted(paths), 3):
        dxy, dxz, dyz = (lca_depth(paths, x, y), lca_depth(paths, x, z),
                         lca_depth(paths, y, z))
        if dxy > dxz:
            out.append((x, y, z))
        elif dxz > dxy:
            out.append((x, z, y))
        elif dyz > dxy:
            out.append((y, z, x))
    return out


def canonical(shape):
    """Sorted nested tuples, so equal trees compare equal."""
    memo: dict[int, tuple] = {}
    stack = [(shape, False)]
    while stack:
        node, done = stack.pop()
        if isinstance(node, str):
            memo[id(node)] = (node, node)
        elif done:
            kids = sorted((memo[id(c)] for c in node), key=lambda p: p[1])
            memo[id(node)] = (tuple(k for k, _ in kids), kids[0][1])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node)
    return memo[id(shape)][0]


def build(triples, taxa):
    """BUILD (Aho et al.): the supertree shape, or the first stuck leaf set."""
    result: dict[tuple, object] = {}
    order = []
    stack = [tuple(sorted(taxa))]
    while stack:
        scope = stack.pop()
        order.append(scope)
        if len(scope) == 1:
            continue
        inside = set(scope)
        parent = {x: x for x in scope}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, c in triples:
            if a in inside and b in inside and c in inside:
                parent[find(a)] = find(b)
        groups: dict[str, list[str]] = {}
        for x in scope:
            groups.setdefault(find(x), []).append(x)
        if len(groups) == 1:
            return None, scope
        kids = sorted(tuple(sorted(g)) for g in groups.values())
        result[scope] = kids
        stack.extend(kids)
    for scope in reversed(order):
        if len(scope) == 1:
            result[scope] = scope[0]
        else:
            result[scope] = tuple(result[k] for k in result[scope])
    return result[tuple(sorted(taxa))], None


def parse_triple(text: str) -> tuple[str, str, str]:
    pair, out = text.split("|")
    a, b = sorted(pair.split(","))
    return a, b, out


# -- checks on payloads -------------------------------------------------------


def _member_key(member) -> str:
    return ",".join(sorted(member))


def check_excess(payload, members, measure: str, expect_ok: bool) -> None:
    """Thin (sigma) or slim (gamma) verdict; a 'no' recomputes its witness."""
    key = f"{measure}_star"
    require(payload.get("verdict") is expect_ok,
            f"verdict {payload.get('verdict')} != expected {expect_ok}")
    value = payload.get(key)
    require(isinstance(value, int), f"payload lacks {key}")
    if expect_ok:
        require(value == 2, f"{key} = {value} on a thin/slim system, expected 2")
        require("certificate" not in payload, "'yes' verdict carries a certificate")
        return
    cert = payload.get("certificate") or {}
    by_key = {_member_key(m): m for m in members}
    witness = cert.get("witness") or []
    require(witness, "'no' verdict without a witness")
    chosen = []
    for w in witness:
        require(w in by_key, f"witness member {w} is not in the input")
        chosen.append(by_key[w])
    require(len(set(witness)) == len(witness), "witness repeats a member")
    union = set().union(*map(set, chosen))
    if measure == "sigma":
        recomputed = len(union) - len(chosen)
    else:
        recomputed = len(union) - sum(len(m) - 2 for m in chosen)
    require(recomputed == cert.get("value") == value,
            f"witness {measure} is {recomputed}, payload says {cert.get('value')}/{value}")
    require(value < 2, f"'no' verdict with {key} = {value}")


def _sequence_universe(payload, members, extras=()) -> list[str]:
    seq = payload.get("sequence") or []
    covered = set().union(*map(set, members))
    universe = covered | set(extras)
    require(sorted(seq) == sorted(universe), "sequence is not a permutation of the universe")
    appended = sorted(universe - covered)
    require(payload.get("appended_taxa") == appended, "appended_taxa mismatch")
    require(not appended or seq[-len(appended):] == appended, "appended taxa not at the end")
    require(payload.get("verified") is True, "representation not marked verified")
    require(sorted(root_paths(parse_newick(payload["newick"]))) == sorted(universe),
            "newick leaves differ from the universe")
    return seq


def check_median(payload, members) -> None:
    """Medians of a caterpillar sit at the spine vertex of each member's middle taxon."""
    seq = _sequence_universe(payload, members)
    n = len(seq)
    pos = {x: i for i, x in enumerate(seq)}
    seen: dict[int, str] = {}
    vmap = payload.get("vertex_map") or {}
    for m in members:
        mid = sorted(m, key=pos.__getitem__)[1]
        spine = max(0, min(pos[mid] - 1, n - 3))
        key = _member_key(m)
        require(spine not in seen, f"medians of {seen.get(spine)} and {key} collide")
        seen[spine] = key
        require(vmap.get(key) == spine, f"vertex_map[{key}] = {vmap.get(key)}, expected {spine}")
    require(len(vmap) == len(members), "vertex_map size differs from member count")


def check_lca(payload, members) -> None:
    """In the rooted caterpillar, a pair's lca sits at depth n-1-(later position)."""
    seq = _sequence_universe(payload, members)
    n = len(seq)
    pos = {x: i for i, x in enumerate(seq)}
    seen: dict[int, str] = {}
    vmap = payload.get("vertex_map") or {}
    for m in members:
        depth = n - 1 - max(pos[x] for x in m)
        key = _member_key(m)
        require(depth not in seen, f"lcas of {seen.get(depth)} and {key} collide")
        seen[depth] = key
        require(vmap.get(key) == depth, f"vertex_map[{key}] = {vmap.get(key)}, expected {depth}")
    require(len(vmap) == len(members), "vertex_map size differs from member count")


def check_order_flexible(payload, members, expect_ok: bool) -> None:
    """A pair forest is order-flexible; otherwise a member/taxon cycle proves it is not."""
    require(payload.get("verdict") is expect_ok,
            f"verdict {payload.get('verdict')} != expected {expect_ok}")
    if expect_ok:
        return
    cycle = (payload.get("certificate") or {}).get("cycle") or []
    by_key = {_member_key(m): set(m) for m in members}
    require(len(cycle) >= 4 and len(cycle) % 2 == 0, "cycle too short")
    require(len(set(cycle)) == len(cycle), "cycle repeats a vertex")
    offset = 0 if cycle[0] in by_key else 1
    for i in range(len(cycle)):
        node, nxt = cycle[i], cycle[(i + 1) % len(cycle)]
        member, taxon = (node, nxt) if (i + offset) % 2 == 0 else (nxt, node)
        require(member in by_key and taxon in by_key[member],
                f"cycle step {node} -> {nxt} is not an incidence")


def sdr_exists(derived: list[set[str]]) -> bool:
    """Kuhn's augmenting-path matching: can every set get an element of its own?"""
    owner: dict[str, int] = {}

    def augment(i: int, seen: set[str]) -> bool:
        for x in sorted(derived[i]):
            if x not in seen:
                seen.add(x)
                if x not in owner or augment(owner[x], seen):
                    owner[x] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(derived)))


def check_sdr(payload, members, blockers, expect_ok: bool) -> None:
    derived = {_member_key(m): set(m) - set(blockers) for m in members}
    require(payload.get("found") is expect_ok,
            f"found {payload.get('found')} != expected {expect_ok}")
    if expect_ok:
        assignment = payload.get("assignment") or {}
        require(sorted(assignment) == sorted(derived), "assignment misses members")
        require(len(set(assignment.values())) == len(assignment), "representatives repeat")
        for key, x in assignment.items():
            require(x in derived[key], f"{x} is not in {key} minus B")
        return
    violators = payload.get("violator_members") or []
    require(violators and all(v in derived for v in violators), "bad violator members")
    union = set().union(*(derived[v] for v in violators))
    require(len(union) < len(violators), "violator satisfies Hall's condition")


def check_flex(payload, members, expect_ok: bool, total: int) -> None:
    """A 'yes' scanned every assignment; a 'no' certificate must fail BUILD."""
    require(payload.get("verdict") is expect_ok,
            f"verdict {payload.get('verdict')} != expected {expect_ok}")
    checked = (payload.get("stats") or {}).get("assignments_checked")
    if expect_ok:
        require(checked == total, f"checked {checked} of {total} assignments")
        return
    require(isinstance(checked, int) and 1 <= checked <= total,
            f"checked {checked} outside 1..{total}")
    trees = payload.get("certificate") or []
    ordered = sorted(members, key=lambda m: sorted(m))
    require(len(trees) == len(ordered), "counterexample has the wrong member count")
    pooled = []
    for text, member in zip(trees, ordered):
        if text.endswith(";"):
            shape = parse_newick(text)
            trips = triples_of(shape)
            require(sorted(root_paths(shape)) == sorted(member),
                    f"tree {text} is not on member {member}")
            require(len(trips) == len(list(combinations(member, 3))),
                    f"tree {text} is not binary")
        else:
            trips = [parse_triple(text)]
            require(sorted(trips[0]) == sorted(member), f"triple {text} not on {member}")
        pooled.extend(trips)
    taxa = set().union(*map(set, members))
    tree, _ = build(pooled, taxa)
    require(tree is None, "counterexample assignment is compatible")


def check_supertree(payload, triples, taxa, expect_ok: bool) -> None:
    require(payload.get("compatible") is expect_ok,
            f"compatible {payload.get('compatible')} != expected {expect_ok}")
    if expect_ok:
        paths = root_paths(parse_newick(payload["newick"]))
        require(sorted(paths) == sorted(taxa), "supertree leaves differ from input taxa")
        for t in triples:
            require(displays(paths, t), f"supertree does not display {t[0]},{t[1]}|{t[2]}")
        return
    witness = payload.get("witness") or []
    scope = set(witness)
    require(len(scope) >= 2 and scope <= set(taxa), "witness is not an input leaf set")
    parent = {x: x for x in scope}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, c in triples:
        if a in scope and b in scope and c in scope:
            parent[find(a)] = find(b)
    require(len({find(x) for x in scope}) == 1,
            "witness cluster graph is disconnected")


def check_defining(payload, shape) -> None:
    """n-2 displayed triples whose BUILD returns exactly the input tree."""
    lines = payload.get("triples") or []
    paths = root_paths(shape)
    require(len(lines) == len(paths) - 2, f"{len(lines)} triples for {len(paths)} leaves")
    triples = [parse_triple(t) for t in lines]
    for t in triples:
        require(displays(paths, t), f"input tree does not display {t}")
    tree, _ = build(triples, paths)
    require(tree is not None and canonical(tree) == canonical(shape),
            "defining triples do not rebuild the input tree")


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def check_count(payload, n: int) -> None:
    expected = double_factorial(2 * n - 3) // 3 ** (n // 3)
    require(payload.get("count") == expected,
            f"count {payload.get('count')} != (2n-3)!!/3^(n/3) = {expected}")


def check_no_work(payload) -> None:
    require(payload == {"command": "supertree", "compatible": True,
                        "newick": "((a,b),c);"}, "one-triple supertree payload changed")
