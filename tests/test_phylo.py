import random
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setflex import phylo
from setflex import (
    BuildResult,
    InputError,
    ParseError,
    RootedPhyloTree,
    RootedTriple,
    UnrootedPhyloTree,
    build_supertree,
    defining_triples,
    displays_clusters,
    displays_triple,
    enumerate_binary_trees,
    make_binary,
    parse_newick,
    parse_triple,
    parse_triples_text,
    spanning_triples,
    triples_of,
    unrooted_caterpillar,
)
from setflex.setsys import check_label
from conftest import (
    ALPHA,
    accepted_label,
    balanced_shape,
    caterpillar_shape,
    cluster_graph,
    component_count,
    is_unique_display,
    restrict,
    shuffled_labels,
    unrooted_neighbors,
    vertex_count,
    yule_shape,
)


def T(text: str) -> RootedPhyloTree:
    return parse_newick(text)


def trip(text: str) -> RootedTriple:
    return parse_triple(text)


class TestNewick:
    def test_rooted_triple(self):
        tree = T("((a,b),c);")
        assert tree.leaves == ("a", "b", "c")
        assert tree.is_binary()

    def test_star_is_legal(self):
        tree = T("(a,b,c);")
        assert not tree.is_binary()
        assert tree.leaf_count == 3

    def test_canonical_round_trip(self):
        assert T("((a,b),(c,d));").newick() == "((a,b),(c,d));"
        assert T("((d,c),(b,a));").newick() == "((a,b),(c,d));"

    def test_write_parse_write_is_write(self):
        for tree in enumerate_binary_trees("abcde"):
            text = tree.newick()
            assert parse_newick(text).newick() == text

    # Label characters around the Newick grammar, quotes, '#' and '|'
    # included; a label `check_label` rejects, or one drawn before (b1 + 60
    # and b + 160 both give b160), is drawn again, so every accepted label
    # can occur.
    LABEL_CHARS = "abcXYZ019_-.|*+[]{}#!'\""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_print_parse_print(self, data):
        # At most 300 leaves: `parse_newick` recurses once per level.
        n = data.draw(st.integers(1, 300), label="leaves")
        rng = data.draw(st.randoms(use_true_random=False))
        labels = []
        while len(labels) < n:
            label = "".join(
                rng.choice(self.LABEL_CHARS) for _ in range(rng.randint(1, 4))
            ) + str(len(labels))
            if accepted_label(label) and label not in labels:
                labels.append(label)
        make = rng.choice((yule_shape, caterpillar_shape, balanced_shape))
        tree = RootedPhyloTree(_contract(rng, make(rng, labels), rng.choice((0.0, 0.4))))
        text = tree.newick()
        again = parse_newick(text)
        assert again.newick() == text
        assert again == tree and again.leaves == tree.leaves

    def test_parse_errors(self):
        bad = [
            "((a,b),c)",        # missing ;
            "((a,b),c); x",      # trailing
            "((a,b):1,c);",      # branch length
            "((a,b)x,c);",       # internal label
            "(('a',b),c);",      # quoted label
            "((a,b),a);",        # duplicate leaf
            "((a),b);",          # out-degree 1
            "(,a);",             # empty clade
            "();",
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_newick(text)

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self):
        text = "(" * 5000 + "a" + "".join(f",b{i})" for i in range(5000)) + ";"
        with pytest.raises(ParseError, match="Newick nested too deeply"):
            parse_newick(text)

    def test_whitespace_tolerated(self):
        assert T(" ( (a, b) , c ) ; ").newick() == "((a,b),c);"

    def test_multichar_labels(self):
        tree = T("((taxon_1,taxon_2),outgroup);")
        assert tree.leaves == ("outgroup", "taxon_1", "taxon_2")


class TestTripleParsing:
    def test_compact(self):
        t = trip("a,b|c")
        assert t.cherry == {"a", "b"} and t.out == "c"
        assert t.compact() == "a,b|c"

    def test_cherry_order_normalized(self):
        assert trip("b,a|c") == trip("a,b|c")

    def test_newick_line(self):
        (t,) = parse_triples_text("((a,b),c);\n")
        assert t == trip("a,b|c")

    def test_distinct_taxa_required(self):
        with pytest.raises(InputError):
            RootedTriple.of("a", "a", "b")


class TestDisplay:
    def test_fig2_tree_displays_ab_c(self):
        host = T("((a,(b,c)),(d,(e,f)));")
        assert displays_triple(host, trip("b,c|a"))
        assert not displays_triple(host, trip("a,b|c"))

    def test_three_leaf_exclusivity(self):
        host = T("((a,b),c);")
        assert displays_triple(host, trip("a,b|c"))
        assert not displays_triple(host, trip("a,c|b"))
        assert not displays_triple(host, trip("b,c|a"))

    def test_star_displays_nothing(self):
        host = T("(a,b,c);")
        assert not displays_triple(host, trip("a,b|c"))

    def test_missing_taxon(self):
        with pytest.raises(InputError):
            displays_triple(T("((a,b),c);"), trip("a,b|z"))

    def test_trichotomy_on_binary_trees(self):
        rng = random.Random(3)
        trees = enumerate_binary_trees("abcdef")
        for tree in rng.sample(trees, 40):
            for a, b, c in combinations(tree.leaves, 3):
                shown = [
                    displays_triple(tree, RootedTriple.of(*order))
                    for order in ((a, b, c), (a, c, b), (b, c, a))
                ]
                assert sum(shown) == 1


class TestTriplesOf:
    def test_single_triple(self):
        assert triples_of(T("((a,b),c);")) == {trip("a,b|c")}

    def test_caterpillar(self):
        got = triples_of(T("(((a,b),c),d);"))
        assert got == {trip("a,b|c"), trip("a,b|d"), trip("a,c|d"), trip("b,c|d")}

    def test_star_has_none(self):
        assert triples_of(T("(a,b,c,d);")) == frozenset()

    def test_binary_tree_is_fully_resolved(self):
        for tree in enumerate_binary_trees("abcde"):
            assert len(triples_of(tree)) == 10


class TestDisplaysTree:
    def test_guest_triple(self):
        host = T("((a,(b,c)),(d,(e,f)));")
        assert displays_clusters(host, trip("b,c|a").as_tree())

    def test_self_display(self):
        for tree in enumerate_binary_trees("abcd"):
            assert displays_clusters(tree, tree)

    def test_negative(self):
        assert not displays_clusters(T("((a,b),(c,d));"), T("((a,c),b);"))

    def test_guest_leaves_checked(self):
        with pytest.raises(InputError):
            displays_clusters(T("((a,b),c);"), T("((a,z),b);"))


class TestRestrict:
    def test_two_leaves(self):
        assert restrict(T("((a,b),c);"), {"a", "c"}).newick() == "(a,c);"

    def test_fig2_restriction(self):
        host = T("((a,(b,c)),(d,(e,f)));")
        assert restrict(host, {"a", "b", "c"}).newick() == "(a,(b,c));"

    def test_idempotent(self):
        host = T("((a,(b,c)),(d,(e,f)));")
        once = restrict(host, {"a", "c", "e", "f"})
        assert restrict(once, set(once.leaves)) == once

    def test_triples_commute_with_restriction(self):
        rng = random.Random(9)
        for tree in rng.sample(enumerate_binary_trees("abcdef"), 25):
            sub = rng.sample(tree.leaves, 4)
            small = restrict(tree, sub)
            expect = {t for t in triples_of(tree) if t.taxa <= set(sub)}
            assert triples_of(small) == expect


class TestMakeBinary:
    def test_star(self):
        assert make_binary(T("(a,b,c);")).newick() == "((a,b),c);"

    def test_already_binary_unchanged(self):
        tree = T("((a,b),(c,d));")
        assert make_binary(tree) == tree

    def test_refinement_displays_original_triples(self):
        tree = T("((a,b,c),(d,e),f);")
        refined = make_binary(tree)
        assert refined.is_binary()
        assert triples_of(tree) <= triples_of(refined)


class TestClusterGraph:
    def test_fig1_ii_connected(self):
        triples = [trip(x) for x in ("a,b|c", "b,d|a", "b,c|e", "d,f|e", "b,e|d")]
        adj = cluster_graph(triples, "abcdef")
        assert component_count(adj) == 1

    def test_outgroup_outside_scope(self):
        assert cluster_graph([trip("a,b|c")], {"a", "b"}) == {"a": (), "b": ()}

    def test_edge_inside_scope(self):
        adj = cluster_graph([trip("a,b|c")], {"a", "b", "c"})
        assert adj["a"] == ("b",) and adj["b"] == ("a",) and adj["c"] == ()


class TestBuild:
    def test_single_triple(self):
        assert build_supertree([trip("a,b|c")]).tree.newick() == "((a,b),c);"

    def test_chain(self):
        result = build_supertree([trip("a,b|c"), trip("b,c|d")])
        assert result.tree.newick() == "(((a,b),c),d);"
        for t in (trip("a,b|c"), trip("b,c|d")):
            assert displays_triple(result.tree, t)

    def test_fig1_ii_incompatible(self):
        triples = [trip(x) for x in ("a,b|c", "b,d|a", "b,c|e", "d,f|e", "b,e|d")]
        result = build_supertree(triples)
        assert not result.compatible
        assert result.witness == ("a", "b", "c", "d", "e", "f")

    def test_empty_triples_star(self):
        result = build_supertree([], taxa={"a", "b", "c", "d"})
        assert result.tree.newick() == "(a,b,c,d);"

    @pytest.mark.parametrize("triple", [("a", "b", "b"), ("a", "a", "b"), ("a", "b", "a")])
    def test_triple_repeating_a_taxon_rejected(self, triple):
        # The plain constructor checks nothing: BUILD once answered
        # ab|b with the witness (a, b) and aa|b with the tree (a,b).
        bad = RootedTriple(*triple)
        match = "^rooted triple needs three distinct taxa"
        with pytest.raises(InputError, match=match):
            build_supertree([bad])
        with pytest.raises(InputError, match=match):
            build_supertree([trip("a,b|c"), bad], taxa="abc")

    def test_soundness_random(self):
        rng = random.Random(19)
        taxa = "abcdef"
        for _ in range(80):
            triples = {
                RootedTriple.of(*rng.sample(taxa, 3)) for _ in range(rng.randint(1, 6))
            }
            result = build_supertree(triples)
            if result.compatible:
                for t in triples:
                    assert displays_triple(result.tree, t)

    def test_completeness_against_enumeration_4taxa(self):
        # Every subset of the 12 possible triples on four taxa.
        taxa = "abcd"
        pool = [
            RootedTriple.of(*order)
            for combo in combinations(taxa, 3)
            for order in (
                (combo[0], combo[1], combo[2]),
                (combo[0], combo[2], combo[1]),
                (combo[1], combo[2], combo[0]),
            )
        ]
        hosts = enumerate_binary_trees(taxa)
        for mask in range(1 << len(pool)):
            triples = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            result = build_supertree(triples, taxa=set(taxa))
            displayable = any(
                all(displays_triple(h, t) for t in triples) for h in hosts
            )
            assert result.compatible == displayable

    def test_completeness_random_6taxa(self):
        rng = random.Random(21)
        hosts = enumerate_binary_trees("abcdef")
        for _ in range(40):
            triples = {
                RootedTriple.of(*rng.sample("abcdef", 3))
                for _ in range(rng.randint(1, 7))
            }
            result = build_supertree(triples, taxa=set("abcdef"))
            displayable = any(
                all(displays_triple(h, t) for t in triples) for h in hosts
            )
            assert result.compatible == displayable

    def test_binary_identifiability(self):
        rng = random.Random(25)
        for m in range(3, 8):
            trees = enumerate_binary_trees("abcdefg"[:m])
            sample = trees if m <= 6 else rng.sample(trees, 200)
            for tree in sample:
                rebuilt = build_supertree(triples_of(tree))
                assert rebuilt.tree == tree


# -- BUILD oracles -------------------------------------------------------------


class _Connected(Exception):
    def __init__(self, scope):
        self.scope = scope


def reference_build(triples, taxa) -> BuildResult:
    """Textbook recursive BUILD: networkx components of `cluster_graph`."""

    def rec(scope):
        if len(scope) == 1:
            return scope[0]
        graph = nx.Graph()
        for a, nbrs in cluster_graph(triples, scope).items():
            graph.add_node(a)
            graph.add_edges_from((a, b) for b in nbrs)
        comps = sorted(tuple(sorted(c)) for c in nx.connected_components(graph))
        if len(comps) == 1:
            raise _Connected(scope)
        return tuple(rec(c) for c in comps)

    try:
        shape = rec(tuple(sorted(set(taxa))))
    except _Connected as stop:
        return BuildResult(tree=None, witness=stop.scope)
    return BuildResult(tree=RootedPhyloTree(shape), witness=None)


def _random_triples(rng, labels, count):
    return [RootedTriple.of(*rng.sample(labels, 3)) for _ in range(count)]


class TestBuildOracles:
    def test_matches_networkx_reference(self):
        rng = random.Random(41)
        incompatible = 0
        for _ in range(2000):
            taxa = ALPHA[:rng.randint(3, 10)]
            triples = _random_triples(rng, taxa, rng.randint(0, 14))
            result = build_supertree(triples, taxa=taxa)
            assert result == reference_build(triples, taxa)
            incompatible += not result.compatible
        # Both outcomes are well represented.
        assert 400 < incompatible < 1600

    @pytest.mark.parametrize("lines, witness", [
        # Two conflicts side by side: the block with the smaller labels wins.
        (["a,b|c", "b,c|a", "x,y|z", "y,z|x"], ("a", "b", "c")),
        (["x,y|z", "y,z|x", "a,b|c", "b,c|a"], ("a", "b", "c")),
        # The first block's conflict sits one level deeper than the
        # second's; preorder still reports the first block.
        (["a,e|p", "a,b|c", "b,c|a", "c,d|a", "p,q|r", "q,r|p", "r,s|p", "p,s|e"],
         ("a", "b", "c", "d")),
    ])
    def test_two_blocks_witness_order(self, lines, witness):
        triples = [trip(x) for x in lines]
        result = build_supertree(triples)
        assert result.witness == witness
        assert result == reference_build(triples, {x for t in triples for x in t})

    def test_labels_are_checked(self):
        with pytest.raises(InputError):
            build_supertree([], taxa={"a", "b c"})
        with pytest.raises(InputError):
            build_supertree([RootedTriple("a", "b", "c;")])

    def test_compatible_iff_some_binary_tree_displays_all(self):
        rng = random.Random(43)
        for m in range(3, 7):
            taxa = ALPHA[:m]
            hosts = [triples_of(h) for h in enumerate_binary_trees(taxa)]
            for _ in range(150):
                triples = set(_random_triples(rng, taxa, rng.randint(1, 2 * m)))
                result = build_supertree(triples, taxa=taxa)
                assert result.compatible == any(triples <= h for h in hosts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_canonical_and_sound(self, data):
        m = data.draw(st.integers(3, 7), label="taxa")
        taxa = ALPHA[:m]
        hosts = enumerate_binary_trees(taxa)
        host = hosts[data.draw(st.integers(0, len(hosts) - 1), label="host")]
        shown = sorted(triples_of(host))
        picked = data.draw(st.lists(st.sampled_from(shown), max_size=2 * m))
        noise = data.draw(st.lists(
            st.permutations(taxa).map(lambda p: RootedTriple.of(*p[:3])), max_size=2,
        ))
        triples = picked + noise
        result = build_supertree(triples, taxa=taxa)
        if not noise:
            assert result.compatible
        if result.compatible:
            assert result.tree == RootedPhyloTree(result.tree.shape)
            assert all(displays_triple(result.tree, t) for t in triples)
        else:
            adj = cluster_graph(triples, result.witness)
            assert len(adj) >= 2 and component_count(adj) == 1


# The bitmask BUILD as it was before leaf interning, cached label checks,
# union-find components and the two-leaf rule, kept verbatim as an oracle.


def _reference_build_masks(pairs: list[tuple[int, int]], root: int):
    splits: list[tuple[int, list[int]]] = []
    stack = [(root, pairs)] if root & (root - 1) else []
    while stack:
        scope, outer = stack.pop()
        # A pair inside this scope is inside its parent's, so filtering
        # the parent's pairs loses none.
        inside = [p for p in outer if p[1] | scope == scope]
        adj: dict[int, int] = {}
        for cherry, _ in inside:
            low = cherry & -cherry
            high = cherry ^ low
            adj[low] = adj.get(low, 0) | high
            adj[high] = adj.get(high, 0) | low
        comps = []
        rest = scope
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = adj.get(bit, 0) & ~comp
                comp |= new
                frontier |= new
            comps.append(comp)
            rest ^= comp
        if len(comps) == 1:
            return splits, scope
        splits.append((scope, comps))
        # Reversed, so the lowest component is popped, and expanded, next.
        for comp in reversed(comps):
            if comp & (comp - 1):
                stack.append((comp, inside))
    return splits, None


def reference_mask_build(triples, taxa=None) -> BuildResult:
    tr = list(triples)
    if taxa is None:
        leaf_set: set[str] = set()
        for t in tr:
            leaf_set.update(t)
    else:
        leaf_set = set(taxa)
    leaves = tuple(sorted(leaf_set))
    bit_of = {lab: 1 << i for i, lab in enumerate(leaves)}
    try:
        pairs = [(ab := bit_of[a] | bit_of[b], ab | bit_of[c]) for a, b, c in tr]
    except KeyError:
        raise InputError("triples mention taxa outside the given leaf set") from None
    if not leaves:
        raise InputError("supertree needs at least one taxon")

    full = (1 << len(leaves)) - 1
    splits, witness = _reference_build_masks(pairs, full)
    if witness is not None:
        return BuildResult(
            tree=None,
            witness=tuple(lab for i, lab in enumerate(leaves) if witness >> i & 1),
        )
    for lab in leaves:
        check_label(lab)
    shapes: dict[int, object] = {}
    # Reversed preorder meets every split after the splits below it.
    for scope, comps in reversed(splits):
        shapes[scope] = tuple([
            shapes.pop(c) if c & (c - 1) else leaves[c.bit_length() - 1]
            for c in comps
        ])
    shape = shapes[full] if splits else leaves[0]
    tree = RootedPhyloTree._from_canonical(shape, leaves)
    return BuildResult(tree=tree, witness=None)


def _scan_shaped_input(rng):
    """Pooled spanning triples of 1-8 member trees over 4-15 taxa.

    Members have 3-5 leaves, like the assignments of a flexibility scan.
    Half the time the member trees are restrictions of one hidden tree
    (compatible), otherwise independent random trees.
    """
    taxa = ALPHA[:rng.randint(4, 15)]
    hidden = _random_tree(rng, rng.sample(taxa, len(taxa)))
    pooled = []
    for _ in range(rng.randint(1, 8)):
        keep = rng.sample(taxa, rng.randint(3, min(5, len(taxa))))
        tree = restrict(hidden, keep) if rng.random() < 0.5 else _random_tree(rng, keep)
        pooled += spanning_triples(tree)
    return pooled, taxa


class TestBuildAgainstMaskReference:
    def test_scan_shaped_inputs(self):
        rng = random.Random(808)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            triples, taxa = _scan_shaped_input(rng)
            given_taxa = taxa if rng.random() < 0.5 else None
            result = build_supertree(triples, taxa=given_taxa)
            expected = reference_mask_build(triples, taxa=given_taxa)
            assert result == expected
            if result.compatible:
                assert result.tree.leaves == expected.tree.leaves
            outcomes[result.compatible] += 1
        assert min(outcomes.values()) > 500

    def test_repeated_leaf_set(self):
        # One leaf set, many triple sets, as in a scan: the cached leaf map
        # and label check must not carry anything from one call to the next.
        rng = random.Random(809)
        taxa = ALPHA[:9]
        for _ in range(500):
            triples = _random_triples(rng, taxa, rng.randint(0, 9))
            assert build_supertree(triples, taxa=taxa) == reference_mask_build(
                triples, taxa=taxa)

    def test_two_leaf_scopes(self):
        # Disjoint cherries under an outgroup: every child of the root is a
        # two-leaf scope.
        triples = [trip("a,b|z"), trip("c,d|z"), trip("e,f|z")]
        result = build_supertree(triples, taxa="abcdefgz")
        assert result.tree.newick() == "((a,b),(c,d),(e,f),g,z);"
        assert result == reference_mask_build(triples, taxa="abcdefgz")
        assert build_supertree([], taxa="ab").tree.newick() == "(a,b);"

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_empty_pool_any_taxa_iterable(self, n):
        labels = ALPHA[:n]
        expected = reference_mask_build([], taxa=labels)
        given = {
            "sorted tuple": lambda: tuple(labels),
            "unsorted tuple with duplicates": lambda: tuple(labels[::-1] + labels[:2]),
            "list": lambda: list(labels),
            "set": lambda: set(labels),
            "str": lambda: labels,
            "generator": lambda: (lab for lab in labels),
        }
        for make in given.values():
            for _ in range(2):  # the second call meets the caches
                result = build_supertree([], taxa=make())
                assert result == expected
                assert result.tree.leaves == tuple(labels)


class TestBuildLabels:
    def test_bad_label_raises_on_every_compatible_call(self):
        triples = [RootedTriple("a", "b", "c;")]
        for _ in range(2):
            with pytest.raises(InputError, match="c;"):
                build_supertree(triples)
        for _ in range(2):
            with pytest.raises(InputError):
                build_supertree([trip("a,b|c")], taxa={"a", "b", "c", "d e"})

    def test_bad_label_with_incompatible_input_returns_witness(self):
        triples = [RootedTriple("a", "b", "c;"), RootedTriple("a", "c;", "b")]
        for _ in range(2):
            result = build_supertree(triples)
            assert result.witness == ("a", "b", "c;")
        assert result == reference_mask_build(triples)

    def test_good_leaf_set_does_not_vouch_for_another(self):
        assert build_supertree([trip("a,b|c")]).compatible
        with pytest.raises(InputError):
            build_supertree([trip("a,b|c")], taxa={"a", "b", "c", "x,y"})
        assert build_supertree([trip("a,b|c")]).compatible


class TestBuildEmptyPool:
    """No triples take a cached star tree; the checks stay as they were."""

    def test_bad_label_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InputError, match="b;"):
                build_supertree([], taxa={"a", "b;"})

    def test_empty_taxa(self):
        for taxa in ((), [], "", None):
            with pytest.raises(InputError, match="at least one taxon"):
                build_supertree([], taxa=taxa)

    def test_outside_taxon_after_cached_calls(self):
        taxa = tuple("abcd")
        for triples in ([], [trip("a,b|c")], [trip("a,b|z")], [], [trip("a,z|b")]):
            if "z" in {lab for t in triples for lab in t}:
                with pytest.raises(InputError, match="outside"):
                    build_supertree(triples, taxa=taxa)
            else:
                assert build_supertree(triples, taxa=taxa) == reference_mask_build(
                    triples, taxa=taxa)

    def test_more_leaf_sets_than_the_caches_hold(self):
        rng = random.Random(810)
        leaf_sets = [tuple(rng.sample(ALPHA, rng.randint(1, 12))) for _ in range(80)]
        for round_ in range(3):
            for i, taxa in enumerate(leaf_sets):
                count = 0 if (i + round_) % 2 or len(taxa) < 3 else rng.randint(1, 6)
                triples = _random_triples(rng, taxa, count)
                assert build_supertree(triples, taxa=taxa) == reference_mask_build(
                    triples, taxa=taxa)

    def test_no_mask_build_without_triples(self, monkeypatch):
        calls = []
        real = phylo._build_masks

        def counting(pairs, root):
            calls.append(len(pairs))
            return real(pairs, root)

        monkeypatch.setattr(phylo, "_build_masks", counting)
        for n in (1, 2, 3, 7, 20):
            for _ in range(2):
                assert build_supertree([], taxa=ALPHA[:n]).compatible
        assert calls == []
        assert build_supertree([trip("a,b|c")], taxa="abcd").compatible
        assert calls == [1]


class TestBuildLarge:
    """Whole-input BUILD at scale, each under a time bound.

    The bounds are about ten times the time on a 2-vCPU Xeon VM, so they
    catch a super-linear blow-up, not noise.
    """

    def test_deep_caterpillar_needs_no_recursion(self):
        # x0,x_i|x_{i+1} for i = 1..1498 force the 1,500-leaf caterpillar
        # ((((x0,x1),x2),...),x1499).
        names = [f"x{i:04d}" for i in range(1500)]
        triples = [RootedTriple.of(names[0], names[i], names[i + 1])
                   for i in range(1, 1499)]
        start = time.perf_counter()
        result = build_supertree(triples)
        assert time.perf_counter() - start < 15.0
        assert result.compatible
        assert result.tree.leaves == tuple(names)
        # Walk the shape iteratively: nested-tuple == would recurse.
        shape = result.tree.shape
        for name in reversed(names[2:]):
            assert isinstance(shape, tuple) and len(shape) == 2
            shape, last = shape
            assert last == name
        assert shape == (names[0], names[1])

    def test_balanced_tree_from_shuffled_spanning_triples(self):
        rng = random.Random(4000)
        tree = RootedPhyloTree(balanced_shape(rng, [f"b{i:04d}" for i in range(4000)]))
        triples = spanning_triples(tree)
        rng.shuffle(triples)
        start = time.perf_counter()
        result = build_supertree(triples)
        assert time.perf_counter() - start < 3.0
        assert result.tree == tree

    def test_disjoint_cherries_under_one_outgroup(self):
        # 1,333 two-leaf scopes below one root.
        triples = [RootedTriple.of(f"p{i:04d}", f"q{i:04d}", "out") for i in range(1333)]
        start = time.perf_counter()
        result = build_supertree(triples)
        assert time.perf_counter() - start < 3.0
        kids = result.tree.shape
        assert len(kids) == 1334 and kids[0] == "out"
        assert all(k == (f"p{i:04d}", f"q{i:04d}") for i, k in enumerate(kids[1:]))


# -- spanning triples and cluster display ------------------------------------------


def _contract(rng, shape, p):
    """The shape with each interior non-root edge contracted with probability p."""
    if isinstance(shape, str):
        return shape
    kids = []
    for child in shape:
        sub = _contract(rng, child, p)
        if isinstance(sub, tuple) and rng.random() < p:
            kids.extend(sub)
        else:
            kids.append(sub)
    return tuple(kids)


def _random_tree(rng, labels, p_contract=0.0):
    shape = (yule_shape if rng.random() < 0.7 else caterpillar_shape)(rng, labels)
    return RootedPhyloTree(_contract(rng, shape, p_contract))


def _swap_leaves(rng, tree):
    """The tree with two of its leaf labels exchanged."""
    if tree.leaf_count < 2:
        return tree
    x, y = rng.sample(tree.leaves, 2)
    swap = {x: y, y: x}
    return RootedPhyloTree(_relabel(tree.shape, swap))


def _relabel(shape, names):
    if isinstance(shape, str):
        return names.get(shape, shape)
    return tuple(_relabel(child, names) for child in shape)


def _tree_set(rng, n_taxa, count, kind):
    """`count` trees over the first n_taxa letters.

    kind "hidden": restrictions of one hidden tree (compatible); "swapped":
    the same with two leaves exchanged in one tree; "random": independent
    trees on overlapping leaf sets.  About half the sets are non-binary.
    """
    taxa = list(ALPHA[:n_taxa])
    p = rng.choice((0.0, 0.0, 0.3, 0.6))
    hidden = _random_tree(rng, rng.sample(taxa, n_taxa), p)
    trees = []
    for _ in range(count):
        keep = rng.sample(taxa, rng.randint(3, n_taxa))
        if kind == "random":
            trees.append(_random_tree(rng, keep, p))
        else:
            trees.append(restrict(hidden, keep))
    if kind == "swapped":
        i = rng.randrange(count)
        trees[i] = _swap_leaves(rng, trees[i])
    return trees


def _spanning_tree_count(tree) -> int:
    """Sum over non-root interior w of (out-degree w - 1)(out-degree parent - 1)."""
    return sum(
        (len(tree.children_ids(w)) - 1) * (len(tree.children_ids(tree.parent(w))) - 1)
        for w in tree.interior_ids() if w != 0
    )


class TestSpanningTriples:
    def test_binary_examples(self):
        assert spanning_triples(T("((a,b),c);")) == [trip("a,b|c")]
        assert set(spanning_triples(T("(((a,b),c),d);"))) == {
            trip("a,b|c"), trip("a,c|d"),
        }
        assert set(spanning_triples(T("((a,b),(c,d));"))) == {
            trip("a,b|c"), trip("c,d|a"),
        }

    def test_non_binary_example(self):
        # (a,b,c) under a root with two children: two cherries, outgroup d;
        # (d,e) gets outgroup a.
        assert set(spanning_triples(T("((a,b,c),(d,e));"))) == {
            trip("a,b|d"), trip("a,c|d"), trip("d,e|a"),
        }
        # A cherry under a three-way root has two outgroups.
        assert set(spanning_triples(T("((a,b),c,d);"))) == {
            trip("a,b|c"), trip("a,b|d"),
        }

    def test_trees_without_non_root_interior_vertices(self):
        assert spanning_triples(RootedPhyloTree("a")) == []
        assert spanning_triples(T("(a,b);")) == []
        assert spanning_triples(T("(a,b,c,d);")) == []

    def test_subset_of_triples_of_and_counts(self):
        rng = random.Random(61)
        for _ in range(400):
            labels = shuffled_labels(rng, rng.randint(1, 24))
            tree = _random_tree(rng, labels, rng.choice((0.0, 0.4)))
            got = spanning_triples(tree)
            assert len(set(got)) == len(got)
            assert set(got) <= triples_of(tree)
            assert len(got) == _spanning_tree_count(tree)
            if tree.is_binary():
                assert len(got) == max(tree.leaf_count - 2, 0)

    def test_binary_tree_is_the_only_tree_displaying_them(self):
        rng = random.Random(63)
        for m in range(3, 7):
            trees = enumerate_binary_trees(ALPHA[:m])
            for tree in trees if m < 6 else rng.sample(trees, 40):
                triples = spanning_triples(tree)
                assert build_supertree(triples).tree == tree
                assert is_unique_display(triples, taxa=tree.leaves)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_subset_and_length(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        n = data.draw(st.integers(1, 30), label="leaves")
        p = data.draw(st.sampled_from((0.0, 0.3, 0.7)), label="contract")
        tree = _random_tree(rng, shuffled_labels(rng, n), p)
        got = spanning_triples(tree)
        assert set(got) <= triples_of(tree)
        assert len(got) == _spanning_tree_count(tree)
        if tree.is_binary():
            assert len(got) == max(n - 2, 0)


class TestSpanningOracles:
    """BUILD on spanning triples equals BUILD on all triples, witness included."""

    @staticmethod
    def both(trees, loose, taxa):
        spanning = [t for tree in trees for t in spanning_triples(tree)]
        every = [t for tree in trees for t in triples_of(tree)]
        return (build_supertree(spanning + loose, taxa=taxa),
                build_supertree(every + loose, taxa=taxa))

    @pytest.mark.parametrize("kind", ["hidden", "swapped", "random"])
    def test_matches_all_triples(self, kind):
        rng = random.Random(f"spanning-{kind}")
        incompatible = non_binary = 0
        for _ in range(1000):
            n_taxa = rng.randint(4, 12)
            trees = _tree_set(rng, n_taxa, rng.randint(2, 4), kind)
            loose = (_random_triples(rng, ALPHA[:n_taxa], rng.randint(0, 2))
                     if rng.random() < 0.2 else [])
            taxa = {x for tree in trees for x in tree.leaves} | {
                x for t in loose for x in t}
            got, want = self.both(trees, loose, taxa)
            assert got == want
            incompatible += not want.compatible
            non_binary += not all(tree.is_binary() for tree in trees)
        assert 300 < non_binary < 700
        if kind == "hidden":
            # Only the loose triples can conflict with a hidden tree.
            assert 20 < incompatible < 150
        else:
            assert 400 < incompatible < 900

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_matches_all_triples(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        kind = data.draw(st.sampled_from(("hidden", "swapped", "random")), label="kind")
        n_taxa = data.draw(st.integers(3, 11), label="taxa")
        count = data.draw(st.integers(1, 4), label="trees")
        trees = _tree_set(rng, n_taxa, count, kind)
        taxa = {x for tree in trees for x in tree.leaves}
        got, want = self.both(trees, [], taxa)
        assert got == want


class TestDisplaysClusters:
    @staticmethod
    def oracle(host, guest):
        return all(displays_triple(host, t) for t in triples_of(guest))

    def test_examples(self):
        host = T("((a,(b,c)),(d,(e,f)));")
        assert displays_clusters(host, T("((b,c),d);"))
        assert displays_clusters(host, T("((b,c),d,e);"))
        assert not displays_clusters(host, T("((a,b),c);"))
        assert displays_clusters(host, T("(a,b,c);"))
        assert displays_clusters(T("(a,b,c,d);"), T("(a,b,d);"))
        assert not displays_clusters(T("(a,b,c,d);"), T("((a,b),d);"))
        assert displays_clusters(host, RootedPhyloTree("e"))
        with pytest.raises(InputError):
            displays_clusters(host, T("((a,z),b);"))

    def test_matches_triple_oracle(self):
        rng = random.Random(67)
        shown = 0
        for _ in range(1500):
            n = rng.randint(3, 12)
            labels = shuffled_labels(rng, n)
            host = _random_tree(rng, labels, rng.choice((0.0, 0.3, 0.6)))
            keep = rng.sample(labels, rng.randint(1, n))
            guest = restrict(host, keep)
            pick = rng.random()
            if pick < 0.3:
                guest = _swap_leaves(rng, guest)
            elif pick < 0.5:
                guest = _random_tree(rng, keep, rng.choice((0.0, 0.5)))
            elif pick < 0.7:
                guest = RootedPhyloTree(_contract(rng, guest.shape, 0.5))
            got = displays_clusters(host, guest)
            assert got == self.oracle(host, guest)
            shown += got
        assert 500 < shown < 1300

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_matches_triple_oracle(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        n = data.draw(st.integers(3, 10), label="leaves")
        labels = shuffled_labels(rng, n)
        host = _random_tree(rng, labels, data.draw(st.sampled_from((0.0, 0.5))))
        keep = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        guest = _random_tree(rng, keep, data.draw(st.sampled_from((0.0, 0.5))))
        if data.draw(st.booleans(), label="restriction"):
            guest = restrict(host, keep)
        assert displays_clusters(host, guest) == self.oracle(host, guest)


class TestDisplaysTreeLarge:
    def test_caterpillar_displays_its_restriction(self):
        # A 1,500-leaf caterpillar is 1,499 levels deep, too deep for
        # Newick parsing, so both trees are built from nested shapes.  A
        # caterpillar restricted to some leaves is the caterpillar on
        # them in the same order.
        rng = random.Random(1500)
        labels = shuffled_labels(rng, 1500)
        host = RootedPhyloTree(caterpillar_shape(rng, labels))
        keep = sorted(rng.sample(range(1500), 1000))
        order = [labels[i] for i in keep]
        guest = RootedPhyloTree(caterpillar_shape(rng, order))
        assert guest == restrict(host, order)
        order[10], order[900] = order[900], order[10]
        swapped = RootedPhyloTree(caterpillar_shape(rng, order))
        start = time.perf_counter()
        assert displays_clusters(host, guest)
        assert not displays_clusters(host, swapped)
        assert time.perf_counter() - start < 5.0


class TestTreeLarge:
    # A 5,000-leaf caterpillar is 4,999 vertices deep.  Trees are compared
    # through their Newick text: nested-tuple == would recurse.

    @pytest.fixture(scope="class")
    def caterpillar(self):
        rng = random.Random(5000)
        return RootedPhyloTree(caterpillar_shape(rng, shuffled_labels(rng, 5000)))

    def test_canonical_form_and_newick(self):
        # The same caterpillar with every child order flipped.
        names = [f"n{i:04d}" for i in range(5000)]
        flipped = names[0]
        for name in names[1:]:
            flipped = (name, flipped)
        start = time.perf_counter()
        tree = RootedPhyloTree(flipped)
        text = tree.newick()
        assert time.perf_counter() - start < 5.0
        assert text == "(" * 4999 + names[0] + "".join(f",{x})" for x in names[1:]) + ";"
        assert tree.leaves == tuple(names) and tree.is_binary()

    def test_index_of_a_deep_tree(self, caterpillar):
        start = time.perf_counter()
        assert vertex_count(caterpillar) == 9999
        deepest = max(caterpillar.interior_ids(), key=caterpillar.depth)
        assert time.perf_counter() - start < 5.0
        assert caterpillar.depth(deepest) == 4998
        assert len(caterpillar.cluster(deepest)) == 2

    def test_displays_defining_triples(self, caterpillar):
        # The lca table answers each triple with two lookups; a query that
        # walks the 4,999-level depth per triple does not meet the bound.
        triples = defining_triples(caterpillar)
        assert len(triples) == 4998
        start = time.perf_counter()
        assert all(displays_triple(caterpillar, t) for t in triples)
        assert time.perf_counter() - start < 0.5

    def test_make_binary_and_restrict(self, caterpillar):
        start = time.perf_counter()
        assert make_binary(caterpillar).newick() == caterpillar.newick()
        keep = caterpillar.leaves[::2]
        sub = restrict(caterpillar, keep)
        assert time.perf_counter() - start < 5.0
        assert sub.leaves == keep and sub.is_binary()
        # A restricted caterpillar is a caterpillar: every interior vertex
        # has a leaf child.
        assert vertex_count(sub) == 2 * len(keep) - 1
        assert all(
            any(not sub.children_ids(c) for c in sub.children_ids(v))
            for v in sub.interior_ids()
        )


class TestTreeEqualityLarge:
    # Equality and dict lookup on caterpillars thousands of levels deep;
    # comparing the nested shapes with tuple == raises RecursionError.

    @staticmethod
    def pair(n: int, swap: bool):
        """The same caterpillar built from two differently flipped shapes;
        with `swap`, the second one has the third and fourth leaf exchanged,
        which changes the tree about n levels down."""
        rng = random.Random(n)
        labels = shuffled_labels(rng, n)
        other = list(labels)
        if swap:
            other[2], other[3] = other[3], other[2]
        return (RootedPhyloTree(caterpillar_shape(rng, labels)),
                RootedPhyloTree(caterpillar_shape(rng, other)))

    @pytest.mark.parametrize("n", [1500, 5000])
    def test_equal_trees(self, n):
        a, b = self.pair(n, swap=False)
        assert a.shape is not b.shape
        start = time.perf_counter()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n", [1500, 5000])
    def test_one_leaf_swap(self, n):
        a, b = self.pair(n, swap=True)
        assert a.leaves == b.leaves
        start = time.perf_counter()
        assert a != b and not a == b
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n", [1500, 5000])
    def test_dict_lookup(self, n):
        a, b = self.pair(n, swap=False)
        _, swapped = self.pair(n, swap=True)
        start = time.perf_counter()
        table = {a: "a"}
        assert table[b] == "a"
        assert swapped not in table
        assert time.perf_counter() - start < 5.0


class TestLcaSupport:
    def test_lca_examples(self):
        tree = T("((a,b),c);")
        cherry = tree.lca({"a", "b"})
        root = tree.lca({"a", "c"})
        assert tree.cluster(cherry) == {"a", "b"}
        assert tree.cluster(root) == {"a", "b", "c"}
        assert root == 0

    def test_lemma_two_components(self):
        # Triples supporting every non-root interior vertex of a binary
        # tree, jointly covering the leaves, split the cluster graph in
        # exactly two components.
        rng = random.Random(33)
        for m in range(3, 8):
            trees = enumerate_binary_trees("abcdefg"[:m])
            for tree in rng.sample(trees, min(12, len(trees))):
                triples = _supporting_triples(tree, rng)
                covered = set()
                for t in triples:
                    covered |= t.taxa
                assert covered == set(tree.leaves)
                adj = cluster_graph(triples, tree.leaves)
                assert component_count(adj) == 2


def _supporting_triples(tree, rng):
    triples = []
    leaves = set(tree.leaves)
    for v in tree.interior_ids():
        if v == 0:
            continue
        kids = tree.children_ids(v)
        a = rng.choice(sorted(tree.cluster(kids[0])))
        b = rng.choice(sorted(tree.cluster(kids[1])))
        c = rng.choice(sorted(leaves - tree.cluster(v)))
        triples.append(RootedTriple.of(a, b, c))
    missing = leaves - {x for t in triples for x in t.taxa}
    for z in sorted(missing):
        v = next(
            v for v in tree.interior_ids()
            if v != 0 and z not in tree.cluster(v)
        )
        kids = tree.children_ids(v)
        a = min(tree.cluster(kids[0]))
        b = min(tree.cluster(kids[1]))
        triples.append(RootedTriple.of(a, b, z))
    return triples


class TestUnrooted:
    def quartet(self) -> UnrootedPhyloTree:
        edges = [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)]
        return UnrootedPhyloTree(edges, {0: "a", 1: "b", 2: "c", 3: "d"})

    def test_median_quartet(self):
        tree = self.quartet()
        assert tree.median({"a", "b", "c"}) == 4
        assert tree.median({"a", "c", "d"}) == 5

    def test_median_needs_three(self):
        with pytest.raises(InputError):
            self.quartet().median({"a", "b"})

    def test_degree_validation(self):
        with pytest.raises(InputError):
            UnrootedPhyloTree([(0, 1), (1, 2)], {0: "a", 2: "b"})

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            UnrootedPhyloTree([(0, 1), (2, 3)], {0: "a", 1: "b", 2: "c", 3: "d"})

    def test_newick(self):
        assert self.quartet().newick() == "(a,b,(c,d));"

    def test_cherries(self):
        assert self.quartet().cherry_count() == 2
        assert self.quartet().is_binary()


# -- the lca index against the definitions it replaced ---------------------------


def reference_path(tree: UnrootedPhyloTree, u: int, v: int) -> list[int]:
    """The u-v path of an unrooted tree, by BFS from u."""
    prev = {u: None}
    queue = [u]
    for w in queue:
        for x in unrooted_neighbors(tree, w):
            if x not in prev:
                prev[x] = w
                queue.append(x)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def reference_median(tree: UnrootedPhyloTree, taxa) -> int:
    """The one vertex on all three pairwise leaf paths."""
    a, b, c = (tree.leaf_vertex(x) for x in taxa)
    (shared,) = (set(reference_path(tree, a, b)) & set(reference_path(tree, a, c))
                 & set(reference_path(tree, b, c)))
    return shared


def reference_lca(tree: RootedPhyloTree, taxa) -> int:
    """Descend from the root while some child's cluster holds every taxon."""
    want = set(taxa)
    v = 0
    while True:
        below = [c for c in tree.children_ids(v) if want <= tree.cluster(c)]
        if not below:
            return v
        v = below[0]


def reference_resolve(tree: RootedPhyloTree, a, b, c):
    """The cluster descent the lca index replaced: below the lca of the
    three taxa, the child whose cluster holds two of them, else None."""
    want = {a, b, c}
    for child in tree.children_ids(reference_lca(tree, want)):
        pair = want & tree.cluster(child)
        if len(pair) == 2:
            return frozenset(pair)
    return None


def reference_triples_of(tree: RootedPhyloTree) -> set:
    out = set()
    for abc in combinations(tree.leaves, 3):
        pair = reference_resolve(tree, *abc)
        if pair is not None:
            out.add(RootedTriple.of(*sorted(pair), *(set(abc) - pair)))
    return out


def reference_depth(tree: RootedPhyloTree, v: int) -> int:
    d = 0
    while tree.parent(v) != -1:
        v = tree.parent(v)
        d += 1
    return d


def reference_unrooted_newick(tree: UnrootedPhyloTree) -> str:
    """Hang the tree from the smallest leaf's neighbour, breadth first."""
    labels = {tree.leaf_vertex(lab): lab for lab in tree.leaves}
    if len(tree.vertices) == 2:
        return "({},{});".format(*tree.leaves)
    root = unrooted_neighbors(tree, tree.leaf_vertex(tree.leaves[0]))[0]
    order, came = [root], {root: None}
    for v in order:
        for w in unrooted_neighbors(tree, v):
            if w not in came:
                came[w] = v
                order.append(w)
    shapes = {}
    for v in reversed(order):
        shapes[v] = labels.get(v) or tuple(
            shapes.pop(w) for w in unrooted_neighbors(tree, v) if w != came[v])
    return RootedPhyloTree(shapes[root]).newick()


def random_unrooted(rng: random.Random, labels) -> UnrootedPhyloTree:
    """Leaves added one at a time, each on a random edge or, at times, on a
    random interior vertex, so interior degrees of 4 and more occur."""
    edges = [(0, 1), (0, 2), (0, 3)]
    leaf_of = {1: labels[0], 2: labels[1], 3: labels[2]}
    interior = [0]
    for lab in labels[3:]:
        leaf = len(leaf_of) + len(interior)
        if rng.random() < 0.2:
            edges.append((rng.choice(interior), leaf))
        else:
            u, v = edges.pop(rng.randrange(len(edges)))
            mid = leaf + 1
            interior.append(mid)
            edges += [(u, mid), (mid, v), (mid, leaf)]
        leaf_of[leaf] = lab
    # Shuffle vertex ids, so the least vertex is no particular one.
    ids = list(range(len(leaf_of) + len(interior)))
    rng.shuffle(ids)
    return UnrootedPhyloTree([(ids[u], ids[v]) for u, v in edges],
                             {ids[v]: lab for v, lab in leaf_of.items()})


class TestLcaIndexAgainstReference:
    def test_median_random_trees_and_caterpillars(self):
        rng = random.Random(61)
        for trial in range(60):
            labels = shuffled_labels(rng, rng.randint(3, 30))
            if trial % 3 == 0 and len(labels) >= 4:
                tree = unrooted_caterpillar(labels)
            else:
                tree = random_unrooted(rng, labels)
            assert tree.newick() == reference_unrooted_newick(tree)
            triples = list(combinations(tree.leaves, 3))
            for taxa in rng.sample(triples, min(60, len(triples))):
                assert tree.median(taxa) == reference_median(tree, taxa)

    def test_lca_and_depth_random_trees_and_caterpillars(self):
        rng = random.Random(67)
        for trial in range(60):
            labels = shuffled_labels(rng, rng.randint(1, 30))
            if trial % 3 == 0:
                tree = RootedPhyloTree(caterpillar_shape(rng, labels))
            else:
                tree = _random_tree(rng, labels, rng.choice((0.0, 0.4)))
            for v in range(vertex_count(tree)):
                assert tree.depth(v) == reference_depth(tree, v)
            for _ in range(40):
                taxa = rng.sample(tree.leaves, rng.randint(1, min(5, tree.leaf_count)))
                assert tree.lca(taxa) == reference_lca(tree, taxa)
                assert tree.lca(iter(taxa)) == tree.lca(taxa)

    def test_three_leaf_queries_random_trees_and_caterpillars(self):
        rng = random.Random(71)
        for trial in range(60):
            labels = shuffled_labels(rng, rng.randint(3, 18))
            if trial % 3 == 0:
                tree = RootedPhyloTree(caterpillar_shape(rng, labels))
            else:  # binary, then non-binary
                tree = _random_tree(rng, labels, 0.4 * (trial % 3 - 1))
            assert triples_of(tree) == reference_triples_of(tree)
            for _ in range(40):
                a, b, c = rng.sample(tree.leaves, 3)
                pair = reference_resolve(tree, a, b, c)
                assert tree.resolve(a, b, c) == pair
                for order in ((a, b, c), (a, c, b), (b, c, a)):
                    shown = displays_triple(tree, RootedTriple.of(*order))
                    assert shown == (pair == {order[0], order[1]})

    def test_repeated_taxa_are_unresolved(self):
        for tree in (T("((a,b),c);"), T("(((a,b),c),(d,e));"), T("(a,b,c);")):
            assert tree.resolve("a", "a", "b") is None
            assert tree.resolve("b", "a", "b") is None
            assert tree.resolve("a", "a", "a") is None
            for t in (RootedTriple("a", "a", "b"), RootedTriple("a", "b", "a"),
                      RootedTriple("b", "a", "a"), RootedTriple("a", "a", "a")):
                assert not displays_triple(tree, t)

    def test_three_leaf_errors_unchanged(self):
        tree = T("((a,b),c);")
        with pytest.raises(InputError, match="^taxon 'z' not in tree$"):
            tree.resolve("a", "z", "y")
        with pytest.raises(InputError, match=r"^taxa not in tree: \['y', 'z'\]$"):
            displays_triple(tree, RootedTriple("z", "a", "y"))

    def test_lca_errors_unchanged(self):
        tree = T("((a,b),c);")
        with pytest.raises(InputError, match="not in tree"):
            tree.lca({"a", "z"})
        with pytest.raises(InputError, match="at least one taxon"):
            tree.lca(())
