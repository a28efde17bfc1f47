import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setflex import (
    BudgetExceededError,
    CapExceededError,
    FlexReport,
    InputError,
    RootedPhyloTree,
    RootedTriple,
    SetSystem,
    build_supertree,
    count_displaying,
    defining_triples,
    disjoint_count_formula,
    displays_triple,
    enumerate_binary_trees,
    is_flexible_bruteforce,
    is_thin,
    parse_newick,
    parse_triple,
    sigma_star,
    triples_of,
)
from setflex import flex, phylo
from setflex.flex import double_factorial, tree_count
from conftest import (
    ALPHA,
    FIG1,
    FIG1P,
    FIG3,
    balanced_shape,
    caterpillar_shape,
    count_displaying_hosts,
    is_unique_display,
    random_system,
    shuffled_labels,
    tsys,
    yule_shape,
)

SHAPES = {"yule": yule_shape, "caterpillar": caterpillar_shape, "balanced": balanced_shape}


class TestEnumeration:
    def test_counts(self):
        for m, expected in [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (6, 945)]:
            assert len(enumerate_binary_trees("abcdef"[:m])) == expected
            assert tree_count(m) == expected

    def test_pairwise_distinct(self):
        for m in range(3, 8):
            trees = enumerate_binary_trees("abcdefg"[:m])
            assert len(set(trees)) == len(trees)

    def test_all_binary_with_right_leaves(self):
        for tree in enumerate_binary_trees("abcd"):
            assert tree.is_binary()
            assert tree.leaves == ("a", "b", "c", "d")

    def test_three_leaves_are_the_triples(self):
        got = {tree.newick() for tree in enumerate_binary_trees("abc")}
        assert got == {"((a,b),c);", "((a,c),b);", "(a,(b,c));"}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_binary_trees("abcdefghi", cap=8)

    def test_shapes_are_canonical(self):
        # The enumeration wraps its shapes without canonicalizing them.
        for m in range(1, 8):
            for tree in enumerate_binary_trees("abcdefg"[:m]):
                assert RootedPhyloTree(tree.shape).shape == tree.shape
                assert tree.leaves == tuple("abcdefg"[:m])

    def test_deterministic_order(self):
        first = [t.newick() for t in enumerate_binary_trees("abcde")]
        second = [t.newick() for t in enumerate_binary_trees("abcde")]
        assert first == second

    def test_double_factorial(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 9)] == [
            1, 1, 1, 2, 3, 15, 945,
        ]


class TestFlexibleBruteforce:
    def test_fig1_flexible_81(self):
        report = is_flexible_bruteforce(tsys(*FIG1))
        assert report.verdict
        assert report.assignments_checked == 81
        assert report.certificate is None

    def test_fig1_prime_not_flexible(self):
        report = is_flexible_bruteforce(tsys(*FIG1P))
        assert not report.verdict
        pooled = set()
        for tree in report.certificate:
            pooled |= triples_of(tree)
        assert not build_supertree(pooled).compatible

    def test_single_member(self):
        report = is_flexible_bruteforce(tsys("abcd"))
        assert report.verdict
        assert report.assignments_checked == 15

    def test_budget(self):
        s = tsys("abc", "abd", "abe", "abf", "acd", "ace", "acf", "ade", "adf", "aef",
                 "bcd", "bce", "bcf")
        with pytest.raises(BudgetExceededError):
            is_flexible_bruteforce(s, budget=1000)

    def test_budget_is_checked_before_trees_are_built(self, monkeypatch):
        # One 10-leaf member has 34,459,425 trees; none may be built.
        def refuse(labels):
            raise AssertionError(f"enumerated {len(labels)} leaves")

        monkeypatch.setattr(flex, "_enumerate_trees", refuse)
        with pytest.raises(BudgetExceededError, match="^34459425 assignments exceed"):
            is_flexible_bruteforce(tsys("abcdefghij"), cap=10)

    def test_pair_members_rejected(self):
        with pytest.raises(InputError):
            is_flexible_bruteforce(SetSystem([["a", "b"]]))

    def test_counterexample_is_canonically_first(self):
        report = is_flexible_bruteforce(tsys(*FIG1P))
        s = tsys(*FIG1P)
        tree_lists = [
            enumerate_binary_trees(s.member_labels(i)) for i in range(s.member_count)
        ]
        counts = [len(lst) for lst in tree_lists]
        seen = 0
        for digits in product(*(range(c) for c in counts)):
            seen += 1
            pooled = set()
            for i, d in enumerate(digits):
                pooled |= triples_of(tree_lists[i][d])
            if not build_supertree(pooled, taxa=s.leaf_labels()).compatible:
                assert seen == report.assignments_checked
                assert tuple(tree_lists[i][d] for i, d in enumerate(digits)) == (
                    report.certificate
                )
                break

    def test_matches_thin_on_small_triple_systems(self):
        rng = random.Random(47)
        for _ in range(40):
            members = {
                tuple(sorted(rng.sample("abcde", 3)))
                for _ in range(rng.randint(1, 4))
            }
            s = SetSystem([list(m) for m in members])
            assert is_flexible_bruteforce(s).verdict == is_thin(s).verdict

    def test_flexible_systems_respect_size_bound(self):
        # A flexible triple system never has more members than |L| - 2.
        rng = random.Random(97)
        found = 0
        for _ in range(120):
            members = {
                tuple(sorted(rng.sample("abcdef", 3)))
                for _ in range(rng.randint(1, 4))
            }
            s = SetSystem([list(m) for m in members])
            if is_flexible_bruteforce(s).verdict:
                found += 1
                assert s.member_count <= len(s.leaf_labels()) - 2
        assert found > 20

    def test_heredity(self):
        from itertools import combinations

        rng = random.Random(53)
        for _ in range(10):
            members = {
                tuple(sorted(rng.sample("abcdef", 3))) for _ in range(rng.randint(2, 4))
            }
            s = SetSystem([list(m) for m in members])
            if not is_flexible_bruteforce(s).verdict:
                continue
            sets = s.member_label_sets()
            for size in range(1, len(sets)):
                for combo in combinations(range(len(sets)), size):
                    sub = SetSystem([sorted(sets[i]) for i in combo])
                    assert is_flexible_bruteforce(sub).verdict


def full_pool_scan(system: SetSystem):
    """The reference scan: every assignment pools the triples of every
    member, in the same mixed-radix order (last member fastest).
    Returns (verdict, counterexample, assignments_checked)."""
    tree_lists = [
        enumerate_binary_trees(system.member_labels(i))
        for i in range(system.member_count)
    ]
    taxa = system.leaf_labels()
    checked = 0
    for assignment in product(*tree_lists):
        checked += 1
        pooled = [t for tree in assignment for t in triples_of(tree)]
        if not build_supertree(pooled, taxa=taxa).compatible:
            return False, assignment, checked
    return True, None, checked


class TestScanCore:
    """Peeling members that meet the rest in <= 2 taxa changes nothing
    the scan reports."""

    @staticmethod
    def check(system: SetSystem) -> FlexReport:
        report = is_flexible_bruteforce(system)
        verdict, counterexample, checked = full_pool_scan(system)
        assert report.verdict == verdict
        assert report.certificate == counterexample
        assert report.assignments_checked == checked
        return report

    @pytest.mark.parametrize("words, core", [
        (FIG1, 0),
        (FIG1P, 4),
        (FIG3, 4),
        # Three triples on four taxa, then a stride-2 chain hanging off them.
        (("abc", "abd", "acd", "dfg", "ghi", "ijk"), 3),
        (("abcd",), 0),
    ])
    def test_core_members(self, words, core):
        report = is_flexible_bruteforce(tsys(*words))
        assert report.stats["core_members"] == core

    def test_seeded_random_systems_match_the_full_pool(self):
        rng = random.Random(16)
        cores = set()
        verdicts = set()
        for _ in range(400):
            s = random_system(rng, rng.randint(4, 7), rng.randint(2, 5), (3, 4))
            report = self.check(s)
            cores.add(report.stats["core_members"])
            verdicts.add(report.verdict)
        assert verdicts == {True, False}
        assert {0, 3, 4} <= cores

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_matches_the_full_pool(self, data):
        n = data.draw(st.integers(4, 7), label="taxa")
        count = data.draw(st.integers(1, 4), label="members")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        self.check(random_system(random.Random(seed), n, count, (3, 4)))

    def test_core_taxa_give_the_report_of_every_taxon(self, monkeypatch):
        # BUILD gets the core's taxa only; handing it every taxon of the
        # system instead changes no verdict, counterexample or counter.
        real = phylo.build_supertree
        rng = random.Random(34)
        fewer = 0
        for _ in range(300):
            s = random_system(rng, rng.randint(4, 7), rng.randint(2, 5), (3, 4))
            given = set()
            monkeypatch.setattr(
                phylo, "build_supertree",
                lambda triples, taxa: given.add(taxa) or real(triples, taxa=taxa))
            report = is_flexible_bruteforce(s)
            monkeypatch.setattr(
                phylo, "build_supertree",
                lambda triples, taxa, every=s.leaf_labels(): real(triples, taxa=every))
            assert is_flexible_bruteforce(s) == report
            fewer += given != {s.leaf_labels()}
        assert fewer > 30

    def test_slim_chain_builds_on_no_triples(self, monkeypatch):
        sizes = []
        real = phylo.build_supertree

        def counting(triples, taxa=None):
            triples = list(triples)
            sizes.append(len(triples))
            return real(triples, taxa=taxa)

        monkeypatch.setattr(phylo, "build_supertree", counting)
        # Six triples on consecutive taxa: each shares the two latest taxa.
        report = is_flexible_bruteforce(tsys(*(ALPHA[i:i + 3] for i in range(6))))
        assert report.verdict and report.stats["core_members"] == 0
        assert report.assignments_checked == 729
        assert sizes == [0] * 729


class TestCountDisplaying:
    def test_one_triple(self):
        t = parse_triple("a,b|c").as_tree()
        assert count_displaying([t], "abc") == 1

    def test_two_disjoint_triples(self):
        trees = [parse_triple("a,b|c").as_tree(), parse_triple("d,e|f").as_tree()]
        assert count_displaying(trees, "abcdef") == 105

    def test_empty_guest_set(self):
        assert count_displaying([], "abcd") == 15

    def test_leaf_coverage_checked(self):
        with pytest.raises(InputError):
            count_displaying([parse_triple("a,b|z").as_tree()], "abc")

    def test_two_disjoint_triples_on_eight_taxa(self):
        # Each triple keeps a third of the trees: 13!!/9.  Enumerating
        # the 135,135 trees took about 11 s.
        trees = [parse_triple("a,b|c").as_tree(), parse_triple("d,e|f").as_tree()]
        start = time.perf_counter()
        assert count_displaying(trees, "abcdefgh") == 15015 == tree_count(8) // 9
        assert time.perf_counter() - start < 1.0

    def test_errors_of_the_enumeration(self):
        with pytest.raises(CapExceededError, match="^9 leaves exceed the enumeration cap 8$"):
            count_displaying([], "abcdefghi")
        with pytest.raises(InputError, match="^cannot enumerate trees on an empty leaf set$"):
            count_displaying([], "")
        with pytest.raises(InputError, match="expects binary guest trees"):
            count_displaying([parse_newick("(a,b,c);")], "abc")
        with pytest.raises(InputError, match="^taxon label .b#c. contains"):
            count_displaying([], ["a", "b#c"])

    def test_split_terms_are_bounded(self):
        # 13 taxa without triples take about 8e5 split terms; 14 pass the
        # budget (about 2.4e6), which stops the count before listing them.
        assert count_displaying([], [f"t{i:02d}" for i in range(13)], cap=13) == tree_count(13)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="^counting trees on 14 taxa needs "
                                                      "more than 1000000 split terms$"):
            count_displaying([], [f"t{i:02d}" for i in range(14)], cap=14)
        assert time.perf_counter() - start < 10.0


def random_guests(rng: random.Random, taxa: str) -> list[RootedPhyloTree]:
    """Up to four random triples and binary trees on random subsets of taxa."""
    guests = []
    for _ in range(rng.randint(0, 4)):
        if len(taxa) >= 3 and rng.random() < 0.5:
            guests.append(RootedTriple.of(*rng.sample(taxa, 3)).as_tree())
        else:
            subset = rng.sample(taxa, rng.randint(1, len(taxa)))
            guests.append(RootedPhyloTree(yule_shape(rng, subset)))
    return guests


class TestCountOracle:
    """The split recursion against enumerating all (2n-3)!! binary trees."""

    @staticmethod
    def check(taxa: str, guests) -> int:
        hosts = enumerate_binary_trees(taxa)
        triples = [t for g in guests for t in triples_of(g)]
        expected = count_displaying_hosts(hosts, triples)
        assert count_displaying(guests, taxa) == expected
        assert is_unique_display(triples, taxa=taxa) == (expected == 1)
        return expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_matches_enumeration(self, data):
        n = data.draw(st.integers(1, 7), label="taxa")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = random.Random(seed)
        self.check(ALPHA[:n], random_guests(rng, ALPHA[:n]))

    def test_cases_cover_zero_one_and_many(self):
        rng = random.Random(13)
        counts = [self.check(ALPHA[:n], random_guests(rng, ALPHA[:n]))
                  for n in (4, 5, 6) for _ in range(40)]
        assert 0 in counts and 1 in counts and max(counts) > 1


class TestNegativeLimits:
    """A negative cap or budget is a usage error (exit 2), not an overflow."""

    def test_budget(self):
        with pytest.raises(InputError, match="budget must be non-negative"):
            is_flexible_bruteforce(tsys(*FIG1), budget=-1)

    def test_enum_cap(self):
        with pytest.raises(InputError, match="^cap must be non-negative"):
            is_flexible_bruteforce(tsys(*FIG1), cap=-1)

    def test_enumerate_binary_trees(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            enumerate_binary_trees("abc", cap=-1)

    def test_count_displaying(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            count_displaying([parse_triple("a,b|c").as_tree()], "abc", cap=-1)

    def test_zero_is_a_limit_not_an_error(self):
        with pytest.raises(BudgetExceededError):
            is_flexible_bruteforce(tsys(*FIG1), budget=0)
        with pytest.raises(CapExceededError):
            enumerate_binary_trees("abc", cap=0)


class TestFormula:
    def test_values(self):
        assert disjoint_count_formula(3) == 1
        assert disjoint_count_formula(6) == 105
        assert disjoint_count_formula(9) == 75075

    def test_rejects_bad_n(self):
        for n in (0, 2, 4, 7):
            with pytest.raises(InputError):
                disjoint_count_formula(n)

    def test_matches_enumeration(self):
        trees = [parse_triple("a,b|c").as_tree(), parse_triple("d,e|f").as_tree()]
        assert count_displaying(trees, "abcdef") == disjoint_count_formula(6)


class TestDefiningTriples:
    def test_three_leaves(self):
        assert [t.compact() for t in defining_triples(parse_newick("((a,b),c);"))] == [
            "a,b|c"
        ]

    def test_four_leaf_caterpillar(self):
        got = [t.compact() for t in defining_triples(parse_newick("(((a,b),c),d);"))]
        assert got == ["a,c|d", "a,b|c"]

    def test_preorder_on_a_small_tree(self):
        # As strings t1 < t10 < t2 < t3 < t9, so the canonical preorder
        # visits (t1,t9), then ((t10,t3),t2), then (t10,t3).
        tree = parse_newick("(((t3,t10),t2),(t1,t9));")
        assert [t.compact() for t in defining_triples(tree)] == [
            "t1,t9|t10", "t10,t2|t1", "t10,t3|t2",
        ]

    def test_size_and_uniqueness(self):
        rng = random.Random(59)
        for m in range(3, 7):
            trees = enumerate_binary_trees("abcdef"[:m])
            for tree in rng.sample(trees, min(10, len(trees))):
                triples = defining_triples(tree)
                assert len(triples) == m - 2
                for t in triples:
                    assert displays_triple(tree, t)
                leafsets = SetSystem([sorted(t.taxa) for t in triples])
                assert sigma_star(leafsets).value >= 2
                assert is_unique_display(triples)
                assert count_displaying([t.as_tree() for t in triples], tree.leaves) == 1

    def test_nonbinary_rejected(self):
        with pytest.raises(InputError):
            defining_triples(parse_newick("(a,b,c,d);"))


class TestDefiningOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_spanning_triples_define_the_tree(self, data):
        n = data.draw(st.integers(3, 40), label="leaves")
        kind = data.draw(st.sampled_from(sorted(SHAPES)), label="shape")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = random.Random(seed)
        tree = RootedPhyloTree(SHAPES[kind](rng, shuffled_labels(rng, n)))
        triples = defining_triples(tree)
        assert triples == tuple(phylo.spanning_triples(tree))
        assert build_supertree(triples).tree == tree
        leafsets = SetSystem([sorted(t.taxa) for t in triples])
        assert sigma_star(leafsets).value >= 2
        if n <= 8:
            assert count_displaying([t.as_tree() for t in triples], tree.leaves) == 1


class TestDefiningLarge:
    def test_yule_5000_under_two_seconds(self):
        rng = random.Random(5000)
        tree = RootedPhyloTree(yule_shape(rng, shuffled_labels(rng, 5000)))
        start = time.perf_counter()
        triples = defining_triples(tree)
        assert time.perf_counter() - start < 2.0
        assert len(triples) == 4998
        assert all(displays_triple(tree, t) for t in triples[::97])

    def test_caterpillar_5000(self):
        # ((((x0,x1),x2),...),x4999): the vertex whose second child is
        # x_j, from the root down, gives x0,x_j|x_{j+1}.
        names = [f"x{i:04d}" for i in range(5000)]
        shape = names[0]
        for name in names[1:]:
            shape = (shape, name)
        tree = RootedPhyloTree(shape)
        start = time.perf_counter()
        triples = defining_triples(tree)
        assert time.perf_counter() - start < 2.0
        assert triples == tuple(
            RootedTriple(names[0], names[j], names[j + 1]) for j in range(4998, 0, -1)
        )


class TestUniqueDisplay:
    def test_star_family_is_never_unique(self):
        # Members {1,2,j}: every tree assignment admits several displayers.
        pool = [
            ["1,2|%s" % j, "1,%s|2" % j, "2,%s|1" % j] for j in ("3", "4", "5", "6")
        ]
        for pick in product(*pool):
            triples = [parse_triple(p) for p in pick]
            assert not is_unique_display(triples)

    def test_empty_on_four_taxa(self):
        assert not is_unique_display([], taxa="abcd")

    def test_full_triple_set_identifies(self):
        tree = enumerate_binary_trees("abcde")[17]
        assert is_unique_display(triples_of(tree))

    def test_defining_triples_identify_past_the_cap(self):
        # One BUILD call, so no leaf count is too large.
        rng = random.Random(61)
        kinds = sorted(SHAPES)
        for i in range(60):
            n = rng.randint(9, 60)
            tree = RootedPhyloTree(SHAPES[kinds[i % 3]](rng, shuffled_labels(rng, n)))
            assert is_unique_display(defining_triples(tree))

    def test_defining_triples_of_1000_leaves_under_two_seconds(self):
        # A caterpillar, the deepest shape: 998 nested BUILD scopes.
        rng = random.Random(1000)
        tree = RootedPhyloTree(caterpillar_shape(rng, shuffled_labels(rng, 1000)))
        triples = defining_triples(tree)
        start = time.perf_counter()
        assert is_unique_display(triples)
        assert time.perf_counter() - start < 2.0

    def test_dropping_a_defining_triple_loses_uniqueness(self):
        # A binary tree on n leaves needs n-2 triples to be identified.
        rng = random.Random(67)
        trees = [RootedPhyloTree(caterpillar_shape(rng, shuffled_labels(rng, n)))
                 for n in (9, 200)]
        trees += [RootedPhyloTree(yule_shape(rng, shuffled_labels(rng, n)))
                  for n in (9, 30, 60)]
        for tree in trees:
            triples = defining_triples(tree)
            for i in range(len(triples)):
                rest = triples[:i] + triples[i + 1:]
                assert not is_unique_display(rest, taxa=tree.leaves)

    def test_bad_label_is_an_input_error_compatible_or_not(self):
        compatible = [parse_triple("a,b|c")]
        incompatible = [parse_triple("a,b|c"), parse_triple("a,c|b")]
        for triples in (compatible, incompatible):
            with pytest.raises(InputError, match="^taxon label .b#c. contains"):
                is_unique_display(triples, taxa=["a", "b", "c", "b#c"])

    def test_no_taxa_is_an_input_error(self):
        with pytest.raises(InputError, match="no taxa"):
            is_unique_display([])
