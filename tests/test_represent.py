import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setflex import (
    CapExceededError,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    PreconditionError,
    SetSystem,
    UnrootedPhyloTree,
    caterpillar_median_representation,
    extend_to_total_order,
    is_forest,
    is_thin,
    is_total_order_flexible,
    incidence_graph,
    lca_caterpillar_representation,
    rooted_caterpillar,
    sigma_star,
    unrooted_caterpillar,
    verify_median_injective,
)
from setflex import graphopt, represent
from conftest import ALPHA, FIG1, FIG3, random_thin_triples, tsys

SRC = Path(__file__).resolve().parents[1] / "src"


def pair_system(*pairs: str) -> SetSystem:
    return SetSystem([list(p) for p in pairs])


class TestBuilders:
    def test_unrooted_spine_numbering(self):
        tree = unrooted_caterpillar("abcde")
        assert tree.interior_vertices() == (0, 1, 2)
        assert tree.is_binary() and tree.cherry_count() == 2
        assert tree.median({"a", "b", "c"}) == 0
        assert tree.median({"c", "d", "e"}) == 2

    def test_unrooted_needs_four(self):
        with pytest.raises(InputError):
            unrooted_caterpillar("abc")

    def test_rooted(self):
        assert rooted_caterpillar("abcd").newick() == "(((a,b),c),d);"


class TestMedianCaterpillar:
    def test_fig3(self):
        system = tsys(*FIG3)
        report = caterpillar_median_representation(system)
        assert report.verified
        assert len(set(report.vertex_map.values())) == system.member_count
        ok, _ = verify_median_injective(report.tree, system)
        assert ok
        medians: dict[int, int] = {}
        assert verify_median_injective(report.tree, system, medians) == (True, None)
        assert medians == report.vertex_map

    def test_fig1(self):
        report = caterpillar_median_representation(tsys(*FIG1))
        assert report.verified
        assert report.tree.cherry_count() == 2

    def test_single_triple_with_extra_taxon(self):
        system = tsys("abc", extra=("d",))
        report = caterpillar_median_representation(system)
        assert report.verified
        assert report.appended == ("d",)
        assert len(report.sequence) == 4

    def test_small_universe_rejected(self):
        with pytest.raises(InputError):
            caterpillar_median_representation(tsys("abc"))

    def test_not_thin_rejected(self):
        with pytest.raises(PreconditionError) as err:
            caterpillar_median_representation(tsys(*("abc", "abd", "bce", "def", "bde")))
        assert err.value.certificate.value == 1

    def test_pairs_rejected(self):
        with pytest.raises(MemberSizeError):
            caterpillar_median_representation(pair_system("ab", "bc"))

    def test_every_thin_system_on_five_taxa(self):
        pool = list(combinations("abcde", 3))
        done = 0
        for mask in range(1, 1 << len(pool)):
            members = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            if len(members) > 3:
                continue
            system = SetSystem([list(m) for m in members], extra_taxa="abcde")
            if sigma_star(system).value < 2:
                continue
            report = caterpillar_median_representation(system)
            assert report.verified
            done += 1
        assert done > 100

    def test_random_thin_systems(self):
        rng = random.Random(61)
        for _ in range(40):
            system = random_thin_triples(rng, rng.randint(5, 9), 7)
            report = caterpillar_median_representation(system)
            assert report.verified
            assert report.tree.is_binary()
            assert report.tree.cherry_count() == 2
            interior = len(report.tree.interior_vertices())
            assert interior == len(report.sequence) - 2
            assert system.member_count <= interior

    def test_deterministic(self):
        a = caterpillar_median_representation(tsys(*FIG3))
        b = caterpillar_median_representation(tsys(*FIG3))
        assert a.sequence == b.sequence
        assert a.vertex_map == b.vertex_map

    def test_minimum_occurrence_two_systems(self):
        # Thin systems whose least-covered taxon sits in two members
        # exercise the pair-replacement reductions, in both the shared-pair
        # and the shared-taxon-only variants.
        from setflex import occurrence_count

        rng = random.Random(331)
        shared_pair = shared_taxon = 0
        for _ in range(4000):
            if shared_pair >= 10 and shared_taxon >= 10:
                break
            n = rng.randint(6, 9)
            taxa = "abcdefghi"[:n]
            k = rng.randint(3, n - 2)
            members = set()
            for _ in range(4 * k):
                members.add(tuple(sorted(rng.sample(taxa, 3))))
                if len(members) >= k:
                    break
            s = SetSystem([list(m) for m in members])
            if sigma_star(s).value < 2 or len(s.universe) < 5:
                continue
            leaves = s.leaf_labels()
            counts = {x: occurrence_count(s, x) for x in leaves}
            if min(counts.values()) != 2:
                continue
            x = min(leaves, key=lambda lab: (counts[lab], lab))
            t, t2 = (m for m in s.member_label_sets() if x in m)
            if len(t & t2) == 2:
                shared_pair += 1
            else:
                shared_taxon += 1
            assert caterpillar_median_representation(s).verified
        assert shared_pair >= 10 and shared_taxon >= 10


class TestVerifyMedianInjective:
    def test_collision_detected(self):
        edges = [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)]
        quartet = UnrootedPhyloTree(edges, {0: "a", 1: "b", 2: "c", 3: "d"})
        system = tsys("abc", "abd")
        ok, pair = verify_median_injective(quartet, system)
        assert not ok and pair == (0, 1)

    def test_single_member(self):
        edges = [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)]
        quartet = UnrootedPhyloTree(edges, {0: "a", 1: "b", 2: "c", 3: "d"})
        ok, _ = verify_median_injective(quartet, tsys("abc"))
        assert ok

    def test_coverage_checked(self):
        tree = unrooted_caterpillar("abcd")
        with pytest.raises(InputError):
            verify_median_injective(tree, tsys("abz"))


class TestLcaCaterpillar:
    def test_two_pairs(self):
        report = lca_caterpillar_representation(pair_system("ab", "bc"))
        assert report.verified
        assert len(set(report.vertex_map.values())) == 2

    def test_single_pair(self):
        report = lca_caterpillar_representation(pair_system("ab"))
        assert report.verified
        assert report.tree.newick() == "(a,b);"

    def test_chain(self):
        report = lca_caterpillar_representation(pair_system("ab", "bc", "cd"))
        assert report.verified
        assert len(set(report.vertex_map.values())) == 3

    def test_not_thin_rejected(self):
        with pytest.raises(PreconditionError):
            lca_caterpillar_representation(pair_system("ab", "bc", "ac"))

    def test_isolated_taxa_appended(self):
        system = SetSystem([["a", "b"]], extra_taxa=("z",))
        report = lca_caterpillar_representation(system)
        assert report.appended == ("z",)
        assert report.verified


class TestTotalOrder:
    def test_negative_orientation_cap(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            is_total_order_flexible(tsys("ab", "bc"), mode="bruteforce", cap=-1)

    def test_chain(self):
        report = extend_to_total_order("abc", [("a", "b"), ("b", "c")])
        assert report.order == ("a", "b", "c")

    def test_cycle(self):
        report = extend_to_total_order("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        assert report.order is None
        assert report.cycle == ("a", "b", "c")

    def test_empty_orientation(self):
        report = extend_to_total_order("cab", [])
        assert report.order == ("a", "b", "c")

    def test_deterministic_smallest_first(self):
        report = extend_to_total_order("abcd", [("c", "a")])
        assert report.order == ("b", "c", "a", "d")

    def test_unknown_label(self):
        with pytest.raises(InputError):
            extend_to_total_order("ab", [("a", "z")])

    @pytest.mark.parametrize("label", ["a b", "'q", "b|c", "a#b", ""])
    def test_label_the_text_formats_cannot_carry(self, label):
        with pytest.raises(InputError, match="taxon label"):
            extend_to_total_order(["x", label], [("x", label)])

    def test_self_pair(self):
        with pytest.raises(InputError):
            extend_to_total_order("ab", [("a", "a")])

    def test_cycle_buried_behind_tail(self):
        pairs = [("w", "x"), ("x", "y"), ("y", "w"), ("y", "z")]
        report = extend_to_total_order("wxyz", pairs)
        assert report.cycle == ("w", "x", "y")


class TestOrderFlexible:
    def test_path_flexible_both_modes(self):
        s = pair_system("ab", "bc")
        assert is_total_order_flexible(s, "forest").verdict
        assert is_total_order_flexible(s, "bruteforce").verdict

    def test_triangle_not_flexible(self):
        s = pair_system("ab", "bc", "ac")
        forest = is_total_order_flexible(s, "forest")
        brute = is_total_order_flexible(s, "bruteforce")
        assert not forest.verdict and not brute.verdict
        orientation, cycle = brute.certificate
        assert set(orientation) == {("a", "b"), ("c", "a"), ("b", "c")}
        assert cycle == ("a", "b", "c")

    def test_single_pair(self):
        s = pair_system("ab")
        assert is_total_order_flexible(s, "bruteforce").verdict

    def test_modes_agree_exhaustively_small(self):
        pool = list(combinations("abcd", 2))
        for mask in range(1, 1 << len(pool)):
            members = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            s = SetSystem([list(m) for m in members])
            assert (
                is_total_order_flexible(s, "forest").verdict
                == is_total_order_flexible(s, "bruteforce").verdict
            )

    def test_modes_agree_random(self):
        rng = random.Random(67)
        for _ in range(60):
            taxa = ALPHA[: rng.randint(4, 8)]
            members = {
                tuple(sorted(rng.sample(taxa, 2))) for _ in range(rng.randint(1, 9))
            }
            s = SetSystem([list(m) for m in members])
            assert (
                is_total_order_flexible(s, "forest").verdict
                == is_total_order_flexible(s, "bruteforce").verdict
            )

    def test_three_way_agreement(self):
        rng = random.Random(71)
        for _ in range(60):
            taxa = ALPHA[: rng.randint(3, 7)]
            members = {
                tuple(sorted(rng.sample(taxa, 2))) for _ in range(rng.randint(1, 8))
            }
            s = SetSystem([list(m) for m in members])
            flexible = is_total_order_flexible(s, "bruteforce").verdict
            forest_ok, _ = is_forest(incidence_graph(s, "unit"))
            assert flexible == forest_ok == (sigma_star(s).value >= 1)
            assert flexible == is_thin(s, 2).verdict
            if flexible:
                assert lca_caterpillar_representation(s).verified

    def test_cap(self):
        members = [[ALPHA[i], ALPHA[i + 1]] for i in range(21)]
        with pytest.raises(CapExceededError):
            is_total_order_flexible(SetSystem(members), "bruteforce", cap=20)

    def test_triples_rejected(self):
        with pytest.raises(MemberSizeError):
            is_total_order_flexible(tsys("abc"), "forest")


# -- the recursive construction, kept as the reference for the peel --------------
# These are the placement functions as they stood before `represent` peeled
# with one explicit stack, verbatim: they recurse once per peeled taxon and
# re-verify every member's middle at every slot.


def _middle(positions: dict[str, int], member: frozenset[str]) -> str:
    labs = sorted(member, key=positions.__getitem__)
    return labs[len(labs) // 2]


def _distinct_middles(seq: list[str], members) -> bool:
    positions = {lab: i for i, lab in enumerate(seq)}
    middles = set()
    for member in members:
        mid = _middle(positions, member)
        if mid in middles:
            return False
        middles.add(mid)
    return True


def _slot_order(seq: list[str]) -> list[int]:
    # Nearest the spine end holding the smallest label first.
    slots = list(range(len(seq) + 1))
    if seq and seq[-1] < seq[0]:
        slots.reverse()
    return slots


def _insert_and_verify(
    seq: list[str], to_place: list[str], members
) -> list[str] | None:
    """Insert the given taxa (in order) trying slots canonically.

    Returns the first arrangement whose member middles are pairwise
    distinct, or None if no placement works.
    """
    if not to_place:
        return list(seq) if _distinct_middles(seq, members) else None
    head, rest = to_place[0], to_place[1:]
    for slot in _slot_order(seq):
        candidate = seq[:slot] + [head] + seq[slot:]
        placed = _insert_and_verify(candidate, rest, members)
        if placed is not None:
            return placed
    return None


def _is_thin_triples(members: Iterable[frozenset[str]]) -> bool:
    system = SetSystem([sorted(m) for m in members])
    return graphopt.sigma_star(system).value >= 2


def _place_median(tau: frozenset[frozenset[str]]) -> list[str]:
    """A leaf order of L(tau) whose member middles are pairwise distinct."""
    members = sorted(tau, key=sorted)
    universe = sorted({x for m in members for x in m})

    if len(members) <= 1:
        return universe
    if len(universe) <= 4:
        for perm in permutations(universe):
            if _distinct_middles(list(perm), members):
                return list(perm)
        raise InternalVerificationError("no ordering for a thin base case")

    counts = {x: sum(1 for m in members if x in m) for x in universe}
    x = min(universe, key=lambda lab: (counts[lab], lab))

    if counts[x] == 1:
        (t,) = (m for m in members if x in m)
        reduced = frozenset(tau - {t})
        seq = _place_median(reduced)
        covered = set(seq)
        missing = sorted((t - {x}) - covered)
        placed = _insert_and_verify(seq, missing + [x], members)
        if placed is None:
            raise InternalVerificationError("no insertion slot in the n=1 case")
        return placed

    if counts[x] == 2:
        t, t2 = (m for m in members if x in m)
        shared = t & t2
        if len(shared) == 2:
            # Two triples overlapping in x and one more taxon: replace the
            # pair by the single triple over their other three taxa.  That
            # triple cannot already belong to a thin system, but the set
            # union below and the final verification stay safe either way.
            candidates = [(t | t2) - {x}]
        else:
            quad = sorted((t | t2) - {x})
            candidates = [
                frozenset(c)
                for c in sorted(
                    tuple(sorted(set(quad) - {drop})) for drop in quad
                )
                if frozenset(c) not in tau
            ]
        for y in candidates:
            reduced = frozenset((tau - {t, t2}) | {y})
            if not _is_thin_triples(reduced):
                continue
            seq = _place_median(reduced)
            covered = set(seq)
            missing = sorted(((t | t2) - {x}) - covered)
            placed = _insert_and_verify(seq, missing + [x], members)
            if placed is not None:
                return placed
        raise InternalVerificationError("no reduction worked in the n=2 case")

    raise InternalVerificationError(
        "thin system with no taxon of occurrence count <= 2"
    )


def _place_pairs(tau: frozenset[frozenset[str]]) -> list[str]:
    members = sorted(tau, key=sorted)
    if len(members) == 1:
        return sorted(members[0])
    universe = sorted({x for m in members for x in m})
    counts = {x: sum(1 for m in members if x in m) for x in universe}
    singles = [x for x in universe if counts[x] == 1]
    if not singles:
        raise InternalVerificationError(
            "thin pair system with no taxon of occurrence count 1"
        )
    x = singles[0]
    (t,) = (m for m in members if x in m)
    (a,) = t - {x}
    reduced = frozenset(tau - {t})
    seq = _place_pairs(reduced)
    if a in set(seq):
        return seq + [x]
    return seq + [a, x]


# -- the peel against the reference ----------------------------------------------


def names_for(rng: random.Random, n: int, prefix: str = "t") -> list[str]:
    names = [f"{prefix}{i:04d}" for i in range(n)]
    rng.shuffle(names)
    return names


def chain_members(names: list[str], k: int, size: int = 3) -> list[frozenset[str]]:
    return [frozenset(names[i:i + size]) for i in range(k)]


def dense_members(rng: random.Random, k: int) -> list[frozenset[str]]:
    """Thin triples where each member after the first brings one new taxon."""
    names = names_for(rng, k + 2, "d")
    members = [frozenset(names[:3])]
    seen = names[:3]
    for new in names[3:]:
        members.append(frozenset(rng.sample(seen, 2) + [new]))
        seen.append(new)
    return members


def sparse_members(rng: random.Random, k: int) -> list[frozenset[str]]:
    """Thin triples where each member after the first brings one to three
    new taxa, so the peel meets members with two or three private taxa."""
    names = iter(names_for(rng, 3 * k, "s"))
    seen = [next(names) for _ in range(3)]
    members = [frozenset(seen)]
    for _ in range(k - 1):
        fresh = [next(names) for _ in range(rng.choice((1, 1, 2, 3)))]
        members.append(frozenset(rng.sample(seen, 3 - len(fresh)) + fresh))
        seen.extend(fresh)
    return members


def pair_forest(rng: random.Random, k: int, trees: int) -> list[frozenset[str]]:
    """k pairs forming `trees` trees: each new pair brings one unseen taxon."""
    names = names_for(rng, k + trees, "p")
    grown = [[root] for root in names[:trees]]
    members = []
    for i, new in enumerate(names[trees:]):
        tree = grown[rng.randrange(trees) if i >= trees else i]
        members.append(frozenset((rng.choice(tree), new)))
        tree.append(new)
    return members


def count_two_systems(seed: int, each: int):
    """Thin systems whose least-covered taxon sits in two members.

    Yields (shares_a_pair, members); the generator of
    `test_minimum_occurrence_two_systems`, up to `each` of both variants.
    """
    rng = random.Random(seed)
    found = {True: 0, False: 0}
    for _ in range(20 * each):
        if min(found.values()) >= each:
            return
        n = rng.randint(6, 9)
        taxa = "abcdefghi"[:n]
        k = rng.randint(3, n - 2)
        members = set()
        for _ in range(4 * k):
            members.add(frozenset(rng.sample(taxa, 3)))
            if len(members) >= k:
                break
        s = SetSystem([sorted(m) for m in members])
        if sigma_star(s).value < 2 or len(s.universe) < 5:
            continue
        counts = {x: sum(x in m for m in members) for x in s.leaf_labels()}
        x = min(counts, key=lambda lab: (counts[lab], lab))
        if counts[x] != 2:
            continue
        t, t2 = (m for m in members if x in m)
        shares_pair = len(t & t2) == 2
        if found[shares_pair] < each:
            found[shares_pair] += 1
            yield shares_pair, members


def outcome(place, members):
    try:
        return place(frozenset(members))
    except InternalVerificationError as exc:
        return str(exc)


class TestPeelMatchesRecursion:
    def test_chains(self):
        rng = random.Random(101)
        for k in list(range(1, 40)) + [60, 90, 120]:
            members = chain_members(names_for(rng, k + 2), k)
            assert represent._place_median(frozenset(members)) == _place_median(
                frozenset(members)
            )

    def test_dense_systems(self):
        rng = random.Random(103)
        for _ in range(150):
            members = dense_members(rng, rng.randint(1, 60))
            tau = frozenset(members)
            assert represent._place_median(tau) == _place_median(tau)

    def test_sparse_systems(self):
        rng = random.Random(113)
        for _ in range(150):
            tau = frozenset(sparse_members(rng, rng.randint(1, 50)))
            assert represent._place_median(tau) == _place_median(tau)

    def test_random_thin_systems(self):
        rng = random.Random(107)
        for _ in range(120):
            tau = frozenset(random_thin_triples(rng, rng.randint(5, 12), 10).member_label_sets())
            assert represent._place_median(tau) == _place_median(tau)

    def test_minimum_occurrence_two_systems(self):
        variants = set()
        for shares_pair, members in count_two_systems(331, 25):
            variants.add(shares_pair)
            tau = frozenset(members)
            assert represent._place_median(tau) == _place_median(tau)
        assert variants == {True, False}

    def test_count_two_retry(self, monkeypatch):
        # No seeded system has needed it, so force the retry: the first
        # insertion of each count-2 level's x fails, in the peel and in the
        # reference alike.  Both must then try the same next candidate and
        # end with the same order or the same error.
        module = sys.modules[__name__]
        reference_insert = _insert_and_verify
        peel_insert = represent._insert_checked
        failed = {"peel": set(), "reference": set()}
        depth = [0]

        def failing_reference(seq, to_place, members):
            if depth[0] == 0 and to_place and sum(to_place[-1] in m for m in members) == 2:
                if to_place[-1] not in failed["reference"]:
                    failed["reference"].add(to_place[-1])
                    return None
            depth[0] += 1
            try:
                return reference_insert(seq, to_place, members)
            finally:
                depth[0] -= 1

        def failing_peel(seq, to_place, checked, taken):
            if len(checked) == 2 and to_place[-1] not in failed["peel"]:
                failed["peel"].add(to_place[-1])
                return None
            return peel_insert(seq, to_place, checked, taken)

        monkeypatch.setattr(module, "_insert_and_verify", failing_reference)
        monkeypatch.setattr(represent, "_insert_checked", failing_peel)
        placed = errors = 0
        for _, members in count_two_systems(337, 25):
            failed["peel"].clear()
            failed["reference"].clear()
            got = outcome(represent._place_median, members)
            assert got == outcome(_place_median, members)
            assert failed["peel"] == failed["reference"] != set()
            if isinstance(got, list):
                placed += 1
            else:
                errors += 1
        assert placed > 0 and errors > 0

    def test_pair_forests(self):
        rng = random.Random(109)
        for _ in range(250):
            members = pair_forest(rng, rng.randint(1, 90), rng.randint(1, 4))
            tau = frozenset(members)
            assert represent._place_pairs(tau) == _place_pairs(tau)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 2)),
        max_size=12,
    ))
    def test_property_thin_triples(self, steps):
        # Each step adds a member with one or two new taxa (keeps the
        # system thin) or with three old taxa (may break thinness, and
        # makes count-2 taxa).
        seen = list("abc")
        members = {frozenset(seen)}
        fresh = (f"n{i:02d}" for i in range(2 * len(steps)))
        for i, j, new in steps:
            pool = sorted(seen)
            olds = [pool.pop(pick % len(pool)) for pick in (i, j, i + j)[: 3 - new]]
            news = [next(fresh) for _ in range(new)]
            seen.extend(news)
            members.add(frozenset(olds + news))
        s = SetSystem([sorted(m) for m in members])
        assume(sigma_star(s).value >= 2)
        tau = frozenset(members)
        assert outcome(represent._place_median, tau) == outcome(_place_median, tau)
        if len(s.universe) >= 4:
            assert caterpillar_median_representation(s).verified

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 99), st.booleans()), min_size=1, max_size=30))
    def test_property_pair_forests(self, steps):
        seen: list[str] = []
        members = []
        for i, join in steps:
            if join and seen:
                old = sorted(seen)[i % len(seen)]
            else:
                old = f"r{len(seen)}"
                seen.append(old)
            new = f"n{len(seen)}"
            seen.append(new)
            members.append(frozenset((old, new)))
        tau = frozenset(members)
        assert represent._place_pairs(tau) == _place_pairs(tau)


class TestLcaPrecondition:
    def test_forest_needs_no_minimizer(self, monkeypatch):
        def refuse(system):
            raise AssertionError("sigma_star called on a forest")

        monkeypatch.setattr(graphopt, "sigma_star", refuse)
        report = lca_caterpillar_representation(pair_system("ab", "bc", "bd"))
        assert report.verified

    def test_not_thin_certificate_is_the_minimizer(self):
        s = pair_system("ab", "bc", "cd", "da", "de")
        with pytest.raises(PreconditionError) as err:
            lca_caterpillar_representation(s)
        assert err.value.certificate == sigma_star(s)
        assert str(err.value) == "system is not thin (sigma* = 0)"


class TestLargeRepresentations:
    """Sizes that ran out of recursion depth, or time, in the recursive
    construction; each keeps the final self-checks."""

    def test_lca_caterpillar_2000_pair_path(self):
        names = names_for(random.Random(5), 2001, "p")
        system = SetSystem([sorted(m) for m in chain_members(names, 2000, 2)])
        start = time.perf_counter()
        report = lca_caterpillar_representation(system)
        assert time.perf_counter() - start < 10.0
        assert report.verified and len(set(report.vertex_map.values())) == 2000

    def test_median_caterpillar_1000_triple_chain(self):
        names = names_for(random.Random(7), 1002)
        system = SetSystem([sorted(m) for m in chain_members(names, 1000)])
        start = time.perf_counter()
        report = caterpillar_median_representation(system)
        assert time.perf_counter() - start < 15.0
        assert report.verified and len(set(report.vertex_map.values())) == 1000

    def test_median_caterpillar_500_member_dense_system(self):
        system = SetSystem([sorted(m) for m in dense_members(random.Random(11), 500)])
        start = time.perf_counter()
        report = caterpillar_median_representation(system)
        assert time.perf_counter() - start < 5.0
        assert report.verified and len(set(report.vertex_map.values())) == 500

    def test_cli_lca_caterpillar_2000_pairs(self, tmp_path):
        names = names_for(random.Random(13), 2001, "p")
        path = tmp_path / "pairs.sets"
        path.write_text("".join(f"{names[i]},{names[i + 1]}\n" for i in range(2000)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "represent", "lca-caterpillar", str(path),
             "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert '"verified": true' in proc.stdout
