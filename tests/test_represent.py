import os
import random
import subprocess
import sys
import time
from collections import Counter
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
    is_total_order_flexible_bruteforce,
    lca_caterpillar_representation,
    rooted_caterpillar,
    sigma_star,
    unrooted_caterpillar,
    verify_median_injective,
)
from setflex import graphopt, represent
from setflex.pairs import _place_pairs as pair_peel
from conftest import ALPHA, FIG1, FIG1P, FIG3, random_thin_triples, tsys

SRC = Path(__file__).resolve().parents[1] / "src"


def injective(report) -> bool:
    """The representation sends its members to distinct vertices."""
    return len(set(report.vertex_map.values())) == len(report.vertex_map)


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
        assert injective(report)
        assert len(set(report.vertex_map.values())) == system.member_count
        check = verify_median_injective(report.tree, system)
        assert check == (True, "median", report.vertex_map, {})

    def test_fig1(self):
        report = caterpillar_median_representation(tsys(*FIG1))
        assert injective(report)
        assert report.tree.cherry_count() == 2

    def test_single_triple_with_extra_taxon(self):
        system = tsys("abc", extra=("d",))
        report = caterpillar_median_representation(system)
        assert injective(report)
        assert report.appended == ("d",)
        assert len(report.sequence) == 4

    def test_small_universe_rejected(self):
        with pytest.raises(InputError):
            caterpillar_median_representation(tsys("abc"))

    def test_not_thin_rejected(self):
        s = tsys("abc", "abd", "bce", "def", "bde")
        with pytest.raises(PreconditionError) as err:
            caterpillar_median_representation(s)
        assert err.value.certificate.value == 1
        assert err.value.certificate == sigma_star(s)
        assert str(err.value) == "system is not thin (sigma* = 1)"

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
            assert injective(report)
            done += 1
        assert done > 100

    def test_random_thin_systems(self):
        rng = random.Random(61)
        for _ in range(40):
            system = random_thin_triples(rng, rng.randint(5, 9), 7)
            report = caterpillar_median_representation(system)
            assert injective(report)
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
            counts = Counter(x for m in s.member_label_sets() for x in m)
            if min(counts.values()) != 2:
                continue
            x = min(leaves, key=lambda lab: (counts[lab], lab))
            t, t2 = (m for m in s.member_label_sets() if x in m)
            if len(t & t2) == 2:
                shared_pair += 1
            else:
                shared_taxon += 1
            assert injective(caterpillar_median_representation(s))
        assert shared_pair >= 10 and shared_taxon >= 10


class TestVerifyMedianInjective:
    def test_collision_detected(self):
        edges = [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)]
        quartet = UnrootedPhyloTree(edges, {0: "a", 1: "b", 2: "c", 3: "d"})
        system = tsys("abc", "abd")
        assert verify_median_injective(quartet, system) == (False, "median", (0, 1), {})

    def test_single_member(self):
        edges = [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)]
        quartet = UnrootedPhyloTree(edges, {0: "a", 1: "b", 2: "c", 3: "d"})
        assert verify_median_injective(quartet, tsys("abc")).verdict

    def test_coverage_checked(self):
        tree = unrooted_caterpillar("abcd")
        with pytest.raises(InputError):
            verify_median_injective(tree, tsys("abz"))


class TestLcaCaterpillar:
    def test_two_pairs(self):
        report = lca_caterpillar_representation(pair_system("ab", "bc"))
        assert injective(report)
        assert len(set(report.vertex_map.values())) == 2

    def test_single_pair(self):
        report = lca_caterpillar_representation(pair_system("ab"))
        assert injective(report)
        assert report.tree.newick() == "(a,b);"

    def test_chain(self):
        report = lca_caterpillar_representation(pair_system("ab", "bc", "cd"))
        assert injective(report)
        assert len(set(report.vertex_map.values())) == 3

    def test_not_thin_rejected(self):
        with pytest.raises(PreconditionError):
            lca_caterpillar_representation(pair_system("ab", "bc", "ac"))

    def test_isolated_taxa_appended(self):
        system = SetSystem([["a", "b"]], extra_taxa=("z",))
        report = lca_caterpillar_representation(system)
        assert report.appended == ("z",)
        assert injective(report)


class TestTotalOrder:
    def test_negative_orientation_cap(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            is_total_order_flexible_bruteforce(tsys("ab", "bc"), cap=-1)

    def test_chain(self):
        report = extend_to_total_order("abc", [("a", "b"), ("b", "c")])
        assert report == (True, "topological", ("a", "b", "c"), {})

    def test_cycle(self):
        report = extend_to_total_order("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        assert report == (False, "topological", ("a", "b", "c"), {})

    def test_empty_orientation(self):
        report = extend_to_total_order("cab", [])
        assert report.verdict and report.certificate == ("a", "b", "c")

    def test_deterministic_smallest_first(self):
        report = extend_to_total_order("abcd", [("c", "a")])
        assert report.verdict and report.certificate == ("b", "c", "a", "d")

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
        assert not report.verdict and report.certificate == ("w", "x", "y")


class TestOrderFlexible:
    def test_path_flexible_both_modes(self):
        s = pair_system("ab", "bc")
        assert is_total_order_flexible(s).verdict
        assert is_total_order_flexible_bruteforce(s).verdict

    def test_triangle_not_flexible(self):
        s = pair_system("ab", "bc", "ac")
        forest = is_total_order_flexible(s)
        brute = is_total_order_flexible_bruteforce(s)
        assert not forest.verdict and not brute.verdict
        orientation, cycle = brute.certificate
        assert set(orientation) == {("a", "b"), ("c", "a"), ("b", "c")}
        assert cycle == ("a", "b", "c")

    def test_single_pair(self):
        s = pair_system("ab")
        assert is_total_order_flexible_bruteforce(s).verdict

    def test_modes_agree_exhaustively_small(self):
        pool = list(combinations("abcd", 2))
        for mask in range(1, 1 << len(pool)):
            members = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            s = SetSystem([list(m) for m in members])
            assert (
                is_total_order_flexible(s).verdict
                == is_total_order_flexible_bruteforce(s).verdict
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
                is_total_order_flexible(s).verdict
                == is_total_order_flexible_bruteforce(s).verdict
            )

    def test_three_way_agreement(self):
        rng = random.Random(71)
        for _ in range(60):
            taxa = ALPHA[: rng.randint(3, 7)]
            members = {
                tuple(sorted(rng.sample(taxa, 2))) for _ in range(rng.randint(1, 8))
            }
            s = SetSystem([list(m) for m in members])
            flexible = is_total_order_flexible_bruteforce(s).verdict
            forest_ok = is_forest(s).verdict
            assert flexible == forest_ok == (sigma_star(s).value >= 1)
            assert flexible == is_thin(s).verdict
            if flexible:
                assert injective(lca_caterpillar_representation(s))

    def test_cap(self):
        members = [[ALPHA[i], ALPHA[i + 1]] for i in range(21)]
        with pytest.raises(CapExceededError):
            is_total_order_flexible_bruteforce(SetSystem(members), cap=20)

    def test_triples_rejected(self):
        with pytest.raises(MemberSizeError):
            is_total_order_flexible(tsys("abc"))


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

    def test_pair_forests(self):
        rng = random.Random(109)
        for _ in range(250):
            members = pair_forest(rng, rng.randint(1, 90), rng.randint(1, 4))
            tau = frozenset(members)
            assert pair_peel(tau) == _place_pairs(tau)

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
            assert injective(caterpillar_median_representation(s))

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
        assert pair_peel(tau) == _place_pairs(tau)


class TestOnePassPeel:
    """The peel takes one candidate per count-2 level and never re-peels:
    no insertion can fail, and at most one candidate can."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.permutations(range(16)),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=14),
           st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
                    max_size=2),
           st.lists(st.integers(0, 3), max_size=14))
    def test_property_insertion_never_fails(self, labels, spine, extra, picks):
        # Caterpillar-shaped systems (one triple per spine position p, whose
        # middle is leaf p and whose ends lie within 3), with up to two
        # arbitrary triples that may break thinness, and any candidate that
        # is not live at each count-2 level: the insertion argument needs
        # only a valid reduced order.
        seq = [f"t{i:02d}" for i in labels[:len(spine) + 2]]
        members = {frozenset((seq[max(0, p - a)], seq[p], seq[min(len(seq) - 1, p + b)]))
                   for p, (a, b) in enumerate(spine, 1)}
        members |= {frozenset(seq[i % len(seq)] for i in ijk) for ijk in extra}
        members = {m for m in members if len(m) == 3}
        picked = iter(picks)
        insert = represent._insert_checked

        def any_candidate(x, checked, live):
            rest = sorted((checked[0] | checked[1]) - {x})
            free = [y for y in map(frozenset, combinations(rest, 3)) if y not in live]
            if not free:
                raise InternalVerificationError("every candidate is live")
            return free[next(picked, 0) % len(free)]

        def never_none(order, to_place, checked, taken):
            middles = insert(order, to_place, checked, taken)
            assert middles is not None, (to_place, checked)
            return middles

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(represent, "_replacement", any_candidate)
            patch.setattr(represent, "_insert_checked", never_none)
            placed = outcome(represent._place_median, frozenset(members))
        # Input that is not thin stops in the descent, whatever it picks.
        if sigma_star(SetSystem([sorted(m) for m in members])).value < 2:
            assert isinstance(placed, str)

    def test_candidate_lemma(self):
        # For every taxon x of count 2 in a thin system, with t, t2 its
        # members and live the rest: the shared-pair candidate keeps the
        # system thin, and at most one of the four others is live or not.
        rng = random.Random(71)
        systems = [members for _, members in count_two_systems(331, 40)]
        systems += [random_thin_triples(rng, rng.randint(6, 10), 9).member_label_sets()
                    for _ in range(120)]
        systems += [dense_members(rng, rng.randint(3, 12)) for _ in range(60)]
        systems += [sparse_members(rng, rng.randint(3, 12)) for _ in range(60)]
        seen = {"pair": 0, "four": 0, "one failing": 0}
        for members in systems:
            members = set(members)
            for x in {lab for m in members for lab in m}:
                holders = [m for m in members if x in m]
                if len(holders) != 2:
                    continue
                live = members - set(holders)
                candidates = list(map(frozenset, combinations(
                    sorted((holders[0] | holders[1]) - {x}), 3)))
                failing = [y for y in candidates if y in live or not _is_thin_triples(live | {y})]
                if len(candidates) == 1:
                    seen["pair"] += 1
                    assert failing == [], (members, x)
                else:
                    seen["four"] += 1
                    seen["one failing"] += len(failing)
                    assert len(failing) <= 1, (members, x)
        assert min(seen.values()) >= 50, seen

    def test_count_two_levels_make_at_most_one_call(self, monkeypatch):
        # A level whose members share a pair besides x makes no minimizer
        # call, and one with four other taxa at most one.
        calls, levels = [], []
        replacement = represent._replacement

        def counted(x, checked, live):
            before = len(calls)
            y = replacement(x, checked, live)
            levels.append((len(checked[0] & checked[1]) == 2, len(calls) - before))
            return y

        monkeypatch.setattr(graphopt, "sigma_star",
                            lambda system: calls.append(system) or sigma_star(system))
        monkeypatch.setattr(represent, "_replacement", counted)
        for _, members in count_two_systems(331, 25):
            represent._place_median(frozenset(members))
        assert {(True, 0), (False, 1)} <= set(levels) <= {(True, 0), (False, 0), (False, 1)}

    @pytest.mark.parametrize("words, thin", [(FIG3, True), (FIG1P, False)])
    def test_forced_insertion_failure(self, monkeypatch, words, thin):
        # An insertion that finds no slot ends the construction: thin input
        # makes that an internal error, and input that is not thin a
        # "no" with the minimizer's certificate.
        failed = []
        monkeypatch.setattr(represent, "_insert_checked",
                            lambda *args: failed.append(args[1]))
        s = tsys(*words)
        with pytest.raises(InternalVerificationError if thin else PreconditionError) as err:
            caterpillar_median_representation(s)
        # Input that is not thin stops in the descent, before any insertion.
        assert len(failed) == thin
        if thin:
            assert str(err.value).startswith("no insertion slot for taxon")
        else:
            assert err.value.certificate == sigma_star(s)


class TestLeafOrder:
    @staticmethod
    def check(order, expected):
        assert list(order) == expected
        assert (order.first, order.last) == (expected[0], expected[-1])
        keys = [order.key[lab] for lab in expected]
        assert keys == sorted(set(keys)) and 0 < keys[0] and keys[-1] < 1 << order.bits

    def test_insertions_match_a_list(self):
        rng = random.Random(31)
        for _ in range(20):
            expected = [f"s{i}" for i in range(rng.randint(1, 5))]
            order = represent._LeafOrder(expected)
            for i in range(300):
                at = rng.choice([0, len(expected), rng.randint(0, len(expected))])
                order.insert_after(expected[at - 1] if at else None, f"n{i}")
                expected.insert(at, f"n{i}")
            self.check(order, expected)

    @pytest.mark.parametrize("where", ["first", "last", "middle"])
    def test_one_spot_respreads_the_keys(self, where):
        # 3,000 insertions into one gap exhaust every key range around it.
        expected = ["a", "b", "c"]
        order = represent._LeafOrder(expected)
        for i in range(3000):
            left = {"first": None, "last": expected[-1], "middle": "a"}[where]
            order.insert_after(left, f"n{i}")
            expected.insert({"first": 0, "last": len(expected), "middle": 1}[where], f"n{i}")
        self.check(order, expected)


class TestLcaPrecondition:
    def test_forest_needs_no_minimizer(self, monkeypatch):
        def refuse(system):
            raise AssertionError("sigma_star called on a forest")

        monkeypatch.setattr(graphopt, "sigma_star", refuse)
        report = lca_caterpillar_representation(pair_system("ab", "bc", "bd"))
        assert injective(report)

    def test_not_thin_certificate_is_the_minimizer(self):
        s = pair_system("ab", "bc", "cd", "da", "de")
        with pytest.raises(PreconditionError) as err:
            lca_caterpillar_representation(s)
        assert err.value.certificate == sigma_star(s)
        assert str(err.value) == "system is not thin (sigma* = 0)"

    def test_cycle_behind_a_forest_is_certified(self):
        # The peel drains the pendant path and the separate tree first,
        # then finds only the square's taxa, each of count 2.
        s = pair_system("ab", "bc", "cd", "da", "dx", "xy", "yz", "pq", "qr")
        assert pair_peel(frozenset(s.member_label_sets())) is None
        with pytest.raises(PreconditionError) as err:
            lca_caterpillar_representation(s)
        assert err.value.certificate == sigma_star(s)
        assert str(err.value) == "system is not thin (sigma* = 0)"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))
                   .filter(lambda p: p[0] < p[1]), min_size=1, max_size=9))
    def test_property_peel_fails_exactly_on_cycles(self, pairs):
        s = SetSystem([[ALPHA[i], ALPHA[j]] for i, j in sorted(pairs)])
        forest = is_forest(s).verdict
        assert (pair_peel(frozenset(s.member_label_sets())) is not None) == forest
        if forest:
            assert injective(lca_caterpillar_representation(s))
        else:
            with pytest.raises(PreconditionError) as err:
                lca_caterpillar_representation(s)
            assert err.value.certificate == sigma_star(s)

    def test_minimizer_contradicting_the_peel_is_internal(self, monkeypatch):
        thin = sigma_star(pair_system("ab", "bc"))
        monkeypatch.setattr(graphopt, "sigma_star", lambda system: thin)
        with pytest.raises(InternalVerificationError, match="sigma\\* = 1"):
            lca_caterpillar_representation(pair_system("ab", "bc", "ca"))


class TestMedianPrecondition:
    """The construction decides thinness; the minimizer only certifies a "no"."""

    def test_thin_chain_needs_no_minimizer(self, monkeypatch):
        # A chain has no taxon of count 2 at any level, so no candidate
        # triple is checked either.
        def refuse(system):
            raise AssertionError("sigma_star called on a thin chain")

        names = names_for(random.Random(3), 42)
        system = SetSystem([sorted(m) for m in chain_members(names, 40)])
        monkeypatch.setattr(graphopt, "sigma_star", refuse)
        report = caterpillar_median_representation(system)
        assert len(set(report.vertex_map.values())) == 40

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.sampled_from(ALPHA[:8]), min_size=3, max_size=3),
                    min_size=1, max_size=10, unique=True))
    def test_property_verified_or_certified(self, members):
        s = SetSystem([sorted(m) for m in members], extra_taxa=ALPHA[:4])
        minimizer = sigma_star(s)
        try:
            report = caterpillar_median_representation(s)
        except PreconditionError as err:
            assert err.certificate == minimizer and minimizer.value < 2
        else:
            assert minimizer.value >= 2
            assert verify_median_injective(report.tree, s).verdict

    def test_minimizer_contradicting_the_construction_is_internal(self, monkeypatch):
        thin = sigma_star(tsys("abc", "bcd"))
        monkeypatch.setattr(graphopt, "sigma_star", lambda system: thin)
        with pytest.raises(InternalVerificationError, match="sigma\\* = 2"):
            caterpillar_median_representation(tsys("abc", "abd", "bce", "def", "bde"))


class TestLargeRepresentations:
    """Sizes that ran out of recursion depth, or time, in the recursive
    construction; each keeps the final self-checks."""

    def test_lca_caterpillar_2000_pair_path(self):
        names = names_for(random.Random(5), 2001, "p")
        system = SetSystem([sorted(m) for m in chain_members(names, 2000, 2)])
        start = time.perf_counter()
        report = lca_caterpillar_representation(system)
        assert time.perf_counter() - start < 10.0
        assert len(set(report.vertex_map.values())) == 2000

    def test_median_caterpillar_1000_triple_chain(self):
        names = names_for(random.Random(7), 1002)
        system = SetSystem([sorted(m) for m in chain_members(names, 1000)])
        start = time.perf_counter()
        report = caterpillar_median_representation(system)
        assert time.perf_counter() - start < 15.0
        assert len(set(report.vertex_map.values())) == 1000

    def test_median_placement_20000_triple_chain(self):
        # Each re-insertion used to search the leaf list for the other taxa
        # of its members: 2.4-4.1 s, 0.5-0.7 s with the keyed leaf order.
        # The final self-check is left out of the bound.
        tau = frozenset(chain_members(names_for(random.Random(23), 20002), 20000))
        start = time.perf_counter()
        seq = represent._place_median(tau)
        assert time.perf_counter() - start < 1.5
        positions = {lab: i for i, lab in enumerate(seq)}
        assert len({represent._middle(positions, m) for m in tau}) == 20000

    def test_median_caterpillar_500_member_dense_system(self):
        system = SetSystem([sorted(m) for m in dense_members(random.Random(11), 500)])
        start = time.perf_counter()
        report = caterpillar_median_representation(system)
        assert time.perf_counter() - start < 5.0
        assert len(set(report.vertex_map.values())) == 500

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
