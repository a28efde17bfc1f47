import os
import random
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setflex import (
    FlowNetwork,
    InputError,
    MemberSizeError,
    SetSystem,
    caterpillar_median_representation,
    gamma,
    gamma_star,
    is_forest,
    is_slim,
    is_slim_exhaustive,
    is_thin,
    is_thin_exhaustive,
    lca_caterpillar_representation,
    max_flow,
    sdr,
    sigma,
    sigma_star,
    surplus_forest,
)
from conftest import ALPHA, FIG1, FIG1P, brute_minimum, random_system, tsys
from setflex import graphopt, hall
from setflex.errors import InternalVerificationError
from setflex.excess import size_minus_two
from setflex.graphopt import _member_network, _minimize_surplus
from setflex.hall import _verify_degree_two_forest

SRC = Path(__file__).resolve().parents[1] / "src"


def network_arcs(net) -> list[tuple[int, int, int]]:
    """Every arc of `net` as (tail, head, capacity), in insertion order."""
    return [(net.arc_to[a + 1], net.arc_to[a], net.arc_cap[a])
            for a in range(0, len(net.arc_to), 2)]


class TestIncidenceGraph:
    """The member network: source 0, sink 1, member i as 2 + i, then the
    occurring taxa in id order."""

    def test_path_pairs(self):
        s = SetSystem([["a", "b"], ["b", "c"]])
        net, source_arcs, cinf = _member_network(s.members, (1, 1))
        assert (len(net.adj), net.source, net.sink, cinf) == (7, 0, 1, 6)
        assert network_arcs(net) == [
            (0, 2, 1), (2, 4, cinf), (2, 5, cinf),
            (0, 3, 1), (3, 5, cinf), (3, 6, cinf),
            (4, 1, 1), (5, 1, 1), (6, 1, 1),
        ]
        assert source_arcs == [0, 6]

    def test_triangle_pairs(self):
        s = SetSystem([["a", "b"], ["b", "c"], ["a", "c"]])
        net, _, cinf = _member_network(s.members, (1, 1, 1))
        assert len(net.adj) == 2 + 3 + 3
        assert sum(c == cinf for _, _, c in network_arcs(net)) == 6

    def test_single_member_star(self):
        net, _, cinf = _member_network(tsys("abc").members, (1,))
        assert [(u, v) for u, v, c in network_arcs(net) if c == cinf] == [(2, 3), (2, 4), (2, 5)]

    def test_weights(self):
        s = tsys("abcd", "cdef")
        net, source_arcs, _ = _member_network(s.members, size_minus_two(s))
        assert [net.arc_cap[a] for a in source_arcs] == [2, 2]
        with pytest.raises(MemberSizeError):
            gamma_star(SetSystem([["a", "b"], ["a", "c", "d"]]))


class TestMaxFlow:
    def test_single_path(self):
        net = FlowNetwork(3, 0, 2)
        net.add_arc(0, 1, 3)
        net.add_arc(1, 2, 2)
        result = max_flow(net)
        assert result.value == 2
        assert result.cut_arcs == ((1, 2, 2),)

    def test_parallel_paths(self):
        net = FlowNetwork(5, 0, 1)
        for v in range(2, 5):
            net.add_arc(0, v, 1)
            net.add_arc(v, 1, 1)
        assert max_flow(net).value == 3

    def test_nodes_and_capacities_are_checked(self):
        with pytest.raises(InputError, match="must differ"):
            max_flow(FlowNetwork(2, 1, 1))
        for source, sink in ((0, 2), (-1, 1)):
            with pytest.raises(InputError, match=r"is not one of 0 \.\. 1"):
                FlowNetwork(2, source, sink)
        net = FlowNetwork(2, 0, 1)
        for u, v in ((0, 2), (-1, 0)):
            with pytest.raises(InputError, match=r"is not one of 0 \.\. 1"):
                net.add_arc(u, v, 1)
        with pytest.raises(InputError, match="non-negative"):
            net.add_arc(0, 1, -1)
        assert net.arc_to == [] and net.adj == [[], []]

    def test_fig1_forced_member_network(self):
        # Source -> members at weight 1 (the forced one at the sentinel),
        # containment arcs at the sentinel, taxa -> sink at 1.  The cut for
        # forced member a,b,c equals total weight + min sigma over
        # selections containing it, which is sigma* = 2 here.
        s = tsys(*FIG1)
        net = FlowNetwork(2 + 4 + 6, 0, 1)
        members = range(2, 6)
        taxa = {x: 6 + x for x in range(6)}
        sentinel = 3 + 6 + 1
        for i in range(4):
            net.add_arc(net.source, members[i], sentinel if i == 0 else 1)
            for x in s.members[i]:
                net.add_arc(members[i], taxa[x], sentinel)
        for node in taxa.values():
            net.add_arc(node, net.sink, 1)
        assert max_flow(net).value == 4 + 2

    def test_flow_equals_cut_on_random_networks(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 7)
            net = FlowNetwork(n, 0, n - 1)
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.4:
                        net.add_arc(u, v, rng.randint(0, 5))
            result = max_flow(net)
            assert result.value == sum(c for _, _, c in result.cut_arcs)
            assert net.source in result.source_side
            assert net.sink not in result.source_side

    def test_random_networks_against_networkx(self):
        # Arbitrary networks, parallel and antiparallel arcs included; the
        # cut must be the arcs of `net` that leave the source side.
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(2, 12)
            source, sink = rng.sample(range(n), 2)
            net = FlowNetwork(n, source, sink)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                c = rng.randint(0, 9)
                net.add_arc(u, v, c)
                if g.has_edge(u, v):
                    g[u][v]["capacity"] += c
                else:
                    g.add_edge(u, v, capacity=c)
            result = max_flow(net)
            assert result.value == nx.maximum_flow_value(g, source, sink)
            side = result.source_side
            assert source in side and sink not in side
            assert all(u in side and v not in side for u, v, _ in result.cut_arcs)
            assert result.cut_arcs == tuple(
                arc for arc in sorted(network_arcs(net), key=lambda arc: arc[0])
                if arc[0] in side and arc[1] not in side)
            assert sum(c for _, _, c in result.cut_arcs) == result.value


class TestMinimizers:
    def test_fig1_sigma_star(self):
        report = sigma_star(tsys(*FIG1))
        assert report.value == 2
        assert sigma(tsys(*FIG1), report.witness) == 2

    def test_fig1_prime_sigma_star(self):
        report = sigma_star(tsys(*FIG1P))
        assert report.value == 1
        assert sigma(tsys(*FIG1P), report.witness) == 1

    def test_two_quads_gamma_star(self):
        report = gamma_star(tsys("abcd", "cdef"))
        assert report.value == 2

    def test_cut_certifies_value(self):
        report = sigma_star(tsys(*FIG1))
        assert sum(c for _, _, c in report.cut) == report.value + report.offset

    def test_empty_system(self):
        with pytest.raises(InputError):
            sigma_star(SetSystem([]))

    def test_matches_exhaustive_minimum(self):
        rng = random.Random(29)
        for _ in range(120):
            s = random_system(rng, rng.randint(4, 9), rng.randint(1, 8), (3, 4, 5))
            for measure, star in (("sigma", sigma_star), ("gamma", gamma_star)):
                expected, _ = brute_minimum(s, measure)
                report = star(s)
                assert report.value == expected
                evaluate = sigma if measure == "sigma" else gamma
                assert evaluate(s, report.witness) == expected


def weightings(s: SetSystem):
    """(measure, member weights) for sigma, and for gamma when every
    member has size >= 3."""
    yield "sigma", (1,) * s.member_count
    if all(len(m) >= 3 for m in s.members):
        yield "gamma", tuple(size_minus_two(s))


def networkx_minimum(members, weights) -> int:
    """Min over forced members of a networkx min cut, minus the offset.

    The network is rebuilt from the members and weights alone; arcs
    without a capacity attribute are infinite in networkx.
    """
    g = nx.DiGraph()
    for i, member in enumerate(members):
        g.add_edge("s", ("m", i), capacity=weights[i])
        for x in member:
            g.add_edge(("m", i), ("x", x))
    for x in {x for member in members for x in member}:
        g.add_edge(("x", x), "t", capacity=1)
    values = []
    for i in range(len(members)):
        arc = g["s"][("m", i)]
        del arc["capacity"]
        value, _ = nx.minimum_cut(g, "s", "t", flow_func=nx.flow.boykov_kolmogorov)
        values.append(value)
        arc["capacity"] = weights[i]
    return min(values) - sum(weights)


def reference_minimize(members, weights):
    """(value, witness, cut) by the forced-member loop: one cold max flow by
    BFS augmentation, then a BFS-augmented copy of its residual per member
    with that member's source arc raised, the least (value, member) kept.

    The network is built arc by arc with `add_arc`, numbered as
    `_minimize_surplus` numbers it, so the cut arcs carry the same nodes
    in the same order.
    """
    k = len(members)
    present = sorted({x for member in members for x in member})
    cinf = sum(weights) + len(present) + 1
    net = FlowNetwork(2 + k + len(present), 0, 1)
    taxa = {x: 2 + k + p for p, x in enumerate(present)}
    source_arcs = []
    for i in range(k):
        source_arcs.append(len(net.arc_to))
        net.add_arc(net.source, 2 + i, weights[i])
        for x in members[i]:
            net.add_arc(2 + i, taxa[x], cinf)
    for node in taxa.values():
        net.add_arc(node, net.sink, 1)

    def reachable(cap):
        prev = {net.source: None}
        queue = deque([net.source])
        while queue:
            u = queue.popleft()
            for a in net.adj[u]:
                if cap[a] > 0 and net.arc_to[a] not in prev:
                    prev[net.arc_to[a]] = a
                    queue.append(net.arc_to[a])
        return prev

    def augment(cap):
        added = 0
        while net.sink in (prev := reachable(cap)):
            v = net.sink
            while v != net.source:
                a = prev[v]
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = net.arc_to[a ^ 1]
            added += 1
        return added

    base = list(net.arc_cap)
    flow = augment(base)
    best = None
    for i in range(k):
        cap = list(base)
        cap[source_arcs[i]] += cinf - weights[i]
        value = flow + augment(cap) - sum(weights)
        if best is None or value < best[0]:
            best = (value, cap)
    value, cap = best
    side = reachable(cap)
    witness = tuple(i for i in range(k) if 2 + i in side)
    cut = tuple((u, net.arc_to[a], net.arc_cap[a])
                for u in sorted(side) for a in net.adj[u]
                if a % 2 == 0 and net.arc_to[a] not in side)
    return value, witness, cut


def assert_matches_reference(members, weights, report):
    assert (report.value, report.witness, report.cut) == reference_minimize(members, weights)


def assert_cut_certifies(members, weights, report):
    """Cut = uncut members' weights + taxa of the witness = value + offset."""
    assert report.witness
    covered = {x for i in report.witness for x in members[i]}
    outside = sum(w for i, w in enumerate(weights) if i not in report.witness)
    assert outside + len(covered) == report.value + report.offset
    assert sum(c for _, _, c in report.cut) == report.value + report.offset
    assert {v for u, v, _ in report.cut if u == 0} == {
        2 + i for i in range(len(members)) if i not in report.witness
    }


class TestOracles:
    def test_random_systems_against_networkx_and_exhaustive(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(320):
            sizes = rng.choice([(2, 3), (3,), (3, 4, 5), (2, 3, 4, 5)])
            s = random_system(rng, rng.randint(5, 10), rng.randint(1, 12), sizes)
            for measure, weights in weightings(s):
                report = _minimize_surplus(s.members, weights)
                assert report.value == networkx_minimum(s.members, weights)
                assert report.value == brute_minimum(s, measure)[0]
                assert_cut_certifies(s.members, weights, report)
                assert_matches_reference(s.members, weights, report)
                assert report.forced_members == s.member_count
                assert 1 <= report.forced_solves <= s.member_count
                checked += 1
        assert checked >= 300

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(
        st.frozensets(st.sampled_from(ALPHA[:8]), min_size=2, max_size=5),
        min_size=1, max_size=8, unique=True,
    ))
    def test_property_minimum_equals_exhaustive(self, members):
        s = SetSystem([sorted(m) for m in members])
        for measure, weights in weightings(s):
            report = _minimize_surplus(s.members, weights)
            assert report.value == brute_minimum(s, measure)[0]
            assert_cut_certifies(s.members, weights, report)


    def test_property_matches_forced_member_reference(self):
        """Members of size 2-5 under both weightings; sigma on members of
        size 4 or more reaches the forced-augmentation fallback."""
        fallbacks = []

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(st.sampled_from([2, 3]).flatmap(lambda least: st.lists(
            st.frozensets(st.sampled_from(ALPHA[:8]), min_size=least, max_size=5),
            min_size=1, max_size=8, unique=True,
        )))
        def check(members):
            s = SetSystem([sorted(m) for m in members])
            for _, weights in weightings(s):
                report = _minimize_surplus(s.members, weights)
                assert_matches_reference(s.members, weights, report)
                fallbacks.append(report.forced_solves > 1)

        check()
        assert any(fallbacks)


def chain_names(n: int) -> list[str]:
    """n labels in shuffled order, so label order is not chain order."""
    names = [f"t{i:05d}" for i in range(n)]
    random.Random(3).shuffle(names)
    return names


class TestLarge:
    """10,000-member chains; each bound is several times the measured time
    (2-vCPU Xeon VM, CPython 3.11), noted per test."""

    def test_sigma_star_and_check_thin_10000_triple_chain(self):
        # Measured: about 0.45 s for sigma_star and 0.4 s for is_thin.
        names = chain_names(10_002)
        s = SetSystem([names[i:i + 3] for i in range(10_000)])
        start = time.perf_counter()
        report = sigma_star(s)
        verdict = is_thin(s)
        assert time.perf_counter() - start < 5.0
        assert report.value == 2 and report.forced_members == 10_000
        assert report.forced_solves == 1
        assert verdict.verdict and verdict.stats["forced_solves"] == 1

    def test_median_caterpillar_10000_triple_chain(self):
        # Measured: about 1.5 s.
        names = chain_names(10_002)
        s = SetSystem([sorted(names[i:i + 3]) for i in range(10_000)])
        start = time.perf_counter()
        report = caterpillar_median_representation(s)
        assert time.perf_counter() - start < 8.0
        assert len(set(report.vertex_map.values())) == 10_000

    def test_lca_caterpillar_10000_pair_path(self):
        # Measured: about 0.5 s.
        names = chain_names(10_001)
        s = SetSystem([sorted(names[i:i + 2]) for i in range(10_000)])
        start = time.perf_counter()
        report = lca_caterpillar_representation(s)
        assert time.perf_counter() - start < 4.0
        assert len(set(report.vertex_map.values())) == 10_000

    def test_cli_check_thin_10000_triple_chain(self, tmp_path):
        # Measured: about 0.7 s for the whole process.
        names = chain_names(10_002)
        path = tmp_path / "chain.sets"
        path.write_text("".join(",".join(names[i:i + 3]) + "\n" for i in range(10_000)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "check", "thin", str(path), "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 0 and proc.stderr == ""
        assert '"forced_solves": 1' in proc.stdout

    # Labels of a 10,002-taxon sdr chain: B, its first two taxa, sort
    # last, so canonical member order is chain order (the members
    # holding B near the front) and members added on B come after the
    # chain.  A Kuhn search took about 20 s on each case below.
    SDR_CHAIN = ["z0", "z1"] + [f"t{i:05d}" for i in range(2, 10_002)]

    def test_sdr_10000_triple_chain(self):
        # Measured: about 0.16 s.
        names = self.SDR_CHAIN
        s = SetSystem([names[i:i + 3] for i in range(10_000)])
        start = time.perf_counter()
        report = sdr(s, names[:2])
        assert time.perf_counter() - start < 3.0
        representatives = {
            frozenset(map(s.label_of, s.members[i])): s.label_of(x)
            for i, x in report.certificate.items()
        }
        assert representatives == {frozenset(names[i:i + 3]): names[i + 2]
                                   for i in range(10_000)}

    def test_sdr_10000_triple_chain_with_violator(self):
        # Measured: about 0.17 s.  The three added members' derived sets
        # lie in {a, b}, so all 10,003 members have deficiency 3.
        names = self.SDR_CHAIN
        a, b = names[-2:]
        added = [[a, b, names[0]], [a, b, names[1]], [a, names[0], names[1]]]
        s = SetSystem([names[i:i + 3] for i in range(10_000)] + added)
        start = time.perf_counter()
        report = sdr(s, names[:2])
        assert time.perf_counter() - start < 3.0
        assert not report.verdict
        assert deficiency(derived_sets(s, names[:2]), report.certificate) == 3


class TestThinSlim:
    def test_fig1(self):
        assert is_thin(tsys(*FIG1)).verdict
        assert not is_thin(tsys(*FIG1P)).verdict

    def test_triangle_pairs_not_thin(self):
        report = is_thin(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]))
        assert not report.verdict
        assert report.stats["sigma_star"] == 0
        assert all(type(value) is int for value in report.stats.values())

    def test_agreement_with_exhaustive(self):
        rng = random.Random(31)
        for _ in range(80):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 1, 8), rng.randint(1, 6), (r,))
            assert is_thin(s).verdict == is_thin_exhaustive(s).verdict
        for _ in range(80):
            s = random_system(rng, rng.randint(4, 8), rng.randint(1, 6), (3, 4))
            assert is_slim(s).verdict == is_slim_exhaustive(s).verdict

    def test_work_counters(self):
        for check, system in ((is_thin, tsys(*FIG1)),
                              (is_slim, tsys("abcd", "cdef"))):
            stats = check(system).stats
            assert type(stats["augmenting_paths"]) is int
            assert stats["augmenting_paths"] > 0
            assert stats["forced_members"] == system.member_count
            assert stats["forced_solves"] == 1
            assert check(system).stats == stats

    def test_non_uniform_rejected(self):
        with pytest.raises(MemberSizeError):
            is_thin(SetSystem([["a", "b"], ["a", "b", "c"]]))


class TestSdr:
    def test_fig1(self):
        s = tsys(*FIG1)
        report = sdr(s, ["a", "b"])
        assert report.verdict and report.method == "maxflow"
        derived = [tuple(s.label_of(x) for x in d) for d in derived_sets(s, ["a", "b"])]
        assert derived == [("c",), ("d",), ("c", "e"), ("d", "e", "f")]
        values = [s.label_of(x) for _, x in sorted(report.certificate.items())]
        assert values == ["c", "d", "e", "f"]

    def test_assignment_is_injective_and_valid(self):
        s = tsys(*FIG1)
        report = sdr(s, ["a", "b"])
        assert_distinct_representatives(report, derived_sets(s, ["a", "b"]))

    def test_single_member(self):
        s = tsys("abc")
        report = sdr(s, ["a", "b"])
        assert report.certificate == {0: s.id_of("c")}

    def test_fig1_prime_hall_violator(self):
        s = tsys(*FIG1P)
        report = sdr(s, ["a", "c"])
        assert not report.verdict and report.method == "maxflow"
        derived = derived_sets(s, ["a", "c"])
        derived = [set(s.label_of(x) for x in derived[i]) for i in report.certificate]
        assert derived == [{"b"}, {"b", "d"}, {"b", "e"}, {"b", "d", "e"}]
        union = set().union(*derived)
        assert len(union) < len(report.certificate)

    def test_b_size_checked(self):
        with pytest.raises(InputError):
            sdr(tsys(*FIG1), ["a"])

    @pytest.mark.parametrize("B", [["a", "a"], ["a", 0], (x for x in ("b", "b"))])
    def test_b_repeating_a_taxon_is_reported(self, B):
        # B may be any iterable, a generator included, of labels or ids.
        with pytest.raises(InputError, match="^B repeats taxon '[ab]'$"):
            sdr(tsys(*FIG1), B)

    def test_thin_systems_always_succeed(self):
        rng = random.Random(37)
        from conftest import random_thin_triples

        for _ in range(25):
            s = random_thin_triples(rng, rng.randint(5, 8), 5)
            labels = s.leaf_labels()
            for _ in range(5):
                B = rng.sample(labels, 2)
                assert sdr(s, B).verdict


def recursive_sdr(system: SetSystem, B):
    """Kuhn's recursive augmenting-path matching, which `sdr` used before
    it became one max flow: (assignment, violator) for the same derived
    sets.  Its assignment and first-failure violator depend on search
    order, so tests compare only the verdict with it, and whole answers
    where the representatives are unique."""
    derived = derived_sets(system, B)
    match_of_taxon: dict[int, int] = {}
    match_of_member: dict[int, int] = {}

    def try_assign(i: int, visited: set[int]) -> bool:
        for x in derived[i]:
            if x in visited:
                continue
            visited.add(x)
            holder = match_of_taxon.get(x)
            if holder is None or try_assign(holder, visited):
                match_of_taxon[x] = i
                match_of_member[i] = x
                return True
        return False

    for i in range(system.member_count):
        if not try_assign(i, set()):
            members, taxa, frontier = {i}, set(), [i]
            while frontier:
                nxt = []
                for j in frontier:
                    for x in derived[j]:
                        if x not in taxa:
                            taxa.add(x)
                            holder = match_of_taxon.get(x)
                            if holder is not None and holder not in members:
                                members.add(holder)
                                nxt.append(holder)
                frontier = nxt
            return None, tuple(sorted(members))
    return dict(sorted(match_of_member.items())), None


def derived_sets(system: SetSystem, B) -> list[tuple[int, ...]]:
    """The derived sets s - B as taxon-id tuples, in member order."""
    b_ids = {system.id_of(x) for x in B}
    return [tuple(x for x in m if x not in b_ids) for m in system.members]


def deficiency(derived, members) -> int:
    """Members minus the taxa their derived sets cover (Hall deficiency)."""
    return len(members) - len({x for i in members for x in derived[i]})


def assert_distinct_representatives(report, derived):
    assignment = report.certificate
    chosen = list(assignment.values())
    assert sorted(assignment) == list(range(len(derived)))
    assert len(set(chosen)) == len(chosen)
    assert all(x in derived[i] for i, x in assignment.items())


class TestSdrAgainstRecursion:
    def test_random_systems(self):
        # `recursive_sdr` decides the verdict; the violator must be the
        # unique inclusion-minimal selection of maximum deficiency.
        rng = random.Random(47)
        outcomes = set()
        for _ in range(300):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 2, 10), rng.randint(1, 12), (r,))
            B = rng.sample(s.leaf_labels(), r - 1)
            report = sdr(s, B)
            derived = derived_sets(s, B)
            assert report.verdict == (recursive_sdr(s, B)[0] is not None)
            outcomes.add(report.verdict)
            if report.verdict:
                assert_distinct_representatives(report, derived)
                continue
            violator = report.certificate
            selections = [sel for n in range(1, s.member_count + 1)
                          for sel in combinations(range(s.member_count), n)]
            best = max(deficiency(derived, sel) for sel in selections)
            assert deficiency(derived, violator) == best >= 1
            assert all(set(violator) <= set(sel) for sel in selections
                       if deficiency(derived, sel) == best)
        assert outcomes == {True, False}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_deficiency_equals_hopcroft_karp(self, data):
        r = data.draw(st.sampled_from([2, 3, 4]))
        members = data.draw(st.lists(
            st.frozensets(st.sampled_from(ALPHA[:8]), min_size=r, max_size=r),
            min_size=1, max_size=10, unique=True,
        ))
        s = SetSystem([sorted(m) for m in members])
        B = data.draw(st.lists(st.sampled_from(s.leaf_labels()), min_size=r - 1,
                               max_size=r - 1, unique=True))
        report = sdr(s, B)
        derived = derived_sets(s, B)
        graph = nx.Graph()
        tops = [("member", i) for i in range(s.member_count)]
        graph.add_nodes_from(tops)
        graph.add_edges_from((("member", i), ("taxon", x))
                             for i, d in enumerate(derived) for x in d)
        matched = len(nx.bipartite.hopcroft_karp_matching(graph, tops)) // 2
        if report.verdict:
            assert_distinct_representatives(report, derived)
            assert matched == s.member_count
        else:
            assert deficiency(derived, report.certificate) == s.member_count - matched

    def test_long_augmenting_paths(self):
        # Each member of a chain first asks for a taxon its predecessor
        # holds, so augmenting paths run back along the chain; a chain's
        # representatives are unique.
        names = [f"t{i:03d}" for i in range(302)]
        for k in (50, 150, 300):
            s = SetSystem([names[i:i + 3] for i in range(k)])
            report = sdr(s, names[:2])
            assert report.verdict
            assert (report.certificate, None) == recursive_sdr(s, names[:2])


class TestForest:
    def test_path_is_forest(self):
        report = is_forest(SetSystem([["a", "b"], ["b", "c"]]))
        assert report == (True, "forest", None, {})

    def test_triangle_cycle(self):
        ok, _, cycle, _ = is_forest(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]))
        assert not ok
        assert len(cycle) == 6
        kinds = [kind for kind, _ in cycle]
        assert kinds == ["member", "taxon"] * 3

    def test_cycle_is_closed_walk(self):
        system = SetSystem([["a", "b"], ["b", "c"], ["a", "c"], ["c", "d"]])
        ok, _, cycle, _ = is_forest(system)
        assert not ok
        for pos, (kind, value) in enumerate(cycle):
            nkind, nvalue = cycle[(pos + 1) % len(cycle)]
            if kind == "member":
                assert nvalue in system.members[value]
            else:
                assert value in system.members[nvalue]

    def test_single_member_star(self):
        assert is_forest(tsys("abc")).verdict

    def test_pairs_forest_iff_sigma_star_positive(self):
        # The pair theorem behind the lca precondition.
        rng = random.Random(59)
        verdicts = set()
        for _ in range(300):
            taxa = ALPHA[: rng.randint(2, 9)]
            members = {
                tuple(sorted(rng.sample(taxa, 2))) for _ in range(rng.randint(1, 9))
            }
            extra = [x for x in ALPHA[9:12] if rng.random() < 0.5]
            s = SetSystem([list(m) for m in members], extra_taxa=extra)
            ok = is_forest(s).verdict
            assert ok == (sigma_star(s).value >= 1)
            verdicts.add(ok)
        assert verdicts == {True, False}


def backtracking_forest(system: SetSystem):
    """Reference: the lexicographically first degree-two forest by a
    depth-first search over each member's pairs in `combinations` order,
    with an undoable rank union-find; None if the search fails.
    Exponential in the worst case, so for small systems only."""
    k = system.member_count
    taxa = {x for member in system.members for x in member}
    parent = {x: x for x in taxa}
    rank = {x: 0 for x in taxa}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    trail = []

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        trail.append((ry, 0 if rank[rx] > rank[ry] else 1))
        parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        return True

    def undo(mark):
        while len(trail) > mark:
            child, bumped = trail.pop()
            if bumped:
                rank[find(child)] -= 1
            parent[child] = child

    choice = [None] * k

    def solve(i):
        if i == k:
            return True
        for x, y in combinations(system.members[i], 2):
            mark = len(trail)
            if union(x, y):
                choice[i] = (x, y)
                if solve(i + 1):
                    return True
                undo(mark)
        choice[i] = None
        return False

    if not solve(0):
        return None
    return tuple((i, x) for i in range(k) for x in choice[i])


def minimizer_calls(monkeypatch) -> list:
    """Record each `_minimize_surplus` call `surplus_forest` makes."""
    calls = []

    def counted(members, weights):
        calls.append(members)
        return _minimize_surplus(members, weights)

    monkeypatch.setattr(hall, "_minimize_surplus", counted)
    return calls


class TestSurplusForest:
    def test_fig1_has_forest(self):
        edges = surplus_forest(tsys(*FIG1))
        assert edges is not None
        per_member = {}
        for i, x in edges:
            per_member.setdefault(i, []).append(x)
        assert all(len(v) == 2 for v in per_member.values())

    def test_triangle_none(self):
        assert surplus_forest(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]])) is None

    def test_single_member(self):
        edges = surplus_forest(tsys("abc"))
        assert edges is not None and len(edges) == 2

    def test_exists_iff_sigma_star_positive(self):
        verdicts = set()
        for seed in (41, 42, 44, 45):
            rng = random.Random(seed)
            for _ in range(60):
                sizes = rng.choice([(2, 3), (3, 4), (2, 3, 4)])
                s = random_system(rng, rng.randint(3, 9), rng.randint(1, 8), sizes)
                edges = surplus_forest(s)
                assert (edges is not None) == (sigma_star(s).value >= 1)
                verdicts.add(edges is not None)
        assert verdicts == {True, False}

    def test_r2_thin_iff_forest(self):
        rng = random.Random(43)
        for _ in range(60):
            s = random_system(rng, rng.randint(3, 7), rng.randint(1, 6), (2,))
            ok = is_forest(s).verdict
            assert ok == is_thin(s).verdict

    def test_self_reduction_when_the_greedy_pass_fails(self, monkeypatch):
        # Members in canonical order ab, acd, bc.  The greedy pass gives
        # acd the pair {a,c}, and bc then closes a cycle; the first forest
        # gives acd the pair {a,d}.
        calls = minimizer_calls(monkeypatch)
        s = tsys("ab", "bc", "acd")
        edges = surplus_forest(s)
        assert edges == backtracking_forest(s) == ((0, 0), (0, 1), (1, 0), (1, 3), (2, 1), (2, 2))
        assert len(calls) > 1


class TestSurplusForestAgainstBacktracking:
    def test_random_systems(self, monkeypatch):
        calls = minimizer_calls(monkeypatch)
        rng = random.Random(47)
        outcomes = {"none": 0, "greedy": 0, "self-reduction": 0}
        for _ in range(400):
            s = random_system(rng, rng.randint(3, 9), rng.randint(1, 9), (2, 3, 4))
            calls.clear()
            edges = surplus_forest(s)
            assert edges == backtracking_forest(s)
            # The greedy pass runs no minimizer; a failed one runs it once
            # to decide, and more to fix the pairs when a forest exists.
            if edges is None:
                assert len(calls) == 1
                outcomes["none"] += 1
            else:
                outcomes["greedy" if not calls else "self-reduction"] += 1
        assert min(outcomes.values()) >= 10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(
        st.frozensets(st.sampled_from(ALPHA[:8]), min_size=2, max_size=4),
        min_size=1, max_size=8, unique=True,
    ))
    def test_property_first_forest(self, members):
        s = SetSystem([sorted(m) for m in members])
        assert surplus_forest(s) == backtracking_forest(s)


@contextmanager
def time_bound(seconds: float):
    """Raise TimeoutError once `seconds` pass, so that a search that runs
    far past its bound fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds}-s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSurplusForestLarge:
    """Each bound is about 8 times the measured time (2-vCPU Xeon VM,
    CPython 3.11), noted per test."""

    def test_10000_triple_chain(self, monkeypatch):
        # Measured: about 0.4 s.  Labels in chain order put the members in
        # chain order, so the greedy pass completes, with no minimizer.
        calls = minimizer_calls(monkeypatch)
        names = [f"t{i:05d}" for i in range(10_002)]
        s = SetSystem([names[i:i + 3] for i in range(10_000)])
        with time_bound(3.0):
            edges = surplus_forest(s)
        assert len(edges) == 20_000 and calls == []
        _verify_degree_two_forest(s.members, edges)

    def test_dense_20_taxon_systems(self):
        # Measured: about 0.45 s for all 47; 44 of them take the
        # self-reduction.
        rng = random.Random(11)
        systems = []
        while len(systems) < 47:
            s = random_system(rng, 20, 18, (3, 4))
            if sigma_star(s).value >= 1:
                systems.append(s)
        with time_bound(3.0):
            forests = [surplus_forest(s) for s in systems]
        for s, edges in zip(systems, forests):
            _verify_degree_two_forest(s.members, edges)

    def test_self_reduction_on_a_200_member_shuffled_chain(self, monkeypatch):
        # Measured: about 0.65 s, with 211 minimizer calls.  Shuffled
        # labels take the members out of chain order, and the greedy
        # pass fails.
        calls = minimizer_calls(monkeypatch)
        names = chain_names(203)
        s = SetSystem([names[i:i + 3 + i % 2] for i in range(200)])
        with time_bound(5.0):
            edges = surplus_forest(s)
        assert len(calls) > 1
        _verify_degree_two_forest(s.members, edges)


class TestVerifyDegreeTwoForest:
    """The self-check `surplus_forest` runs on its own result."""

    # Members abc, abd, bce, def with taxa a..f as ids 0..5.
    SYSTEM = tsys(*FIG1)
    MEMBERS = SYSTEM.members

    def test_found_forest_passes(self):
        _verify_degree_two_forest(self.MEMBERS, surplus_forest(self.SYSTEM))

    def test_cycle(self):
        # abc and abd both pick {a, b}: a-abc-b-abd-a.
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="found a cycle"):
            _verify_degree_two_forest(self.MEMBERS, edges)

    def test_repeated_edge(self):
        edges = [(0, 0), (0, 0), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="found a cycle"):
            _verify_degree_two_forest(self.MEMBERS, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 0), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)],
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)],
    ], ids=["degree-1", "degree-3"])
    def test_degree_other_than_two(self, edges):
        with pytest.raises(InternalVerificationError, match="degree differs from two"):
            _verify_degree_two_forest(self.MEMBERS, edges)

    def test_edge_outside_the_graph(self):
        # Member abc does not hold d (id 3).
        edges = [(0, 0), (0, 3), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="outside the graph"):
            _verify_degree_two_forest(self.MEMBERS, edges)
