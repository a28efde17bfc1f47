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
    incidence_graph,
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
from setflex import graphopt
from setflex.errors import InternalVerificationError
from setflex.graphopt import _minimize_surplus, _verify_degree_two_forest

SRC = Path(__file__).resolve().parents[1] / "src"


class TestIncidenceGraph:
    def test_path_pairs(self):
        g = incidence_graph(SetSystem([["a", "b"], ["b", "c"]]), "unit")
        assert g.member_count == 2
        assert g.taxon_labels == ("a", "b", "c")
        assert sum(map(len, g.adjacency)) == 4

    def test_triangle_pairs(self):
        g = incidence_graph(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]), "unit")
        assert g.member_count == 3 and len(g.taxa) == 3
        assert sum(map(len, g.adjacency)) == 6

    def test_single_member_star(self):
        g = incidence_graph(tsys("abc"), "unit")
        assert sum(map(len, g.adjacency)) == 3

    def test_weights(self):
        g = incidence_graph(tsys("abcd", "cdef"), "size_minus_two")
        assert g.weights == (2, 2)
        with pytest.raises(MemberSizeError):
            incidence_graph(SetSystem([["a", "b"]]), "size_minus_two")

    def test_unknown_weighting(self):
        with pytest.raises(InputError):
            incidence_graph(tsys("abc"), "squared")


class TestMaxFlow:
    def test_single_path(self):
        net = FlowNetwork()
        s, v, t = net.add_node("s"), net.add_node("v"), net.add_node("t")
        net.source, net.sink = s, t
        net.add_arc(s, v, 3)
        net.add_arc(v, t, 2)
        result = max_flow(net)
        assert result.value == 2
        assert sum(c for _, _, c in result.cut_arcs) == 2

    def test_parallel_paths(self):
        net = FlowNetwork()
        s, t = net.add_node("s"), net.add_node("t")
        net.source, net.sink = s, t
        for _ in range(3):
            v = net.add_node("v")
            net.add_arc(s, v, 1)
            net.add_arc(v, t, 1)
        assert max_flow(net).value == 3

    def test_fig1_forced_member_network(self):
        # Source -> members at weight 1 (the forced one at the sentinel),
        # containment arcs at the sentinel, taxa -> sink at 1.  The cut for
        # forced member a,b,c equals total weight + min sigma over
        # selections containing it, which is sigma* = 2 here.
        s = tsys(*FIG1)
        net = FlowNetwork()
        net.source = net.add_node("source")
        net.sink = net.add_node("sink")
        members = [net.add_node(f"m{i}") for i in range(4)]
        taxa = {x: net.add_node(lab) for x, lab in enumerate("abcdef")}
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
            net = FlowNetwork()
            n = rng.randint(2, 7)
            nodes = [net.add_node(str(i)) for i in range(n)]
            net.source, net.sink = nodes[0], nodes[-1]
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.4:
                        net.add_arc(nodes[u], nodes[v], rng.randint(0, 5))
            result = max_flow(net)
            assert result.value == sum(c for _, _, c in result.cut_arcs)
            assert net.source in result.source_side
            assert net.sink not in result.source_side


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


def networkx_minimum(graph) -> int:
    """Min over forced members of a networkx min cut, minus the offset.

    The network is rebuilt from the incidence graph alone; arcs without
    a capacity attribute are infinite in networkx.
    """
    g = nx.DiGraph()
    for i in range(graph.member_count):
        g.add_edge("s", ("m", i), capacity=graph.weights[i])
        for x in graph.adjacency[i]:
            g.add_edge(("m", i), ("x", x))
    for x in graph.taxa:
        g.add_edge(("x", x), "t", capacity=1)
    values = []
    for i in range(graph.member_count):
        arc = g["s"][("m", i)]
        del arc["capacity"]
        value, _ = nx.minimum_cut(g, "s", "t", flow_func=nx.flow.boykov_kolmogorov)
        values.append(value)
        arc["capacity"] = graph.weights[i]
    return min(values) - sum(graph.weights)


def reference_minimize(graph):
    """(value, witness, cut) by the forced-member loop: one cold max flow by
    BFS augmentation, then a BFS-augmented copy of its residual per member
    with that member's source arc raised, the least (value, member) kept.

    The network is built as `_minimize_surplus` builds it, so the cut arcs
    carry the same names in the same order.
    """
    k = graph.member_count
    cinf = sum(graph.weights) + len(graph.taxa) + 1
    net = FlowNetwork()
    net.source, net.sink = net.add_node("source"), net.add_node("sink")
    members = [net.add_node(f"member:{i}") for i in range(k)]
    taxa = {x: net.add_node(f"taxon:{lab}")
            for x, lab in zip(graph.taxa, graph.taxon_labels)}
    source_arcs = []
    for i in range(k):
        source_arcs.append(len(net.arc_to))
        net.add_arc(net.source, members[i], graph.weights[i])
        for x in graph.adjacency[i]:
            net.add_arc(members[i], taxa[x], cinf)
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
        cap[source_arcs[i]] += cinf - graph.weights[i]
        value = flow + augment(cap) - sum(graph.weights)
        if best is None or value < best[0]:
            best = (value, cap)
    value, cap = best
    side = reachable(cap)
    witness = tuple(i for i in range(k) if members[i] in side)
    cut = tuple((net.names[u], net.names[net.arc_to[a]], net.arc_cap[a])
                for u in sorted(side) for a in net.adj[u]
                if a % 2 == 0 and net.arc_to[a] not in side)
    return value, witness, cut


def assert_matches_reference(graph, report):
    assert (report.value, report.witness, report.cut) == reference_minimize(graph)


def assert_cut_certifies(graph, report):
    """Cut = uncut members' weights + taxa of the witness = value + offset."""
    assert report.witness
    covered = {x for i in report.witness for x in graph.adjacency[i]}
    outside = sum(w for i, w in enumerate(graph.weights) if i not in report.witness)
    assert outside + len(covered) == report.value + report.offset
    assert sum(c for _, _, c in report.cut) == report.value + report.offset
    assert {v for u, v, _ in report.cut if u == "source"} == {
        f"member:{i}" for i in range(graph.member_count) if i not in report.witness
    }


class TestOracles:
    def test_random_systems_against_networkx_and_exhaustive(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(320):
            sizes = rng.choice([(2, 3), (3,), (3, 4, 5), (2, 3, 4, 5)])
            s = random_system(rng, rng.randint(5, 10), rng.randint(1, 12), sizes)
            for weighting, measure in (("unit", "sigma"), ("size_minus_two", "gamma")):
                if weighting == "size_minus_two" and any(len(m) < 3 for m in s.members):
                    continue
                graph = incidence_graph(s, weighting)
                report = _minimize_surplus(graph)
                assert report.value == networkx_minimum(graph)
                assert report.value == brute_minimum(s, measure)[0]
                assert_cut_certifies(graph, report)
                assert_matches_reference(graph, report)
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
        weightings = [("unit", "sigma")]
        if all(len(m) >= 3 for m in s.members):
            weightings.append(("size_minus_two", "gamma"))
        for weighting, measure in weightings:
            graph = incidence_graph(s, weighting)
            report = _minimize_surplus(graph)
            assert report.value == brute_minimum(s, measure)[0]
            assert_cut_certifies(graph, report)


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
            weightings = ["unit"]
            if all(len(m) >= 3 for m in s.members):
                weightings.append("size_minus_two")
            for weighting in weightings:
                graph = incidence_graph(s, weighting)
                report = _minimize_surplus(graph)
                assert_matches_reference(graph, report)
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
        verdict = is_thin(s, 3)
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
        assert report.verified and len(set(report.vertex_map.values())) == 10_000

    def test_lca_caterpillar_10000_pair_path(self):
        # Measured: about 0.5 s.
        names = chain_names(10_001)
        s = SetSystem([sorted(names[i:i + 2]) for i in range(10_000)])
        start = time.perf_counter()
        report = lca_caterpillar_representation(s)
        assert time.perf_counter() - start < 4.0
        assert report.verified and len(set(report.vertex_map.values())) == 10_000

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
            for i, x in report.assignment.items()
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
        assert not report.found
        assert deficiency(report.derived, report.violator) == 3


class TestThinSlim:
    def test_fig1(self):
        assert is_thin(tsys(*FIG1), 3).verdict
        assert not is_thin(tsys(*FIG1P), 3).verdict

    def test_triangle_pairs_not_thin(self):
        report = is_thin(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]), 2)
        assert not report.verdict
        assert report.stats["sigma_star"] == 0
        assert "note" in report.stats

    def test_agreement_with_exhaustive(self):
        rng = random.Random(31)
        for _ in range(80):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 1, 8), rng.randint(1, 6), (r,))
            assert is_thin(s, r).verdict == is_thin_exhaustive(s, r).verdict
        for _ in range(80):
            s = random_system(rng, rng.randint(4, 8), rng.randint(1, 6), (3, 4))
            assert is_slim(s).verdict == is_slim_exhaustive(s).verdict

    def test_work_counters(self):
        for check, system in ((lambda s: is_thin(s, 3), tsys(*FIG1)),
                              (is_slim, tsys("abcd", "cdef"))):
            stats = check(system).stats
            assert type(stats["augmenting_paths"]) is int
            assert stats["augmenting_paths"] > 0
            assert stats["forced_members"] == system.member_count
            assert stats["forced_solves"] == 1
            assert check(system).stats == stats

    def test_non_uniform_rejected(self):
        with pytest.raises(MemberSizeError):
            is_thin(SetSystem([["a", "b"], ["a", "b", "c"]]), 3)


class TestSdr:
    def test_fig1(self):
        s = tsys(*FIG1)
        report = sdr(s, ["a", "b"])
        assert report.found
        derived = [tuple(s.label_of(x) for x in d) for d in report.derived]
        assert derived == [("c",), ("d",), ("c", "e"), ("d", "e", "f")]
        values = [s.label_of(x) for _, x in sorted(report.assignment.items())]
        assert values == ["c", "d", "e", "f"]

    def test_assignment_is_injective_and_valid(self):
        s = tsys(*FIG1)
        report = sdr(s, ["a", "b"])
        chosen = list(report.assignment.values())
        assert len(set(chosen)) == len(chosen)
        for i, x in report.assignment.items():
            assert x in report.derived[i]

    def test_single_member(self):
        s = tsys("abc")
        report = sdr(s, ["a", "b"])
        assert report.assignment == {0: s.id_of("c")}

    def test_fig1_prime_hall_violator(self):
        s = tsys(*FIG1P)
        report = sdr(s, ["a", "c"])
        assert not report.found
        derived = [set(s.label_of(x) for x in report.derived[i]) for i in report.violator]
        assert derived == [{"b"}, {"b", "d"}, {"b", "e"}, {"b", "d", "e"}]
        union = set().union(*derived)
        assert len(union) < len(report.violator)

    def test_b_size_checked(self):
        with pytest.raises(InputError):
            sdr(tsys(*FIG1), ["a"])

    def test_thin_systems_always_succeed(self):
        rng = random.Random(37)
        from conftest import random_thin_triples

        for _ in range(25):
            s = random_thin_triples(rng, rng.randint(5, 8), 5)
            labels = s.leaf_labels()
            for _ in range(5):
                B = rng.sample(labels, 2)
                assert sdr(s, B).found


def recursive_sdr(system: SetSystem, B):
    """Kuhn's recursive augmenting-path matching, which `sdr` used before
    it became one max flow: (assignment, violator) for the same derived
    sets.  Its assignment and first-failure violator depend on search
    order, so tests compare only `found` with it, and whole reports
    where the representatives are unique."""
    b_ids = {system.id_of(x) for x in B}
    derived = [tuple(x for x in m if x not in b_ids) for m in system.members]
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


def deficiency(derived, members) -> int:
    """Members minus the taxa their derived sets cover (Hall deficiency)."""
    return len(members) - len({x for i in members for x in derived[i]})


def assert_distinct_representatives(report):
    chosen = list(report.assignment.values())
    assert sorted(report.assignment) == list(range(len(report.derived)))
    assert len(set(chosen)) == len(chosen)
    assert all(x in report.derived[i] for i, x in report.assignment.items())


class TestSdrAgainstRecursion:
    def test_random_systems(self):
        # `recursive_sdr` decides `found`; the violator must be the
        # unique inclusion-minimal selection of maximum deficiency.
        rng = random.Random(47)
        outcomes = set()
        for _ in range(300):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 2, 10), rng.randint(1, 12), (r,))
            B = rng.sample(s.leaf_labels(), r - 1)
            report = sdr(s, B)
            assert report.found == (recursive_sdr(s, B)[0] is not None)
            outcomes.add(report.found)
            if report.found:
                assert_distinct_representatives(report)
                continue
            assert report.assignment is None
            selections = [sel for n in range(1, s.member_count + 1)
                          for sel in combinations(range(s.member_count), n)]
            best = max(deficiency(report.derived, sel) for sel in selections)
            assert deficiency(report.derived, report.violator) == best >= 1
            assert all(set(report.violator) <= set(sel) for sel in selections
                       if deficiency(report.derived, sel) == best)
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
        graph = nx.Graph()
        tops = [("member", i) for i in range(s.member_count)]
        graph.add_nodes_from(tops)
        graph.add_edges_from((("member", i), ("taxon", x))
                             for i, d in enumerate(report.derived) for x in d)
        matched = len(nx.bipartite.hopcroft_karp_matching(graph, tops)) // 2
        if report.found:
            assert_distinct_representatives(report)
            assert matched == s.member_count
        else:
            assert deficiency(report.derived, report.violator) == s.member_count - matched

    def test_long_augmenting_paths(self):
        # Each member of a chain first asks for a taxon its predecessor
        # holds, so augmenting paths run back along the chain; a chain's
        # representatives are unique.
        names = [f"t{i:03d}" for i in range(302)]
        for k in (50, 150, 300):
            s = SetSystem([names[i:i + 3] for i in range(k)])
            report = sdr(s, names[:2])
            assert (report.assignment, report.violator) == recursive_sdr(s, names[:2])


class TestForest:
    def test_path_is_forest(self):
        ok, cycle = is_forest(incidence_graph(SetSystem([["a", "b"], ["b", "c"]]), "unit"))
        assert ok and cycle is None

    def test_triangle_cycle(self):
        ok, cycle = is_forest(
            incidence_graph(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]), "unit")
        )
        assert not ok
        assert len(cycle) == 6
        kinds = [kind for kind, _ in cycle]
        assert kinds == ["member", "taxon"] * 3

    def test_cycle_is_closed_walk(self):
        system = SetSystem([["a", "b"], ["b", "c"], ["a", "c"], ["c", "d"]])
        graph = incidence_graph(system, "unit")
        ok, cycle = is_forest(graph)
        assert not ok
        for pos, (kind, value) in enumerate(cycle):
            nkind, nvalue = cycle[(pos + 1) % len(cycle)]
            if kind == "member":
                assert nvalue in graph.adjacency[value]
            else:
                assert value in graph.adjacency[nvalue]

    def test_single_member_star(self):
        ok, _ = is_forest(incidence_graph(tsys("abc"), "unit"))
        assert ok

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
            ok, _ = is_forest(incidence_graph(s, "unit"))
            assert ok == (sigma_star(s).value >= 1)
            verdicts.add(ok)
        assert verdicts == {True, False}


def backtracking_forest(graph):
    """Reference: the lexicographically first degree-two forest by a
    depth-first search over each member's pairs in `combinations` order,
    with an undoable rank union-find; None if the search fails.
    Exponential in the worst case, so for small systems only."""
    k = graph.member_count
    parent = {x: x for x in graph.taxa}
    rank = {x: 0 for x in graph.taxa}

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
        for x, y in combinations(graph.adjacency[i], 2):
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

    def counted(graph):
        calls.append(graph)
        return _minimize_surplus(graph)

    monkeypatch.setattr(graphopt, "_minimize_surplus", counted)
    return calls


class TestSurplusForest:
    def test_fig1_has_forest(self):
        g = incidence_graph(tsys(*FIG1), "unit")
        edges = surplus_forest(g)
        assert edges is not None
        per_member = {}
        for i, x in edges:
            per_member.setdefault(i, []).append(x)
        assert all(len(v) == 2 for v in per_member.values())

    def test_triangle_none(self):
        g = incidence_graph(SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]), "unit")
        assert surplus_forest(g) is None

    def test_single_member(self):
        edges = surplus_forest(incidence_graph(tsys("abc"), "unit"))
        assert edges is not None and len(edges) == 2

    def test_exists_iff_sigma_star_positive(self):
        verdicts = set()
        for seed in (41, 42, 44, 45):
            rng = random.Random(seed)
            for _ in range(60):
                sizes = rng.choice([(2, 3), (3, 4), (2, 3, 4)])
                s = random_system(rng, rng.randint(3, 9), rng.randint(1, 8), sizes)
                edges = surplus_forest(incidence_graph(s, "unit"))
                assert (edges is not None) == (sigma_star(s).value >= 1)
                verdicts.add(edges is not None)
        assert verdicts == {True, False}

    def test_requires_unit_weights(self):
        with pytest.raises(InputError):
            surplus_forest(incidence_graph(tsys("abcd"), "size_minus_two"))

    def test_r2_thin_iff_forest(self):
        rng = random.Random(43)
        for _ in range(60):
            s = random_system(rng, rng.randint(3, 7), rng.randint(1, 6), (2,))
            ok, _ = is_forest(incidence_graph(s, "unit"))
            assert ok == is_thin(s, 2).verdict

    def test_self_reduction_when_the_greedy_pass_fails(self, monkeypatch):
        # Members in canonical order ab, acd, bc.  The greedy pass gives
        # acd the pair {a,c}, and bc then closes a cycle; the first forest
        # gives acd the pair {a,d}.
        calls = minimizer_calls(monkeypatch)
        g = incidence_graph(tsys("ab", "bc", "acd"), "unit")
        edges = surplus_forest(g)
        assert edges == backtracking_forest(g) == ((0, 0), (0, 1), (1, 0), (1, 3), (2, 1), (2, 2))
        assert len(calls) > 1


class TestSurplusForestAgainstBacktracking:
    def test_random_systems(self, monkeypatch):
        calls = minimizer_calls(monkeypatch)
        rng = random.Random(47)
        outcomes = {"none": 0, "greedy": 0, "self-reduction": 0}
        for _ in range(400):
            s = random_system(rng, rng.randint(3, 9), rng.randint(1, 9), (2, 3, 4))
            g = incidence_graph(s, "unit")
            calls.clear()
            edges = surplus_forest(g)
            assert edges == backtracking_forest(g)
            if edges is None:
                outcomes["none"] += 1
            else:
                outcomes["greedy" if len(calls) == 1 else "self-reduction"] += 1
        assert min(outcomes.values()) >= 10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(
        st.frozensets(st.sampled_from(ALPHA[:8]), min_size=2, max_size=4),
        min_size=1, max_size=8, unique=True,
    ))
    def test_property_first_forest(self, members):
        g = incidence_graph(SetSystem([sorted(m) for m in members]), "unit")
        assert surplus_forest(g) == backtracking_forest(g)


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
        # chain order, so the greedy pass completes.
        calls = minimizer_calls(monkeypatch)
        names = [f"t{i:05d}" for i in range(10_002)]
        g = incidence_graph(SetSystem([names[i:i + 3] for i in range(10_000)]), "unit")
        with time_bound(3.0):
            edges = surplus_forest(g)
        assert len(edges) == 20_000 and len(calls) == 1
        _verify_degree_two_forest(g, edges)

    def test_dense_20_taxon_systems(self):
        # Measured: about 0.45 s for all 47; 44 of them take the
        # self-reduction.
        rng = random.Random(11)
        graphs = []
        while len(graphs) < 47:
            s = random_system(rng, 20, 18, (3, 4))
            if sigma_star(s).value >= 1:
                graphs.append(incidence_graph(s, "unit"))
        with time_bound(3.0):
            forests = [surplus_forest(g) for g in graphs]
        for g, edges in zip(graphs, forests):
            _verify_degree_two_forest(g, edges)

    def test_self_reduction_on_a_200_member_shuffled_chain(self, monkeypatch):
        # Measured: about 0.65 s, with 211 minimizer calls.  Shuffled
        # labels take the members out of chain order, and the greedy
        # pass fails.
        calls = minimizer_calls(monkeypatch)
        names = chain_names(203)
        s = SetSystem([names[i:i + 3 + i % 2] for i in range(200)])
        g = incidence_graph(s, "unit")
        with time_bound(5.0):
            edges = surplus_forest(g)
        assert len(calls) > 1
        _verify_degree_two_forest(g, edges)


class TestVerifyDegreeTwoForest:
    """The self-check `surplus_forest` runs on its own result."""

    # Members abc, abd, bce, def with taxa a..f as ids 0..5.
    GRAPH = incidence_graph(tsys(*FIG1), "unit")

    def test_found_forest_passes(self):
        _verify_degree_two_forest(self.GRAPH, surplus_forest(self.GRAPH))

    def test_cycle(self):
        # abc and abd both pick {a, b}: a-abc-b-abd-a.
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="found a cycle"):
            _verify_degree_two_forest(self.GRAPH, edges)

    def test_repeated_edge(self):
        edges = [(0, 0), (0, 0), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="found a cycle"):
            _verify_degree_two_forest(self.GRAPH, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 0), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)],
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)],
    ], ids=["degree-1", "degree-3"])
    def test_degree_other_than_two(self, edges):
        with pytest.raises(InternalVerificationError, match="degree differs from two"):
            _verify_degree_two_forest(self.GRAPH, edges)

    def test_edge_outside_the_graph(self):
        # Member abc does not hold d (id 3).
        edges = [(0, 0), (0, 3), (1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
        with pytest.raises(InternalVerificationError, match="outside the graph"):
            _verify_degree_two_forest(self.GRAPH, edges)
