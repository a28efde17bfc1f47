"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every expected value here is exact; the per-criterion
wall-clock limits are asserted as stated.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from setflex import (
    SetSystem,
    build_supertree,
    caterpillar_median_representation,
    check_submodular_pair,
    count_displaying,
    defining_triples,
    disjoint_count_formula,
    excess_uniform,
    gamma_star,
    incidence_graph,
    is_flexible_bruteforce,
    is_forest,
    is_slim,
    is_thin,
    is_thin_exhaustive,
    is_total_order_flexible,
    is_unique_display,
    lca_caterpillar_representation,
    occurrence_count,
    parse_triple,
    patchwork_check,
    sdr,
    sigma_star,
)
from setflex.flex import enumerate_binary_trees
from conftest import (
    ALPHA,
    FIG1,
    FIG1P,
    FIG3,
    brute_minimum,
    count_displaying_hosts,
    oracle_gamma,
    oracle_sigma,
    random_slim_system,
    random_thin_triples,
    tsys,
)


@contextmanager
def criterion(num: int, limit_s: float, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {description}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    mark = "PASS" if ok else "FAIL"
    print(
        f"criterion {num:2d} {mark}  {description} "
        f"[{elapsed:.2f}s / {limit_s:.0f}s]",
        flush=True,
    )
    assert ok, f"criterion {num} exceeded its {limit_s}s limit ({elapsed:.2f}s)"


def test_criterion_1_fig1_golden():
    with criterion(1, 1.0, "Fig. 1 golden values"):
        tau = tsys(*FIG1)
        assert is_thin(tau, 3).verdict
        assert is_thin_exhaustive(tau, 3).verdict
        scan = is_flexible_bruteforce(tau)
        assert scan.verdict and scan.assignments_checked == 81

        taup = tsys(*FIG1P)
        assert excess_uniform(taup, range(5), 3) == -1
        assert not is_thin(taup, 3).verdict
        report = is_thin_exhaustive(taup, 3)
        assert not report.verdict and report.certificate.value == -1

        assignment = [parse_triple(t) for t in
                      ("a,b|c", "b,d|a", "b,c|e", "d,f|e", "b,e|d")]
        result = build_supertree(assignment)
        assert not result.compatible
        assert result.witness == ("a", "b", "c", "d", "e", "f")


def test_criterion_2_thin_equivalence():
    with criterion(2, 120.0, "flexibility = thin on all |X|=5 plus 500 random |X|=6"):
        pool = [tuple(sorted(c)) for c in combinations("abcde", 3)]
        for mask in range(1, 1 << 10):
            members = [pool[i] for i in range(10) if mask >> i & 1]
            s = SetSystem([list(m) for m in members])
            thin = is_thin(s, 3).verdict
            assert thin == is_thin_exhaustive(s, 3).verdict
            if len(members) <= 3:
                assert is_flexible_bruteforce(s).verdict == thin
            else:
                # |L| <= 5 < |tau| + 2: never thin; the scan must agree.
                assert not thin
                assert not is_flexible_bruteforce(s).verdict

        rng = random.Random(101)
        for _ in range(500):
            members = {
                tuple(sorted(rng.sample("abcdef", 3)))
                for _ in range(rng.randint(1, 5))
            }
            s = SetSystem([list(m) for m in members])
            thin = is_thin(s, 3).verdict
            assert thin == is_thin_exhaustive(s, 3).verdict
            assert thin == is_flexible_bruteforce(s).verdict


def test_criterion_3_slim_equivalence():
    with criterion(3, 300.0, "flexibility = slim on 200 random mixed systems"):
        rng = random.Random(103)
        budget = 10**6
        for _ in range(200):
            taxa = ALPHA[: rng.randint(5, 7)]
            k = rng.choice([2, 2, 3, 3, 3, 4])
            members = set()
            while len(members) < k:
                size = rng.choice([3, 3, 4])
                members.add(tuple(sorted(rng.sample(taxa, size))))
            s = SetSystem([list(m) for m in members])
            total = 1
            for m in members:
                total *= 3 if len(m) == 3 else 15
            assert total <= budget
            assert is_flexible_bruteforce(s, budget=budget).verdict == (
                is_slim(s).verdict
            )


def test_criterion_4_minimizers_match_exhaustive():
    with criterion(4, 60.0, "min-cut minimizers equal exhaustive minima, 1000 systems"):
        rng = random.Random(29)
        for _ in range(1000):
            n_taxa = rng.randint(4, 10)
            k = rng.randint(1, 12)
            members = set()
            for _ in range(3 * k):
                size = rng.choice([3, 4, 5])
                if size <= n_taxa:
                    members.add(tuple(sorted(rng.sample(ALPHA[:n_taxa], size))))
                if len(members) >= k:
                    break
            s = SetSystem([list(m) for m in members])
            member_sets = s.member_label_sets()
            for measure, star, oracle in (
                ("sigma", sigma_star, oracle_sigma),
                ("gamma", gamma_star, oracle_gamma),
            ):
                expected, _ = brute_minimum(s, measure)
                report = star(s)
                assert report.value == expected
                assert oracle(member_sets, report.witness) == report.value


def test_criterion_5_submodularity():
    with criterion(5, 60.0, "sigma and gamma submodular on 1000 random draws"):
        rng = random.Random(2)
        for _ in range(1000):
            n_taxa = rng.randint(3, 9)
            k = rng.randint(1, 8)
            members = set()
            for _ in range(3 * k):
                size = rng.choice([2, 3, 4, 5])
                if size <= n_taxa:
                    members.add(tuple(sorted(rng.sample(ALPHA[:n_taxa], size))))
                if len(members) >= k:
                    break
            s = SetSystem([list(m) for m in members])
            sel1 = [i for i in range(s.member_count) if rng.random() < 0.5]
            sel2 = [i for i in range(s.member_count) if rng.random() < 0.5]
            for measure in ("sigma", "gamma"):
                ok, _ = check_submodular_pair(measure, s, sel1, sel2)
                assert ok


def test_criterion_6_disjoint_count():
    with criterion(6, 10.0, "disjoint-triple counts match the closed form"):
        one = [parse_triple("a,b|c").as_tree()]
        assert count_displaying(one, "abc") == 1 == disjoint_count_formula(3)
        two = [parse_triple("a,b|c").as_tree(), parse_triple("d,e|f").as_tree()]
        assert count_displaying(two, "abcdef") == 105 == disjoint_count_formula(6)
        assert disjoint_count_formula(9) == 75075


def test_criterion_7_defining_triples():
    with criterion(7, 120.0, "defining triples: size, thinness, uniqueness"):
        rng = random.Random(107)
        for m in range(3, 8):
            trees = enumerate_binary_trees(ALPHA[:m])
            sample = trees if m <= 5 else rng.sample(trees, 100)
            for tree in sample:
                triples = defining_triples(tree)
                assert len(triples) == m - 2
                leafsets = SetSystem([sorted(t.taxa) for t in triples])
                assert sigma_star(leafsets).value >= 2
                assert is_unique_display(triples)

        # tau = {{1,2,j} : 3 <= j <= 6}: flexible, but never uniquely displayed.
        hosts = enumerate_binary_trees(("1", "2", "3", "4", "5", "6"))
        choice_sets = [
            [
                parse_triple(f"1,2|{j}"),
                parse_triple(f"1,{j}|2"),
                parse_triple(f"2,{j}|1"),
            ]
            for j in "3456"
        ]
        assert is_flexible_bruteforce(
            SetSystem([["1", "2", j] for j in "3456"])
        ).verdict
        count = 0
        for assignment in product(*choice_sets):
            count += 1
            assert count_displaying_hosts(hosts, assignment, stop_at=2) == 2
        assert count == 81


def test_criterion_8_median_caterpillars():
    with criterion(8, 120.0, "verified median caterpillars for thin triple systems"):
        report = caterpillar_median_representation(tsys(*FIG3))
        assert report.verified

        pool = [tuple(sorted(c)) for c in combinations("abcde", 3)]
        for mask in range(1, 1 << 10):
            members = [pool[i] for i in range(10) if mask >> i & 1]
            s = SetSystem([list(m) for m in members], extra_taxa="abcde")
            if sigma_star(s).value < 2:
                continue
            assert caterpillar_median_representation(s).verified

        rng = random.Random(61)
        for _ in range(200):
            s = random_thin_triples(rng, rng.randint(5, 9), 7)
            assert sigma_star(s).value >= 2
            assert caterpillar_median_representation(s).verified


def test_criterion_9_pair_systems_three_way():
    with criterion(9, 120.0, "r=2: order flexibility = forest = sigma* >= 1"):
        pool = [tuple(sorted(c)) for c in combinations("abcde", 2)]
        for mask in range(1, 1 << 10):
            members = [pool[i] for i in range(10) if mask >> i & 1]
            s = SetSystem([list(m) for m in members])
            brute = is_total_order_flexible(s, "bruteforce").verdict
            forest_ok, _ = is_forest(incidence_graph(s, "unit"))
            thin = sigma_star(s).value >= 1
            assert brute == forest_ok == thin
            if thin:
                assert lca_caterpillar_representation(s).verified

        rng = random.Random(67)
        for _ in range(500):
            taxa = ALPHA[: rng.randint(6, 9)]
            members = {
                tuple(sorted(rng.sample(taxa, 2)))
                for _ in range(rng.randint(1, 10))
            }
            s = SetSystem([list(m) for m in members])
            brute = is_total_order_flexible(s, "bruteforce").verdict
            forest_ok, _ = is_forest(incidence_graph(s, "unit"))
            thin = sigma_star(s).value >= 1
            assert brute == forest_ok == thin
            if thin:
                assert lca_caterpillar_representation(s).verified


def test_criterion_10_thin_structure():
    with criterion(10, 120.0, "thin systems: size bound, low-count taxon, SDRs"):
        rng = random.Random(109)
        systems = []
        pool = [tuple(sorted(c)) for c in combinations("abcde", 3)]
        for mask in range(1, 1 << 10):
            members = [pool[i] for i in range(10) if mask >> i & 1]
            s = SetSystem([list(m) for m in members])
            if sigma_star(s).value >= 2:
                systems.append(s)
        for _ in range(200):
            systems.append(random_thin_triples(rng, rng.randint(5, 9), 7))

        for s in systems:
            leaves = s.leaf_labels()
            n = len(leaves)
            assert s.member_count <= n - 3 + 1
            assert min(occurrence_count(s, x) for x in leaves) <= 2
            for _ in range(20):
                B = rng.sample(leaves, 2)
                assert sdr(s, B).found


def test_criterion_11_patchwork():
    with criterion(11, 60.0, "zero-excess families of slim systems are patchworks"):
        rng = random.Random(113)
        for _ in range(100):
            s = random_slim_system(rng, rng.randint(6, 10), rng.randint(2, 10))
            assert s.member_count <= 10
            report = patchwork_check(s)
            assert report.verdict
