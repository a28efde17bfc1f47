"""Tests of the benchmark itself: generators, validators, tracing, failure rules."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402


def _cheapest(requests, count):
    return sorted(range(len(requests)),
                  key=lambda i: sum(map(len, requests[i].files.values())))[:count]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_at_tiny_scale(name, tmp_path):
    requests = workloads.WORKLOADS[name](random.Random(0))
    client = run.Client(tmp_path / "work", requests)
    for i in _cheapest(requests, 3):
        outcome = client.spawn(i)
        assert run.check(requests[i], outcome) is None, requests[i].name


def test_generators_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        a, b, c = (make(random.Random(s)) for s in (7, 7, 8))
        assert [r.files for r in a] == [r.files for r in b]
        assert [r.files for r in a] != [r.files for r in c]


def test_traced_launcher_records_layers(tmp_path):
    requests = workloads.flexscan(random.Random(0))
    fig1 = next(i for i, r in enumerate(requests) if r.name == "flexible/fig1")
    client = run.Client(tmp_path / "work", requests)
    spans_file = tmp_path / "spans.json"
    outcome = client.spawn(fig1, spans_file)
    assert run.check(requests[fig1], outcome) is None
    metrics = tracing.layer_metrics([json.loads(spans_file.read_text())])
    assert metrics["phylo.build_calls"] == 81
    assert metrics["flex.assignments_checked"] == 81
    assert metrics["setsys.parse_calls"] == 1
    assert metrics["graphopt.minimize_calls"] == 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    assert set(metrics) == set(tracing.UNITS)


def test_self_time_and_boundary_errors():
    spans = [
        ["cli.main", 0, 100, -1, True, None],
        ["flex.defining_triples", 10, 90, 0, True, None],
        ["phylo.parse_newick", 20, 50, 1, True, None],
        ["phylo.triples_of", 50, 60, 2, True, 3],
    ]
    metrics = tracing.layer_metrics([spans])
    assert metrics["cli.self_ms"] == pytest.approx(20 / 1e6)
    assert metrics["flex.defining_ms"] == pytest.approx(50 / 1e6)
    assert metrics["phylo.newick_parse_ms"] == pytest.approx(20 / 1e6)
    assert metrics["phylo.triples_expanded"] == 3
    # One exception crossing three layers counts once per layer.
    assert (metrics["cli.errors"], metrics["flex.errors"], metrics["phylo.errors"]) == (1, 1, 1)


def _outcome(stdout, code=0, stderr=""):
    return run.Outcome(index=0, code=code, stdout=stdout, stderr=stderr, wall_s=0.1,
                       maxrss_kb=1, timed_out=False)


def test_traceback_fails_even_with_the_expected_exit_code():
    req = workloads.Request(name="x", argv=[], expect_exit=1, check=lambda p: None)
    stderr = "Traceback (most recent call last):\n  ...\nRecursionError: too deep\n"
    assert run.check(req, _outcome('{"verdict": false}', 1, stderr)).startswith("traceback")
    assert run.check(req, _outcome("not json", 1)) == "stdout is not one JSON object"
    assert run.check(req, _outcome("{}", 0)) == "exit 0, expected 1"
    assert run.check(req, _outcome("{}", 1)) is None


def test_flipped_verdict_is_rejected():
    members = workloads.chain(list("abcdef"), 4)
    with pytest.raises(validate.Invalid):
        validate.check_excess({"verdict": False, "sigma_star": 2}, members, "sigma", True)
    bad = workloads.plant_triple_violator(random.Random(0), members)
    witness = [",".join(sorted(m)) for m in bad]
    value = len(set("".join(witness).replace(",", ""))) - len(bad)
    payload = {"verdict": False, "sigma_star": value,
               "certificate": {"value": value, "witness": witness}}
    validate.check_excess(payload, bad, "sigma", False)
    with pytest.raises(validate.Invalid):
        validate.check_excess(dict(payload, verdict=True), bad, "sigma", False)
    with pytest.raises(validate.Invalid):
        validate.check_excess({**payload, "certificate": {"value": value,
                                                          "witness": witness[:1]}},
                              bad, "sigma", False)


def test_dropped_triple_is_rejected():
    rng = random.Random(3)
    names = workloads.labels(rng, 12)
    tree = workloads.random_tree(rng, names)
    triples = workloads.interior_triples(tree)
    lines = [f"{a},{b}|{c}" for a, b, c in triples]
    validate.check_defining({"triples": lines}, tree)
    with pytest.raises(validate.Invalid, match="triples for"):
        validate.check_defining({"triples": lines[:-1]}, tree)
    all_triples = validate.triples_of(tree)
    newick = validate.to_newick(tree)
    validate.check_supertree({"compatible": True, "newick": newick}, all_triples, names, True)
    star = "(" + ",".join(names) + ");"
    with pytest.raises(validate.Invalid, match="does not display"):
        validate.check_supertree({"compatible": True, "newick": star}, all_triples, names,
                                 True)


def test_colliding_medians_are_rejected():
    members = workloads.chain(["a", "b", "c", "d", "e"], 3)
    good = {"sequence": list("abcde"), "appended_taxa": [], "verified": True,
            "newick": "(a,b,(c,(d,e)));", "vertex_map": {"a,b,c": 0, "b,c,d": 1, "c,d,e": 2}}
    validate.check_median(good, members)
    collide = dict(good, sequence=list("cbade"))  # b is the middle of abc and bcd
    with pytest.raises(validate.Invalid, match="collide"):
        validate.check_median(collide, members)


def test_count_matches_the_closed_form():
    validate.check_count({"count": 105}, 6)
    with pytest.raises(validate.Invalid):
        validate.check_count({"count": 104}, 6)


def test_percentile_is_nearest_rank():
    assert run.percentile([float(i) for i in range(40)], 75) == (29.0, 10)
    assert run.percentile([float(i) for i in range(21)], 75) == (15.0, 5)
    assert run.percentile([3.0], 75) == (3.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flexscan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    trace_only = {name for name in layer_units if name.startswith("trace.")}
    assert {name: layer_units[name] for name in set(layer_units) - trace_only} == tracing.UNITS
    assert trace_only == {"trace.untraced_rps", "trace.traced_rps", "trace.overhead_pct"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
