"""Contract of the result records: immutable, equal by value, same properties.

Each record is built twice from the same keywords.  Assigning a field
must raise AttributeError, the two copies must be equal, and a record
hashes exactly when none of its fields is a dict.
"""

import pytest

from setflex import (
    BuildResult,
    CheckReport,
    ExcessReport,
    FlexReport,
    MinimizerReport,
    RepresentationReport,
    RootedPhyloTree,
    UnrootedPhyloTree,
    extend_to_total_order,
    is_flexible_bruteforce,
    is_forest,
    is_slim,
    is_slim_exhaustive,
    is_thin,
    is_thin_exhaustive,
    is_total_order_flexible,
    is_total_order_flexible_bruteforce,
    sdr,
    verify_median_injective,
)
from setflex.graphopt import FlowResult
from conftest import FIG1, FIG1P, tsys

TREE = RootedPhyloTree((("a", "b"), "c"))

# (record type, keywords, {property: expected value}, hashable)
RECORDS = [
    # The scan's report is a `CheckReport` whose one addition reads `stats`.
    (FlexReport, dict(verdict=False, method="bruteforce", certificate=(TREE,),
                      stats={"assignments_checked": 3, "core_members": 2}),
     {"assignments_checked": 3}, False),
    # A flow with nothing to cut: the sink is out of reach.
    (FlowResult,
     dict(value=0, source_side=frozenset({0}), cut_arcs=(), residual=(0, 0),
          augmenting_paths=0),
     {}, True),
    (FlowResult,
     dict(value=2, source_side=frozenset({0, 2}), cut_arcs=((0, 3, 1), (2, 1, 1)),
          residual=(0, 1, 1, 0), augmenting_paths=2),
     {}, True),
    (MinimizerReport,
     dict(value=1, witness=(0, 1), cut=((0, 4, 1),), offset=4,
          augmenting_paths=3, forced_members=2, forced_solves=1),
     {}, True),
    (CheckReport, dict(verdict=True, method="maxflow", certificate={0: 2, 1: 3},
                       stats={"augmenting_paths": 2}),
     {}, False),
    (CheckReport, dict(verdict=False, method="maxflow", certificate=(0, 1),
                       stats={"augmenting_paths": 1}),
     {}, False),
    (BuildResult, dict(tree=TREE, witness=None), {"compatible": True}, True),
    (BuildResult, dict(tree=None, witness=("a", "b", "c")), {"compatible": False}, True),
    (RepresentationReport,
     dict(kind="lca-caterpillar", tree=TREE, sequence=("a", "b", "c"),
          vertex_map={0: 0}, appended=()),
     {}, False),
    (CheckReport, dict(verdict=True, method="topological", certificate=("a", "b"), stats={}),
     {}, False),
    (CheckReport, dict(verdict=False, method="topological", certificate=("a", "b"), stats={}),
     {}, False),
    (ExcessReport, dict(value=-1, witness=(0, 1), leaf_count=4), {}, True),
    (CheckReport,
     dict(verdict=True, method="mincut", certificate=None, stats={"sigma_star": 2}),
     {}, False),
]
# A row's id names its record.  The `maxflow` and `topological` rows pin
# the `CheckReport` answers of `sdr` and `extend_to_total_order`, and keep
# the names of the records those answers replaced.
ANSWER_IDS = {"maxflow": "SdrReport", "topological": "OrderReport"}
IDS = [f"{ANSWER_IDS.get(kwargs.get('method'), cls.__name__)}-{i}"
       for i, (cls, kwargs, *_) in enumerate(RECORDS)]


@pytest.mark.parametrize("cls, kwargs, props, hashable", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, cls, kwargs, props, hashable):
        record = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert {name: getattr(record, name) for name in kwargs} == kwargs

    def test_equal_by_value(self, cls, kwargs, props, hashable):
        first, second = cls(**kwargs), cls(**dict(kwargs))
        assert first == second and not first != second
        assert tuple(first) == tuple(kwargs.values())
        if hashable:
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)

    def test_properties(self, cls, kwargs, props, hashable):
        record = cls(**kwargs)
        for name, expected in props.items():
            assert getattr(record, name) == expected


def test_field_order_and_defaults():
    assert CheckReport._fields == ("verdict", "method", "certificate", "stats")
    with pytest.raises(TypeError):
        CheckReport(verdict=True, method="forest")


def test_flex_report_is_a_check_report():
    assert issubclass(FlexReport, CheckReport)
    report = FlexReport(True, "bruteforce", None, {"assignments_checked": 81, "core_members": 0})
    with pytest.raises(AttributeError):
        report.assignments_checked = 1


def test_no_record_has_a_verified_field():
    # A representation that fails its self-check raises, so a report is
    # always verified and carries no field saying so.
    assert "verified" not in RepresentationReport._fields


QUARTET = UnrootedPhyloTree([(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)],
                            {0: "a", 1: "b", 2: "c", 3: "d"})
TRIANGLE = tsys("ab", "bc", "ac")
PATH = tsys("ab", "bc")


def is_cycle(certificate) -> bool:
    """An incidence-graph cycle: alternating ("member", i), ("taxon", id)."""
    kinds = [kind for kind, _ in certificate]
    return kinds == ["member", "taxon"] * (len(kinds) // 2) and len(kinds) >= 4


# (method, producer, "yes" call, its certificate test, "no" call, its certificate test)
PRODUCERS = [
    ("mincut", lambda: is_thin(tsys(*FIG1)), lambda c: c is None,
     lambda: is_thin(tsys(*FIG1P)), lambda c: isinstance(c, MinimizerReport)),
    ("mincut", lambda: is_slim(tsys(*FIG1)), lambda c: c is None,
     lambda: is_slim(tsys(*FIG1P)), lambda c: isinstance(c, MinimizerReport)),
    ("exhaustive", lambda: is_thin_exhaustive(tsys(*FIG1)), lambda c: c is None,
     lambda: is_thin_exhaustive(tsys(*FIG1P)), lambda c: isinstance(c, ExcessReport)),
    ("exhaustive", lambda: is_slim_exhaustive(tsys(*FIG1)), lambda c: c is None,
     lambda: is_slim_exhaustive(tsys(*FIG1P)), lambda c: isinstance(c, ExcessReport)),
    ("bruteforce", lambda: is_flexible_bruteforce(tsys(*FIG1)), lambda c: c is None,
     lambda: is_flexible_bruteforce(tsys(*FIG1P)),
     lambda c: len(c) == 5 and all(isinstance(t, RootedPhyloTree) for t in c)),
    ("forest", lambda: is_forest(PATH), lambda c: c is None,
     lambda: is_forest(TRIANGLE), is_cycle),
    ("forest", lambda: is_total_order_flexible(PATH), lambda c: c is None,
     lambda: is_total_order_flexible(TRIANGLE), is_cycle),
    ("bruteforce", lambda: is_total_order_flexible_bruteforce(PATH), lambda c: c is None,
     lambda: is_total_order_flexible_bruteforce(TRIANGLE),
     lambda c: len(c[0]) == 3 and sorted(c[1]) == ["a", "b", "c"]),
    ("maxflow", lambda: sdr(tsys(*FIG1), ["a", "b"]),
     lambda c: c == {0: 2, 1: 3, 2: 4, 3: 5},
     lambda: sdr(tsys(*FIG1P), ["a", "c"]), lambda c: c == (0, 1, 2, 3)),
    ("topological", lambda: extend_to_total_order("abc", [("c", "a")]),
     lambda c: c == ("b", "c", "a"),
     lambda: extend_to_total_order("ab", [("a", "b"), ("b", "a")]),
     lambda c: c == ("a", "b")),
    ("median", lambda: verify_median_injective(QUARTET, tsys("abc", "acd")),
     lambda c: c == {0: 4, 1: 5},
     lambda: verify_median_injective(QUARTET, tsys("abc", "abd")), lambda c: c == (0, 1)),
]


@pytest.mark.parametrize("method, yes, yes_certificate, no, no_certificate", PRODUCERS,
                         ids=[f"{i}-{p[0]}" for i, p in enumerate(PRODUCERS)])
def test_every_decision_is_a_check_report(method, yes, yes_certificate, no, no_certificate):
    for call, verdict, certificate in ((yes, True, yes_certificate), (no, False, no_certificate)):
        report = call()
        assert isinstance(report, CheckReport)
        assert report.verdict is verdict and report.method == method
        assert certificate(report.certificate), report.certificate
        assert all(type(value) is int for value in report.stats.values()), report.stats
