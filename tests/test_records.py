"""Contract of the result records: immutable, equal by value, same properties.

Each record is built twice from the same keywords.  Assigning a field
must raise AttributeError, the two copies must be equal, and a record
hashes exactly when none of its fields is a dict.
"""

import pytest

from setflex import (
    BipartiteIncidenceGraph,
    BuildResult,
    CheckReport,
    ExcessReport,
    FlexReport,
    MinimizerReport,
    OrderReport,
    RepresentationReport,
    RootedPhyloTree,
    SdrReport,
)
from setflex.graphopt import FlowResult

TREE = RootedPhyloTree((("a", "b"), "c"))

# (record type, keywords, {property: expected value}, hashable)
RECORDS = [
    (FlexReport, dict(verdict=False, counterexample=(TREE,), assignments_checked=3,
                      core_members=2),
     {}, True),
    (BipartiteIncidenceGraph,
     dict(member_count=2, taxa=(0, 1, 2), taxon_labels=("a", "b", "c"),
          adjacency=((0, 1), (0, 1, 2)), weights=(1, 1)),
     {}, True),
    (FlowResult,
     dict(value=2, source_side=frozenset({0, 2}), cut_arcs=(("s", "m0", 1),),
          residual=(0, 1, 1, 0), augmenting_paths=2),
     {}, True),
    (MinimizerReport,
     dict(value=1, witness=(0, 1), cut=(("s", "m0", 1),), offset=4,
          augmenting_paths=3, forced_members=2, forced_solves=1),
     {}, True),
    (SdrReport, dict(assignment={0: 2, 1: 3}, violator=None, derived=((2,), (3,))),
     {"found": True}, False),
    (SdrReport, dict(assignment=None, violator=(0, 1), derived=((2,), (2,))),
     {"found": False}, True),
    (BuildResult, dict(tree=TREE, witness=None), {"compatible": True}, True),
    (BuildResult, dict(tree=None, witness=("a", "b", "c")), {"compatible": False}, True),
    (RepresentationReport,
     dict(kind="lca-caterpillar", tree=TREE, sequence=("a", "b", "c"),
          vertex_map={0: 0}, verified=True, appended=()),
     {}, False),
    (OrderReport, dict(order=("a", "b"), cycle=None), {"extendable": True}, True),
    (OrderReport, dict(order=None, cycle=("a", "b")), {"extendable": False}, True),
    (ExcessReport, dict(value=-1, witness=(0, 1), leaf_count=4), {}, True),
    (CheckReport,
     dict(verdict=True, method="mincut", certificate=None, stats={"sigma_star": 2}),
     {}, False),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(RECORDS)]


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
