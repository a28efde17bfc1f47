"""setflex: thin/slim taxon-coverage checks and their certificates.

Decides whether a pattern of taxon coverage is flexible (every choice of
trees on the covered subsets stays compatible), via exact excess
arithmetic, exhaustive scans, and polynomial min-cut minimizers, and
constructs the accompanying certificates: minimizing subsets, systems of
distinct representatives, supertrees, caterpillar representations, and
total-order extensions.

The layer modules `setsys`, `exhaustive`, `phylo`, `graphopt`, `flex`
and `represent` are registered with `importlib.util.LazyLoader`:
`setflex.graphopt` and `sys.modules["setflex.graphopt"]` exist from the
start, but the module's source is compiled and run on its first
attribute access.  Every CLI request is a fresh interpreter, so it pays
only for the layers it runs: `check thin|slim|flexible` (mincut) and
`sdr` load `setsys` and `graphopt`; `check thin|slim --method
exhaustive` loads `setsys` and `exhaustive`; `check flexible --method
bruteforce` loads `setsys`, `phylo` and `flex`; `count` and
`gen-defining` load `phylo` and `flex`, and `count --formula-n` alone
only `flex`; `supertree` loads `phylo`; `represent` loads `setsys`,
`graphopt`, `phylo` and `represent`, `check order-flexible` `setsys`,
`graphopt` and `represent`, and `order` only `represent`.  The tree
layers stay off `setsys`: `phylo` takes `check_label` from `errors`,
and `flex` names `setsys.SetSystem` only in annotations.  `flex` and
`represent` reach the other layers as module attributes, so a layer
runs only when a function that needs it does.  Each subcommand's
handler is its own module (`setflex.cli_check`, ...), which `cli.main`
imports after parsing and which reaches the layers as module attributes
too, so a request also compiles one handler, not all seven.  Importing
the layers inside each handler would save the same time, but the
layers would then be missing from `sys.modules` after `import
setflex.cli`, where a tracer that wraps their functions looks them up.
The names re-exported here (`setflex.is_thin`, ...) are served by a
module `__getattr__`, so they too load their module on first use.
"""

import importlib.util
import sys

from .errors import (
    BudgetExceededError,
    CapExceededError,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    ParseError,
    PreconditionError,
    SetflexError,
)

# Layer module -> the names the package re-exports from it.
_EXPORTS = {
    "exhaustive": (
        "ExcessReport", "check_submodular_pair", "is_slim_exhaustive",
        "is_thin_exhaustive", "patchwork_check",
    ),
    "flex": (
        "FlexReport", "count_displaying", "defining_triples", "disjoint_count_formula",
        "enumerate_binary_trees", "is_flexible_bruteforce", "is_unique_display",
    ),
    "graphopt": (
        "BipartiteIncidenceGraph", "FlowNetwork", "MinimizerReport", "SdrReport",
        "gamma_star", "incidence_graph", "is_forest", "is_slim", "is_thin", "max_flow",
        "sdr", "sigma_star", "surplus_forest",
    ),
    "phylo": (
        "BuildResult", "RootedPhyloTree", "RootedTriple", "build_supertree",
        "displays_clusters", "displays_triple", "make_binary", "parse_newick",
        "parse_triple", "parse_triples_text", "spanning_triples", "triples_of",
    ),
    "represent": (
        "OrderReport", "RepresentationReport", "UnrootedPhyloTree",
        "caterpillar_median_representation", "extend_to_total_order",
        "is_total_order_flexible", "lca_caterpillar_representation",
        "rooted_caterpillar", "unrooted_caterpillar", "verify_median_injective",
    ),
    "setsys": (
        "CheckReport", "SetSystem", "excess_general", "excess_uniform",
        "gamma", "occurrence_count", "parse_sets", "parse_sets_json",
        "parse_sets_text", "sigma",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

# The error classes imported above, then every re-exported name.
__all__ = [name for name in dir() if name[0].isupper()] + sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCE})
