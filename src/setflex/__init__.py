"""setflex: thin/slim taxon-coverage checks and their certificates.

Decides whether a pattern of taxon coverage is flexible (every choice of
trees on the covered subsets stays compatible), via exact excess
arithmetic, exhaustive scans, and polynomial min-cut minimizers, and
constructs the accompanying certificates: minimizing subsets, systems of
distinct representatives, supertrees, caterpillar representations, and
total-order extensions.

The layer modules `setsys`, `excess`, `exhaustive`, `rooted`, `phylo`,
`newick`, `graphopt`, `hall`, `flex`, `counting`, `pairs`, `peel` and
`represent` are registered with `importlib.util.LazyLoader`:
`setflex.graphopt` and `sys.modules["setflex.graphopt"]` exist from the
start, but the module's source is compiled and run on its first
attribute access.  Every CLI request is a fresh interpreter, so it pays
only for the layers it runs: `check thin|slim|flexible` (mincut) loads
`setsys`, `excess` and `graphopt`, and `sdr` those and `hall`; `check
thin|slim --method exhaustive` loads `setsys`, `excess` and
`exhaustive`; `check flexible --method bruteforce` loads `setsys`,
`rooted`, `phylo` and `flex`; `count` on a triples file and
`gen-defining` load `rooted`, `phylo`, `newick` and `counting`, and
`count --formula-n` alone only `counting`; `supertree`
loads `rooted` and `phylo`, and `newick` only when the input holds a
Newick tree or `--binary` is given; `represent median-caterpillar`
loads `setsys`, `rooted`, `peel` and `represent`, and `lca-caterpillar`
`setsys`, `rooted`, `peel` and `pairs` (the tree class and its lca
table, not `phylo`'s BUILD or `newick`'s parsers), and either loads
`graphopt` with `excess` only to certify a "not thin" or, for the
median one, for the one minimizer call that picks the replacement
triple at a count-2 level with no shared pair; `check order-flexible`
loads `setsys` and `pairs`, and `order` only `pairs`.
`phylo` imports its tree class from `rooted`, so every
request that loads `phylo` loads `rooted` too.  The tree layers stay off
`setsys`: `rooted` and `phylo` take `check_label` from `errors`, and
`flex` calls `setsys` only on the system it is given.  `flex`,
`newick`, `counting`, `hall`, `pairs`, `peel` and `represent` reach
`phylo`, `setsys`, `graphopt`, `pairs` and `peel` as module attributes,
so a layer runs only when a function that needs it does.  Each subcommand's
handler is its own module (`setflex.cli_check`, ...), which `cli.main`
imports after parsing and which reaches the layers as module attributes
too, so a request also compiles one handler, not all seven.  Importing
the layers inside each handler would save the same time, but the
layers would then be missing from `sys.modules` after `import
setflex.cli`, where a tracer that wraps their functions looks them up.
The names re-exported here (`setflex.is_thin`, ...) are served by a
module `__getattr__`, so they too load their module on first use.  The
error classes and `CheckReport`, the record of every yes/no answer, are
imported eagerly from `errors`, which every request loads anyway.
"""

import importlib.util
import sys

from .errors import (
    BudgetExceededError,
    CapExceededError,
    CheckReport,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    ParseError,
    PreconditionError,
    SetflexError,
)

# Layer module -> the names the package re-exports from it.
_EXPORTS = {
    "exhaustive": ("ExcessReport", "is_slim_exhaustive", "is_thin_exhaustive"),
    "counting": (
        "count_displaying", "defining_triples", "disjoint_count_formula",
    ),
    "excess": ("excess_general", "excess_uniform", "gamma", "sigma"),
    "flex": ("FlexReport", "enumerate_binary_trees", "is_flexible_bruteforce"),
    "graphopt": (
        "FlowNetwork", "MinimizerReport", "gamma_star", "is_slim", "is_thin",
        "max_flow", "sigma_star",
    ),
    "hall": ("sdr", "surplus_forest"),
    "newick": ("displays_clusters", "make_binary", "parse_newick", "parse_triples_text"),
    "phylo": (
        "BuildResult", "RootedTriple", "build_supertree", "displays_triple",
        "parse_triple", "spanning_triples", "triples_of",
    ),
    "pairs": (
        "extend_to_total_order", "is_forest", "is_total_order_flexible",
        "is_total_order_flexible_bruteforce", "lca_caterpillar_representation",
        "rooted_caterpillar",
    ),
    "peel": ("RepresentationReport",),
    "represent": (
        "UnrootedPhyloTree", "caterpillar_median_representation",
        "unrooted_caterpillar", "verify_median_injective",
    ),
    "rooted": ("RootedPhyloTree",),
    "setsys": ("SetSystem", "parse_sets", "parse_sets_json", "parse_sets_text"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# Each spec is built from its file: `find_spec` would walk `sys.meta_path`
# once per layer.
for _name in _EXPORTS:
    _spec = importlib.util.spec_from_file_location(
        f"{__name__}.{_name}", f"{__path__[0]}/{_name}.py")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

# The error classes and `CheckReport` imported above, then every
# re-exported name.
__all__ = [name for name in dir() if name[0].isupper()] + sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCE})
