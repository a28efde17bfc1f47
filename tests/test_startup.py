"""Which setflex modules a request compiles, and the package's lazy exports.

Every CLI request is a fresh interpreter, and with bytecode writing off
each module it loads is compiled again, so a request should run only the
layer modules it needs and its own subcommand's handler module.  The
layers are `LazyLoader` modules and `cli.main` imports the handler after
parsing; these tests pin, per subcommand, the modules whose code is
actually executed.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setflex
from setflex.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Collects the names of the setflex modules whose code runs.  It imports
# no `json`, so that a request's own imports show in `sys.modules`.
HOOK = """
import os, sys
executed = set()

def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "setflex":
            stem = os.path.basename(path)[:-3]
            executed.add("setflex" if stem == "__init__" else "setflex." + stem)

sys.addaudithook(hook)
"""
# One CLI request, then the executed modules and the loaded parsing
# modules of the standard library (argument parsing, and JSON, which
# setflex reads but never writes with `json`) as the last two lines.
CLI = HOOK + """
import setflex.cli
code = setflex.cli.main(sys.argv[1:])
loaded = sorted({"argparse", "gettext", "json"} & set(sys.modules))
import json
print(json.dumps(sorted(executed)))
print(json.dumps(loaded))
sys.exit(code)
"""

# Every request runs the package, its errors and the CLI core, and then
# one handler module, `setflex.cli_<subcommand>`.
ALWAYS = {"setflex", "setflex.errors", "setflex.cli"}


def handler(argv) -> str:
    """The handler module of the request's subcommand."""
    return "cli_" + argv[0].replace("-", "_")


INPUTS = {
    "fig1.sets": "a,b,c\na,b,d\nb,c,e\nd,e,f\n",
    "pairs.sets": "a,b\nb,c\nc,d\n",
    "chain.triples": "a,b|c\nb,c|d\n",
    "tree.nwk": "(((a,b),c),d);\n",
    "orient.txt": "a,b\nb,c\n",
    "shared_pair.sets": "a,b,c\na,b,d\nc,e,f\nd,e,f\n",
}

CASES = [
    # The set-system checks evaluate the excess arithmetic; the flexibility
    # scan does not, and it reads no tree input and counts no trees.
    (("check", "thin", "fig1.sets"), {"setsys", "excess", "graphopt"}),
    (("check", "slim", "fig1.sets"), {"setsys", "excess", "graphopt"}),
    (("check", "flexible", "fig1.sets"), {"setsys", "excess", "graphopt"}),
    (("check", "thin", "fig1.sets", "--method", "exhaustive"),
     {"setsys", "excess", "exhaustive"}),
    (("check", "slim", "fig1.sets", "--method", "exhaustive"),
     {"setsys", "excess", "exhaustive"}),
    # `sdr` runs one max flow on the minimizer's network; `hall` reaches the
    # pair code only for `surplus_forest`'s self-check.
    (("sdr", "fig1.sets", "--B", "a,b"), {"setsys", "excess", "graphopt", "hall"}),
    (("check", "flexible", "fig1.sets", "--method", "bruteforce"),
     {"setsys", "rooted", "phylo", "flex"}),
    # Counting takes the enumeration cap and budget from `errors`, not the scan.
    (("count", "chain.triples"), {"rooted", "phylo", "newick", "counting"}),
    (("count", "--formula-n", "6"), {"counting"}),
    (("gen-defining", "tree.nwk"), {"rooted", "phylo", "newick", "counting"}),
    # Triples alone need no Newick parser; a tree or `--binary` does.
    (("supertree", "chain.triples"), {"rooted", "phylo"}),
    (("supertree", "tree.nwk"), {"rooted", "phylo", "newick"}),
    (("supertree", "tree.nwk", "--binary"), {"rooted", "phylo", "newick"}),
    # The caterpillars need the tree class and its lca table, not BUILD,
    # and the shared peel helpers, not each other's construction; each
    # decides thinness itself, so a "yes" needs no minimizer (fig1's peel
    # meets no taxon of count 2).
    (("represent", "median-caterpillar", "fig1.sets"),
     {"setsys", "rooted", "peel", "represent"}),
    # Its one count-2 level (a of a,b,c and a,b,d) shares the pair a,b, so
    # the replacement triple b,c,d needs no minimizer call either.
    (("represent", "median-caterpillar", "shared_pair.sets"),
     {"setsys", "rooted", "peel", "represent"}),
    (("represent", "lca-caterpillar", "pairs.sets"), {"setsys", "rooted", "peel", "pairs"}),
    # A pair system's forest test reads the set system: no flow code.
    (("check", "order-flexible", "pairs.sets"), {"setsys", "pairs"}),
    (("order", "orient.txt"), {"pairs"}),
]

# The names `setflex` re-exports, by the module that defines them.
EXPORTS = {
    "errors": (
        "BudgetExceededError", "CapExceededError", "CheckReport", "InputError",
        "InternalVerificationError", "MemberSizeError", "ParseError",
        "PreconditionError", "SetflexError",
    ),
    "counting": ("count_displaying", "defining_triples", "disjoint_count_formula"),
    "excess": ("excess_general", "excess_uniform", "gamma", "sigma"),
    "exhaustive": ("ExcessReport", "is_slim_exhaustive", "is_thin_exhaustive"),
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
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


# One CLI request, then the setflex source files it compiled, by name.
COMPILED = """
import json, os, sys
compiled = {}

def hook(event, args):
    if event == "compile" and isinstance(args[1], str):
        if os.path.basename(os.path.dirname(args[1])) == "setflex":
            source = args[0]
            compiled[os.path.basename(args[1])] = (
                source.decode() if isinstance(source, bytes) else source)

sys.addaudithook(hook)
import setflex.cli
code = setflex.cli.main(sys.argv[1:])
print(json.dumps(compiled))
sys.exit(code)
"""
# Definitions that the tree requests never run (the unrooted trees, the
# exhaustive scans and the excess arithmetic); those that the flexibility
# scan and a triple-only BUILD never run either (the Newick parser and
# tree counting); those that the caterpillar representations never run,
# and each one's construction, which the other never runs; the pair code
# that the min-cut checks and `sdr` never run; and the flow code that the
# pair checks never run.  The defining triples are read off the tree,
# with no heap of cherries.  No request pinned below prints help or an
# error, so none compiles the usage text.  A request must compile none of
# the definitions under each key that its argv starts with; the only
# `check flexible` pinned below is the scan.
TREE_UNUSED = ("class UnrootedPhyloTree", "def _scan_excess", "def excess_uniform")
SCAN_AND_BUILD_UNUSED = TREE_UNUSED + ("def parse_newick", "def _count_by_splits")
PAIRS_UNUSED = ("def _augment", "class UnrootedPhyloTree", "def _incidence")
UNUSED = {
    (): ("def _usage(", "def print_error"),
    ("check", "flexible"): SCAN_AND_BUILD_UNUSED,
    ("check", "thin"): ("def sdr", "def surplus_forest", "def is_forest"),
    ("check", "slim"): ("def sdr", "def surplus_forest", "def is_forest"),
    ("check", "order-flexible"): PAIRS_UNUSED,
    ("sdr",): ("def is_forest", "class UnrootedPhyloTree"),
    ("order",): PAIRS_UNUSED,
    ("supertree",): SCAN_AND_BUILD_UNUSED,
    ("count",): ("def is_flexible_bruteforce",),
    ("gen-defining",): TREE_UNUSED + ("heappush", "def is_flexible_bruteforce"),
    ("represent",): ("def build_supertree", "def parse_newick", "def excess_uniform"),
    ("represent", "median-caterpillar"): ("def _place_pairs", "def _extend_sorted"),
    ("represent", "lca-caterpillar"): (
        "class UnrootedPhyloTree", "class _LeafOrder", "def _place_median"),
}
# Each handler module's own helpers, which no other subcommand compiles.
HANDLER_DEFS = {
    "cli_check.py": ("def _cut_witness", "def _excess_witness", "def _tree_lines",
                     "def _labelled_cycle", "def _failing_orientation"),
    "cli_supertree.py": ("def _parse_trees_and_triples",),
    "cli_order.py": ("def _parse_orientation",),
}
# Lines and code statements (AST statements other than docstrings) of
# setflex source a request compiles, as measured when the Newick input,
# tree counting and excess arithmetic left the scan's modules (the scan
# 1,639 lines and 802 statements; a triple-only `supertree` 1,176 and
# 564), `gen-defining` when the defining triples became the spanning
# triples (1,569 and 766), the pair and median requests when the min-cut,
# median and pair code went to modules of their own (`check
# order-flexible` 1,064 and 552, `order` 787 and 384, the median
# representation 1,569 and 795, the lca one 1,344 and 680), `count` and
# `gen-defining` when they stopped loading the scan (`count` on triples
# 1,461 and 715, `count --formula-n` 686 and 297, `gen-defining` 1,438
# and 694), and the requests that load `excess` when the property-test
# hooks left `exhaustive` and `excess` and one formula per measure was
# left (`check thin|slim` 1,399 and 726, `check thin|slim --method
# exhaustive` 1,043 and 505, `sdr` 1,461 and 733), and the `check`
# requests when `check` became one table of (kind, method) rows (`check
# thin|slim` 1,374 and 682, `check thin|slim --method exhaustive` 1,016
# and 460, the scan 1,634 and 756, `check order-flexible` 525
# statements), plus 5%: every request compiles what it loads again.  Docstrings cost almost no
# compile time, so the statement count is the one that tracks it.
MAX_COMPILED = [
    (("check", "flexible", "fig1.sets", "--method", "bruteforce"), 1715, 793),
    (("check", "thin", "fig1.sets"), 1442, 716),
    (("check", "slim", "fig1.sets"), 1442, 716),
    (("check", "thin", "fig1.sets", "--method", "exhaustive"), 1066, 483),
    (("check", "slim", "fig1.sets", "--method", "exhaustive"), 1066, 483),
    (("check", "order-flexible", "pairs.sets"), 1117, 551),
    (("sdr", "fig1.sets", "--B", "a,b"), 1534, 769),
    (("order", "orient.txt"), 826, 403),
    (("supertree", "chain.triples"), 1234, 592),
    (("count", "chain.triples"), 1534, 750),
    (("count", "--formula-n", "6"), 720, 311),
    (("gen-defining", "tree.nwk"), 1509, 728),
    (("represent", "median-caterpillar", "fig1.sets"), 1647, 834),
    (("represent", "lca-caterpillar", "pairs.sets"), 1411, 714),
]


def code_statements(source: str) -> int:
    """AST statements of `source`, not counting docstrings (bare strings)."""
    return sum(
        isinstance(node, ast.stmt) and not (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))
        for node in ast.walk(ast.parse(source))
    )


def run_python(code, *argv, cwd=None, env=None):
    """Exit code and stdout lines of `python -c code argv...` on these sources."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("argv, layers", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_request_executes_only_its_layers(tmp_path, argv, layers):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    code, (output, executed, parsers) = run_python(
        CLI, *argv, "--json", "--no-stats", cwd=tmp_path
    )
    assert code == 0 and "error" not in json.loads(output)
    assert set(json.loads(executed)) == (
        ALWAYS | {f"setflex.{handler(argv)}"} | {f"setflex.{layer}" for layer in layers}
    )
    assert json.loads(parsers) == []


def test_json_input_is_parsed_with_json(tmp_path):
    # Reading JSON input imports `json`, and the verdict is the text input's.
    (tmp_path / "fig1.sets").write_text(INPUTS["fig1.sets"])
    (tmp_path / "fig1.json").write_text(
        '{"sets": [["a","b","c"], ["a","b","d"], ["b","c","e"], ["d","e","f"]]}')
    outputs = []
    for name in ("fig1.sets", "fig1.json"):
        code, (output, _, loaded) = run_python(
            CLI, "check", "thin", name, "--json", "--no-stats", cwd=tmp_path)
        assert code == 0
        outputs.append((output, json.loads(loaded)))
    assert outputs[0][0] == outputs[1][0]
    assert [loaded for _, loaded in outputs] == [[], ["json"]]


def test_cases_cover_every_subcommand():
    assert {argv[0] for argv, _ in CASES} == set(COMMANDS)


@pytest.mark.parametrize("argv, max_lines, max_statements", MAX_COMPILED,
                         ids=[" ".join(a) for a, _, _ in MAX_COMPILED])
def test_request_compiles_few_lines(tmp_path, argv, max_lines, max_statements):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    # An empty bytecode cache directory, so every module is compiled.
    env = {"PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")}
    code, (output, compiled) = run_python(
        COMPILED, *argv, "--json", "--no-stats", cwd=tmp_path, env=env
    )
    assert code == 0 and "error" not in json.loads(output)
    compiled = json.loads(compiled)
    own = f"{handler(argv)}.py"
    assert {"__init__.py", "errors.py", "cli.py", own} <= set(compiled)
    assert [name for name in compiled if name.startswith("cli_")] == [own]
    lines = {name: len(source.splitlines()) for name, source in compiled.items()}
    assert sum(lines.values()) <= max_lines, lines
    statements = {name: code_statements(source) for name, source in compiled.items()}
    assert sum(statements.values()) <= max_statements, statements
    unused = [d for prefix, defs in UNUSED.items() if argv[:len(prefix)] == prefix
              for d in defs]
    unused += [d for name, defs in HANDLER_DEFS.items() if name != own for d in defs]
    assert [d for d in unused if any(d in source for source in compiled.values())] == []


def test_package_import_executes_no_layer():
    code, (registered, executed) = run_python(HOOK + """
import json, setflex
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "setflex")))
print(json.dumps(sorted(executed)))
""")
    # Every layer is registered in sys.modules, and none has run.
    assert code == 0
    assert json.loads(registered) == sorted(["setflex"] + [f"setflex.{m}" for m in EXPORTS])
    assert json.loads(executed) == ["setflex", "setflex.errors"]


def test_exports_are_the_module_attributes():
    listed = set(dir(setflex)) & set(setflex.__all__)
    assert [
        name for module, name in NAMES
        if getattr(setflex, name) is not getattr(getattr(setflex, module), name)
        or name not in listed
    ] == []


def test_layers_are_the_registered_modules():
    for module in EXPORTS:
        assert getattr(setflex, module) is sys.modules[f"setflex.{module}"]


def test_tree_class_is_one_object():
    assert setflex.RootedPhyloTree is setflex.phylo.RootedPhyloTree
    assert setflex.RootedPhyloTree is setflex.rooted.RootedPhyloTree
    namespace = {}
    exec("from setflex import *", namespace)
    assert namespace["RootedPhyloTree"] is setflex.rooted.RootedPhyloTree


def test_star_import_binds_every_export():
    namespace = {}
    exec("from setflex import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_unknown_attribute():
    assert not hasattr(setflex, "no_such_name")
    with pytest.raises(ImportError):
        exec("from setflex import no_such_name", {})


# The benchmark's tracer, loaded from its file without touching sys.path.
_spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# Names the tracer pins to a module they left, and where they live now.
FORWARDED = {
    ("phylo", "parse_newick"): "newick",
    ("phylo", "parse_triples_text"): "newick",
    ("flex", "count_displaying"): "counting",
    ("flex", "disjoint_count_formula"): "counting",
    ("flex", "defining_triples"): "counting",
    ("graphopt", "is_forest"): "pairs",
    ("graphopt", "surplus_forest"): "hall",
    ("graphopt", "sdr"): "hall",
    ("represent", "lca_caterpillar_representation"): "pairs",
    ("represent", "is_total_order_flexible"): "pairs",
    ("represent", "extend_to_total_order"): "pairs",
}


def test_every_traced_name_resolves():
    for module, name, _ in tracing.TRACED:
        found = getattr(getattr(setflex, module), name)
        home = FORWARDED.get((module, name))
        if home is None:
            assert name in vars(getattr(setflex, module)), (module, name)
        else:
            # Forwarded at lookup, not imported: the old module holds no copy.
            assert found is getattr(getattr(setflex, home), name), (module, name)
            assert name not in vars(getattr(setflex, module)), (module, name)
    assert set(FORWARDED) <= {(module, name) for module, name, _ in tracing.TRACED}


# Requests that run forwarded names, and the spans the launcher must record.
FORWARDED_SPANS = [
    (("count", "chain.triples"), {"flex.count_displaying", "phylo.parse_triples_text"}),
    (("count", "--formula-n", "6"), {"flex.disjoint_count_formula"}),
    (("supertree", "tree.nwk"), {"phylo.parse_newick"}),
    (("gen-defining", "tree.nwk"), {"phylo.parse_newick", "flex.defining_triples"}),
    (("sdr", "fig1.sets", "--B", "a,b"), {"graphopt.sdr", "graphopt.max_flow"}),
    (("check", "order-flexible", "pairs.sets"),
     {"represent.is_total_order_flexible", "graphopt.is_forest"}),
    (("represent", "lca-caterpillar", "pairs.sets"),
     {"represent.lca_caterpillar_representation"}),
    (("order", "orient.txt"), {"represent.extend_to_total_order"}),
]


@pytest.mark.parametrize("argv, spans", FORWARDED_SPANS,
                         ids=[" ".join(a) for a, _ in FORWARDED_SPANS])
def test_traced_launcher_wraps_forwarded_names(tmp_path, argv, spans):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "launcher.py"), "spans.json", "--", *argv,
         "--json", "--no-stats"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())}
    assert spans <= recorded, recorded
