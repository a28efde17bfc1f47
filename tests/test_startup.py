"""Which setflex modules a request compiles, and the package's lazy exports.

Every CLI request is a fresh interpreter, and with bytecode writing off
each module it loads is compiled again, so a request should run only the
layer modules it needs and its own subcommand's handler module.  The
layers are `LazyLoader` modules and `cli.main` imports the handler after
parsing; these tests pin, per subcommand, the modules whose code is
actually executed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setflex
from setflex.cli import COMMANDS

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Collects the names of the setflex modules whose code runs.
HOOK = """
import json, os, sys
executed = set()

def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "setflex":
            stem = os.path.basename(path)[:-3]
            executed.add("setflex" if stem == "__init__" else "setflex." + stem)

sys.addaudithook(hook)
"""
# One CLI request, then the executed modules and the loaded argument
# parsing modules of the standard library as the last two lines.
CLI = HOOK + """
import setflex.cli
code = setflex.cli.main(sys.argv[1:])
print(json.dumps(sorted(executed)))
print(json.dumps(sorted({"argparse", "gettext"} & set(sys.modules))))
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
}

CASES = [
    (("check", "thin", "fig1.sets"), {"setsys", "graphopt"}),
    (("check", "slim", "fig1.sets"), {"setsys", "graphopt"}),
    (("check", "flexible", "fig1.sets"), {"setsys", "graphopt"}),
    (("check", "thin", "fig1.sets", "--method", "exhaustive"), {"setsys", "exhaustive"}),
    (("check", "slim", "fig1.sets", "--method", "exhaustive"), {"setsys", "exhaustive"}),
    (("sdr", "fig1.sets", "--B", "a,b"), {"setsys", "graphopt"}),
    (("check", "flexible", "fig1.sets", "--method", "bruteforce"),
     {"setsys", "phylo", "flex"}),
    (("count", "chain.triples"), {"phylo", "flex"}),
    (("count", "--formula-n", "6"), {"flex"}),
    (("gen-defining", "tree.nwk"), {"phylo", "flex"}),
    (("supertree", "chain.triples"), {"phylo"}),
    (("supertree", "tree.nwk", "--binary"), {"phylo"}),
    (("represent", "median-caterpillar", "fig1.sets"),
     {"setsys", "graphopt", "phylo", "represent"}),
    (("represent", "lca-caterpillar", "pairs.sets"),
     {"setsys", "graphopt", "phylo", "represent"}),
    (("check", "order-flexible", "pairs.sets"), {"setsys", "graphopt", "represent"}),
    (("order", "orient.txt"), {"represent"}),
]

# The names `setflex` re-exports, by the module that defines them.
EXPORTS = {
    "errors": (
        "BudgetExceededError", "CapExceededError", "InputError",
        "InternalVerificationError", "MemberSizeError", "ParseError",
        "PreconditionError", "SetflexError",
    ),
    "exhaustive": (
        "ExcessReport", "check_submodular_pair", "is_slim_exhaustive",
        "is_thin_exhaustive", "patchwork_check",
    ),
    "flex": (
        "FlexReport", "count_displaying", "defining_triples",
        "disjoint_count_formula", "enumerate_binary_trees",
        "is_flexible_bruteforce", "is_unique_display",
    ),
    "graphopt": (
        "BipartiteIncidenceGraph", "FlowNetwork", "MinimizerReport", "SdrReport",
        "gamma_star", "incidence_graph", "is_forest", "is_slim", "is_thin",
        "max_flow", "sdr", "sigma_star", "surplus_forest",
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
# Definitions that the flexibility scan and BUILD never run.
UNUSED = ("class UnrootedPhyloTree", "def _scan_excess")
# Each handler module's own helpers, which no other subcommand compiles.
HANDLER_DEFS = {
    "cli_check.py": ("def _render_certificate", "def _render_order_certificate",
                     "def _flex_certificate"),
    "cli_supertree.py": ("def _parse_trees_and_triples",),
    "cli_order.py": ("def _parse_orientation",),
}
# Lines and code statements (AST statements other than docstrings) of
# setflex source a request compiles, as measured when each subcommand's
# handler left `cli.py` for its own module (2,009 lines and 1,041
# statements; 1,258 and 666), plus 5%: every request compiles what it
# loads again.  Docstrings cost almost no compile time, so the statement
# count is the one that tracks it.
MAX_COMPILED = [
    (("check", "flexible", "fig1.sets", "--method", "bruteforce"), 2109, 1093),
    (("supertree", "chain.triples"), 1320, 699),
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
    unused = UNUSED + tuple(d for name, defs in HANDLER_DEFS.items() if name != own
                            for d in defs)
    assert [d for d in unused if any(d in source for source in compiled.values())] == []


def test_package_import_executes_no_layer():
    code, (registered, executed) = run_python(HOOK + """
import setflex
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


def test_star_import_binds_every_export():
    namespace = {}
    exec("from setflex import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_unknown_attribute():
    assert not hasattr(setflex, "no_such_name")
    with pytest.raises(ImportError):
        exec("from setflex import no_such_name", {})
