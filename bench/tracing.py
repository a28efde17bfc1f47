"""Spans at setflex's module boundaries, and the per-layer metrics they give.

`install` replaces each function in `TRACED` with a wrapper at every
`setflex.*` module attribute that refers to it, so both cross-module
calls (`flex.build_supertree`) and same-module calls go through the
wrapper.  Nothing in `src/` changes.  A span is
`[name, start_ns, end_ns, parent_index, error, count]`; `count` is a
work counter read at the boundary (triples in, triples out, assignments
scanned).  Spans stay in memory until the launcher writes them at exit.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = ("cli", "setsys", "graphopt", "phylo", "flex", "represent")


def _len_first(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["triples"])


def _len_result(args, kwargs, result):
    return len(result)


def _assignments(args, kwargs, result):
    return result.assignments_checked


# (module, function, work counter read from (args, kwargs, result)).
TRACED = [
    ("setsys", "parse_sets", None),
    ("graphopt", "sigma_star", None),
    ("graphopt", "gamma_star", None),
    ("graphopt", "is_thin", None),
    ("graphopt", "is_slim", None),
    ("graphopt", "max_flow", None),
    ("graphopt", "is_forest", None),
    ("graphopt", "surplus_forest", None),
    ("graphopt", "sdr", None),
    ("phylo", "parse_newick", None),
    ("phylo", "parse_triples_text", None),
    ("phylo", "parse_triple", None),
    ("phylo", "triples_of", _len_result),
    ("phylo", "build_supertree", _len_first),
    ("phylo", "displays_triple", None),
    ("flex", "enumerate_binary_trees", None),
    ("flex", "is_flexible_bruteforce", _assignments),
    ("flex", "defining_triples", None),
    ("flex", "count_displaying", None),
    ("flex", "disjoint_count_formula", None),
    ("represent", "caterpillar_median_representation", None),
    ("represent", "lca_caterpillar_representation", None),
    ("represent", "verify_median_injective", None),
    ("represent", "is_total_order_flexible", None),
    ("represent", "extend_to_total_order", None),
]


class Recorder:
    """Spans of one process, kept in memory; parents follow the call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, False, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int, error: bool = False, count=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = error
        span[5] = count
        self._open.pop()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Counting a one-shot iterable would consume it; pass a list instead.
            if counter is _len_first and args and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index, count=counter(args, kwargs, result) if counter else None)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every `TRACED` function wherever a setflex module refers to it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "setflex" or name.startswith("setflex.")]
    for module_name, fn_name, counter in TRACED:
        original = getattr(sys.modules[f"setflex.{module_name}"], fn_name)
        wrapper = recorder.wrap(f"{module_name}.{fn_name}", original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# -- aggregation ------------------------------------------------------------------

# Span names whose self time adds up to each `*_ms` metric.
SELF_MS = {
    "cli.self_ms": ["cli.main"],
    "setsys.parse_ms": ["setsys.parse_sets"],
    "graphopt.minimize_ms": ["graphopt.sigma_star", "graphopt.gamma_star",
                             "graphopt.is_thin", "graphopt.is_slim"],
    "graphopt.max_flow_ms": ["graphopt.max_flow"],
    "graphopt.forest_ms": ["graphopt.is_forest", "graphopt.surplus_forest"],
    "graphopt.sdr_ms": ["graphopt.sdr"],
    "phylo.build_ms": ["phylo.build_supertree"],
    "phylo.newick_parse_ms": ["phylo.parse_newick"],
    "phylo.triple_parse_ms": ["phylo.parse_triples_text", "phylo.parse_triple"],
    "phylo.triples_of_ms": ["phylo.triples_of"],
    "phylo.display_check_ms": ["phylo.displays_triple"],
    "flex.enumerate_ms": ["flex.enumerate_binary_trees"],
    "flex.scan_self_ms": ["flex.is_flexible_bruteforce"],
    "flex.defining_ms": ["flex.defining_triples"],
    "flex.count_ms": ["flex.count_displaying", "flex.disjoint_count_formula"],
    "represent.median_self_ms": ["represent.caterpillar_median_representation"],
    "represent.lca_self_ms": ["represent.lca_caterpillar_representation"],
    "represent.verify_ms": ["represent.verify_median_injective"],
    "represent.order_ms": ["represent.is_total_order_flexible",
                           "represent.extend_to_total_order"],
}
MINIMIZERS = ("graphopt.sigma_star", "graphopt.gamma_star")
REPRESENTATIONS = ("represent.caterpillar_median_representation",
                   "represent.lca_caterpillar_representation")

# Name -> unit of every per-layer metric `layer_metrics` returns.
UNITS = {
    "cli.import_ms": "ms",
    **{name: "ms" for name in SELF_MS},
    "setsys.parse_calls": "count",
    "graphopt.minimize_calls": "count",
    "graphopt.max_flow_calls": "count",
    "graphopt.flows_per_minimize": "flows/call",
    "phylo.build_calls": "count",
    "phylo.build_triples_per_call": "triples/call",
    "phylo.triples_expanded": "count",
    "flex.assignments_checked": "count",
    "flex.us_per_assignment": "us",
    "represent.sigma_calls_per_rep": "calls/rep",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


def layer_metrics(requests: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of every traced request."""
    self_ns = {name: 0 for name in SELF_MS}
    bucket = {span: metric for metric, names in SELF_MS.items() for span in names}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    errors = {layer: 0 for layer in LAYERS}
    incl_ns: dict[str, int] = {}
    imports = []
    sigma_in_reps = 0
    for spans in requests:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, error, count) in enumerate(spans):
            duration = end - start
            if name == "cli.import":
                imports.append(duration)
                continue
            calls[name] = calls.get(name, 0) + 1
            incl_ns[name] = incl_ns.get(name, 0) + duration
            if count is not None:
                counts[name] = counts.get(name, 0) + count
            if name in bucket:
                self_ns[bucket[name]] += duration - child_ns[i]
            layer = name.split(".", 1)[0]
            if error and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
                errors[layer] += 1
            if name in MINIMIZERS and _has_ancestor(spans, parent, REPRESENTATIONS):
                sigma_in_reps += 1

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    minimize_calls = sum(n(m) for m in MINIMIZERS)
    assignments = counts.get("flex.is_flexible_bruteforce", 0)
    out = {"cli.import_ms": statistics.median(imports) / 1e6 if imports else 0.0}
    out.update({name: ns / 1e6 for name, ns in self_ns.items()})
    out.update({
        "setsys.parse_calls": n("setsys.parse_sets"),
        "graphopt.minimize_calls": minimize_calls,
        "graphopt.max_flow_calls": n("graphopt.max_flow"),
        "graphopt.flows_per_minimize": ratio(n("graphopt.max_flow"), minimize_calls),
        "phylo.build_calls": n("phylo.build_supertree"),
        "phylo.build_triples_per_call": ratio(counts.get("phylo.build_supertree", 0),
                                              n("phylo.build_supertree")),
        "phylo.triples_expanded": counts.get("phylo.triples_of", 0),
        "flex.assignments_checked": assignments,
        "flex.us_per_assignment": ratio(
            incl_ns.get("flex.is_flexible_bruteforce", 0) / 1e3, assignments),
        "represent.sigma_calls_per_rep": ratio(
            sigma_in_reps, sum(n(r) for r in REPRESENTATIONS)),
    })
    out.update({f"{layer}.errors": count for layer, count in errors.items()})
    return out


def _has_ancestor(spans, index: int, names) -> bool:
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False
