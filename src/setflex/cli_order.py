"""`setflex order`: a total order extending ordered pairs, or a cycle."""

from __future__ import annotations

from . import represent
from .cli import _read_input
from .errors import InputError


def _parse_orientation(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise InputError(
                f"line {lineno}: expected an ordered pair 'x,y', got {raw!r}"
            )
        pairs.append((parts[0], parts[1]))
    return pairs


def run(ns) -> tuple[int, dict, list[str]]:
    pairs = _parse_orientation(_read_input(ns.input))
    universe = sorted({x for pair in pairs for x in pair})
    report = represent.extend_to_total_order(universe, pairs)
    if report.extendable:
        payload = {"command": "order", "extendable": True, "order": list(report.order)}
        return 0, payload, [" < ".join(report.order)]
    payload = {"command": "order", "extendable": False, "cycle": list(report.cycle)}
    lines = ["not extendable", "cycle: " + " < ".join(report.cycle) + f" < {report.cycle[0]}"]
    return 1, payload, lines
