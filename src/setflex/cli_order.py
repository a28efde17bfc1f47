"""`setflex order`: a total order extending ordered pairs, or a cycle."""

from __future__ import annotations

from . import pairs
from .cli import _read_input
from .errors import InputError


def _parse_orientation(text: str) -> list[tuple[str, str]]:
    orientation = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise InputError(
                f"line {lineno}: expected an ordered pair 'x,y', got {raw!r}"
            )
        orientation.append((parts[0], parts[1]))
    return orientation


def run(ns) -> tuple[int, dict, list[str]]:
    orientation = _parse_orientation(_read_input(ns.input))
    universe = sorted({x for pair in orientation for x in pair})
    report = pairs.extend_to_total_order(universe, orientation)
    if report.verdict:
        payload = {"command": "order", "extendable": True, "order": list(report.certificate)}
        return 0, payload, [" < ".join(report.certificate)]
    cycle = report.certificate
    payload = {"command": "order", "extendable": False, "cycle": list(cycle)}
    lines = ["not extendable", "cycle: " + " < ".join(cycle) + f" < {cycle[0]}"]
    return 1, payload, lines
