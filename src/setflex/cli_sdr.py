"""`setflex sdr --B x,y`: distinct representatives outside B, or a Hall violator."""

from __future__ import annotations

from . import hall, setsys
from .cli import _member_str, _read_input


def run(ns) -> tuple[int, dict, list[str]]:
    system = setsys.parse_sets(_read_input(ns.input))
    b_labels = [lab.strip() for lab in ns.B.split(",") if lab.strip()]
    report = hall.sdr(system, b_labels)
    if report.verdict:
        assignment = {
            _member_str(system, i): system.label_of(x)
            for i, x in report.certificate.items()
        }
        payload = {"command": "sdr", "found": True, "assignment": assignment}
        lines = [f"{k} -> {v}" for k, v in sorted(assignment.items())]
        return 0, payload, lines
    # A violator's derived set is its member minus B.
    violator_sets = [
        [lab for lab in system.member_labels(i) if lab not in b_labels]
        for i in report.certificate
    ]
    payload = {
        "command": "sdr",
        "found": False,
        "violator_members": [_member_str(system, i) for i in report.certificate],
        "violator_derived": violator_sets,
    }
    lines = [
        "no system of distinct representatives",
        "violator: " + "; ".join(",".join(s) if s else "-" for s in violator_sets),
    ]
    return 1, payload, lines
