"""Golden CLI corpus: `--json --no-stats` output must match byte for byte.

Each case in `golden/cases.json` names an argv (run from `golden/`), the
expected exit code, and `golden/<name>.out` with the recorded stdout.
The recorded outputs are a reference: a behaviour-preserving refactor
must reproduce them exactly, so they are never regenerated to make this
test pass.  Without `--no-stats` the same request may add only a `stats`
object, and its values are integer counters (or null), never prose.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_setflex(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "setflex", *argv],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    proc = run_setflex(*case["argv"], "--json", "--no-stats")
    assert proc.stderr == ""
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / f"{case['name']}.out").read_text()


def assert_counter_stats(payload: dict) -> None:
    """`stats`, when present, is an object of integers or nulls."""
    stats = payload.get("stats", {})
    assert isinstance(stats, dict)
    assert all(type(value) is int or value is None for value in stats.values()), stats


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stats_add_only_counters(case):
    # With stats, `--json` prints the recorded payload plus at most a
    # `stats` object of counters.
    proc = run_setflex(*case["argv"], "--json")
    assert proc.returncode == case["exit"]
    payload = json.loads(proc.stdout)
    assert_counter_stats(payload)
    payload.pop("stats", None)
    assert payload == json.loads((GOLDEN / f"{case['name']}.out").read_text())


def test_thin_pair_stats_hold_no_prose():
    proc = run_setflex("check", "thin", "pair_cycle.sets", "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["stats"]["sigma_star"] == 0
    assert_counter_stats(payload)


def test_golden_outputs_are_canonical_json():
    # `--json` prints one object with sorted keys, so a hand edit of a
    # recorded output must leave it in exactly that form.
    for case in CASES:
        text = (GOLDEN / f"{case['name']}.out").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", case["name"]
