"""Golden CLI corpus: `--json --no-stats` output must match byte for byte.

Each case in `golden/cases.json` names an argv (run from `golden/`), the
expected exit code, and `golden/<name>.out` with the recorded stdout.
The recorded outputs are a reference: a behaviour-preserving refactor
must reproduce them exactly, so they are never regenerated to make this
test pass.
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


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "setflex", *case["argv"], "--json", "--no-stats"],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / f"{case['name']}.out").read_text()


def test_golden_outputs_are_canonical_json():
    # `--json` prints one object with sorted keys, so a hand edit of a
    # recorded output must leave it in exactly that form.
    for case in CASES:
        text = (GOLDEN / f"{case['name']}.out").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", case["name"]
