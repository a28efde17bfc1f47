"""CLI fuzz gate: every subcommand, run in-process through `cli.main` on
arbitrary bytes and on mutated golden inputs, ends with a documented exit
code (0-4), prints exactly one JSON object under `--json`, and prints no
traceback.

The golden cases (`golden/cases.json`) give one argv per request shape;
the input file is replaced by stdin ('-') and fed either random bytes or
its own bytes after one mutation: truncation, a duplicated line, a huge
label, deep nesting, or a few random byte edits.  An input that breaks
the contract is a bug in `src/`, not a reason to narrow the strategies.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from setflex.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"


def _from_stdin(argv):
    """The golden argv with its input file as '-', and that file's bytes."""
    (name,) = [arg for arg in argv if (GOLDEN / arg).is_file()]
    return ["-" if arg == name else arg for arg in argv], (GOLDEN / name).read_bytes()


# Every golden request shape that reads an input (all but `count --formula-n`).
REQUESTS = [
    _from_stdin(case["argv"]) for case in json.loads((GOLDEN / "cases.json").read_text())
    if any((GOLDEN / arg).is_file() for arg in case["argv"])
]


def truncated(draw, data: bytes) -> bytes:
    return data[:draw(st.integers(0, len(data)))]


def duplicated_line(draw, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    i = draw(st.integers(0, len(lines) - 1))
    copies = draw(st.integers(1, 3))
    return b"".join(lines[:i + 1] + [lines[i]] * copies + lines[i + 1:])


def huge_label(draw, data: bytes) -> bytes:
    # Replaces one run of label characters, or appends a member with it.
    label = draw(st.sampled_from([b"x", b"\xc3\xa9", b"7"])) * draw(
        st.sampled_from([1_000, 100_000]))
    words = [i for i, byte in enumerate(data) if chr(byte).isalnum()]
    if not words:
        return data + b"\n" + label + b",a,b\n"
    at = draw(st.sampled_from(words))
    return data[:at] + label + data[at + 1:]


def deep_nesting(draw, data: bytes) -> bytes:
    depth = draw(st.sampled_from([10, 300, 2_000, 50_000]))
    kind = draw(st.sampled_from(["newick", "json", "prefix"]))
    if kind == "newick":
        body = data.split(b";")[0].strip() or b"a"
        tail = b"".join(b",d%d)" % i for i in range(depth))
        return b"(" * depth + body + tail + b";\n"
    if kind == "json":
        return b'{"sets": ' + b"[" * depth + b"]" * depth + b"}"
    return b"(" * depth + data


def byte_edits(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        byte = draw(st.sampled_from(b"(),;|:#{}[]\" \n\t\x00\xff,ab"))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(out):
            out[at:at] = bytes([byte])
        elif edit == "replace":
            out[at] = byte
        else:
            del out[at]
    return bytes(out)


MUTATIONS = [truncated, duplicated_line, huge_label, deep_nesting, byte_edits]


@st.composite
def request_and_input(draw):
    argv, data = draw(st.sampled_from(REQUESTS))
    mutation = draw(st.sampled_from([None, *MUTATIONS]))
    data = draw(st.binary(max_size=300)) if mutation is None else mutation(draw, data)
    return argv, data, draw(st.booleans())


def run_in_process(argv, data: bytes):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_requests_cover_every_subcommand():
    assert {argv[0] for argv, _ in REQUESTS} == set(COMMANDS)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(request_and_input())
def test_every_request_ends_with_a_documented_outcome(case):
    argv, data, as_json = case
    # An exception escaping `main` fails the test: it would be a traceback.
    code, out, err = run_in_process(argv + (["--json"] if as_json else []), data)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out + err
    if as_json:
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
