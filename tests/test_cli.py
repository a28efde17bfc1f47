import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from setflex import (
    BuildResult,
    InternalVerificationError,
    RootedPhyloTree,
    displays_clusters,
    exhaustive,
    graphopt,
    parse_newick,
    phylo,
)
from setflex.cli import main
from conftest import FIG1, restrict, shuffled_labels, yule_shape


@pytest.fixture
def fig1(tmp_path):
    path = tmp_path / "fig1.sets"
    path.write_text("a,b,c\na,b,d\nb,c,e\nd,e,f\n")
    return str(path)


@pytest.fixture
def fig1p(tmp_path):
    path = tmp_path / "fig1p.sets"
    path.write_text("a,b,c\na,b,d\nb,c,e\nd,e,f\nb,d,e\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json", "--no-stats")
    return code, json.loads(out)


class TestCheck:
    def test_thin_fig1(self, capsys, fig1):
        code, payload = run_json(capsys, "check", "thin", fig1, "--r", "3")
        assert code == 0
        assert payload["verdict"] is True
        assert payload["sigma_star"] == 2
        assert payload["method"] == "mincut"

    def test_human_timing_line_goes_to_stderr(self, capsys, fig1):
        assert main(["check", "thin", fig1]) == 0
        captured = capsys.readouterr()
        assert "time:" not in captured.out and "sigma" in captured.out
        assert re.fullmatch(r"time: \d+\.\d ms\n", captured.err)
        assert main(["check", "thin", fig1, "--no-stats"]) == 0
        captured = capsys.readouterr()
        assert "time:" not in captured.out and captured.err == ""

    def test_thin_infers_r(self, capsys, fig1):
        code, payload = run_json(capsys, "check", "thin", fig1)
        assert code == 0 and payload["r"] == 3

    def test_thin_exhaustive_fig1p(self, capsys, fig1p):
        code, payload = run_json(
            capsys, "check", "thin", fig1p, "--method", "exhaustive"
        )
        assert code == 1
        assert payload["certificate"]["excess"] == -1

    def test_slim(self, capsys, tmp_path):
        path = tmp_path / "quads.sets"
        path.write_text("a,b,c,d\nc,d,e,f\n")
        code, payload = run_json(capsys, "check", "slim", str(path))
        assert code == 0 and payload["gamma_star"] == 2

    def test_flexible_bruteforce_fig1p(self, capsys, fig1p):
        code, payload = run_json(
            capsys, "check", "flexible", fig1p, "--method", "bruteforce"
        )
        assert code == 1
        assert all("|" in line for line in payload["certificate"])

    def test_flexible_counterexample_printed_as_lines(self, capsys, fig1p):
        code, out = run(
            capsys, "check", "flexible", fig1p, "--method", "bruteforce",
            "--no-stats",
        )
        assert code == 1
        lines = out.splitlines()
        assert "counterexample:" in lines
        triple_lines = lines[lines.index("counterexample:") + 1:]
        assert len(triple_lines) == 5 and all("|" in t for t in triple_lines)

    def test_flexible_mincut(self, capsys, fig1):
        code, payload = run_json(capsys, "check", "flexible", fig1)
        assert code == 0 and payload["method"] == "mincut"

    def test_order_flexible_triangle(self, capsys, tmp_path):
        path = tmp_path / "pairs.sets"
        path.write_text("a,b\nb,c\na,c\n")
        code, payload = run_json(capsys, "check", "order-flexible", str(path))
        assert code == 1 and payload["method"] == "forest"
        code2, payload2 = run_json(
            capsys, "check", "order-flexible", str(path), "--method", "bruteforce"
        )
        assert code2 == 1
        assert payload2["certificate"]["cycle"] == ["a", "b", "c"]

    def test_budget_exceeded_exit_3(self, capsys, fig1, monkeypatch):
        monkeypatch.setenv("SETFLEX_BUDGET", "10")
        code, out = run(capsys, "check", "flexible", fig1, "--method", "bruteforce")
        assert code == 3

    def test_bad_budget_env_exit_2(self, capsys, fig1, monkeypatch):
        monkeypatch.setenv("SETFLEX_BUDGET", "lots")
        code, _ = run(capsys, "check", "flexible", fig1, "--method", "bruteforce")
        assert code == 2

    def test_budget_flag_overrides(self, capsys, fig1):
        code, _ = run_json(
            capsys, "check", "flexible", fig1, "--method", "bruteforce",
            "--budget", "100",
        )
        assert code == 0

    def test_mixed_sizes_need_slim(self, capsys, tmp_path):
        path = tmp_path / "mixed.sets"
        path.write_text("a,b,c\na,b,c,d\n")
        code, _ = run(capsys, "check", "thin", str(path))
        assert code == 2

    def test_cap_exceeded_exit_3(self, capsys, fig1):
        code, _ = run(
            capsys, "check", "thin", fig1, "--method", "exhaustive", "--cap", "3"
        )
        assert code == 3

    def test_bruteforce_cap_exceeded_exit_3(self, capsys, fig1):
        code = main(["check", "flexible", fig1, "--method", "bruteforce", "--cap", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "3 leaves exceed the enumeration cap 2" in captured.err
        code, payload = run_json(
            capsys, "check", "flexible", fig1, "--method", "bruteforce", "--cap", "3"
        )
        assert code == 0 and payload["verdict"] is True

    def test_bruteforce_stats_carry_the_core(self, capsys, fig1p):
        code, out = run(
            capsys, "check", "flexible", fig1p, "--method", "bruteforce", "--json"
        )
        assert code == 1
        assert json.loads(out)["stats"] == {"assignments_checked": 31, "core_members": 4}

    def test_orientation_cap_default_is_20(self, capsys, tmp_path):
        # 17 pairs exceed the exhaustive cap but fit the orientation cap;
        # the leading triangle makes the scan fail fast.
        labels = [f"t{i:02d}" for i in range(15)]
        lines = "a,b\na,c\nb,c\n" + "".join(
            f"{labels[i]},{labels[i + 1]}\n" for i in range(14)
        )
        path = tmp_path / "pairs.sets"
        path.write_text(lines)
        code, _ = run_json(
            capsys, "check", "order-flexible", str(path), "--method", "bruteforce"
        )
        assert code == 1

        over = path.with_name("over.sets")
        over.write_text(lines + "x,y\ny,z\nx,z\nw,x\n")
        code, _ = run(
            capsys, "check", "order-flexible", str(over), "--method", "bruteforce"
        )
        assert code == 3


class TestErrorSurface:
    def test_negative_budget_flag_exit_2(self, capsys, fig1):
        code, payload = run_json(
            capsys, "check", "flexible", fig1, "--method", "bruteforce",
            "--budget", "-1",
        )
        assert code == 2 and "--budget" in payload["error"]

    def test_negative_budget_env_exit_2(self, capsys, fig1, monkeypatch):
        monkeypatch.setenv("SETFLEX_BUDGET", "-1")
        code, payload = run_json(
            capsys, "check", "flexible", fig1, "--method", "bruteforce"
        )
        assert code == 2 and "SETFLEX_BUDGET" in payload["error"]

    @pytest.mark.parametrize("argv", [
        ("check", "thin", "FIG1", "--method", "exhaustive", "--cap", "-1"),
        ("check", "order-flexible", "FIG1", "--method", "bruteforce", "--cap", "-1"),
        ("count", "--formula-n", "6", "--cap", "-1"),
    ])
    def test_negative_cap_exit_2(self, capsys, fig1, argv):
        argv = [fig1 if a == "FIG1" else a for a in argv]
        code, payload = run_json(capsys, *argv)
        assert code == 2 and "--cap" in payload["error"]

    @pytest.mark.parametrize("kind, method", [
        ("order-flexible", "mincut"),
        ("order-flexible", "exhaustive"),
        ("thin", "bruteforce"),
        ("slim", "forest"),
        ("flexible", "exhaustive"),
    ])
    def test_unsupported_method_exit_2(self, capsys, kind, method):
        path = Path(__file__).parent / "golden" / "pair_square.sets"
        code, payload = run_json(capsys, "check", kind, str(path), "--method", method)
        assert code == 2
        assert payload == {"error": f"unsupported method {method!r} for {kind}"}

    @pytest.mark.parametrize("value", ["-1", "lots"])
    @pytest.mark.parametrize("kind", ["thin", "slim", "flexible", "order-flexible"])
    def test_budget_env_validated_on_every_check(
        self, capsys, fig1, monkeypatch, kind, value
    ):
        monkeypatch.setenv("SETFLEX_BUDGET", value)
        code, payload = run_json(capsys, "check", kind, fig1)
        assert code == 2 and "SETFLEX_BUDGET" in payload["error"]

    def test_count_default_cap_is_8(self, capsys, tmp_path):
        path = tmp_path / "nine.txt"
        path.write_text("a,b|c\nd,e|f\ng,h|i\n")
        code, payload = run_json(capsys, "count", str(path))
        assert code == 3 and payload == {"error": "9 leaves exceed the enumeration cap 8"}
        code, payload = run_json(capsys, "count", str(path), "--cap", "7")
        assert code == 3 and payload == {"error": "9 leaves exceed the enumeration cap 7"}

    def test_zero_budget_is_a_limit_not_a_usage_error(self, capsys, fig1):
        code, _ = run(
            capsys, "check", "flexible", fig1, "--method", "bruteforce",
            "--budget", "0",
        )
        assert code == 3

    @staticmethod
    def run_error(capsys, *argv):
        """Exit code and the one JSON error object; fails on a traceback."""
        code = main([*argv, "--json", "--no-stats"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert list(payload) == ["error"]
        return code, payload["error"]

    @pytest.mark.parametrize("text", [
        '{"sets": 5}',
        '{"sets": [null]}',
        '{"sets": "abc"}',
        '{"sets": {"a": 1}}',
        '{"sets": ["abc", "cde"]}',
        '{"sets": [], "extra_taxa": 5}',
        '{"sets": [["a", "b", "c"]], "extra_taxa": "xyz"}',
        '{"sets": [["a", "b", "c"]], "extra_taxa": null}',
    ])
    def test_malformed_json_sets_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, error = self.run_error(capsys, "check", "slim", str(path))
        assert code == 2 and "must be an array" in error

    @pytest.mark.parametrize("text, error", [
        ('{"sets": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "invalid JSON: nested too deeply"),
        ('{"sets": [["a", "b", "c"]], "n": ' + "7" * 5000 + "}",
         "invalid JSON: integer literal too long"),
    ], ids=["nested", "long-integer"])
    def test_json_past_the_decoder_limits_exit_2(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert self.run_error(capsys, "check", "slim", str(path)) == (2, error)
        assert main(["check", "slim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ("check", "slim"), ("supertree",), ("order",),
    ])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe,a,b\n")
        code, error = self.run_error(capsys, *argv, str(path))
        assert code == 2 and error.startswith(f"{path} is not UTF-8 text")

    def test_non_utf8_stdin_exit_2(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "check", "slim", "--json", "--no-stats"],
            input=b"\xff\xfe,a,b\n", capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2 and b"Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"].startswith("stdin is not UTF-8 text")

    @pytest.mark.parametrize("label", ["a#b", "a|b", "'ab", '"ab'])
    def test_label_the_text_formats_cannot_carry_exit_2(self, capsys, tmp_path, label):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"sets": [[label, "c", "d"], ["c", "d", "e"]]}))
        code, error = self.run_error(capsys, "check", "slim", str(path))
        assert code == 2
        assert error == f"taxon label {label!r} contains # or | or starts with a quote"

    @pytest.mark.parametrize("text", ["a b,c\n", "x,'q\n", "a,b|c\n"])
    def test_order_label_the_text_formats_cannot_carry_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "pairs.txt"
        path.write_text(text)
        code, error = self.run_error(capsys, "order", str(path))
        assert code == 2 and error.startswith("taxon label ")

    @pytest.mark.parametrize(
        "text", ["", "# no members\n\n", '{"sets": []}'], ids=["empty", "comment", "json"]
    )
    @pytest.mark.parametrize("argv", [
        ("thin",),
        ("thin", "--r", "3"),
        ("thin", "--r", "3", "--method", "exhaustive"),
        ("slim",),
        ("slim", "--method", "exhaustive"),
        ("flexible",),
        ("flexible", "--method", "bruteforce"),
        ("order-flexible",),
        ("order-flexible", "--method", "bruteforce"),
        ("represent", "median-caterpillar"),
        ("represent", "lca-caterpillar"),
        ("sdr", "--B", "a,b"),
    ], ids=" ".join)
    def test_empty_system_exit_2(self, capsys, tmp_path, text, argv):
        path = tmp_path / "empty.sets"
        path.write_text(text)
        if argv[0] in ("represent", "sdr"):
            code, error = self.run_error(capsys, *argv, str(path))
        else:
            code, error = self.run_error(capsys, "check", argv[0], str(path), *argv[1:])
        assert code == 2 and error == "the set system has no members"

    @pytest.fixture
    def broken_is_thin(self, monkeypatch):
        def broken(system, r):
            raise InternalVerificationError("witness does not reproduce")

        monkeypatch.setattr(graphopt, "is_thin", broken)

    def test_internal_verification_exit_4_json(self, capsys, fig1, broken_is_thin):
        code, payload = run_json(capsys, "check", "thin", fig1)
        assert code == 4
        assert payload == {
            "error": "witness does not reproduce", "kind": "internal-verification",
        }

    def test_internal_verification_exit_4_human(self, capsys, fig1, broken_is_thin):
        assert main(["check", "thin", fig1]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness does not reproduce\n"

    def test_exhaustive_witness_is_rechecked_exit_4(self, capsys, fig1p, monkeypatch):
        monkeypatch.setattr(exhaustive, "excess_uniform", lambda *args: 0)
        code, payload = run_json(capsys, "check", "thin", fig1p, "--method", "exhaustive")
        assert code == 4
        assert payload == {
            "error": "exhaustive witness does not reproduce its excess",
            "kind": "internal-verification",
        }


class TestSupertree:
    def test_chain(self, capsys, tmp_path):
        path = tmp_path / "triples.txt"
        path.write_text("a,b|c\nb,c|d\n")
        code, out = run(capsys, "supertree", str(path), "--no-stats")
        assert code == 0
        assert out.strip() == "(((a,b),c),d);"

    def test_single_triple(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("a,b|c\n")
        code, out = run(capsys, "supertree", str(path), "--no-stats")
        assert code == 0 and out.strip() == "((a,b),c);"

    def test_fig1_ii_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a,b|c\nb,d|a\nb,c|e\nd,f|e\nb,e|d\n")
        code, payload = run_json(capsys, "supertree", str(path))
        assert code == 1
        assert payload["witness"] == ["a", "b", "c", "d", "e", "f"]

    def test_newick_input_expanded(self, capsys, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("((a,b),c);\n((c,d),e);\n")
        code, payload = run_json(capsys, "supertree", str(path))
        assert code == 0

    def test_binary_flag(self, capsys, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("a,b|c\nd,e|f\n")
        code, payload = run_json(capsys, "supertree", str(path), "--binary")
        assert code == 0
        tree = payload["newick"]
        assert tree.count("(") == 5  # binary on six leaves

    @pytest.fixture
    def dropped_cluster(self, monkeypatch):
        """BUILD that loses the first interior child of the root."""
        real = phylo.build_supertree

        def drop_one(triples, taxa=None):
            shape = real(triples, taxa=taxa).tree.shape
            i = next(i for i, child in enumerate(shape) if isinstance(child, tuple))
            shape = shape[:i] + shape[i] + shape[i + 1:]
            return BuildResult(tree=RootedPhyloTree(shape), witness=None)

        monkeypatch.setattr(phylo, "build_supertree", drop_one)

    @pytest.mark.parametrize("text, error", [
        # The supertree ((a,b),(c,d),e) loses its cluster {a,b}.
        ("# two trees\n((a,b),c);\n((c,d),e);\n",
         "supertree does not display the tree on line 2"),
        ("((c,d),e);\na,b|c\n", "supertree does not display a,b|c"),
    ])
    def test_self_check_exit_4(self, capsys, tmp_path, dropped_cluster, text, error):
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert main(["supertree", str(path), "--json", "--no-stats"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "error": error, "kind": "internal-verification",
        }


class TestRepresent:
    def test_median_fig3(self, capsys, tmp_path):
        path = tmp_path / "fig3.sets"
        path.write_text("a,b,c\nc,d,e\na,e,f\nb,e,g\na,d,g\n")
        code, payload = run_json(capsys, "represent", "median-caterpillar", str(path))
        assert code == 0
        assert payload["verified"] is True
        assert len(payload["vertex_map"]) == 5
        assert len(set(payload["vertex_map"].values())) == 5

    def test_single_triple_extra(self, capsys, tmp_path):
        path = tmp_path / "one.sets"
        path.write_text("a,b,c\n")
        code, payload = run_json(
            capsys, "represent", "median-caterpillar", str(path), "--extra", "d"
        )
        assert code == 0
        assert payload["appended_taxa"] == ["d"]
        assert len(payload["vertex_map"]) == 1

    @pytest.mark.parametrize("kind, sets", [
        ("median-caterpillar", [list(m) for m in FIG1]),
        ("lca-caterpillar", [["a", "b"], ["b", "c"], ["c", "d"]]),
    ])
    def test_extra_keeps_the_inputs_extra_taxa(self, capsys, tmp_path, kind, sets):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"sets": sets, "extra_taxa": ["y"]}))
        code, payload = run_json(capsys, "represent", kind, str(path), "--extra", "x")
        assert code == 0
        assert payload["appended_taxa"] == ["x", "y"]

    def test_not_thin_exit_2(self, capsys, fig1p):
        code, out = run(
            capsys, "represent", "median-caterpillar", fig1p, "--json"
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["sigma_star"] == 1
        assert "witness_indices" in payload

    def test_lca(self, capsys, tmp_path):
        path = tmp_path / "pairs.sets"
        path.write_text("a,b\nb,c\n")
        code, payload = run_json(capsys, "represent", "lca-caterpillar", str(path))
        assert code == 0 and payload["verified"] is True


class TestCount:
    def test_enumerated(self, capsys, tmp_path):
        path = tmp_path / "tr.txt"
        path.write_text("a,b|c\nd,e|f\n")
        code, payload = run_json(capsys, "count", str(path))
        assert code == 0 and payload == {
            "command": "count", "count": 105, "method": "enumeration",
        }

    def test_formula_only(self, capsys):
        code, payload = run_json(capsys, "count", "--formula-n", "9")
        assert code == 0 and payload["count"] == 75075

    def test_cross_checked(self, capsys, tmp_path):
        path = tmp_path / "tr.txt"
        path.write_text("a,b|c\nd,e|f\n")
        code, payload = run_json(capsys, "count", str(path), "--formula-n", "6")
        assert code == 0 and payload["method"] == "both"

    def test_mismatch_is_error(self, capsys, tmp_path):
        path = tmp_path / "tr.txt"
        path.write_text("a,b|c\nb,d|e\n")  # overlapping, not disjoint
        code, _ = run(capsys, "count", str(path), "--formula-n", "6")
        assert code == 2

    def test_single_triple(self, capsys, tmp_path):
        path = tmp_path / "tr.txt"
        path.write_text("a,b|c\n")
        code, payload = run_json(capsys, "count", str(path))
        assert payload["count"] == 1


class TestSdr:
    def test_fig1(self, capsys, fig1):
        code, payload = run_json(capsys, "sdr", fig1, "--B", "a,b")
        assert code == 0
        assert payload["assignment"] == {
            "a,b,c": "c", "a,b,d": "d", "b,c,e": "e", "d,e,f": "f",
        }

    def test_failure(self, capsys, fig1p):
        code, payload = run_json(capsys, "sdr", fig1p, "--B", "a,c")
        assert code == 1
        assert payload["violator_derived"] == [["b"], ["b", "d"], ["b", "e"], ["b", "d", "e"]]

    def test_bad_b_size(self, capsys, fig1):
        code, _ = run(capsys, "sdr", fig1, "--B", "a")
        assert code == 2


class TestOrder:
    def test_chain(self, capsys, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text("a,b\nb,c\n")
        code, payload = run_json(capsys, "order", str(path))
        assert code == 0 and payload["order"] == ["a", "b", "c"]

    def test_cycle(self, capsys, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text("a,b\nb,c\nc,a\n")
        code, payload = run_json(capsys, "order", str(path))
        assert code == 1 and payload["cycle"] == ["a", "b", "c"]


class TestGenDefining:
    def test_caterpillar(self, capsys, tmp_path):
        path = tmp_path / "tree.nwk"
        path.write_text("(((a,b),c),d);\n")
        code, out = run(capsys, "gen-defining", str(path), "--no-stats")
        assert code == 0
        assert out.splitlines() == ["b,c|d", "a,b|c"]

    def test_triple(self, capsys, tmp_path):
        path = tmp_path / "tree.nwk"
        path.write_text("((a,b),c);\n")
        code, out = run(capsys, "gen-defining", str(path), "--no-stats")
        assert out.strip() == "a,b|c"

    def test_round_trip_through_supertree(self, capsys, tmp_path):
        source = "((((a,(b,c)),d),(e,f)),g);"
        path = tmp_path / "tree.nwk"
        path.write_text(source + "\n")
        code, out = run(capsys, "gen-defining", str(path), "--no-stats")
        assert code == 0
        triples = tmp_path / "triples.txt"
        triples.write_text(out)
        code2, rebuilt = run(capsys, "supertree", str(triples), "--no-stats")
        assert code2 == 0
        assert rebuilt.strip() == source


class TestArgumentOrder:
    INPUTS = {
        "sets": "a,b,c\na,b,d\nb,c,e\nd,e,f\n",
        "triples": "a,b|c\nd,e|f\n",
        "orient": "a,b\nb,c\n",
        "newick": "(((a,b),c),d);\n",
    }
    # (subcommand and kind, input, options) for every subcommand with an input.
    CASES = [
        (("check", "thin"), "sets", ("--r", "3")),
        (("check", "slim"), "sets", ("--method", "exhaustive", "--cap", "8")),
        (("check", "flexible"), "sets", ("--method", "bruteforce", "--budget", "100")),
        (("supertree",), "triples", ("--binary",)),
        (("represent", "median-caterpillar"), "sets", ("--extra", "z")),
        (("count",), "triples", ("--cap", "6")),
        (("sdr",), "sets", ("--B", "a,b")),
        (("order",), "orient", ()),
        (("gen-defining",), "newick", ()),
    ]

    @pytest.mark.parametrize("command, fmt, options", CASES,
                             ids=[" ".join(command) for command, _, _ in CASES])
    def test_input_before_or_after_options(self, capsys, tmp_path, command, fmt, options):
        path = tmp_path / "input.txt"
        path.write_text(self.INPUTS[fmt])
        flags = ("--json", "--no-stats")
        first = run(capsys, *command, str(path), *options, *flags)
        second = run(capsys, *command, *options, *flags, str(path))
        assert first[0] == 0 and json.loads(first[1])
        assert second == first

    def test_stdin_dash_after_options(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(self.INPUTS["sets"].encode()))
        )
        code, payload = run_json(capsys, "check", "thin", "--r", "3", "-")
        assert code == 0 and payload["sigma_star"] == 2

    @pytest.mark.parametrize("extra", [
        ("SECOND",),            # an input given twice
        ("other.sets", "x"),    # two leftovers
        ("--bogus",),           # an unknown option
        ("-x",),
    ])
    def test_other_leftovers_are_usage_errors(self, capsys, fig1, extra):
        extra = [fig1 if a == "SECOND" else a for a in extra]
        argv = ["check", "thin", "--r", "3", *extra]
        if extra[0] == fig1:
            argv.insert(2, fig1)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(extra)}" in err


class TestParser:
    # (argv, exit code, the stream that carries the text, the text).
    CASES = [
        (("check", "thin", "FIG1", "--r=3", "--method=mincut"), 0, "out", '"sigma_star": 2'),
        (("sdr", "FIG1", "--B=a,b"), 0, "out", '"found": true'),
        (("-h",), 0, "out", "usage:"),
        (("--help",), 0, "out", "usage:"),
        (("check", "-h"), 0, "out", "usage:"),
        (("sdr", "FIG1", "--help"), 0, "out", "usage:"),
        (("bogus", "FIG1"), 2, "err", "'bogus'"),
        (("check", "thick", "FIG1"), 2, "err", "'thick'"),
        (("check", "thin", "FIG1", "--method", "magic"), 2, "err", "'magic'"),
        (("check", "thin", "FIG1", "--r", "three"), 2, "err", "'three'"),
        (("check", "thin", "FIG1", "--r"), 2, "err", "--r"),
        (("check", "thin", "FIG1", "--r", "--no-stats"), 2, "err", "--r"),
        (("sdr", "FIG1"), 2, "err", "--B"),
        (("check", "--r", "3"), 2, "err", "kind"),
        ((), 2, "err", "subcommand"),
    ]

    @pytest.mark.parametrize("argv, code, stream, text", CASES,
                             ids=[" ".join(argv) or "no arguments" for argv, *_ in CASES])
    def test_usage(self, capsys, fig1, argv, code, stream, text):
        argv = [fig1 if a == "FIG1" else a for a in argv]
        if code == 0 and text != "usage:":
            argv += ["--json", "--no-stats"]
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code
        assert text in (captured.out if stream == "out" else captured.err)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.out == "" and "error:" in captured.err

    def test_main_reads_sys_argv(self, capsys, fig1, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["setflex", "check", "thin", fig1, "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True


class TestSupertreeLarge:
    def test_deep_caterpillar_exits_0(self, tmp_path):
        # x0,x_i|x_{i+1} force ((((x0,x1),x2),...),x1199), 1,199 levels
        # deep; BUILD, the display re-check and printing walk it.
        names = [f"x{i:04d}" for i in range(1200)]
        path = tmp_path / "triples.txt"
        path.write_text("".join(f"{names[0]},{names[i]}|{names[i + 1]}\n"
                                for i in range(1, 1199)))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "supertree", str(path), "--binary",
             "--no-stats"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 20.0
        assert proc.returncode == 0
        assert proc.stderr == ""
        expected = "(" * 1199 + names[0] + "".join(f",{x})" for x in names[1:]) + ";"
        assert proc.stdout.strip() == expected


class TestCountLarge:
    def test_eight_taxa_at_the_default_cap(self, tmp_path):
        # 8 taxa, the default cap: enumerating the 135,135 binary trees
        # took about 12 s; the golden case count-cap8 holds the same
        # input and the count that enumeration recorded.
        path = tmp_path / "cap8.triples"
        path.write_text("a,b|c\nd,e|f\ng,h|a\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "count", str(path), "--no-stats"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 2.0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3861\n", "")

    def test_seventeen_taxa_stop_at_the_budget(self, tmp_path):
        # The shared cherry a,b barely constrains the count, so the split
        # table on 17 taxa would grow to about 3^17/2 terms and gigabytes;
        # the assignment budget stops it with exit 3 (about 1.5 s here).
        path = tmp_path / "cherry17.triples"
        path.write_text("".join(f"a,b|c{i:02d}\n" for i in range(1, 16)))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "count", str(path), "--cap", "17", "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 15.0
        assert (proc.returncode, proc.stderr) == (3, "")
        assert json.loads(proc.stdout) == {
            "error": "counting trees on 17 taxa needs more than 1000000 split terms"
        }


class TestSupertreeOverlapLarge:
    """Three overlapping 1,500-leaf restrictions of a 2,000-leaf Yule tree.

    A Yule tree is shallow, so its Newick text parses without deep
    recursion; each tree has C(1500, 3), about 5.6e8, triples.
    """

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = random.Random(2000)
        labels = shuffled_labels(rng, 2000)
        hidden = RootedPhyloTree(yule_shape(rng, labels))
        trees = [restrict(hidden, rng.sample(labels, 1500)) for _ in range(3)]
        # Three leaves all trees share, a,b|c in the hidden tree; with a
        # and c exchanged the first tree displays c,b|a instead.
        common = sorted(set.intersection(*(set(t.leaves) for t in trees)))
        a, b = sorted(hidden.resolve(*common[:3]))
        (c,) = set(common[:3]) - {a, b}
        swap = {a: c, c: a}
        perturbed = re.sub(r"[^(),;]+", lambda m: swap.get(m[0], m[0]), trees[0].newick())
        return trees, perturbed

    @staticmethod
    def supertree(tmp_path, lines):
        path = tmp_path / "trees.nwk"
        path.write_text("".join(line + "\n" for line in lines))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "setflex", "supertree", str(path), "--json",
             "--no-stats"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert proc.stderr == ""
        return proc.returncode, json.loads(proc.stdout)

    def test_compatible_exits_0(self, tmp_path, inputs):
        trees, _ = inputs
        code, payload = self.supertree(tmp_path, [t.newick() for t in trees])
        assert code == 0
        result = parse_newick(payload["newick"])
        assert all(displays_clusters(result, t) for t in trees)

    def test_perturbed_exits_1(self, tmp_path, inputs):
        trees, perturbed = inputs
        code, payload = self.supertree(
            tmp_path, [perturbed] + [t.newick() for t in trees[1:]])
        assert code == 1
        assert payload["compatible"] is False and len(payload["witness"]) >= 3


class TestDeterminism:
    def test_json_outputs_are_byte_stable(self, capsys, fig1, fig1p, tmp_path):
        orient = tmp_path / "o.txt"
        orient.write_text("a,b\nb,c\n")
        invocations = [
            ("check", "thin", fig1),
            ("check", "flexible", fig1p, "--method", "bruteforce"),
            ("sdr", fig1, "--B", "a,b"),
            ("order", str(orient)),
            ("represent", "median-caterpillar", fig1),
        ]
        for argv in invocations:
            _, first = run(capsys, *argv, "--json", "--no-stats")
            _, second = run(capsys, *argv, "--json", "--no-stats")
            assert first == second

    def test_unknown_file_exit_2(self, capsys):
        code, _ = run(capsys, "check", "thin", "/nonexistent/path.sets")
        assert code == 2


class TestStartup:
    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # Every request is a fresh interpreter, so each module the CLI
        # imports is paid for on every request; dataclasses drags in
        # inspect, ast, dis and tokenize.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

        def loaded(statement: str) -> set[str]:
            code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return set(proc.stdout.split())

        # The star import runs every lazily loaded layer module.
        added = loaded("import setflex.cli\nfrom setflex import *") - loaded("pass")
        assert "setflex.cli" in added
        assert not added & {"dataclasses", "inspect", "argparse", "gettext"}
