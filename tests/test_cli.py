import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover import cli
from circuitcover.cli import main
from circuitcover.errors import TooLarge
from circuitcover.generators import ladder
from circuitcover.graphio import format_graph, parse_graph, read_graph, write_instance
from circuitcover.graphs import Graph
from circuitcover.errors import ParseError

from conftest import cycle_graph


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.graph"
    path.write_text(format_graph(cycle_graph(6)))
    return path


@pytest.fixture
def ladder4_file(tmp_path):
    path = tmp_path / "ladder-4.graph"
    path.write_text(format_graph(ladder(4).graph))
    return path


class TestGraphFormat:
    def test_round_trip(self):
        g = ladder(5).graph
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# a square\n4 4\n0 1\n1 2\n\n2 3 # last rail\n3 0\n")
        assert g.n == 4 and g.m == 4

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 2\n0 1\n0 x\n")
        assert exc.value.line == 3

    def test_negative_vertex_count_names_the_header(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("# no vertices\n-1 0\n")
        assert exc.value.line == 2

    # every rule of the file format, each at the line at fault
    @pytest.mark.parametrize(
        "text, err",
        [
            # the fifth line repeats the first edge, past a comment line
            (
                "4 3\n0 1\n# a comment\n1 2\n1 0\n",
                "line 5: edge 2=(1,0) duplicates an earlier edge",
            ),
            ("3 2\n0 1\n2 2\n", "line 3: edge 1 is a self-loop at 2"),
            ("3 2\n0 1\n1 3\n", "line 3: edge 1=(1,3) has endpoint out of range"),
            ("3 1\n\n-1 0\n", "line 3: edge 0=(-1,0) has endpoint out of range"),
            (
                "100000000000 1\n0 100000000001\n",
                "line 2: edge 0=(0,100000000001) has endpoint out of range",
            ),
            ("3 1\n0 1\n1 2\n", "line 3: more edge lines than declared"),
            ("3 2\n0 1\n", "line 1: declared 2 edges, found 1"),
        ],
        ids=[
            "duplicate", "self-loop", "endpoint", "negative", "huge-header", "more-lines", "count"
        ],
    )
    def test_each_fault_names_its_own_line(self, tmp_path, capsys, text, err):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_instance_sidecar_round_trip(self, tmp_path):
        inst = ladder(4)
        gpath, jpath = write_instance(inst, tmp_path)
        assert gpath == tmp_path / "ladder-4.graph"
        assert read_graph(gpath) == inst.graph
        assert json.loads(jpath.read_text()) == {
            "label": "ladder-4",
            "prescribed": sorted(inst.prescribed),
        }


class TestCheck:
    def test_even_graph_universal(self, c6_file, capsys):
        code = main(["check", str(c6_file), "--k", "100"])
        out = capsys.readouterr().out
        assert code == 0 and "none" in out

    # the exact text of check in each of its three cases
    @pytest.mark.parametrize(
        "graph, k, code, text",
        [
            ("c6", 100, 0, "min odd cut: none; circuit-universal for every k\n"),
            (
                "ladder4",
                2,
                0,
                "min odd cut: size 3, side [1]\ncircuit-universal up to k=2: holds\n",
            ),
            (
                "ladder4",
                3,
                2,
                "min odd cut: size 3, side [1]\ncircuit-universal up to k=3: fails\n",
            ),
        ],
    )
    def test_text(self, request, capsys, graph, k, code, text):
        path = request.getfixturevalue(f"{graph}_file")
        assert main(["check", str(path), "--k", str(k)]) == code
        captured = capsys.readouterr()
        assert captured.out == text and captured.err == ""

    def test_ladder_k3_fails(self, ladder4_file, capsys):
        code = main(["check", str(ladder4_file), "--k", "3", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["min_odd_cut"]["size"] == 3
        assert report["verdicts"]["universal_up_to_k"] is False

    def test_ladder_k2_holds(self, ladder4_file):
        assert main(["check", str(ladder4_file), "--k", "2", "--quiet"]) == 0

    def test_negative_k_is_an_error(self, ladder4_file, capsys):
        code = main(["check", str(ladder4_file), "--k", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_negative_vertex_count_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "negative.graph"
        path.write_text("-1 0\n")
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_certificate_under_python_optimize(self, ladder4_file):
        # -O strips assert statements; the soundness checks must not depend on them
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

        def run_optimized(*args):
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "circuitcover.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2, proc.stderr
            return json.loads(proc.stdout)

        checked = run_optimized("check", str(ladder4_file), "--k", "3", "--json")
        assert checked["min_odd_cut"]["size"] == 3
        found = run_optimized("find", str(ladder4_file), "--edges", "0,1,2")
        assert found["status"] == "odd-cut" and found["odd"] and found["size"] <= 3


class TestFind:
    def test_circuit_json_and_exit_code(self, c6_file, capsys):
        code = main(["find", str(c6_file), "--edges", "0,3", "--certify"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "circuit" and payload["certified"] is True
        assert payload["prescribed"] == [0, 3]

    def test_certificate_with_oracle_fallback(self, ladder4_file, capsys):
        code = main(
            ["find", str(ladder4_file), "--edges", "0,1,2", "--oracle-fallback"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["status"] == "odd-cut" and payload["size"] == 3
        assert payload["oracle_feasible"] is False
        assert payload["prescribed"] == [0, 1, 2]

    def test_oracle_fallback_past_the_guard(self, tmp_path, capsys):
        # ladder(26) has cycle-space dimension 25, past the oracle's guard
        # of 24: the certificate comes without an oracle verdict
        path = tmp_path / "ladder-26.graph"
        path.write_text(format_graph(ladder(26).graph))
        code = main(["find", str(path), "--edges", "0,1,2", "--oracle-fallback"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["status"] == "odd-cut" and payload["size"] == 3
        assert "oracle_feasible" not in payload

    def test_certified_certificate(self, ladder4_file, capsys):
        code = main(["find", str(ladder4_file), "--edges", "0,1,2", "--certify"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["status"] == "odd-cut" and payload["certified"] is True

    def test_bad_edge_id(self, c6_file, capsys):
        assert main(["find", str(c6_file), "--edges", "99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_json_flag_is_a_usage_error(self, c6_file, capsys):
        # find prints JSON anyway; only check and experiment take --json
        code = main(["find", str(c6_file), "--edges", "0,3", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "--json" in captured.err


class TestQuiet:
    """--quiet prints nothing to stdout; the exit code still gives the outcome."""

    @pytest.mark.parametrize("edges, want", [("1,2", 0), ("0,1,2", 2)])
    def test_find(self, ladder4_file, capsys, edges, want):
        assert main(["find", str(ladder4_file), "--edges", edges, "--quiet"]) == want
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("edges, want", [("1,2", 0), ("0,1,2", 2)])
    def test_oracle(self, ladder4_file, capsys, edges, want):
        assert main(["oracle", str(ladder4_file), "--edges", edges, "--quiet"]) == want
        assert capsys.readouterr().out == ""

    def test_verify(self, c6_file, tmp_path, capsys):
        main(["find", str(c6_file), "--edges", "1,4"])
        good = tmp_path / "good.json"
        good.write_text(capsys.readouterr().out)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"status": "circuit", "walk": [0, 1, 0], "edge_walk": [0, 0]}))
        for result, want in ((good, 0), (bad, 2)):
            argv = ["verify", str(c6_file), "--edges", "1,4", "--result", str(result)]
            assert main(argv + ["--quiet"]) == want
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("k, want", [("2", 0), ("3", 2)])
    def test_check_even_with_json(self, ladder4_file, capsys, k, want):
        argv = ["check", str(ladder4_file), "--k", k, "--json", "--quiet"]
        assert main(argv) == want
        assert capsys.readouterr().out == ""

    def test_experiment_even_with_json(self, capsys):
        assert main(["experiment", "gk-witness", "--json", "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestOracleAndVerify:
    def test_oracle_feasible(self, c6_file, capsys):
        code = main(["oracle", str(c6_file), "--edges", "0,3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["method"] == "oracle"

    def test_oracle_infeasible(self, ladder4_file, capsys):
        code = main(["oracle", str(ladder4_file), "--edges", "0,1,2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["status"] == "infeasible"

    def test_oracle_on_a_graph_without_vertices_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text("0 0\n")
        code = main(["oracle", str(path), "--edges", ""])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_find_then_verify_round_trip(self, c6_file, tmp_path, capsys):
        main(["find", str(c6_file), "--edges", "1,4"])
        result = tmp_path / "result.json"
        result.write_text(capsys.readouterr().out)
        code = main(
            ["verify", str(c6_file), "--edges", "1,4", "--result", str(result)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verified"] is True

    def test_verify_rejects_tampered_walk(self, c6_file, tmp_path, capsys):
        result = tmp_path / "bad.json"
        result.write_text(
            json.dumps({"status": "circuit", "walk": [0, 1, 0], "edge_walk": [0, 0]})
        )
        code = main(["verify", str(c6_file), "--result", str(result)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["verified"] is False

    @pytest.mark.parametrize("walk", [[99], [-1]])
    def test_verify_rejects_vertex_out_of_range(self, ladder4_file, tmp_path, capsys, walk):
        result = tmp_path / "bad.json"
        result.write_text(json.dumps({"status": "circuit", "walk": walk, "edge_walk": []}))
        code = main(["verify", str(ladder4_file), "--result", str(result)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["verified"] is False
        assert "out of range" in payload["reason"]


class TestVerifyCut:
    @pytest.fixture
    def cut_result(self, ladder4_file, tmp_path, capsys):
        assert main(["find", str(ladder4_file), "--edges", "0,1,2"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "odd-cut" and data["size"] == 3
        return data

    def _verify(self, graph, tmp_path, capsys, data, edges):
        result = tmp_path / "cut.json"
        result.write_text(json.dumps(data))
        code = main(["verify", str(graph), "--edges", edges, "--result", str(result)])
        return code, json.loads(capsys.readouterr().out)

    def test_cut_within_bound_verifies(self, ladder4_file, tmp_path, capsys, cut_result):
        code, payload = self._verify(ladder4_file, tmp_path, capsys, cut_result, "0,1,2")
        assert code == 0 and payload["verified"] is True

    def test_cut_larger_than_s_rejected(self, ladder4_file, tmp_path, capsys, cut_result):
        code, payload = self._verify(ladder4_file, tmp_path, capsys, cut_result, "0")
        assert code == 2 and payload["verified"] is False
        assert "exceeds" in payload["reason"]

    @pytest.mark.parametrize("field, value", [("size", 1), ("odd", False)])
    def test_claims_must_match_boundary(
        self, ladder4_file, tmp_path, capsys, cut_result, field, value
    ):
        cut_result[field] = value
        code, payload = self._verify(ladder4_file, tmp_path, capsys, cut_result, "0,1,2")
        assert code == 2 and payload["verified"] is False

    def test_even_boundary_claimed_odd_rejected(self, ladder4_file, tmp_path, capsys):
        # vertex 0 of the ladder has degree 2: its boundary is the even [0, 4]
        data = {"status": "odd-cut", "side": [0], "boundary": [0, 4], "size": 2, "odd": True}
        code, payload = self._verify(ladder4_file, tmp_path, capsys, data, "0,1,2")
        assert code == 2 and payload["verified"] is False
        assert payload["reason"] == "boundary is not odd"

    def test_cut_one_edge_past_the_bound_rejected(
        self, ladder4_file, tmp_path, capsys, cut_result
    ):
        del cut_result["prescribed"]  # the bound comes from --edges alone
        code, payload = self._verify(ladder4_file, tmp_path, capsys, cut_result, "0,1")
        assert code == 2 and payload["verified"] is False
        assert payload["reason"] == "cut size 3 exceeds |S| = 2"

    @pytest.mark.parametrize("side", [[], list(range(8))], ids=["empty", "whole"])
    def test_side_must_cut_the_graph(self, ladder4_file, tmp_path, capsys, side):
        # either side has the empty boundary, so only the side itself is at fault
        data = {"status": "odd-cut", "side": side, "boundary": [], "size": 0, "odd": False}
        code, payload = self._verify(ladder4_file, tmp_path, capsys, data, "0,1,2")
        assert code == 2 and payload["verified"] is False
        assert payload["reason"] == "side is empty or holds every vertex, so it cuts nothing"


class TestVerifyPrescribed:
    """find records S as `prescribed`, so verify checks the size bound and
    the coverage without --edges, and rejects a result for another S."""

    @pytest.fixture
    def k4_file(self, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        return path

    def _find_then_verify(self, tmp_path, capsys, graph, edges, edit, verify_edges=()):
        main(["find", str(graph), "--edges", edges])
        data = json.loads(capsys.readouterr().out)
        edit(data)
        result = tmp_path / "result.json"
        result.write_text(json.dumps(data))
        code = main(["verify", str(graph), "--result", str(result), *verify_edges])
        return code, json.loads(capsys.readouterr().out)

    def test_cut_bound_without_edges(self, k4_file, tmp_path, capsys):
        # K4's 3-cut answers S = {0, 1, 2}; recorded for S = {0} it is too large
        code, payload = self._find_then_verify(tmp_path, capsys, k4_file, "0,1,2", lambda d: None)
        assert code == 0 and payload["verified"] is True
        code, payload = self._find_then_verify(
            tmp_path, capsys, k4_file, "0,1,2", lambda d: d.update(prescribed=[0])
        )
        assert code == 2 and payload["reason"] == "cut size 3 exceeds |S| = 1"

    def test_circuit_coverage_without_edges(self, c6_file, tmp_path, capsys):
        code, payload = self._find_then_verify(tmp_path, capsys, c6_file, "1,4", lambda d: None)
        assert code == 0 and payload["verified"] is True
        # the trivial walk at vertex 0 is closed but covers neither edge
        code, payload = self._find_then_verify(
            tmp_path, capsys, c6_file, "1,4", lambda d: d.update(walk=[0], edge_walk=[])
        )
        assert code == 2 and payload["reason"] == "prescribed edges not covered: [1, 4]"

    def test_recorded_ids_must_lie_in_the_graph(self, c6_file, tmp_path, capsys):
        code, payload = self._find_then_verify(
            tmp_path, capsys, c6_file, "1,4", lambda d: d.update(prescribed=[1, 9])
        )
        assert code == 2 and payload["reason"] == "prescribed edge id out of range"

    @pytest.mark.parametrize("edges", ["0,1,2,3", "1,2,3"])
    def test_edges_must_match_the_recorded_set(self, k4_file, tmp_path, capsys, edges):
        # the 3-cut is within either S's bound; only the mismatch is at fault
        code, payload = self._find_then_verify(
            tmp_path, capsys, k4_file, "0,1,2", lambda d: None, ("--edges", edges)
        )
        assert code == 2 and payload["verified"] is False
        assert payload["reason"] == f"--edges [{edges.replace(',', ', ')}] differs from the prescribed [0, 1, 2]"


class TestVerifyMalformed:
    @pytest.mark.parametrize(
        "text",
        [
            '{"status": "circuit"}',
            "[1]",
            '"circuit"',
            '{"status": "circuit", "walk": [0, "1", 0], "edge_walk": [0, 0]}',
            '{"status": "circuit", "walk": 5, "edge_walk": []}',
            '{"status": "odd-cut", "side": {"0": 1}, "boundary": [], "size": 0, "odd": false}',
            '{"status": "odd-cut", "side": [1], "boundary": [0, 1, 2], "size": "3", "odd": true}',
            '{"status": "odd-cut", "side": [1], "boundary": [0, 1, 2]}',
            '{"status": "infeasible", "method": "oracle"}',
            "{}",
        ],
    )
    def test_one_line_error(self, c6_file, tmp_path, capsys, text):
        result = tmp_path / "bad.json"
        result.write_text(text)
        code = main(["verify", str(c6_file), "--result", str(result)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGenerate:
    def test_ladder_files_are_byte_stable(self, tmp_path, capsys):
        code = main(["generate", "ladder", "4", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        text = (tmp_path / "ladder-4.graph").read_text()
        assert text.startswith("8 10\n0 4\n1 5\n2 6\n3 7\n")
        sidecar = json.loads((tmp_path / "ladder-4.json").read_text())
        assert sidecar == {"label": "ladder-4", "prescribed": [1, 2]}
        # regenerating produces identical bytes
        main(["generate", "ladder", "4", "--out", str(tmp_path), "--quiet"])
        assert (tmp_path / "ladder-4.graph").read_text() == text

    def test_text_names_the_two_files(self, tmp_path, capsys):
        assert main(["generate", "ladder", "3", "--out", str(tmp_path)]) == 0
        paths = [tmp_path / "ladder-3.graph", tmp_path / "ladder-3.json"]
        assert capsys.readouterr().out == "".join(f"{path}\n" for path in paths)

    def test_random_requires_seed(self, tmp_path, capsys):
        code = main(["generate", "random", "8", "12", "--out", str(tmp_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_random_with_seed(self, tmp_path, capsys):
        code = main(
            [
                "generate", "random", "8", "12",
                "--seed", "5", "--out", str(tmp_path), "--quiet",
            ]
        )
        assert code == 0
        assert (tmp_path / "random-n8-m12-c1-s5.graph").exists()


def _capped_address_space():
    """A preexec_fn that caps a child's address space at 1 GB, so building a
    row per vertex of a huge graph fails the test with a MemoryError instead
    of taking the host's memory."""
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return capped


def _run_cli(argv, **kwargs):
    """The CLI in a fresh process, with this checkout's src/ on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "circuitcover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, **kwargs,
    )


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{dir}"],
            ["experiment", "corollary", "--graphs", "{dir}"],
            ["generate", "ladder", "--out", "{dir}"],
            ["generate", "two-cycles-bridge", "3", "--out", "{dir}"],
            ["generate", "random", "5", "4", "--seed", "1", "--min-odd-cut", "3", "--out", "{dir}"],
            # usage errors: no graph, a non-integer --k, no --edges
            ["check"],
            ["check", "{dir}/g.graph", "--k", "abc"],
            ["find", "{dir}/g.graph"],
        ],
    )
    def test_exit_one_with_one_error_line(self, tmp_path, capsys, argv):
        code = main([arg.format(dir=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_on_two_disjoint_k6_is_one_error_line(self, tmp_path, capsys):
        # every degree is 5, so the class step, not is_connected, refuses it
        k6 = list(combinations(range(6), 2))
        path = tmp_path / "two-k6.graph"
        path.write_text(format_graph(Graph.from_edges(12, k6 + [(u + 6, v + 6) for u, v in k6])))
        code = main(["check", str(path)])
        assert code == 1
        assert capsys.readouterr().err == "error: min_odd_cut requires a connected graph\n"

    def test_deeply_nested_result_is_one_error_line(self, c6_file, tmp_path):
        # the JSON decoder recurses once per level, past Python's limit here
        result = tmp_path / "deep.json"
        result.write_text("[" * 200_000 + "]" * 200_000)
        proc = _run_cli(["verify", str(c6_file), "--result", str(result)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: result JSON is nested too deeply\n"

    @pytest.mark.parametrize(
        "text, argv, tool",
        [
            ("100000000000 0\n", ["check"], "min_odd_cut"),
            ("100000000000 1\n0 1\n", ["check"], "min_odd_cut"),
            ("100000000000 1\n0 1\n", ["find", "--edges", "0"], "find_circuit"),
        ],
        ids=["check-no-edges", "check-one-edge", "find-one-edge"],
    )
    def test_a_huge_vertex_count_with_few_edges_is_one_error_line(self, tmp_path, text, argv, tool):
        # 10^11 vertices and at most one edge cannot be connected
        graph = tmp_path / "huge.graph"
        graph.write_text(text)
        proc = _run_cli([argv[0], str(graph), *argv[1:]], preexec_fn=_capped_address_space())
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {tool} requires a connected graph\n"

    @pytest.mark.parametrize(
        "boundary, code, reason",
        [([0], 0, ""), ([], 2, "boundary mismatch")],
        ids=["valid-cut", "wrong-boundary"],
    )
    def test_verify_a_cut_on_a_huge_vertex_count(self, tmp_path, boundary, code, reason):
        # the cut's boundary is recomputed from the edge list alone
        graph = tmp_path / "huge.graph"
        graph.write_text("100000000000 1\n0 1\n")
        result = tmp_path / "cut.json"
        cut = {"status": "odd-cut", "side": [0], "boundary": boundary, "size": 1, "odd": True}
        result.write_text(json.dumps(cut))
        argv = ["verify", str(graph), "--result", str(result)]
        proc = _run_cli(argv, preexec_fn=_capped_address_space())
        assert proc.returncode == code and proc.stderr == ""
        assert json.loads(proc.stdout) == {"verified": code == 0, "reason": reason}

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["find", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


class TestExperiments:
    def test_gk_witness_text(self, capsys):
        code = main(["experiment", "gk-witness"])
        assert code == 0
        assert capsys.readouterr().out == (
            "label: gk-witness\n"
            "verdicts: {"
            "'g(2)>1': {'edge_connectivity': 1, 'jaeger_extendable': True, "
            "'oracle_feasible': False, 'confirmed': True}, "
            "'g(3)>2': {'edge_connectivity': 2, 'jaeger_extendable': True, "
            "'oracle_feasible': False, 'confirmed': True}, "
            "'g(4)>3': {'edge_connectivity': 3, 'jaeger_extendable': True, "
            "'oracle_feasible': False, 'confirmed': True}, "
            "'failures': 0}\n"
        )

    def test_gk_witness(self, capsys):
        code = main(["experiment", "gk-witness", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdicts"]["failures"] == 0
        for name in ("g(2)>1", "g(3)>2", "g(4)>3"):
            assert report["verdicts"][name]["confirmed"] is True

    def test_ladder_experiment_small(self, capsys):
        code = main(["experiment", "ladder", "--r", "4", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdicts"]["failures"] == 0

    def test_ladder_verdicts_are_per_r(self, capsys, monkeypatch):
        real = cli.find_circuit

        def broken_on_four_rungs(g, s):
            return None if g.n == 8 else real(g, s)

        monkeypatch.setattr(cli, "find_circuit", broken_on_four_rungs)
        code = main(["experiment", "ladder", "--r", "4", "5", "--json"])
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert code == 2
        assert verdicts["r=4"] == "FAIL" and verdicts["r=5"] == "ok"
        assert verdicts["failures"] == 4  # the four 3-sets of ladder-4's rungs

    def test_corollary_experiment(self, tmp_path, capsys):
        paths = []
        for n in (5, 6):
            p = tmp_path / f"c{n}.graph"
            p.write_text(format_graph(cycle_graph(n)))
            paths.append(str(p))
        code = main(["experiment", "corollary", "--graphs", *paths, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdicts"]["failures"] == 0
        assert report["verdicts"]["checked"] == 4

    def test_corollary_counts_only_cases_that_ran(self, c6_file, capsys, monkeypatch):
        real = cli.check_parity_monotonicity

        def too_large_for_k2(g, k):
            if k == 2:
                raise TooLarge("guard")
            return real(g, k)

        monkeypatch.setattr(cli, "check_parity_monotonicity", too_large_for_k2)
        code = main(["experiment", "corollary", "--graphs", str(c6_file), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdicts"]["checked"] == 1


# JSON values of every kind, small enough to stay fast
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_INTS = st.lists(st.integers(-2, 9), max_size=6)
# result objects whose fields are often, but not always, well typed
_RESULTS = st.fixed_dictionaries(
    {},
    optional={
        "status": st.sampled_from(["circuit", "odd-cut", "infeasible"]) | _JSON,
        "walk": _INTS | _JSON,
        "edge_walk": _INTS | _JSON,
        "side": _INTS | _JSON,
        "boundary": _INTS | _JSON,
        "size": st.integers(-1, 7) | _JSON,
        "odd": st.booleans() | _JSON,
        "prescribed": _INTS | _JSON,
    },
)


class TestFuzzedInput:
    """Whatever a user feeds the CLI ends in an exit code, never a traceback."""

    @given(
        st.text(alphabet=st.sampled_from("0123456789 -#\n\tx"), max_size=40)
        | st.text(max_size=40)
    )
    @settings(max_examples=150, deadline=None)
    def test_parse_graph_raises_only_parse_errors(self, text):
        try:
            parse_graph(text)
        except ParseError:
            pass

    @pytest.fixture(scope="class")
    def k4_dir(self, tmp_path_factory):
        # every degree is 3, so the side [0] is an odd cut with boundary [0, 1, 2]
        path = tmp_path_factory.mktemp("fuzz")
        (path / "k4.graph").write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        return path

    @given(data=_RESULTS, edges=st.sampled_from([None, "0", "0,1,2", "9", "1,x"]))
    @settings(max_examples=150, deadline=None)
    def test_verify_exits_with_a_code(self, k4_dir, data, edges):
        result = k4_dir / "result.json"
        result.write_text(json.dumps(data))
        argv = ["verify", str(k4_dir / "k4.graph"), "--result", str(result)]
        argv += [] if edges is None else ["--edges", edges]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert json.loads(out.getvalue())["verified"] is (code == 0)
