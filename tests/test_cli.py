import io
import json

import jsonschema
import pytest

from cliquebound import cli, graph6, structure
from cliquebound.cli import (
    EXIT_FALSIFIED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from cliquebound.graphs import complete, cycle, disjoint_union

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "results", "version", "wall_time_seconds"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "results": {"type": "object"},
        "version": {"type": "string"},
        "wall_time_seconds": {"type": "number"},
    },
    "additionalProperties": False,
}

COUNT_RECORD_SCHEMA = {
    "type": "object",
    "required": ["line", "graph6"],
    "properties": {
        "line": {"type": "integer"},
        "graph6": {"type": "string"},
        "n": {"type": "integer"},
        "clique_vector": {"type": "array", "items": {"type": "integer"}},
        "independent_vector": {"type": "array", "items": {"type": "integer"}},
        "k": {"type": "integer"},
        "i": {"type": "integer"},
        "max_degree": {"type": "integer"},
        "min_degree": {"type": "integer"},
        "tight_cliques": {"type": "array"},
        "clusters": {"type": "array"},
        "error": {"type": "string"},
    },
    "additionalProperties": False,
}


def run(argv, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


class TestCount:
    def test_cycle5(self, capsys, monkeypatch):
        code, out = run(["count"], graph6.encode(cycle(5)) + "\n", capsys, monkeypatch)
        assert code == EXIT_OK
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        (rec,) = doc["results"]["graphs"]
        jsonschema.validate(rec, COUNT_RECORD_SCHEMA)
        assert rec["clique_vector"] == [1, 5, 5]
        assert rec["i"] == 11

    def test_tight_flag(self, capsys, monkeypatch):
        code, out = run(
            ["count", "--tight", "-r", "2"],
            graph6.encode(cycle(4)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        (rec,) = json.loads(out)["results"]["graphs"]
        assert rec["tight_cliques"] == [[0], [1], [2], [3]]

    def test_tight_cliques_enumerated_once_per_graph(self, capsys, monkeypatch):
        calls = []
        original = structure.tight_cliques

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(structure, "tight_cliques", counted)
        monkeypatch.setattr(cli, "tight_cliques", counted)
        two_triangles = disjoint_union(complete(3), complete(3))
        code, out = run(
            ["count", "--tight", "-r", "2"],
            graph6.encode(cycle(4)) + "\n" + graph6.encode(two_triangles) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        c4, triangles = json.loads(out)["results"]["graphs"]
        assert c4["clusters"] == [[0], [1], [2], [3]]
        assert triangles["clusters"] == [[0, 1, 2], [3, 4, 5]]
        assert len(calls) == 2

    def test_malformed_line_reported_and_flagged(self, capsys, monkeypatch):
        code, out = run(
            ["count"],
            graph6.encode(cycle(5)) + "\n@@@bad\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_PARSE
        recs = json.loads(out)["results"]["graphs"]
        assert "error" in recs[1] and recs[1]["line"] == 2
        assert recs[0]["k"] == 11  # good lines still processed

    def test_non_ascii_line_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "in.g6"
        p.write_text("A\u00e9\n", encoding="utf-8")
        code, out = run(["count", str(p)], capsys=capsys)
        assert code == EXIT_PARSE
        (rec,) = json.loads(out)["results"]["graphs"]
        assert "byte offset 1" in rec["error"] and "n" not in rec

    def test_tight_without_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6.encode(cycle(4)) + "\n"))
        with pytest.raises(SystemExit) as exc_info:
            main(["count", "--tight"])
        assert exc_info.value.code == EXIT_USAGE

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "in.g6"
        p.write_text(graph6.encode(complete(4)) + "\n")
        code, out = run(["count", str(p)], capsys=capsys)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["graphs"][0]["k"] == 16


class TestVerify:
    def test_single_pair(self, capsys):
        code, out = run(["verify", "6", "3"], capsys=capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        (rec,) = doc["results"]["verifications"]
        assert rec["max_k"] == rec["bound"] == 19
        assert len(rec["extremal"]) == 1

    def test_sweep_embeds_tallies(self, capsys):
        code, out = run(["verify", "--sweep", "5", "4"], capsys=capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["consistency"]["tallies"]["extremal_bound"][2] == 0
        assert len(doc["results"]["verifications"]) > 1

    def test_sweep_builds_each_level_once(self, capsys, cold_labelings):
        """Asking for the caps in ascending order rebuilt every (n, r) from
        scratch: 14,167 labelings against the 3,651 of one cold (7, 6)."""
        code, out = run(["verify", "--sweep", "7", "6"], capsys=capsys)
        assert code == EXIT_OK
        assert len(cold_labelings) == 3651
        pairs = [(v["n"], v["r"]) for v in json.loads(out)["results"]["verifications"]]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs)) == 22

    def test_missing_args_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify"])
        assert exc_info.value.code == EXIT_USAGE

    def test_cap_exceeded_is_usage_error(self, capsys):
        assert main(["verify", "40", "3"]) == EXIT_USAGE


class TestTransform:
    def test_single_move_on_cycle4(self, capsys, monkeypatch):
        code, out = run(
            ["transform", "-r", "2", "--move", "0"],
            graph6.encode(cycle(4)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["final_k"] == 9
        assert results["trace"][0]["gain"] == 0
        final = graph6.decode(results["final_graph6"])
        assert final.num_edges() == 3  # K_3 plus an isolated vertex

    def test_greedy_from_staging_graph(self, capsys, monkeypatch):
        from cliquebound.graphs import from_edges

        g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
        code, out = run(
            ["transform", "-r", "3", "--greedy"],
            graph6.encode(g) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["trace"][0]["k_after"] == 18

    def test_greedy_counts_start_graph_once(self, capsys, monkeypatch, clique_vector_calls):
        from cliquebound.graphs import from_edges

        g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
        code, out = run(
            ["transform", "-r", "3", "--greedy"],
            graph6.encode(g) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        # the start graph and the one move taken
        assert len(clique_vector_calls) == 2
        assert json.loads(out)["results"]["final_k"] == 18

    def test_greedy_fixed_point_has_empty_trace(self, capsys, monkeypatch):
        code, out = run(
            ["transform", "-r", "3", "--greedy"],
            graph6.encode(complete(4)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        assert json.loads(out)["results"]["trace"] == []

    def test_non_tight_move_is_error(self, capsys, monkeypatch):
        code, _ = run(
            ["transform", "-r", "3", "--move", "0"],
            graph6.encode(cycle(5)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_USAGE

    def test_degree_over_cap_is_usage_error(self, capsys, monkeypatch):
        code, _ = run(
            ["transform", "-r", "2", "--greedy"],
            graph6.encode(complete(4)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_USAGE

    def test_no_input_line_is_usage_error(self, capsys, monkeypatch):
        code, _ = run(["transform", "-r", "2", "--greedy"], "", capsys, monkeypatch)
        assert code == EXIT_USAGE

    def test_move_vertex_out_of_range_is_usage_error(self, capsys, monkeypatch):
        for move in ("99", "-1", "0,3"):
            monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))  # K_3
            assert main(["transform", "-r", "2", "--move", move]) == EXIT_USAGE, move
            assert "0..2" in capsys.readouterr().err, move


class TestGen:
    def test_counts(self, capsys):
        code, out = run(["gen", "4", "2"], capsys=capsys)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 7

    def test_regular_filter(self, capsys):
        code, out = run(["gen", "6", "2", "--regular", "2"], capsys=capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        for line in lines:
            g = graph6.decode(line)
            assert all(g.degree(v) == 2 for v in range(6))

    def test_zero_cap(self, capsys):
        code, out = run(["gen", "3", "0"], capsys=capsys)
        assert code == EXIT_OK
        assert out.splitlines() == ["B?"]

    def test_cap_exceeded(self, capsys):
        assert main(["gen", "13", "2"]) == EXIT_USAGE


class TestOutputModes:
    def test_table_format(self, capsys, monkeypatch):
        code, out = run(
            ["--format", "table", "count"],
            graph6.encode(cycle(5)) + "\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        assert "k=11" in out

    def test_out_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "report.json"
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6.encode(cycle(5)) + "\n"))
        assert main(["--out", str(target), "count"]) == EXIT_OK
        doc = json.loads(target.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_integers_rendered_exactly(self, capsys):
        code, out = run(["verify", "7", "6"], capsys=capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        (rec,) = doc["results"]["verifications"]
        assert rec["max_k"] == 128
        assert "128" in out and "e+" not in out
