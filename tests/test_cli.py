import io
import json
import multiprocessing
import os

import jsonschema
import pytest

from cliquebound import cli, graph6, structure
from cliquebound.cli import (
    EXIT_FALSIFIED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from cliquebound.errors import InternalConsistencyError
from cliquebound.graphs import complete, cycle, disjoint_union, from_edges

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

    def test_perfect_matching_on_64_vertices(self, capsys, monkeypatch):
        matching = from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)])
        code, out = run(["count"], graph6.encode(matching) + "\n", capsys, monkeypatch)
        assert code == EXIT_OK
        (rec,) = json.loads(out)["results"]["graphs"]
        assert rec["k"] == 1 + 64 + 32
        assert rec["i"] == 3**32

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
        # tight cliques are enumerated from the closed-neighborhood classes
        calls = []
        original = structure.tight_classes

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(structure, "tight_classes", counted)
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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_bytes_are_a_parse_error_of_their_line(
        self, capsys, monkeypatch, tmp_path, source
    ):
        data = b"A_\n\xff\xfe\nB?\n"  # K2, two bytes that are not UTF-8, E3
        if source == "file":
            p = tmp_path / "in.g6"
            p.write_bytes(data)
            argv = ["count", str(p)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            argv = ["count"]
        code, out = run(argv, capsys=capsys)
        assert code == EXIT_PARSE
        k2, bad, e3 = json.loads(out)["results"]["graphs"]
        assert (k2["line"], k2["k"], e3["line"], e3["k"]) == (1, 4, 3, 4)
        assert bad["line"] == 2 and "invalid graph6 character" in bad["error"]

    def test_tight_without_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6.encode(cycle(4)) + "\n"))
        with pytest.raises(SystemExit) as exc_info:
            main(["count", "--tight"])
        assert exc_info.value.code == EXIT_USAGE

    def test_internal_fault_exits_4(self, capsys, monkeypatch):
        """An internal fault is not a falsified bound (exit 1): it exits 4
        with one line on stderr and no traceback."""
        def disagree(g, r, tights):
            raise InternalConsistencyError("cluster computations disagree")

        monkeypatch.setattr(cli, "clusters_among", disagree)
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6.encode(cycle(4)) + "\n"))
        assert main(["count", "--tight", "-r", "2"]) == EXIT_INTERNAL != EXIT_FALSIFIED
        assert capsys.readouterr().err == "internal error: cluster computations disagree\n"

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
        scratch: 14,167 labelings against the 3,651 of one cold (7, 6), or
        2,097 with one neighbourhood per orbit, 1,507 (parents included)
        with the orbit test in place of rival deletions, 1,299 once each
        parent's generators came from the labeling that made it, or 1,253
        once a child whose new vertex is not in the least root cell of the
        candidates is rejected with no search."""
        code, out = run(["verify", "--sweep", "7", "6"], capsys=capsys)
        assert code == EXIT_OK
        assert len(cold_labelings) == 1253
        pairs = [(v["n"], v["r"]) for v in json.loads(out)["results"]["verifications"]]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs)) == 22

    def test_missing_args_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify"])
        assert exc_info.value.code == EXIT_USAGE

    def test_cap_exceeded_is_usage_error(self, capsys):
        assert main(["verify", "40", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "6", "3", "--sweep", "2", "1"],
            ["verify", "--sweep", "3", "0"],
            ["verify", "--sweep", "-2", "3"],
            ["verify", "--sweep", "3", "-1"],
            ["verify", "--sweep", "10", "2"],
        ],
        ids=["pair-and-sweep", "zero-cap", "negative-n", "negative-cap", "n-past-sweep-cap"],
    )
    def test_bad_arguments_fail_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("verified before rejecting the arguments")

        monkeypatch.setattr(cli, "verify_main", no_work)
        monkeypatch.setattr(cli, "consistency_sweep", no_work)
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            '{"r_max": 2}',
            '{"n": 1, "r_max": 2, "tallies": 5, "failures": []}',
            '{"n": 1, "r_max": 2, "tallies": {}, "failures": [5]}',
        ],
        ids=["number", "no-tallies", "tallies-not-a-dict", "failure-not-an-object"],
    )
    def test_malformed_checkpoint_line_is_usage_error(self, capsys, tmp_path, line):
        path = tmp_path / "sweep.ckpt"
        path.write_text("# checkpoint\n" + line + "\n")
        assert main(["--checkpoint", str(path), "verify", "--sweep", "3", "2"]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err


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

    def test_greedy_document_with_complete_components(self, capsys, monkeypatch):
        # two K_4 components on 0..7 and a degree-3 graph on 8..18; pinned
        # from the climb that scored the tight cliques of K_4 components too
        code, out = run(
            ["transform", "-r", "3", "--greedy"],
            "R~?GW[???????G???EO@C?BO?P??_G\n",
            capsys,
            monkeypatch,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        del doc["wall_time_seconds"]
        assert doc == {
            "command": "transform",
            "parameters": {"greedy": True, "input": "-", "move": None, "r": 3},
            "results": {
                "final_graph6": "R~?GW[?????@?G?B?CO@D?BO?O??_G",
                "final_k": 68,
                "trace": [
                    {
                        "after_graph6": "R~?GW[???????G???CO@D?BO?P??_G",
                        "gain": 3,
                        "gain_lower_bound": 2,
                        "k_after": 61,
                        "k_before": 58,
                        "move": "k2",
                        "tight": [8, 12],
                    },
                    {
                        "after_graph6": "R~?GW[?????@?G?B?CO@D?BO?O??_G",
                        "gain": 7,
                        "gain_lower_bound": -1,
                        "k_after": 68,
                        "k_before": 61,
                        "move": "fill",
                        "tight": [16],
                    },
                ],
            },
            "version": "0.1.0",
        }

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


class TestWorkers:
    @pytest.mark.parametrize(
        "workers", [0, -1, (os.cpu_count() or 1) + 1], ids=["zero", "negative", "above-cpus"]
    )
    @pytest.mark.parametrize("command", [["verify", "4", "2"], ["gen", "4", "2"]])
    def test_out_of_range_is_usage_error(self, capsys, monkeypatch, workers, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(SystemExit) as exc_info:
            main(["--workers", str(workers)] + command)
        assert exc_info.value.code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err
