import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from locgame import paley_tournament, random_tournament, rotation_tournament, transitive_tournament
from locgame import cli
from locgame.cli import main
from locgame.digraph import from_edge_list, from_json, to_edge_list, to_json, write_digraph

from conftest import oriented_digraphs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_rotation_edge_list(self, capsys):
        code, out = run_cli(capsys, "gen", "rotation", "2")
        assert code == 0
        assert from_edge_list(out) == rotation_tournament(2)

    def test_paley_arc_count(self, capsys):
        code, out = run_cli(capsys, "gen", "paley", "7")
        assert code == 0
        assert from_edge_list(out).arc_count == 21

    def test_random_reproducible(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            code, _ = run_cli(
                capsys, "gen", "random", "10", "--p", "0.5", "--seed", "1",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_random_positional_probability(self, capsys):
        code, out1 = run_cli(capsys, "gen", "random", "10", "0.5", "--seed", "1")
        assert code == 0
        code, out2 = run_cli(capsys, "gen", "random", "10", "--p", "0.5", "--seed", "1")
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "gen", "d3", "2", "--format", "json")
        assert code == 0
        assert from_json(out).n == 6

    def test_binary_source_from_file(self, capsys, tmp_path):
        base = tmp_path / "base.txt"
        write_digraph(rotation_tournament(1), base)
        code, out = run_cli(capsys, "gen", "binary_source", "--base", str(base))
        assert code == 0
        assert from_edge_list(out).n == 5


class TestReports:
    @pytest.fixture
    def cycle_file(self, tmp_path):
        path = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), path)
        return str(path)

    def test_zeta(self, capsys, cycle_file):
        code, out = run_cli(capsys, "zeta", cycle_file)
        assert code == 0
        assert json.loads(out)["zeta"] == 1

    def test_zeta_exceeds(self, capsys, tmp_path):
        path = tmp_path / "d3.json"
        write_digraph(rotation_tournament(2), path)
        code, out = run_cli(capsys, "zeta", str(path), "--max-cops", "1")
        assert code == 1
        report = json.loads(out)
        assert report["zeta"] is None and report["exceeds"] == 1

    def test_beta(self, capsys, cycle_file):
        code, out = run_cli(capsys, "beta", cycle_file)
        assert code == 0
        report = json.loads(out)
        assert report["beta"] == 1 and report["witness"] == [0]

    def test_bounds_consistent(self, capsys, cycle_file):
        code, out = run_cli(capsys, "bounds", cycle_file)
        assert code == 0
        report = json.loads(out)
        assert report["consistent"] is True
        assert report["zeta"] == 1 and report["beta"] == 1
        assert report["upper_sc"] == 1
        assert report["spread"] == 3

    def test_bounds_t5(self, capsys, tmp_path):
        path = tmp_path / "t5.txt"
        write_digraph(rotation_tournament(2), path)
        code, out = run_cli(capsys, "bounds", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["zeta"] == 2 and report["consistent"] is True

    def test_stats_reports_both_conventions_when_they_differ(self, capsys, tmp_path):
        # on this digraph the witness-to-pair and pair-to-witness separation
        # rates disagree (2/5 vs 3/5), so the report carries both
        from locgame import Digraph

        g = Digraph(
            5,
            [(1, 0), (1, 2), (2, 3), (2, 4), (3, 1), (3, 4), (4, 0), (4, 1)],
        )
        path = tmp_path / "g.json"
        write_digraph(g, path)
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["c_parameter"] != report["c_parameter_pair_to_witness"]

    def test_stats_tournament(self, capsys, tmp_path):
        path = tmp_path / "p7.json"
        write_digraph(paley_tournament(7), path)
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["doubly_regular"] is True
        assert report["e4c"] == 336
        assert report["s_min"] == report["s_max"] == 2
        assert report["diameter"] == 2

    def test_stats_builds_the_sameness_kernel_once(self, capsys, tmp_path, monkeypatch):
        from locgame import stats

        calls = []

        def counted(g):
            calls.append(g.n)
            return kernel(g)

        kernel = stats.sameness_matrix
        monkeypatch.setattr(stats, "sameness_matrix", counted)
        path = tmp_path / "p19.json"
        write_digraph(paley_tournament(19), path)
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0 and json.loads(out)["doubly_regular"] is True
        assert calls == [19]

    def test_stats_over_the_separation_budget_exits_2(self, capsys, tmp_path):
        # 814 isolated vertices: the separation matrix would take
        # 814 C(814, 2) bytes, just over the cap, so nothing is allocated
        path = tmp_path / "big.txt"
        path.write_text("814\n")
        code = main(["stats", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: the separation matrix of 814 vertices needs 269345274 bytes, "
            "over the limit of 268435456\n"
        )

    def test_stats_one_vertex_has_no_pairs(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["tournament"] is True
        assert report["s_min"] is None and report["s_max"] is None
        assert report["sameness_deviation"] == 0

    def test_stats_two_vertices(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("2\n0 1\n")
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["s_min"] == report["s_max"] == 0
        assert report["sameness_deviation"] == 2


class TestVerify:
    def test_single_check(self, capsys):
        code, out = run_cli(capsys, "verify", "d3")
        assert code == 0
        assert "PASS d3/i=1" in out and "PASS d3/i=2" in out

    def test_unknown_check(self, capsys):
        # a malformed command line: argparse rejects it, no traceback
        code, err = run_as_process(["verify", "nonsense"])
        assert code == 2
        assert "invalid choice: 'nonsense'" in err
        assert "Traceback" not in err

    def test_all_among_other_ids_runs_every_check(self, monkeypatch, capsys):
        asked = []
        monkeypatch.setattr(cli, "run_checks", lambda ids: asked.append(ids) or [])
        assert main(["verify", "d3", "all"]) == 0
        assert asked == [sorted(cli.CHECKS)]


def test_parser_is_built_once(monkeypatch, capsys):
    real, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert main(["gen", "rotation", "1"]) == 0
    assert main(["gen", "rotation", "2"]) == 0
    assert len(built) == 1


class TestBudgetGuard:
    def test_play_on_oversized_graph_exits_cleanly(self, capsys, tmp_path):
        from locgame import transitive_tournament

        path = tmp_path / "big.txt"
        write_digraph(transitive_tournament(25), path)
        code = main(["play", str(path), "--strategy", "dag_sweep"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "25" in err

    def test_zeta_reports_budget_error_as_json(self, capsys, tmp_path):
        from locgame import transitive_tournament

        path = tmp_path / "big.txt"
        write_digraph(transitive_tournament(25), path)
        code, out = run_cli(capsys, "zeta", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["zeta"] is None and "budget" in report["error"]

    def test_beta_on_large_tournament_exits_cleanly(self, capsys, tmp_path):
        # sizes 1 and 2 are searched (20 100 sets); C(200, 3) would pass 10**6.
        # At n = 60 the budget trips only before size 5, after 523 685 sets
        # and about 5 s, too slow for this suite
        path = tmp_path / "r200.txt"
        write_digraph(random_tournament(200, 0.5, 3), path)
        code = main(["beta", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "20100 witness sets of size < 3 plus C(200,3)" in captured.err


class TestBadInput:
    """Unreadable graph and decomposition files exit 3 with one error line."""

    GRAPHS = {
        "self_loop.txt": "3\n0 1\n1 1\n",
        "non_integer.txt": "3\n0 x\n",
        "bad_arc.json": '{"n": 3, "arcs": [[0]]}',
        "bad_syntax.json": '{"n": 3, "arcs": [[0, 1]',
        "no_arcs.json": '{"n": 3}',
        "no_vertices.txt": "0\n",
        "two_triples.json": '{"n": 6, "arcs": [[0, 1, 2], [3, 4, 5]]}',
        "bool_endpoint.json": '{"n": 3, "arcs": [[true, 2]]}',
        "bool_count.json": '{"n": true, "arcs": []}',
        "float_count.json": '{"n": 2.0, "arcs": []}',
        "string_count.json": '{"n": "3", "arcs": []}',
        # 10^8 vertices: the 10^16-byte adjacency matrix fails at allocation
        "huge_count.txt": "100000000\n",
        "huge_count.json": '{"n": 100000000, "arcs": []}',
        # wrong JSON shapes: the error names the expected keys
        "list_shape.json": "[1, 2]",
        "number_shape.json": "5",
        "null_shape.json": "null",
        "number_arcs_shape.json": '{"n": 3, "arcs": 5}',
        "number_arc_shape.json": '{"n": 3, "arcs": [5]}',
    }

    def run_bad(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("command", ["zeta", "beta", "bounds", "stats"])
    def test_malformed_graph(self, capsys, tmp_path, name, command):
        path = tmp_path / name
        path.write_text(self.GRAPHS[name])
        assert name in self.run_bad(capsys, command, str(path))

    @pytest.mark.parametrize("name", [k for k in sorted(GRAPHS) if "_shape" in k])
    def test_wrong_shape_names_the_keys(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_text(self.GRAPHS[name])
        assert "expected an object with keys n, arcs" in self.run_bad(capsys, "zeta", str(path))

    def test_missing_graph(self, capsys, tmp_path):
        err = self.run_bad(capsys, "zeta", str(tmp_path / "absent.txt"))
        assert "No such file" in err

    def test_missing_base_graph(self, capsys, tmp_path):
        self.run_bad(capsys, "gen", "binary_source", "--base", str(tmp_path / "absent.txt"))

    def test_self_loop_names_the_vertex(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(self.GRAPHS["self_loop.txt"])
        assert "self-loop at vertex 1" in self.run_bad(capsys, "zeta", str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"bag": [[0, 1, 2]]}',
            '{"index": {"n": 2, "arcs": []}, "bags": [[0]]}',
            # members that are not integers: on the transitive graph the
            # last two would pass validation if read as 0 and 1
            '{"bags": [[0, 1, 2, "a", 5]]}',
            '{"bags": [[0.0], [1], [2]]}',
            '{"bags": [[0], [1], [true, 2]]}',
            # wrong JSON shapes at the top level, of "bags" and of "index"
            '{"index": 5, "bags": [[0]]}',
            "null",
            '{"index": ""}',
            '{"bags": 5}',
        ],
    )
    def test_malformed_decomposition(self, capsys, tmp_path, text):
        graph = tmp_path / "t3.txt"
        write_digraph(transitive_tournament(3), graph)
        decomp = tmp_path / "d.json"
        decomp.write_text(text)
        self.run_bad(
            capsys, "play", str(graph), "--strategy", "path_sweep",
            "--decomposition", str(decomp),
        )

    def test_missing_decomposition(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        self.run_bad(
            capsys, "play", str(graph), "--strategy", "dag_decomp_sweep",
            "--decomposition", str(tmp_path / "absent.json"),
        )

    def test_dag_sweep_on_cyclic_graph(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        err = self.run_bad(capsys, "play", str(graph), "--strategy", "dag_sweep")
        assert err == "error: dag_sweep: digraph has a directed cycle\n"

    @pytest.mark.parametrize(
        "strategy, decomposition",
        [
            ("path_sweep", {"bags": [[0], [1], [2]]}),
            ("dag_decomp_sweep", {"index": {"n": 1, "arcs": []}, "bags": [[0, 1]]}),
        ],
    )
    def test_decomposition_failing_validation(self, capsys, tmp_path, strategy, decomposition):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        decomp = tmp_path / "d.json"
        decomp.write_text(json.dumps(decomposition))
        err = self.run_bad(
            capsys, "play", str(graph), "--strategy", strategy,
            "--decomposition", str(decomp),
        )
        assert err.startswith(f"error: {strategy}: invalid ")

    def test_rotation_cop_budget_out_of_range(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        err = self.run_bad(capsys, "play", str(graph), "--strategy", "rotation", "--cops", "5")
        assert err == "error: rotation: cop budget must be in 1..1\n"

    def test_rotation_on_even_vertex_count(self, capsys, tmp_path):
        graph = tmp_path / "t4.txt"
        write_digraph(transitive_tournament(4), graph)
        err = self.run_bad(capsys, "play", str(graph), "--strategy", "rotation")
        assert err == "error: rotation: needs an odd vertex count, got 4\n"

    @pytest.mark.parametrize(
        "strategy, decomposition, kind",
        [
            ("path_sweep", {"index": {"n": 1, "arcs": []}, "bags": [[0, 1, 2]]}, "path"),
            ("dag_decomp_sweep", {"bags": [[0, 1, 2]]}, "DAG"),
        ],
    )
    def test_decomposition_of_the_wrong_kind(self, capsys, tmp_path, strategy, decomposition, kind):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        decomp = tmp_path / "d.json"
        decomp.write_text(json.dumps(decomposition))
        err = self.run_bad(
            capsys, "play", str(graph), "--strategy", strategy,
            "--decomposition", str(decomp),
        )
        assert err == f"error: {strategy}: {decomp} is not a {kind} decomposition\n"

    def test_play_on_graph_without_vertices(self, capsys, tmp_path):
        graph = tmp_path / "empty.txt"
        graph.write_text("0\n")
        err = self.run_bad(capsys, "play", str(graph), "--strategy", "dag_sweep")
        assert err == f"error: {graph}: the graph has no vertices\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("gen rotation 0", "rotation: m must be positive, got 0"),
            ("gen rotation 1 2", "rotation: rotation expects parameters ('m',), got (1, 2)"),
            (
                "gen binary_source 7 9 --base {graph}",
                "binary_source: binary_source expects parameters (), got (7, 9)",
            ),
            ("gen paley 9", "paley: q must be prime, got 9"),
            ("gen random 5 --p 2", "random: p must be a probability, got 2.0"),
            ("gen blowup 1 0", "blowup: independent-set size must be at least 3, got 0"),
            ("gen sc_tight 0 0", "sc_tight: m must be odd and positive, got 0"),
            ("experiment --n 30 --trials 0", "experiment: trials must be at least 1"),
            ("experiment --n 1", "experiment: sizes below 4 have no 4-cycle statistics"),
            (
                "experiment --n 8 --trials 1 --eps -5",
                "experiment: eps must lie strictly between 0 and 1, got -5.0",
            ),
            (
                "experiment --n 8 --trials 1 --eps nan",
                "experiment: eps must lie strictly between 0 and 1, got nan",
            ),
            ("zeta {graph} --max-cops 0", "--max-cops must be at least 1, got 0"),
            ("bounds {graph} --max-cops -1", "--max-cops must be at least 1, got -1"),
            (
                "play {graph} --strategy rotation --max-rounds -1",
                "--max-rounds must be at least 1, got -1",
            ),
        ],
    )
    def test_parameter_out_of_range(self, capsys, tmp_path, argv, message):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        err = self.run_bad(capsys, *argv.format(graph=graph).split())
        assert err == f"error: {message}\n"


class TestUsageError:
    """A command line missing an argument its other arguments require, or
    giving one the chosen strategy does not read, exits 2 with one error
    line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "gen random 5",
                "gen random needs <n> and a probability: gen random <n> <p> or --p <p>",
            ),
            ("gen binary_source", "gen binary_source needs --base <graph-file>"),
            ("play {graph} --strategy path_sweep", "path_sweep needs --decomposition <file>"),
            (
                "play {graph} --strategy dag_decomp_sweep",
                "dag_decomp_sweep needs --decomposition <file>",
            ),
            # options the chosen strategy does not read
            (
                "play {graph} --strategy dag_sweep --cops 3",
                "--cops applies only to --strategy rotation",
            ),
            (
                "play {graph} --strategy path_sweep --decomposition {graph} --cops 1",
                "--cops applies only to --strategy rotation",
            ),
        ]
        + [
            (
                f"play {{graph}} --strategy {strategy} --decomposition {{graph}}",
                "--decomposition applies only to --strategy path_sweep or dag_decomp_sweep",
            )
            for strategy in ("dag_sweep", "sc_composite", "rotation")
        ],
    )
    def test_missing_argument(self, capsys, tmp_path, argv, message):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        code = main(argv.format(graph=graph).split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestPlay:
    def test_dag_sweep(self, capsys, tmp_path):
        path = tmp_path / "t4.txt"
        from locgame import transitive_tournament

        write_digraph(transitive_tournament(4), path)
        code, out = run_cli(capsys, "play", str(path), "--strategy", "dag_sweep")
        assert code == 0
        last = json.loads(out.strip().splitlines()[-1])
        assert last["outcome"] == "captured"

    def test_rotation(self, capsys, tmp_path):
        path = tmp_path / "t5.txt"
        write_digraph(rotation_tournament(2), path)
        code, out = run_cli(capsys, "play", str(path), "--strategy", "rotation")
        assert code == 0

    def test_rotation_short_budget_evades(self, capsys, tmp_path):
        path = tmp_path / "t5.txt"
        write_digraph(rotation_tournament(2), path)
        code, out = run_cli(
            capsys, "play", str(path), "--strategy", "rotation", "--cops", "1",
            "--max-rounds", "10",
        )
        assert code == 1
        last = json.loads(out.strip().splitlines()[-1])
        assert last["outcome"] == "evaded"

    def test_path_sweep_with_decomposition_file(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        decomp = tmp_path / "pd.json"
        decomp.write_text(json.dumps({"bags": [[0, 1], [0, 2]]}))
        code, out = run_cli(
            capsys, "play", str(graph), "--strategy", "path_sweep",
            "--decomposition", str(decomp),
        )
        assert code == 0

    def test_path_sweep_skips_empty_bags(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        transcripts = []
        for bags in ([[], [0, 1, 2]], [[0, 1, 2]]):
            decomp = tmp_path / "pd.json"
            decomp.write_text(json.dumps({"bags": bags}))
            code, out = run_cli(
                capsys, "play", str(graph), "--strategy", "path_sweep",
                "--decomposition", str(decomp),
            )
            assert code == 0
            transcripts.append(out)
        assert transcripts[0] == transcripts[1]

    def test_dag_decomp_sweep_with_file(self, capsys, tmp_path):
        graph = tmp_path / "c3.txt"
        write_digraph(rotation_tournament(1), graph)
        decomp = tmp_path / "dd.json"
        decomp.write_text(
            json.dumps({"index": {"n": 1, "arcs": []}, "bags": [[0, 1, 2]]})
        )
        code, out = run_cli(
            capsys, "play", str(graph), "--strategy", "dag_decomp_sweep",
            "--decomposition", str(decomp),
        )
        assert code == 0


class TestExperiment:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        args = [
            "experiment", "--n", "10", "--p", "0.5", "--trials", "3",
            "--seed", "7",
        ]
        code, out1 = run_cli(capsys, *args)
        assert code == 0
        code, out2 = run_cli(capsys, *args)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "n,p,seed,trial,diameter,beta_greedy,k_bound,s_min,s_max,e4c_ratio"
        assert len(lines) == 4
        assert lines[1].startswith("10,0.500000,7,0,")

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _ = run_cli(
            capsys, "experiment", "--n", "8", "--trials", "1", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("n,p,seed,")


class TestCsvRoundTrip:
    def test_rows_survive_csv_encoding(self):
        from locgame.experiment import (
            CSV_COLUMNS, ExperimentConfig, rows_to_csv, run_experiment,
        )

        rows = run_experiment(ExperimentConfig(sizes=(8,), trials=2, seed=11))
        reader = csv.DictReader(io.StringIO(rows_to_csv(rows)))
        parsed = list(reader)
        assert reader.fieldnames == list(CSV_COLUMNS)
        assert len(parsed) == 2
        for original, back in zip(rows, parsed):
            for col in CSV_COLUMNS:
                if isinstance(original[col], float):
                    assert float(back[col]) == pytest.approx(original[col], abs=1e-6)
                else:
                    assert int(back[col]) == original[col]


MALFORMED_GRAPHS = [
    "", "0\n", "-1\n", "x\n", "3\n0 1 2\n", "2\n0 1\n1 0\n", "2\n0 5\n",
    "{", "[]", '{"n": 2}', '{"n": 2, "arcs": [[0, 1, 2]]}', '{"n": -1, "arcs": []}',
    '{"n": 6, "arcs": [[0, 1, 2], [3, 4, 5]]}', '{"n": 3, "arcs": [[0.5, 1]]}',
    '{"n": 3, "arcs": [[true, 2]]}', '{"n": 3, "arcs": [["0", 1]]}', "3\n0 1\n1 0\n2 2\n",
    '{"n": true, "arcs": []}', '{"n": 2.0, "arcs": []}', '{"n": "3", "arcs": []}',
    # a vertex count whose adjacency matrix cannot be allocated
    "100000000\n", '{"n": 100000000, "arcs": []}',
]
# valid and malformed path and DAG decompositions for graphs of up to 6 vertices
DECOMPOSITIONS = [
    '{"bags": [[0, 1, 2, 3, 4, 5]]}', '{"bags": [[0], [1], [2]]}', '{"bags": [[0, 1], [1, 2]]}',
    '{"index": {"n": 1, "arcs": []}, "bags": [[0, 1, 2, 3, 4, 5]]}',
    '{"index": {"n": 2, "arcs": [[0, 1]]}, "bags": [[0, 1], [1, 2]]}',
    '{"index": {"n": 2, "arcs": [[0, 1], [1, 0]]}, "bags": [[0], [1]]}',
    '{"index": {"n": 2, "arcs": []}, "bags": [[0]]}', '{"index": 5, "bags": [[0]]}',
    # valid on the 3-cycle, with an empty bag to skip
    '{"bags": [[], [0, 1, 2]]}',
    '{"index": {"n": 2, "arcs": [[0, 1]]}, "bags": [[], [0, 1, 2]]}',
    '{"bags": [[0, "a"]]}', '{"bags": 5}', '{"bag": [[0]]}', "null", "{", "",
]
COUNTS = st.integers(-1, 4).map(str)


@st.composite
def command_lines(draw):
    """argv for the CLI, with "{graph}" standing for the graph file and
    "{decomposition}" for the decomposition file."""
    kind = draw(st.sampled_from(["report", "play", "sweep", "gen", "experiment", "verify"]))
    if kind == "report":
        argv = [draw(st.sampled_from(["zeta", "beta", "bounds", "stats"])), "{graph}"]
        if argv[0] in ("zeta", "bounds") and draw(st.booleans()):
            argv += ["--max-cops", draw(COUNTS)]
    elif kind == "play":
        strategy = draw(st.sampled_from(
            ["dag_sweep", "sc_composite", "rotation", "path_sweep", "dag_decomp_sweep"]
        ))
        argv = ["play", "{graph}", "--strategy", strategy]
        if draw(st.booleans()):
            argv += ["--decomposition", "{decomposition}"]
        for flag in ("--cops", "--max-rounds"):
            if draw(st.booleans()):
                argv += [flag, draw(COUNTS)]
    elif kind == "sweep":
        # a play by decomposition at the default budget and round limit
        strategy = draw(st.sampled_from(["path_sweep", "dag_decomp_sweep"]))
        argv = ["play", "{graph}", "--strategy", strategy, "--decomposition", "{decomposition}"]
    elif kind == "gen":
        family = draw(st.sampled_from(["rotation", "d3", "blowup", "sc_tight", "paley", "transitive"]))
        argv = ["gen", family] + draw(st.lists(COUNTS, min_size=1, max_size=2))
    elif kind == "experiment":
        argv = ["experiment", "--n", draw(st.integers(-1, 6).map(str)), "--trials", draw(COUNTS)]
    else:
        argv = ["verify"] + draw(st.lists(st.sampled_from(["d3", "nonsense"]), min_size=1, max_size=2))
    return argv


def run_as_process(argv):
    """Exit code and stderr of main, as the interpreter would report them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse rejecting the command line
            code = exc.code
    return code, err.getvalue()


@st.composite
def graphs_and_decompositions(draw):
    """A graph (or a malformed graph file) and the decomposition files to
    try with it: one of DECOMPOSITIONS and, for a graph, those built for it:
    one bag of all its vertices with an empty bag before or after it, each
    as a path file and as a DAG file on the path of the bags."""
    graph = draw(st.one_of(oriented_digraphs(max_n=6), st.sampled_from(MALFORMED_GRAPHS)))
    files = [draw(st.sampled_from(DECOMPOSITIONS))]
    if not isinstance(graph, str):
        index = {"n": 2, "arcs": [[0, 1]]}
        for bags in ([[], list(range(graph.n))], [list(range(graph.n)), []]):
            files += [json.dumps({"bags": bags}), json.dumps({"index": index, "bags": bags})]
    return graph, files


@settings(deadline=None, max_examples=300)
@given(command_lines(), graphs_and_decompositions(), st.sampled_from([".txt", ".json"]))
def test_any_command_line_exits_cleanly(argv, graph_and_decompositions, suffix):
    graph, decompositions = graph_and_decompositions
    if "{decomposition}" not in argv:
        decompositions = decompositions[:1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g{suffix}"
        if isinstance(graph, str):
            path.write_text(graph)
        else:
            path.write_text(to_json(graph) if suffix == ".json" else to_edge_list(graph))
        decomp = Path(tmp) / "d.json"
        for decomposition in decompositions:
            decomp.write_text(decomposition)
            code, err = run_as_process(
                [a.replace("{graph}", str(path)).replace("{decomposition}", str(decomp))
                 for a in argv]
            )
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 3:
                assert err.count("\n") == 1 and err.startswith("error: ")


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy.random alone adds about 6 MB to the peak RSS of every CLI run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, locgame, locgame.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
