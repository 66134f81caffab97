import json
import os
import subprocess
import sys

import pytest

import twinwidth
from twinwidth.cli import main_gen, main_lab, main_treewidth, main_tww, main
from corpus import grid_with_tail, write_partition
from twinwidth.io import read_dimacs, sequence_from_json, write_dimacs, write_pace_td
from twinwidth.graphs import cycle_graph, path_graph
from twinwidth.partitions import partition_from_blocks
from twinwidth.sequences import verify_width
from twinwidth.treewidth import treewidth_exact, verify_tree_decomposition


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.gr"
    f.write_text(write_dimacs(path_graph(4)))
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.gr"
    f.write_text(write_dimacs(cycle_graph(4)))
    return str(f)


class TestTww:
    def test_exact_p4(self, p4_file, capsys):
        assert main_tww(["exact", "--cap", "2", p4_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "tww: 1"
        seq = sequence_from_json(out.splitlines()[1])
        assert verify_width(path_graph(4), seq) == 1

    def test_decide_json(self, p4_file, capsys):
        assert main_tww(["decide", "-d", "0", "--format", "json", p4_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "no"

    def test_unknown_exit_code(self, tmp_path, capsys):
        f = tmp_path / "c7.gr"
        f.write_text(write_dimacs(cycle_graph(7)))
        assert main_tww(["decide", "-d", "2", "--budget", "2", str(f)]) == 2

    def test_verify_pipe_from_generators(self, tmp_path, capsys):
        assert main_gen(["tww3family", "-N", "4"]) == 0
        graph_text = capsys.readouterr().out
        assert main_gen(["tww3family-seq", "-N", "4"]) == 0
        seq_text = capsys.readouterr().out
        gfile = tmp_path / "fam.gr"
        gfile.write_text(graph_text)
        sfile = tmp_path / "fam.json"
        sfile.write_text(seq_text)
        assert main_tww(["verify", "--seq", str(sfile), str(gfile)]) == 0
        assert capsys.readouterr().out.strip() == "width: 3"

    def test_input_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.gr"
        f.write_text("e 1 2\n")
        assert main_tww(["exact", "--cap", "1", str(f)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_verify_wrong_step_count_names_line_one(self, p4_file, tmp_path, capsys):
        sfile = tmp_path / "short.json"
        sfile.write_text('{"n": 4, "steps": []}\n')
        assert main_tww(["verify", "--seq", str(sfile), p4_file]) == 1
        err = capsys.readouterr().err
        assert "line 1: expected 3 steps, got 0" in err and "Traceback" not in err

    def test_zero_and_greedy(self, c4_file, capsys):
        assert main_tww(["zero", c4_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "tww0: yes"
        assert main_tww(["greedy", c4_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "width: 0"

    def test_prefix_dot(self, tmp_path, capsys):
        f = tmp_path / "c5.gr"
        f.write_text(write_dimacs(cycle_graph(5)))
        assert main_tww(["greedy", str(f)]) == 0
        seq_line = capsys.readouterr().out.splitlines()[1]
        sfile = tmp_path / "s.json"
        sfile.write_text(seq_line)
        assert main_tww(["prefix", "-i", "1", "--seq", str(sfile), "--format", "dot", str(f)]) == 0
        assert "[color=red]" in capsys.readouterr().out


class TestGen:
    def test_wall_output_reparses(self, capsys):
        assert main_gen(["wall", "-N", "8"]) == 0
        g = read_dimacs(capsys.readouterr().out)
        assert (g.n, g.m) == (64, 84)

    def test_grid(self, capsys):
        assert main_gen(["grid", "-N", "3"]) == 0
        assert read_dimacs(capsys.readouterr().out).n == 9

    def test_mesh_json(self, capsys):
        assert main_gen(["mesh", "-N", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 2 and len(payload["rows"]) == 2

    @pytest.mark.parametrize("argv", [["-N", "-1"], ["-N", "2", "-M", "-3"]])
    def test_negative_grid_sides_exit_one(self, argv, capsys):
        # these printed "p edge 1 0" and "p edge -6 0" and exited 0
        assert main_gen(["grid", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestLab:
    def test_obs31_counts_planted_violation(self, tmp_path, capsys):
        from twinwidth.graphs import graph_from_edges

        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        gfile = tmp_path / "b.gr"
        gfile.write_text(write_dimacs(g))
        pfile = tmp_path / "b.part"
        pfile.write_text(write_partition(partition_from_blocks(4, [{0, 1}, {2, 3}], ids=[1, 2])))
        assert main_lab(["obs31", str(gfile), str(pfile), "-t", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "violations: 1"

    def test_witness_reports_conditions(self, tmp_path, capsys):
        gfile = tmp_path / "c4.gr"
        gfile.write_text(write_dimacs(cycle_graph(4)))
        pfile = tmp_path / "c4.part"
        pfile.write_text("1\n2\n3\n4\n")
        assert main_lab(["witness", str(gfile), str(pfile), "--parts", "1,2,3,4", "-t", "1"]) == 0
        assert "invalid" in capsys.readouterr().out

    def test_pipeline_statuses(self, tmp_path, capsys, c4_file):
        assert main_lab(["pipeline", c4_file, "-t", "2", "-k", "3"]) == 0
        assert "not-applicable" in capsys.readouterr().out
        tree = tmp_path / "tree.gr"
        tree.write_text(write_dimacs(path_graph(6)))
        assert main_lab(["pipeline", str(tree), "-t", "2", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sequence: width")
        seq = sequence_from_json(out.splitlines()[1])
        assert verify_width(path_graph(6), seq) <= 7

    def test_witness_valid_state(self, tmp_path, capsys):
        from twinwidth.graphs import graph_from_edges

        edges = []
        for i in range(8):
            edges += [(i, 8 + i), (8 + i, 16 + i), (16 + i, 24 + i)]
        g = graph_from_edges(32, edges)
        gfile = tmp_path / "blobs.gr"
        gfile.write_text(write_dimacs(g))
        pfile = tmp_path / "blobs.part"
        pfile.write_text("\n".join(" ".join(str(8 * b + i + 1) for i in range(8)) for b in range(4)) + "\n")
        assert main_lab(["witness", str(gfile), str(pfile), "--parts", "1,2,3,4", "-t", "2"]) == 0
        assert capsys.readouterr().out.strip() == "witness: valid s=8 w2=0 w3=0"

    def test_audit_reports_verdict_and_step(self, tmp_path, capsys):
        from twinwidth.graphs import graph_from_edges
        from twinwidth.io import sequence_to_json
        from twinwidth.sequences import sequence_from_pairs

        g = graph_from_edges(8, [(0, 1), (1, 3), (3, 4), (1, 6), (2, 6), (1, 7), (2, 7), (3, 6), (3, 7)])
        seq = sequence_from_pairs(8, [(6, 7), (4, 5), (1, 2), (0, 10), (3, 9), (11, 12), (8, 13)])
        gfile = tmp_path / "g.gr"
        gfile.write_text(write_dimacs(g))
        sfile = tmp_path / "s.json"
        sfile.write_text(sequence_to_json(seq))
        assert main_lab(["audit", str(gfile), str(sfile), "--witness-at", "5", "--parts", "0,10,3,9", "-t", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("audit: contradiction-found at 6")

    @pytest.mark.parametrize("argv, count", [
        (["witness", "{g}", "{p}", "--parts", "1,2,3", "-t", "1"], 3),
        (["audit", "{g}", "{s}", "--witness-at", "0", "--parts", "1,2,3,4,5", "-t", "1"], 5),
    ])
    def test_parts_must_name_four_ids(self, argv, count, tmp_path, capsys):
        files = {"g": write_dimacs(cycle_graph(4)), "p": "1\n2\n3\n4\n",
                 "s": '{"n": 4, "steps": [{"u": 0, "v": 1}, {"u": 2, "v": 3}, {"u": 4, "v": 5}]}\n'}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main_lab([a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: line 1: expected four part ids, got {count}\n"

    def test_step1_parses_and_reports(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, "tests")
        from plants import planted_cases
        from twinwidth.io import mesh_to_json, sequence_to_json
        from twinwidth.solver import greedy_sequence

        pl = planted_cases()[0]
        gfile = tmp_path / "g.gr"
        gfile.write_text(write_dimacs(pl.g))
        mfile = tmp_path / "m.json"
        mfile.write_text(mesh_to_json(pl.mesh))
        s, _ = greedy_sequence(pl.g)
        sfile = tmp_path / "s.json"
        sfile.write_text(sequence_to_json(s))
        assert main_lab(["step1", str(gfile), str(sfile), str(mfile), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(("found:", "not found:"))

    def test_step1_malformed_mesh_exits_one(self, p4_file, tmp_path, capsys):
        sfile = tmp_path / "s.json"
        sfile.write_text('{"n": 4, "steps": [{"u": 0, "v": 1}, {"u": 2, "v": 3}, {"u": 4, "v": 5}]}\n')
        mfile = tmp_path / "m.json"
        mfile.write_text('{"N":1,"rows":5,"cols":[]}')
        assert main_lab(["step1", p4_file, str(sfile), str(mfile), "-k", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: line 1:")


class TestTreewidthCli:
    def test_k4(self, tmp_path, capsys):
        from twinwidth.graphs import complete_graph

        f = tmp_path / "k4.gr"
        f.write_text(write_dimacs(complete_graph(4)))
        assert main_treewidth([str(f)]) == 0
        td = treewidth_exact(complete_graph(4)).decomposition
        assert verify_tree_decomposition(complete_graph(4), td).valid
        assert capsys.readouterr().out == "tw: 3\n" + write_pace_td(td, 4)

    def test_pace_bags_numbered_from_one(self, tmp_path, capsys):
        # `gen wall -N 2 | treewidth -` printed bags 0..3, as "b 0 1 2"
        f = tmp_path / "wall2.gr"
        f.write_text("p edge 4 3\ne 1 2\ne 1 3\ne 3 4\n")
        assert main_treewidth([str(f)]) == 0
        assert capsys.readouterr().out == "tw: 1\ns td 4 2 4\nb 1 1 2\nb 2 1 3\nb 3 3 4\nb 4 4\n1 2\n2 3\n3 4\n"

    def test_budget_prints_bounds_and_states(self, tmp_path, capsys):
        from twinwidth.graphs import grid_graph

        f = tmp_path / "grid5.gr"
        f.write_text(write_dimacs(grid_graph(5)))
        assert main_treewidth([str(f), "--budget", "5"]) == 2
        assert capsys.readouterr().out == "tw: unknown (bounds 4..5 after 5 states)\n"

    def test_budget_reports_the_refuted_bounds(self, tmp_path, capsys):
        # every k below the lower bound was refuted; the upper bound is min-fill's
        import random

        from corpus import random_sparse

        rng = random.Random(2318)
        for i in range(53):
            g = random_sparse(rng, 18 + i % 6)
        f = tmp_path / "sparse.gr"
        f.write_text(write_dimacs(g))
        assert main_treewidth([str(f), "--budget", "100"]) == 2
        assert capsys.readouterr().out == "tw: unknown (bounds 6..7 after 133 states)\n"

    def test_budget_defaults_to_the_gate_constant(self, tmp_path, capsys, monkeypatch):
        # with no --budget the search was unbounded in time and memory
        from twinwidth import treewidth
        from twinwidth.graphs import grid_graph

        monkeypatch.setattr(treewidth, "DEFAULT_BUDGET", 5)
        f = tmp_path / "grid5.gr"
        f.write_text(write_dimacs(grid_graph(5)))
        assert main_treewidth([str(f)]) == 2
        assert capsys.readouterr().out == "tw: unknown (bounds 4..5 after 5 states)\n"
        assert main_lab(["pipeline", str(f), "-t", "3", "-k", "4"]) == 2
        assert capsys.readouterr().out == "unknown: budget exhausted in the tree-width gate\n"

    def test_umbrella_dispatch(self, tmp_path, capsys):
        f = tmp_path / "p3.gr"
        f.write_text(write_dimacs(path_graph(3)))
        assert main(["treewidth", str(f)]) == 0
        assert main(["nope"]) == 1


@pytest.mark.parametrize(
    "argv, first_line",
    [(["lab", "pipeline", "{g}", "-t", "2", "-k", "4"], "tww-exceeds-2 (conditional)"), (["treewidth", "{g}"], "tw: 5")],
    ids=["lab pipeline", "treewidth"],
)
def test_deep_gate_search_answers_without_traceback(argv, first_line, tmp_path):
    """A 5x5 grid with a 1,200-vertex tail: the tree-width search runs
    1,200 levels deep, which at one Python frame per level exited 1 with
    a RecursionError traceback."""
    f = tmp_path / "grid-tail.gr"
    f.write_text(write_dimacs(grid_with_tail()))
    src = os.path.dirname(os.path.dirname(twinwidth.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "twinwidth", *(a.format(g=f) for a in argv)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and "Traceback" not in done.stderr, (done.returncode, done.stderr)
    assert done.stdout.splitlines()[0] == first_line


class TestUsageErrors:
    """A bad invocation exits 1, apart from status 2 (UNKNOWN); --help exits 0."""

    @pytest.mark.parametrize(
        "tool,argv",
        [
            (main_tww, ["bogus"]),
            (main_tww, ["decide", "g.gr"]),
            (main_gen, ["wall"]),
            (main_lab, ["obs31"]),
            (main_treewidth, []),
            (main_treewidth, ["g.gr", "--budget", "x"]),
        ],
    )
    def test_usage_error_exits_one(self, tool, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            tool(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tool", [main_tww, main_gen, main_lab, main_treewidth])
    def test_help_exits_zero(self, tool, capsys):
        with pytest.raises(SystemExit) as exc:
            tool(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tool,argv",
        [
            (main_tww, ["decide", "-d", "1", "--budget", "-5", "{g}"]),
            (main_tww, ["exact", "--cap", "1", "--budget", "-5", "{g}"]),
            (main_treewidth, ["{g}", "--budget", "-1"]),
            (main_lab, ["pipeline", "{g}", "-t", "2", "-k", "1", "--budget", "-1"]),
        ],
    )
    def test_negative_budget_exits_one(self, tool, argv, tmp_path, capsys):
        # `tww decide` exited 2 without searching and `treewidth` exited 0
        from twinwidth.structure import gen_wall

        f = tmp_path / "wall3.gr"
        f.write_text(write_dimacs(gen_wall(3)[0]))
        assert tool([a.format(g=f) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: budget must be nonnegative\n"

    def test_umbrella_usage_errors(self, capsys):
        for argv in (["tww", "bogus"], ["treewidth"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1


# (tool, argv) on malformed input; {g} is a valid graph (P4), and the
# other placeholders name the broken files written by `malformed_files`
_MALFORMED = [
    ("tww", ["decide", "-d", "1", "{bad_graph}"]),
    ("tww", ["exact", "--cap", "1", "{bad_graph}"]),
    ("tww", ["verify", "--seq", "{dead_seq}", "{g}"]),
    ("tww", ["zero", "{bad_graph}"]),
    ("tww", ["greedy", "{bad_graph}"]),
    ("tww", ["prefix", "-i", "1", "--seq", "{bad_json}", "{g}"]),
    ("gen", ["wall", "-N", "0"]),
    ("gen", ["mesh", "-N", "0"]),
    ("gen", ["tww3family", "-N", "0"]),
    ("gen", ["tww3family-seq", "-N", "0"]),
    ("gen", ["grid", "-N", "-1"]),
    ("lab", ["obs31", "{g}", "{bad_partition}", "-t", "1"]),
    ("lab", ["witness", "{g}", "{partition}", "--parts", "1,x", "-t", "1"]),
    ("lab", ["audit", "{g}", "{short_seq}", "--witness-at", "1", "--parts", "0,1,2,3", "-t", "1"]),
    ("lab", ["step1", "{g}", "{seq}", "{empty_row_mesh}", "-k", "1"]),
    ("lab", ["pipeline", "{bad_graph}", "-t", "2", "-k", "1"]),
    ("treewidth", ["{bad_graph}"]),
]


@pytest.fixture
def malformed_files(tmp_path):
    texts = {
        "g": write_dimacs(path_graph(4)),
        "bad_graph": "e 1 2\n",
        "seq": '{"n": 4, "steps": [{"u": 0, "v": 1}, {"u": 2, "v": 3}, {"u": 4, "v": 5}]}\n',
        "dead_seq": '{"n": 4, "steps": [{"u": 0, "v": 1}, {"u": 0, "v": 2}, {"u": 5, "v": 3}]}\n',
        "short_seq": '{"n": 4, "steps": []}\n',
        "bad_json": "{\n",
        "partition": "1\n2\n3\n4\n",
        "bad_partition": "1 x\n",
        "empty_row_mesh": '{"N": 1, "rows": [[]], "cols": [[0, 1]]}\n',
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts}


@pytest.mark.parametrize("tool,argv", _MALFORMED, ids=[t if t == "treewidth" else f"{t} {a[0]}" for t, a in _MALFORMED])
def test_malformed_input_exits_one_without_traceback(tool, argv, malformed_files):
    """Every subcommand, run as a process on malformed input, exits 1
    with an error line and no traceback."""
    src = os.path.dirname(os.path.dirname(twinwidth.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "twinwidth", tool, *(a.format(**malformed_files) for a in argv)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, (done.returncode, done.stderr)
    assert "Traceback" not in done.stderr and done.stderr.startswith("error:"), done.stderr
