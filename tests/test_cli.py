import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapshift
from lapshift.cli import main
from lapshift.graphs import format_edge_list, path_graph, star_graph

P4 = "4 3\n1 2\n2 3\n3 4\n"
S4 = "4 3\n1 2\n1 3\n1 4\n"
C4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"
C5 = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_poly_single_shape(graph_file, capsys):
    assert main(["poly", graph_file(S4), "--lam", "1,1,1,1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["lambda,b0,b1,b2,b3,b4", '"1,1,1,1",1,6,9,4,0']


def test_poly_path_row(graph_file, capsys):
    assert main(["poly", graph_file(P4), "--lam", "1^4"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == '"1,1,1,1",1,6,10,4,0'


def test_poly_all_lambdas(graph_file, capsys):
    assert main(["poly", graph_file(P4), "--all-lambdas"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,b0,b1,b2,b3,b4"
    assert len(lines) == 6
    assert lines[1].startswith("4,")
    assert lines[5].startswith('"1,1,1,1",')


def test_poly_weight_mismatch(graph_file, capsys):
    assert main(["poly", graph_file(P4), "--lam", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_poly_bad_basis(graph_file):
    with pytest.raises(SystemExit):
        main(["poly", graph_file(P4), "--lam", "1^4", "--basis", "q"])


def test_orientations_full_census(graph_file, capsys):
    assert main(["orientations", graph_file(C4)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["type,count", "4,2", '"2,2",2', '"2,1,1",12']


def test_orientations_with_r(graph_file, capsys):
    assert main(["orientations", graph_file(P4), "--r", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["type,count", '"1,1,1,1",1']
    assert main(["orientations", graph_file("2 1\n1 2\n")]) == 0
    assert capsys.readouterr().out.splitlines() == ["type,count", "2,1"]


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(P4))
    assert main(["wiener", "-"]) == 0
    assert capsys.readouterr().out == "10\n"


def test_wiener_and_spectral(graph_file, capsys):
    assert main(["wiener", graph_file(S4)]) == 0
    assert capsys.readouterr().out == "9\n"
    assert main(["spectral", graph_file(S4)]) == 0
    assert capsys.readouterr().out == "1.7320508076\n"
    assert main(["spectral", graph_file(P4)]) == 0
    assert capsys.readouterr().out == "1.6180339887\n"


def test_shift_subcommand(graph_file, capsys):
    assert main(["shift", graph_file(P4), "2", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["# shift 2 3 2,3", "4 3", "1 2", "2 3", "2 4"]
    # no qualifying move
    assert main(["shift", graph_file(C4), "1", "3"]) == 2


def test_shift_kelmans(graph_file, capsys):
    assert main(["shift", graph_file(P4), "3", "1", "--kelmans"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# kelmans 3 1"
    assert out[1] == "4 3"


def test_poset_files(graph_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["poset", "8", "4", "--output-dir", str(out_dir)]) == 0
    message = capsys.readouterr().out
    assert message.startswith("9 nodes, 15 covers;")
    assert (out_dir / "poset_u8_c4.dot").exists()
    assert (out_dir / "poset_u8_c4.csv").exists()
    csv_lines = (out_dir / "poset_u8_c4.csv").read_text().splitlines()
    assert csv_lines[0] == "node_id,canonical_form,is_max,is_min"
    assert len(csv_lines) == 10


def test_poset_trees(tmp_path, capsys):
    assert main(["poset", "--trees", "6", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("6 nodes, 7 covers;")
    assert (tmp_path / "poset_trees6.dot").exists()


def test_poset_smallest_family(tmp_path, capsys):
    assert main(["poset", "5", "4", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("1 nodes, 0 covers;")


def test_poset_env_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAPSHIFT_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["poset", "--trees", "4"]) == 0
    capsys.readouterr()
    assert (tmp_path / "env_out" / "poset_trees4.dot").exists()


def test_poset_missing_arguments(capsys):
    assert main(["poset"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_single_check(capsys):
    assert main(["verify", "--only", "kostka-inverse", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS kostka-inverse")
    assert out.splitlines()[-1] == "all 1 checks passed"


def test_verify_inject_fault(capsys):
    code = main(
        ["verify", "--only", "census-immanant", "--max-n", "3", "--inject-fault"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL census-immanant")


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_jobs_other_than_one_is_input_error(capsys):
    assert main(["verify", "--jobs", "2", "--only", "monomial-table"]) == 2
    assert "checks run in order" in capsys.readouterr().err
    assert main(["verify", "--jobs", "1", "--only", "monomial-table"]) == 0


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max_n = 4\nfamilies = 6:4\nbases = s\n")
    assert main(["verify", "--config", str(cfg), "--only", "poset-extremes"]) == 0
    assert capsys.readouterr().out.startswith("PASS poset-extremes")


def test_verify_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max_vertices = 4\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_verify_output_deterministic(capsys):
    args = ["verify", "--only", "monomial-table", "--max-n", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_missing_file_is_input_error(capsys):
    assert main(["wiener", "/nonexistent/graph.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_reported(graph_file, capsys):
    assert main(["wiener", graph_file("not a graph\n")]) == 2
    assert "error:" in capsys.readouterr().err


def test_capacity_exit_code(graph_file, capsys):
    # the full census of a complete graph on 12 vertices overflows the cap
    edges = ["%d %d" % (i, j) for i in range(1, 13) for j in range(i + 1, 13)]
    text = f"12 {len(edges)}\n" + "\n".join(edges) + "\n"
    assert main(["orientations", graph_file(text, "big.txt")]) == 3
    assert "capacity" in capsys.readouterr().err


def test_disconnected_wiener_is_input_error(graph_file, capsys):
    assert main(["wiener", graph_file("4 2\n1 2\n3 4\n")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_census_cap_reaches_coefficients(capsys):
    # the corpus still has graphs with two independent cycles, which are
    # walked under the cap
    assert main(["verify", "--census-cap", "1", "--only", "census-coefficients"]) == 3
    captured = capsys.readouterr()
    assert "exceed the cap of 1" in captured.err
    assert captured.out == ""


def test_verify_census_cap_reaches_transport(capsys):
    # transport walks every orientation of each cover's upper graph
    assert main(["verify", "--census-cap", "1", "--only", "transport-injectivity"]) == 3
    captured = capsys.readouterr()
    assert "transport walk of" in captured.err
    assert "exceeds the cap of 1" in captured.err
    assert captured.out == ""


def test_verify_has_no_output_dir(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--output-dir", ".", "--only", "kostka-inverse"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_capacity_exit_code(capsys):
    # a refused enumeration inside a check exits 3, like every other command
    assert main(["verify", "--only", "poset-extremes", "--max-n", "13"]) == 3
    captured = capsys.readouterr()
    assert "capacity exceeded" in captured.err
    assert "FAIL" not in captured.out


@pytest.mark.parametrize("module", ["lapshift", "lapshift.cli"])
def test_python_dash_m_runs_verify(module):
    package_root = str(Path(lapshift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "--only", "kostka-inverse"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("PASS kostka-inverse")
