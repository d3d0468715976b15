import json
import subprocess
import sys

import pytest

from eqpart.cli import main

H23 = {"gen": "hamming", "n": 2, "q": 3}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def vertex_coloring_doc():
    # distance classes of word 00 in the 3-ary 2-cube
    colors = [0, 1, 1, 1, 2, 2, 1, 2, 2]
    return {"graph": H23, "colors": colors}


def test_gen_hamming(capsys):
    code, doc = run_cli(capsys, "gen", "hamming", "-n", "1", "-q", "2")
    assert code == 0
    assert doc == {"n_vertices": 2, "edges": [[0, 1]], "labels": [[0], [1]]}


def test_gen_product(capsys, tmp_path):
    left = write(tmp_path, "left.json", {"gen": "hamming", "n": 1, "q": 2})
    code, doc = run_cli(capsys, "gen", "product", "--left", left, "--right", left)
    assert code == 0
    assert doc["n_vertices"] == 4
    assert sorted(map(tuple, doc["edges"])) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_quotient_vertex_coloring_matrix(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", H23)
    coloring = write(tmp_path, "vcol.json", vertex_coloring_doc())
    code, doc = run_cli(capsys, "quotient", "--graph", graph, "--coloring", coloring)
    assert code == 0
    assert doc == {
        "k": 3,
        "s": [["0", "4", "0"], ["1", "1", "2"], ["0", "2", "2"]],
    }


def test_verify_structure_ok_and_fail(capsys, tmp_path):
    good = write(
        tmp_path,
        "good.json",
        {"graph": {"gen": "hamming", "n": 1, "q": 2}, "f": [[1], [1]], "s": [[1]]},
    )
    code, doc = run_cli(capsys, "verify", "--structure", good)
    assert code == 0 and doc["ok"] is True

    bad = write(
        tmp_path,
        "bad.json",
        {"graph": {"gen": "hamming", "n": 1, "q": 2}, "f": [[1], [2]], "s": [[1]]},
    )
    code, doc = run_cli(capsys, "verify", "--structure", bad)
    assert code == 1 and doc["ok"] is False
    assert doc["residual"] != [["0"], ["0"]]


def test_crc_check_hamming_code(capsys, tmp_path):
    from eqpart.codes import hamming_code_vertices

    graph = write(tmp_path, "h72.json", {"gen": "hamming", "n": 7, "q": 2})
    code_f = write(tmp_path, "code.json", hamming_code_vertices(3))
    code, doc = run_cli(capsys, "crc-check", "--graph", graph, "--code", code_f)
    assert code == 0
    assert doc == {"rho": 1, "R": [["0", "7"], ["1", "6"]]}


def test_distrib_vertex_equals_oracle_output(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", H23)
    coloring = write(tmp_path, "vcol.json", vertex_coloring_doc())
    s = write(tmp_path, "s.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]])
    code, formula = run_cli(
        capsys, "distrib", "vertex", "--graph", graph, "--s", s, "--color", "0"
    )
    assert code == 0
    code_file = write(tmp_path, "v0.json", [0])
    code, oracle = run_cli(
        capsys, "oracle", "--graph", graph, "--code", code_file, "--coloring", coloring
    )
    assert code == 0
    assert formula == oracle == {"rows": [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]]}


def test_distrib_vertex_verify_oracle(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", H23)
    coloring = write(tmp_path, "vcol.json", vertex_coloring_doc())
    code, _ = run_cli(
        capsys,
        "distrib",
        "vertex",
        "--graph",
        graph,
        "--coloring",
        coloring,
        "--color",
        "0",
        "--verify-oracle",
    )
    assert code == 0
    # a wrong parameter matrix must make the oracle check fail
    wrong = write(tmp_path, "wrong.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]][::-1])
    code = main(
        [
            "distrib",
            "vertex",
            "--graph",
            graph,
            "--s",
            wrong,
            "--coloring",
            coloring,
            "--color",
            "0",
            "--verify-oracle",
        ]
    )
    capsys.readouterr()
    assert code == 1


def test_distrib_code_reconstruction(capsys, tmp_path):
    from eqpart.codes import hamming_code_vertices

    graph = write(tmp_path, "h72.json", {"gen": "hamming", "n": 7, "q": 2})
    code_f = write(tmp_path, "code.json", hamming_code_vertices(3))
    members = set(hamming_code_vertices(3))
    struct = write(
        tmp_path,
        "eig.json",
        {
            "graph": {"gen": "hamming", "n": 7, "q": 2},
            "f": [["7" if v in members else "-1"] for v in range(128)],
            "s": [["-1"]],
        },
    )
    code, doc = run_cli(
        capsys,
        "distrib",
        "code",
        "--graph",
        graph,
        "--code",
        code_f,
        "--structure",
        struct,
        "--verify-oracle",
    )
    assert code == 0
    assert doc == {"rows": [["112"], ["-112"]]}


def test_distrib_lattice(capsys, tmp_path):
    coloring = write(
        tmp_path,
        "ones.json",
        {"graph": {"gen": "hamming", "n": 4, "q": 2}, "colors": [0] * 16},
    )
    code, doc = run_cli(
        capsys,
        "distrib",
        "lattice",
        "-m",
        "2",
        "-k",
        "2",
        "-q",
        "2",
        "--coloring",
        coloring,
        "--verify-oracle",
    )
    assert code == 0
    assert doc == {"rows": [["4"], ["8"], ["4"]]}


def test_distrib_fiber(capsys, tmp_path):
    k2 = write(tmp_path, "k2.json", {"gen": "hamming", "n": 1, "q": 2})
    coloring = write(
        tmp_path,
        "ones.json",
        {
            "graph": {"gen": "product", "left": {"gen": "hamming", "n": 1, "q": 2}, "right": {"gen": "hamming", "n": 1, "q": 2}},
            "colors": [0, 0, 0, 0],
        },
    )
    code, doc = run_cli(
        capsys,
        "distrib",
        "fiber",
        "--left",
        k2,
        "--right",
        k2,
        "--coloring",
        coloring,
        "--verify-oracle",
    )
    assert code == 0
    assert doc == {"rows": [["2"], ["2"]]}


def test_distrib_pcube(capsys, tmp_path):
    s = write(tmp_path, "s.json", [[4]])
    code, doc = run_cli(
        capsys,
        "distrib",
        "pcube",
        "-n",
        "2",
        "-p",
        "2",
        "-q",
        "3",
        "--s",
        s,
        "--f0",
        "[4]",
    )
    assert code == 0
    assert doc == {"rows": [["4"], ["4"], ["1"]]}


def test_distrib_pcube_verify_oracle_from_coloring(capsys, tmp_path):
    coloring = write(
        tmp_path,
        "ones.json",
        {"graph": {"gen": "hamming", "n": 2, "q": 3}, "colors": [0] * 9},
    )
    code, doc = run_cli(
        capsys,
        "distrib",
        "pcube",
        "-n",
        "2",
        "-p",
        "2",
        "-q",
        "3",
        "--coloring",
        coloring,
        "--verify-oracle",
    )
    assert code == 0
    assert doc == {"rows": [["4"], ["4"], ["1"]]}


def test_distrib_pcube_verify_oracle_needs_values(capsys, tmp_path):
    s = write(tmp_path, "s.json", [[4]])
    code = main(
        ["distrib", "pcube", "-n", "2", "-p", "2", "-q", "3", "--s", s, "--f0", "[4]", "--verify-oracle"]
    )
    capsys.readouterr()
    assert code == 1


def test_local_params_9x9(capsys, tmp_path):
    coloring = write(tmp_path, "vcol.json", vertex_coloring_doc())
    code, doc = run_cli(capsys, "local", "params", "--left", coloring, "--right", coloring)
    assert code == 0
    assert doc["params"][0] == ["0", "4", "0", "4", "0", "0", "0", "0", "0"]
    assert doc["params"][4] == ["0", "1", "0", "1", "2", "2", "0", "2", "0"]


def test_local_distrib_and_reconstruct(capsys, tmp_path):
    coloring = write(tmp_path, "vcol.json", vertex_coloring_doc())
    product_graph = {"gen": "product", "left": H23, "right": H23}
    ones = write(tmp_path, "ones.json", {"graph": product_graph, "colors": [0] * 81})
    code, doc = run_cli(
        capsys,
        "local",
        "distrib",
        "--left",
        coloring,
        "--right",
        coloring,
        "--coloring",
        ones,
    )
    assert code == 0
    assert doc["n_left"] == doc["n_right"] == 3 and doc["k"] == 1

    graph = write(tmp_path, "h23.json", H23)
    s3 = write(tmp_path, "s3.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]])
    s_ones = write(tmp_path, "sone.json", [[8]])
    code, rec = run_cli(
        capsys,
        "local",
        "reconstruct",
        "--graph",
        graph,
        "--right-s",
        s3,
        "--s",
        s_ones,
        "--h0",
        json.dumps(doc["h_star"][0]),
    )
    assert code == 0
    assert rec["h_star"] == doc["h_star"]


def test_selftest_passes(capsys):
    code, doc = run_cli(capsys, "selftest")
    assert code == 0
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["definitely-not-a-command"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["gen", "hamming", "-n", "two", "-q", "2"])
    assert err.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys, tmp_path):
    code = main(["crc-check", "--graph", str(tmp_path / "missing.json"), "--code", str(tmp_path / "missing2.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eqpart.cli", "gen", "hamming", "-n", "1", "-q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_vertices"] == 2


def test_vertex_budget_flag(capsys, tmp_path):
    graph = write(tmp_path, "big.json", {"gen": "hamming", "n": 8, "q": 2})
    code_f = write(tmp_path, "c.json", [0])
    code = main(
        ["crc-check", "--graph", graph, "--code", code_f, "--vertex-budget", "100"]
    )
    capsys.readouterr()
    assert code == 1


# -- one distrib pipeline: every option means the same in every mode ---------


def test_distrib_code_from_s_and_f0_equals_the_coloring_route(capsys, tmp_path):
    from eqpart.codes import hamming_code_vertices

    h72 = {"gen": "hamming", "n": 7, "q": 2}
    graph = write(tmp_path, "h72.json", h72)
    code_f = write(tmp_path, "code.json", hamming_code_vertices(3))
    coloring = write(tmp_path, "weight.json",
                     {"graph": h72, "colors": [bin(v).count("1") for v in range(128)]})
    code, by_coloring = run_cli(capsys, "distrib", "code", "--graph", graph, "--code", code_f,
                                "--coloring", coloring, "--verify-oracle")
    assert code == 0
    assert by_coloring["rows"][0] == ["1", "0", "0", "7", "7", "0", "0", "1"]
    code, quotient = run_cli(capsys, "quotient", "--graph", graph, "--coloring", coloring)
    assert code == 0
    s = write(tmp_path, "s.json", quotient)
    code, by_formula = run_cli(capsys, "distrib", "code", "--graph", graph, "--code", code_f,
                               "--s", s, "--f0", json.dumps(by_coloring["rows"][0]))
    assert (code, by_formula) == (0, by_coloring)


def vertex_oracle_argv(tmp_path, values_option, values_doc, s_doc, color):
    return ["distrib", "vertex", "--graph", write(tmp_path, "h23.json", H23),
            values_option, write(tmp_path, "values.json", values_doc),
            "--s", write(tmp_path, "s.json", s_doc), "--color", str(color), "--verify-oracle"]


def test_distrib_vertex_oracle_with_an_absent_color_exits_1(capsys, tmp_path):
    # a 4-colour S passes the range check of colour 3, which no vertex has
    s4 = [[0, 4, 0, 0], [1, 1, 2, 0], [0, 2, 2, 0], [0, 0, 0, 4]]
    code = main(vertex_oracle_argv(tmp_path, "--coloring", vertex_coloring_doc(), s4, 3))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_distrib_vertex_oracle_reads_an_indicator_structure(capsys, tmp_path):
    s = [[0, 4, 0], [1, 1, 2], [0, 2, 2]]
    f = [[int(c == j) for j in range(3)] for c in vertex_coloring_doc()["colors"]]
    argv = vertex_oracle_argv(tmp_path, "--structure", {"graph": H23, "f": f, "s": s}, s, 0)
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    assert doc == {"rows": [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]]}


def test_distrib_vertex_takes_no_f0(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", H23)
    s = write(tmp_path, "s.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]])
    with pytest.raises(SystemExit) as err:
        main(["distrib", "vertex", "--graph", graph, "--s", s, "--color", "0", "--f0", "[1]"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["distrib", "--vertex-budget", "4", "vertex"],
                                     ["local", "--vertex-budget", "4", "distrib"]],
                         ids=" ".join)
def test_vertex_budget_before_the_mode_holds(capsys, tmp_path, command):
    h32 = {"gen": "hamming", "n": 3, "q": 2}
    coloring = write(tmp_path, "weight.json",
                     {"graph": h32, "colors": [bin(v).count("1") for v in range(8)]})
    if command[0] == "distrib":
        rest = ["--graph", write(tmp_path, "h32.json", h32), "--coloring", coloring,
                "--color", "0", "--verify-oracle"]
    else:
        rest = ["--left", coloring, "--right", coloring]
    code = main(command + rest)
    assert code == 1
    assert "exceeds the budget of 4" in capsys.readouterr().err
