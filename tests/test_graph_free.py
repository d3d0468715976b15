"""Closed-form intersection arrays and the graph-free CLI route.

Closed-form commands build a graph only for a coloring, a structure or the
oracle.  The cases past the default vertex budget can only pass if nothing
is built; their answers are compared with the library formula and with
sphere sizes known independently of it.
"""
import json
import subprocess
import sys
from math import comb

import pytest

from eqpart.cli import main
from eqpart.distributions import lattice_distribution, vertex_distribution
from eqpart.drg import (
    halved_cube_intersection_array,
    intersection_array,
    johnson_intersection_array,
    regular_degree,
    spec_intersection_array,
)
from eqpart.errors import EqpartError, VertexBudgetError
from eqpart.graphs import (
    DEFAULT_VERTEX_BUDGET,
    halved_cube,
    hamming_graph,
    johnson_graph,
    load_graph,
    read_spec,
)
from eqpart.localdist import reconstruct_local
from eqpart.ratmat import from_json


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- closed-form arrays against the BFS array ------------------------------------


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 10) for k in range(n + 1)])
def test_johnson_array_matches_graph(n, k):
    expect = intersection_array(johnson_graph(n, k))
    assert johnson_intersection_array(n, k) == expect
    assert spec_intersection_array({"gen": "johnson", "n": n, "k": k}) == expect


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("sign", ["even", "odd"])
def test_halved_cube_array_matches_graph(n, sign):
    expect = intersection_array(halved_cube(n, sign))
    assert halved_cube_intersection_array(n) == expect
    assert spec_intersection_array({"gen": "halved", "n": n, "sign": sign}) == expect


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in (2, 3, 4) for n in range(1, 9) if q**n <= 260]
)
def test_hamming_spec_array_matches_graph(n, q):
    spec = {"gen": "hamming", "n": n, "q": q}
    assert spec_intersection_array(spec) == intersection_array(hamming_graph(n, q))


def test_spec_array_falls_back_to_bfs_for_edges_and_products():
    h22 = {"gen": "hamming", "n": 2, "q": 2}
    product = {"gen": "product", "left": {"gen": "hamming", "n": 1, "q": 2}, "right": h22}
    assert spec_intersection_array(product) == intersection_array(hamming_graph(3, 2))
    cycle = {"n_vertices": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}
    assert spec_intersection_array(cycle) == intersection_array(load_graph(cycle))
    with pytest.raises(VertexBudgetError):
        spec_intersection_array(product, lambda spec: load_graph(spec, 4))


def test_closed_form_arrays_reject_bad_parameters():
    with pytest.raises(EqpartError):
        johnson_intersection_array(3, 4)
    with pytest.raises(EqpartError):
        halved_cube_intersection_array(1)
    with pytest.raises(EqpartError):
        spec_intersection_array({"gen": "hamming", "n": 0, "q": 2})


def test_regular_degree_from_spec():
    assert regular_degree({"gen": "hamming", "n": 3, "q": 4}) == 9
    assert regular_degree({"gen": "johnson", "n": 30, "k": 15}) == 225
    assert regular_degree({"gen": "halved", "n": 40, "sign": "odd"}) == comb(40, 2)
    product = {"gen": "product", "left": {"gen": "johnson", "n": 5, "k": 2},
               "right": {"gen": "hamming", "n": 2, "q": 3}}
    assert regular_degree(product) == load_graph(product).degree(0) == 10
    path = {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}
    with pytest.raises(EqpartError):
        regular_degree(path)


# -- budget before enumeration ----------------------------------------------------------


def test_generators_refuse_before_enumerating():
    with pytest.raises(VertexBudgetError):
        halved_cube(40, budget=10)
    with pytest.raises(VertexBudgetError):
        johnson_graph(60, 30, budget=10)


def test_edge_list_is_guarded_by_the_budget():
    with pytest.raises(VertexBudgetError):
        load_graph({"n_vertices": 5, "edges": []}, budget=4)


# -- the spec reader -------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        {"gen": "hamming", "n": 2},
        {"gen": "hamming", "n": "x", "q": 2},
        {"gen": "hamming", "n": True, "q": 2},
        {"gen": "johnson", "n": 4},
        {"gen": "halved", "n": 4, "sign": "weird"},
        {"gen": "product", "left": {"gen": "hamming", "n": 1, "q": 2}},
        {"n_vertices": 2},
        {"n_vertices": 2, "edges": [[0]]},
        {"n_vertices": 2, "edges": [["0", 1]]},
        {"n_vertices": 0, "edges": []},
        {"gen": "mystery"},
        [1, 2],
    ],
)
def test_read_spec_rejects_malformed_specs(spec):
    with pytest.raises(EqpartError):
        read_spec(spec)
    with pytest.raises(EqpartError):
        spec_intersection_array(spec)


# -- the graph-free CLI route past the default budget --------------------------------------


def test_lattice_past_the_budget_matches_library(capsys, tmp_path):
    assert 2 ** 25 > DEFAULT_VERTEX_BUDGET
    s = write(tmp_path, "s.json", {"s": [["25"]]})
    code, out, _ = run(capsys, "distrib", "lattice", "-m", "5", "-k", "5", "-q", "2",
                       "--s", s, "--f0", "[1]")
    assert code == 0
    library = lattice_distribution(5, 5, 2, from_json([[25]]), [1])
    assert json.loads(out) == {"rows": library.to_strings()}
    # all-ones on H(25,2): row w is the sphere size C(5,w) of H(5,2)
    assert json.loads(out)["rows"] == [[str(comb(5, w))] for w in range(6)]


def test_vertex_on_johnson_30_15_matches_library(capsys, tmp_path):
    assert comb(30, 15) > DEFAULT_VERTEX_BUDGET
    graph = write(tmp_path, "j.json", {"gen": "johnson", "n": 30, "k": 15})
    s = write(tmp_path, "s.json", [[225]])
    code, out, _ = run(capsys, "distrib", "vertex", "--graph", graph, "--s", s,
                       "--color", "0")
    assert code == 0
    library = vertex_distribution(johnson_intersection_array(30, 15), from_json([[225]]), 0)
    assert json.loads(out) == {"rows": library.to_strings()}
    assert json.loads(out)["rows"] == [[str(comb(15, w) ** 2)] for w in range(16)]


def test_local_reconstruct_on_halved_40_matches_library(capsys, tmp_path):
    assert 2 ** 39 > DEFAULT_VERTEX_BUDGET
    graph = write(tmp_path, "h.json", {"gen": "halved", "n": 40})
    # all-ones on halved(40) x K2: R2 = [1], S = [C(40,2) + 1], so the star
    # matrix is [C(40,2)] and row i is h0 times the sphere size C(40, 2i)
    d = comb(40, 2)
    r2 = write(tmp_path, "r2.json", [[1]])
    s = write(tmp_path, "s.json", [[d + 1]])
    code, out, _ = run(capsys, "local", "reconstruct", "--graph", graph, "--right-s", r2,
                       "--s", s, "--h0", '["2"]')
    assert code == 0
    library = reconstruct_local(halved_cube_intersection_array(40), from_json([[1]]),
                                from_json([[d + 1]]), from_json([[2]]))
    assert json.loads(out) == {"h_star": library.to_strings()}
    assert json.loads(out)["h_star"] == [[str(2 * comb(40, 2 * i))] for i in range(21)]


def test_fiber_graph_free_equals_graph_route(capsys, tmp_path):
    left = write(tmp_path, "left.json", {"gen": "johnson", "n": 4, "k": 2})
    right = write(tmp_path, "right.json", {"gen": "hamming", "n": 2, "q": 3})
    product = {"gen": "product", "left": {"gen": "johnson", "n": 4, "k": 2},
               "right": {"gen": "hamming", "n": 2, "q": 3}}
    ones = write(tmp_path, "ones.json", {"graph": product, "colors": [0] * 54})
    code, with_graph, _ = run(capsys, "distrib", "fiber", "--left", left, "--right", right,
                              "--coloring", ones, "--verify-oracle")
    assert code == 0
    s = write(tmp_path, "s.json", [[8]])
    code, graph_free, _ = run(capsys, "distrib", "fiber", "--left", left, "--right", right,
                              "--s", s, "--f0", "[6]", "--vertex-budget", "8")
    assert code == 0
    assert graph_free == with_graph


def test_pcube_graph_free_ignores_the_budget(capsys, tmp_path):
    s = write(tmp_path, "s.json", [[4]])
    code, out, _ = run(capsys, "distrib", "pcube", "-n", "2", "-p", "2", "-q", "3",
                       "--s", s, "--f0", "[4]", "--vertex-budget", "8")
    assert code == 0
    assert json.loads(out) == {"rows": [["4"], ["4"], ["1"]]}


# -- graphs that are built stay guarded --------------------------------------------------


def test_lattice_with_coloring_is_still_guarded(capsys, tmp_path):
    ones = write(tmp_path, "ones.json",
                 {"graph": {"gen": "hamming", "n": 4, "q": 2}, "colors": [0] * 16})
    argv = ["distrib", "lattice", "-m", "2", "-k", "2", "-q", "2", "--coloring", ones]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--vertex-budget", "8")
    assert code == 1 and "exceeds the budget" in err


def test_vertex_with_oracle_is_still_guarded(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", {"gen": "hamming", "n": 2, "q": 3})
    s = write(tmp_path, "s.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]])
    argv = ["distrib", "vertex", "--graph", graph, "--s", s, "--color", "0",
            "--vertex-budget", "8"]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--verify-oracle")
    assert code == 1 and "exceeds the budget" in err


# -- bad input ends in an error message ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["distrib", "lattice", "-m", "0", "-k", "2", "-q", "2"],
        ["distrib", "lattice", "-m", "2", "-k", "0", "-q", "2"],
        ["distrib", "lattice", "-m", "2", "-k", "2", "-q", "1"],
        ["distrib", "pcube", "-n", "0", "-p", "1", "-q", "2"],
        ["distrib", "pcube", "-n", "2", "-p", "3", "-q", "3"],
        ["distrib", "pcube", "-n", "2", "-p", "0", "-q", "3"],
    ],
)
def test_graph_free_route_checks_parameters(capsys, tmp_path, argv):
    s = write(tmp_path, "s.json", [[1]])
    code, out, err = run(capsys, *argv, "--s", s, "--f0", "[1]")
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "spec",
    [
        {"gen": "hamming", "n": 2},
        {"gen": "hamming", "n": "x", "q": 2},
        {"gen": "johnson", "n": 3, "k": 4},
        {"gen": "halved", "n": 1},
        {"gen": "halved", "n": 4, "sign": "weird"},
    ],
)
def test_malformed_graph_spec_exits_1(capsys, tmp_path, spec):
    graph = write(tmp_path, "g.json", spec)
    s = write(tmp_path, "s.json", [[1]])
    for argv in (["distrib", "vertex", "--graph", graph, "--s", s, "--color", "0"],
                 ["local", "reconstruct", "--graph", graph, "--right-s", s, "--s", s,
                  "--h0", "[1]"],
                 ["distrib", "fiber", "--left", graph, "--right", graph, "--s", s,
                  "--f0", "[1]"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")


def test_malformed_spec_has_no_traceback(tmp_path):
    graph = write(tmp_path, "g.json", {"gen": "hamming", "n": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "eqpart.cli", "crc-check", "--graph", graph, "--code", graph],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "doc",
    [
        {"f": [[1]], "s": [[1]]},
        {"matrix": [[1]], "s": [[1]]},
        {"matrix": [[1]], "f": [[1]]},
        {"graph": {"gen": "hamming", "n": 1}, "f": [[1], [1]], "s": [[1]]},
        [[1]],
    ],
)
def test_verify_malformed_structure_exits_1(capsys, tmp_path, doc):
    path = write(tmp_path, "st.json", doc)
    code, out, err = run(capsys, "verify", "--structure", path)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_oracle_disagreement_names_first_difference(capsys, tmp_path):
    graph = write(tmp_path, "h23.json", {"gen": "hamming", "n": 2, "q": 3})
    coloring = write(tmp_path, "vcol.json",
                     {"graph": {"gen": "hamming", "n": 2, "q": 3},
                      "colors": [0, 1, 1, 1, 2, 2, 1, 2, 2]})
    wrong = write(tmp_path, "wrong.json", [[0, 4, 0], [1, 1, 2], [0, 2, 2]][::-1])
    code, out, err = run(capsys, "distrib", "vertex", "--graph", graph, "--s", wrong,
                         "--coloring", coloring, "--color", "0", "--verify-oracle")
    assert code == 1 and out == ""
    # row 1 of the formula is e_0 S = (0, 2, 2); the oracle's is (0, 4, 0)
    assert err.strip() == ("error: formula and oracle disagree: first difference at "
                           "row 1, column 1: formula 2, oracle 4")
