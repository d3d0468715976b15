"""Input boundaries of the CLI: each graph built once, integer vertex and
colour values, and rationals written only as integers or "p/q".

Every malformed value ends in ``error: ...`` and exit code 1, never in a
traceback (an exception escaping ``main`` fails these tests).
"""
import json
import subprocess
import sys

import pytest

from eqpart import cli, equitable, graphs
from eqpart.cli import main
from eqpart.errors import ShapeError
from eqpart.ratmat import from_json, parse_rational


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def h(n, q=2):
    return {"gen": "hamming", "n": n, "q": q}


def vertex_coloring(graph_spec, n):
    """Distance coloring of vertex 0 of the binary n-cube, over ``graph_spec``."""
    return {"graph": graph_spec, "colors": [bin(v).count("1") for v in range(2**n)]}


@pytest.fixture
def hamming_builds(monkeypatch):
    """Count hamming_graph calls in every module that holds the function."""
    calls = []
    original = graphs.hamming_graph

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    for module in (graphs, equitable, cli):
        monkeypatch.setattr(module, "hamming_graph", counting)
    return calls


# -- each graph built once ---------------------------------------------------------


def test_vertex_with_coloring_and_oracle_builds_the_graph_once(capsys, tmp_path,
                                                               hamming_builds):
    graph = write(tmp_path, "h62.json", h(6))
    coloring = write(tmp_path, "col.json", vertex_coloring(h(6), 6))
    code, out, _ = run(capsys, "distrib", "vertex", "--graph", graph, "--coloring", coloring,
                       "--color", "0", "--verify-oracle")
    assert code == 0
    assert json.loads(out)["rows"][2] == ["0", "0", "15", "0", "0", "0", "0"]
    assert hamming_builds == [(6, 2)]


def test_lattice_and_quotient_reuse_the_command_graph(capsys, tmp_path, hamming_builds):
    ones = write(tmp_path, "ones.json", {"graph": h(4), "colors": [0] * 16})
    code, out, _ = run(capsys, "distrib", "lattice", "-m", "2", "-k", "2", "-q", "2",
                       "--coloring", ones, "--verify-oracle")
    assert code == 0 and json.loads(out)["rows"] == [["4"], ["8"], ["4"]]
    assert len(hamming_builds) == 1
    graph = write(tmp_path, "h4.json", h(4))
    assert run(capsys, "quotient", "--graph", graph, "--coloring", ones)[0] == 0
    assert len(hamming_builds) == 2


def test_local_distrib_builds_the_product_once(capsys, tmp_path, hamming_builds):
    left = write(tmp_path, "left.json", vertex_coloring(h(2), 2))
    f = write(tmp_path, "f.json", vertex_coloring({"gen": "product", "left": h(2),
                                                   "right": h(2)}, 4))
    code, out, _ = run(capsys, "local", "distrib", "--left", left, "--right", left,
                       "--coloring", f)
    assert code == 0 and json.loads(out)["k"] == 5
    # one build per factor file; the product file reuses the command's product
    assert hamming_builds == [(2, 2), (2, 2)]


def test_same_adjacency_under_another_spec_is_loaded_and_accepted(capsys, tmp_path,
                                                                  hamming_builds):
    # H(3,2) x H(3,2) flattens exactly like H(6,2), so the file is accepted
    graph = write(tmp_path, "h62.json", h(6))
    coloring = write(tmp_path, "col.json",
                     vertex_coloring({"gen": "product", "left": h(3), "right": h(3)}, 6))
    code, _, _ = run(capsys, "distrib", "vertex", "--graph", graph, "--coloring", coloring,
                     "--color", "0")
    assert code == 0
    assert hamming_builds == [(6, 2), (3, 2), (3, 2)]


@pytest.mark.parametrize("option", ["--coloring", "--structure"])
def test_file_over_a_different_graph_exits_1(capsys, tmp_path, option):
    graph = write(tmp_path, "h3.json", h(3))
    other = {"gen": "halved", "n": 4}
    doc = ({"graph": other, "colors": [0] * 8} if option == "--coloring"
           else {"graph": other, "f": [[1]] * 8, "s": [[6]]})
    path = write(tmp_path, "file.json", doc)
    code, out, err = run(capsys, "distrib", "vertex", "--graph", graph, option, path,
                         "--s", write(tmp_path, "s.json", [[3]]), "--color", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "different graph" in err


def test_quotient_over_a_different_graph_exits_1(capsys, tmp_path):
    graph = write(tmp_path, "h3.json", h(3))
    coloring = write(tmp_path, "col.json", {"graph": {"gen": "halved", "n": 4},
                                            "colors": [0] * 8})
    code, out, err = run(capsys, "quotient", "--graph", graph, "--coloring", coloring)
    assert code == 1 and out == "" and "different graph" in err


# -- vertices and colours are JSON integers -----------------------------------------


@pytest.mark.parametrize("bad", ["x", "1", 1.0, 1.5, True, None])
def test_crc_check_rejects_non_integer_code(capsys, tmp_path, bad):
    graph = write(tmp_path, "h3.json", h(3))
    code_file = write(tmp_path, "code.json", [0, bad])
    code, out, err = run(capsys, "crc-check", "--graph", graph, "--code", code_file)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "entry 1 is not an integer" in err


@pytest.mark.parametrize("colors", [["a", 0, 0, 0], [0, 0, 1.0, 0], [0, False, 0, 0],
                                    "0000", 3])
def test_quotient_rejects_non_integer_colours(capsys, tmp_path, colors):
    graph = write(tmp_path, "h2.json", h(2))
    coloring = write(tmp_path, "col.json", {"graph": h(2), "colors": colors})
    code, out, err = run(capsys, "quotient", "--graph", graph, "--coloring", coloring)
    assert code == 1 and out == "" and err.startswith("error: ")
    if isinstance(colors, list):
        bad = next(i for i, c in enumerate(colors) if type(c) is not int)
        assert f"colors entry {bad} is not an integer" in err


def test_non_integer_code_has_no_traceback(tmp_path):
    graph = write(tmp_path, "h3.json", h(3))
    code_file = write(tmp_path, "code.json", ["x"])
    proc = subprocess.run(
        [sys.executable, "-m", "eqpart.cli", "crc-check", "--graph", graph, "--code", code_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# -- rationals are integers or "p/q" strings ----------------------------------------

BAD_RATIONALS = ["1/0", "-0x1", "1.5", "1e3", " 3/4 ", "3/-4", "1/2/3", "", "½",
                 pytest.param("1" * 5000, id="5000-digits")]


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_parse_rational_rejects(text):
    with pytest.raises(ShapeError):
        parse_rational(text)
    with pytest.raises(ShapeError):
        from_json([[text]])


@pytest.mark.parametrize("text,value", [("+3", 3), ("-0", 0), ("007", 7), ("6/4", "3/2"),
                                        ("-10/15", "-2/3"), ("0/9", 0)])
def test_parse_rational_accepts(text, value):
    assert from_json([[text]]) == from_json([[value]])
    assert str(parse_rational(text)) == str(value)


@pytest.mark.parametrize("text", BAD_RATIONALS[:5])
def test_bad_rational_in_files_and_rows_exits_1(capsys, tmp_path, text):
    s = write(tmp_path, "s.json", [[text]])
    code, out, err = run(capsys, "distrib", "lattice", "-m", "1", "-k", "1", "-q", "2",
                         "--s", s, "--f0", "[1]")
    assert code == 1 and out == "" and err.startswith("error: ")
    one = write(tmp_path, "one.json", [[1]])
    code, out, err = run(capsys, "distrib", "lattice", "-m", "1", "-k", "1", "-q", "2",
                         "--s", one, "--f0", json.dumps([text]))
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("doc", [{"s": 5}, {"s": [1, 2]}, {"s": "1"}, 7])
def test_matrix_that_is_not_an_array_of_arrays_exits_1(capsys, tmp_path, doc):
    s = write(tmp_path, "s.json", doc)
    code, out, err = run(capsys, "distrib", "lattice", "-m", "1", "-k", "1", "-q", "2",
                         "--s", s, "--f0", "[1]")
    assert code == 1 and out == "" and err.startswith("error: ")
