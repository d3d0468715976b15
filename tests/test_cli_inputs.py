"""Input boundaries of the CLI: each graph built once, integer vertex and
colour values, and rationals written only as integers or "p/q".

Every malformed value ends in ``error: ...`` and exit code 1, never in a
traceback (an exception escaping ``main`` fails these tests).
"""
import json
import subprocess
import sys

import pytest

from eqpart import equitable, graphs, localdist
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


def count_calls(monkeypatch, name, entry):
    """Record ``entry(args, result)`` for every call of the graphs function
    ``name``, patched in every module that holds it."""
    calls = []
    original = getattr(graphs, name)

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(entry(args, result))
        return result

    for module in (graphs, equitable, localdist):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def hamming_builds(monkeypatch):
    """(n, q) of every hamming_graph call."""
    return count_calls(monkeypatch, "hamming_graph", lambda args, g: args[:2])


@pytest.fixture
def product_builds(monkeypatch):
    """Vertex counts of the direct_product results."""
    return count_calls(monkeypatch, "direct_product", lambda args, g: g.n)


@pytest.fixture
def edge_list_builds(monkeypatch):
    """Vertex counts of the graph_from_edges results."""
    return count_calls(monkeypatch, "graph_from_edges", lambda args, g: g.n)


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
    # both factor files and the product's factors name one spec, built once
    assert hamming_builds == [(2, 2)]


def test_local_distrib_on_h5h5_builds_the_product_graph_once(capsys, tmp_path,
                                                             product_builds):
    left = write(tmp_path, "left.json", vertex_coloring(h(5), 5))
    product = {"gen": "product", "left": h(5), "right": h(5)}
    f = write(tmp_path, "f.json", {"graph": product, "colors": [0] * 1024})
    code, out, _ = run(capsys, "local", "distrib", "--left", left, "--right", left,
                       "--coloring", f)
    assert code == 0 and json.loads(out)["k"] == 1
    assert product_builds == [1024]


def test_local_distrib_regenerates_the_product_rows_once(capsys, tmp_path, monkeypatch):
    # H(10,2) flattens exactly like H(5,2) x H(5,2), so no product is built;
    # only tensor_distribution compares f's graph with the factors' product
    calls = count_calls(monkeypatch, "_product_rows", lambda args, rows: args[0].n * args[1].n)
    left = write(tmp_path, "left.json", vertex_coloring(h(5), 5))
    f = write(tmp_path, "f.json", vertex_coloring(h(10), 10))
    code, out, _ = run(capsys, "local", "distrib", "--left", left, "--right", left,
                       "--coloring", f)
    assert code == 0 and json.loads(out)["k"] == 11
    assert calls == [1024]


def test_local_distrib_over_another_1024_vertex_graph_raises(capsys, tmp_path):
    s = equitable.structure_from_coloring(graphs.hamming_graph(5, 2),
                                          equitable.distance_coloring(graphs.hamming_graph(5, 2),
                                                                      [0]))
    other = graphs.hamming_graph(5, 4)
    f = equitable.structure_from_coloring(other, equitable.all_one_coloring(other))
    with pytest.raises(ShapeError, match="direct product"):
        localdist.tensor_distribution(s, s, f)
    left = write(tmp_path, "left.json", vertex_coloring(h(5), 5))
    f_file = write(tmp_path, "f.json", {"graph": h(5, 4), "colors": [0] * 1024})
    code, out, err = run(capsys, "local", "distrib", "--left", left, "--right", left,
                         "--coloring", f_file)
    assert code == 1 and out == "" and "different graph" in err


def test_same_adjacency_under_another_spec_is_loaded_and_accepted(capsys, tmp_path,
                                                                  hamming_builds):
    # H(3,2) x H(3,2) flattens exactly like H(6,2), so the file is accepted
    graph = write(tmp_path, "h62.json", h(6))
    coloring = write(tmp_path, "col.json",
                     vertex_coloring({"gen": "product", "left": h(3), "right": h(3)}, 6))
    code, _, _ = run(capsys, "distrib", "vertex", "--graph", graph, "--coloring", coloring,
                     "--color", "0")
    assert code == 0
    # the file's spec is built once more, its two equal factors once
    assert hamming_builds == [(6, 2), (3, 2)]


def test_fiber_over_one_factor_spec_builds_it_once(capsys, tmp_path, hamming_builds):
    h3 = write(tmp_path, "h3.json", h(3))
    coloring = write(tmp_path, "col.json",
                     vertex_coloring({"gen": "product", "left": h(3), "right": h(3)}, 6))
    code, out, _ = run(capsys, "distrib", "fiber", "--left", h3, "--right", h3,
                       "--coloring", coloring, "--verify-oracle")
    assert code == 0 and json.loads(out)["rows"][0] == ["1", "3", "3", "1", "0", "0", "0"]
    assert hamming_builds == [(3, 2)]


def test_graph_free_fiber_over_one_edge_list_builds_it_once(capsys, tmp_path,
                                                            edge_list_builds):
    cycle = write(tmp_path, "c4.json", {"n_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3],
                                                                    [3, 0]]})
    code, out, _ = run(capsys, "distrib", "fiber", "--left", cycle, "--right", cycle,
                       "--s", write(tmp_path, "s.json", [[4]]), "--f0", "[1]")
    assert code == 0 and json.loads(out)["rows"] == [["1"], ["2"], ["1"]]
    assert edge_list_builds == [4]


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


# -- one JSON reader: files and row arguments ---------------------------------------

DEEP = "[" * 100_000 + "]" * 100_000


def json_option_argv(tmp_path, option, bad):
    """An argv that reads ``bad`` (a path, or the text of --f0) as ``option``,
    every other input valid."""
    graph = write(tmp_path, "h3.json", h(3))
    one = write(tmp_path, "one.json", [[1]])
    lattice = ["distrib", "lattice", "-m", "1", "-k", "1", "-q", "2"]
    return {
        "--graph": ["crc-check", "--graph", bad, "--code", write(tmp_path, "c.json", [0])],
        "--s": [*lattice, "--s", bad, "--f0", "[1]"],
        "--coloring": ["quotient", "--graph", graph, "--coloring", bad],
        "--code": ["crc-check", "--graph", graph, "--code", bad],
        "--f0": [*lattice, "--s", one, "--f0", bad],
    }[option]


@pytest.mark.parametrize("option,fault", [
    *((option, fault) for option in ("--graph", "--s", "--coloring", "--code")
      for fault in ("non-utf-8", "nested")),
    ("--f0", "nested"),
])
def test_unreadable_json_exits_1_naming_the_input(capsys, tmp_path, option, fault):
    if option == "--f0":
        bad = DEEP
    else:
        path = tmp_path / "bad.json"
        if fault == "nested":
            path.write_text(DEEP)
        else:
            path.write_bytes(b'{"gen": "hamming", "n": 3, "q": 2, "x": "\xff\xfe"}')
        bad = str(path)
    code, out, err = run(capsys, *json_option_argv(tmp_path, option, bad))
    assert code == 1 and out == ""
    named = "--f0" if option == "--f0" else bad
    assert err.startswith(f"error: {named} is not valid JSON: ")


# -- exact numbers of any length ----------------------------------------------------


def test_rows_past_the_int_digit_limit_print_and_read_back(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    s = write(tmp_path, "s.json", [["10000000000"]])
    code, out, err = run(capsys, "distrib", "lattice", "-m", "1", "-k", "600", "-q", "2",
                         "--s", s, "--f0", "[1]")
    assert code == 0, err
    longest = max((row[0] for row in json.loads(out)["rows"]), key=len)
    assert len(longest) > 4300
    one = write(tmp_path, "one.json", [[1]])
    lattice = ["distrib", "lattice", "-m", "1", "-k", "1", "-q", "2", "--s", one]
    # as a JSON integer literal and as a string
    for f0 in (f"[{longest}]", json.dumps([longest])):
        code, out, err = run(capsys, *lattice, "--f0", f0)
        assert code == 0, err
        assert json.loads(out) == {"rows": [[longest], [longest]]}
    # the interpreter's own limit is back after each run
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# -- a closed stdout ---------------------------------------------------------------


def test_closed_stdout_exits_1_with_an_error(tmp_path):
    # 1.4 MB of rows, far past what a pipe buffers
    s = write(tmp_path, "s.json", [["10000000000"]])
    proc = subprocess.Popen(
        [sys.executable, "-m", "eqpart.cli", "distrib", "lattice", "-m", "1", "-k", "600",
         "-q", "2", "--s", s, "--f0", "[1]"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err.startswith("error: ") and "Traceback" not in err


# -- one first-row check in every mode ----------------------------------------------


@pytest.mark.parametrize("mode", ["lattice", "fiber", "pcube", "code", "local reconstruct"])
def test_wrong_width_row_has_one_message_in_every_mode(capsys, tmp_path, mode):
    s = write(tmp_path, "s.json", [[0, 1], [1, 0]])
    h1, h3 = write(tmp_path, "h1.json", h(1)), write(tmp_path, "h3.json", h(3))
    row = ["--s", s, "--f0", "[1]"]
    argv = {
        "lattice": ["distrib", "lattice", "-m", "1", "-k", "1", "-q", "2", *row],
        "fiber": ["distrib", "fiber", "--left", h1, "--right", h1, *row],
        "pcube": ["distrib", "pcube", "-n", "1", "-p", "1", "-q", "2", *row],
        "code": ["distrib", "code", "--graph", h3,
                 "--code", write(tmp_path, "code.json", [0, 7]), *row],
        "local reconstruct": ["local", "reconstruct", "--graph", h1,
                              "--right-s", write(tmp_path, "r2.json", [[1]]),
                              "--s", s, "--h0", "[1]"],
    }[mode]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: row of shape (1, 1) does not fit (2, 2)\n"
