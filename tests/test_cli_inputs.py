"""Input boundaries of the CLI: each graph built once, integer vertex and
colour values, and rationals written only as integers or "p/q".

Every malformed value ends in ``error: ...`` and exit code 1, never in a
traceback (an exception escaping ``main`` fails these tests).
"""
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart import drg, equitable, graphs, localdist
from eqpart.cli import main
from eqpart.errors import EqpartError, ShapeError
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
    s = equitable.PerfectStructure(graphs.hamming_graph(5, 2),
                                          equitable.distance_coloring(graphs.hamming_graph(5, 2),
                                                                      [0]))
    other = graphs.hamming_graph(5, 4)
    f = equitable.PerfectStructure(other, equitable.all_one_coloring(other))
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


@pytest.mark.parametrize("mode", ["vertex", "lattice", "fiber", "pcube"])
def test_a_non_square_s_has_the_kernels_message_in_every_mode(capsys, tmp_path, mode):
    s = write(tmp_path, "s.json", [[0, 1, 0], [1, 0, 1]])
    h1 = write(tmp_path, "h1.json", h(1))
    row = ["--s", s, "--f0", "[1, 0]"]
    argv = {
        "vertex": ["distrib", "vertex", "--graph", h1, "--s", s, "--color", "0"],
        "lattice": ["distrib", "lattice", "-m", "1", "-k", "1", "-q", "2", *row],
        "fiber": ["distrib", "fiber", "--left", h1, "--right", h1, *row],
        "pcube": ["distrib", "pcube", "-n", "1", "-p", "1", "-q", "2", *row],
    }[mode]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: the recurrence needs a square matrix, got (2, 3)\n"


# -- fuzzed JSON in every file option ------------------------------------------------

# "@name" is a valid file of FUZZ_FILES; one of them is replaced by fuzzed JSON
FUZZ_COMMANDS = [
    ["gen", "product", "--left", "@G", "--right", "@G1"],
    ["quotient", "--graph", "@G", "--coloring", "@C"],
    ["verify", "--structure", "@T"],
    ["crc-check", "--graph", "@G", "--code", "@K"],
    ["distrib", "vertex", "--graph", "@G", "--color", "0", "--coloring", "@C", "--verify-oracle"],
    ["distrib", "vertex", "--graph", "@G", "--color", "0", "--structure", "@T", "--verify-oracle"],
    ["distrib", "vertex", "--graph", "@G", "--color", "0", "--s", "@S"],
    ["distrib", "code", "--graph", "@G", "--code", "@K", "--coloring", "@C", "--verify-oracle"],
    ["distrib", "code", "--graph", "@G", "--code", "@K", "--structure", "@T"],
    ["distrib", "code", "--graph", "@G", "--code", "@K", "--s", "@S", "--f0", "[1, 0, 0, 0]"],
    ["distrib", "lattice", "-m", "3", "-k", "1", "-q", "2", "--coloring", "@C", "--verify-oracle"],
    ["distrib", "lattice", "-m", "3", "-k", "1", "-q", "2", "--s", "@S", "--f0", "[1, 0, 0, 0]"],
    ["distrib", "fiber", "--left", "@G1", "--right", "@G", "--s", "@S", "--f0", "[1, 0, 0, 0]"],
    ["distrib", "pcube", "-n", "3", "-p", "1", "-q", "2", "--structure", "@T", "--verify-oracle"],
    ["local", "params", "--left", "@C2", "--right", "@S"],
    ["local", "distrib", "--left", "@C2", "--right", "@C2", "--coloring", "@CC"],
    ["local", "distrib", "--left", "@C2", "--right", "@C2", "--structure", "@TT"],
    ["local", "reconstruct", "--graph", "@G", "--right-s", "@S1", "--s", "@S1", "--h0", "[1]"],
    ["oracle", "--graph", "@G", "--code", "@K", "--coloring", "@C"],
    ["oracle", "--graph", "@G", "--code", "@K", "--structure", "@T"],
]
H2H2 = {"gen": "product", "left": h(2), "right": h(2)}
FUZZ_FILES = {
    "G": h(3), "G1": h(1), "K": [0], "S1": [[1]],
    "S": [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]],
    "C": vertex_coloring(h(3), 3), "C2": vertex_coloring(h(2), 2),
    "CC": vertex_coloring(H2H2, 4),
    "T": {"graph": h(3), "f": [[1]] * 8, "s": [[3]]},
    # the constant and the weight function of the 4-cube: A f = f S
    "TT": {"graph": H2H2, "f": [[1, bin(v).count("1")] for v in range(16)],
           "s": [[4, 4], [0, 2]]},
}
LEAVES = (st.none() | st.booleans() | st.integers(-2, 9) | st.integers(-10**30, 10**30)
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
          | st.sampled_from(["1/2", "-3", "1/0", "hamming", "johnson", "halved", "product",
                             "even"]))
KEYS = st.sampled_from(["gen", "n", "q", "k", "sign", "left", "right", "graph", "matrix",
                        "colors", "f", "s", "params", "R", "vertices", "n_vertices", "edges",
                        "labels"]) | st.text(max_size=2)
FUZZ_JSON = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=20)


@st.composite
def mutated(draw, doc):
    """``doc`` with one subtree, or the whole of it, replaced by fuzzed JSON."""
    if isinstance(doc, (list, dict)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        copy[key] = draw(mutated(doc[key]))
        return copy
    return draw(FUZZ_JSON)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_FILES.items():
        write(directory, f"{name}.json", doc)
    return directory


def test_every_fuzz_command_succeeds_on_its_valid_files(fuzz_dir):
    for argv in FUZZ_COMMANDS:
        argv = [str(fuzz_dir / f"{t[1:]}.json") if t.startswith("@") else t for t in argv]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_json_in_any_file_option_ends_in_one_error_line(fuzz_dir, data):
    """Each run ends in exit 1 with one ``error:`` line or exit 2 with a
    usage message, unless it prints a result: where the fuzzed file happens
    to be valid (exit 0), or a structure that ``verify`` finds failing (exit
    1).  An exception escaping ``main`` fails the test."""
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS), label="argv")
    at = data.draw(st.sampled_from([i for i, t in enumerate(argv) if t.startswith("@")]),
                   label="option")
    fuzz = fuzz_dir / "fuzz.json"
    fuzz.write_text(json.dumps(data.draw(mutated(FUZZ_FILES[argv[at][1:]]), label="doc")))
    argv = [str(fuzz) if i == at else str(fuzz_dir / f"{t[1:]}.json") if t.startswith("@")
            else t for i, t in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*argv, "--vertex-budget", "64"])
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    if not err:
        result = json.loads(out.getvalue())
        assert code == 0 or (argv[0], code, result["ok"]) == ("verify", 1, False)
    else:
        assert code in (1, 2) and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("error: " if code == 1 else "usage: ")


# -- one check per input: the same message on every route ---------------------------

# kind -> route -> argv, where "@bad" is the faulty graph spec or code file and
# "{0}"-style tokens are the faulty flags; every other "@name" is a valid file
# of FUZZ_FILES
ROUTES = {
    "graph": {
        "--s": ["distrib", "vertex", "--graph", "@bad", "--s", "@S", "--color", "0"],
        "--coloring": ["distrib", "vertex", "--graph", "@G", "--coloring", "@bad_coloring",
                       "--color", "0"],
        "--verify-oracle": ["distrib", "vertex", "--graph", "@bad", "--coloring", "@C",
                            "--color", "0", "--verify-oracle"],
        "quotient": ["quotient", "--graph", "@bad", "--coloring", "@C"],
        "crc-check": ["crc-check", "--graph", "@bad", "--code", "@K"],
        "oracle": ["oracle", "--graph", "@bad", "--code", "@K", "--coloring", "@C"],
        "distrib fiber": ["distrib", "fiber", "--left", "@G1", "--right", "@bad", "--s", "@S",
                          "--f0", "[1, 0, 0, 0]"],
        "local reconstruct": ["local", "reconstruct", "--graph", "@bad", "--right-s", "@S1",
                              "--s", "@S1", "--h0", "[1]"],
    },
    "lattice": {
        "--s": ["-m", "{0}", "-k", "{1}", "-q", "{2}", "--s", "@S1", "--f0", "[1]"],
        "--coloring": ["-m", "{0}", "-k", "{1}", "-q", "{2}", "--coloring", "@C"],
        "--structure": ["-m", "{0}", "-k", "{1}", "-q", "{2}", "--structure", "@T"],
        "--verify-oracle": ["-m", "{0}", "-k", "{1}", "-q", "{2}", "--coloring", "@C",
                            "--verify-oracle"],
    },
    "code": {
        "--s": ["distrib", "code", "--graph", "@G", "--code", "@bad", "--s", "@S",
                "--f0", "[1, 0, 0, 0]"],
        "--coloring": ["distrib", "code", "--graph", "@G", "--code", "@bad", "--coloring", "@C"],
        "--structure": ["distrib", "code", "--graph", "@G", "--code", "@bad", "--structure", "@T"],
        "--verify-oracle": ["distrib", "code", "--graph", "@G", "--code", "@bad",
                            "--coloring", "@C", "--verify-oracle"],
        "crc-check": ["crc-check", "--graph", "@G", "--code", "@bad"],
        "oracle": ["oracle", "--graph", "@G", "--code", "@bad", "--coloring", "@C"],
    },
}
ROUTES["pcube"] = {
    route: [{"-m": "-n", "-k": "-p"}.get(t, t) for t in argv]
    for route, argv in ROUTES["lattice"].items()
}

# fault -> (kind, the faulty input, the one error line every route prints)
FAULTS = {
    "hamming n=0": ("graph", h(0), "hamming graph needs n >= 1, got 0"),
    "hamming q=1": ("graph", h(3, 1), "hamming graph needs q >= 2, got 1"),
    "johnson k>n": ("graph", {"gen": "johnson", "n": 3, "k": 4},
                    "johnson graph needs 0 <= k <= n, got k=4, n=3"),
    "halved n=1": ("graph", {"gen": "halved", "n": 1}, "halved cube needs n >= 2, got 1"),
    "halved sign x": ("graph", {"gen": "halved", "n": 4, "sign": "x"},
                      "halved cube sign must be 'even' or 'odd', got 'x'"),
    "lattice m=0": ("lattice", (0, 1, 2), "needs m, k >= 1 and q >= 2, got m=0, k=1, q=2"),
    "lattice k=0": ("lattice", (1, 0, 2), "needs m, k >= 1 and q >= 2, got m=1, k=0, q=2"),
    "lattice q=1": ("lattice", (3, 1, 1), "needs m, k >= 1 and q >= 2, got m=3, k=1, q=1"),
    "pcube n=0": ("pcube", (0, 1, 2), "needs n >= 1 and 1 <= p < q, got n=0, p=1, q=2"),
    "pcube q=1": ("pcube", (3, 1, 1), "needs n >= 1 and 1 <= p < q, got n=3, p=1, q=1"),
    "pcube p=0": ("pcube", (3, 0, 2), "needs n >= 1 and 1 <= p < q, got n=3, p=0, q=2"),
    "pcube p=q": ("pcube", (3, 2, 2), "needs n >= 1 and 1 <= p < q, got n=3, p=2, q=2"),
    "code vertex -1": ("code", [0, -1], "source vertex -1 out of range"),
    "code vertex N": ("code", [8], "source vertex 8 out of range"),
    # two faults: the first in the file's order, whichever route reads it
    "code vertices -1, N": ("code", [-1, 8], "source vertex -1 out of range"),
}
FAULT_CELLS = [(fault, route) for fault, (kind, _, _) in FAULTS.items() for route in ROUTES[kind]]


def fault_argv(tmp_path, fault, route):
    kind, bad, _ = FAULTS[fault]
    files = {**FUZZ_FILES, "bad": bad, "bad_coloring": {"graph": bad, "colors": [0] * 8}}
    argv = ROUTES[kind][route]
    if kind in ("lattice", "pcube"):
        argv = ["distrib", kind, *(t.format(*bad) for t in argv)]
    return [write(tmp_path, f"{t[1:]}.json", files[t[1:]]) if t.startswith("@") else t
            for t in argv]


@pytest.mark.parametrize("fault,route", FAULT_CELLS)
def test_a_bad_input_prints_one_message_on_every_route(capsys, tmp_path, fault, route):
    code, out, err = run(capsys, *fault_argv(tmp_path, fault, route))
    assert (code, out, err) == (1, "", f"error: {FAULTS[fault][2]}\n")


LIBRARY_CALLS = [
    ("hamming n=0", graphs.hamming_graph, (0, 2)),
    ("hamming n=0", drg.hamming_intersection_array, (0, 2)),
    ("hamming q=1", graphs.hamming_graph, (3, 1)),
    ("hamming q=1", drg.hamming_intersection_array, (3, 1)),
    ("johnson k>n", graphs.johnson_graph, (3, 4)),
    ("johnson k>n", drg.johnson_intersection_array, (3, 4)),
    ("halved n=1", graphs.halved_cube, (1,)),
    ("halved n=1", drg.halved_cube_intersection_array, (1,)),
    ("halved sign x", graphs.halved_cube, (4, "x")),
    ("lattice m=0", equitable.lattice_coloring, (0, 1, 2)),
    ("lattice q=1", equitable.lattice_coloring, (3, 1, 1)),
    ("code vertex -1", graphs.bfs_distances, (graphs.hamming_graph(3, 2), [0, -1])),
]


@pytest.mark.parametrize("fault,function,args", LIBRARY_CALLS,
                         ids=[f"{fn.__name__}-{fault}" for fault, fn, _ in LIBRARY_CALLS])
def test_the_library_raises_the_message_of_every_route(fault, function, args):
    with pytest.raises(EqpartError) as exc:
        function(*args)
    assert str(exc.value) == FAULTS[fault][2]


# -- generated faults in every file and JSON argument ----------------------------------

# JSON values of every type but the one a node holds; a string is letters only,
# so that it is no rational either
SCALARS = (st.none() | st.booleans() | st.integers(-9, 9)
           | st.floats(allow_nan=False, allow_infinity=False) | st.text("abcxyz", max_size=3))
OTHER_TYPE = {
    dict: SCALARS,
    list: SCALARS | st.just({"x": 1}),
    int: st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text("abcxyz", max_size=3) | st.just([]) | st.just([1]) | st.just({"x": 1}),
    str: st.none() | st.booleans() | st.integers(-9, 9) | st.just([]) | st.just({"x": 1}),
}
# files, and keys, whose integers are matrix entries: any integer is one
MATRIX_FILES, MATRIX_KEYS = {"S", "S1"}, {"f", "s"}


def subtrees(doc, path=(), in_matrix=False):
    """(path, node, whether it lies in a matrix) for ``doc`` and each subtree."""
    yield path, doc, in_matrix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, child in children:
        yield from subtrees(child, (*path, key), in_matrix or key in MATRIX_KEYS)


def replaced(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def faulty(draw, doc, in_matrix):
    """(fault, doc or the bytes of its text) for the valid ``doc``, with one
    fault that no reader accepts: non-UTF-8 bytes, a node of a wrong type, a
    missing key, a negative count (a size, colour or vertex; not a matrix
    entry) or a huge colour or vertex, a ragged matrix, or an empty array.
    A huge graph size is no fault: a closed form builds no graph."""
    nodes = list(subtrees(doc, in_matrix=in_matrix))
    faults = ["non-utf-8", "wrong type"]
    dicts = [(path, node) for path, node, _ in nodes if isinstance(node, dict) and node]
    faults += ["missing key"] * bool(dicts)
    counts = [path for path, node, m in nodes if type(node) is int and not m]
    faults += ["huge or negative"] * bool(counts)
    entries = [path for path in counts if isinstance(path[-1], int)]  # colours and vertices
    matrices = [path for path, node, m in nodes if m and isinstance(node, list) and len(node) > 1
                and all(isinstance(row, list) for row in node)]
    rows = [(path, node) for path, node, _ in nodes if path and path[:-1] in matrices]
    faults += ["ragged"] * bool(rows)
    faults += ["empty array"] * any(isinstance(node, list) for _, node, _ in nodes)
    fault = draw(st.sampled_from(faults))
    if fault == "non-utf-8":
        text = json.dumps(doc).encode()
        at = draw(st.integers(0, len(text)))
        return fault, text[:at] + b"\xff" + text[at:]
    if fault == "wrong type":
        path, node, _ = draw(st.sampled_from(nodes))
        return fault, replaced(doc, path, draw(OTHER_TYPE[type(node)]))
    if fault == "missing key":
        path, node = draw(st.sampled_from(dicts))
        key = draw(st.sampled_from(sorted(node)))
        return fault, replaced(doc, path, {k: v for k, v in node.items() if k != key})
    if fault == "huge or negative":
        path = draw(st.sampled_from(counts))
        huge = st.integers(10**3, 10**30) if path in entries else st.nothing()
        return fault, replaced(doc, path, draw(st.integers(-10**30, -1) | huge))
    if fault == "ragged":
        path, row = draw(st.sampled_from(rows))
        return fault, replaced(doc, path, [*row, 0])
    path = draw(st.sampled_from([p for p, node, _ in nodes if isinstance(node, list)]))
    return fault, replaced(doc, path, [])


JSON_ARGS = ("--f0", "--h0")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_faulty_file_or_json_argument_ends_in_exit_1_or_2(fuzz_dir, data):
    """Every file and JSON argument of every subcommand, given generated
    input with a fault, ends in one ``error:`` line and exit 1, or a usage
    message and exit 2, with nothing on stdout; an exception escaping
    ``main`` fails the test."""
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS), label="argv")
    inputs = [i for i, t in enumerate(argv) if t.startswith("@") or argv[i - 1] in JSON_ARGS]
    at = data.draw(st.sampled_from(inputs), label="input")
    if argv[at - 1] in JSON_ARGS:
        fault, bad = data.draw(faulty(json.loads(argv[at]), True), label="fault")
        bad = bad.decode("utf-8", "surrogateescape") if isinstance(bad, bytes) else json.dumps(bad)
    else:
        name = argv[at][1:]
        fault, bad = data.draw(faulty(FUZZ_FILES[name], name in MATRIX_FILES), label="fault")
        path = fuzz_dir / "faulty.json"
        path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
        bad = str(path)
    argv = [bad if i == at else str(fuzz_dir / f"{t[1:]}.json") if t.startswith("@") else t
            for i, t in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*argv, "--vertex-budget", "64"])
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (1, 2) and out.getvalue() == "", (fault, argv)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:  # a JSON argument that starts with "-" reads as an option
        assert err.startswith("usage: ") and "Traceback" not in err
