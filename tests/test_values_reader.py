"""The CLI's one reader of values files (--coloring, --structure).

A coloring file stays its colours from the file to the oracle: S comes from
one neighbour-count scan, f0 and the oracle count colours, and no N x k
indicator matrix is built, ``local distrib`` included, whose structures
hold colorings as their values and take S from that one scan.  Also here:
code files are vertex sets, --coloring and --structure exclude each other,
colour indices are bounded before anything is allocated, a structure's
coloring must be over its host, and a graph spec is read once per build.
"""
import io
import json
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart import drg, equitable, graphs, inputs
from eqpart.cli import main
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    coloring_from_list,
    distance_coloring,
)
from eqpart.errors import EqpartError, ShapeError, StructureError
from eqpart.graphs import hamming_graph, load_graph, read_spec
from eqpart.ratmat import RatMatrix


def write(directory, name, doc):
    path = os.path.join(str(directory), name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ham(n):
    return {"gen": "hamming", "n": n, "q": 2}


def weights(n):
    return [bin(v).count("1") for v in range(2**n)]


@pytest.fixture
def files(tmp_path):
    """Graph, weight-coloring, code and structure files over small cubes."""
    product = {"gen": "product", "left": ham(2), "right": ham(2)}
    return {
        "h3": write(tmp_path, "h3.json", ham(3)),
        "h4": write(tmp_path, "h4.json", ham(4)),
        "w2": write(tmp_path, "w2.json", {"graph": ham(2), "colors": weights(2)}),
        "w3": write(tmp_path, "w3.json", {"graph": ham(3), "colors": weights(3)}),
        "w4": write(tmp_path, "w4.json", {"graph": ham(4), "colors": weights(4)}),
        "w2w2": write(tmp_path, "w2w2.json", {"graph": product, "colors": weights(4)}),
        "ones3": write(tmp_path, "ones3.json", {"graph": ham(3), "f": [[1]] * 8, "s": [[3]]}),
        "ones2w2": write(tmp_path, "ones2w2.json", {"graph": product, "f": [[1]] * 16, "s": [[4]]}),
        "code0": write(tmp_path, "code0.json", [0]),
        "code07": write(tmp_path, "code07.json", [0, 7]),
        "code070": write(tmp_path, "code070.json", [0, 7, 0]),
        "code_h4": write(tmp_path, "code_h4.json", [0, 15]),
    }


# -- one scan, no indicator, no unit_columns --------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of neighbour-count scans, indicator builds and unit_columns
    decodes, over every call that reaches them."""
    counts = {"scans": 0, "indicators": 0, "unit_columns": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(equitable, "_quotient_rows",
                        counting("scans", equitable._quotient_rows))
    monkeypatch.setattr(Coloring, "indicator", counting("indicators", Coloring.indicator))
    monkeypatch.setattr(RatMatrix, "unit_columns",
                        counting("unit_columns", RatMatrix.unit_columns))
    return counts


@pytest.mark.parametrize("argv, expect", [
    (["distrib", "vertex", "--graph", "h4", "--coloring", "w4", "--color", "0",
      "--verify-oracle"], (1, 0, 0)),
    (["distrib", "code", "--graph", "h4", "--code", "code_h4", "--coloring", "w4",
      "--verify-oracle"], (2, 0, 0)),
    (["oracle", "--graph", "h4", "--code", "code_h4", "--coloring", "w4"], (1, 0, 0)),
    (["quotient", "--graph", "h4", "--coloring", "w4"], (1, 0, 0)),
])
def test_a_coloring_file_is_scanned_once_and_never_turned_into_a_matrix(
        capsys, files, kernel_calls, argv, expect):
    code, out, err = run(capsys, *(files.get(token, token) for token in argv))
    assert (code, err) == (0, "")
    assert (kernel_calls["scans"], kernel_calls["indicators"],
            kernel_calls["unit_columns"]) == expect


def test_local_distrib_builds_structures_from_three_colorings_at_most_once_each(
        capsys, files, kernel_calls):
    code, _, err = run(capsys, "local", "distrib", "--left", files["w2"], "--right", files["w2"],
                       "--coloring", files["w2w2"])
    assert (code, err) == (0, "")
    assert (kernel_calls["scans"], kernel_calls["indicators"]) == (3, 0)


def weight_structure(n):
    """The weight coloring of H(n,2) as a structure file: unit rows and the
    tridiagonal quotient matrix."""
    s = [[w if j == w - 1 else n - w if j == w + 1 else 0 for j in range(n + 1)]
         for w in range(n + 1)]
    return {"f": [[int(c == j) for j in range(n + 1)] for c in weights(n)], "s": s}


def test_local_distrib_reads_each_colorings_colours_from_the_coloring(
        capsys, tmp_path, kernel_calls, monkeypatch):
    kernel_calls["product_rows"] = 0
    original = graphs._product_rows

    def counting(*args):
        kernel_calls["product_rows"] += 1
        return original(*args)

    monkeypatch.setattr(graphs, "_product_rows", counting)
    product = {"gen": "product", "left": ham(5), "right": ham(5)}
    w5 = write(tmp_path, "w5.json", {"graph": ham(5), "colors": weights(5)})
    w5w5 = write(tmp_path, "w5w5.json", {"graph": product, "colors": weights(10)})
    code, by_coloring, err = run(capsys, "local", "distrib", "--left", w5, "--right", w5,
                                 "--coloring", w5w5)
    assert (code, err) == (0, "")
    # one scan per coloring, which gives its S and proves it equitable, and
    # no indicator or decode; the product rows are read to build the product
    # graph and to compare it with the factors'
    assert kernel_calls == {"scans": 3, "indicators": 0, "unit_columns": 0, "product_rows": 2}
    # a structure file's unit rows are decoded once, where the file is read,
    # into the Coloring that the scan verifies and the pair counts read
    unit = write(tmp_path, "unit.json", {"graph": product, **weight_structure(10)})
    kernel_calls.update(scans=0, indicators=0, unit_columns=0, product_rows=0)
    code, by_structure, err = run(capsys, "local", "distrib", "--left", w5, "--right", w5,
                                  "--structure", unit)
    assert (code, err, by_structure) == (0, "", by_coloring)
    assert kernel_calls == {"scans": 3, "indicators": 0, "unit_columns": 1, "product_rows": 2}


def test_the_coloring_route_prints_what_the_indicator_structure_prints(capsys, files, tmp_path):
    s = [[0, 4, 0, 0, 0], [1, 0, 3, 0, 0], [0, 2, 0, 2, 0], [0, 0, 3, 0, 1], [0, 0, 0, 4, 0]]
    unit = write(tmp_path, "unit.json", {
        "graph": ham(4), "f": [[int(c == j) for j in range(5)] for c in weights(4)], "s": s})
    for argv in (["distrib", "vertex", "--graph", files["h4"], "--color", "2", "--verify-oracle"],
                 ["distrib", "code", "--graph", files["h4"], "--code", files["code_h4"],
                  "--verify-oracle"],
                 ["oracle", "--graph", files["h4"], "--code", files["code_h4"]]):
        by_coloring = run(capsys, *argv, "--coloring", files["w4"])
        by_structure = run(capsys, *argv, "--structure", unit)
        assert by_coloring == by_structure
        assert by_coloring[0] == 0


def test_a_01_file_with_an_unused_column_stays_a_matrix_structure(capsys, files, tmp_path):
    """A Coloring has no empty class, so a fifth colour that no vertex has
    keeps the values a matrix; every command prints what it printed when
    colours were decoded from any unit rows."""
    doc = {"graph": ham(3), "f": [[int(c == j) for j in range(5)] for c in weights(3)],
           "s": [[0, 3, 0, 0, 0], [1, 0, 2, 0, 0], [0, 2, 0, 1, 0], [0, 0, 3, 0, 0],
                 [0, 0, 0, 0, 0]]}
    assert isinstance(equitable.read_structure(doc)[1], RatMatrix)
    full = {"graph": ham(3), **weight_structure(3)}
    assert equitable.read_structure(full)[1] == Coloring(hamming_graph(3, 2), tuple(weights(3)), 4)
    unused = write(tmp_path, "unused.json", doc)
    rows = ('{"rows": [["1", "0", "0", "0", "0"], ["0", "3", "0", "0", "0"], '
            '["0", "0", "3", "0", "0"], ["0", "0", "0", "1", "0"]]}\n')
    zeros = ", ".join(['["0", "0", "0", "0", "0"]'] * 8)
    for argv, out in [
        (["verify", "--structure", unused], f'{{"ok": true, "residual": [{zeros}]}}\n'),
        (["oracle", "--graph", files["h3"], "--code", files["code0"], "--structure", unused],
         rows),
        (["distrib", "code", "--graph", files["h3"], "--code", files["code0"],
          "--structure", unused, "--verify-oracle"], rows),
        (["distrib", "vertex", "--graph", files["h3"], "--structure", unused, "--color", "0",
          "--verify-oracle"], rows),
    ]:
        assert run(capsys, *argv) == (0, out, "")


def test_vertex_verify_oracle_starts_at_the_first_row_equal_to_e_color(capsys, files, tmp_path):
    """Matrix values need not be 0/1: the oracle sums from the first vertex
    whose row is e_color, and without one the message is unchanged."""
    eigen = write(tmp_path, "eigen.json", {
        "graph": ham(3), "f": [[(-1) ** w] for w in weights(3)], "s": [[-3]]})
    mixed = write(tmp_path, "mixed.json", {
        "graph": ham(3), "f": [[1, w] for w in weights(3)], "s": [[3, 3], [0, 1]]})
    argv = ["distrib", "vertex", "--graph", files["h3"], "--verify-oracle", "--color"]
    assert (run(capsys, *argv, "0", "--structure", eigen)
            == (0, '{"rows": [["1"], ["-3"], ["3"], ["-1"]]}\n', ""))
    assert run(capsys, *argv, "0", "--structure", mixed)[0] == 0
    assert run(capsys, *argv, "1", "--structure", mixed) == (
        1, "", "error: --verify-oracle for a vertex needs 0/1 values with a vertex of color 1\n")


def run_quiet(argv):
    """``main`` with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SMALL_GRAPHS = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(2, 3)).map(
        lambda nq: {"gen": "hamming", "n": nq[0], "q": nq[1]}),
    st.integers(3, 6).flatmap(lambda n: st.integers(1, n - 1).map(
        lambda k: {"gen": "johnson", "n": n, "k": k})),
    st.integers(2, 5).map(lambda n: {"gen": "halved", "n": n}),
)


@settings(max_examples=50, deadline=None, database=None)
@given(spec=SMALL_GRAPHS, data=st.data())
def test_a_coloring_file_and_its_01_structure_file_print_the_same(spec, data):
    """The distance coloring of a vertex, relabelled, and the structure file
    of its unit rows and quotient matrix give the same bytes and exit codes
    in every command that reads values; so does their pair coloring over the
    graph times itself."""
    g = load_graph(spec)
    vertex = data.draw(st.integers(0, g.n - 1), label="vertex")
    dist = distance_coloring(g, [vertex])
    k = dist.n_colors
    relabel = data.draw(st.permutations(range(k)), label="relabel")
    col = Coloring(g, tuple(relabel[c] for c in dist.colors), k)
    color = data.draw(st.integers(0, k - 1), label="color")
    s = equitable.quotient_matrix(g, col)
    pairs = [c1 * k + c2 for c1 in col.colors for c2 in col.colors]
    product = {"gen": "product", "left": spec, "right": spec}

    def unit_rows(colors, width):
        return [[int(c == j) for j in range(width)] for c in colors]

    with tempfile.TemporaryDirectory() as tmp:
        graph = write(tmp, "g.json", spec)
        code = write(tmp, "code.json", [vertex])
        coloring = write(tmp, "c.json", {"graph": spec, "colors": list(col.colors)})
        structure = write(tmp, "f.json", {"graph": spec, "f": unit_rows(col.colors, k),
                                          "s": s.to_strings()})
        pair_coloring = write(tmp, "cc.json", {"graph": product, "colors": pairs})
        pair_structure = write(tmp, "ff.json", {
            "graph": product, "f": unit_rows(pairs, k * k),
            "s": equitable.tensor_params(s, s).to_strings()})
        for argv, by_coloring, by_structure in [
            (["distrib", "vertex", "--graph", graph, "--color", str(color), "--verify-oracle"],
             coloring, structure),
            (["distrib", "code", "--graph", graph, "--code", code, "--verify-oracle"],
             coloring, structure),
            (["oracle", "--graph", graph, "--code", code], coloring, structure),
            (["local", "distrib", "--left", coloring, "--right", coloring],
             pair_coloring, pair_structure),
        ]:
            expect = run_quiet([*argv, "--coloring", by_coloring])
            assert expect[0] == 0
            assert run_quiet([*argv, "--structure", by_structure]) == expect
        code, out, err = run_quiet(["verify", "--structure", structure])
        assert (code, json.loads(out)["ok"], err) == (0, True, "")


# -- code files are vertex sets ---------------------------------------------


@pytest.mark.parametrize("extra", [[], ["--verify-oracle"]])
def test_a_vertex_listed_twice_in_a_code_file_counts_once(capsys, files, extra):
    argv = ["distrib", "code", "--graph", files["h3"], "--coloring", files["w3"], *extra]
    twice = run(capsys, *argv, "--code", files["code070"])
    once = run(capsys, *argv, "--code", files["code07"])
    assert twice == once
    assert json.loads(twice[1])["rows"][0] == ["1", "0", "0", "1"]


@pytest.mark.parametrize("argv", [
    ["crc-check", "--graph", "h3"],
    ["oracle", "--graph", "h3", "--coloring", "w3"],
])
def test_crc_check_and_oracle_read_a_code_as_a_set_as_before(capsys, files, argv):
    argv = [files.get(token, token) for token in argv]
    assert (run(capsys, *argv, "--code", files["code070"])
            == run(capsys, *argv, "--code", files["code07"]))


@pytest.mark.parametrize("values", ["--coloring", "--structure"])
@pytest.mark.parametrize("vertices", [[0, 99], [-1, 0], [8]])
def test_a_code_vertex_out_of_range_ends_in_an_error_before_f0_is_summed(
        capsys, files, tmp_path, values, vertices):
    code_file = write(tmp_path, "code_out.json", vertices)
    values_file = files["w3"] if values == "--coloring" else write(
        tmp_path, "unit3.json", {"graph": ham(3), **weight_structure(3)})
    code, out, err = run(capsys, "distrib", "code", "--graph", files["h3"], "--code", code_file,
                         values, values_file)
    assert (code, out) == (1, "")
    bad = next(v for v in vertices if not 0 <= v < 8)
    assert err == f"error: source vertex {bad} out of range\n"


# -- --coloring excludes --structure ----------------------------------------


@pytest.mark.parametrize("argv", [
    ["distrib", "vertex", "--graph", "h3", "--color", "0", "--coloring", "w3",
     "--structure", "ones3"],
    ["oracle", "--graph", "h3", "--code", "code0", "--coloring", "w3", "--structure", "ones3"],
    ["local", "distrib", "--left", "w2", "--right", "w2", "--coloring", "w2w2",
     "--structure", "ones2w2"],
])
def test_coloring_and_structure_together_end_in_an_error(capsys, files, argv):
    code, out, err = run(capsys, *(files.get(token, token) for token in argv))
    assert (code, out) == (1, "")
    assert err == "error: give --coloring or --structure, not both\n"


# -- colour indices are bounded before any allocation -----------------------


@pytest.mark.parametrize("big", [10**6, 99_999_999_999, 10**100])
def test_a_huge_colour_reports_an_empty_class_without_allocating_for_it(big):
    g = hamming_graph(3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(EqpartError, match=r"^color class 2 is empty$"):
            coloring_from_list(g, [0, 1, 1, 1, 1, 1, 1, big])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_the_bound_keeps_the_smallest_empty_class_and_the_range_check():
    g = hamming_graph(2, 2)
    with pytest.raises(EqpartError, match=r"^color class 0 is empty$"):
        Coloring(g, (1, 2, 3, 4), 10)
    with pytest.raises(EqpartError, match=r"^color class 4 is empty$"):
        Coloring(g, (0, 1, 2, 3), 10**9)
    with pytest.raises(EqpartError, match=r"^vertex 1 has color -1 out of range$"):
        Coloring(g, (0, -1, 10**9, 3), 10**9 + 1)
    assert Coloring(g, (3, 2, 1, 0), 4).class_sizes() == [1, 1, 1, 1]


COLOR = st.one_of(
    st.integers(-3, 10),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=60, deadline=None, database=None)
@given(colors=st.one_of(
           st.lists(st.integers(-3, 10) | st.integers(-10**30, 10**30), min_size=8, max_size=8),
           st.lists(COLOR, max_size=10),
           COLOR),
       command=st.sampled_from(["quotient", "distrib", "oracle"]))
def test_any_colors_array_ends_in_a_result_or_an_error(colors, command):
    with tempfile.TemporaryDirectory() as tmp:
        graph = write(tmp, "h3.json", ham(3))
        coloring = write(tmp, "c.json", {"graph": ham(3), "colors": colors})
        argv = {
            "quotient": ["quotient", "--graph", graph, "--coloring", coloring],
            "distrib": ["distrib", "vertex", "--graph", graph, "--color", "0",
                        "--coloring", coloring, "--verify-oracle"],
            "oracle": ["oracle", "--graph", graph, "--code", write(tmp, "code.json", [0]),
                       "--coloring", coloring],
        }[command]
        assert main(argv) in (0, 1)  # an exception escaping main fails the test


# -- a structure's coloring is its values -----------------------------------


def test_a_structure_rejects_a_coloring_that_is_not_its_values():
    g = hamming_graph(3, 2)
    ones = PerfectStructure(g, equitable.all_one_coloring(g))
    other = hamming_graph(2, 2)
    with pytest.raises(StructureError, match="^coloring is over a different graph than the host$"):
        PerfectStructure(g, equitable.all_one_coloring(other), ones.params)
    host = g.adjacency_matrix()
    with pytest.raises(StructureError, match="^coloring is over a different graph than the host$"):
        PerfectStructure(host, ones.values, ones.params)
    for wrong_host in (other, host):  # checked before S is derived
        with pytest.raises(StructureError, match="^coloring is over a different graph"):
            PerfectStructure(wrong_host, ones.values)


def test_the_internal_constructions_pass_the_coloring_check():
    g = hamming_graph(3, 2)
    col = distance_coloring(g, [0])
    assert PerfectStructure(g, col).values is col
    from eqpart.localdist import tensor_structure

    pair = tensor_structure(PerfectStructure(g, col), PerfectStructure(g, col))
    assert isinstance(pair.values, Coloring)


def test_the_product_of_two_colorings_is_a_coloring_built_without_an_indicator(kernel_calls):
    from eqpart.localdist import tensor_structure

    g = hamming_graph(3, 2)
    s1 = PerfectStructure(g, distance_coloring(g, [0]))
    s2 = PerfectStructure(g, equitable.all_one_coloring(g))
    pair = tensor_structure(s1, s2)
    assert isinstance(pair.values, Coloring) and pair.n_colors == 4
    assert pair.values.colors == tuple(c for c in s1.values.colors for _ in range(8))
    assert (kernel_calls["indicators"], kernel_calls["unit_columns"]) == (0, 0)


# the messages of the parent release, where the structure held the indicator
WRONG_S = [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 2, 1]]
WRONG_S_MESSAGE = ("values do not satisfy the defining equation; first nonzero residual "
                   "row 7: ['0', '0', '1', '-1']")


def test_a_coloured_structure_with_a_wrong_s_reports_the_residual_of_its_indicator(
        monkeypatch, kernel_calls):
    g = hamming_graph(3, 2)
    col = distance_coloring(g, [0])

    def derived(*args):
        raise AssertionError("a given S is derived again")

    # a given S is checked, never replaced by the quotient matrix
    monkeypatch.setattr(equitable, "quotient_matrix", derived)
    for values in (col, col.indicator()):
        with pytest.raises(StructureError) as err:
            PerfectStructure(g, values, RatMatrix(WRONG_S))
        assert str(err.value) == WRONG_S_MESSAGE
        # the coloring is scanned once and its residual read from its colours;
        # the matrix is never decoded into colours
        assert (kernel_calls["scans"], kernel_calls["unit_columns"]) == (1, 0)
        with pytest.raises(ShapeError, match=r"^parameter matrix \(2, 2\) does not fit values "
                                             r"\(8, 4\)$"):
            PerfectStructure(g, values, RatMatrix([[0, 3], [1, 2]]))


def test_a_coloured_structure_given_no_s_takes_the_quotient_matrix_of_one_scan(kernel_calls):
    g = hamming_graph(3, 2)
    col = distance_coloring(g, [0])
    derived = PerfectStructure(g, col)
    assert (kernel_calls["scans"], kernel_calls["indicators"]) == (1, 0)
    assert derived.params == equitable.quotient_matrix(g, col)
    assert derived == PerfectStructure(g, col, derived.params)
    assert PerfectStructure(g, col) == derived


def test_matrix_values_given_no_s_raise_a_shape_error():
    g = hamming_graph(3, 2)
    for host in (g, g.adjacency_matrix()):
        with pytest.raises(ShapeError, match="^matrix values need a parameter matrix$"):
            PerfectStructure(host, RatMatrix([[1]] * 8))


# -- a graph spec is read once per build ------------------------------------


def test_read_spec_returns_a_hashable_form_with_the_factors_read():
    cycle = {"n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    product = {"gen": "product", "left": ham(2), "right": cycle}
    key = read_spec(product)
    assert key == ("product", ("hamming", 2, 2), ("edges", 3, ((0, 1), (1, 2), (2, 0))))
    assert hash(key) == hash(read_spec(json.loads(json.dumps(product))))
    assert load_graph(key) == load_graph(product)


def test_a_malformed_factor_is_reported_before_the_budget_of_the_other():
    spec = {"gen": "product", "left": ham(30), "right": {"gen": "mystery"}}
    with pytest.raises(EqpartError, match="unknown graph spec"):
        load_graph(spec)


def test_an_edge_list_is_validated_at_most_four_times_per_run(capsys, tmp_path, monkeypatch):
    g = hamming_graph(5, 2)
    spec = {"n_vertices": g.n, "edges": [list(e) for e in g.edges()]}
    graph = write(tmp_path, "g.json", spec)
    coloring = write(tmp_path, "c.json", {"graph": spec, "colors": weights(5)})
    reads = []
    original = inputs.read_spec

    def counting(doc):
        if isinstance(doc, dict) and "edges" in doc:
            reads.append(1)
        return original(doc)

    for module in (inputs, graphs, drg):
        monkeypatch.setattr(module, "read_spec", counting)
    code, _, err = run(capsys, "distrib", "vertex", "--graph", graph, "--coloring", coloring,
                       "--color", "0")
    assert (code, err) == (0, "")
    assert 1 <= len(reads) <= 4


@pytest.mark.parametrize("argv, reads", [
    (["distrib", "vertex", "--graph", "E", "--coloring", "C", "--color", "0"], 3),
    (["distrib", "vertex", "--graph", "E", "--s", "S", "--color", "0"], 1),
    (["distrib", "fiber", "--left", "E", "--right", "E", "--s", "S", "--f0", "[1, 0, 0]"], 2),
], ids=["vertex --coloring", "vertex --s", "fiber"])
def test_the_intersection_array_and_the_degree_read_their_spec_once(
        capsys, tmp_path, monkeypatch, argv, reads):
    c4 = {"n_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    files = {"E": write(tmp_path, "c4.json", c4),
             "C": write(tmp_path, "c.json", {"graph": c4, "colors": [0, 1, 2, 1]}),
             "S": write(tmp_path, "s.json", [[0, 2, 0], [1, 0, 1], [0, 2, 0]])}
    argv = [files.get(token, token) for token in argv]
    expect = run(capsys, *argv)
    counted = []
    original = inputs.read_spec

    def counting(doc):
        if isinstance(doc, dict) and "edges" in doc:
            counted.append(1)
        return original(doc)

    for module in (inputs, graphs, drg):
        monkeypatch.setattr(module, "read_spec", counting)
    assert run(capsys, *argv) == expect
    assert expect[0] == 0
    assert len(counted) == reads
