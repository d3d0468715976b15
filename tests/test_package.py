"""The public ``eqpart`` names and the value semantics of its record classes.

Every name the package exports is the object its defining module holds.
Records (graphs, colorings, structures, arrays, product distributions) are frozen
values: equal fields make equal records with equal hashes, fields cannot be
reassigned, and construction still checks its inputs.
"""
import importlib
from fractions import Fraction

import pytest

import eqpart
from eqpart.drg import (
    IntersectionArray,
    PPolynomials,
    hamming_intersection_array,
    intersection_array,
    p_polynomials,
)
from eqpart.equitable import (
    Coloring,
    CompletelyRegularCode,
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    distance_coloring,
    structure_from_coloring,
)
from eqpart.errors import EqpartError, ShapeError, StructureError
from eqpart.graphs import Graph, hamming_graph
from eqpart.localdist import (
    RearrangedDistribution,
    tensor_distribution,
    tensor_structure,
)
from eqpart.ratmat import from_json

# defining module -> the public names the package takes from it
EXPORTS = {
    "distributions": [
        "distribution", "fiber_distribution", "lattice_distribution",
        "pcube_distribution", "reconstruct_from_first_row", "subcube_distribution",
        "vertex_distribution",
    ],
    "drg": [
        "IntersectionArray", "PPolynomials", "eberlein", "halved_cube_intersection_array",
        "hamming_intersection_array", "intersection_array", "johnson_intersection_array",
        "krawtchouk", "krawtchouk_p_polynomials", "krawtchouk_recurrence_check",
        "p_polynomials", "spec_intersection_array",
    ],
    "equitable": [
        "Coloring", "CompletelyRegularCode", "PerfectStructure", "all_one_coloring",
        "check_completely_regular", "coloring_from_list", "distance_coloring",
        "fiber_coloring", "lattice_coloring", "quotient_matrix", "structure_from_coloring",
        "tensor_params", "trivial_coloring", "verify_structure",
    ],
    "errors": [
        "EqpartError", "NotDistanceRegularError", "NotEquitableError", "NotTridiagonalError",
        "ReconstructionError", "ShapeError", "StructureError", "UnreachableVertexError",
        "VertexBudgetError",
    ],
    "graphs": [
        "DEFAULT_VERTEX_BUDGET", "Graph", "direct_product", "distances_from_set",
        "graph_from_edges", "halved_cube", "hamming_graph", "johnson_graph", "load_graph",
    ],
    "localdist": [
        "RearrangedDistribution", "extract_local", "rearrange",
        "reconstruct_local", "tensor_distribution", "tensor_structure", "unrearrange",
    ],
    "oracle": ["brute_distribution", "brute_pair_distribution"],
    "ratmat": ["RatMatrix", "tensor"],
}


# -- package exports ------------------------------------------------------------


def test_all_lists_every_public_name_and_module():
    names = [name for names in EXPORTS.values() for name in names] + list(EXPORTS)
    assert eqpart.__all__ == sorted(names)
    assert eqpart.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_the_defining_modules_object(module):
    defining = importlib.import_module(f"eqpart.{module}")
    assert getattr(eqpart, module) is defining
    for name in EXPORTS[module]:
        assert getattr(eqpart, name) is getattr(defining, name), name


def test_dir_lists_the_public_names():
    listed = dir(eqpart)
    assert set(eqpart.__all__) <= set(listed)
    assert "__version__" in listed and "__all__" in listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eqpart import *", namespace)
    assert all(namespace[name] is getattr(eqpart, name) for name in eqpart.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        eqpart.no_such_name
    assert not hasattr(eqpart, "no_such_name")


# -- records --------------------------------------------------------------------

H22 = hamming_graph(2, 2)


def _vertex_structure(g):
    return structure_from_coloring(g, distance_coloring(g, [0]))


def _rearranged():
    s = _vertex_structure(H22)
    return tensor_distribution(s, s, tensor_structure(s, s))


# class -> (a factory called twice for two equal, separately built records;
#           a record of the class that differs from them; one of its fields)
RECORDS = {
    Graph: (lambda: hamming_graph(2, 2), Graph(4, H22.adj), "adj"),
    Coloring: (lambda: distance_coloring(H22, [0]), all_one_coloring(H22), "colors"),
    PerfectStructure: (
        lambda: _vertex_structure(H22),
        structure_from_coloring(H22, all_one_coloring(H22)),
        "values",
    ),
    CompletelyRegularCode: (
        lambda: check_completely_regular(H22, [0]),
        check_completely_regular(H22, [0, 3]),
        "rho",
    ),
    IntersectionArray: (
        lambda: hamming_intersection_array(2, 2),
        hamming_intersection_array(3, 2),
        "b",
    ),
    PPolynomials: (
        lambda: p_polynomials(hamming_intersection_array(2, 2)),
        p_polynomials(hamming_intersection_array(3, 2)),
        "polys",
    ),
    RearrangedDistribution: (_rearranged, RearrangedDistribution(
        from_json([[1]]), from_json([[1]]), 1, 1, 1), "h"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_frozen_values(cls):
    make, other, field = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and type(other) is cls
    assert a != (getattr(a, field),)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert getattr(a, field) == getattr(b, field)
    assert repr(a).startswith(f"{cls.__name__}(")


def test_a_coloured_structure_is_not_the_structure_of_its_indicator():
    coloured = _vertex_structure(H22)
    dense = PerfectStructure(H22, coloured.value_matrix(), coloured.params)
    assert coloured.values == distance_coloring(H22, [0])
    assert dense.values == coloured.values.indicator() and dense != coloured
    assert (dense.n_colors, dense.value_matrix()) == (coloured.n_colors, dense.values)


def test_records_take_fields_by_position_or_keyword_with_defaults():
    g = Graph(4, H22.adj)
    assert (g.labels, g.name) == (None, "")
    assert Graph(n=4, adj=H22.adj, name="x") == Graph(4, H22.adj, None, "x")
    assert distance_coloring(H22, [0]).distance_code == frozenset({0})
    assert Coloring(H22, (0, 0, 0, 0), 1).distance_code is None
    with pytest.raises(TypeError):
        Graph(4)
    with pytest.raises(TypeError):
        Graph(4, H22.adj, n=4)


def test_intersection_array_checks_row_sums():
    assert IntersectionArray(1, (3,), (0, 2), (1,)).degree == 3
    with pytest.raises(EqpartError, match="degree"):
        IntersectionArray(1, (3,), (0, 1), (1,))
    with pytest.raises(EqpartError, match="diameter"):
        IntersectionArray(2, (3,), (0, 2), (1,))
    assert intersection_array(H22) == hamming_intersection_array(2, 2)


def test_coloring_checks_its_length_and_classes():
    with pytest.raises(ShapeError):
        Coloring(H22, (0,), 1)
    with pytest.raises(EqpartError, match="empty"):
        Coloring(H22, (0, 0, 0, 0), 2)


def test_perfect_structure_checks_the_defining_equation():
    ones = from_json([[1]] * 4)
    assert PerfectStructure(H22, ones, from_json([[2]])).n_colors == 1
    with pytest.raises(StructureError):
        PerfectStructure(H22, ones, from_json([[1]]))


def test_ppolynomials_check_degrees():
    with pytest.raises(EqpartError):
        PPolynomials(((Fraction(1),), (Fraction(0), Fraction(0))))
