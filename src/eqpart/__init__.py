"""Exact-arithmetic equitable partitions, completely regular codes, and
their weight distributions on graphs.

Every public name is loaded from its module on first use (PEP 562), so that
``import eqpart`` (and with it each CLI run) imports only the modules the
caller touches.
"""

__version__ = "0.1.0"

# module -> the public names it defines; each module is a public name too
_EXPORTS = {
    "distributions": (
        "distribution",
        "fiber_distribution",
        "lattice_distribution",
        "pcube_distribution",
        "reconstruct_from_first_row",
        "subcube_distribution",
        "vertex_distribution",
    ),
    "drg": (
        "IntersectionArray",
        "PPolynomials",
        "eberlein",
        "halved_cube_intersection_array",
        "hamming_intersection_array",
        "intersection_array",
        "johnson_intersection_array",
        "krawtchouk",
        "krawtchouk_p_polynomials",
        "krawtchouk_recurrence_check",
        "p_polynomials",
        "spec_intersection_array",
    ),
    "equitable": (
        "Coloring",
        "PerfectStructure",
        "all_one_coloring",
        "check_completely_regular",
        "coloring_from_list",
        "distance_coloring",
        "fiber_coloring",
        "lattice_coloring",
        "quotient_matrix",
        "tensor_params",
        "verify_structure",
    ),
    "errors": (
        "EqpartError",
        "NotDistanceRegularError",
        "NotEquitableError",
        "ReconstructionError",
        "ShapeError",
        "StructureError",
        "UnreachableVertexError",
        "VertexBudgetError",
    ),
    "graphs": (
        "DEFAULT_VERTEX_BUDGET",
        "Graph",
        "direct_product",
        "graph_from_edges",
        "halved_cube",
        "hamming_graph",
        "johnson_graph",
        "load_graph",
    ),
    "localdist": (
        "rearrange",
        "reconstruct_local",
        "tensor_distribution",
        "tensor_structure",
    ),
    "oracle": ("brute_distribution", "brute_pair_distribution"),
    "ratmat": ("RatMatrix", "tensor"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
