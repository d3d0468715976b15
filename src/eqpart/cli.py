"""Batch command-line interface.

Every command reads JSON files, prints a single JSON document on stdout, and
is deterministic.  All rationals travel as "p/q" strings (plain integers are
accepted on input).  Exit codes: 0 on success, 1 on domain errors, 2 on
argument errors.  --vertex-budget may stand after a command or its mode.

Every ``distrib`` mode runs one pipeline, so each option means the same in
all of them: --s gives S and --f0 the first row f0 (``vertex`` takes no
--f0: its row is e_color); --coloring or --structure gives the values f,
from which S and f0 (f summed over the code) follow where they are not
given, and which --verify-oracle sums by brute force.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import DEFAULT_VERTEX_BUDGET, EqpartError

# Each command imports the library functions it calls, so that a run loads
# only the modules its command needs (``--help`` none of them).  The names
# this module imported at its top before that stay readable as attributes,
# looked up in their defining module on every access, so that a rebinding
# there (a tracer's wrapper, a test's counting stub) shows here too.
_LIBRARY_NAMES = {
    "distributions": ("fiber_distribution", "lattice_distribution", "pcube_distribution",
                      "reconstruct_from_first_row", "reconstruct_local", "vertex_distribution"),
    "drg": ("hamming_intersection_array", "intersection_array", "regular_degree",
            "spec_intersection_array"),
    "equitable": ("PerfectStructure", "all_one_coloring", "check_completely_regular",
                  "distance_coloring", "lattice_coloring", "load_coloring", "load_structure",
                  "quotient_matrix", "read_structure", "structure_from_coloring",
                  "verify_structure"),
    "graphs": ("Graph", "direct_product", "graph_to_json", "halved_cube", "hamming_graph",
               "johnson_graph", "load_graph", "read_ints", "spec_key"),
    "localdist": ("tensor_distribution", "tensor_structure"),
    "oracle": ("brute_distribution",),
    "ratmat": ("RatMatrix", "from_json", "parse_rational"),
}


def __getattr__(name: str):
    from importlib import import_module

    if name == "codes":
        return import_module(".codes", __package__)
    for module, names in _LIBRARY_NAMES.items():
        if name in names:
            return getattr(import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_json(path: str, text: str | None = None):
    """The JSON document in the UTF-8 file at ``path`` or, given ``text``,
    in that argument text, which ``path`` then names (say "--f0").  Input
    that cannot be read, decoded or parsed, or that nests deeper than the
    parser recurses, raises EqpartError naming ``path``."""
    try:
        if text is None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise EqpartError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise EqpartError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix_file(path: str, budget: int | None = None) -> RatMatrix:
    """The matrix in the JSON file at ``path``: an array of rows, bare or
    under one of the keys s, matrix, params and R.  Given a vertex
    ``budget``, a coloring file ({"graph": ..., "colors": ...}) is read
    too, as its quotient matrix."""
    from .ratmat import from_json

    doc = _load_json(path)
    if isinstance(doc, dict):
        if budget is not None and "colors" in doc:
            from .equitable import load_coloring, quotient_matrix

            col = load_coloring(doc, budget)
            return quotient_matrix(col.graph, col)
        key = next((key for key in ("s", "matrix", "params", "R") if key in doc), None)
        if key is None:
            raise EqpartError(f"{path} holds no matrix under a known key")
        doc = doc[key]
    return from_json(doc)


def _load_code_file(path: str) -> list[int]:
    from .inputs import read_ints

    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("vertices")
    if not isinstance(doc, list):
        raise EqpartError(f"{path} does not hold a vertex list")
    return read_ints(doc, f"code file {path}")


def _parse_row(text: str, option: str) -> RatMatrix:
    """The row vector that the JSON array ``text``, given as ``option``,
    holds; each entry must be an int or a "p/q" string."""
    from .ratmat import RatMatrix

    doc = _load_json(option, text)
    if not isinstance(doc, list):
        raise EqpartError(f"{option} must be a JSON array")
    return RatMatrix.row_vector(doc)


def _emit(doc) -> None:
    print(json.dumps(doc))


def _prebuilt(doc, graph: Graph, spec) -> Graph | None:
    """``graph`` when the coloring or structure file ``doc`` names the graph
    spec that ``graph`` was built from, so that its graph is not built a
    second time; None when the file's graph must be loaded and compared."""
    from .inputs import spec_key

    if isinstance(doc, dict) and "graph" in doc and spec_key(doc["graph"]) == spec_key(spec):
        return graph
    return None


def _load_coloring_over(path: str, graph: Graph, spec, budget):
    """The coloring file at ``path``, which must be over ``graph``, the graph
    the command built from ``spec``."""
    from .equitable import load_coloring

    doc = _load_json(path)
    col = load_coloring(doc, budget, _prebuilt(doc, graph, spec))
    if not col.graph.same_adjacency(graph):
        raise EqpartError("coloring file is over a different graph")
    return col


def _load_f(args, graph, spec, budget) -> PerfectStructure | None:
    """Read the structure being distributed, from --coloring or --structure.

    Either file must be over ``graph``, which the command built from
    ``spec``."""
    if args.coloring:
        from .equitable import structure_from_coloring

        return structure_from_coloring(
            graph, _load_coloring_over(args.coloring, graph, spec, budget)
        )
    if args.structure:
        from .equitable import load_structure
        from .graphs import Graph

        doc = _load_json(args.structure)
        struct = load_structure(doc, budget, _prebuilt(doc, graph, spec))
        if not isinstance(struct.host, Graph) or not struct.host.same_adjacency(graph):
            raise EqpartError("structure file is over a different graph")
        return struct
    return None


def _first_difference(formula: RatMatrix, oracle: RatMatrix) -> str:
    if formula.shape() != oracle.shape():
        return f"formula has shape {formula.shape()}, oracle {oracle.shape()}"
    i, j = next(
        (i, j)
        for i in range(formula.rows)
        for j in range(formula.cols)
        if formula[i, j] != oracle[i, j]
    )
    return (
        f"first difference at row {i}, column {j}: "
        f"formula {formula[i, j]}, oracle {oracle[i, j]}"
    )


# -- commands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    from .graphs import (
        direct_product,
        graph_to_json,
        halved_cube,
        hamming_graph,
        johnson_graph,
        load_graph,
    )

    budget = args.vertex_budget
    if args.family == "hamming":
        g = hamming_graph(args.n, args.q, budget)
    elif args.family == "johnson":
        g = johnson_graph(args.n, args.k, budget)
    elif args.family == "halved":
        g = halved_cube(args.n, args.sign, budget)
    else:
        left = load_graph(_load_json(args.left), budget)
        right = load_graph(_load_json(args.right), budget)
        g = direct_product(left, right, budget)
    _emit(graph_to_json(g))
    return 0


def _cmd_quotient(args) -> int:
    from .equitable import quotient_matrix
    from .graphs import load_graph

    spec = _load_json(args.graph)
    g = load_graph(spec, args.vertex_budget)
    col = _load_coloring_over(args.coloring, g, spec, args.vertex_budget)
    s = quotient_matrix(g, col)
    _emit({"k": col.n_colors, "s": s.to_strings()})
    return 0


def _cmd_verify(args) -> int:
    from .equitable import read_structure, verify_structure

    host, f, s = read_structure(_load_json(args.structure), args.vertex_budget)
    ok, residual = verify_structure(host, f, s)
    _emit({"ok": ok, "residual": residual.to_strings()})
    return 0 if ok else 1


def _cmd_crc_check(args) -> int:
    from .equitable import check_completely_regular
    from .graphs import load_graph

    g = load_graph(_load_json(args.graph), args.vertex_budget)
    code = _load_code_file(args.code)
    crc = check_completely_regular(g, code)
    _emit({"rho": crc.rho, "R": crc.params.to_strings()})
    return 0


def _mode_vertex(args, budget, build):
    from .distributions import vertex_distribution
    from .drg import spec_intersection_array

    spec = _load_json(args.graph)
    g = None
    if build:
        from .graphs import load_graph

        g = load_graph(spec, budget)
    ia = spec_intersection_array(spec, budget, g)
    return spec, g, None, lambda s, f0: vertex_distribution(ia, s, args.color)


def _mode_code(args, budget, build):
    from .distributions import reconstruct_from_first_row
    from .equitable import check_completely_regular
    from .graphs import load_graph

    spec = _load_json(args.graph)
    g = load_graph(spec, budget)
    code = _load_code_file(args.code)
    crc = check_completely_regular(g, code)
    b, n_rows = crc.params.transpose(), crc.rho + 1
    return spec, g, code, lambda s, h0: reconstruct_from_first_row(b, s, h0, n_rows)


def _mode_lattice(args, budget, build):
    from .distributions import lattice_distribution

    g = code = None
    if build:
        from .equitable import lattice_coloring

        base = lattice_coloring(args.m, args.k, args.q, budget)
        g, code = base.graph, base.class_vertices(0)
    spec = {"gen": "hamming", "n": args.m * args.k, "q": args.q}
    return spec, g, code, lambda s, f0: lattice_distribution(args.m, args.k, args.q, s, f0)


def _mode_fiber(args, budget, build):
    from .distributions import fiber_distribution
    from .drg import regular_degree, spec_intersection_array

    left_spec, right_spec = _load_json(args.left), _load_json(args.right)
    left = right = prod = code = None
    if build:
        from .graphs import direct_product, load_graph

        left, right = load_graph(left_spec, budget), load_graph(right_spec, budget)
        prod = direct_product(left, right, budget)
        code = [v1 * right.n for v1 in range(left.n)]
    d = regular_degree(left_spec, budget, left)
    ia = spec_intersection_array(right_spec, budget, right)
    spec = {"gen": "product", "left": left_spec, "right": right_spec}
    return spec, prod, code, lambda s, f0: fiber_distribution(ia, d, s, f0)


def _mode_pcube(args, budget, build):
    from .distributions import pcube_distribution

    g = code = None
    if build:
        from .graphs import hamming_graph

        g = hamming_graph(args.n, args.q, budget)
        code = [v for v, word in enumerate(g.labels) if max(word) < args.p]
    spec = {"gen": "hamming", "n": args.n, "q": args.q}
    return spec, g, code, lambda s, f0: pcube_distribution(args.n, args.p, args.q, s, f0)


_DISTRIB_MODES = {"vertex": _mode_vertex, "code": _mode_code, "lattice": _mode_lattice,
                  "fiber": _mode_fiber, "pcube": _mode_pcube}


def _cmd_distrib(args) -> int:
    """The distrib pipeline.  A ``_mode_*`` function returns its graph's
    spec, the graph and the code (None unless ``build``; ``_mode_code``
    builds them always, for R) and its form, a function of S and f0."""
    budget = args.vertex_budget
    build = bool(args.coloring or args.structure or args.verify_oracle)
    spec, graph, code, form = _DISTRIB_MODES[args.mode](args, budget, build)
    f = _load_f(args, graph, spec, budget)
    if args.s:
        s = _load_matrix_file(args.s)
    elif f is not None:
        s = f.params
    else:
        raise EqpartError("need --s or --coloring/--structure")
    f0 = None
    if args.mode != "vertex":
        if args.f0:
            f0 = _parse_row(args.f0, "--f0")
        elif f is not None:
            f0 = f.values.sum_rows([code])
        else:
            raise EqpartError("need --f0 or --coloring/--structure")
    rows = form(s, f0)
    if args.verify_oracle:
        if f is None:
            raise EqpartError("--verify-oracle needs --coloring or --structure")
        if args.mode == "vertex":  # the first vertex whose value is e_color
            colors = f.values.unit_columns() or ()
            if args.color not in colors:
                raise EqpartError(f"--verify-oracle for a vertex needs 0/1 values with a "
                                  f"vertex of color {args.color}")
            code = [colors.index(args.color)]
        from .oracle import brute_distribution

        brute = brute_distribution(graph, code, f)
        if brute != rows:
            raise EqpartError("formula and oracle disagree: " + _first_difference(rows, brute))
    _emit({"rows": rows.to_strings()})
    return 0


def _cmd_local_params(args) -> int:
    from .equitable import tensor_params

    r1 = _load_matrix_file(args.left, args.vertex_budget)
    r2 = _load_matrix_file(args.right, args.vertex_budget)
    _emit({"params": tensor_params(r1, r2).to_strings()})
    return 0


def _cmd_local_distrib(args) -> int:
    from .equitable import load_coloring, structure_from_coloring
    from .graphs import direct_product
    from .localdist import tensor_distribution

    budget = args.vertex_budget
    left_doc, right_doc = _load_json(args.left), _load_json(args.right)
    left, right = load_coloring(left_doc, budget), load_coloring(right_doc, budget)
    g1 = structure_from_coloring(left.graph, left)
    g2 = structure_from_coloring(right.graph, right)
    prod = direct_product(left.graph, right.graph, budget)
    spec = {"gen": "product", "left": left_doc["graph"], "right": right_doc["graph"]}
    f = _load_f(args, prod, spec, budget)
    if f is None:
        raise EqpartError("need --coloring or --structure for the distributed values")
    rd = tensor_distribution(g1, g2, f)
    _emit(rd.to_json())
    return 0


def _cmd_local_reconstruct(args) -> int:
    from .distributions import reconstruct_local
    from .drg import spec_intersection_array

    ia = spec_intersection_array(_load_json(args.graph), args.vertex_budget)
    r2 = _load_matrix_file(args.right_s)
    s = _load_matrix_file(args.s)
    h0 = _parse_row(args.h0, "--h0")
    h_star = reconstruct_local(ia, r2, s, h0)
    _emit({"h_star": h_star.to_strings()})
    return 0


def _cmd_oracle(args) -> int:
    from .graphs import load_graph
    from .oracle import brute_distribution

    spec = _load_json(args.graph)
    g = load_graph(spec, args.vertex_budget)
    code = _load_code_file(args.code)
    f = _load_f(args, g, spec, args.vertex_budget)
    if f is None:
        raise EqpartError("need --coloring or --structure for the summed values")
    rows = brute_distribution(g, code, f)
    _emit({"rows": rows.to_strings()})
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import checks

    results = []
    all_ok = True
    for name, fn in checks():
        try:
            fn()
            results.append({"name": name, "ok": True})
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append({"name": name, "ok": False, "error": str(exc)})
            all_ok = False
    _emit({"ok": all_ok, "checks": results})
    return 0 if all_ok else 1


# -- parser -----------------------------------------------------------------


def _opt(*flags, **kwargs) -> tuple:
    """One ``add_argument`` call, as (flags, keyword arguments)."""
    return flags, kwargs


def _req(*flags, **kwargs) -> tuple:
    return flags, dict(kwargs, required=True)


_S = _opt("--s", help="parameter matrix file")
_F0 = _opt("--f0", help="first row as a JSON array")
_F = (
    _opt("--coloring", help="coloring file for the distributed values"),
    _opt("--structure", help="structure file for the distributed values"),
    _opt("--verify-oracle", action="store_true"),
)

# command -> (help, handler, arguments, modes), in --help order; modes is
# None or (dest, {mode: (handler, arguments)}), a mode's handler None where
# the command's own serves it
_COMMANDS = {
    "gen": ("generate a graph as JSON", _cmd_gen, (), ("family", {
        "hamming": (None, (_req("-n", type=int), _req("-q", type=int))),
        "johnson": (None, (_req("-n", type=int), _req("-k", type=int))),
        "halved": (None, (_req("-n", type=int),
                          _opt("--sign", choices=["even", "odd"], default="even"))),
        "product": (None, (_req("--left"), _req("--right"))),
    })),
    "quotient": ("quotient matrix of a coloring", _cmd_quotient,
                 (_req("--graph"), _req("--coloring")), None),
    "verify": ("check a perfect structure file", _cmd_verify, (_req("--structure"),), None),
    "crc-check": ("check a vertex set for complete regularity", _cmd_crc_check,
                  (_req("--graph"), _req("--code")), None),
    "distrib": ("closed-form distributions", _cmd_distrib, (), ("mode", {
        "vertex": (None, (_S, *_F, _req("--graph"), _req("--color", type=int))),
        "code": (None, (_S, _F0, *_F, _req("--graph"), _req("--code"))),
        "lattice": (None, (_S, _F0, *_F,
                           _req("-m", type=int), _req("-k", type=int), _req("-q", type=int))),
        "fiber": (None, (_S, _F0, *_F,
                         _req("--left", help="regular factor graph file"),
                         _req("--right", help="distance-regular factor graph file"))),
        "pcube": (None, (_S, _F0, *_F,
                         _req("-n", type=int), _req("-p", type=int), _req("-q", type=int))),
    })),
    "local": ("product-structure machinery", None, (), ("mode", {
        "params": (_cmd_local_params, (_req("--left", help="coloring or matrix file"),
                                       _req("--right", help="coloring or matrix file"))),
        "distrib": (_cmd_local_distrib, (
            _req("--left", help="coloring file over the left factor"),
            _req("--right", help="coloring file over the right factor"),
            _opt("--coloring", help="coloring file over the product"),
            _opt("--structure", help="structure file over the product"))),
        "reconstruct": (_cmd_local_reconstruct, (
            _req("--graph", help="distance-regular left factor"),
            _req("--right-s", dest="right_s"),
            _req("--s"),
            _req("--h0", help="first rearranged row as a JSON array"))),
    })),
    "oracle": ("brute-force distribution", _cmd_oracle,
               (_req("--graph"), _req("--code"), _opt("--coloring"), _opt("--structure")), None),
    "selftest": ("run the built-in example suite", _cmd_selftest, (), None),
}


def _invoked(argv) -> tuple:
    """The command and the mode that ``argv`` invokes: the first token that
    names a command, then the first later token that names one of its modes
    (None where there is none).  Where argparse would read another mode, it
    stops with an error before it reaches one."""
    tokens = iter(argv)
    command = next((t for t in tokens if t in _COMMANDS), None)
    modes = _COMMANDS[command][3] if command is not None else None
    if modes is None:
        return command, None
    return command, next((t for t in tokens if t in modes[1]), None)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The eqpart parser, with every command and mode and its help text.

    Given ``argv``, only the command and the mode it invokes get their
    arguments: each ``add_argument`` builds a help formatter, and a run
    parses one command.  What argparse prints for ``argv``, help and errors
    included, is the same as with every argument added (``argv=None``)."""
    command, mode = (None, None) if argv is None else _invoked(argv)

    def add_arguments(p, arguments, wanted):
        if argv is None or wanted:
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    # no default here, which would replace a budget given before the mode
    common.add_argument(
        "--vertex-budget",
        type=int,
        default=argparse.SUPPRESS,
        help="abort rather than build graphs larger than this",
    )

    parser = argparse.ArgumentParser(
        prog="eqpart",
        description="exact weight distributions of equitable partitions and "
        "completely regular codes",
    )
    parser.set_defaults(vertex_budget=DEFAULT_VERTEX_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments, modes) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        add_arguments(p, arguments, name == command)
        if handler is not None:
            p.set_defaults(func=handler)
        if modes is None:
            continue
        dest, mode_table = modes
        mode_sub = p.add_subparsers(dest=dest, required=True)
        for mode_name, (mode_handler, mode_arguments) in mode_table.items():
            m = mode_sub.add_parser(mode_name, parents=[common])
            add_arguments(m, mode_arguments, name == command and mode_name == mode)
            if mode_handler is not None:
                m.set_defaults(func=mode_handler)
    return parser


def main(argv=None) -> int:
    """Run one command.  Its exact numbers may have any number of digits:
    the interpreter's limit on int-string conversion is lifted while the
    command reads and prints them, and restored on return."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    # a Python without the limit has neither function
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        return args.func(args)
    except EqpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
