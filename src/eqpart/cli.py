"""Batch command-line interface.

Every command reads JSON files, prints a single JSON document on stdout, and
is deterministic.  All rationals travel as "p/q" strings (plain integers are
accepted on input).  Exit codes: 0 on success, 1 on domain errors, 2 on
argument errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import codes
from .distributions import (
    fiber_distribution,
    lattice_distribution,
    pcube_distribution,
    reconstruct_from_first_row,
    vertex_distribution,
)
from .drg import (
    hamming_intersection_array,
    intersection_array,
    regular_degree,
    spec_intersection_array,
)
from .equitable import (
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    distance_coloring,
    lattice_coloring,
    load_coloring,
    load_structure,
    quotient_matrix,
    read_structure,
    structure_from_coloring,
    verify_structure,
)
from .errors import EqpartError
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    decode_word,
    direct_product,
    graph_to_json,
    halved_cube,
    hamming_graph,
    johnson_graph,
    load_graph,
    read_ints,
    spec_key,
)
from .localdist import reconstruct_local, tensor_distribution, tensor_structure
from .oracle import brute_distribution
from .ratmat import RatMatrix, from_json, parse_rational


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise EqpartError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise EqpartError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix_file(path: str) -> RatMatrix:
    doc = _load_json(path)
    if isinstance(doc, dict):
        for key in ("s", "matrix", "params", "R"):
            if key in doc:
                doc = doc[key]
                break
        else:
            raise EqpartError(f"{path} holds no matrix under a known key")
    return from_json(doc)


def _load_code_file(path: str) -> list[int]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("vertices")
    if not isinstance(doc, list):
        raise EqpartError(f"{path} does not hold a vertex list")
    return read_ints(doc, f"code file {path}")


def _parse_row(text: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EqpartError(f"row argument is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise EqpartError("row argument must be a JSON array")
    return [parse_rational(x) for x in doc]


def _emit(doc) -> None:
    print(json.dumps(doc))


def _prebuilt(doc, graph: Graph, spec) -> Graph | None:
    """``graph`` when the coloring or structure file ``doc`` names the graph
    spec that ``graph`` was built from, so that its graph is not built a
    second time; None when the file's graph must be loaded and compared."""
    if isinstance(doc, dict) and "graph" in doc and spec_key(doc["graph"]) == spec_key(spec):
        return graph
    return None


def _load_coloring_over(path: str, graph: Graph, spec, budget):
    """The coloring file at ``path``, which must be over ``graph``, the graph
    the command built from ``spec``."""
    doc = _load_json(path)
    col = load_coloring(doc, budget, _prebuilt(doc, graph, spec))
    if not col.graph.same_adjacency(graph):
        raise EqpartError("coloring file is over a different graph")
    return col


def _load_f(args, graph, spec, budget) -> PerfectStructure | None:
    """Read the structure being distributed, from --coloring or --structure.

    Either file must be over ``graph``, which the command built from
    ``spec`` (see :func:`_needs_graph`)."""
    if args.coloring:
        return structure_from_coloring(
            graph, _load_coloring_over(args.coloring, graph, spec, budget)
        )
    if args.structure:
        doc = _load_json(args.structure)
        struct = load_structure(doc, budget, _prebuilt(doc, graph, spec))
        if not isinstance(struct.host, Graph) or not struct.host.same_adjacency(graph):
            raise EqpartError("structure file is over a different graph")
        return struct
    return None


def _needs_graph(args) -> bool:
    """Whether a closed-form command must build its graph: to read the
    distributed values (and so also to sum f0 over the code) or to run the
    oracle.  Otherwise the formula needs only the parameters."""
    return bool(args.coloring or args.structure or args.verify_oracle)


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


def _distrib_output(args, rows: RatMatrix, graph, code, f: PerfectStructure | None):
    if args.verify_oracle:
        if f is None:
            raise EqpartError("--verify-oracle needs --coloring or --structure")
        brute = brute_distribution(graph, code, f)
        if brute != rows:
            raise EqpartError("formula and oracle disagree: " + _first_difference(rows, brute))
    _emit({"rows": rows.to_strings()})
    return 0


# -- commands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
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
    spec = _load_json(args.graph)
    g = load_graph(spec, args.vertex_budget)
    col = _load_coloring_over(args.coloring, g, spec, args.vertex_budget)
    s = quotient_matrix(g, col)
    _emit({"k": col.n_colors, "s": s.to_strings()})
    return 0


def _cmd_verify(args) -> int:
    host, f, s = read_structure(_load_json(args.structure), args.vertex_budget)
    ok, residual = verify_structure(host, f, s)
    _emit({"ok": ok, "residual": residual.to_strings()})
    return 0 if ok else 1


def _cmd_crc_check(args) -> int:
    g = load_graph(_load_json(args.graph), args.vertex_budget)
    code = _load_code_file(args.code)
    crc = check_completely_regular(g, code)
    _emit({"rho": crc.rho, "R": crc.params.to_strings()})
    return 0


def _cmd_distrib_vertex(args) -> int:
    budget = args.vertex_budget
    spec = _load_json(args.graph)
    g = load_graph(spec, budget) if _needs_graph(args) else None
    ia = spec_intersection_array(spec, budget, g)
    f = _load_f(args, g, spec, budget)
    if args.s:
        s = _load_matrix_file(args.s)
    elif f is not None:
        s = f.params
    else:
        raise EqpartError("need --s or --coloring to know the parameter matrix")
    dist = vertex_distribution(ia, s, args.color)
    code = None
    if args.verify_oracle:
        if f is None:
            raise EqpartError("--verify-oracle needs --coloring or --structure")
        if f.coloring is None:
            raise EqpartError("--verify-oracle for a vertex needs a coloring")
        code = [f.coloring.colors.index(args.color)]
    return _distrib_output(args, dist.matrix, g, code, f)


def _cmd_distrib_code(args) -> int:
    spec = _load_json(args.graph)
    g = load_graph(spec, args.vertex_budget)
    code = _load_code_file(args.code)
    f = _load_f(args, g, spec, args.vertex_budget)
    if f is None:
        raise EqpartError("need --coloring or --structure for the distributed values")
    crc = check_completely_regular(g, code)
    h0 = f.values.sum_rows([code])
    dist = reconstruct_from_first_row(crc.params.transpose(), f.params, h0, crc.rho + 1)
    return _distrib_output(args, dist.matrix, g, code, f)


def _formula_inputs(args, graph, spec, code, budget):
    """S and f0 for the closed-form commands, either given or derived from f.

    ``graph`` (built from ``spec``) and ``code`` are None on the graph-free
    route, where neither --coloring nor --structure is set."""
    f = _load_f(args, graph, spec, budget)
    if args.s:
        s = _load_matrix_file(args.s)
    elif f is not None:
        s = f.params
    else:
        raise EqpartError("need --s/--f0 or --coloring/--structure")
    if args.f0:
        f0 = _parse_row(args.f0)
    elif f is not None:
        f0 = f.values.sum_rows([code])
    else:
        raise EqpartError("need --f0 or --coloring/--structure")
    return s, f0, f


def _cmd_distrib_lattice(args) -> int:
    budget = args.vertex_budget
    g = code = None
    if _needs_graph(args):
        base = lattice_coloring(args.m, args.k, args.q, budget)
        g, code = base.graph, base.class_vertices(0)
    spec = {"gen": "hamming", "n": args.m * args.k, "q": args.q}
    s, f0, f = _formula_inputs(args, g, spec, code, budget)
    dist = lattice_distribution(args.m, args.k, args.q, s, f0)
    return _distrib_output(args, dist.matrix, g, code, f)


def _cmd_distrib_fiber(args) -> int:
    budget = args.vertex_budget
    left_spec, right_spec = _load_json(args.left), _load_json(args.right)
    left = right = prod = code = None
    if _needs_graph(args):
        left, right = load_graph(left_spec, budget), load_graph(right_spec, budget)
    d = regular_degree(left_spec, budget, left)
    ia = spec_intersection_array(right_spec, budget, right)
    if left is not None:
        prod = direct_product(left, right, budget)
        code = [v1 * right.n for v1 in range(left.n)]
    spec = {"gen": "product", "left": left_spec, "right": right_spec}
    s, f0, f = _formula_inputs(args, prod, spec, code, budget)
    dist = fiber_distribution(ia, d, s, f0)
    return _distrib_output(args, dist.matrix, prod, code, f)


def _cmd_distrib_pcube(args) -> int:
    budget = args.vertex_budget
    g = code = None
    if _needs_graph(args):
        g = hamming_graph(args.n, args.q, budget)
        code = [
            v for v in range(g.n) if all(x < args.p for x in decode_word(v, args.n, args.q))
        ]
    spec = {"gen": "hamming", "n": args.n, "q": args.q}
    s, f0, f = _formula_inputs(args, g, spec, code, budget)
    dist = pcube_distribution(args.n, args.p, args.q, s, f0)
    return _distrib_output(args, dist.matrix, g, code, f)


def _load_params_operand(path: str, budget: int) -> RatMatrix:
    doc = _load_json(path)
    if isinstance(doc, dict) and "colors" in doc:
        col = load_coloring(doc, budget)
        return quotient_matrix(col.graph, col)
    if isinstance(doc, dict):
        for key in ("s", "matrix", "params", "R"):
            if key in doc:
                return from_json(doc[key])
        raise EqpartError(f"{path}: expected a coloring or a matrix")
    return from_json(doc)


def _cmd_local_params(args) -> int:
    from .equitable import tensor_params

    r1 = _load_params_operand(args.left, args.vertex_budget)
    r2 = _load_params_operand(args.right, args.vertex_budget)
    _emit({"params": tensor_params(r1, r2).to_strings()})
    return 0


def _cmd_local_distrib(args) -> int:
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
    rd = tensor_distribution(g1, g2, f, budget)
    _emit(rd.to_json())
    return 0


def _cmd_local_reconstruct(args) -> int:
    ia = spec_intersection_array(_load_json(args.graph), args.vertex_budget)
    r2 = _load_matrix_file(args.right_s)
    s = _load_matrix_file(args.s)
    h0 = _parse_row(args.h0)
    h_star = reconstruct_local(ia, r2, s, h0)
    _emit({"h_star": h_star.to_strings()})
    return 0


def _cmd_oracle(args) -> int:
    spec = _load_json(args.graph)
    g = load_graph(spec, args.vertex_budget)
    code = _load_code_file(args.code)
    f = _load_f(args, g, spec, args.vertex_budget)
    if f is None:
        raise EqpartError("need --coloring or --structure for the summed values")
    rows = brute_distribution(g, code, f)
    _emit({"rows": rows.to_strings()})
    return 0


# -- selftest ---------------------------------------------------------------

_PRODUCT_PARAMS_3ARY_2CUBE = [
    [0, 4, 0, 4, 0, 0, 0, 0, 0],
    [1, 1, 2, 0, 4, 0, 0, 0, 0],
    [0, 2, 2, 0, 0, 4, 0, 0, 0],
    [1, 0, 0, 1, 4, 0, 2, 0, 0],
    [0, 1, 0, 1, 2, 2, 0, 2, 0],
    [0, 0, 1, 0, 2, 3, 0, 0, 2],
    [0, 0, 0, 2, 0, 0, 2, 4, 0],
    [0, 0, 0, 0, 2, 0, 1, 3, 2],
    [0, 0, 0, 0, 0, 2, 0, 2, 4],
]


def _selftest_checks():
    h23 = hamming_graph(2, 3)
    vcol = distance_coloring(h23, [0])

    def product_params_9x9():
        g1 = structure_from_coloring(h23, vcol)
        ts = tensor_structure(g1, g1)
        assert ts.params == from_json(_PRODUCT_PARAMS_3ARY_2CUBE)

    def code_params():
        g = hamming_graph(7, 2)
        crc = check_completely_regular(g, codes.hamming_code_vertices(3))
        assert crc.rho == 1
        assert crc.params == from_json([[0, 7], [1, 6]])

    def extended_code_params():
        g = hamming_graph(8, 2)
        crc = check_completely_regular(g, codes.extended_hamming_code_vertices(3))
        assert crc.rho == 2
        assert crc.params == from_json([[0, 8, 0], [1, 0, 7], [0, 8, 0]])

    def code_eigenfunction():
        g = hamming_graph(7, 2)
        members = set(codes.hamming_code_vertices(3))
        values = from_json([[7 if v in members else -1] for v in range(g.n)])
        ok, _ = verify_structure(g, values, from_json([[-1]]))
        assert ok

    def vertex_distribution_3ary_2cube():
        s = quotient_matrix(h23, vcol)
        dist = vertex_distribution(h23, s, 0)
        assert hamming_intersection_array(2, 3) == intersection_array(h23)
        expect = from_json([[1, 0, 0], [0, 4, 0], [0, 0, 4]])
        assert dist.matrix == expect
        assert brute_distribution(h23, [0], vcol) == expect

    def lattice_quotient():
        col = lattice_coloring(2, 1, 2)
        s = quotient_matrix(col.graph, col)
        assert s == from_json([[0, 2], [2, 0]])

    def lattice_distribution_check():
        col = lattice_coloring(2, 2, 2)
        g = col.graph
        ones = all_one_coloring(g)
        s = quotient_matrix(g, ones)
        code = col.class_vertices(0)
        dist = lattice_distribution(2, 2, 2, s, [len(code)])
        assert dist.matrix == from_json([[4], [8], [4]])
        assert brute_distribution(g, code, ones) == dist.matrix

    return [
        ("product-params-9x9", product_params_9x9),
        ("code-params", code_params),
        ("extended-code-params", extended_code_params),
        ("code-eigenfunction", code_eigenfunction),
        ("vertex-distribution-3ary-2cube", vertex_distribution_3ary_2cube),
        ("lattice-quotient", lattice_quotient),
        ("lattice-distribution", lattice_distribution_check),
    ]


def _cmd_selftest(args) -> int:
    results = []
    all_ok = True
    for name, fn in _selftest_checks():
        try:
            fn()
            results.append({"name": name, "ok": True})
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append({"name": name, "ok": False, "error": str(exc)})
            all_ok = False
    _emit({"ok": all_ok, "checks": results})
    return 0 if all_ok else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--vertex-budget",
        type=int,
        default=DEFAULT_VERTEX_BUDGET,
        help="abort rather than build graphs larger than this",
    )

    parser = argparse.ArgumentParser(
        prog="eqpart",
        description="exact weight distributions of equitable partitions and "
        "completely regular codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a graph as JSON")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_ham = gen_sub.add_parser("hamming", parents=[common])
    g_ham.add_argument("-n", type=int, required=True)
    g_ham.add_argument("-q", type=int, required=True)
    g_joh = gen_sub.add_parser("johnson", parents=[common])
    g_joh.add_argument("-n", type=int, required=True)
    g_joh.add_argument("-k", type=int, required=True)
    g_hal = gen_sub.add_parser("halved", parents=[common])
    g_hal.add_argument("-n", type=int, required=True)
    g_hal.add_argument("--sign", choices=["even", "odd"], default="even")
    g_pro = gen_sub.add_parser("product", parents=[common])
    g_pro.add_argument("--left", required=True)
    g_pro.add_argument("--right", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_quot = sub.add_parser("quotient", parents=[common], help="quotient matrix of a coloring")
    p_quot.add_argument("--graph", required=True)
    p_quot.add_argument("--coloring", required=True)
    p_quot.set_defaults(func=_cmd_quotient)

    p_ver = sub.add_parser("verify", parents=[common], help="check a perfect structure file")
    p_ver.add_argument("--structure", required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_crc = sub.add_parser(
        "crc-check", parents=[common], help="check a vertex set for complete regularity"
    )
    p_crc.add_argument("--graph", required=True)
    p_crc.add_argument("--code", required=True)
    p_crc.set_defaults(func=_cmd_crc_check)

    p_dis = sub.add_parser("distrib", parents=[common], help="closed-form distributions")
    dis_sub = p_dis.add_subparsers(dest="mode", required=True)

    def _dis(name):
        p = dis_sub.add_parser(name, parents=[common])
        p.add_argument("--s", help="parameter matrix file")
        p.add_argument("--f0", help="first row as a JSON array")
        p.add_argument("--coloring", help="coloring file for the distributed values")
        p.add_argument("--structure", help="structure file for the distributed values")
        p.add_argument("--verify-oracle", action="store_true")
        return p

    d_vertex = _dis("vertex")
    d_vertex.add_argument("--graph", required=True)
    d_vertex.add_argument("--color", type=int, required=True)
    d_vertex.set_defaults(func=_cmd_distrib_vertex)

    d_code = _dis("code")
    d_code.add_argument("--graph", required=True)
    d_code.add_argument("--code", required=True)
    d_code.set_defaults(func=_cmd_distrib_code)

    d_lat = _dis("lattice")
    d_lat.add_argument("-m", type=int, required=True)
    d_lat.add_argument("-k", type=int, required=True)
    d_lat.add_argument("-q", type=int, required=True)
    d_lat.set_defaults(func=_cmd_distrib_lattice)

    d_fib = _dis("fiber")
    d_fib.add_argument("--left", required=True, help="regular factor graph file")
    d_fib.add_argument("--right", required=True, help="distance-regular factor graph file")
    d_fib.set_defaults(func=_cmd_distrib_fiber)

    d_pc = _dis("pcube")
    d_pc.add_argument("-n", type=int, required=True)
    d_pc.add_argument("-p", type=int, required=True)
    d_pc.add_argument("-q", type=int, required=True)
    d_pc.set_defaults(func=_cmd_distrib_pcube)

    p_loc = sub.add_parser("local", parents=[common], help="product-structure machinery")
    loc_sub = p_loc.add_subparsers(dest="mode", required=True)
    l_par = loc_sub.add_parser("params", parents=[common])
    l_par.add_argument("--left", required=True, help="coloring or matrix file")
    l_par.add_argument("--right", required=True, help="coloring or matrix file")
    l_par.set_defaults(func=_cmd_local_params)
    l_dis = loc_sub.add_parser("distrib", parents=[common])
    l_dis.add_argument("--left", required=True, help="coloring file over the left factor")
    l_dis.add_argument("--right", required=True, help="coloring file over the right factor")
    l_dis.add_argument("--coloring", help="coloring file over the product")
    l_dis.add_argument("--structure", help="structure file over the product")
    l_dis.set_defaults(func=_cmd_local_distrib)
    l_rec = loc_sub.add_parser("reconstruct", parents=[common])
    l_rec.add_argument("--graph", required=True, help="distance-regular left factor")
    l_rec.add_argument("--right-s", required=True, dest="right_s")
    l_rec.add_argument("--s", required=True)
    l_rec.add_argument("--h0", required=True, help="first rearranged row as a JSON array")
    l_rec.set_defaults(func=_cmd_local_reconstruct)

    p_ora = sub.add_parser("oracle", parents=[common], help="brute-force distribution")
    p_ora.add_argument("--graph", required=True)
    p_ora.add_argument("--code", required=True)
    p_ora.add_argument("--coloring")
    p_ora.add_argument("--structure")
    p_ora.set_defaults(func=_cmd_oracle)

    p_self = sub.add_parser("selftest", parents=[common], help="run the built-in example suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EqpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
