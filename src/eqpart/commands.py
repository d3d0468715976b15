"""The command handlers of :mod:`eqpart.cli` and the readers they share.

Each handler takes the parsed arguments and the run's graph loader, prints
one JSON document and returns the exit code.  ``cli.main`` imports this
module only after argparse has parsed, so ``--help`` and usage errors
compile none of it.  Nothing here imports :mod:`eqpart.cli`: under
``python -m eqpart.cli`` that module is ``__main__``, and the import would
compile it a second time.

A run builds each graph spec once.  Every graph it needs (a command's own,
the graph of a coloring or structure file, a product's factors) comes from
one table per run (:func:`graph_table`), keyed by the spec as read; a file
over another spec is built and compared with the command's graph by
adjacency.  One reader gives the values of --coloring or --structure (not
both) as one PerfectStructure with S as its params; a coloring stays its
colours, with S from its scan, and so does a structure file whose rows are
a coloring's unit rows.

Every ``distrib`` mode runs one pipeline, so each option means the same in
all of them: --s gives S and --f0 the first row f0 (``vertex`` takes no
--f0: its row is e_color); --coloring or --structure gives the values f,
from which S and f0 (f summed over the code) follow where they are not
given, and which --verify-oracle sums by brute force.
"""
from __future__ import annotations

import json

from .errors import EqpartError

# Each handler imports the library functions it calls, so that a run loads
# only the modules its command needs.


def graph_table(budget: int):
    """The graph loader of one run, from a graph spec (or what ``read_spec``
    read from it) to its Graph: it builds each spec once, by
    :func:`eqpart.graphs.load_graph` with a product's factors loaded through
    itself, and returns that Graph for every spec that reads the same."""
    graphs = {}

    def load(spec) -> Graph:
        from .graphs import load_graph, read_spec

        key = spec if isinstance(spec, tuple) else read_spec(spec)
        if key not in graphs:
            graphs[key] = load_graph(key, budget, load)
        return graphs[key]

    return load


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


def _read_values(load, coloring=None, structure=None, over=None) -> PerfectStructure | None:
    """The PerfectStructure in the coloring or the structure file at the
    given path (a coloring may also be its JSON document), over a graph
    built by ``load`` that passes ``over`` where given; None without a
    file.  Its params are S: a coloring's values are the Coloring, and S its
    quotient matrix, whose one scan also proves it equitable; a structure
    file is verified on construction against its own S."""
    if coloring is not None and structure is not None:
        raise EqpartError("give --coloring or --structure, not both")
    if coloring is None and structure is None:
        return None
    from .equitable import PerfectStructure, load_coloring, load_structure
    from .graphs import Graph

    if structure is not None:
        f = load_structure(_load_json(structure), load)
        graph, what = f.host, "structure"
    else:
        f = load_coloring(_load_json(coloring) if isinstance(coloring, str) else coloring, load)
        graph, what = f.graph, "coloring"
    if over is not None and not (isinstance(graph, Graph) and over(graph)):
        raise EqpartError(f"{what} file is over a different graph")
    return f if structure is not None else PerfectStructure(graph, f)


def _load_matrix_file(path: str, load=None) -> RatMatrix:
    """The matrix in the JSON file at ``path``: an array of rows, bare or
    under one of the keys s, matrix, params and R.  Given a graph loader
    ``load``, a coloring file ({"graph": ..., "colors": ...}) is read too,
    as its quotient matrix."""
    from .ratmat import from_json

    doc = _load_json(path)
    if isinstance(doc, dict):
        if load is not None and "colors" in doc:
            return _read_values(load, doc).params
        key = next((key for key in ("s", "matrix", "params", "R") if key in doc), None)
        if key is None:
            raise EqpartError(f"{path} holds no matrix under a known key")
        doc = doc[key]
    return from_json(doc)


def _load_code_file(path: str) -> list[int]:
    """The vertices in the code file at ``path``: an array, bare or under the key vertices."""
    from .inputs import read_ints

    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("vertices", doc)
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


def _vertex_of_color(values, color: int) -> int:
    """The first vertex whose value, in a Coloring or a matrix, is e_color."""
    from .ratmat import RatMatrix

    v = None
    if 0 <= color < values.cols and isinstance(values, RatMatrix):
        unit = RatMatrix.row_vector(int(j == color) for j in range(values.cols))
        v = next((v for v in range(values.rows) if values.sum_rows([[v]]) == unit), None)
    elif 0 <= color < values.cols:
        v = values.colors.index(color)  # no class of a coloring is empty
    if v is None:
        raise EqpartError(f"--verify-oracle for a vertex needs 0/1 values with a "
                          f"vertex of color {color}")
    return v


# -- handlers ---------------------------------------------------------------


def gen(args, load) -> int:
    from .graphs import graph_to_json

    if args.family == "product":
        spec = {"gen": "product", "left": _load_json(args.left), "right": _load_json(args.right)}
    else:
        keys = {"hamming": ("n", "q"), "johnson": ("n", "k"), "halved": ("n", "sign")}
        spec = {"gen": args.family, **{key: getattr(args, key) for key in keys[args.family]}}
    _emit(graph_to_json(load(spec)))
    return 0


def quotient(args, load) -> int:
    g = load(_load_json(args.graph))
    f = _read_values(load, args.coloring, over=g.same_adjacency)
    _emit({"k": f.n_colors, "s": f.params.to_strings()})
    return 0


def verify(args, load) -> int:
    from .equitable import read_structure, verify_structure

    host, f, s = read_structure(_load_json(args.structure), load)
    ok, residual = verify_structure(host, f, s)
    _emit({"ok": ok, "residual": residual.to_strings()})
    return 0 if ok else 1


def crc_check(args, load) -> int:
    from .equitable import check_completely_regular

    g = load(_load_json(args.graph))
    r = check_completely_regular(g, _load_code_file(args.code))
    _emit({"rho": r.rows - 1, "R": r.to_strings()})
    return 0


def _mode_vertex(args, load):
    from .distributions import vertex_distribution
    from .drg import spec_intersection_array

    spec = _load_json(args.graph)

    def form(s, f0):
        return vertex_distribution(spec_intersection_array(spec, load), s, args.color)

    return spec, lambda: None, form


def _mode_code(args, load):
    from .distributions import reconstruct_from_first_row
    from .equitable import check_completely_regular

    spec = _load_json(args.graph)
    code = _load_code_file(args.code)

    def form(s, h0):
        r = check_completely_regular(load(spec), code)
        return reconstruct_from_first_row(r.transpose(), s, h0)

    return spec, lambda: code, form


def _mode_lattice(args, load):
    from .distributions import lattice_distribution

    m, k, q = args.m, args.k, args.q

    def code():
        from .equitable import lattice_coloring

        return lattice_coloring(m, k, q, load).class_vertices(0)

    spec = {"gen": "hamming", "n": m * k, "q": q}
    return spec, code, lambda s, f0: lattice_distribution(m, k, q, s, f0)


def _mode_fiber(args, load):
    from .distributions import fiber_distribution
    from .drg import regular_degree, spec_intersection_array

    left, right = _load_json(args.left), _load_json(args.right)

    def code():
        n_left, n_right = load(left).n, load(right).n
        return [v1 * n_right for v1 in range(n_left)]

    def form(s, f0):
        d = regular_degree(left, load)
        return fiber_distribution(spec_intersection_array(right, load), d, s, f0)

    return {"gen": "product", "left": left, "right": right}, code, form


def _mode_pcube(args, load):
    from .distributions import _check_pcube, pcube_distribution

    n, p, q = args.n, args.p, args.q
    spec = {"gen": "hamming", "n": n, "q": q}

    def code():
        _check_pcube(n, p, q)
        return [v for v, word in enumerate(load(spec).labels) if max(word) < p]

    return spec, code, lambda s, f0: pcube_distribution(n, p, q, s, f0)


_DISTRIB_MODES = {"vertex": _mode_vertex, "code": _mode_code, "lattice": _mode_lattice,
                  "fiber": _mode_fiber, "pcube": _mode_pcube}


def distrib(args, load) -> int:
    """The distrib pipeline.  A ``_mode_*`` function returns its graph's
    spec, its code (a function of no arguments, called only with f or the
    oracle; ``vertex`` reads its code from f) and its form, a function of S
    and f0.  Both build what they need through ``load`` when called."""
    spec, code_of, form = _DISTRIB_MODES[args.mode](args, load)
    graph = code = f = None
    if args.coloring or args.structure or args.verify_oracle:
        from .graphs import _code_labels, class_sums

        code = code_of()
        graph = load(spec)
        f = _read_values(load, args.coloring, args.structure, graph.same_adjacency)
    if not args.s and f is None:
        raise EqpartError("need --s or --coloring/--structure")
    s = _load_matrix_file(args.s) if args.s else f.params
    f0 = None
    if args.mode != "vertex":
        if args.f0:
            f0 = _parse_row(args.f0, "--f0")
        elif f is not None:
            f0 = class_sums(f.values, _code_labels(graph.n, code), 1)  # f summed over the code
        else:
            raise EqpartError("need --f0 or --coloring/--structure")
    rows = form(s, f0)
    if args.verify_oracle:
        if f is None:
            raise EqpartError("--verify-oracle needs --coloring or --structure")
        if args.mode == "vertex":
            code = [_vertex_of_color(f.values, args.color)]
        from .oracle import brute_distribution
        from .ratmat import first_difference

        brute = brute_distribution(graph, code, f)
        if brute != rows:
            raise EqpartError("formula and oracle disagree: "
                              + first_difference(rows, brute, "formula", "oracle"))
    _emit({"rows": rows.to_strings()})
    return 0


def local_params(args, load) -> int:
    from .equitable import tensor_params

    r1, r2 = (_load_matrix_file(path, load) for path in (args.left, args.right))
    _emit({"params": tensor_params(r1, r2).to_strings()})
    return 0


def local_distrib(args, load) -> int:
    """The factors are the --left and --right colorings and f the --coloring
    or --structure file, all three read by ``_read_values``.  The product is
    f's graph, which ``tensor_distribution`` compares row by row with the
    product of the factors' graphs; no product is built from the factors."""
    from .localdist import rearrange, tensor_distribution

    g1, g2 = (_read_values(load, path) for path in (args.left, args.right))
    f = _read_values(load, args.coloring, args.structure)
    if f is None:
        raise EqpartError("need --coloring or --structure for the distributed values")
    h = tensor_distribution(g1, g2, f)
    k1, k2 = g1.n_colors, g2.n_colors
    _emit({"n_left": k1, "n_right": k2, "k": f.n_colors, "h": h.to_strings(),
           "h_star": rearrange(h, k1, k2).to_strings()})
    return 0


def local_reconstruct(args, load) -> int:
    from .distributions import reconstruct_local
    from .drg import spec_intersection_array

    ia = spec_intersection_array(_load_json(args.graph), load)
    r2 = _load_matrix_file(args.right_s)
    s = _load_matrix_file(args.s)
    h0 = _parse_row(args.h0, "--h0")
    h_star = reconstruct_local(ia, r2, s, h0)
    _emit({"h_star": h_star.to_strings()})
    return 0


def oracle(args, load) -> int:
    from .oracle import brute_distribution

    g = load(_load_json(args.graph))
    code = _load_code_file(args.code)
    # S goes unused, but deriving it proves a coloring equitable
    f = _read_values(load, args.coloring, args.structure, g.same_adjacency)
    if f is None:
        raise EqpartError("need --coloring or --structure for the summed values")
    _emit({"rows": brute_distribution(g, code, f).to_strings()})
    return 0


def selftest(args, load) -> int:
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
