"""Spans around eqpart's layers, recorded from outside the program.

``Tracer.install`` wraps each module's public functions and the RatMatrix
operators listed in LAYERS.  Modules import names from each other at import
time (``cli`` holds its own reference to ``vertex_distribution``), so every
``eqpart.*`` namespace that holds the original function object is rebound,
and ``restore`` puts every original back.

A span is (name, start, end, parent index, job id); spans stay in memory
until the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# span name -> (module, attribute) pairs; "Class.method" wraps a method.
LAYERS = {
    "graphs.build": [("graphs", f) for f in (
        "hamming_graph", "johnson_graph", "halved_cube", "direct_product", "graph_from_edges")],
    "graphs.bfs": [("graphs", "bfs_distances")],
    "drg.ia": [("drg", "intersection_array")],
    "drg.poly": [("drg", f) for f in (
        "p_polynomials", "krawtchouk_p_polynomials", "krawtchouk", "eberlein")],
    "equitable.coloring": [("equitable", f) for f in (
        "distance_coloring", "lattice_coloring", "fiber_coloring", "all_one_coloring",
        "coloring_from_list", "Coloring.indicator")],
    "equitable.quotient": [("equitable", "quotient_matrix"),
                           ("equitable", "check_completely_regular")],
    "equitable.verify": [("equitable", "verify_structure")],
    "ratmat.build": [("ratmat", "RatMatrix.__init__")],
    "ratmat.matmul": [("ratmat", "RatMatrix.__matmul__")],
    "ratmat.rowpoly": [("ratmat", "row_poly_eval")],
    "ratmat.tensor": [("ratmat", "tensor")],
    "distributions.formula": [("distributions", f) for f in (
        "vertex_distribution", "lattice_distribution", "fiber_distribution",
        "subcube_distribution", "pcube_distribution")],
    "distributions.reconstruct": [("distributions", "reconstruct_from_first_row")],
    "localdist.product": [("localdist", "tensor_structure"), ("localdist", "tensor_distribution")],
    "localdist.reconstruct": [("localdist", "reconstruct_local")],
    "oracle.brute": [("oracle", "brute_distribution_report"),
                     ("oracle", "brute_pair_distribution")],
}

COUNTS = ("graphs.vertices_built", "graphs.bfs_calls", "drg.ia_pairs", "equitable.verify_rows",
          "ratmat.matmul_mults", "oracle.vertices_summed")
MAXIMA = ("drg.poly_bits_max", "ratmat.bits_max")


def bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
               default=0)


def matrix_bits(m) -> int:
    return bits(x for row in m for x in row)


def _count_matmul(t, args, result):
    a, b = args
    t.count("ratmat.matmul_mults", a.rows * a.cols * b.cols)
    t.count("ratmat.operand_entries", a.rows * a.cols + b.rows * b.cols)
    t.count("ratmat.nonint_entries",
            sum(1 for m in (a, b) for row in m for x in row if x.denominator != 1))
    t.note_max("ratmat.bits_max", matrix_bits(result))


def _count_poly(t, args, result):
    polys = getattr(result, "polys", [result])
    t.note_max("drg.poly_bits_max", max(bits(p) for p in polys))


COUNTERS = {
    "graphs.build": lambda t, args, r: t.count("graphs.vertices_built", r.n),
    "graphs.bfs": lambda t, args, r: t.count("graphs.bfs_calls", 1),
    "drg.ia": lambda t, args, r: t.count("drg.ia_pairs", args[0].n ** 2),
    "drg.poly": _count_poly,
    "equitable.verify": lambda t, args, r: t.count("equitable.verify_rows", args[1].rows),
    "ratmat.matmul": _count_matmul,
    "ratmat.rowpoly": lambda t, args, r: t.note_max("ratmat.bits_max", matrix_bits(r)),
    "ratmat.tensor": lambda t, args, r: t.note_max("ratmat.bits_max", matrix_bits(r)),
    "oracle.brute": lambda t, args, r: t.count("oracle.vertices_summed", args[0].n),
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self.counts: Counter = Counter()
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name, a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            counter = COUNTERS.get(name)
            if counter is not None:
                counter(self, args, result)
            return result
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.job)
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self, package: str = "eqpart") -> None:
        namespaces = [m for key, m in sys.modules.items()
                      if key == package or key.startswith(package + ".")]
        for name, targets in LAYERS.items():
            for module, attr in targets:
                owner = importlib.import_module(f"{package}.{module}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, key, original))
                            setattr(ns, key, wrapper)

    def restore(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()

    def layer_seconds(self) -> Counter:
        """Total self time per span name."""
        totals: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]] += own
        return totals
