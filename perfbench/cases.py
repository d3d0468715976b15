"""Workloads of the eqpart benchmark: seeded input files, job lists and the
expected output of every job.

Nothing here imports eqpart.  Each job's expected output is a base answer for
the canonical instance, frozen in ``expected.json`` by ``freeze.py`` from the
BFS oracle, carried through what the seed did to the inputs:

- a graph automorphism (a translate of the binary Hamming graph, or a
  coordinate permutation that fixes the code) leaves every answer unchanged;
- relabelling the colours by a permutation matrix P, or mixing the columns
  of a structure by an invertible rational matrix M, turns f into f T,
  S into T^-1 S T, f0 into f0 T and every distribution row r into r T.

So the program sees only generated JSON files, and every output is checked
exactly against an answer that was not computed by the formula path.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# -- exact matrices as lists of Fraction rows ---------------------------------


def mat(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def strs(a) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def identity(k):
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def inverse(a):
    """Gauss-Jordan inverse of a square invertible matrix."""
    n = len(a)
    aug = [list(row) + e for row, e in zip(a, identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def conjugate(s, t):
    """T^-1 S T: the parameter matrix of f T when f has parameters S."""
    return mul(mul(inverse(t), s), t)


def rearrange(h, k1, k2):
    """Rows (i1*k2 + i2) of h become row i1 of h*, columns (i2*m + j)."""
    return [[x for i2 in range(k2) for x in h[i1 * k2 + i2]] for i1 in range(k1)]


# -- seeded choices -------------------------------------------------------------


class Draw:
    """The seed's choices.  Without a seed every choice is the identity, which
    gives the canonical instance that ``freeze.py`` solves with the oracle."""

    HEIGHT = 5  # numerators in [-5, 5], denominators in [1, 5]

    def __init__(self, seed: int | None, mixing: bool = False):
        self.canonical = seed is None
        self.mixing = mixing
        self.rng = random.Random(0 if seed is None else seed)

    def translate(self, n: int) -> int:
        """A binary word of length n: an automorphism of H(n, 2) by XOR."""
        return 0 if self.canonical else self.rng.randrange(2**n)

    def word_of_weight(self, n: int, w: int) -> int:
        """A word of weight w; the coordinate permutations fixing 0 move it."""
        bits = range(w) if self.canonical else self.rng.sample(range(n), w)
        return sum(1 << b for b in bits)

    def pick(self, options):
        return options[0] if self.canonical else self.rng.choice(options)

    def relabel(self, k: int):
        """A colour relabelling as a permutation matrix."""
        pi = list(range(k))
        if not self.canonical:
            self.rng.shuffle(pi)
        return [[Fraction(int(pi[i] == j)) for j in range(k)] for i in range(k)]

    def rational(self, nonzero: bool = False) -> Fraction:
        while True:
            x = Fraction(
                self.rng.randint(-self.HEIGHT, self.HEIGHT), self.rng.randint(1, self.HEIGHT)
            )
            if x or not nonzero:
                return x

    def mix(self, k: int):
        """A dense invertible rational k x k matrix L U of bounded height."""
        if self.canonical:
            return identity(k)
        lower = [[Fraction(int(i == j)) if j >= i else self.rational() for j in range(k)]
                 for i in range(k)]
        upper = [[self.rational(nonzero=True) if i == j else
                  (self.rational() if j > i else Fraction(0)) for j in range(k)]
                 for i in range(k)]
        return mul(lower, upper)

    def column_map(self, k: int):
        """T for the columns of a structure: mixed on the rational workload,
        relabelled elsewhere."""
        return self.mix(k) if self.mixing else self.relabel(k)


# -- graphs, colourings and codes in eqpart's vertex order ------------------------


def ham(n: int, q: int = 2) -> dict:
    return {"gen": "hamming", "n": n, "q": q}


def product(left: dict, right: dict) -> dict:
    return {"gen": "product", "left": left, "right": right}


def digits(v: int, n: int, q: int) -> list[int]:
    """Hamming word of vertex v, coordinate 0 most significant."""
    return [v // q ** (n - 1 - i) % q for i in range(n)]


def popcount(v: int) -> int:
    return bin(v).count("1")


def qary_weight(v: int, n: int, q: int) -> int:
    return sum(1 for x in digits(v, n, q) if x)


def binary_distance_coloring(n: int, sources) -> list[int]:
    """Colour of each vertex of H(n, 2): its distance to the source set."""
    return [min(popcount(v ^ s) for s in sources) for v in range(2**n)]


def lattice_colors(m: int, k: int, q: int) -> list[int]:
    """Block-sum colouring of H(m*k, q), as eqpart.lattice_coloring builds it."""
    out = []
    for v in range(q ** (m * k)):
        word = digits(v, m * k, q)
        total = [sum(word[b * k + i] for b in range(m)) % q for i in range(k)]
        out.append(sum(x * q ** (k - 1 - i) for i, x in enumerate(total)))
    return out


def relabelled(colors, t) -> list[int]:
    pi = [image(t, i) for i in range(len(t))]
    return [pi[c] for c in colors]


def coloring_doc(graph: dict, colors) -> dict:
    return {"graph": graph, "colors": list(colors)}


# -- jobs ---------------------------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation.

    ``canon`` returns what the oracle needs to solve this instance (used by
    freeze.py on the canonical instance).  ``render`` takes the frozen base
    answer, writes the input files and returns the argv and the expected
    stdout document.
    """

    name: str
    canon: Callable[[], dict]
    render: Callable[[dict], tuple[list[str], dict]]


class Workdir:
    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, doc) -> str:
        path = self.root / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return str(path)


def single(graph, colors, code=None) -> dict:
    """Oracle input: one coloring over a graph, optionally a code."""
    return {"kind": "single", "graph": graph, "colors": list(colors), "code": code}


def pair(left, lcolors, right, rcolors, fcolors) -> dict:
    """Oracle input: colorings of two factors and one over their product."""
    return {"kind": "pair", "left": left, "lcolors": list(lcolors), "right": right,
            "rcolors": list(rcolors), "fcolors": list(fcolors)}


def rows_doc(rows, t) -> dict:
    return {"rows": strs(mul(mat(rows), t))}


def image(t, i: int) -> int:
    """Where the permutation matrix t sends colour i."""
    return t[i].index(1)


def put_files(w, name, files) -> list[str]:
    """Write the command's input files; ``files`` maps flags to documents."""
    argv = []
    for flag, doc in files.items():
        argv += [flag, w.put(f"{name}.{flag[2:]}.json", doc)]
    return argv


def formula_job(d, w, name, cmd, files, canon, k, color=None):
    """A closed-form command fed with --s S' of a relabelled or mixed
    structure, and --f0 f0' or, for ``distrib vertex``, --color pi(j); the
    answer is the base distribution times T."""
    t = d.column_map(k)

    def render(base):
        s = w.put(f"{name}.s.json", {"s": strs(conjugate(mat(base["s"]), t))})
        argv = cmd + put_files(w, name, files) + ["--s", s]
        if color is None:
            argv += ["--f0", json.dumps(strs(mul(mat([base["f0"]]), t))[0])]
        else:
            argv += ["--color", str(image(t, color))]
        return argv, rows_doc(base["rows"], t)

    return Job(name, canon, render)


def oracle_job(d, w, name, cmd, files, graph, colors, code, k, color=None):
    """A distrib command with --verify-oracle over a seeded instance, with the
    coloring relabelled (or, on the rational workload, given as a structure
    whose columns are mixed).

    ``files`` maps the command's file flags to their documents; ``code`` is
    the vertex set the command distributes over, which the oracle needs.
    """
    t = d.column_map(k)

    def canon():
        return single(graph, colors, code)

    def render(base):
        argv = cmd + put_files(w, name, files)
        if d.mixing:
            f = mul(indicator(colors, k), t)
            doc = {"graph": graph, "f": strs(f), "s": strs(conjugate(mat(base["s"]), t))}
            argv += ["--structure", w.put(f"{name}.structure.json", doc)]
        else:
            argv += ["--coloring", w.put(f"{name}.coloring.json",
                                         coloring_doc(graph, relabelled(colors, t)))]
        if color is not None:
            argv += ["--color", str(image(t, color))]
        return argv + ["--verify-oracle"], rows_doc(base["rows"], t)

    return Job(name, canon, render)


def indicator(colors, k):
    return [[Fraction(int(c == j)) for j in range(k)] for c in colors]


def local_distrib_job(d, w, name, nl, nr, lweight, rweight):
    """local distrib on H(nl,2) x H(nr,2): vertex distance colorings of the
    factors from seeded sources, and f the distance coloring of the product
    from a vertex at fixed factor weights from them (a coloring, or a mixed
    rational structure)."""
    a, b = d.translate(nl), d.translate(nr)
    wl, wr = d.word_of_weight(nl, lweight), d.word_of_weight(nr, rweight)
    left, right, prod = ham(nl), ham(nr), product(ham(nl), ham(nr))
    lcol = binary_distance_coloring(nl, [a])
    rcol = binary_distance_coloring(nr, [b])
    fcol = binary_distance_coloring(nl + nr, [((a ^ wl) << nr) | (b ^ wr)])
    k1, k2, m = nl + 1, nr + 1, nl + nr + 1
    t1, t2 = d.relabel(k1), d.relabel(k2)
    t3 = d.column_map(m)

    def canon():
        return pair(left, lcol, right, rcol, fcol)

    def render(base):
        lpath = w.put(f"{name}.left.json", coloring_doc(left, relabelled(lcol, t1)))
        rpath = w.put(f"{name}.right.json", coloring_doc(right, relabelled(rcol, t2)))
        argv = ["local", "distrib", "--left", lpath, "--right", rpath]
        if d.mixing:
            doc = {"graph": prod, "f": strs(mul(indicator(fcol, m), t3)),
                   "s": strs(conjugate(mat(base["s"]), t3))}
            argv += ["--structure", w.put(f"{name}.structure.json", doc)]
        else:
            argv += ["--coloring",
                     w.put(f"{name}.coloring.json", coloring_doc(prod, relabelled(fcol, t3)))]
        tt = kron(t1, t2)
        h = mul(mul(list(map(list, zip(*tt))), mat(base["h"])), t3)
        doc = {"n_left": k1, "n_right": k2, "k": m, "h": strs(h),
               "h_star": strs(rearrange(h, k1, k2))}
        return argv, doc

    return Job(name, canon, render)


def local_reconstruct_job(d, w, name, left, lcol, right, rcol, fcol, k2, m):
    """local reconstruct: all of h* from its first row, R2 and S, with the
    right colours and f columns relabelled (or mixed) by T2 and T3."""
    t2 = d.column_map(k2)
    t3 = d.column_map(m)

    def canon():
        return pair(left, lcol(), right, rcol(), fcol())

    def render(base):
        k1 = len(base["h"]) // k2
        h_star = mul(rearrange(mat(base["h"]), k1, k2), kron(t2, t3))
        argv = [
            "local", "reconstruct",
            "--graph", w.put(f"{name}.graph.json", left),
            "--right-s", w.put(f"{name}.r2.json", {"s": strs(conjugate(mat(base["r2"]), t2))}),
            "--s", w.put(f"{name}.s.json", {"s": strs(conjugate(mat(base["s"]), t3))}),
            "--h0", json.dumps(strs(h_star[:1])[0]),
        ]
        return argv, {"h_star": strs(h_star)}

    return Job(name, canon, render)


# -- the three workloads --------------------------------------------------------------


def johnson(n, k):
    return {"gen": "johnson", "n": n, "k": k}


def johnson_colors(n, k):
    """Distance from the first k-subset {0..k-1}, in eqpart's vertex order."""
    base = set(range(k))
    return [k - len(base & set(s)) for s in itertools.combinations(range(n), k)]


def halved_colors(n):
    """Distance from the zero word in the even halved n-cube."""
    return [popcount(v) // 2 for v in range(2**n) if popcount(v) % 2 == 0]


def pcube_code(n, p, q):
    return [v for v in range(q**n) if all(x < p for x in digits(v, n, q))]


def lattice_class0(m, k, q):
    return [v for v, c in enumerate(lattice_colors(m, k, q)) if c == 0]


def closed_form(d, w) -> list[Job]:
    """Answers that need only a polynomial family and the given S and f0;
    today the CLI still builds the q^n graph and runs all-pairs BFS."""

    def lattice(name, m, k, q, colors_fn, ncolors):
        cmd = ["distrib", "lattice", "-m", str(m), "-k", str(k), "-q", str(q)]
        canon = lambda: single(ham(m * k, q), colors_fn(), lattice_class0(m, k, q))  # noqa: E731
        return formula_job(d, w, name, cmd, {}, canon, ncolors)

    def pcube(name, n, p, q, colors_fn, ncolors):
        cmd = ["distrib", "pcube", "-n", str(n), "-p", str(p), "-q", str(q)]
        canon = lambda: single(ham(n, q), colors_fn(), pcube_code(n, p, q))  # noqa: E731
        return formula_job(d, w, name, cmd, {}, canon, ncolors)

    def vertex(name, graph, colors_fn, ncolors, color):
        def canon():
            colors = colors_fn()
            return single(graph, colors, [colors.index(color)])
        return formula_job(d, w, name, ["distrib", "vertex"], {"--graph": graph}, canon,
                           ncolors, color)

    def weight_colors(n, q):
        return lambda: [qary_weight(v, n, q) for v in range(q**n)]

    def sum_colors(n, q):
        return lambda: [sum(digits(v, n, q)) % q for v in range(q**n)]

    return [
        lattice("lattice_m3k4q2", 3, 4, 2, lambda: lattice_colors(3, 4, 2), 16),
        lattice("lattice_m3k5q2", 3, 5, 2, weight_colors(15, 2), 16),
        lattice("lattice_m2k3q3", 2, 3, 3, weight_colors(6, 3), 7),
        pcube("pcube_n8p2q3", 8, 2, 3, weight_colors(8, 3), 9),
        pcube("pcube_n10p2q3", 10, 2, 3, sum_colors(10, 3), 3),
        vertex("vertex_j10_5", johnson(10, 5), lambda: johnson_colors(10, 5), 6, 2),
        vertex("vertex_j9_4", johnson(9, 4), lambda: johnson_colors(9, 4), 5, 1),
        vertex("vertex_halved9", {"gen": "halved", "n": 9}, lambda: halved_colors(9), 5, 1),
        local_reconstruct_job(
            d, w, "local_reconstruct_j8_4", johnson(8, 4), lambda: johnson_colors(8, 4),
            ham(3), lambda: binary_distance_coloring(3, [0]),
            lambda: [jc * 4 + popcount(r ^ 1)
                     for jc in johnson_colors(8, 4) for r in range(8)], 4, 20),
        *spot_checks(d, w),
    ]


def spot_checks(d, w) -> list[Job]:
    """Small --verify-oracle and product jobs, as a user spot-checks a formula
    on a small instance; they keep every layer in use on the workload."""
    t = d.translate(4)
    return [
        oracle_job(d, w, "spot_lattice_m2k2q2",
                   ["distrib", "lattice", "-m", "2", "-k", "2", "-q", "2"], {}, ham(4),
                   lattice_colors(2, 2, 2), lattice_class0(2, 2, 2), 4),
        oracle_job(d, w, "spot_code_h4", ["distrib", "code"],
                   {"--graph": ham(4), "--code": [t, t ^ 15]}, ham(4),
                   binary_distance_coloring(4, [t ^ 1]), [t, t ^ 15], 5),
        local_distrib_job(d, w, "spot_local_distrib_h2h2", 2, 2, 1, 0),
    ]


def repetition_code_job(d, w, name, n, weight):
    """distrib code: the repetition code translated by t, and f the distance
    coloring from a vertex at a fixed distance from the code."""
    t, u = d.translate(n), d.word_of_weight(n, weight)
    code = [t, t ^ (2**n - 1)]
    return oracle_job(d, w, name, ["distrib", "code"], {"--graph": ham(n), "--code": code},
                      ham(n), binary_distance_coloring(n, [t ^ u]), code, n + 1)


def graph_check(d, w) -> list[Job]:
    """Jobs that touch every vertex on integer-valued data: quotient matrices,
    verification of A f = f S, intersection arrays and the oracle."""

    def vertex(name, n, color):
        colors = binary_distance_coloring(n, [d.translate(n)])
        return oracle_job(d, w, name, ["distrib", "vertex"], {"--graph": ham(n)}, ham(n),
                          colors, [colors.index(color)], n + 1, color)

    lattice_t = d.pick(lattice_class0(3, 3, 2))
    right_b = d.word_of_weight(5, 2)
    crc_t, quot_s, quot_t = d.translate(10), d.translate(10), d.relabel(11)

    def crc(base):
        argv = ["crc-check", "--graph", w.put("crc_h10.graph.json", ham(10)),
                "--code", w.put("crc_h10.code.json", [crc_t, crc_t ^ 1023])]
        return argv, {"rho": len(base["s"]) - 1, "R": base["s"]}

    def quotient(base):
        colors = relabelled(binary_distance_coloring(10, [quot_s]), quot_t)
        argv = ["quotient", "--graph", w.put("quotient_h10.graph.json", ham(10)),
                "--coloring", w.put("quotient_h10.coloring.json", coloring_doc(ham(10), colors))]
        return argv, {"k": 11, "s": strs(conjugate(mat(base["s"]), quot_t))}

    return [
        vertex("vertex_h9", 9, 3),
        vertex("vertex_h8", 8, 2),
        vertex("vertex_h7", 7, 1),
        repetition_code_job(d, w, "code_h8_repetition", 8, 3),
        oracle_job(d, w, "lattice_m3k3q2",
                   ["distrib", "lattice", "-m", "3", "-k", "3", "-q", "2"], {}, ham(9),
                   binary_distance_coloring(9, [lattice_t]), lattice_class0(3, 3, 2), 10),
        oracle_job(d, w, "fiber_h3_h5", ["distrib", "fiber"],
                   {"--left": ham(3), "--right": ham(5)}, product(ham(3), ham(5)),
                   [popcount((v % 32) ^ right_b) for v in range(256)],
                   [v * 32 for v in range(8)], 6),
        Job("crc_h10", lambda: single(ham(10), binary_distance_coloring(10, [0, 1023])), crc),
        Job("quotient_h10", lambda: single(ham(10), binary_distance_coloring(10, [0])),
            quotient),
        local_distrib_job(d, w, "local_distrib_h5h5", 5, 5, 1, 2),
        local_distrib_job(d, w, "local_distrib_h4h4", 4, 4, 2, 1),
        local_reconstruct_job(
            d, w, "local_reconstruct_h4_h2", ham(4), lambda: binary_distance_coloring(4, [0]),
            ham(2), lambda: binary_distance_coloring(2, [0]),
            lambda: binary_distance_coloring(6, [0b000110]), 3, 7),
    ]


def rational_dense(d, w) -> list[Job]:
    """The same ratmat, distributions and drg layers on genuinely non-integer
    rationals: structures mixed by a random invertible rational M."""

    def verify(name, n, k):
        def render(_base):
            host, f, s = explicit_structure(d, n, k)
            path = w.put(f"{name}.structure.json",
                         {"matrix": strs(host), "f": strs(f), "s": strs(s)})
            return ["verify", "--structure", path], {"ok": True, "residual": [["0"] * k] * n}
        return Job(name, lambda: {"kind": "none"}, render)

    def pcube(name, n, p, q):
        cmd = ["distrib", "pcube", "-n", str(n), "-p", str(p), "-q", str(q)]
        canon = lambda: single(ham(n, q), [qary_weight(v, n, q) for v in range(q**n)],  # noqa: E731
                               pcube_code(n, p, q))
        return formula_job(d, w, name, cmd, {}, canon, n + 1)

    return [
        verify("verify_dense_90x6", 90, 6),
        verify("verify_dense_60x4", 60, 4),
        repetition_code_job(d, w, "code_h8_repetition", 8, 2),
        pcube("pcube_n5p2q5", 5, 2, 5),
        pcube("pcube_n6p2q3", 6, 2, 3),
        local_reconstruct_job(
            d, w, "local_reconstruct_h5_h3", ham(5), lambda: binary_distance_coloring(5, [0]),
            ham(3), lambda: binary_distance_coloring(3, [0]),
            lambda: binary_distance_coloring(8, [0b00011001]), 4, 9),
        local_distrib_job(d, w, "local_distrib_h4h4", 4, 4, 1, 1),
    ]


def explicit_structure(d, n, k):
    """A dense rational host A with A f = f S: with f0 = [I; X] and
    A = [f0 S - B X | B], A f0 = f0 S; then f = f0 M and S' = M^-1 S M."""
    x = [[d.rational() for _ in range(k)] for _ in range(n - k)]
    s = [[d.rational() for _ in range(k)] for _ in range(k)]
    b = [[d.rational() for _ in range(n - k)] for _ in range(n)]
    f0 = identity(k) + x
    left = [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(mul(f0, s), mul(b, x))]
    host = [l_row + b_row for l_row, b_row in zip(left, b)]
    m = d.mix(k)
    return host, mul(f0, m), conjugate(s, m)


WORKLOADS = {
    "closed_form": closed_form,
    "graph_check": graph_check,
    "rational_dense": rational_dense,
}


def build(workload: str, seed: int | None, workdir: Path) -> list[Job]:
    """The workload's jobs for this seed (canonical without a seed)."""
    d = Draw(seed, mixing=workload == "rational_dense")
    return WORKLOADS[workload](d, Workdir(workdir))
