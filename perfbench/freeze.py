"""Regenerate expected.json: the oracle's answer for the canonical instance of
every job in every workload.

The answers come from eqpart's brute-force oracle (BFS and addition only) and
from direct neighbour counting, never from the closed formulas the jobs
exercise.  Run it from the repository root after changing cases.py:

    python3 perfbench/freeze.py
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
from eqpart.graphs import direct_product, load_graph  # noqa: E402
from eqpart.equitable import coloring_from_list, quotient_matrix  # noqa: E402
from eqpart.oracle import brute_distribution, brute_pair_distribution  # noqa: E402


def solve_single(c: dict) -> dict:
    g = load_graph(c["graph"])
    col = coloring_from_list(g, c["colors"])
    base = {"s": quotient_matrix(g, col).to_strings()}
    if c["code"] is not None:
        f0 = [0] * col.n_colors
        for v in c["code"]:
            f0[col.colors[v]] += 1
        base["f0"] = [str(x) for x in f0]
        base["rows"] = brute_distribution(g, c["code"], col).to_strings()
    return base


def solve_pair(c: dict) -> dict:
    left, right = load_graph(c["left"]), load_graph(c["right"])
    prod = direct_product(left, right)
    lcol = coloring_from_list(left, c["lcolors"])
    rcol = coloring_from_list(right, c["rcolors"])
    fcol = coloring_from_list(prod, c["fcolors"])
    k2 = rcol.n_colors
    pcol = coloring_from_list(
        prod, [lcol.colors[v // right.n] * k2 + rcol.colors[v % right.n] for v in range(prod.n)]
    )
    return {
        "r2": quotient_matrix(right, rcol).to_strings(),
        "s": quotient_matrix(prod, fcol).to_strings(),
        "h": brute_pair_distribution(prod, pcol, fcol).to_strings(),
    }


SOLVERS = {"single": solve_single, "pair": solve_pair, "none": lambda c: {}}


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in cases.WORKLOADS:
            for job in cases.build(workload, None, Path(tmp)):
                c = job.canon()
                out[f"{workload}/{job.name}"] = SOLVERS[c["kind"]](c)
                print(f"{workload}/{job.name}", file=sys.stderr)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
