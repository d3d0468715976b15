"""What a CLI run imports: only the modules its command executes.

Each case runs the CLI in a fresh interpreter, as ``python -m eqpart.cli``
would, and compares ``sys.modules`` before and after the run, so that what
``site`` loads on a given machine does not count.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
before = set(sys.modules)
sys.argv = ["eqpart", *argv]
try:
    runpy.run_module("eqpart.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}), file=sys.stderr)
"""

STRUCTURE_MODULES = {"eqpart.equitable", "eqpart.localdist", "eqpart.oracle", "eqpart.codes",
                     "eqpart.selftest"}


def loaded_by(*argv, exit_code=0) -> set[str]:
    """The modules a CLI run with ``argv`` imports; the run must exit with ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
    )
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["exit"] == exit_code, proc.stderr
    return set(report["loaded"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    s, johnson = tmp / "s.json", tmp / "j.json"
    s.write_text("[[0, 2], [2, 0]]")
    johnson.write_text('{"gen": "johnson", "n": 6, "k": 3}')
    h4, weights, code = tmp / "h4.json", tmp / "w4.json", tmp / "code.json"
    h4.write_text('{"gen": "hamming", "n": 4, "q": 2}')
    weights.write_text(json.dumps({"graph": json.loads(h4.read_text()),
                                   "colors": [bin(v).count("1") for v in range(16)]}))
    code.write_text("[0, 15]")
    structure = tmp / "t4.json"
    structure.write_text(json.dumps({"graph": json.loads(h4.read_text()), "f": [[1]] * 16,
                                     "s": [[4]]}))
    j84, one = tmp / "j84.json", tmp / "one.json"
    j84.write_text('{"gen": "johnson", "n": 8, "k": 4}')
    one.write_text("[[1]]")
    h3, h3_weights, h3h3_weights = tmp / "h3.json", tmp / "w3.json", tmp / "w33.json"
    h3.write_text('{"gen": "hamming", "n": 3, "q": 2}')
    h3_weights.write_text(json.dumps({"graph": json.loads(h3.read_text()),
                                      "colors": [bin(v).count("1") for v in range(8)]}))
    h3h3 = {"gen": "product", "left": json.loads(h3.read_text()),
            "right": json.loads(h3.read_text())}
    h3h3_weights.write_text(json.dumps({"graph": h3h3,
                                        "colors": [bin(v).count("1") for v in range(64)]}))
    return {
        "help": loaded_by("--help"),
        "usage_error": loaded_by("distrib", "lattice", "-m", "2", "-k", "x", exit_code=2),
        "lattice": loaded_by("distrib", "lattice", "-m", "2", "-k", "2", "-q", "2",
                             "--s", str(s), "--f0", "[1, 0]"),
        "pcube": loaded_by("distrib", "pcube", "-n", "3", "-p", "1", "-q", "2",
                           "--s", str(s), "--f0", '[1, "1/2"]'),
        "vertex": loaded_by("distrib", "vertex", "--graph", str(johnson), "--s", str(s),
                            "--color", "0"),
        "fiber": loaded_by("distrib", "fiber", "--left", str(johnson), "--right", str(h4),
                           "--s", str(s), "--f0", "[1, 0]"),
        "vertex_oracle": loaded_by("distrib", "vertex", "--graph", str(h4), "--coloring",
                                   str(weights), "--color", "1", "--verify-oracle"),
        "quotient": loaded_by("quotient", "--graph", str(h4), "--coloring", str(weights)),
        "verify": loaded_by("verify", "--structure", str(structure)),
        "oracle": loaded_by("oracle", "--graph", str(h4), "--code", str(code),
                            "--coloring", str(weights)),
        "local_params": loaded_by("local", "params", "--left", str(h3_weights),
                                  "--right", str(weights)),
        "crc-check": loaded_by("crc-check", "--graph", str(h4), "--code", str(code)),
        "code_oracle": loaded_by("distrib", "code", "--graph", str(h4), "--code", str(code),
                                 "--coloring", str(weights), "--verify-oracle"),
        "local_reconstruct": loaded_by("local", "reconstruct", "--graph", str(j84),
                                       "--right-s", str(one), "--s", str(s), "--h0", "[1, 0]"),
        "local_distrib": loaded_by("local", "distrib", "--left", str(h3_weights),
                                   "--right", str(h3_weights), "--coloring", str(h3h3_weights)),
    }

GRAPH_FREE = ["lattice", "pcube", "vertex", "fiber"]


def eqpart_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "eqpart" or m.startswith("eqpart.")}


def test_help_loads_only_the_cli_and_the_errors(runs):
    loaded = eqpart_modules(runs["help"])
    assert "eqpart" in loaded
    assert loaded <= {"eqpart", "eqpart.cli", "eqpart.errors"}


def test_a_usage_error_loads_only_the_cli_and_the_errors(runs):
    # no eqpart.commands: argparse stops before main imports the handlers
    loaded = eqpart_modules(runs["usage_error"])
    assert "eqpart" in loaded
    assert loaded <= {"eqpart", "eqpart.cli", "eqpart.errors"}


def test_graph_free_lattice_loads_no_structure_module(runs):
    loaded = eqpart_modules(runs["lattice"])
    assert "eqpart.distributions" in loaded
    assert not loaded & STRUCTURE_MODULES


@pytest.mark.parametrize("run", ["lattice", "pcube"])
def test_graph_free_lattice_and_pcube_load_the_handlers_kernel_and_matrices_only(runs, run):
    # the CLI runs as __main__: no eqpart.cli either, which would compile cli.py twice
    assert eqpart_modules(runs[run]) == {"eqpart", "eqpart.commands", "eqpart.errors",
                                         "eqpart.distributions", "eqpart.ratmat"}


@pytest.mark.parametrize("run", ["quotient", "verify", "crc-check", "oracle"])
def test_graph_only_commands_load_no_distribution_or_array_code(runs, run):
    # the row kernel lives in eqpart.distributions, and drg imports it from there
    loaded = runs[run]
    assert "eqpart.commands" in loaded
    assert not loaded & {"eqpart.distributions", "eqpart.drg"}


@pytest.mark.parametrize("run", ["help", "lattice"])
def test_no_run_imports_dataclasses(runs, run):
    assert "dataclasses" not in runs[run]


@pytest.mark.parametrize("run", GRAPH_FREE)
def test_graph_free_closed_form_loads_no_graph_polynomial_or_fraction_code(runs, run):
    loaded = runs[run]
    assert "eqpart.distributions" in loaded
    assert not loaded & {"eqpart.graphs", "eqpart.polys", "fractions"}
    assert not eqpart_modules(loaded) & STRUCTURE_MODULES


@pytest.mark.parametrize("run", ["vertex_oracle", "quotient", "crc-check", "oracle",
                                 "local_params"])
def test_graph_route_on_a_coloring_loads_no_fraction_code(runs, run):
    assert "eqpart.graphs" in runs[run]
    assert not runs[run] & {"fractions", "decimal", "numbers"}


def test_distrib_code_loads_no_polynomial_drg_or_fraction_code(runs):
    assert "eqpart.distributions" in runs["code_oracle"]
    assert not runs["code_oracle"] & {"eqpart.polys", "eqpart.drg", "fractions"}


def test_local_distrib_loads_no_fraction_code(runs):
    assert "eqpart.localdist" in runs["local_distrib"]
    assert not runs["local_distrib"] & {"fractions", "decimal", "numbers"}


def test_local_reconstruct_loads_no_graph_structure_or_product_code(runs):
    loaded = runs["local_reconstruct"]
    assert {"eqpart.distributions", "eqpart.drg"} <= loaded
    assert not loaded & {"eqpart.graphs", "eqpart.equitable", "eqpart.localdist"}


BAD_STRUCTURE = """
import sys
from eqpart.equitable import PerfectStructure
from eqpart.errors import StructureError
from eqpart.graphs import hamming_graph
from eqpart.ratmat import from_json
try:
    PerfectStructure(hamming_graph(2, 2), from_json([[1, 0], [0, 1], [0, 1], ["1/2", 0]]),
                     from_json([[0, 2], [2, 0]]))
except StructureError as exc:
    print(exc)
print("fractions" in sys.modules)
"""


def test_a_failed_structure_check_names_its_row_without_fraction_code():
    proc = subprocess.run([sys.executable, "-c", BAD_STRUCTURE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == [
        "values do not satisfy the defining equation; first nonzero residual row 1: "
        "['-1/2', '0']",
        "False",
    ]
