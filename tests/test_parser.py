"""The CLI parser: every command and mode has its help, and the parser built
for one argv (with only the invoked command's arguments) prints exactly what
the full parser prints, help and errors included."""
import contextlib
import io

import pytest

from eqpart.cli import build_parser, main

DISTRIB_VALUES = ["--s", "--f0", "--coloring", "--structure", "--verify-oracle"]

# argv before --help -> what its help must list
HELP = {
    (): ["gen", "quotient", "verify", "crc-check", "distrib", "local", "oracle", "selftest"],
    ("gen",): ["hamming", "johnson", "halved", "product"],
    ("gen", "hamming"): ["-n", "-q"],
    ("gen", "johnson"): ["-n", "-k"],
    ("gen", "halved"): ["-n", "--sign"],
    ("gen", "product"): ["--left", "--right"],
    ("quotient",): ["--graph", "--coloring"],
    ("verify",): ["--structure"],
    ("crc-check",): ["--graph", "--code"],
    ("distrib",): ["vertex", "code", "lattice", "fiber", "pcube"],
    ("distrib", "vertex"): DISTRIB_VALUES + ["--graph", "--color"],
    ("distrib", "code"): DISTRIB_VALUES + ["--graph", "--code"],
    ("distrib", "lattice"): DISTRIB_VALUES + ["-m", "-k", "-q"],
    ("distrib", "fiber"): DISTRIB_VALUES + ["--left", "--right"],
    ("distrib", "pcube"): DISTRIB_VALUES + ["-n", "-p", "-q"],
    ("local",): ["params", "distrib", "reconstruct"],
    ("local", "params"): ["--left", "--right"],
    ("local", "distrib"): ["--left", "--right", "--coloring", "--structure"],
    ("local", "reconstruct"): ["--graph", "--right-s", "--s", "--h0"],
    ("oracle",): ["--graph", "--code", "--coloring", "--structure"],
    ("selftest",): [],
}

# argv that argparse answers itself: help, and each kind of usage error
PARSER_ONLY = [[*argv, "--help"] for argv in HELP] + [
    [],
    ["distrib"],
    ["distrib", "lattice", "-m", "2", "-k", "2"],
    ["distrib", "foo"],
    ["nope"],
    ["gen", "hamming", "-n", "x", "-q", "2"],
    ["distrib", "--vertex-budget", "5", "lattice", "-m", "2", "-k", "2", "-q", "x"],
    ["distrib", "--vertex-budget", "vertex", "lattice", "-m", "2", "-k", "2", "-q", "2"],
    ["distrib", "-h", "lattice"],
    ["local", "distrib", "--left", "a.json"],
    ["gen", "halved", "-n", "4", "--sign", "both"],
    ["distrib", "lattice", "-m", "2", "-k", "2", "-q", "2", "--bogus"],
]


def parse(parser, argv) -> tuple:
    """(exit code, stdout, stderr) of parsing argv with parser."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
def test_help_exits_0_and_lists_the_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: eqpart")
    for option in HELP[argv] + ["--help"] + (["--vertex-budget"] if argv else []):
        assert option in out


@pytest.mark.parametrize("argv", PARSER_ONLY, ids=" ".join)
def test_parser_for_argv_prints_what_the_full_parser_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = parse(build_parser(), argv)
    assert full[0] is not None
    assert parse(build_parser(argv), argv) == full


def test_parser_for_argv_adds_only_the_invoked_arguments():
    def dests(parser, *path):
        for name in path:
            parser = next(a for a in parser._actions if a.dest in ("command", "family", "mode"))
            parser = parser.choices[name]
        return {a.dest for a in parser._actions}

    argv = ["distrib", "lattice", "-m", "2", "-k", "2", "-q", "2"]
    partial, full = build_parser(argv), build_parser()
    assert dests(partial, "distrib", "lattice") == dests(full, "distrib", "lattice")
    assert dests(partial, "distrib", "pcube") == {"help", "vertex_budget"}
    assert dests(partial, "quotient") == {"help", "vertex_budget"}
    assert "graph" in dests(full, "quotient")
