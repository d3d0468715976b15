"""Batch command-line interface: the parser and ``main``.

Every command reads JSON files, prints a single JSON document on stdout, and
is deterministic.  All rationals travel as "p/q" strings (plain integers are
accepted on input).  Exit codes: 0 on success, 1 on domain errors, 2 on
argument errors.  --vertex-budget may stand after a command or its mode.

This module holds the command table, the parser built from it and ``main``.
The handlers, and the readers only they use, are in
:mod:`eqpart.commands`, which ``main`` imports after argparse has parsed:
``--help`` and usage errors compile none of it.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import DEFAULT_VERTEX_BUDGET, EqpartError


def __getattr__(name: str):
    """``vertex_distribution``, looked up in :mod:`eqpart.distributions` on
    every access: the benchmark tracer's tests read the wrapper it installs
    there through this module."""
    if name == "vertex_distribution":
        from .distributions import vertex_distribution

        return vertex_distribution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
# the command's own serves it.  A handler is the name of a function of
# eqpart.commands.
_COMMANDS = {
    "gen": ("generate a graph as JSON", "gen", (), ("family", {
        "hamming": (None, (_req("-n", type=int), _req("-q", type=int))),
        "johnson": (None, (_req("-n", type=int), _req("-k", type=int))),
        "halved": (None, (_req("-n", type=int),
                          _opt("--sign", choices=["even", "odd"], default="even"))),
        "product": (None, (_req("--left"), _req("--right"))),
    })),
    "quotient": ("quotient matrix of a coloring", "quotient",
                 (_req("--graph"), _req("--coloring")), None),
    "verify": ("check a perfect structure file", "verify", (_req("--structure"),), None),
    "crc-check": ("check a vertex set for complete regularity", "crc_check",
                  (_req("--graph"), _req("--code")), None),
    "distrib": ("closed-form distributions", "distrib", (), ("mode", {
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
        "params": ("local_params", (_req("--left", help="coloring or matrix file"),
                                    _req("--right", help="coloring or matrix file"))),
        "distrib": ("local_distrib", (
            _req("--left", help="coloring file over the left factor"),
            _req("--right", help="coloring file over the right factor"),
            _opt("--coloring", help="coloring file over the product"),
            _opt("--structure", help="structure file over the product"))),
        "reconstruct": ("local_reconstruct", (
            _req("--graph", help="distance-regular left factor"),
            _req("--right-s", dest="right_s"),
            _req("--s"),
            _req("--h0", help="first rearranged row as a JSON array"))),
    })),
    "oracle": ("brute-force distribution", "oracle",
               (_req("--graph"), _req("--code"), _opt("--coloring"), _opt("--structure")), None),
    "selftest": ("run the built-in example suite", "selftest", (), None),
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
    """Run one command, with a graph table of its own (a second call builds
    its graphs again).  Its exact numbers may have any number of digits:
    the interpreter's limit on int-string conversion is lifted while the
    command reads and prints them, and restored on return."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    from . import commands

    # a Python without the limit has neither function
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        return getattr(commands, args.func)(args, commands.graph_table(args.vertex_budget))
    except EqpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
